//! Golden determinism of the training pipeline: repeated runs — at any
//! Stage-2 thread count — publish byte-identical store snapshots, pinning
//! the "worker results are joined in job order" guarantee from the
//! typed-key serving engine PR.

use lorentz::core::{LorentzConfig, LorentzPipeline};
use lorentz::ml::TargetEncoder;
use lorentz::simdata::fleet::FleetConfig;

fn quick_config() -> LorentzConfig {
    let mut config = LorentzConfig::paper_defaults();
    config.target_encoding.boosting.n_trees = 15;
    config.hierarchical.min_bucket = 3;
    config
}

#[test]
fn training_is_byte_deterministic_across_runs_and_thread_counts() {
    let fleet = FleetConfig {
        n_servers: 150,
        seed: 20240807,
        ..FleetConfig::default()
    }
    .generate()
    .unwrap()
    .fleet;

    // Reference run: default threading (one worker per offering).
    let reference = LorentzPipeline::new(quick_config())
        .unwrap()
        .train(&fleet)
        .unwrap();
    let reference_store = serde_json::to_string(reference.store()).unwrap();
    let reference_deployment = reference.to_json().unwrap();
    assert!(
        reference_store.contains("\"entries\""),
        "sanity: snapshot has entries"
    );

    // Same call again: byte-identical store snapshot and deployment JSON.
    let rerun = LorentzPipeline::new(quick_config())
        .unwrap()
        .train(&fleet)
        .unwrap();
    assert_eq!(
        serde_json::to_string(rerun.store()).unwrap(),
        reference_store,
        "repeated train() must publish byte-identical store snapshots"
    );
    assert_eq!(rerun.to_json().unwrap(), reference_deployment);

    // Different Stage-2 thread counts: sequential (1), capped (2), and one
    // thread per offering (0 = uncapped) must all agree byte-for-byte.
    for max_threads in [1usize, 2, 0] {
        let trained = LorentzPipeline::new(quick_config())
            .unwrap()
            .train_with_threads(&fleet, 0, max_threads)
            .unwrap();
        assert_eq!(
            serde_json::to_string(trained.store()).unwrap(),
            reference_store,
            "stage2 thread cap {max_threads} changed the store snapshot"
        );
        assert_eq!(
            trained.to_json().unwrap(),
            reference_deployment,
            "stage2 thread cap {max_threads} changed the deployment JSON"
        );
    }

    // Stage-1 thread counts: the columnar rightsizing sweep partitions the
    // fleet into contiguous chunks and joins workers in chunk order, so any
    // cap — sequential (1), capped (2 / 8), uncapped (0) — must reproduce
    // the reference bytes exactly.
    for stage1_threads in [1usize, 2, 8, 0] {
        let trained = LorentzPipeline::new(quick_config())
            .unwrap()
            .train_with_threads(&fleet, stage1_threads, 1)
            .unwrap();
        assert_eq!(
            serde_json::to_string(trained.store()).unwrap(),
            reference_store,
            "stage1 thread cap {stage1_threads} changed the store snapshot"
        );
        assert_eq!(
            trained.to_json().unwrap(),
            reference_deployment,
            "stage1 thread cap {stage1_threads} changed the deployment JSON"
        );
    }

    // Parallel target encoding on the real fleet profiles: fitting the
    // encoder at any thread cap must reproduce the sequential fit exactly,
    // so the cap chosen inside the pipeline can never leak into the model.
    let labels: Vec<f64> = (0..fleet.profiles().rows())
        .map(|i| 1.0 + (i % 7) as f64)
        .collect();
    let config = quick_config();
    let serial = TargetEncoder::fit_with_threads(
        fleet.profiles(),
        &labels,
        config.target_encoding.statistic,
        config.target_encoding.missing,
        config.target_encoding.smoothing,
        1,
    )
    .unwrap();
    for encoder_threads in [2usize, 8, 0] {
        let parallel = TargetEncoder::fit_with_threads(
            fleet.profiles(),
            &labels,
            config.target_encoding.statistic,
            config.target_encoding.missing,
            config.target_encoding.smoothing,
            encoder_threads,
        )
        .unwrap();
        assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            serde_json::to_string(&serial).unwrap(),
            "encoder thread cap {encoder_threads} changed the fitted encodings"
        );
    }
}
