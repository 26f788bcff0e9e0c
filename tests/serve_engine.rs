//! Concurrency tests for the serving engine and the hot-swap store:
//! torn-read freedom under concurrent publish, graceful-drain accounting,
//! backpressure, deadlines, and degraded mode.

use lorentz::core::store::PublishBatch;
use lorentz::core::{SatisfactionSignal, SharedPredictionStore, TrainedLorentz};
use lorentz::serve::{ServeConfig, ServeError, ServeRequest, ServingEngine};
use lorentz::types::{
    CustomerId, FeatureId, ResourceGroupId, ResourcePath, ServerOffering, StoreKey, SubscriptionId,
    ValueId,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{deployment, TestDir};

/// A valid all-missing-tags request (served by the fallback buckets and the
/// store's per-offering defaults).
fn request(deployment: &TrainedLorentz, id: u64) -> ServeRequest {
    ServeRequest {
        id,
        profile: vec![None; deployment.profiles().schema().len()],
        offering: ServerOffering::GeneralPurpose,
        path: ResourcePath::new(CustomerId(0), SubscriptionId(0), ResourceGroupId(0)),
        deadline: None,
    }
}

/// Publishes `n_keys` entries that ALL carry the same capacity `c` (plus a
/// matching default), so any mix of two store versions in one batched
/// lookup shows up as unequal capacities.
fn publish_uniform(store: &SharedPredictionStore, n_keys: usize, c: f64) -> u64 {
    let offering = ServerOffering::GeneralPurpose;
    store
        .publish(PublishBatch {
            entries: (0..n_keys)
                .map(|i| (StoreKey::new(offering, FeatureId(i), ValueId(i as u32)), c))
                .collect(),
            defaults: vec![(offering, c)],
        })
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A `lookup_batch` racing an arbitrary stream of publishes always
    /// observes a single consistent store version: every capacity in one
    /// batch is identical (all versions write uniform values, so a torn
    /// read would mix them), and the version sequence readers observe is
    /// monotone.
    #[test]
    fn concurrent_publish_and_lookup_batch_never_tear(
        n_keys in 1usize..6,
        n_publishes in 1usize..24,
    ) {
        let store = Arc::new(SharedPredictionStore::new());
        publish_uniform(&store, n_keys, 1.0);
        let done = Arc::new(AtomicBool::new(false));
        let publisher = {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for round in 0..n_publishes {
                    publish_uniform(&store, n_keys, 2.0 + round as f64);
                }
                done.store(true, Ordering::Release);
            })
        };
        let offering = ServerOffering::GeneralPurpose;
        let levels: Vec<[(FeatureId, ValueId); 1]> = (0..n_keys)
            .map(|i| [(FeatureId(i), ValueId(i as u32))])
            .collect();
        let requests: Vec<(ServerOffering, &[(FeatureId, ValueId)])> =
            levels.iter().map(|l| (offering, &l[..])).collect();
        let mut out = Vec::new();
        let mut last_version = 0u64;
        let mut rounds = 0usize;
        while rounds < 2 || !done.load(Ordering::Acquire) {
            rounds += 1;
            let version = store.version();
            prop_assert!(version >= last_version, "version went backwards");
            last_version = version;
            out.clear();
            store.lookup_batch(&requests, &mut out);
            let capacities: Vec<f64> = out
                .iter()
                .map(|r| r.as_ref().expect("uniform store always hits").0)
                .collect();
            for &c in &capacities[1..] {
                // A torn read would mix uniform values from two versions.
                prop_assert_eq!(c, capacities[0]);
            }
        }
        publisher.join().unwrap();
        prop_assert_eq!(store.version(), 1 + n_publishes as u64);
    }
}

#[test]
fn graceful_drain_answers_every_accepted_request_exactly_once() {
    let deployment = deployment();
    let (engine, responses) = ServingEngine::start(
        Arc::clone(&deployment),
        ServeConfig {
            workers: 3,
            queue_capacity: 1024,
            degraded_threshold: None,
            default_deadline: None,
            ..ServeConfig::default()
        },
    )
    .expect("engine start");
    let total = 64u64;
    for id in 0..total {
        engine.submit(request(&deployment, id)).unwrap();
    }
    let stats = engine.drain();
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.rejected, 0);
    // The metrics accounting closes: everything offered was either
    // accepted or rejected, and every accepted request was answered.
    assert_eq!(stats.submitted, stats.accepted + stats.rejected);
    assert_eq!(stats.accepted, stats.answered);
    let ids: Vec<u64> = responses.into_iter().map(|r| r.id).collect();
    assert_eq!(ids.len() as u64, stats.answered);
    let unique: HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(unique.len() as u64, total, "a request was answered twice");
    assert_eq!(unique, (0..total).collect::<HashSet<u64>>());
}

#[test]
fn saturated_queue_rejects_with_backpressure() {
    let deployment = deployment();
    let (engine, responses) = ServingEngine::start(
        Arc::clone(&deployment),
        ServeConfig {
            workers: 1,
            queue_capacity: 0,
            ..ServeConfig::default()
        },
    )
    .expect("engine start");
    for id in 0..5 {
        match engine.submit(request(&deployment, id)) {
            Err(ServeError::Saturated(depth)) => assert_eq!(depth, 0),
            other => panic!("expected Saturated, got {other:?}"),
        }
    }
    let stats = engine.drain();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.rejected, 5);
    assert_eq!(stats.accepted, 0);
    assert_eq!(stats.answered, 0);
    assert_eq!(
        responses.into_iter().count(),
        0,
        "rejected requests must not be answered"
    );
}

#[test]
fn expired_deadlines_answer_with_deadline_error() {
    let deployment = deployment();
    let (engine, responses) = ServingEngine::start(
        Arc::clone(&deployment),
        ServeConfig {
            workers: 2,
            default_deadline: Some(Duration::ZERO),
            degraded_threshold: None,
            ..ServeConfig::default()
        },
    )
    .expect("engine start");
    for id in 0..8 {
        engine.submit(request(&deployment, id)).unwrap();
    }
    let stats = engine.drain();
    assert_eq!(stats.accepted, 8);
    // Deadline-expired requests are still *answered* — with an error —
    // so the drain invariant holds and the timeout tally matches.
    assert_eq!(stats.answered, 8);
    assert_eq!(stats.timed_out, 8);
    for response in responses {
        match response.result {
            Err(ServeError::DeadlineExceeded(_)) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
}

#[test]
fn degraded_mode_serves_from_store_snapshots() {
    let deployment = deployment();
    let (engine, responses) = ServingEngine::start(
        Arc::clone(&deployment),
        ServeConfig {
            workers: 2,
            degraded_threshold: Some(0), // degrade every request
            default_deadline: None,
            ..ServeConfig::default()
        },
    )
    .expect("engine start");
    for id in 0..16 {
        engine.submit(request(&deployment, id)).unwrap();
    }
    let stats = engine.drain();
    assert_eq!(stats.degraded, 16);
    assert_eq!(stats.answered, 16);
    for response in responses {
        assert!(response.degraded, "request was admitted degraded");
        response
            .result
            .expect("store lookup with defaults succeeds");
    }
}

#[test]
fn publish_hot_swaps_store_while_engine_serves() {
    let deployment = deployment();
    let (engine, responses) = ServingEngine::start(
        Arc::clone(&deployment),
        ServeConfig {
            workers: 2,
            degraded_threshold: Some(0), // exercise the store path
            default_deadline: None,
            ..ServeConfig::default()
        },
    )
    .expect("engine start");
    let initial_version = engine.store_version();
    let mut submitted = 0u64;
    for round in 0..6u64 {
        for i in 0..8u64 {
            engine.submit(request(&deployment, round * 8 + i)).unwrap();
            submitted += 1;
        }
        let v = engine
            .publish(PublishBatch {
                entries: vec![],
                defaults: vec![(ServerOffering::GeneralPurpose, 1.0 + round as f64)],
            })
            .unwrap();
        assert_eq!(v, initial_version + round + 1);
    }
    let stats = engine.drain();
    assert_eq!(stats.accepted, submitted);
    assert_eq!(stats.answered, submitted);
    // Every request was answered despite six republishes mid-serve.
    assert_eq!(
        responses.into_iter().filter(|r| r.result.is_ok()).count() as u64,
        submitted
    );
}

/// A path the trained personalizer actually registered (feedback to an
/// unregistered customer is a no-op).
fn registered_path(deployment: &TrainedLorentz) -> ResourcePath {
    deployment
        .personalizer()
        .iter()
        .map(|(loc, _, _)| loc)
        .next()
        .expect("training registers every fleet path")
}

#[test]
fn feedback_shifts_recommendations_without_model_reload() {
    let deployment = deployment();
    let hot = registered_path(&deployment);
    let (engine, responses) = ServingEngine::start(
        Arc::clone(&deployment),
        ServeConfig {
            workers: 2,
            degraded_threshold: None,
            default_deadline: None,
            ..ServeConfig::default()
        },
    )
    .expect("engine start");
    let ask = |id| ServeRequest {
        path: hot,
        ..request(&deployment, id)
    };

    engine.submit(ask(0)).unwrap();
    let before = responses.recv().expect("first answer");
    let before = before.result.expect("recommendation succeeds");
    assert_eq!(before.lambda, 0.0, "no feedback yet, λ must be 0");

    let initial_version = engine.lambda_version();
    let signal = SatisfactionSignal::new(hot, ServerOffering::GeneralPurpose, 1.0).unwrap();
    for _ in 0..6 {
        engine.submit_feedback(signal).unwrap();
    }
    engine.flush_feedback();
    assert!(
        engine.lambda_version() > initial_version,
        "feedback must hot-publish a new λ snapshot"
    );

    engine.submit(ask(1)).unwrap();
    let after = responses.recv().expect("second answer");
    let after = after.result.expect("recommendation succeeds");
    // Same deployment, same model, no reload — only λ moved, and the
    // recommendation shifted up by 2^λ (snapped to the catalog).
    assert!(after.lambda > 0.0, "λ did not move: {}", after.lambda);
    assert_eq!(after.stage2_capacity, before.stage2_capacity);
    assert!(
        after.sku.capacity.primary() > before.sku.capacity.primary(),
        "positive feedback must shift the SKU up: {} -> {}",
        before.sku.capacity.primary(),
        after.sku.capacity.primary()
    );

    let stats = engine.drain();
    assert_eq!(stats.feedback_accepted, 6);
    assert_eq!(stats.feedback_applied, 6, "feedback ledger must close");
    assert_eq!(stats.answered, 2);
}

#[test]
fn feedback_wal_replays_lambda_on_restart() {
    let deployment = deployment();
    let hot = registered_path(&deployment);
    let dir = TestDir::new("serve-wal");
    let wal_path = dir.join("signals.wal");

    let signal = SatisfactionSignal::new(hot, ServerOffering::GeneralPurpose, 1.0).unwrap();
    let learned = {
        let (engine, _responses) = ServingEngine::start_with_wal(
            Arc::clone(&deployment),
            ServeConfig::default(),
            &wal_path,
        )
        .expect("engine start");
        for _ in 0..4 {
            engine.submit_feedback(signal).unwrap();
        }
        engine.flush_feedback();
        let learned = engine
            .lambda_snapshot()
            .lambda(&hot, ServerOffering::GeneralPurpose);
        assert!(learned > 0.0);
        let stats = engine.drain();
        assert_eq!(stats.feedback_accepted, 4);
        assert_eq!(stats.feedback_applied, 4);
        learned
    };

    // A fresh engine on the same WAL recovers the learned λ before serving
    // anything — no feedback re-submitted, version bumped by the replay.
    let (restarted, _responses) =
        ServingEngine::start_with_wal(Arc::clone(&deployment), ServeConfig::default(), &wal_path)
            .expect("engine restart");
    assert!(restarted.lambda_version() > 1, "replay must publish");
    assert_eq!(
        restarted
            .lambda_snapshot()
            .lambda(&hot, ServerOffering::GeneralPurpose),
        learned
    );
    let stats = restarted.drain();
    assert_eq!(stats.feedback_accepted, 0);
}

#[test]
fn dropping_the_engine_drains_instead_of_dropping_work() {
    let deployment = deployment();
    let (engine, responses) = ServingEngine::start(Arc::clone(&deployment), ServeConfig::default())
        .expect("engine start");
    for id in 0..12 {
        engine.submit(request(&deployment, id)).unwrap();
    }
    drop(engine);
    assert_eq!(responses.into_iter().count(), 12);
}
