//! The `train_*` workloads: in-process `LorentzPipeline::train` on a seeded
//! fleet, iterated for the run's seconds, plus the traced staged pass that
//! calls each training stage's public function in the order `train()` does.

use crate::fixture::{self, Fnv64};
use crate::metrics::Report;
use crate::server::{reset_own_vm_hwm, vm_hwm_kb};
use crate::spec::{FleetSpec, TrainSpec};
use crate::stats::{median, nearest_rank, quiet_rate_per_s};
use crate::trace::{timed, Tracer};
use crate::RunContext;
use lorentz_core::store::PublishBatch;
use lorentz_core::{
    FleetDataset, HierarchicalProvisioner, LorentzConfig, LorentzPipeline, PredictionStore,
    RightsizeOutcome, Rightsizer, Stage1Scratch, TargetEncodingProvisioner, TrainedLorentz,
};
use lorentz_hierarchy::learn_hierarchy;
use lorentz_ml::TargetEncoder;
use lorentz_telemetry::TraceColumns;
use lorentz_types::{ServerOffering, SkuCatalog, StoreKey};
use std::time::{Duration, Instant};

/// Even the two-second `--check` runs this many iterations.
const MIN_ITERATIONS: usize = 2;

/// The parts of a model the staged pass can rebuild from outside, as bytes:
/// Stage-1 labels, the published store, and each offering's hierarchical
/// model. (`TrainedLorentz` itself can only be assembled by `train()`.)
fn model_parts_fnv64(
    labels: &[f64],
    store: &PredictionStore,
    hierarchical: &[&HierarchicalProvisioner],
) -> Result<u64, String> {
    let mut h = Fnv64::default();
    for l in labels {
        h.u64(l.to_bits());
    }
    h.bytes(
        serde_json::to_string(store)
            .map_err(|e| e.to_string())?
            .as_bytes(),
    );
    for model in hierarchical {
        h.bytes(
            serde_json::to_string(*model)
                .map_err(|e| e.to_string())?
                .as_bytes(),
        );
    }
    Ok(h.finish())
}

fn trained_parts_fnv64(trained: &TrainedLorentz) -> Result<u64, String> {
    let hierarchical: Vec<&HierarchicalProvisioner> = ServerOffering::ALL
        .iter()
        .filter_map(|&o| trained.hierarchical(o).ok())
        .collect();
    model_parts_fnv64(trained.labels(), trained.store(), &hierarchical)
}

/// The cheap per-iteration fingerprint: Stage-1 labels and the published
/// store (everything Stage 2 exports). Serializing the whole model takes as
/// long as a third of a `train()`, so only the first and last iterations
/// are compared in full.
fn quick_fnv64(trained: &TrainedLorentz) -> Result<u64, String> {
    model_parts_fnv64(trained.labels(), trained.store(), &[])
}

/// Stage 1 as `train()` runs it: one worker per available core over
/// contiguous chunks, one [`Stage1Scratch`] each, joined in order.
fn stage1_sweep(
    fleet: &FleetDataset,
    columns: &TraceColumns,
    sizer: &Rightsizer,
    catalogs: &[SkuCatalog],
) -> Result<Vec<RightsizeOutcome>, String> {
    let n = fleet.len();
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(n)
        .max(1);
    let chunk = n.div_ceil(threads);
    let chunks: Vec<Result<Vec<RightsizeOutcome>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let mut scratch = Stage1Scratch::default();
                    (w * chunk..((w + 1) * chunk).min(n))
                        .map(|i| {
                            sizer
                                .rightsize_columns(
                                    columns.trace(i),
                                    &fleet.user_capacities()[i],
                                    &catalogs[fleet.offerings()[i].code() as usize],
                                    &mut scratch,
                                )
                                .map_err(|e| e.to_string())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stage-1 worker panicked"))
            .collect()
    });
    let mut outcomes = Vec::with_capacity(n);
    for chunk in chunks {
        outcomes.extend(chunk?);
    }
    Ok(outcomes)
}

/// One pass over the training stages' public functions, in `train()`'s
/// order, all under a root `train` span. Stage 1 is threaded as `train()`
/// threads it; the per-offering Stage-2 fits run one after the other (in
/// `train()` they share the cores), so each function's span is its own
/// uncontended cost. Returns the fingerprint of the parts it rebuilt.
fn staged_pass(
    tracer: &mut Tracer,
    fleet: &FleetDataset,
    config: &LorentzConfig,
) -> Result<u64, String> {
    let catalogs: Vec<SkuCatalog> = ServerOffering::ALL
        .iter()
        .map(|&o| SkuCatalog::azure_postgres(o))
        .collect();
    let sizer = Rightsizer::new(&config.rightsizer).map_err(|e| e.to_string())?;
    tracer.span("train", |t| {
        let columns = t.span("telemetry.pack_ns", |_| {
            TraceColumns::from_traces(fleet.traces())
        });
        let outcomes = t.span("rightsizer.stage1_ns", |_| {
            stage1_sweep(fleet, &columns, &sizer, &catalogs)
        })?;
        drop(columns);
        let labels: Vec<f64> = outcomes.iter().map(|o| o.capacity.primary()).collect();

        let mut batch = PublishBatch::default();
        let mut hierarchical = Vec::new();
        for (offering, catalog) in ServerOffering::ALL.into_iter().zip(&catalogs) {
            let rows = fleet.rows_for_offering(offering);
            if rows.is_empty() {
                continue;
            }
            let table = fleet.profiles().subset(&rows);
            let sub_labels: Vec<f64> = rows.iter().map(|&r| labels[r]).collect();
            let model = t
                .span("provisioner.hierarchical_fit_ns", |_| {
                    HierarchicalProvisioner::fit(&table, &sub_labels, catalog, config.hierarchical)
                })
                .map_err(|e| e.to_string())?;
            t.under(
                "provisioner.hierarchical_fit_ns",
                "hierarchy.learn_ns",
                |_| learn_hierarchy(&table, &config.hierarchical.hierarchy),
            )
            .map_err(|e| e.to_string())?;
            let te = config.target_encoding;
            t.span("provisioner.te_gbt_fit_ns", |_| {
                TargetEncodingProvisioner::fit(&table, &sub_labels, catalog, te)
            })
            .map_err(|e| e.to_string())?;
            let labels_log2 =
                lorentz_ml::transform::xi_slice(&sub_labels).map_err(|e| e.to_string())?;
            t.under("provisioner.te_gbt_fit_ns", "ml.te_fit_ns", |_| {
                TargetEncoder::fit(&table, &labels_log2, te.statistic, te.missing, te.smoothing)
            })
            .map_err(|e| e.to_string())?;
            let (entries, default) = model.export_store_entries();
            batch.entries.extend(
                entries
                    .into_iter()
                    .map(|(f, v, c)| (StoreKey::new(offering, f, v), c)),
            );
            batch.defaults.push((offering, default));
            hierarchical.push(model);
        }
        let store = t
            .span("store.publish_ns", |_| {
                let mut store = PredictionStore::new();
                store.publish(batch).map(|_| store)
            })
            .map_err(|e| e.to_string())?;
        model_parts_fnv64(&labels, &store, &hierarchical.iter().collect::<Vec<_>>())
    })
}

/// Mean of a program histogram's observations, ns (0 when it has none).
fn program_span_ns(snapshot: &lorentz_core::obs::MetricsSnapshot, name: &str) -> f64 {
    snapshot
        .histogram(name)
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.sum as f64 / h.count as f64)
}

/// Runs one train workload end to end.
pub fn run(
    ctx: &RunContext,
    setup_repeats: usize,
    fleet_spec: &FleetSpec,
    train: TrainSpec,
) -> Result<Report, String> {
    let mut report = Report::default();
    let config = fixture::lorentz_config(train);

    // Set-up: build the seeded fleet, several times; keep the last.
    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..setup_repeats {
        drop(fleet.take());
        let (built, took) = timed(|| fixture::build_fleet(fleet_spec, ctx.seed));
        setups.push(took.as_secs_f64());
        fleet = Some(built);
    }
    let fleet = fleet.expect("setup_repeats is at least 1");
    report.set("setup_s", median(&setups));
    println!(
        "  setup_s {:.4} (median of {} fixture builds: {setups:.4?})",
        median(&setups),
        setups.len()
    );
    println!("  inputs_fnv64 {:016x}", fixture::fleet_fnv64(&fleet));

    // The timed iterations. Every model must equal the first in labels and
    // published store; the first and last are also compared as whole
    // serialized models.
    lorentz_core::obs::reset();
    let budget = Duration::from_secs_f64(ctx.seconds);
    let started = Instant::now();
    let mut walls_ns: Vec<u64> = Vec::new();
    let mut reference: Option<(u64, u64, u64)> = None;
    let mut differing = 0u64;
    let mut last = None;
    let mut peak_rss_kb = 0;
    while walls_ns.len() < MIN_ITERATIONS || started.elapsed() < budget {
        let pipeline = LorentzPipeline::new(config.clone()).map_err(|e| e.to_string())?;
        drop(last.take());
        // The peak of this train() alone, over the resident fleet: not of
        // set-up, of the fingerprinting between iterations, or of a workload
        // that ran earlier in this process.
        reset_own_vm_hwm()?;
        let (trained, wall) = timed(|| pipeline.train(&fleet));
        let rss_kb = vm_hwm_kb(std::process::id()).ok_or("cannot read own VmHWM")?;
        peak_rss_kb = peak_rss_kb.max(rss_kb);
        let trained = trained.map_err(|e| format!("train(): {e}"))?;
        walls_ns.push(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX));
        let quick = quick_fnv64(&trained)?;
        match reference {
            None => {
                let json = trained.to_json().map_err(|e| e.to_string())?;
                report.set("model.json_bytes", json.len() as f64);
                reference = Some((
                    quick,
                    trained_parts_fnv64(&trained)?,
                    Fnv64::of(json.as_bytes()),
                ));
            }
            Some((first, _, _)) if first != quick => differing += 1,
            Some(_) => {}
        }
        last = Some(trained);
    }
    let elapsed = started.elapsed();
    let program = lorentz_core::obs::snapshot();
    let (_, parts_fnv, model_fnv) = reference.expect("at least one iteration ran");
    let last_json = last
        .expect("at least one iteration ran")
        .to_json()
        .map_err(|e| e.to_string())?;
    if Fnv64::of(last_json.as_bytes()) != model_fnv {
        differing += 1;
    }
    drop(last_json);
    let iterations = walls_ns.len();
    report.phase("train() iterations", iterations as u64, differing);
    if differing > 0 {
        report.violation(format!(
            "{differing} train() iterations produced a different model"
        ));
    }
    println!("  model_fnv64 {model_fnv:016x} (identical over {iterations} iterations)");

    let mut sorted = walls_ns.clone();
    sorted.sort_unstable();
    let p50_ns = nearest_rank(&sorted, 50.0) as f64;
    // With tens of samples no percentile above the 90th has samples beyond it.
    let tail_ns = nearest_rank(&sorted, 90.0) as f64;
    // Iterations include fingerprinting between the timed calls, so the rate
    // is taken from the timed calls only.
    let timed_s = walls_ns.iter().sum::<u64>() as f64 / 1e9;
    let rate = quiet_rate_per_s(&sorted);
    report.set("lat_p50_us", p50_ns / 1e3);
    report.set("lat_tail_us", tail_ns / 1e3);
    report.set("ops_per_s", rate);
    report.set("peak_rss_mb", peak_rss_kb as f64 / 1024.0);
    println!(
        "  train_s {:.4} = lat_p50_us/1e6 (n={iterations}), p90 {:.4} s, ops_per_s {rate:.3} = upper quartile of the \
         iterations' rates ({:.3} train()/s over {timed_s:.2} s timed, {:.2} s elapsed)",
        p50_ns / 1e9,
        tail_ns / 1e9,
        iterations as f64 / timed_s,
        elapsed.as_secs_f64()
    );
    println!(
        "  train() wall times in run order, ms: {:.0?}",
        walls_ns.iter().map(|w| *w as f64 / 1e6).collect::<Vec<_>>()
    );

    // The program's own stage spans (mean per train()), and what they leave
    // of the mean wall time.
    let mean_wall_ns = walls_ns.iter().sum::<u64>() as f64 / iterations as f64;
    let mut accounted = 0.0;
    for name in [
        "train.stage1.span_ns",
        "train.stage2.span_ns",
        "train.publish.span_ns",
        "train.personalizer.span_ns",
    ] {
        let ns = program_span_ns(&program, name);
        accounted += ns;
        report.set(name, ns);
    }
    for name in ["train.stage1.records", "train.publish.entries"] {
        report.set(
            name,
            program.counter(name).unwrap_or(0) as f64 / iterations as f64,
        );
    }
    report.set("train.residual_ms", (mean_wall_ns - accounted) / 1e6);

    if ctx.traced {
        let mut tracer = Tracer::new(true);
        let (traced_parts, traced_wall) = timed(|| staged_pass(&mut tracer, &fleet, &config));
        let (untraced_parts, untraced_wall) =
            timed(|| staged_pass(&mut Tracer::new(false), &fleet, &config));
        let mismatched = [traced_parts?, untraced_parts?]
            .iter()
            .filter(|p| **p != parts_fnv)
            .count() as u64;
        report.phase("staged pass models", 2, mismatched);
        if mismatched > 0 {
            report.violation("the staged pass rebuilt a different model than train()".to_owned());
        }
        let overhead =
            (traced_wall.as_secs_f64() - untraced_wall.as_secs_f64()) / untraced_wall.as_secs_f64();
        report.set("trace.overhead_share", overhead);
        let mut staged_sum = 0.0;
        // Spans are named after the per-layer metric they feed; the `train`
        // root is not a layer.
        for (name, self_ns) in tracer.self_times_by_name() {
            if crate::metrics::is_per_layer(name) {
                let total = self_ns.iter().sum::<u64>() as f64;
                staged_sum += total;
                report.set(name, total);
            }
        }
        report.set(
            "rightsizer.per_trace_ns",
            report.get("rightsizer.stage1_ns") / fleet.len() as f64,
        );
        println!(
            "  stages: program spans sum to {:.1} ms of a {:.1} ms mean train() (train.residual_ms {:.2}); \
             staged functions sum to {:.1} ms run one after the other; rightsizer.stage1 is {:.0}% of train_s; \
             tracing overhead {:.2}%",
            accounted / 1e6,
            mean_wall_ns / 1e6,
            report.get("train.residual_ms"),
            staged_sum / 1e6,
            100.0 * report.get("rightsizer.stage1_ns") / p50_ns,
            overhead * 100.0
        );
        crate::write_trace(ctx, &tracer)?;
    }
    Ok(report)
}
