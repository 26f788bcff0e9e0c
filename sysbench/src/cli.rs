//! The `cli_retrain` workload: the operator's path. `lorentz generate` once
//! per set-up, then `lorentz train` as a child process for the run's
//! seconds — through fleet-file load, JSON decode and model save, which the
//! in-process workloads bypass.

use crate::fixture::Fnv64;
use crate::metrics::Report;
use crate::server::run_lorentz;
use crate::spec::CliSpec;
use crate::stats::{median, nearest_rank, quiet_rate_per_s};
use crate::trace::{timed, Tracer};
use crate::RunContext;
use lorentz_core::{LorentzConfig, LorentzPipeline};
use lorentz_simdata::fleet::SyntheticFleet;
use serde::Deserialize;
use std::time::{Duration, Instant};

/// Even the two-second `--check` runs this many children.
const MIN_ITERATIONS: usize = 2;

/// What `lorentz train --trees N` trains with (its other defaults are the
/// paper's).
fn cli_config(spec: CliSpec) -> LorentzConfig {
    let mut config = LorentzConfig::paper_defaults();
    config.target_encoding.boosting.n_trees = spec.trees;
    config
}

/// Sum of the `train.*` stage spans a child wrote with `--metrics-out`, ns.
fn child_stage_spans_ns(metrics_path: &std::path::Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(metrics_path)
        .map_err(|e| format!("{}: {e}", metrics_path.display()))?;
    let value = serde_json::parse(&text).map_err(|e| e.to_string())?;
    let histograms = value
        .get_field("histograms")
        .ok_or("metrics snapshot has no histograms")?;
    let mut total = 0.0;
    for name in [
        "train.stage1.span_ns",
        "train.stage2.span_ns",
        "train.publish.span_ns",
        "train.personalizer.span_ns",
    ] {
        let sum = histograms
            .get_field(name)
            .and_then(|h| h.get_field("sum"))
            .and_then(|s| u64::from_value(s).ok())
            .ok_or_else(|| format!("metrics snapshot has no {name}.sum"))?;
        total += sum as f64;
    }
    Ok(total)
}

/// The in-process mirror of one `lorentz train`: decode the fleet file,
/// train, encode the model. Returns the model JSON.
fn in_process_retrain(
    tracer: &mut Tracer,
    fleet_json: &str,
    spec: CliSpec,
) -> Result<String, String> {
    tracer.span("cli.retrain", |t| {
        let mut synthetic: SyntheticFleet = t
            .span("cli.fleet_load_ns", |_| serde_json::from_str(fleet_json))
            .map_err(|e| format!("decoding the fleet file: {e}"))?;
        synthetic.fleet.rebuild_indexes();
        let trained = t
            .span("cli.train", |_| {
                LorentzPipeline::new(cli_config(spec)).and_then(|p| p.train(&synthetic.fleet))
            })
            .map_err(|e| e.to_string())?;
        t.span("cli.model_save_ns", |_| trained.to_json())
            .map_err(|e| e.to_string())
    })
}

/// Runs the workload end to end.
pub fn run(ctx: &RunContext, setup_repeats: usize, spec: CliSpec) -> Result<Report, String> {
    let mut report = Report::default();
    let path = |name: &str| ctx.out_dir.join(name).to_string_lossy().into_owned();
    let (fleet_path, model_path, metrics_path) = (
        path("fleet.json"),
        path("model.json"),
        path("train-metrics.json"),
    );
    let (servers, seed, trees) = (
        spec.servers.to_string(),
        ctx.seed.to_string(),
        spec.trees.to_string(),
    );

    // Set-up: `lorentz generate`, several times (same seed, same file).
    let mut setups = Vec::new();
    let mut failed_children = 0u64;
    for _ in 0..setup_repeats {
        let run = run_lorentz(
            &ctx.lorentz,
            &[
                "generate",
                "--servers",
                &servers,
                "--seed",
                &seed,
                "--out",
                &fleet_path,
            ],
        )?;
        if !run.status.success() {
            return Err(format!("lorentz generate failed: {}", run.stderr));
        }
        setups.push(run.wall.as_secs_f64());
    }
    report.set("setup_s", median(&setups));
    println!(
        "  setup_s {:.4} (median of {} `lorentz generate` runs: {setups:.4?})",
        median(&setups),
        setups.len()
    );
    let fleet_json =
        std::fs::read_to_string(&fleet_path).map_err(|e| format!("{fleet_path}: {e}"))?;
    report.set("fleet.json_bytes", fleet_json.len() as f64);
    println!("  inputs_fnv64 {:016x}", Fnv64::of(fleet_json.as_bytes()));

    // The timed children.
    let budget = Duration::from_secs_f64(ctx.seconds);
    let started = Instant::now();
    let mut walls_ns: Vec<u64> = Vec::new();
    let mut peak_rss_kb = 0;
    let mut model_fnv: Option<u64> = None;
    let mut stage_spans_ns = Vec::new();
    while walls_ns.len() < MIN_ITERATIONS || started.elapsed() < budget {
        let run = run_lorentz(
            &ctx.lorentz,
            &[
                "train",
                "--fleet",
                &fleet_path,
                "--out",
                &model_path,
                "--trees",
                &trees,
                "--metrics-out",
                &metrics_path,
            ],
        )?;
        walls_ns.push(u64::try_from(run.wall.as_nanos()).unwrap_or(u64::MAX));
        peak_rss_kb = peak_rss_kb.max(run.peak_rss_kb);
        let model = std::fs::read(&model_path).unwrap_or_default();
        let same_model = *model_fnv.get_or_insert(Fnv64::of(&model)) == Fnv64::of(&model);
        if !run.status.success() || model.is_empty() || !same_model {
            failed_children += 1;
            println!("  child failed ({}): {}", run.status, run.stderr.trim());
            continue;
        }
        stage_spans_ns.push(child_stage_spans_ns(std::path::Path::new(&metrics_path))?);
    }
    let iterations = walls_ns.len();
    let timed_s = walls_ns.iter().sum::<u64>() as f64 / 1e9;
    report.phase("lorentz train children", iterations as u64, failed_children);

    // Oracle: the CLI's model is the model the library trains from the same
    // file, byte for byte.
    let mut tracer = Tracer::new(ctx.traced);
    let (expected, traced_wall) = timed(|| in_process_retrain(&mut tracer, &fleet_json, spec));
    let expected = expected?;
    let matches = model_fnv == Some(Fnv64::of(expected.as_bytes()));
    report.phase("model oracle", 1, u64::from(!matches));
    if !matches {
        report.violation(
            "lorentz train wrote a different model than the in-process train()".to_owned(),
        );
    }
    println!(
        "  model_fnv64 {:016x} (identical over {iterations} children and the in-process retrain)",
        model_fnv.unwrap_or(0)
    );
    report.set("model.json_bytes", expected.len() as f64);

    let mut sorted = walls_ns.clone();
    sorted.sort_unstable();
    let p50_ns = nearest_rank(&sorted, 50.0) as f64;
    let tail_ns = nearest_rank(&sorted, 90.0) as f64;
    report.set("lat_p50_us", p50_ns / 1e3);
    report.set("lat_tail_us", tail_ns / 1e3);
    let rate = quiet_rate_per_s(&sorted);
    report.set("ops_per_s", rate);
    report.set("peak_rss_mb", peak_rss_kb as f64 / 1024.0);
    println!(
        "  cli_train_s {:.4} = lat_p50_us/1e6 (n={iterations}), p90 {:.4} s, ops_per_s {rate:.3} = upper quartile of the children's \
         rates ({:.3} children/s over the timed time)",
        p50_ns / 1e9,
        tail_ns / 1e9,
        iterations as f64 / timed_s
    );
    println!(
        "  child wall times in run order, ms: {:.0?}",
        walls_ns.iter().map(|w| *w as f64 / 1e6).collect::<Vec<_>>()
    );

    if ctx.traced {
        let (untraced, untraced_wall) =
            timed(|| in_process_retrain(&mut Tracer::new(false), &fleet_json, spec));
        untraced?;
        let overhead =
            (traced_wall.as_secs_f64() - untraced_wall.as_secs_f64()) / untraced_wall.as_secs_f64();
        report.set("trace.overhead_share", overhead);
        let span_ns = |name: &str| tracer.durations_ns(name).iter().sum::<u64>() as f64;
        let (load_ns, save_ns) = (span_ns("cli.fleet_load_ns"), span_ns("cli.model_save_ns"));
        report.set("cli.fleet_load_ns", load_ns);
        report.set("cli.model_save_ns", save_ns);
        let stages_ns = median(&stage_spans_ns);
        let overhead_ms = (p50_ns - load_ns - stages_ns - save_ns) / 1e6;
        report.set("cli.process_overhead_ms", overhead_ms);
        println!(
            "  layers: fleet load {:.1} ms ({:.0}% of cli_train_s), child stage spans {:.1} ms, model save {:.1} ms, \
             cli.process_overhead_ms {overhead_ms:.1}; tracing overhead {:.2}%",
            load_ns / 1e6,
            100.0 * load_ns / p50_ns,
            stages_ns / 1e6,
            save_ns / 1e6,
            overhead * 100.0
        );
        crate::write_trace(ctx, &tracer)?;
    }
    Ok(report)
}
