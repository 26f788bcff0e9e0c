//! `benchmark` — one benchmark for the whole Lorentz system.
//!
//! Drives the unmodified `lorentz` release binary and the crates' public
//! functions from outside, prints every metric by name with its unit,
//! checks that outputs are correct, and exits non-zero when they are not.
//! See `README.md` beside this crate for the workloads, the metrics and how
//! they interact.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--lorentz PATH] [--check]
//! ```
//!
//! With `--workload` the workload runs in this process, and the last line
//! of standard output is one JSON object, `{"correct", "attempted",
//! "failed", "metrics"}`: the end-to-end metrics of an untraced run, the
//! per-layer metrics of a traced one. Without it, and under `--check`, each
//! workload runs in a child process of this executable.

mod affinity;
mod cli;
mod fixture;
mod loadgen;
mod metrics;
mod serve;
mod server;
mod spec;
mod stats;
mod trace;
mod train;

use metrics::{END_TO_END, WORKLOADS};
use spec::{Kind, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Seconds per run under `--check`.
const CHECK_SECONDS: f64 = 2.0;

/// What every workload needs to know about this run.
pub struct RunContext {
    /// The `lorentz` release binary under test.
    pub lorentz: PathBuf,
    /// Scratch directory of this workload (`<bench dir>/out/<workload>`).
    pub out_dir: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Writes the traced run's spans to `out/trace-<workload>.json`.
pub fn write_trace(ctx: &RunContext, tracer: &trace::Tracer) -> Result<(), String> {
    let dir = ctx
        .out_dir
        .parent()
        .expect("out_dir is <bench>/out/<workload>");
    let path = dir.join(format!("trace-{}.json", ctx.workload));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "  trace: {} spans -> {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    lorentz: Option<PathBuf>,
    check: bool,
}

fn usage() -> String {
    format!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--lorentz PATH] [--check]\nworkloads: {}",
        WORKLOADS.join(", ")
    )
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        lorentz: None,
        check: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(value("a workload name")?),
            "--seed" => {
                opts.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.traced = match value("0 or 1")?.as_str() {
                    "1" => true,
                    "0" => false,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                };
            }
            "--lorentz" => opts.lorentz = Some(PathBuf::from(value("a path")?)),
            "--check" => opts.check = true,
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if !opts.seconds.is_finite() || opts.seconds < 1.0 || opts.seconds > 60.0 {
        return Err("--seconds must be between 1 and 60".to_owned());
    }
    if let Some(name) = &opts.workload {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!("unknown workload '{name}'\n{}", usage()));
        }
    }
    Ok(opts)
}

/// The benchmark's own directory: where `workloads/` sits and `out/` goes.
/// The binary runs from the root of a checkout, the directory is fixed at
/// compile time relative to it.
fn bench_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let name = dir.file_name().ok_or("benchmark directory has no name")?;
    let relative = PathBuf::from(name);
    if relative.join("workloads").is_dir() {
        Ok(relative)
    } else if dir.join("workloads").is_dir() {
        Ok(dir.to_path_buf())
    } else {
        Err(format!(
            "no workloads/ directory under ./{} or {}: run from the root of a checkout",
            relative.display(),
            dir.display()
        ))
    }
}

/// Where cargo put the `lorentz` release binary.
fn default_lorentz() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("release").join("lorentz")
}

/// Runs one workload in this process and prints its report; the JSON result
/// is the last line.
fn run_workload(opts: &Options, name: &str) -> Result<bool, String> {
    let (seconds, traced) = (opts.seconds, opts.traced);
    let bench = bench_dir()?;
    let spec = WorkloadSpec::load(&bench, name)?;
    let out_dir = bench.join("out").join(name);
    let _ = std::fs::remove_dir_all(&out_dir);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let lorentz = opts.lorentz.clone().unwrap_or_else(default_lorentz);
    if !lorentz.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release -p lorentz-cli` or pass --lorentz",
            lorentz.display()
        ));
    }
    let ctx = RunContext {
        lorentz,
        out_dir,
        workload: name.to_owned(),
        seed: opts.seed,
        seconds,
        traced,
    };
    println!(
        "workload {name} (seed {}, {seconds} s, trace {}, {} cores): {}",
        ctx.seed,
        u8::from(traced),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        spec.why
    );
    let mut report = match &spec.kind {
        Kind::Serve {
            fleet,
            train,
            serve,
        } => serve::run(&ctx, spec.setup_repeats, fleet, *train, serve),
        Kind::Train { fleet, train } => train::run(&ctx, spec.setup_repeats, fleet, *train),
        Kind::Cli(cli) => cli::run(&ctx, spec.setup_repeats, *cli),
    }?;
    // An end-to-end metric is a share's base: it may never read 0.
    if let Some((zero, _)) = END_TO_END.iter().find(|(n, _)| report.get(n) <= 0.0) {
        report.violation(format!("end-to-end metric {zero} is not positive"));
    }
    report.print_table(false);
    if traced {
        report.print_table(true);
    }
    println!(
        "  failed_share {} ({} failed of {} attempted){}",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        if report.correct() {
            ""
        } else {
            " -- INCORRECT"
        }
    );
    println!("{}", report.result_line(traced));
    Ok(report.correct())
}

/// Runs one workload in a process of its own, so that no workload inherits
/// another's heap, page cache warmth or peak memory: a run of all five
/// measures each exactly as `--workload NAME` alone does.
fn run_in_child(opts: &Options, name: &str, seconds: f64, traced: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child
        .args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(lorentz) = &opts.lorentz {
        child.arg("--lorentz").arg(lorentz);
    }
    let status = child
        .status()
        .map_err(|e| format!("cannot run workload {name}: {e}"))?;
    Ok(status.success())
}

/// `--check`: every workload, untraced and traced, at two seconds; the
/// emitted names and units must be the ones `BENCHMARK.json` declares, and
/// every ledger and oracle must hold.
fn check(opts: &Options) -> Result<bool, String> {
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the root of a checkout)"))?;
    let declared = serde_json::parse(&declared).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut ok = true;
    let workloads = WorkloadSpec::whys(&bench_dir()?)?;
    if let Some(why) = metrics::disagreement_with(&declared, &workloads) {
        println!("CHECK FAILED: {why}");
        ok = false;
    }
    for name in WORKLOADS {
        for traced in [false, true] {
            if !run_in_child(opts, name, CHECK_SECONDS, traced)? {
                println!("CHECK FAILED: {name} (trace {})", u8::from(traced));
                ok = false;
            }
        }
    }
    println!("check: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_options(&args).and_then(|opts| {
        if opts.check {
            return check(&opts);
        }
        if let Some(name) = &opts.workload {
            return run_workload(&opts, name);
        }
        let mut all_correct = true;
        for name in WORKLOADS {
            all_correct &= run_in_child(&opts, name, opts.seconds, opts.traced)?;
        }
        Ok(all_correct)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
