//! The `serve_*` workloads: seeded traffic over TCP against the unmodified
//! `lorentz serve`, checked against the server's own ledger and an
//! in-process oracle, plus the traced in-process pass that times each
//! serving layer's public function on the same frames.

use crate::affinity::{self, CpuPlan};
use crate::fixture::{self, Fnv64, Phase, Traffic};
use crate::loadgen::{self, PhaseResult, Schedule};
use crate::metrics::Report;
use crate::server::{Server, ServerConfig, ServerReport};
use crate::spec::{FleetSpec, ServeSpec, TrainSpec};
use crate::stats::{median, percentile, percentile_f64, window_percentiles, windowed_percentile};
use crate::trace::{timed, Tracer};
use crate::RunContext;
use lorentz_core::{
    LorentzPipeline, ModelKind, RecommendEngine, RecommendRequest, ShardedLambdaStore,
    ShardedPredictionStore, SignalWal, TrainedLorentz, WalRecord,
};
use lorentz_serve::wire::{self, ClientFrame};
use lorentz_serve::{ServeConfig, ServingEngine};
use lorentz_types::{FeatureId, ServerOffering, ValueId};
use serde::{Deserialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Latency runs from the instant a frame was due, so a frame sent late
/// reads slow by its lateness. The run fails when the lateness at the tail
/// percentile (windowed like the latencies) exceeds this: then the generator,
/// not the server, made the reported tail. Lateness beyond that percentile
/// reaches only the `client.lat_p95_us` / `client.lat_p99_us` rows;
/// `gen.late_p99_us` is printed beside them.
const MAX_LATE_TAIL_US: f64 = 20.0;
/// The tail percentile of the per-layer `lat_tail_us`. On a two-vCPU VM the
/// windowed 99th and 95th move by a sixth to a third from run to run and the
/// 90th by a tenth to a third (by more than half beside `fsync`s), so no tail
/// is an end-to-end metric; `client.lat_p95_us` and `client.lat_p99_us` are
/// printed beside this one.
const TAIL_PERCENTILE: f64 = 90.0;
/// Which window speaks for a phase. The host disturbs this VM for whole
/// seconds at a time (the median latency of a disturbed second is half again
/// that of a quiet one) and a disturbance only ever adds time, so across the
/// 1 s windows the latencies take the lower quartile and the closed loop's
/// rate the upper one: the system as it runs when left alone, as long as a
/// quarter of the windows were. Between eight runs the median over windows
/// of the window medians spread 0.29 of its median, the lower quartile 0.04.
const QUIET_LATENCY: f64 = 25.0;
const QUIET_RATE: f64 = 75.0;
/// A 1-second window counts towards the tail only with this many samples
/// beyond its percentile.
const MIN_BEYOND_TAIL: usize = 10;
/// Frames pushed through the in-process layer pass of a traced run.
const LAYER_PASS_FRAMES: u64 = 10_000;

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

fn median_ns(values: &[u64]) -> f64 {
    median(&values.iter().map(|v| *v as f64).collect::<Vec<_>>())
}

/// Everything one serve run works with.
struct Fixture {
    trained: Arc<TrainedLorentz>,
    traffic: Traffic,
    model_path: PathBuf,
    model_json_bytes: usize,
    /// The seeded WAL's bytes (`None` for a read-only workload).
    wal_seed: Option<Vec<u8>>,
}

impl Fixture {
    /// Writes a fresh copy of the seeded WAL (or nothing) at `path`.
    fn fresh_wal(&self, path: &Path) -> Result<Option<PathBuf>, String> {
        match &self.wal_seed {
            None => Ok(None),
            Some(bytes) => {
                std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
                Ok(Some(path.to_path_buf()))
            }
        }
    }
}

fn build_fixture(
    ctx: &RunContext,
    fleet_spec: &FleetSpec,
    train: TrainSpec,
    serve: &ServeSpec,
) -> Result<Fixture, String> {
    let fleet = fixture::build_fleet(fleet_spec, ctx.seed);
    let traffic = Traffic::new(&fleet, serve, ctx.seed);
    let trained = LorentzPipeline::new(fixture::lorentz_config(train))
        .and_then(|p| p.train(&fleet))
        .map_err(|e| format!("training the serving model: {e}"))?;
    let json = trained.to_json().map_err(|e| e.to_string())?;
    let model_path = ctx.out_dir.join("model.json");
    std::fs::write(&model_path, &json).map_err(|e| format!("{}: {e}", model_path.display()))?;
    let wal_seed = (serve.seed_wal_records > 0)
        .then(|| fixture::build_wal_seed(&trained, &traffic, serve.shards, serve.seed_wal_records));
    let mut inputs = Fnv64::default();
    inputs.u64(fixture::fleet_fnv64(&fleet));
    inputs.u64(traffic.fnv64(2_000));
    inputs.bytes(wal_seed.as_deref().unwrap_or_default());
    println!(
        "  inputs_fnv64 {:016x}  model_fnv64 {:016x}  model.json {} bytes",
        inputs.finish(),
        Fnv64::of(json.as_bytes()),
        json.len()
    );
    Ok(Fixture {
        trained: Arc::new(trained),
        traffic,
        model_path,
        model_json_bytes: json.len(),
        wal_seed,
    })
}

/// The in-process answer to one generated request, as the JSON the server
/// would put in its `ok` field.
fn expected_answer(trained: &TrainedLorentz, request: &fixture::Request) -> Result<Value, String> {
    let borrowed = RecommendRequest {
        profile: request.profile.iter().map(|v| v.as_deref()).collect(),
        offering: request.offering,
        path: request.path,
    };
    let rec = trained
        .recommend(&borrowed, ModelKind::Hierarchical)
        .map_err(|e| format!("in-process recommend: {e}"))?;
    // Through text and back, so numbers take the form the wire gives them.
    let text = serde_json::to_string(&rec).map_err(|e| e.to_string())?;
    serde_json::parse(&text).map_err(|e| e.to_string())
}

/// Which hierarchy level answered: `(finest, coarser, default)`.
fn answered_level(trained: &TrainedLorentz, offering: ServerOffering, ok: &Value) -> [u64; 3] {
    let bucket = ok
        .get_field("explanation")
        .and_then(|e| e.get_field("HierarchicalBucket"));
    let Some(level) = bucket
        .and_then(|b| b.get_field("level"))
        .and_then(|l| u64::from_value(l).ok())
    else {
        return [0, 0, 1];
    };
    let finest = trained
        .hierarchical(offering)
        .map_or(0, |h| h.chain().len() as u64 - 1);
    if level == finest {
        [1, 0, 0]
    } else {
        [0, 1, 0]
    }
}

/// Compares the sampled answers with the in-process result. With feedback
/// in the mix λ moves under the requests, so only the λ-independent part
/// (Stage-2 capacity and explanation) is compared there.
fn run_oracle(
    fx: &Fixture,
    samples: &[(u64, Vec<u8>)],
    lambda_moves: bool,
    report: &mut Report,
    label: &str,
) -> [u64; 3] {
    let mut levels = [0u64; 3];
    let mut mismatches = 0u64;
    let mut first = None;
    for (id, payload) in samples {
        let checked = (|| -> Result<(), String> {
            let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
            let frame = serde_json::parse(text).map_err(|e| e.to_string())?;
            let ok = frame.get_field("ok").ok_or("response has no 'ok'")?;
            let request = fx.traffic.request(*id);
            let expected = expected_answer(&fx.trained, &request)?;
            let fields: &[&str] = if lambda_moves {
                &["stage2_capacity", "explanation"]
            } else {
                &["sku", "stage2_capacity", "lambda", "explanation"]
            };
            for field in fields {
                let (got, want) = (ok.get_field(field), expected.get_field(field));
                if got.is_none() || got != want {
                    return Err(format!(
                        "field '{field}': server {got:?}, in-process {want:?}"
                    ));
                }
            }
            let level = answered_level(&fx.trained, request.offering, ok);
            for (total, one) in levels.iter_mut().zip(level) {
                *total += one;
            }
            Ok(())
        })();
        if let Err(why) = checked {
            mismatches += 1;
            first.get_or_insert(format!("frame {id}: {why}"));
        }
    }
    report.phase(&format!("{label} oracle"), samples.len() as u64, mismatches);
    if let Some(why) = first {
        report.violation(format!("{label} oracle mismatch: {why}"));
    }
    levels
}

/// Checks one phase's own ledger and folds it into the report.
fn account_phase(
    report: &mut Report,
    label: &str,
    phase: &PhaseResult,
    expected_sent: Option<u64>,
) {
    report.phase(label, phase.sent, phase.failed);
    if let Some(why) = &phase.first_failure {
        report.violation(format!("{label}: {why}"));
    }
    if expected_sent.is_some_and(|n| n != phase.sent) || phase.answered + phase.failed < phase.sent
    {
        report.violation(format!(
            "{label}: sent {} (scheduled {expected_sent:?}), answered {}",
            phase.sent, phase.answered
        ));
    }
}

/// Holds the server's ledger against what the generator did.
fn check_ledger(
    server: &ServerReport,
    frames_sent: u64,
    feedback_sent: u64,
    report: &mut Report,
) -> Result<(), String> {
    let l = |f: &str| server.ledger_u64(f);
    let requests = frames_sent - feedback_sent;
    // One ping and one drain frame travel beside the generated frames.
    let expect = [
        ("submitted", l("submitted")?, requests),
        (
            "accepted + rejected",
            l("accepted")? + l("rejected")?,
            l("submitted")?,
        ),
        ("accepted", l("accepted")?, requests),
        ("answered", l("answered")?, l("accepted")?),
        ("feedback_applied", l("feedback_applied")?, feedback_sent),
        ("rejected", l("rejected")?, 0),
        ("timed_out", l("timed_out")?, 0),
        ("frames_in", l("frames_in")?, frames_sent + 2),
        ("frames_out", l("frames_out")?, frames_sent + 2),
        ("frame_errors", l("frame_errors")?, 0),
        ("disconnects", l("disconnects")?, 0),
        ("dropped_responses", l("dropped_responses")?, 0),
        (
            "wal appends",
            server.counter("personalizer.wal.appends"),
            feedback_sent,
        ),
    ];
    for (what, got, want) in expect {
        if got != want {
            report.violation(format!("server ledger: {what} is {got}, expected {want}"));
        }
    }
    Ok(())
}

/// The untraced numbers of the two timed phases.
fn report_phases(
    open: &PhaseResult,
    closed: &PhaseResult,
    open_windows: usize,
    report: &mut Report,
) {
    // Across windows the end-to-end numbers take the quartile on the
    // undisturbed side, the `client.*` rows beside them the median.
    let windowed =
        |samples, p, across| windowed_percentile(samples, open_windows, p, MIN_BEYOND_TAIL, across);
    let (p50, windows) = windowed(&open.request_lat, 50.0, QUIET_LATENCY);
    let (tail, tail_windows) = windowed(&open.request_lat, TAIL_PERCENTILE, QUIET_LATENCY);
    let max_of = |samples: &[(u32, u64)]| samples.iter().map(|(_, v)| *v).max().unwrap_or(0);
    // Whole windows only: the last one is cut short by the phase's end.
    let full_windows = closed.window_counts.len().saturating_sub(1).max(1);
    let per_window: Vec<f64> = closed
        .window_counts
        .iter()
        .take(full_windows)
        .map(|n| *n as f64 / loadgen::CLOSED_WINDOW.as_secs_f64())
        .collect();
    let peak_rps = percentile_f64(&per_window, QUIET_RATE);
    report.set("lat_p50_us", us(p50));
    report.set("lat_tail_us", us(tail));
    report.set("ops_per_s", peak_rps);
    println!(
        "  open loop: lat_p50_us {:.2} (n={}), lat_tail_us {:.2} = lower quartiles over {windows} 1 s windows of \
         each window's p50 and p{TAIL_PERCENTILE}",
        us(p50),
        open.request_lat.len(),
        us(tail),
    );
    for (metric, p) in [
        ("client.lat_p50_us", 50.0),
        ("client.lat_p90_us", 90.0),
        ("client.lat_p95_us", 95.0),
        ("client.lat_p99_us", 99.0),
    ] {
        let per_window = window_percentiles(&open.request_lat, open_windows, p, MIN_BEYOND_TAIL);
        report.set(metric, us(median(&per_window)));
        println!(
            "  open loop: p{p} of each 1 s window, us: {:.1?}",
            per_window.iter().map(|ns| us(*ns)).collect::<Vec<_>>()
        );
    }
    println!(
        "  closed loop: ops_per_s {peak_rps:.1} = upper quartile over {} windows of 0.5 s ({} frames answered in \
         {:.3} s); per window: {per_window:.0?}",
        per_window.len(),
        closed.answered,
        closed.elapsed.as_secs_f64()
    );
    if tail_windows == 0 {
        report.violation("open loop: no 1 s window had enough samples for the tail".to_owned());
    }
    report.set("client.lat_max_us", us(max_of(&open.request_lat) as f64));
    let mut fb = open.feedback_lat.clone();
    report.set("client.fb_ack_p50_us", us(percentile(&mut fb, 50.0) as f64));
    report.set("client.fb_ack_p99_us", us(percentile(&mut fb, 99.0) as f64));
    if !fb.is_empty() {
        println!(
            "  open loop: fb_ack_p50_us {:.2} (n={})",
            report.get("client.fb_ack_p50_us"),
            fb.len()
        );
    }
    // Windowed like the latencies they qualify: seconds in which the host
    // stalled the VM do not condemn the run, a generator that cannot keep up
    // does.
    let (late_p99, _) = windowed(&open.lateness, 99.0, QUIET_LATENCY);
    let (late_tail, _) = windowed(&open.lateness, TAIL_PERCENTILE, QUIET_LATENCY);
    let (late_p99, late_tail) = (us(late_p99), us(late_tail));
    report.set("gen.late_p99_us", late_p99);
    report.set("gen.late_p90_us", late_tail);
    report.set("gen.sent", open.sent as f64);
    println!(
        "  generator: sent {} frames, lateness (lower quartiles over 1 s windows) p{TAIL_PERCENTILE} {late_tail:.2} us, \
         p99 {late_p99:.2} us, max {:.2} us",
        open.sent,
        us(max_of(&open.lateness) as f64)
    );
    if late_tail > MAX_LATE_TAIL_US {
        report.violation(format!(
            "generator ran late: gen.late_p90_us {late_tail:.1} > {MAX_LATE_TAIL_US}"
        ));
    }
    let mut reported = open.engine_reported.clone();
    report.set(
        "engine.reported_p50_ns",
        percentile(&mut reported, 50.0) as f64,
    );
    report.set(
        "engine.reported_p99_ns",
        crate::stats::nearest_rank(&reported, 99.0) as f64,
    );
    report.set(
        "net.client_minus_engine_us",
        us(median_ns(&open.client_minus_engine)),
    );
}

/// The server's own counters, as per-layer rows.
fn report_program_counts(server: &ServerReport, report: &mut Report) -> Result<(), String> {
    for (metric, field) in [
        ("net.frames_in", "frames_in"),
        ("net.frames_out", "frames_out"),
        ("net.frame_errors", "frame_errors"),
        ("engine.accepted", "accepted"),
        ("engine.rejected", "rejected"),
        ("engine.degraded", "degraded"),
        ("engine.timed_out", "timed_out"),
    ] {
        report.set(metric, server.ledger_u64(field)? as f64);
    }
    let (hits, defaults, misses) = (
        server.counter("store.lookup.hits"),
        server.counter("store.lookup.defaults"),
        server.counter("store.lookup.misses"),
    );
    report.set("store.hits", hits as f64);
    report.set("store.defaults", defaults as f64);
    report.set("store.misses", misses as f64);
    let lookups = hits + defaults + misses;
    if lookups > 0 {
        report.set("store.hit_share", hits as f64 / lookups as f64);
    }
    for (metric, counter) in [
        ("wal.appends", "personalizer.wal.appends"),
        ("lambda.publishes", "personalizer.lambda.publishes"),
        ("lambda.delta_keys", "personalizer.lambda.delta_keys"),
        ("lambda.compactions", "personalizer.lambda.compactions"),
    ] {
        report.set(metric, server.counter(counter) as f64);
    }
    Ok(())
}

/// One pass of the first `frames` layer-pass frames through each serving
/// layer's public function, single-threaded, in the order a request
/// crosses them. Returns the pass's wall time.
fn layer_pass(
    tracer: &mut Tracer,
    fx: &Fixture,
    serve: &ServeSpec,
    wal_dir: &Path,
) -> Result<Duration, String> {
    let trained = &fx.trained;
    let schema = trained.profiles().schema().clone();
    let config = ServeConfig {
        workers: serve.workers,
        shards: serve.shards,
        ..ServeConfig::default()
    };
    let feedback = serve.feedback_every > 0;
    let (engine, responses) = if feedback {
        let _ = std::fs::remove_file(wal_dir.join("pass-engine.wal"));
        ServingEngine::start_with_wal(Arc::clone(trained), config, wal_dir.join("pass-engine.wal"))
    } else {
        ServingEngine::start(Arc::clone(trained), config)
    }
    .map_err(|e| format!("in-process engine: {e}"))?;
    // The layers below the engine, owned here so each can be called alone.
    let lambdas = ShardedLambdaStore::new(trained.personalizer().clone(), serve.shards)
        .map_err(|e| e.to_string())?;
    let store = ShardedPredictionStore::from_store(trained.store(), serve.shards)
        .map_err(|e| e.to_string())?;
    let mut wal = if feedback {
        let _ = std::fs::remove_file(wal_dir.join("pass-direct.wal"));
        Some(
            SignalWal::open(wal_dir.join("pass-direct.wal"))
                .map_err(|e| e.to_string())?
                .0,
        )
    } else {
        None
    };

    let mut framed = Vec::with_capacity(512);
    let mut sink = Vec::with_capacity(1024);
    let mut levels: Vec<(FeatureId, ValueId)> = Vec::new();
    let mut failure: Option<String> = None;
    let ((), wall) = timed(|| {
        for seq in 0..LAYER_PASS_FRAMES {
            let id = Traffic::frame_id(Phase::LayerPass, 0, seq);
            let is_feedback = fx.traffic.is_feedback(seq);
            fx.traffic.write_frame(id, is_feedback, &mut framed);
            tracer.set_id(id);
            let outcome = tracer.span("request", |t| -> Result<(), String> {
                let payload = t
                    .span("wire.read_frame_ns", |_| {
                        wire::read_frame(&mut &framed[..], wire::MAX_FRAME_LEN_DEFAULT)
                    })
                    .map_err(|e| e.to_string())?;
                let parse = if is_feedback {
                    "wire.parse_feedback_ns"
                } else {
                    "wire.parse_request_ns"
                };
                let frame = t
                    .span(parse, |_| wire::parse_client_frame(&payload, &schema))
                    .map_err(|e| e.to_string())?;
                t.under(parse, "json.parse_frame_ns", |_| {
                    std::str::from_utf8(&payload).ok().map(serde_json::parse)
                });
                sink.clear();
                match frame {
                    ClientFrame::Request(request) => {
                        let borrowed = RecommendRequest {
                            profile: request.profile.iter().map(|v| v.as_deref()).collect(),
                            offering: request.offering,
                            path: request.path,
                        };
                        let (offering, path) = (request.offering, request.path);
                        let for_engine = request.clone();
                        let response = t.span("engine.submit_to_response_ns", |_| {
                            engine.submit(for_engine).map_err(|e| e.to_string())?;
                            responses.recv().map_err(|e| e.to_string())
                        })?;
                        let snapshot = lambdas.snapshot_for(&path);
                        let rec = t
                            .under(
                                "engine.submit_to_response_ns",
                                "pipeline.recommend_ns",
                                |_| {
                                    trained
                                        .live_engine_with_lambdas(
                                            ModelKind::Hierarchical,
                                            &snapshot,
                                        )
                                        .recommend_one(&borrowed)
                                },
                            )
                            .map_err(|e| e.to_string())?;
                        t.under("pipeline.recommend_ns", "lambda.snapshot_lookup_ns", |_| {
                            lambdas.snapshot_for(&path).lambda(&path, offering)
                        });
                        let catalog = trained.catalog(offering).map_err(|e| e.to_string())?;
                        t.under("pipeline.recommend_ns", "lambda.adjust_ns", |_| {
                            snapshot.adjust(rec.stage2_capacity, &path, offering, catalog)
                        });
                        // The degraded path's probe: off the blocking chain
                        // of a healthy server, timed for the record.
                        levels.clear();
                        if let Ok(h) = trained.hierarchical(offering) {
                            for feature in h.chain().fine_to_coarse() {
                                let value = borrowed.profile[feature.index()];
                                if let Some(v) =
                                    value.and_then(|v| trained.profiles().vocab(feature).get(v))
                                {
                                    levels.push((feature, ValueId(v)));
                                }
                            }
                        }
                        t.span("store.lookup_ns", |_| {
                            store.snapshot().lookup(offering, &levels).ok()
                        });
                        let encoded = t.span("wire.encode_response_ns", |_| {
                            wire::encode_response(request.id, &response)
                        });
                        t.span("wire.write_frame_ns", |_| {
                            wire::write_frame(&mut sink, &encoded)
                        })
                        .map_err(|e| e.to_string())?;
                    }
                    ClientFrame::Feedback(signal) => {
                        t.span("engine.feedback_roundtrip_ns", |_| {
                            engine.submit_feedback(signal).map_err(|e| e.to_string())?;
                            engine.flush_feedback();
                            Ok::<(), String>(())
                        })?;
                        t.under(
                            "engine.feedback_roundtrip_ns",
                            "personalizer.apply_signal_ns",
                            |_| lambdas.apply_signal(&signal),
                        );
                        let delta = t.under(
                            "engine.feedback_roundtrip_ns",
                            "lambda.publish_delta_ns",
                            |_| lambdas.publish_delta_for(&signal.path),
                        );
                        let wal = wal.as_mut().expect("feedback workloads open a WAL");
                        t.under("engine.feedback_roundtrip_ns", "wal.append_ns", |_| {
                            wal.append_record(&WalRecord { signal, delta })
                        })
                        .map_err(|e| e.to_string())?;
                        let encoded = t.span("wire.encode_response_ns", |_| {
                            wire::encode_ack("ack", Value::Str("feedback".to_owned()))
                        });
                        t.span("wire.write_frame_ns", |_| {
                            wire::write_frame(&mut sink, &encoded)
                        })
                        .map_err(|e| e.to_string())?;
                    }
                    other => return Err(format!("generated frame parsed as {other:?}")),
                }
                Ok(())
            });
            if let Err(why) = outcome {
                failure.get_or_insert(format!("layer pass frame {id}: {why}"));
                break;
            }
        }
    });
    let stats = engine.drain();
    if stats.accepted != stats.answered {
        failure.get_or_insert(format!("in-process engine ledger open: {stats:?}"));
    }
    match failure {
        Some(why) => Err(why),
        None => Ok(wall),
    }
}

/// Times what a serve workload's `setup_s` is made of, in-process.
fn setup_layers(
    tracer: &mut Tracer,
    fx: &Fixture,
    serve: &ServeSpec,
    dir: &Path,
) -> Result<(), String> {
    tracer.set_id(0);
    let loaded = tracer
        .span("setup.model_load_ns", |_| {
            let json = std::fs::read_to_string(&fx.model_path).map_err(|e| e.to_string())?;
            TrainedLorentz::from_json(&json).map_err(|e| e.to_string())
        })
        .map(Arc::new)?;
    let config = ServeConfig {
        workers: serve.workers,
        shards: serve.shards,
        ..ServeConfig::default()
    };
    let wal = fx.fresh_wal(&dir.join("setup-engine.wal"))?;
    let (engine, _responses) = tracer
        .span("setup.engine_start_ns", |_| match &wal {
            Some(path) => ServingEngine::start_with_wal(loaded, config, path),
            None => ServingEngine::start(loaded, config),
        })
        .map_err(|e| e.to_string())?;
    engine.drain();
    if let Some(path) = fx.fresh_wal(&dir.join("setup-replay.wal"))? {
        tracer
            .under("setup.engine_start_ns", "setup.wal_replay_ns", |_| {
                SignalWal::open(&path)
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Runs one serve workload end to end.
pub fn run(
    ctx: &RunContext,
    setup_repeats: usize,
    fleet_spec: &FleetSpec,
    train: TrainSpec,
    serve: &ServeSpec,
) -> Result<Report, String> {
    let mut report = Report::default();
    let fx = build_fixture(ctx, fleet_spec, train, serve)?;
    report.set("model.json_bytes", fx.model_json_bytes as f64);
    let metrics_out = ctx.out_dir.join("server-metrics.json");
    let wal_path = ctx.out_dir.join("feedback.wal");

    // Set-up, several times: spawn -> first pong. The last server stays up.
    let plan = CpuPlan::split(affinity::allowed_cpus());
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..setup_repeats {
        let wal = fx.fresh_wal(&wal_path)?;
        // The child inherits the mask of the thread that spawns it.
        affinity::pin_current_thread(&plan.server);
        let started = Server::start(&ServerConfig {
            lorentz: &ctx.lorentz,
            model: &fx.model_path,
            shards: serve.shards,
            workers: serve.workers,
            feedback_wal: wal.as_deref(),
            metrics_out: &metrics_out,
        });
        affinity::pin_current_thread(&plan.generator);
        let started = started?;
        setups.push(started.setup.as_secs_f64());
        if i + 1 < setup_repeats {
            started.drain()?;
        } else {
            server = Some(started);
        }
    }
    let server = server.expect("setup_repeats is at least 1");
    report.set("setup_s", median(&setups));
    println!(
        "  setup_s {:.4} (median of {} server starts: {setups:.4?})",
        median(&setups),
        setups.len()
    );

    let open_secs = ctx.seconds * serve.open_share;
    let schedule = Schedule::new(serve.open_rate_rps, open_secs);
    let open = loadgen::open_loop(server.addr, &fx.traffic, schedule)?;
    let closed = loadgen::closed_loop(
        server.addr,
        &fx.traffic,
        Duration::from_secs_f64(ctx.seconds - open_secs),
    )?;
    let server = server.drain();
    affinity::pin_current_thread(&plan.all);
    let server = server?;

    account_phase(
        &mut report,
        "open loop",
        &open,
        Some(schedule.frames * loadgen::CONNECTIONS as u64),
    );
    account_phase(&mut report, "closed loop", &closed, None);
    report_phases(&open, &closed, open_secs.ceil() as usize, &mut report);
    report.set("peak_rss_mb", server.peak_rss_kb as f64 / 1024.0);

    let phases = [&open, &closed];
    let feedback_sent = phases.iter().map(|p| p.feedback_lat.len() as u64).sum();
    let frames_sent = phases.iter().map(|p| p.sent).sum();
    check_ledger(&server, frames_sent, feedback_sent, &mut report)?;
    report_program_counts(&server, &mut report)?;
    let lambda_moves = serve.feedback_every > 0;
    // The hierarchy-level shares come from the open loop's sample alone: its
    // frame count is fixed, so they repeat exactly for a seed.
    let levels = run_oracle(&fx, &open.samples, lambda_moves, &mut report, "open loop");
    run_oracle(
        &fx,
        &closed.samples,
        lambda_moves,
        &mut report,
        "closed loop",
    );
    let sampled = levels.iter().sum::<u64>().max(1) as f64;
    report.set("model.finest_share", levels[0] as f64 / sampled);
    report.set("model.coarser_share", levels[1] as f64 / sampled);
    report.set("model.default_share", levels[2] as f64 / sampled);
    if let Some(seed) = &fx.wal_seed {
        check_wal(
            &wal_path,
            serve.seed_wal_records as u64 + feedback_sent,
            &mut report,
        )?;
        let len = std::fs::metadata(&wal_path)
            .map_err(|e| e.to_string())?
            .len();
        report.set("wal.bytes", (len - seed.len() as u64) as f64);
    }

    if ctx.traced {
        traced_pass(ctx, &fx, serve, &mut report)?;
    }
    Ok(report)
}

/// `SignalWal::verify` over the server's log: intact, and holding exactly
/// the seeded plus the sent records.
fn check_wal(path: &Path, expected_signals: u64, report: &mut Report) -> Result<(), String> {
    let verdict = SignalWal::verify(path).map_err(|e| e.to_string())?;
    let signals = verdict
        .records
        .iter()
        .filter(|r| r.signal.is_some())
        .count() as u64;
    if verdict.corrupt.is_some() || verdict.trailing_bytes != 0 || signals != expected_signals {
        report.violation(format!(
            "feedback WAL: {signals} signal records (expected {expected_signals}), corrupt {:?}, {} trailing bytes",
            verdict.corrupt, verdict.trailing_bytes
        ));
    }
    Ok(())
}

/// The traced run's extra work: the in-process layer pass (once recording,
/// once not, for the tracing overhead), the set-up layers, and the
/// per-layer numbers derived from the spans.
fn traced_pass(
    ctx: &RunContext,
    fx: &Fixture,
    serve: &ServeSpec,
    report: &mut Report,
) -> Result<(), String> {
    let mut tracer = Tracer::new(true);
    let traced_wall = layer_pass(&mut tracer, fx, serve, &ctx.out_dir)?;
    let untraced_wall = layer_pass(&mut Tracer::new(false), fx, serve, &ctx.out_dir)?;
    setup_layers(&mut tracer, fx, serve, &ctx.out_dir)?;
    let overhead =
        (traced_wall.as_secs_f64() - untraced_wall.as_secs_f64()) / untraced_wall.as_secs_f64();
    report.set("trace.overhead_share", overhead);

    // Spans are named after the per-layer metric they feed; the `request`
    // root is not a layer.
    for (name, self_ns) in tracer.self_times_by_name() {
        if crate::metrics::is_per_layer(name) {
            report.set(name, median_ns(&self_ns));
        }
    }
    // The request's blocking chain, as whole spans (children included).
    let chain: f64 = [
        "wire.read_frame_ns",
        "wire.parse_request_ns",
        "engine.submit_to_response_ns",
        "wire.encode_response_ns",
        "wire.write_frame_ns",
    ]
    .iter()
    .map(|name| median_ns(&tracer.durations_ns(name)))
    .sum();
    let residual = report.get("lat_p50_us") - us(chain);
    report.set("net.residual_us", residual);
    println!(
        "  layers: blocking chain {:.2} us of lat_p50_us {:.2} -> net.residual_us {residual:.2} \
         (net.client_minus_engine_us {:.2}); tracing overhead {:.1}% ({:.3} s traced, {:.3} s not)",
        us(chain),
        report.get("lat_p50_us"),
        report.get("net.client_minus_engine_us"),
        overhead * 100.0,
        traced_wall.as_secs_f64(),
        untraced_wall.as_secs_f64()
    );
    crate::write_trace(ctx, &tracer)
}
