//! CLI subcommand implementations.

use crate::args::Args;
use crate::error::CliError;
use lorentz_core::personalizer::signals::{classify_ticket, CriTicket};
use lorentz_core::provisioner::{OfferingRecommender, OfferingRecommenderConfig};
use lorentz_core::retry::RetryPolicy;
use lorentz_core::store::atomic_write;
use lorentz_core::{
    DurableStore, FleetDataset, LorentzConfig, LorentzPipeline, ModelKind, RecommendRequest,
    Rightsizer, SatisfactionSignal, TrainedLorentz,
};
use lorentz_serve::{
    serve_net, serve_replication, FollowerConfig, FollowerEngine, NetConfig, PromoteConfig,
    ReplicationConfig, ServeConfig, ServeRequest, ServeResponse, ServingEngine,
};
use lorentz_simdata::fleet::{FleetConfig, SyntheticFleet};
use lorentz_simdata::persim::{PersonalizationSim, PersonalizationSimConfig};
use lorentz_telemetry::generators::SamplingConfig;
use lorentz_types::{
    CustomerId, Endpoint, ResourceGroupId, ResourcePath, ServerOffering, SkuCatalog, SubscriptionId,
};
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// The one write path for every file this CLI produces: atomic
/// `tmp → fsync → rename` with transient-error retry, so a half-written
/// JSON file can never be observed at the destination.
fn write_file_atomic(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    atomic_write(Path::new(path), bytes, &RetryPolicy::default()).map_err(|e| CliError::io(path, e))
}

/// Top-level usage text.
pub const USAGE: &str = "\
lorentz — learned SKU recommendation from profile data (SIGMOD 2024 reproduction)

USAGE:
  lorentz generate  --servers N --seed S --out fleet.json [--base-demand X]
  lorentz rightsize --fleet fleet.json
  lorentz train     --fleet fleet.json --out model.json [--trees N] [--min-bucket N]
                    [--stage1-threads N] [--stage2-threads N]
                    [--metrics-out metrics.json] [--store-dir DIR]
                    (--store-dir commits the prediction store as a checksummed,
                     generation-numbered snapshot under DIR)
  lorentz store-verify --store-dir DIR
                    (load the newest intact store generation, reporting any
                     corrupt generations that were skipped; exits nonzero when
                     anything was corrupt, even though recovery succeeded)
  lorentz recommend --model model.json --offering burstable|general_purpose|memory_optimized
                    --profile \"Feature=value,Feature=value\" [--source hierarchical|target-encoding|store]
                    [--customer N --subscription N --resource-group N] [--metrics-out metrics.json]
  lorentz recommend --model model.json --batch requests.json
                    [--source hierarchical|target-encoding|store] [--json] [--metrics-out metrics.json]
                    (requests.json: array of {\"offering\", \"profile\": {Feature: value},
                     \"customer\", \"subscription\", \"resource_group\"}; all fields optional)
  lorentz serve     --model model.json --requests requests.ndjson
                    [--workers N] [--queue-capacity N] [--degraded-at N] [--deadline-ms N]
                    [--kind hierarchical|target-encoding] [--feedback-wal wal.log]
                    [--json] [--metrics-out metrics.json]
                    (requests.ndjson: one request object per line, same fields as --batch
                     plus optional \"id\" and \"deadline_ms\"; a line carrying a \"gamma\"
                     field is a satisfaction signal instead — it updates the live λ-table
                     before later lines serve; --feedback-wal makes signals durable, frames
                     each with its published λ delta, and replays them on startup; answers
                     go to stdout, the engine drains gracefully, and --metrics-out
                     snapshots after the drain)
  lorentz serve     --model model.json --listen ADDR [--shards N]
                    [--workers N] [--queue-capacity N] [--degraded-at N] [--deadline-ms N]
                    [--kind hierarchical|target-encoding] [--feedback-wal wal.log]
                    [--replicate-listen tcp://HOST:PORT]
                    [--max-frame-len BYTES] [--json] [--metrics-out metrics.json]
                    (TCP front end: binds ADDR — port 0 picks a free port, printed as
                     'listening on <addr>' on stderr — and serves persistent connections
                     speaking length-prefixed JSON frames (u32 big-endian byte length,
                     then that many bytes of JSON): request/feedback objects as in
                     --requests mode, {\"op\": \"ping\"} to probe, {\"op\": \"drain\"} to
                     stop; --shards splits the store and λ-state into N power-of-two
                     shards so every λ publish touches one shard (a store publish
                     swaps the whole store in one step); the post-drain
                     ledger and net accounting go to stderr; --replicate-listen
                     additionally binds a replication listener that streams the
                     feedback WAL to tcp:// followers, resuming each from its
                     last applied epoch — requires --feedback-wal)
  lorentz serve     --model model.json --requests requests.ndjson
                    --follow tcp://HOST:PORT
                    [--kind hierarchical|target-encoding] [--replica-wal wal.log]
                    [--promote-listen ADDR] [--promote-after-ms N] [--await-promotion]
                    [--run-ms MS] [--json] [--metrics-out metrics.json]
                    (replication follower: subscribes to a leader's
                     --replicate-listen — over loopback, tcp://127.0.0.1:PORT, on
                     the leader's machine — catches up on its stream, applies its
                     λ deltas, then serves the requests from the replicated epochs;
                     feedback lines are rejected while following, only the leader
                     mints epochs. --replica-wal persists received frames
                     byte-identical to the leader's log before applying them, so a
                     restart resumes from the last epoch, and --promote-listen
                     arms promotion: after the leader stays unreachable for
                     --promote-after-ms (default 1000), the follower that binds
                     ADDR first becomes a serving leader over its replica WAL
                     and accepts feedback; --await-promotion holds the request
                     lines until that happens; --run-ms keeps the follower alive —
                     tailing, promotable, serving a promoted listener — for MS
                     milliseconds after the request lines, for standby deployments
                     and the chaos harness)
  lorentz wal-verify --wal wal.log
                    (walk a feedback WAL read-only, reporting per-record OK/CORRUPT
                     verdicts like store-verify plus term markers and the last
                     epoch — the resume position a follower would reconnect with;
                     never repairs the file, but exits nonzero on a corrupt tail)
  lorentz feedback  --model model.json --tickets tickets.ndjson [--out model.json]
                    (tickets.ndjson: one {\"symptoms\", \"subject\", \"resolution\",
                     \"customer\", \"subscription\", \"resource_group\", \"offering\"}
                     object per line; each is classified with the Table-1 keyword filters
                     and non-neutral tickets update the model's λ; --out saves the
                     updated deployment)
  lorentz report    --fleet fleet.json
  lorentz offering  --fleet fleet.json --profile \"Feature=value,...\"
  lorentz ticket    [--symptoms S] [--subject S] [--resolution S]
  lorentz persim    [--iters N] [--signal-rate X] [--signal-noise X] [--sigma X] [--seed N]
  lorentz chaos     --seed N [--seeds K] [--model model.json] [--standbys N]
                    [--run-ms MS] [--promote-after-ms MS] [--work-dir DIR]
                    [--keep-dirs] [--failpoints SPEC]
                    (seeded cluster chaos: spawns a real leader + standbys from this
                     binary, drives feedback load, injects the seed's fault schedule —
                     kill -9, SIGSTOP, or a replication partition through a built-in
                     TCP fault proxy — heals, fences the old leader, and checks the
                     split-brain invariants: at most one unfenced leader, strictly
                     increasing terms, dense epochs, replica-WAL prefix property,
                     λ convergence, and exact ledgers. --seeds K runs seeds N..N+K-1
                     against one shared model fixture; any violation prints the seed
                     and schedule for one-command replay and exits nonzero)
  lorentz help
";

/// `lorentz generate`: synthesize a fleet and write it to JSON.
pub fn generate(args: &Args) -> Result<(), CliError> {
    let out = args.require("out")?;
    let config = FleetConfig {
        n_servers: args.get_parse_or("servers", 500usize)?,
        seed: args.get_parse_or("seed", 42u64)?,
        base_demand: args.get_parse_or("base-demand", 1.2f64)?,
        sampling: SamplingConfig {
            duration_secs: args.get_parse_or("duration-hours", 24.0f64)? * 3600.0,
            mean_interval_secs: 60.0,
            jitter_frac: 0.2,
        },
        ..FleetConfig::default()
    };
    let synthetic = config.generate()?;
    let json = serde_json::to_string(&synthetic)?;
    write_file_atomic(out, json.as_bytes())?;
    println!(
        "wrote {} servers ({} profile features) to {out}",
        synthetic.fleet.len(),
        synthetic.fleet.profiles().schema().len()
    );
    Ok(())
}

fn load_fleet(path: &str) -> Result<SyntheticFleet, CliError> {
    let json = fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    let mut synthetic: SyntheticFleet =
        serde_json::from_str(&json).map_err(|e| CliError::Json(format!("{path}: {e}")))?;
    synthetic.fleet.rebuild_indexes();
    Ok(synthetic)
}

fn load_model(path: &str) -> Result<TrainedLorentz, CliError> {
    let json = fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    Ok(TrainedLorentz::from_json(&json)?)
}

/// `lorentz rightsize`: print the Stage-1 summary of a fleet.
pub fn rightsize(args: &Args) -> Result<(), CliError> {
    let synthetic = load_fleet(args.require("fleet")?)?;
    let config = LorentzConfig::paper_defaults();
    let rightsizer = Rightsizer::new(&config.rightsizer)?;
    let fleet: &FleetDataset = &synthetic.fleet;
    let mut well = 0usize;
    let mut over = 0usize;
    let mut under = 0usize;
    let mut censored = 0usize;
    for i in 0..fleet.len() {
        let catalog = SkuCatalog::azure_postgres(fleet.offerings()[i]);
        let outcome =
            rightsizer.rightsize(&fleet.traces()[i], &fleet.user_capacities()[i], &catalog)?;
        match outcome.verdict {
            lorentz_core::ProvisioningVerdict::WellProvisioned => well += 1,
            lorentz_core::ProvisioningVerdict::OverProvisioned => over += 1,
            lorentz_core::ProvisioningVerdict::UnderProvisioned => under += 1,
        }
        if outcome.censored {
            censored += 1;
        }
    }
    let n = fleet.len() as f64;
    println!("servers: {}", fleet.len());
    println!("well provisioned:  {:5.1}%", 100.0 * well as f64 / n);
    println!("over provisioned:  {:5.1}%", 100.0 * over as f64 / n);
    println!("under provisioned: {:5.1}%", 100.0 * under as f64 / n);
    println!(
        "censored (throttled at selection): {:5.1}%",
        100.0 * censored as f64 / n
    );
    Ok(())
}

/// Writes the process-wide metrics snapshot to `--metrics-out`, if given.
fn write_metrics(args: &Args) -> Result<(), CliError> {
    let Some(path) = args.get("metrics-out") else {
        return Ok(());
    };
    let snapshot = lorentz_core::obs::snapshot();
    let json = serde_json::to_string_pretty(&snapshot)?;
    write_file_atomic(path, json.as_bytes())?;
    // Status goes to stderr: stdout stays machine-readable (--json serve
    // output is parsed as a single JSON document).
    eprintln!(
        "metrics snapshot ({} counters, {} histograms) -> {path}",
        snapshot.counters.len(),
        snapshot.histograms.len()
    );
    Ok(())
}

/// `lorentz train`: train the three-stage pipeline and save the deployment.
pub fn train(args: &Args) -> Result<(), CliError> {
    let synthetic = load_fleet(args.require("fleet")?)?;
    let out = args.require("out")?;
    let mut config = LorentzConfig::paper_defaults();
    config.target_encoding.boosting.n_trees = args.get_parse_or("trees", 100usize)?;
    config.hierarchical.min_bucket = args.get_parse_or("min-bucket", 10usize)?;
    let stage1_threads = args.get_parse_or("stage1-threads", 0usize)?;
    let stage2_threads = args.get_parse_or("stage2-threads", 0usize)?;
    let trained = LorentzPipeline::new(config)?.train_with_threads(
        &synthetic.fleet,
        stage1_threads,
        stage2_threads,
    )?;
    write_file_atomic(out, trained.to_json()?.as_bytes())?;
    println!(
        "trained on {} servers; prediction store v{} with {} keys -> {out}",
        synthetic.fleet.len(),
        trained.store().version(),
        trained.store().len()
    );
    if let Some(store_dir) = args.get("store-dir") {
        let generation = DurableStore::open(store_dir).save(trained.store())?;
        println!("prediction store committed as generation {generation} -> {store_dir}");
    }
    write_metrics(args)
}

/// `lorentz store-verify`: load the newest intact generation from a durable
/// store directory and report how recovery went. Exits nonzero when any
/// generation was corrupt (or the manifest unreadable) so harnesses can
/// gate on a clean store without parsing the report.
pub fn store_verify(args: &Args) -> Result<(), CliError> {
    let dir = args.require("store-dir")?;
    let recovered = DurableStore::open(dir).load()?;
    if let Some(err) = &recovered.manifest_error {
        println!("manifest: UNREADABLE ({err}); recovered via directory scan");
    }
    for (generation, why) in &recovered.skipped {
        println!("gen {generation}: CORRUPT ({why})");
    }
    println!(
        "gen {}: OK — store v{} with {} keys ({} fallback{})",
        recovered.generation,
        recovered.store.version(),
        recovered.store.len(),
        recovered.fallbacks,
        if recovered.fallbacks == 1 { "" } else { "s" }
    );
    if !recovered.skipped.is_empty() || recovered.manifest_error.is_some() {
        return Err(CliError::InvalidInput(format!(
            "store {dir} is damaged: {} corrupt generation(s) skipped{} \
             (recovered from generation {})",
            recovered.skipped.len(),
            if recovered.manifest_error.is_some() {
                ", manifest unreadable"
            } else {
                ""
            },
            recovered.generation
        )));
    }
    Ok(())
}

fn parse_offering(name: &str) -> Result<ServerOffering, CliError> {
    Ok(name.parse::<ServerOffering>()?)
}

/// Maps `"Feature=value,Feature=value"` to schema order.
fn parse_profile<'a>(
    spec: &'a str,
    schema: &lorentz_types::ProfileSchema,
) -> Result<Vec<Option<&'a str>>, CliError> {
    let mut profile: Vec<Option<&str>> = vec![None; schema.len()];
    if spec.is_empty() {
        return Ok(profile);
    }
    for pair in spec.split(',') {
        let (key, value) = pair.split_once('=').ok_or_else(|| {
            CliError::InvalidInput(format!("profile entry '{pair}' is not Feature=value"))
        })?;
        let feature = schema.feature_id(key.trim()).ok_or_else(|| {
            CliError::InvalidInput(format!(
                "unknown profile feature '{key}' (schema: {:?})",
                schema.names()
            ))
        })?;
        profile[feature.index()] = Some(value.trim());
    }
    Ok(profile)
}

/// One owned request parsed from a `--batch` file entry or a serve
/// request line.
struct RequestSpec {
    profile: Vec<Option<String>>,
    offering: ServerOffering,
    path: ResourcePath,
}

/// Reads an optional unsigned-integer field from a request object.
fn opt_u64_field(item: &serde::Value, field: &str, label: &str) -> Result<Option<u64>, CliError> {
    use serde::Deserialize;
    match item.get_field(field) {
        None => Ok(None),
        Some(v) => u64::from_value(v)
            .map(Some)
            .map_err(|_| CliError::InvalidInput(format!("{label}: {field} must be an integer"))),
    }
}

/// Parses one request object. Every field is optional — `offering` defaults
/// to `general_purpose`, `profile` entries default to missing, and the path
/// ids default to 0. Shared between `--batch` entries and `serve` request
/// lines.
fn parse_request_value(
    item: &serde::Value,
    schema: &lorentz_types::ProfileSchema,
    label: &str,
) -> Result<RequestSpec, CliError> {
    let ctx = |msg: String| CliError::InvalidInput(format!("{label}: {msg}"));
    if item.as_map().is_none() {
        return Err(ctx("must be a JSON object".into()));
    }
    let offering = match item.get_field("offering") {
        None => ServerOffering::GeneralPurpose,
        Some(v) => v
            .as_str()
            .ok_or_else(|| ctx("offering must be a string".into()))?
            .parse()
            .map_err(|e: lorentz_types::LorentzError| ctx(e.to_string()))?,
    };
    let mut profile: Vec<Option<String>> = vec![None; schema.len()];
    if let Some(p) = item.get_field("profile") {
        let entries = p
            .as_map()
            .ok_or_else(|| ctx("profile must be an object of Feature: value".into()))?;
        for (name, v) in entries {
            let feature = schema.feature_id(name).ok_or_else(|| {
                ctx(format!(
                    "unknown profile feature '{name}' (schema: {:?})",
                    schema.names()
                ))
            })?;
            let s = v
                .as_str()
                .ok_or_else(|| ctx(format!("profile value for '{name}' must be a string")))?;
            profile[feature.index()] = Some(s.to_owned());
        }
    }
    let id = |field: &str| -> Result<u32, CliError> {
        Ok(opt_u64_field(item, field, label)?
            .map(|v| u32::try_from(v).map_err(|_| ctx(format!("{field} must fit in 32 bits"))))
            .transpose()?
            .unwrap_or(0))
    };
    Ok(RequestSpec {
        profile,
        offering,
        path: ResourcePath::new(
            CustomerId(id("customer")?),
            SubscriptionId(id("subscription")?),
            ResourceGroupId(id("resource_group")?),
        ),
    })
}

/// Parses a `--batch` file: a JSON array of request objects.
fn parse_batch_file(
    json: &str,
    schema: &lorentz_types::ProfileSchema,
) -> Result<Vec<RequestSpec>, CliError> {
    let value = serde_json::parse(json).map_err(|e| CliError::Json(e.to_string()))?;
    let items = value.as_seq().ok_or_else(|| {
        CliError::InvalidInput("batch file must be a JSON array of request objects".into())
    })?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| parse_request_value(item, schema, &format!("request #{i}")))
        .collect()
}

/// Serves every request in a `--batch` file through one batched call.
fn recommend_batch(
    args: &Args,
    trained: &TrainedLorentz,
    batch_path: &str,
) -> Result<(), CliError> {
    use serde::Serialize;
    let json = fs::read_to_string(batch_path).map_err(|e| CliError::io(batch_path, e))?;
    let specs = parse_batch_file(&json, trained.profiles().schema())?;
    let requests: Vec<RecommendRequest<'_>> = specs
        .iter()
        .map(|s| RecommendRequest {
            profile: s.profile.iter().map(|v| v.as_deref()).collect(),
            offering: s.offering,
            path: s.path,
        })
        .collect();
    let results = match args.get_or("source", "hierarchical") {
        "hierarchical" => trained.recommend_batch(&requests, ModelKind::Hierarchical),
        "target-encoding" => trained.recommend_batch(&requests, ModelKind::TargetEncoding),
        "store" => trained.recommend_batch_from_store(&requests),
        other => return Err(CliError::Usage(format!("unknown source '{other}'"))),
    };
    if args.has_switch("json") {
        let rows: Vec<serde::Value> = results
            .iter()
            .map(|r| match r {
                Ok(rec) => serde::Value::Map(vec![("ok".into(), rec.to_value())]),
                Err(e) => {
                    serde::Value::Map(vec![("error".into(), serde::Value::Str(e.to_string()))])
                }
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&serde::Value::Seq(rows))?
        );
    } else {
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(rec) => println!("[{i}] {rec}"),
                Err(e) => println!("[{i}] error: {e}"),
            }
        }
    }
    Ok(())
}

/// `lorentz recommend`: serve one recommendation (or a `--batch` file of
/// them) from a saved deployment.
pub fn recommend(args: &Args) -> Result<(), CliError> {
    let trained = load_model(args.require("model")?)?;
    if let Some(batch_path) = args.get("batch") {
        recommend_batch(args, &trained, batch_path)?;
        return write_metrics(args);
    }
    let offering = parse_offering(args.get_or("offering", "general_purpose"))?;
    let spec = args.get_or("profile", "").to_owned();
    let profile = parse_profile(&spec, trained.profiles().schema())?;
    let path = ResourcePath::new(
        CustomerId(args.get_parse_or("customer", 0u32)?),
        SubscriptionId(args.get_parse_or("subscription", 0u32)?),
        ResourceGroupId(args.get_parse_or("resource-group", 0u32)?),
    );
    let request = RecommendRequest {
        profile,
        offering,
        path,
    };
    let rec = match args.get_or("source", "hierarchical") {
        "hierarchical" => trained.recommend(&request, ModelKind::Hierarchical),
        "target-encoding" => trained.recommend(&request, ModelKind::TargetEncoding),
        "store" => trained.recommend_from_store(&request),
        other => return Err(CliError::Usage(format!("unknown source '{other}'"))),
    }?;
    if args.has_switch("json") {
        println!("{}", serde_json::to_string_pretty(&rec)?);
    } else {
        println!("{rec}");
    }
    write_metrics(args)
}

/// Reads an optional flag and parses it, keeping `None` when absent.
fn parse_opt_flag<T: std::str::FromStr>(args: &Args, key: &str) -> Result<Option<T>, CliError> {
    match args.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| CliError::Usage(format!("flag --{key} has invalid value '{v}'"))),
    }
}

/// One parsed line of a serve stream: a recommendation request or an
/// interleaved satisfaction signal.
#[derive(Debug)]
enum ServeLine {
    /// A recommendation request for the worker pool.
    Request(ServeRequest),
    /// A satisfaction signal for the λ-writer, applied before later lines
    /// are served.
    Feedback(SatisfactionSignal),
}

/// Parses a serve stream: one JSON object per line (blank lines ignored).
/// A line with a `gamma` field is a satisfaction signal (`gamma` in
/// [-1, 1], plus the path ids and optional `offering`); any other line is a
/// request — the same shape as a `--batch` entry plus optional `id`
/// (defaults to the request's position among requests) and `deadline_ms`.
fn parse_serve_lines(
    text: &str,
    path: &str,
    schema: &lorentz_types::ProfileSchema,
) -> Result<Vec<ServeLine>, CliError> {
    use serde::Deserialize;
    let mut lines = Vec::new();
    let mut request_count = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let label = format!("{path}:{}", lineno + 1);
        let value =
            serde_json::parse(line).map_err(|e| CliError::InvalidInput(format!("{label}: {e}")))?;
        let spec = parse_request_value(&value, schema, &label)?;
        if let Some(g) = value.get_field("gamma") {
            let gamma = f64::from_value(g)
                .map_err(|_| CliError::InvalidInput(format!("{label}: gamma must be a number")))?;
            let signal = SatisfactionSignal::new(spec.path, spec.offering, gamma)
                .map_err(|e| CliError::InvalidInput(format!("{label}: {e}")))?;
            lines.push(ServeLine::Feedback(signal));
        } else {
            let id = opt_u64_field(&value, "id", &label)?.unwrap_or(request_count);
            let deadline = opt_u64_field(&value, "deadline_ms", &label)?.map(Duration::from_millis);
            request_count += 1;
            lines.push(ServeLine::Request(ServeRequest {
                id,
                profile: spec.profile,
                offering: spec.offering,
                path: spec.path,
                deadline,
            }));
        }
    }
    Ok(lines)
}

/// Blocks until every accepted request has been answered — the barrier that
/// keeps a feedback line from shifting requests submitted before it.
fn wait_for_quiescence(engine: &ServingEngine) {
    loop {
        let stats = engine.stats();
        if stats.answered >= stats.accepted {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `lorentz serve`: run the concurrent serving engine over a newline-
/// delimited stream of requests and interleaved feedback signals. Requests
/// are submitted through the bounded queue (rejections are reported, not
/// fatal); a feedback line waits for the in-flight requests to answer,
/// then applies and hot-publishes its signal, so every later request
/// serves under the updated λ. The engine drains gracefully and the
/// answers are printed to stdout ordered by request id.
pub fn serve(args: &Args) -> Result<(), CliError> {
    use serde::Serialize;
    let deployment = Arc::new(load_model(args.require("model")?)?);
    let kind = match args.get_or("kind", "hierarchical") {
        "hierarchical" => ModelKind::Hierarchical,
        "target-encoding" => ModelKind::TargetEncoding,
        other => return Err(CliError::Usage(format!("unknown model kind '{other}'"))),
    };
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: args.get_parse_or("workers", defaults.workers)?,
        queue_capacity: args.get_parse_or("queue-capacity", defaults.queue_capacity)?,
        degraded_threshold: parse_opt_flag(args, "degraded-at")?.or(defaults.degraded_threshold),
        default_deadline: parse_opt_flag::<u64>(args, "deadline-ms")?.map(Duration::from_millis),
        kind,
        shards: args.get_parse_or("shards", defaults.shards)?,
        ..defaults
    };
    if let Some(addr) = args.get("listen") {
        return serve_listen(args, deployment, config, addr);
    }
    let requests_path = args.require("requests")?;
    let text = fs::read_to_string(requests_path).map_err(|e| CliError::io(requests_path, e))?;
    let lines = parse_serve_lines(&text, requests_path, deployment.profiles().schema())?;
    if let Some(spec) = args.get("follow") {
        return serve_follow(args, deployment, lines, kind, &Endpoint::parse(spec)?);
    }
    let total = lines
        .iter()
        .filter(|l| matches!(l, ServeLine::Request(_)))
        .count();
    let (engine, responses) = match args.get("feedback-wal") {
        Some(wal_path) => ServingEngine::start_with_wal(Arc::clone(&deployment), config, wal_path)?,
        None => ServingEngine::start(Arc::clone(&deployment), config)?,
    };
    let mut rejected: Vec<(u64, lorentz_serve::ServeError)> = Vec::new();
    for line in lines {
        match line {
            ServeLine::Request(request) => {
                let id = request.id;
                if let Err(e) = engine.submit(request) {
                    rejected.push((id, e));
                }
            }
            ServeLine::Feedback(signal) => {
                // Requests already submitted answer under the current λ;
                // the signal publishes before anything later is admitted.
                wait_for_quiescence(&engine);
                if engine.submit_feedback(signal).is_ok() {
                    engine.flush_feedback();
                }
            }
        }
    }
    let store_version = engine.store_version();
    let lambda_version = engine.lambda_version();
    let stats = engine.drain();
    let mut answered: Vec<ServeResponse> = responses.into_iter().collect();
    answered.sort_by_key(|r| r.id);
    if args.has_switch("json") {
        let rows: Vec<serde::Value> = answered
            .iter()
            .map(|r| {
                let mut fields = vec![("id".to_owned(), serde::Value::UInt(r.id))];
                match &r.result {
                    Ok(rec) => fields.push(("ok".to_owned(), rec.to_value())),
                    Err(e) => fields.push(("error".to_owned(), serde::Value::Str(e.to_string()))),
                }
                fields.push(("degraded".to_owned(), serde::Value::Bool(r.degraded)));
                fields.push(("latency_ns".to_owned(), serde::Value::UInt(r.latency_ns)));
                serde::Value::Map(fields)
            })
            .chain(rejected.iter().map(|(id, e)| {
                serde::Value::Map(vec![
                    ("id".to_owned(), serde::Value::UInt(*id)),
                    ("rejected".to_owned(), serde::Value::Str(e.to_string())),
                ])
            }))
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&serde::Value::Seq(rows))?
        );
    } else {
        for r in &answered {
            let tag = if r.degraded { " (degraded)" } else { "" };
            match &r.result {
                Ok(rec) => println!("[{}]{tag} {rec}", r.id),
                Err(e) => println!("[{}]{tag} error: {e}", r.id),
            }
        }
        for (id, e) in &rejected {
            println!("[{id}] rejected: {e}");
        }
    }
    // Status goes to stderr so stdout stays machine-readable answers.
    eprintln!(
        "served {total} requests against store v{store_version}: \
         {} accepted, {} answered, {} rejected, {} timed out, {} degraded, \
         {} feedback applied (lambda v{lambda_version})",
        stats.accepted,
        stats.answered,
        stats.rejected,
        stats.timed_out,
        stats.degraded,
        stats.feedback_applied
    );
    write_metrics(args)
}

/// `lorentz serve --listen`: put the TCP front end on the engine. Binds the
/// address, prints `listening on <addr>` to stderr (port 0 resolves to the
/// kernel-assigned port, so harnesses can parse it), and serves persistent
/// connections speaking the length-prefixed JSON frame protocol until a
/// client sends `{"op": "drain"}`. The post-drain ledger and per-connection
/// accounting go to stderr; `--json` additionally prints the report as JSON
/// on stdout.
fn serve_listen(
    args: &Args,
    deployment: Arc<TrainedLorentz>,
    config: ServeConfig,
    addr: &str,
) -> Result<(), CliError> {
    let listener = std::net::TcpListener::bind(addr).map_err(|e| CliError::io(addr, e))?;
    let local = listener.local_addr().map_err(|e| CliError::io(addr, e))?;
    let (engine, responses) = match args.get("feedback-wal") {
        Some(wal_path) => ServingEngine::start_with_wal(Arc::clone(&deployment), config, wal_path)?,
        None => ServingEngine::start(Arc::clone(&deployment), config)?,
    };
    let net_defaults = NetConfig::default();
    let net_config = NetConfig {
        max_frame_len: args.get_parse_or("max-frame-len", net_defaults.max_frame_len)?,
        ..net_defaults
    };
    // Replication fanout rides on its own listener so follower traffic
    // never mixes with client frames.
    let _replication = match args.get("replicate-listen") {
        Some(spec) => {
            let endpoint = Endpoint::parse(spec)?;
            let repl_addr = endpoint.as_tcp();
            let repl_listener =
                std::net::TcpListener::bind(repl_addr).map_err(|e| CliError::io(repl_addr, e))?;
            let repl = serve_replication(&engine, repl_listener, ReplicationConfig::default())
                .map_err(|e| CliError::io(repl_addr, e))?;
            eprintln!("replicating on {}", repl.local_addr());
            Some(repl)
        }
        None => None,
    };
    eprintln!("listening on {local} ({} shards)", config.shards);
    let report = serve_net(deployment, engine, responses, listener, net_config)
        .map_err(|e| CliError::io(addr, e))?;
    let stats = report.engine;
    eprintln!(
        "served {} requests against store v{}: \
         {} accepted, {} answered, {} rejected, {} timed out, {} degraded, \
         {} feedback applied (lambda v{})",
        stats.submitted,
        report.store_version,
        stats.accepted,
        stats.answered,
        stats.rejected,
        stats.timed_out,
        stats.degraded,
        stats.feedback_applied,
        report.lambda_version,
    );
    eprintln!(
        "net: {} connections, {} frames in, {} frames out, {} frame errors, \
         {} disconnects, {} dropped responses",
        report.connections,
        report.frames_in,
        report.frames_out,
        report.frame_errors,
        report.disconnects,
        report.dropped_responses,
    );
    match report.fenced_by {
        Some(observed) => eprintln!(
            "leader term {}: FENCED by term {observed} — a newer leader owns the \
             WAL lineage; feedback was refused after the fence",
            report.leader_term
        ),
        None => eprintln!("leader term {}", report.leader_term),
    }
    if args.has_switch("json") {
        let mut fields = vec![
            ("submitted".to_owned(), serde::Value::UInt(stats.submitted)),
            ("accepted".to_owned(), serde::Value::UInt(stats.accepted)),
            ("answered".to_owned(), serde::Value::UInt(stats.answered)),
            ("rejected".to_owned(), serde::Value::UInt(stats.rejected)),
            ("timed_out".to_owned(), serde::Value::UInt(stats.timed_out)),
            ("degraded".to_owned(), serde::Value::UInt(stats.degraded)),
            (
                "feedback_applied".to_owned(),
                serde::Value::UInt(stats.feedback_applied),
            ),
            (
                "store_version".to_owned(),
                serde::Value::UInt(report.store_version),
            ),
            (
                "lambda_version".to_owned(),
                serde::Value::UInt(report.lambda_version),
            ),
            (
                "connections".to_owned(),
                serde::Value::UInt(report.connections),
            ),
            ("frames_in".to_owned(), serde::Value::UInt(report.frames_in)),
            (
                "frames_out".to_owned(),
                serde::Value::UInt(report.frames_out),
            ),
            (
                "frame_errors".to_owned(),
                serde::Value::UInt(report.frame_errors),
            ),
            (
                "disconnects".to_owned(),
                serde::Value::UInt(report.disconnects),
            ),
            (
                "dropped_responses".to_owned(),
                serde::Value::UInt(report.dropped_responses),
            ),
            (
                "leader_term".to_owned(),
                serde::Value::UInt(report.leader_term),
            ),
            (
                "fenced".to_owned(),
                serde::Value::Bool(report.fenced_by.is_some()),
            ),
        ];
        if let Some(observed) = report.fenced_by {
            fields.push(("fenced_by".to_owned(), serde::Value::UInt(observed)));
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&serde::Value::Map(fields))?
        );
    }
    write_metrics(args)
}

/// `lorentz serve --follow`: run the replication follower against a
/// leader's `tcp://HOST:PORT` replication listener. The follower catches
/// up on the leader's stream before serving (so the first answer already
/// reflects every durable signal), applies λ deltas as they arrive, and
/// serves requests from the replicated epochs. Feedback lines are
/// rejected while following — only the leader mints epochs — but accepted
/// after a promotion (`--promote-listen`) flips this replica into a
/// serving leader.
fn serve_follow(
    args: &Args,
    deployment: Arc<TrainedLorentz>,
    lines: Vec<ServeLine>,
    kind: ModelKind,
    endpoint: &Endpoint,
) -> Result<(), CliError> {
    use serde::Serialize;
    let mut config = FollowerConfig {
        kind,
        ..FollowerConfig::default()
    };
    if let Some(path) = args.get("replica-wal") {
        config.local_wal = Some(path.into());
    }
    if let Some(listen) = args.get("promote-listen") {
        let wal = args.get("replica-wal").ok_or_else(|| {
            CliError::Usage(
                "--promote-listen requires --replica-wal (the promoted leader replays it)"
                    .to_owned(),
            )
        })?;
        config.promote = Some(PromoteConfig {
            listen: Some(listen.to_owned()),
            detection_timeout: Duration::from_millis(args.get_parse_or("promote-after-ms", 1000)?),
            ..PromoteConfig::new(wal)
        });
    }
    let follower = FollowerEngine::start_tcp(deployment, endpoint.as_tcp(), config)?;
    // Catch-up is complete: harnesses sequencing a leader kill can wait
    // for this line.
    eprintln!(
        "following {endpoint} (caught up to epoch {})",
        follower.stats().last_epoch
    );
    if args.has_switch("await-promotion") {
        // Harness hook: block until the leader dies and this replica wins
        // the promotion, then serve the request lines as the new leader.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !follower.is_leader() {
            if std::time::Instant::now() >= deadline {
                return Err(CliError::InvalidInput(
                    "timed out waiting for promotion (is --promote-listen set?)".to_owned(),
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        eprintln!("promoted to leader; serving from the local WAL");
    }
    let mut rows: Vec<serde::Value> = Vec::new();
    let mut served = 0u64;
    let mut feedback_rejected = 0u64;
    let mut feedback_applied = 0u64;
    for line in lines {
        match line {
            ServeLine::Request(request) => {
                let started = std::time::Instant::now();
                let result = follower.recommend_one(&request);
                let latency_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                served += 1;
                if args.has_switch("json") {
                    let mut fields = vec![("id".to_owned(), serde::Value::UInt(request.id))];
                    match &result {
                        Ok(rec) => fields.push(("ok".to_owned(), rec.to_value())),
                        Err(e) => {
                            fields.push(("error".to_owned(), serde::Value::Str(e.to_string())));
                        }
                    }
                    fields.push(("degraded".to_owned(), serde::Value::Bool(false)));
                    fields.push(("latency_ns".to_owned(), serde::Value::UInt(latency_ns)));
                    rows.push(serde::Value::Map(fields));
                } else {
                    match &result {
                        Ok(rec) => println!("[{}] {rec}", request.id),
                        Err(e) => println!("[{}] error: {e}", request.id),
                    }
                }
            }
            ServeLine::Feedback(signal) => match follower.submit_feedback(signal) {
                Ok(()) => feedback_applied += 1,
                Err(_) => {
                    feedback_rejected += 1;
                    if !args.has_switch("json") {
                        println!("[feedback] rejected: follower is read-only");
                    }
                }
            },
        }
    }
    if args.has_switch("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde::Value::Seq(rows))?
        );
    }
    // Chaos/standby hook: stay alive (tailing, promotable, serving the
    // promoted listener) for a fixed window before the graceful stop.
    if let Some(run_ms) = parse_opt_flag::<u64>(args, "run-ms")? {
        let deadline = std::time::Instant::now() + Duration::from_millis(run_ms);
        while std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let lambda_version = follower.lambda_version();
    let promoted = follower.is_leader();
    let term = follower.leader_term();
    let state_label = match follower.state() {
        lorentz_serve::ReplicaState::Following => "following".to_owned(),
        lorentz_serve::ReplicaState::Leader => "leader".to_owned(),
        lorentz_serve::ReplicaState::Halted(why) => format!("halted: {why}"),
        lorentz_serve::ReplicaState::Demoted { term, observed } => {
            format!("demoted (term {term} fenced by term {observed})")
        }
    };
    let stats = follower.stop();
    // Status goes to stderr so stdout stays machine-readable answers.
    let applied_note = if promoted {
        format!(", {feedback_applied} feedback applied (promoted leader)")
    } else {
        String::new()
    };
    eprintln!(
        "followed {endpoint}: {} deltas applied, {} skipped \
         (lambda v{lambda_version}, last epoch {}); served {served} requests, \
         {feedback_rejected} feedback rejected (read-only){applied_note}; \
         state {state_label}, term {term}, {} duplicates",
        stats.applied, stats.skipped, stats.last_epoch, stats.duplicates
    );
    write_metrics(args)
}

/// `lorentz wal-verify`: walk a feedback WAL read-only and report a
/// per-record verdict, mirroring `store-verify` for the signal log. Never
/// repairs the file — a torn tail is described, not truncated — but exits
/// nonzero when one is found so harnesses can gate on an intact log.
pub fn wal_verify(args: &Args) -> Result<(), CliError> {
    let wal_path = args.require("wal")?;
    let report = lorentz_core::SignalWal::verify(wal_path)?;
    for r in &report.records {
        match (&r.signal, r.epoch, r.term) {
            (Some(s), Some(epoch), _) => {
                println!(
                    "record {} @ {}: OK — epoch {epoch}, {} delta keys; signal {}|{}|{} {} γ{:+}",
                    r.index,
                    r.offset,
                    r.delta_keys,
                    s.path.customer.0,
                    s.path.subscription.0,
                    s.path.resource_group.0,
                    s.offering,
                    s.gamma
                );
            }
            (_, _, Some(term)) => {
                println!(
                    "record {} @ {}: OK — term marker (leader term {term})",
                    r.index, r.offset
                );
            }
            _ => println!("record {} @ {}: OK — empty record", r.index, r.offset),
        }
    }
    // The resume position a follower would hand the leader on reconnect.
    let last_epoch = report
        .records
        .iter()
        .filter_map(|r| r.epoch)
        .max()
        .unwrap_or(0);
    match &report.corrupt {
        Some((offset, why)) => {
            println!(
                "record {} @ {offset}: CORRUPT ({why}); {} trailing bytes unreadable \
                 (last epoch {last_epoch})",
                report.records.len(),
                report.trailing_bytes
            );
            Err(CliError::InvalidInput(format!(
                "WAL {wal_path} is damaged: corrupt frame at offset {offset} ({why}), \
                 {} intact record(s) precede it",
                report.records.len()
            )))
        }
        None => {
            println!(
                "{} records OK, tail clean (last epoch {last_epoch})",
                report.records.len()
            );
            Ok(())
        }
    }
}

/// `lorentz feedback`: replay a file of CRI ticket lines through the
/// Table-1 keyword classifier into a saved deployment's personalizer, and
/// optionally save the updated model.
pub fn feedback(args: &Args) -> Result<(), CliError> {
    let mut trained = load_model(args.require("model")?)?;
    let tickets_path = args.require("tickets")?;
    let text = fs::read_to_string(tickets_path).map_err(|e| CliError::io(tickets_path, e))?;
    let schema = trained.profiles().schema().clone();
    let (mut positive, mut negative, mut neutral) = (0u64, 0u64, 0u64);
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let label = format!("{tickets_path}:{}", lineno + 1);
        let value =
            serde_json::parse(line).map_err(|e| CliError::InvalidInput(format!("{label}: {e}")))?;
        let spec = parse_request_value(&value, &schema, &label)?;
        let text_field = |field: &str| -> Result<String, CliError> {
            match value.get_field(field) {
                None => Ok(String::new()),
                Some(v) => v.as_str().map(ToOwned::to_owned).ok_or_else(|| {
                    CliError::InvalidInput(format!("{label}: {field} must be a string"))
                }),
            }
        };
        let ticket = CriTicket::new(
            &text_field("symptoms")?,
            &text_field("subject")?,
            &text_field("resolution")?,
        );
        let gamma = trained.apply_ticket(spec.path, spec.offering, &ticket);
        let sentiment = match gamma as i8 {
            1 => {
                positive += 1;
                "performance-sensitive (+1)"
            }
            -1 => {
                negative += 1;
                "price-sensitive (-1)"
            }
            _ => {
                neutral += 1;
                "neutral (0)"
            }
        };
        println!(
            "{label}: {sentiment}; lambda[{}|{}|{}] = {:+.3}",
            spec.path.customer.0,
            spec.path.subscription.0,
            spec.path.resource_group.0,
            trained.personalizer().lambda(&spec.path, spec.offering)
        );
    }
    println!(
        "{} tickets: {positive} performance-sensitive, {negative} price-sensitive, \
         {neutral} neutral; {} personalized profiles",
        positive + negative + neutral,
        trained.personalizer().profiles()
    );
    if let Some(out) = args.get("out") {
        write_file_atomic(out, trained.to_json()?.as_bytes())?;
        println!("updated model -> {out}");
    }
    Ok(())
}

/// `lorentz offering`: recommend a server offering (future-work extension).
pub fn offering(args: &Args) -> Result<(), CliError> {
    let synthetic = load_fleet(args.require("fleet")?)?;
    let recommender = OfferingRecommender::fit(
        synthetic.fleet.profiles(),
        synthetic.fleet.offerings(),
        OfferingRecommenderConfig::default(),
    )?;
    let spec = args.get_or("profile", "").to_owned();
    let profile = parse_profile(&spec, synthetic.fleet.profiles().schema())?;
    let x = synthetic.fleet.profiles().encode_row(&profile)?;
    let rec = recommender.recommend(&x)?;
    println!(
        "offering: {} (confidence {:.0}%, {} reference instances{})",
        rec.offering,
        100.0 * rec.confidence,
        rec.bucket_size,
        rec.matched_feature
            .map(|f| format!(", matched on {f}"))
            .unwrap_or_else(|| ", fleet-wide prior".into())
    );
    Ok(())
}

/// `lorentz report`: render a markdown fleet health report.
pub fn report(args: &Args) -> Result<(), CliError> {
    let synthetic = load_fleet(args.require("fleet")?)?;
    let report = lorentz_core::fleet_report(
        &LorentzConfig::paper_defaults(),
        &lorentz_core::CostModel::default(),
        &synthetic.fleet,
    )?;
    print!("{}", report.to_markdown());
    Ok(())
}

/// `lorentz ticket`: classify a CRI ticket with the Table-1 filters.
pub fn ticket(args: &Args) -> Result<(), CliError> {
    let t = CriTicket::new(
        args.get_or("symptoms", ""),
        args.get_or("subject", ""),
        args.get_or("resolution", ""),
    );
    let gamma = classify_ticket(&t);
    let label = match gamma as i8 {
        1 => "performance-sensitive (+1)",
        -1 => "price-sensitive (-1)",
        _ => "neutral (0)",
    };
    println!("{label}");
    Ok(())
}

/// `lorentz persim`: run the §5.3 personalization simulation.
pub fn persim(args: &Args) -> Result<(), CliError> {
    let config = PersonalizationSimConfig {
        signal_rate: args.get_parse_or("signal-rate", 0.4f64)?,
        signal_noise: args.get_parse_or("signal-noise", 0.13f64)?,
        stage2_sigma: args.get_parse_or("sigma", 0.1f64)?,
        seed: args.get_parse_or("seed", 0u64)?,
        ..PersonalizationSimConfig::default()
    };
    let iters = args.get_parse_or("iters", 40usize)?;
    let mut sim = PersonalizationSim::new(config)?;
    println!(
        "{:>5} {:>8} {:>8} {:>10}",
        "iter", "rmse", "p80", "% correct"
    );
    for i in 1..=iters {
        let m = sim.step();
        if i == 1 || i % 5 == 0 {
            println!(
                "{i:>5} {:>8.3} {:>8.3} {:>10.1}",
                m.rmse,
                m.p80_abs_error,
                100.0 * m.correctly_provisioned
            );
        }
    }
    Ok(())
}

/// `lorentz chaos`: run the seeded cluster chaos harness against this very
/// binary. Each seed spawns a real leader + standbys, drives load, injects
/// the seed's fault schedule, heals, fences, and checks the split-brain
/// invariants; any violation prints the seed and schedule for replay and
/// the command exits nonzero.
pub fn chaos(args: &Args) -> Result<(), CliError> {
    let seed = args.get_parse_or("seed", 1u64)?;
    let count = args.get_parse_or("seeds", 1u64)?;
    if count == 0 {
        return Err(CliError::Usage("--seeds must be at least 1".to_owned()));
    }
    let binary = std::env::current_exe().map_err(|e| CliError::io("current executable", e))?;
    let mut config = lorentz_chaos::ChaosConfig::new(binary);
    config.model = args.get("model").map(Into::into);
    config.work_dir = args.get("work-dir").map(Into::into);
    config.standbys = args.get_parse_or("standbys", config.standbys)?;
    config.run_ms = args.get_parse_or("run-ms", config.run_ms)?;
    config.promote_after_ms = args.get_parse_or("promote-after-ms", config.promote_after_ms)?;
    config.keep_work_dir = args.has_switch("keep-dirs");
    config.failpoints = args.get("failpoints").map(ToOwned::to_owned);
    if config.standbys < 2 {
        return Err(CliError::Usage(
            "--standbys must be at least 2 (the harness checks a promotion race)".to_owned(),
        ));
    }
    let mut failed = 0u64;
    for s in seed..seed + count {
        let report = lorentz_chaos::run_seed(s, &config)
            .map_err(|e| CliError::InvalidInput(format!("chaos seed {s}: {e}")))?;
        if report.passed() {
            println!(
                "seed {s}: PASS — fault {}, {} signals acked ({} diverged), winner term {}",
                report.schedule.fault.kind(),
                report.warmup_acked,
                report.diverged_acked,
                report.winner_term
            );
        } else {
            failed += 1;
            println!("seed {s}: FAIL — schedule: {}", report.schedule);
            for v in &report.violations {
                println!("  violation: {v}");
            }
            println!(
                "  artifacts kept in {}; replay with: lorentz chaos --seed {s}",
                report.work_dir.display()
            );
        }
    }
    if failed > 0 {
        return Err(CliError::InvalidInput(format!(
            "{failed}/{count} chaos seed(s) violated cluster invariants"
        )));
    }
    println!("{count} chaos seed(s) passed");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::parse(v.iter().map(|s| (*s).to_owned())).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("lorentz-cli-test-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn generate_train_recommend_round_trip() {
        let fleet_path = tmp("fleet.json");
        let model_path = tmp("model.json");
        generate(&args(&[
            "generate",
            "--servers",
            "120",
            "--seed",
            "3",
            "--out",
            &fleet_path,
        ]))
        .unwrap();
        rightsize(&args(&["rightsize", "--fleet", &fleet_path])).unwrap();
        train(&args(&[
            "train",
            "--fleet",
            &fleet_path,
            "--out",
            &model_path,
            "--trees",
            "10",
            "--min-bucket",
            "3",
        ]))
        .unwrap();
        recommend(&args(&[
            "recommend",
            "--model",
            &model_path,
            "--offering",
            "general_purpose",
            "--profile",
            "SegmentName=segmentname-0",
            "--source",
            "store",
        ]))
        .unwrap();
        offering(&args(&[
            "offering",
            "--fleet",
            &fleet_path,
            "--profile",
            "SegmentName=segmentname-0",
        ]))
        .unwrap();
        let batch_path = tmp("requests.json");
        std::fs::write(
            &batch_path,
            r#"[
              {"offering": "general_purpose",
               "profile": {"SegmentName": "segmentname-0"},
               "customer": 1, "subscription": 2, "resource_group": 3},
              {"profile": {"VerticalName": "verticalname-1"}},
              {}
            ]"#,
        )
        .unwrap();
        for source in ["hierarchical", "target-encoding", "store"] {
            recommend(&args(&[
                "recommend",
                "--model",
                &model_path,
                "--batch",
                &batch_path,
                "--source",
                source,
            ]))
            .unwrap();
        }
        recommend(&args(&[
            "recommend",
            "--model",
            &model_path,
            "--batch",
            &batch_path,
            "--json",
        ]))
        .unwrap();
        let ndjson_path = tmp("requests.ndjson");
        std::fs::write(
            &ndjson_path,
            concat!(
                r#"{"id": 7, "offering": "general_purpose", "profile": {"SegmentName": "segmentname-0"}}"#,
                "\n\n",
                r#"{"profile": {"VerticalName": "verticalname-1"}, "customer": 4}"#,
                "\n",
                r#"{}"#,
                "\n",
            ),
        )
        .unwrap();
        serve(&args(&[
            "serve",
            "--model",
            &model_path,
            "--requests",
            &ndjson_path,
            "--workers",
            "2",
            "--json",
        ]))
        .unwrap();
        let _ = std::fs::remove_file(&ndjson_path);
        let _ = std::fs::remove_file(&batch_path);
        let _ = std::fs::remove_file(&fleet_path);
        let _ = std::fs::remove_file(&model_path);
    }

    #[test]
    fn train_metrics_out_writes_parseable_snapshot() {
        let fleet_path = tmp("metrics-fleet.json");
        let model_path = tmp("metrics-model.json");
        let metrics_path = tmp("metrics.json");
        generate(&args(&[
            "generate",
            "--servers",
            "90",
            "--seed",
            "11",
            "--out",
            &fleet_path,
        ]))
        .unwrap();
        train(&args(&[
            "train",
            "--fleet",
            &fleet_path,
            "--out",
            &model_path,
            "--trees",
            "8",
            "--stage1-threads",
            "2",
            "--stage2-threads",
            "2",
            "--metrics-out",
            &metrics_path,
        ]))
        .unwrap();

        let raw = std::fs::read_to_string(&metrics_path).unwrap();
        let snapshot: lorentz_core::obs::MetricsSnapshot =
            serde_json::from_str(&raw).expect("metrics snapshot must be valid JSON");
        for span in [
            "train.stage1.span_ns",
            "train.stage2.span_ns",
            "train.publish.span_ns",
            "train.personalizer.span_ns",
        ] {
            assert!(
                snapshot.histogram(span).is_some(),
                "snapshot missing stage span '{span}'"
            );
        }
        assert!(snapshot.counter("train.stage1.records").unwrap() >= 90);
        let _ = std::fs::remove_file(&fleet_path);
        let _ = std::fs::remove_file(&model_path);
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn batch_file_parsing_rejects_bad_requests() {
        let schema = lorentz_types::ProfileSchema::azure_postgres();
        assert!(parse_batch_file("not json", &schema).is_err());
        assert!(parse_batch_file(r#"{"a": 1}"#, &schema).is_err()); // not an array
        assert!(parse_batch_file(r#"[1]"#, &schema).is_err()); // entry not an object
        assert!(parse_batch_file(r#"[{"offering": "huge"}]"#, &schema).is_err());
        assert!(parse_batch_file(r#"[{"profile": {"NotAFeature": "x"}}]"#, &schema).is_err());
        assert!(parse_batch_file(r#"[{"profile": {"SegmentName": 4}}]"#, &schema).is_err());
        assert!(parse_batch_file(r#"[{"customer": "not-a-number"}]"#, &schema).is_err());

        let specs = parse_batch_file(
            r#"[{"offering": "burstable", "profile": {"SegmentName": "s1"},
                 "customer": 7, "subscription": 8, "resource_group": 9}, {}]"#,
            &schema,
        )
        .unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].offering, ServerOffering::Burstable);
        assert_eq!(specs[0].profile[0].as_deref(), Some("s1"));
        assert_eq!(specs[0].path.customer, CustomerId(7));
        assert_eq!(specs[1].offering, ServerOffering::GeneralPurpose);
        assert_eq!(specs[1].profile, vec![None; schema.len()]);
        assert_eq!(specs[1].path.customer, CustomerId(0));
    }

    #[test]
    fn request_lines_parse_ids_and_deadlines() {
        let schema = lorentz_types::ProfileSchema::azure_postgres();
        let text = concat!(
            r#"{"id": 42, "deadline_ms": 250, "offering": "burstable"}"#,
            "\n",
            r#"{"profile": {"SegmentName": "s1"}}"#,
            "\n",
        );
        let lines = parse_serve_lines(text, "requests.ndjson", &schema).unwrap();
        assert_eq!(lines.len(), 2);
        let ServeLine::Request(first) = &lines[0] else {
            panic!("expected a request line");
        };
        assert_eq!(first.id, 42);
        assert_eq!(first.deadline, Some(Duration::from_millis(250)));
        assert_eq!(first.offering, ServerOffering::Burstable);
        let ServeLine::Request(second) = &lines[1] else {
            panic!("expected a request line");
        };
        assert_eq!(second.id, 1); // defaults to position
        assert_eq!(second.deadline, None);
        assert_eq!(second.profile[0].as_deref(), Some("s1"));

        let err = parse_serve_lines("{bad\n", "r.ndjson", &schema).unwrap_err();
        assert!(err.to_string().contains("r.ndjson:1"));
        assert!(parse_serve_lines(r#"{"id": "x"}"#, "r", &schema).is_err());
        assert!(parse_serve_lines(r#"{"customer": 5000000000}"#, "r", &schema).is_err());
    }

    #[test]
    fn feedback_lines_parse_signals_and_keep_request_positions() {
        let schema = lorentz_types::ProfileSchema::azure_postgres();
        let text = concat!(
            r#"{"profile": {"SegmentName": "s1"}}"#,
            "\n",
            r#"{"gamma": 1, "customer": 4, "subscription": 5, "resource_group": 6, "offering": "burstable"}"#,
            "\n",
            r#"{"profile": {"SegmentName": "s1"}}"#,
            "\n",
        );
        let lines = parse_serve_lines(text, "stream.ndjson", &schema).unwrap();
        assert_eq!(lines.len(), 3);
        let ServeLine::Feedback(signal) = &lines[1] else {
            panic!("expected a feedback line");
        };
        assert_eq!(signal.gamma, 1.0);
        assert_eq!(signal.path.customer, CustomerId(4));
        assert_eq!(signal.offering, ServerOffering::Burstable);
        // Request ids count requests only, not interleaved signals.
        let ServeLine::Request(last) = &lines[2] else {
            panic!("expected a request line");
        };
        assert_eq!(last.id, 1);

        // γ outside [-1, 1] and non-numeric γ are rejected with context.
        let err = parse_serve_lines(r#"{"gamma": 7}"#, "s", &schema).unwrap_err();
        assert!(err.to_string().contains("s:1"));
        assert!(parse_serve_lines(r#"{"gamma": "hot"}"#, "s", &schema).is_err());
    }

    #[test]
    fn a_deeply_nested_line_is_an_input_error_not_a_stack_overflow() {
        let schema = lorentz_types::ProfileSchema::azure_postgres();
        let text = "[".repeat(1_000_000);
        let err = parse_serve_lines(&text, "deep.ndjson", &schema).unwrap_err();
        assert!(
            matches!(&err, CliError::InvalidInput(msg) if msg.contains("deep.ndjson:1")),
            "{err}"
        );
    }

    #[test]
    fn feedback_command_and_wal_serve_round_trip() {
        let fleet_path = tmp("fb-fleet.json");
        let model_path = tmp("fb-model.json");
        let updated_path = tmp("fb-model-updated.json");
        let tickets_path = tmp("fb-tickets.ndjson");
        let stream_path = tmp("fb-stream.ndjson");
        let wal_path = tmp("fb-signals.wal");
        let _ = std::fs::remove_file(&wal_path);
        generate(&args(&[
            "generate",
            "--servers",
            "90",
            "--seed",
            "5",
            "--out",
            &fleet_path,
        ]))
        .unwrap();
        train(&args(&[
            "train",
            "--fleet",
            &fleet_path,
            "--out",
            &model_path,
            "--trees",
            "8",
            "--min-bucket",
            "3",
        ]))
        .unwrap();

        // Replaying tickets through the classifier raises λ for the
        // performance-sensitive path and leaves the neutral one alone.
        std::fs::write(
            &tickets_path,
            concat!(
                r#"{"symptoms": "high cpu usage all day", "resolution": "scaled up the server", "customer": 1, "subscription": 2, "resource_group": 3}"#,
                "\n",
                r#"{"subject": "login issue", "resolution": "reset password", "customer": 9}"#,
                "\n",
            ),
        )
        .unwrap();
        feedback(&args(&[
            "feedback",
            "--model",
            &model_path,
            "--tickets",
            &tickets_path,
            "--out",
            &updated_path,
        ]))
        .unwrap();
        let updated = load_model(&updated_path).unwrap();
        let hot = ResourcePath::new(CustomerId(1), SubscriptionId(2), ResourceGroupId(3));
        assert!(
            updated
                .personalizer()
                .lambda(&hot, ServerOffering::GeneralPurpose)
                > 0.0
        );

        // A serve stream with interleaved feedback appends to the WAL...
        std::fs::write(
            &stream_path,
            concat!(
                r#"{"id": 0, "profile": {"SegmentName": "segmentname-0"}, "customer": 1, "subscription": 2, "resource_group": 3}"#,
                "\n",
                r#"{"gamma": 1, "customer": 1, "subscription": 2, "resource_group": 3}"#,
                "\n",
                r#"{"gamma": 1, "customer": 1, "subscription": 2, "resource_group": 3}"#,
                "\n",
                r#"{"id": 1, "profile": {"SegmentName": "segmentname-0"}, "customer": 1, "subscription": 2, "resource_group": 3}"#,
                "\n",
            ),
        )
        .unwrap();
        serve(&args(&[
            "serve",
            "--model",
            &model_path,
            "--requests",
            &stream_path,
            "--workers",
            "2",
            "--feedback-wal",
            &wal_path,
        ]))
        .unwrap();
        // ...and a restart replays exactly the signals that were accepted,
        // each framed with the epoch-stamped λ delta it published.
        let (_, recovery) = lorentz_core::SignalWal::open(&wal_path).unwrap();
        assert_eq!(recovery.signals.len(), 2);
        assert_eq!(recovery.torn_tail_bytes, 0);
        assert!(recovery.signals.iter().all(|s| s.path == hot));
        assert_eq!(recovery.last_epoch, 3, "seed epoch 1 + two delta publishes");

        // wal-verify reports every record intact; a follower subscribes
        // over TCP only, so a WAL path as --follow is refused, naming the
        // endpoint form.
        wal_verify(&args(&["wal-verify", "--wal", &wal_path])).unwrap();
        assert!(wal_verify(&args(&["wal-verify"])).is_err()); // missing --wal
        for follow in [wal_path.clone(), format!("file:{wal_path}")] {
            let err = serve(&args(&[
                "serve",
                "--model",
                &model_path,
                "--requests",
                &stream_path,
                "--follow",
                &follow,
            ]))
            .unwrap_err();
            assert!(err.to_string().contains("tcp://HOST:PORT"), "{err}");
        }

        for p in [
            &fleet_path,
            &model_path,
            &updated_path,
            &tickets_path,
            &stream_path,
            &wal_path,
        ] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn recommend_rejects_bad_inputs() {
        assert!(recommend(&args(&["recommend"])).is_err()); // missing --model
        assert!(parse_offering("huge").is_err());
        assert!(parse_offering("burstable").is_ok());
        let schema = lorentz_types::ProfileSchema::azure_postgres();
        assert!(parse_profile("NotAFeature=x", &schema).is_err());
        assert!(parse_profile("garbage", &schema).is_err());
        let p = parse_profile("VerticalName=v1, SegmentName=s1", &schema).unwrap();
        assert_eq!(p[0], Some("s1"));
        assert_eq!(p[2], Some("v1"));
        assert_eq!(p[6], None);
        assert_eq!(parse_profile("", &schema).unwrap(), vec![None; 7]);
    }

    #[test]
    fn usage_errors_exit_2_runtime_errors_exit_1() {
        let missing_flag = recommend(&args(&["recommend"])).unwrap_err();
        assert_eq!(missing_flag.exit_code(), 2);
        let missing_file = load_fleet("/definitely/not/here.json").unwrap_err();
        assert_eq!(missing_file.exit_code(), 1);
        assert!(missing_file
            .to_string()
            .contains("/definitely/not/here.json"));
    }

    #[test]
    fn ticket_classifies_without_files() {
        ticket(&args(&["ticket", "--symptoms", "high cpu usage"])).unwrap();
        ticket(&args(&["ticket"])).unwrap();
    }
}
