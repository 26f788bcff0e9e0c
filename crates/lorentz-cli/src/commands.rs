//! CLI subcommand implementations.

use crate::args::Args;
use crate::error::CliError;
use lorentz_core::personalizer::signals::{classify_ticket, CriTicket};
use lorentz_core::provisioner::{OfferingRecommender, OfferingRecommenderConfig};
use lorentz_core::retry::RetryPolicy;
use lorentz_core::store::atomic_write;
use lorentz_core::{
    DurableStore, FleetDataset, LorentzConfig, LorentzPipeline, ModelKind, RecommendRequest,
    Rightsizer, TrainedLorentz,
};
use lorentz_serve::{
    serve_net, serve_replication, FollowerConfig, FollowerEngine, NetConfig, NetReport,
    PromoteConfig, ReplicaState, ReplicationConfig, ServeConfig, ServingEngine,
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
  lorentz serve     --model model.json --listen ADDR [--shards N] [--deadline-ms N]
                    [--kind hierarchical|target-encoding] [--feedback-wal wal.log]
                    [--replicate-listen tcp://HOST:PORT] [--workers N]
                    [--max-frame-len BYTES] [--json] [--metrics-out metrics.json]
                    (leader: binds ADDR — port 0 picks a free port, printed as
                     'listening on <addr>' on stderr — and serves persistent connections
                     speaking length-prefixed JSON frames (u32 big-endian byte length,
                     then that many bytes of JSON): a request object with the fields
                     of a --batch entry plus optional \"id\" and \"deadline_ms\"; an
                     object carrying a \"gamma\" in [-1, 1] and the path ids is a
                     satisfaction signal that updates the live λ-table before the
                     connection's next frame; {\"op\": \"ping\"} probes and
                     {\"op\": \"drain\"} stops. Each connection's thread answers its
                     requests itself, in order, so they are never queued, rejected as
                     saturated or degraded; --workers is accepted but sizes a worker
                     pool no CLI path starts. --feedback-wal makes signals durable,
                     frames each with its published λ delta, and replays them on
                     startup; --shards splits the store and λ-state into N
                     power-of-two shards so every λ publish touches one shard (a store
                     publish swaps the whole store in one step); the post-drain ledger
                     and net accounting go to stderr (with --json also the report on
                     stdout), and --metrics-out snapshots after the drain;
                     --replicate-listen additionally binds a replication listener that
                     streams the feedback WAL to tcp:// followers, resuming each from
                     its last applied epoch — requires --feedback-wal)
  lorentz serve     --model model.json --listen ADDR --follow tcp://HOST:PORT
                    [--kind hierarchical|target-encoding] [--shards N] [--deadline-ms N]
                    [--replica-wal wal.log] [--promote-listen ADDR] [--promote-after-ms N]
                    [--max-frame-len BYTES] [--json] [--metrics-out metrics.json]
                    (standby: subscribes to a leader's --replicate-listen — over
                     loopback, tcp://127.0.0.1:PORT, on the leader's machine —,
                     catches up on its stream and applies its λ deltas, then serves
                     clients on ADDR with the same frames, drain and post-drain
                     ledger as a leader, plus a 'followed …' replication line; reads
                     answer from the replicated epochs and feedback is refused with
                     kind not_leader, only the leader mints epochs. --replica-wal
                     persists received frames byte-identical to the leader's log
                     before applying them, so a restart resumes from the last epoch,
                     and --promote-listen arms promotion: after the leader stays
                     unreachable for --promote-after-ms (default 1000), the standby
                     that binds ADDR first becomes the leader on its replica WAL,
                     keeping its --shards and the λ it replicated, and the same
                     client port acks feedback. Each role refuses the other's flags:
                     a standby --feedback-wal and --replicate-listen, a leader
                     --replica-wal, --promote-listen and --promote-after-ms)
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
                    [--promote-after-ms MS] [--work-dir DIR]
                    [--keep-dirs]
                    (seeded cluster chaos: spawns a real leader + standbys from this
                     binary, drives feedback load, injects the seed's fault schedule —
                     kill -9, SIGSTOP, or a replication partition through a built-in
                     TCP fault proxy — heals, fences the old leader, and checks the
                     split-brain invariants: at most one unfenced leader, strictly
                     increasing terms, dense epochs, replica-WAL prefix property,
                     λ convergence, exact ledgers, and exactly one standby client
                     port acking feedback. --seeds K runs seeds N..N+K-1
                     against one shared model fixture; any violation prints the seed
                     and schedule for one-command replay and exits nonzero)
  lorentz help
";

/// A subcommand: its body, then the `--key value` flags and the bare
/// switches it reads, each space-separated.
pub type Command = (
    fn(&Args) -> Result<(), CliError>,
    &'static str,
    &'static str,
);

/// The subcommand called `name`. Any flag or switch it does not declare
/// is a usage error.
pub fn lookup(name: &str) -> Option<Command> {
    Some(match name {
        "generate" => (generate, "out servers seed base-demand duration-hours", ""),
        "rightsize" => (rightsize, "fleet", ""),
        "train" => (
            train,
            "fleet out trees min-bucket stage1-threads stage2-threads store-dir metrics-out",
            "",
        ),
        "store-verify" => (store_verify, "store-dir", ""),
        "recommend" => (
            recommend,
            "model batch offering profile customer subscription resource-group source metrics-out",
            "json",
        ),
        "serve" => (
            serve,
            concat!(
                "model kind workers deadline-ms shards listen max-frame-len ",
                "replicate-listen feedback-wal follow replica-wal promote-listen ",
                "promote-after-ms metrics-out"
            ),
            "json",
        ),
        "wal-verify" => (wal_verify, "wal", ""),
        "feedback" => (feedback, "model tickets out", ""),
        "offering" => (offering, "fleet profile", ""),
        "report" => (report, "fleet", ""),
        "ticket" => (ticket, "symptoms subject resolution", ""),
        "persim" => (persim, "iters signal-rate signal-noise sigma seed", ""),
        "chaos" => (
            chaos,
            "seed seeds model work-dir standbys promote-after-ms",
            "keep-dirs",
        ),
        _ => return None,
    })
}

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

/// One owned request parsed from a `--batch` file entry or a
/// `feedback --tickets` line.
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
/// ids default to 0. Shared between `--batch` entries and `feedback`
/// ticket lines.
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

/// The `serve` flags only a leader reads.
const LEADER_FLAGS: &[&str] = &["feedback-wal", "replicate-listen"];
/// The `serve` flags only a standby (`--follow`) reads.
const STANDBY_FLAGS: &[&str] = &["replica-wal", "promote-listen", "promote-after-ms"];

/// `lorentz serve`: put the TCP front end on the engine — a leader's, or
/// with `--follow` a standby's. Binds `--listen`, prints
/// `listening on <addr>` to stderr (port 0 resolves to the kernel-assigned
/// port, so harnesses can parse it), and serves persistent connections
/// speaking the length-prefixed JSON frame protocol until a client sends
/// `{"op": "drain"}`. The post-drain ledger and per-connection accounting
/// go to stderr (a standby adds its `followed …` replication line);
/// `--json` additionally prints the report as JSON on stdout. A flag of
/// the other role is a usage error, refused before the model loads.
pub fn serve(args: &Args) -> Result<(), CliError> {
    let addr = args.require("listen")?;
    let follow = args.get("follow");
    let (foreign, why) = match follow {
        Some(_) => (LEADER_FLAGS, "is a leader's and not read with --follow"),
        None => (STANDBY_FLAGS, "is a standby's and read only with --follow"),
    };
    if let Some(flag) = foreign.iter().find(|flag| args.get(flag).is_some()) {
        return Err(CliError::Usage(format!("flag --{flag} {why}")));
    }
    let follow = follow.map(Endpoint::parse).transpose()?;
    let deployment = Arc::new(load_model(args.require("model")?)?);
    let kind = match args.get_or("kind", "hierarchical") {
        "hierarchical" => ModelKind::Hierarchical,
        "target-encoding" => ModelKind::TargetEncoding,
        other => return Err(CliError::Usage(format!("unknown model kind '{other}'"))),
    };
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: args.get_parse_or("workers", defaults.workers)?,
        default_deadline: parse_opt_flag::<u64>(args, "deadline-ms")?.map(Duration::from_millis),
        kind,
        shards: args.get_parse_or("shards", defaults.shards)?,
        ..defaults
    };
    let listener = std::net::TcpListener::bind(addr).map_err(|e| CliError::io(addr, e))?;
    let local = listener.local_addr().map_err(|e| CliError::io(addr, e))?;
    let net_config = NetConfig {
        max_frame_len: args.get_parse_or("max-frame-len", NetConfig::default().max_frame_len)?,
    };
    if let Some(endpoint) = follow {
        let follower = start_follower(args, deployment, config, &endpoint)?;
        eprintln!("listening on {local} ({} shards)", config.shards);
        let report = serve_net(follower.engine(), listener, net_config)
            .map_err(|e| CliError::io(addr, e))?;
        // Stop tailing first, so the λ epoch printed below is final.
        let stats = follower.stop();
        print_net_report(args, &report)?;
        let engine = follower.engine();
        let state = match follower.state() {
            ReplicaState::Following => "following".to_owned(),
            ReplicaState::Leader => "leader".to_owned(),
            ReplicaState::Halted(why) => format!("halted: {why}"),
            ReplicaState::Demoted { term, observed } => {
                format!("demoted (term {term} fenced by term {observed})")
            }
        };
        eprintln!(
            "followed {endpoint}: {} deltas applied (lambda v{}, last epoch {}); \
             state {state}, term {}, {} duplicates",
            stats.applied,
            engine.lambda_version(),
            stats.last_epoch,
            engine.leader_term(),
            stats.duplicates
        );
        // The engine drains with the follower, before the metrics
        // snapshot, as a leader's does.
        drop(follower);
        return write_metrics(args);
    }
    // Connections answer reads on their own threads. The response channel
    // feeds only the worker pool, which no TCP read starts.
    let (engine, _) = match args.get("feedback-wal") {
        Some(wal_path) => ServingEngine::start_with_wal(Arc::clone(&deployment), config, wal_path)?,
        None => ServingEngine::start(Arc::clone(&deployment), config)?,
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
    let report = serve_net(&engine, listener, net_config).map_err(|e| CliError::io(addr, e))?;
    engine.drain();
    print_net_report(args, &report)?;
    write_metrics(args)
}

/// Starts a standby subscribed to a leader's `tcp://HOST:PORT` replication
/// listener. It catches up on the leader's stream before returning (so the
/// first answer already reflects every durable signal) and then applies λ
/// deltas as they arrive. `--replica-wal` persists the stream and
/// `--promote-listen` arms promotion on it.
fn start_follower(
    args: &Args,
    deployment: Arc<TrainedLorentz>,
    serve: ServeConfig,
    endpoint: &Endpoint,
) -> Result<FollowerEngine, CliError> {
    let mut config = FollowerConfig {
        serve,
        local_wal: args.get("replica-wal").map(Into::into),
        promote: None,
    };
    if let Some(listen) = args.get("promote-listen") {
        if config.local_wal.is_none() {
            return Err(CliError::Usage(
                "--promote-listen requires --replica-wal (the promoted leader leads on it)"
                    .to_owned(),
            ));
        }
        config.promote = Some(PromoteConfig {
            listen: Some(listen.to_owned()),
            detection_timeout: Duration::from_millis(args.get_parse_or("promote-after-ms", 1000)?),
        });
    }
    let follower = FollowerEngine::start_tcp(deployment, endpoint.as_tcp(), config)?;
    // Catch-up is complete: harnesses sequencing a leader kill can wait
    // for this line.
    eprintln!(
        "following {endpoint} (caught up to epoch {})",
        follower.stats().last_epoch
    );
    Ok(follower)
}

/// Prints a drained TCP front end's engine ledger, net accounting and
/// term to stderr, and with `--json` the same report as JSON on stdout.
fn print_net_report(args: &Args, report: &NetReport) -> Result<(), CliError> {
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
        let mut fields: Vec<(String, serde::Value)> = [
            ("submitted", stats.submitted),
            ("accepted", stats.accepted),
            ("answered", stats.answered),
            ("rejected", stats.rejected),
            ("timed_out", stats.timed_out),
            ("degraded", stats.degraded),
            ("feedback_applied", stats.feedback_applied),
            ("store_version", report.store_version),
            ("lambda_version", report.lambda_version),
            ("connections", report.connections),
            ("frames_in", report.frames_in),
            ("frames_out", report.frames_out),
            ("frame_errors", report.frame_errors),
            ("disconnects", report.disconnects),
            ("dropped_responses", report.dropped_responses),
            ("leader_term", report.leader_term),
        ]
        .into_iter()
        .map(|(key, n)| (key.to_owned(), serde::Value::UInt(n)))
        .collect();
        fields.push((
            "fenced".to_owned(),
            serde::Value::Bool(report.fenced_by.is_some()),
        ));
        if let Some(observed) = report.fenced_by {
            fields.push(("fenced_by".to_owned(), serde::Value::UInt(observed)));
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&serde::Value::Map(fields))?
        );
    }
    Ok(())
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

/// Parses a `--tickets` file: one JSON object per line (blank lines
/// ignored), each the fields of a `--batch` entry plus the ticket's
/// `symptoms`, `subject` and `resolution` strings. Returns each ticket with
/// its `file:line` label; an error names the line.
fn parse_tickets(
    text: &str,
    path: &str,
    schema: &lorentz_types::ProfileSchema,
) -> Result<Vec<(String, RequestSpec, CriTicket)>, CliError> {
    let mut tickets = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let label = format!("{path}:{}", lineno + 1);
        let value =
            serde_json::parse(line).map_err(|e| CliError::InvalidInput(format!("{label}: {e}")))?;
        let spec = parse_request_value(&value, schema, &label)?;
        let text_field = |field: &str| -> Result<String, CliError> {
            match value.get_field(field) {
                None => Ok(String::new()),
                Some(v) => v.as_str().map(ToOwned::to_owned).ok_or_else(|| {
                    CliError::InvalidInput(format!("{label}: {field} must be a string"))
                }),
            }
        };
        let ticket = CriTicket::new(
            text_field("symptoms")?,
            text_field("subject")?,
            text_field("resolution")?,
        );
        tickets.push((label, spec, ticket));
    }
    Ok(tickets)
}

/// `lorentz feedback`: replay a file of CRI ticket lines through the
/// Table-1 keyword classifier into a saved deployment's personalizer, and
/// optionally save the updated model.
pub fn feedback(args: &Args) -> Result<(), CliError> {
    let mut trained = load_model(args.require("model")?)?;
    let tickets_path = args.require("tickets")?;
    let text = fs::read_to_string(tickets_path).map_err(|e| CliError::io(tickets_path, e))?;
    let tickets = parse_tickets(&text, tickets_path, trained.profiles().schema())?;
    let (mut positive, mut negative, mut neutral) = (0u64, 0u64, 0u64);
    for (label, spec, ticket) in tickets {
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
    config.promote_after_ms = args.get_parse_or("promote-after-ms", config.promote_after_ms)?;
    config.keep_work_dir = args.has_switch("keep-dirs");
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
    fn a_deeply_nested_line_is_an_input_error_not_a_stack_overflow() {
        let schema = lorentz_types::ProfileSchema::azure_postgres();
        let text = "[".repeat(1_000_000);
        let err = parse_tickets(&text, "deep.ndjson", &schema)
            .err()
            .expect("a line nested past the reader's depth limit is refused");
        assert!(
            matches!(&err, CliError::InvalidInput(msg) if msg.contains("deep.ndjson:1")),
            "{err}"
        );
    }

    #[test]
    fn feedback_command_replays_tickets_into_lambda() {
        let fleet_path = tmp("fb-fleet.json");
        let model_path = tmp("fb-model.json");
        let updated_path = tmp("fb-model-updated.json");
        let tickets_path = tmp("fb-tickets.ndjson");
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

        for p in [&fleet_path, &model_path, &updated_path, &tickets_path] {
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
        assert_eq!(
            wal_verify(&args(&["wal-verify"])).unwrap_err().exit_code(),
            2
        );
        // A follower subscribes over TCP only, so a WAL path as --follow
        // is refused, naming the endpoint form, before any model loads.
        for follow in ["signals.wal", "file:signals.wal"] {
            let err = serve(&args(&[
                "serve",
                "--model",
                "/definitely/not/here.json",
                "--listen",
                "127.0.0.1:0",
                "--follow",
                follow,
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 1, "{err}");
            assert!(err.to_string().contains("tcp://HOST:PORT"), "{err}");
        }
    }

    #[test]
    fn every_flag_a_command_reads_is_declared() {
        // The flags the harnesses pass: sysbench's serve, generate and
        // train children, the chaos harness's leader and standbys, and CI.
        for line in [
            "serve --model m --listen a --shards 8 --workers 2 --json --metrics-out x \
             --feedback-wal w --replicate-listen r --max-frame-len 9 --deadline-ms 1 --kind k",
            "serve --model m --listen a --follow f --replica-wal w --promote-listen p \
             --promote-after-ms 1 --shards 2 --json --metrics-out x",
            "generate --servers 1 --seed 1 --out o",
            "train --fleet f --out o --trees 1 --min-bucket 1 --stage2-threads 2 \
             --metrics-out x --store-dir d",
            "chaos --seed 1 --keep-dirs --work-dir d",
            "recommend --model m --batch b --json --source store",
            "ticket --symptoms s --subject s --resolution r",
        ] {
            let parsed = args(&line.split_whitespace().collect::<Vec<_>>());
            let (_, flags, switches) = lookup(parsed.command.as_deref().unwrap()).unwrap();
            parsed
                .check_known(flags, switches)
                .unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn ticket_classifies_without_files() {
        ticket(&args(&["ticket", "--symptoms", "high cpu usage"])).unwrap();
        ticket(&args(&["ticket"])).unwrap();
    }
}
