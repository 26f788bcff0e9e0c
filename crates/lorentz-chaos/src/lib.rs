//! Seeded cluster chaos harness for the Lorentz serving stack.
//!
//! `lorentz chaos --seed N` spawns a **real** cluster out of the already-
//! built binaries — one leader (`serve --listen` with a feedback WAL and
//! a replication listener) and standbys (`serve --listen --follow` with
//! replica WALs and armed promotion) — drives feedback load over the production
//! wire protocol, injects a seeded fault schedule (kill -9, SIGSTOP, a
//! replication partition through a built-in TCP fault proxy, benign delay
//! windows), heals, and then checks cluster-wide invariants:
//!
//! 1. **At most one unfenced leader** answers a subscribe census, and it
//!    serves at the winner's term.
//! 2. **Terms strictly increase** across promotions, in every WAL.
//! 3. **Epoch monotonicity**: delta epochs in every WAL are strictly
//!    increasing and dense.
//! 4. **Replica-WAL prefix property**: everything the winner replicated
//!    before minting its term sits verbatim in the old leader's log, and
//!    caught-up losers hold byte-identical copies of the winner's log.
//! 5. **λ convergence**: every survivor ends at the same λ epoch.
//! 6. **Exact ledgers**: the fenced leader drains cleanly with a frozen
//!    WAL, and the isolated leader's divergent tail is exactly the
//!    feedback it acked while partitioned.
//! 7. **Failover keeps feedback open**: one feedback frame to each
//!    standby's client port is acked by exactly one — the winner — within
//!    1 s; every other standby answers `not_leader` or `fenced`.
//!
//! Every node serves clients on its own `--listen` port and is stopped
//! with a `{"op": "drain"}` frame, like any production server.
//!
//! Every random choice draws from one SplitMix64 stream seeded by
//! `--seed`, so any violation replays with the same command; the failing
//! seed and its full schedule are printed on the way out.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod invariants;
pub mod net;
pub mod proxy;
pub mod rng;
pub mod schedule;

use cluster::Node;
use invariants::{InvariantInput, NodeWal, OldLeaderOutcome, StandbyLedger};
use net::ProbeOutcome;
use proxy::FaultProxy;
use rng::SplitMix64;
use schedule::{Fault, Schedule};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use thiserror::Error;

/// Harness-level failures: the run could not be carried to the invariant
/// checks at all. Invariant *violations* are data (see
/// [`SeedReport::violations`]), not errors.
#[derive(Debug, Error)]
pub enum ChaosError {
    /// Spawning or signalling a cluster member failed.
    #[error("failed to launch {node}: {source}")]
    Spawn {
        /// Which node (or signal invocation).
        node: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// A filesystem step failed.
    #[error("{path}: {source}")]
    Io {
        /// The path involved.
        path: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// A harness-side network step failed.
    #[error("{0}")]
    Net(String),
    /// An expected event never happened.
    #[error("{0}")]
    Timeout(String),
    /// Building the shared model fixture failed.
    #[error("fixture: {0}")]
    Fixture(String),
}

/// Knobs for a chaos run. Everything else derives from the seed.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The `lorentz` binary to spawn cluster members from.
    pub binary: PathBuf,
    /// A pre-trained model to reuse (built once into the work dir when
    /// absent).
    pub model: Option<PathBuf>,
    /// Where per-seed scratch dirs live (a temp dir when absent).
    pub work_dir: Option<PathBuf>,
    /// Number of standbys racing for promotion.
    pub standbys: usize,
    /// Leader-loss detection timeout handed to the standbys.
    pub promote_after_ms: u64,
    /// Keep scratch dirs even on a passing run.
    pub keep_work_dir: bool,
}

impl ChaosConfig {
    /// Defaults around `binary`: two standbys, 400 ms promotion timeout.
    pub fn new(binary: impl Into<PathBuf>) -> Self {
        Self {
            binary: binary.into(),
            model: None,
            work_dir: None,
            standbys: 2,
            promote_after_ms: 400,
            keep_work_dir: false,
        }
    }
}

/// What one seed's run produced.
#[derive(Debug)]
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// The derived schedule (echoed for replay).
    pub schedule: Schedule,
    /// Feedback signals acked by the healthy leader before the fault.
    pub warmup_acked: u64,
    /// Feedback signals acked by the isolated leader during a partition.
    pub diverged_acked: u64,
    /// The promoted winner's term.
    pub winner_term: u64,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
    /// Where the seed's artifacts live (kept when violations are present
    /// or the config says keep).
    pub work_dir: PathBuf,
}

impl SeedReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Builds the shared model fixture at `path`: a small synthetic fleet
/// trained through the full pipeline, saved as the deployment every
/// cluster member loads.
pub fn build_fixture(path: &Path) -> Result<(), ChaosError> {
    use lorentz_core::{LorentzConfig, LorentzPipeline};
    let fleet_config = lorentz_simdata::fleet::FleetConfig {
        n_servers: 120,
        seed: 7,
        ..lorentz_simdata::fleet::FleetConfig::default()
    };
    let synthetic = fleet_config
        .generate()
        .map_err(|e| ChaosError::Fixture(e.to_string()))?;
    let mut config = LorentzConfig::paper_defaults();
    config.hierarchical.min_bucket = 3;
    config.target_encoding.boosting.n_trees = 8;
    let trained = LorentzPipeline::new(config)
        .and_then(|p| p.train(&synthetic.fleet))
        .map_err(|e| ChaosError::Fixture(e.to_string()))?;
    let json = trained
        .to_json()
        .map_err(|e| ChaosError::Fixture(e.to_string()))?;
    std::fs::write(path, json).map_err(|e| ChaosError::Io {
        path: path.display().to_string(),
        source: e,
    })
}

fn parse_addr(line: &str, what: &str) -> Result<SocketAddr, ChaosError> {
    line.split_whitespace()
        .nth(2)
        .and_then(|tok| tok.parse().ok())
        .ok_or_else(|| ChaosError::Timeout(format!("cannot parse {what} address from '{line}'")))
}

/// Picks a free TCP port for the shared promotion listen address. The
/// listener is dropped before the standbys race to rebind it — a benign
/// TOCTOU for a test harness.
fn free_port() -> Result<SocketAddr, ChaosError> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| ChaosError::Io {
        path: "127.0.0.1:0".to_owned(),
        source: e,
    })?;
    listener.local_addr().map_err(|e| ChaosError::Io {
        path: "promotion port".to_owned(),
        source: e,
    })
}

fn wal_max_epoch(path: &Path) -> u64 {
    lorentz_core::SignalWal::verify(path)
        .map(|r| {
            r.records
                .iter()
                .filter_map(|rec| rec.epoch)
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Polls `predicate` every 50 ms until it holds or `timeout` passes.
fn wait_until(
    what: &str,
    timeout: Duration,
    mut predicate: impl FnMut() -> bool,
) -> Result<(), ChaosError> {
    let deadline = Instant::now() + timeout;
    loop {
        if predicate() {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(ChaosError::Timeout(format!(
                "gave up waiting for {what} after {timeout:?}"
            )));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Runs one seed end to end: spawn, load, fault, heal, fence, check.
pub fn run_seed(seed: u64, config: &ChaosConfig) -> Result<SeedReport, ChaosError> {
    let schedule = Schedule::derive(seed);
    let mut rng = SplitMix64::new(seed ^ 0x000C_4A05_u64);
    let io_timeout = Duration::from_secs(5);
    let log = |msg: &str| eprintln!("chaos seed {seed}: {msg}");
    log(&format!("schedule: {schedule}"));

    // --- scratch dir + fixture -------------------------------------------
    let base = config.work_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("lorentz-chaos-{}", std::process::id()))
    });
    let dir = base.join(format!("seed-{seed}"));
    std::fs::create_dir_all(&dir).map_err(|e| ChaosError::Io {
        path: dir.display().to_string(),
        source: e,
    })?;
    let model = match &config.model {
        Some(path) => path.clone(),
        None => {
            let path = base.join("model.json");
            if !path.exists() {
                log("training the shared model fixture (reused across seeds)");
                build_fixture(&path)?;
            }
            path
        }
    };

    // --- leader ----------------------------------------------------------
    let leader_wal = dir.join("leader.wal");
    let mut leader = Node::spawn(
        "leader",
        &config.binary,
        &[
            "serve".into(),
            "--model".into(),
            model.display().to_string(),
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--feedback-wal".into(),
            leader_wal.display().to_string(),
            "--replicate-listen".into(),
            "tcp://127.0.0.1:0".into(),
        ],
    )?;
    let client_addr = parse_addr(
        &leader.wait_for_stderr("listening on ", io_timeout)?,
        "client",
    )?;
    let repl_addr = parse_addr(
        &leader.wait_for_stderr("replicating on ", io_timeout)?,
        "replication",
    )?;
    log(&format!(
        "leader up: clients {client_addr}, replication {repl_addr}"
    ));

    // --- fault proxy + standbys ------------------------------------------
    let proxy = FaultProxy::start(repl_addr).map_err(|e| ChaosError::Io {
        path: "fault proxy".to_owned(),
        source: e,
    })?;
    let promote_addr = free_port()?;
    let mut standbys = Vec::new();
    let mut standby_addrs = Vec::new();
    let mut standby_wal_paths = Vec::new();
    for i in 0..config.standbys {
        let name = format!("standby{i}");
        let wal = dir.join(format!("{name}.wal"));
        let node = Node::spawn(
            &name,
            &config.binary,
            &[
                "serve".into(),
                "--model".into(),
                model.display().to_string(),
                "--listen".into(),
                "127.0.0.1:0".into(),
                "--follow".into(),
                format!("tcp://{}", proxy.local_addr()),
                "--replica-wal".into(),
                wal.display().to_string(),
                "--promote-listen".into(),
                promote_addr.to_string(),
                "--promote-after-ms".into(),
                config.promote_after_ms.to_string(),
            ],
        )?;
        standby_addrs.push(parse_addr(
            &node.wait_for_stderr("listening on ", io_timeout)?,
            &name,
        )?);
        standby_wal_paths.push(wal);
        standbys.push(node);
    }
    log(&format!(
        "{} standbys following through the fault proxy at {}",
        standbys.len(),
        proxy.local_addr()
    ));

    // --- warmup load + replication barrier -------------------------------
    let (warmup_acked, warmup_errors) =
        net::drive_feedback(client_addr, schedule.warmup_signals, &mut rng, io_timeout);
    if warmup_acked != schedule.warmup_signals {
        return Err(ChaosError::Net(format!(
            "healthy leader acked only {warmup_acked}/{} warmup signals: {:?}",
            schedule.warmup_signals, warmup_errors
        )));
    }
    let mut total_acked = warmup_acked;

    // Benign delay window: replication jitter must not trip promotion.
    if let Some(ms) = schedule.delay_ms {
        proxy.delay(ms);
        let (acked, errors) = net::drive_feedback(client_addr, 2, &mut rng, io_timeout);
        if acked != 2 {
            return Err(ChaosError::Net(format!(
                "leader refused feedback during the delay window: {errors:?}"
            )));
        }
        total_acked += acked;
        proxy.heal();
    }
    // Barrier: every standby holds the leader's full log before the fault,
    // so post-fault invariants start from a known-replicated state.
    let leader_top = wal_max_epoch(&leader_wal);
    for wal in &standby_wal_paths {
        let wal = wal.clone();
        wait_until("pre-fault replication barrier", io_timeout, || {
            wal_max_epoch(&wal) >= leader_top
        })?;
    }
    log(&format!(
        "warmup done: {total_acked} signals acked, all standbys at epoch {leader_top}"
    ));

    // --- fault -----------------------------------------------------------
    let mut diverged_acked = 0;
    let fault_started = Instant::now();
    match &schedule.fault {
        Fault::Kill => {
            log("fault: kill -9 the leader");
            leader.kill9();
            proxy.blackhole();
        }
        Fault::Pause { pause_ms } => {
            log(&format!(
                "fault: SIGSTOP the leader for {pause_ms}ms + sever bridges"
            ));
            leader.signal("STOP")?;
            proxy.blackhole();
        }
        Fault::Partition {
            partition_ms,
            diverging_signals,
        } => {
            log(&format!(
                "fault: partition replication for {partition_ms}ms, {diverging_signals} \
                 diverging signals at the isolated leader"
            ));
            proxy.blackhole();
            let (acked, _) =
                net::drive_feedback(client_addr, *diverging_signals, &mut rng, io_timeout);
            diverged_acked = acked;
        }
    }

    // --- promotion -------------------------------------------------------
    let mut winner_term = 0;
    wait_until(
        "a standby to win the promotion race",
        Duration::from_secs(8),
        || match net::probe_subscribe(promote_addr, 0, 0, Duration::from_millis(500)) {
            ProbeOutcome::Ack { leader_term } => {
                winner_term = leader_term;
                true
            }
            _ => false,
        },
    )?;
    log(&format!("a standby promoted itself at term {winner_term}"));

    // --- heal ------------------------------------------------------------
    match &schedule.fault {
        Fault::Kill => {}
        Fault::Pause { pause_ms } => {
            let elapsed = fault_started.elapsed();
            let hold = Duration::from_millis(*pause_ms);
            if elapsed < hold {
                std::thread::sleep(hold - elapsed);
            }
            leader.signal("CONT")?;
            proxy.heal();
            log("heal: SIGCONT + bridges restored");
        }
        Fault::Partition { partition_ms, .. } => {
            let elapsed = fault_started.elapsed();
            let hold = Duration::from_millis(*partition_ms);
            if elapsed < hold {
                std::thread::sleep(hold - elapsed);
            }
            proxy.heal();
            log("heal: partition lifted");
        }
    }

    // --- fence the surviving old leader ----------------------------------
    let old_leader_outcome = if schedule.fault.leader_survives() {
        let fence = net::probe_subscribe(repl_addr, 0, winner_term, io_timeout);
        let fence_reply_stale = matches!(fence, ProbeOutcome::Stale { .. });
        let wal_size_at_fence = file_len(&leader_wal);
        let feedback_reply = net::probe_feedback(client_addr, &mut rng, io_timeout)
            .unwrap_or_else(|e| format!("probe failed: {e}"));
        Some((fence_reply_stale, wal_size_at_fence, feedback_reply))
    } else {
        None
    };

    // --- census: who still answers a subscribe, and at what term? --------
    let census = vec![
        (
            "old-leader".to_owned(),
            net::probe_subscribe(repl_addr, 0, 0, Duration::from_millis(800)),
        ),
        (
            "winner".to_owned(),
            net::probe_subscribe(promote_addr, 0, 0, Duration::from_millis(800)),
        ),
    ];

    // --- drain the fenced leader and let the losers settle ---------------
    let old_leader = match old_leader_outcome {
        Some((fence_reply_stale, wal_size_at_fence, feedback_reply)) => {
            net::drain(client_addr, io_timeout)?;
            let exit_code = leader.wait_exit(Duration::from_secs(10))?;
            let stderr_reported_fence = leader.find_stderr("FENCED by term").is_some();
            Some(OldLeaderOutcome {
                fence_reply_stale,
                feedback_reply,
                wal_size_at_fence,
                wal_size_final: file_len(&leader_wal),
                stderr_reported_fence,
                exit_code,
                diverged_acked,
            })
        }
        None => None,
    };

    // --- failover: feedback reaches exactly one standby's client port ----
    let failover_feedback: Vec<(String, String)> = standby_addrs
        .iter()
        .enumerate()
        .map(|(i, &addr)| {
            let reply = net::probe_feedback(addr, &mut rng, Duration::from_secs(1))
                .unwrap_or_else(|e| format!("probe failed: {e}"));
            (format!("standby{i}"), reply)
        })
        .collect();

    // Settle: caught-up losers hold byte-identical copies of the winner's
    // WAL, the signal it just acked included. We cannot know which standby
    // won until the ledgers print, so wait for every pair to converge.
    let settle = Duration::from_secs(5);
    for wal in &standby_wal_paths {
        let reference = standby_wal_paths[0].clone();
        let wal = wal.clone();
        wait_until("loser WALs to converge on the winner's", settle, || {
            std::fs::read(&reference).ok() == std::fs::read(&wal).ok()
        })?;
    }

    // --- drain the standbys and collect ledgers and artifacts ------------
    let mut ledgers = Vec::new();
    for (node, &addr) in standbys.iter_mut().zip(&standby_addrs) {
        net::drain(addr, io_timeout)?;
        let code = node.wait_exit(Duration::from_secs(10))?;
        if code != Some(0) {
            return Err(ChaosError::Timeout(format!(
                "{} exited {:?}; stderr:\n{}",
                node.name,
                code,
                node.stderr().join("\n")
            )));
        }
        ledgers.push(StandbyLedger::parse(&node.name, &node.stderr())?);
    }
    let leader_node_wal = NodeWal::load("leader", &leader_wal)?;
    let standby_wals = standby_wal_paths
        .iter()
        .enumerate()
        .map(|(i, path)| NodeWal::load(&format!("standby{i}"), path))
        .collect::<Result<Vec<_>, _>>()?;

    let violations = invariants::check(&InvariantInput {
        schedule: &schedule,
        leader_wal: &leader_node_wal,
        standby_wals: &standby_wals,
        ledgers: &ledgers,
        winner_term,
        census: &census,
        old_leader: old_leader.as_ref(),
        failover_feedback: &failover_feedback,
    });

    if violations.is_empty() && !config.keep_work_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(SeedReport {
        seed,
        schedule,
        warmup_acked: total_acked,
        diverged_acked,
        winner_term,
        violations,
        work_dir: dir,
    })
}
