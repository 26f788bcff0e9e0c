//! The replication follower: TCP-fed read replica, with promotion.
//!
//! A leader running [`ServingEngine::start_with_wal`](crate::ServingEngine)
//! frames every accepted satisfaction signal together with the
//! epoch-stamped λ delta it published. [`FollowerEngine`] consumes that
//! stream through a [`ReplicationSource`] — in deployment a [`TcpSource`]
//! subscribed to the leader's replication listener (over loopback for a
//! standby on the leader's machine) — and applies the deltas to its own
//! [`LambdaStore`]: no propagation re-run, no full-table transfer, so the
//! replica converges to the leader's published λ bit-for-bit.
//!
//! While following, the replica is **read-only by construction**: only
//! the leader mints epochs; the follower replays them. Startup is
//! catch-up-then-serve: the constructors drain the source to its current
//! end before returning, so the first recommendation already reflects
//! every durable signal.
//!
//! A follower configured with [`FollowerConfig::local_wal`] persists each
//! received frame verbatim (the frames are byte-identical to the leader's
//! log, CRC and all) *before* applying it, so a restarted follower replays
//! its local log and resumes the subscription *from its last epoch*
//! instead of re-reading the leader's entire WAL. A leader that has
//! compacted past that epoch answers the handshake with full-resync; the
//! follower then truncates its local log, resets its λ-state, and applies
//! the fresh stream. A local WAL that cannot be written is fail-stop: the
//! follower applies nothing more and halts ([`ReplicaState::Halted`]),
//! still serving the last epoch that is both applied and persisted.
//!
//! **Promotion**: with [`FollowerConfig::promote`] set, a follower that
//! loses its leader for longer than
//! [`PromoteConfig::detection_timeout`] promotes itself — it finishes
//! applying whatever was buffered, opens its local WAL as a real
//! [`ServingEngine`](crate::ServingEngine) (replaying it, so the promoted
//! λ equals the replicated λ), starts its own replication listener, and
//! flips to [`ReplicaState::Leader`]: recommendations keep flowing and
//! [`FollowerEngine::submit_feedback`] starts accepting. When several
//! standbys race, the OS arbitrates exactly-once promotion through
//! [`PromoteConfig::listen`]: binding the address is the election, and
//! the losers re-subscribe to the winner as their new upstream.
//!
//! **Term fencing**: promotion mints a leader term strictly above every
//! term the follower recovered or observed, so when a partition heals the
//! cluster can tell the real leader from the zombie. A replica whose
//! subscription is refused with `stale_leader` treats its upstream as
//! lost (the upstream is the zombie — the replica promotes past it or
//! finds the winner); a *promoted* replica whose own engine gets fenced
//! (a higher-term subscriber reached its listener) demotes itself: the
//! tail thread — which stays alive after promotion precisely as this
//! watchdog — flips the state to [`ReplicaState::Demoted`], shuts the
//! listener down, and feedback is refused with
//! [`ServeError::Fenced`](crate::ServeError) while reads keep working.

use crate::engine::ServingEngine;
use crate::replication::{
    serve_replication, ReplicationConfig, ReplicationError, ReplicationListener, ReplicationSource,
    SourcePoll, SourcedEntry, TcpSource,
};
use crate::types::{EngineError, ServeConfig, ServeError, ServeRequest, ServeResponse};
use lorentz_core::obs;
use lorentz_core::personalizer::{wal, LambdaSnapshot, LambdaStore, PollBackoff, WalEntry};
use lorentz_core::{
    ModelKind, RecommendEngine, RecommendRequest, Recommendation, SatisfactionSignal, SignalWal,
    StoreError, TrainedLorentz,
};
use lorentz_types::{DeltaCorruption, HandshakeRejection};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a follower does when its leader stops answering.
#[derive(Debug, Clone)]
pub struct PromoteConfig {
    /// The WAL the promoted leader opens and replays — normally the same
    /// path as [`FollowerConfig::local_wal`], which holds every frame the
    /// follower durably replicated.
    pub wal_path: PathBuf,
    /// Replication listen address (`host:port`) the promoted leader
    /// binds. Binding doubles as the election: when several standbys race,
    /// exactly one bind succeeds (`AddrInUse` means "lost; re-subscribe
    /// to the winner here"). `None` promotes unconditionally without a
    /// listener — single-standby deployments only.
    pub listen: Option<String>,
    /// Engine configuration for the promoted leader.
    pub serve: ServeConfig,
    /// Listener tuning for the promoted leader's own followers.
    pub replication: ReplicationConfig,
    /// How long the leader must stay unreachable before promotion starts.
    pub detection_timeout: Duration,
}

impl PromoteConfig {
    /// Promotion over `wal_path` with defaults: no listener, default
    /// engine config, one-second detection timeout.
    pub fn new(wal_path: impl Into<PathBuf>) -> Self {
        Self {
            wal_path: wal_path.into(),
            listen: None,
            serve: ServeConfig::default(),
            replication: ReplicationConfig::default(),
            detection_timeout: Duration::from_secs(1),
        }
    }
}

/// How the follower tails its leader.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// Base sleep between polls once the stream is drained; consecutive
    /// idle polls back off exponentially up to `idle_backoff_cap`.
    pub poll_interval: Duration,
    /// Ceiling for the idle backoff.
    pub idle_backoff_cap: Duration,
    /// The live Stage-2 model recommendations are served with.
    pub kind: ModelKind,
    /// Where the follower persists received frames (byte-identical to
    /// the leader's log) before applying them, enabling resume-from-epoch
    /// after a restart and WAL replay on promotion.
    pub local_wal: Option<PathBuf>,
    /// Self-promotion on leader loss; `None` (the default) keeps the
    /// replica a follower forever.
    pub promote: Option<PromoteConfig>,
}

impl Default for FollowerConfig {
    /// 20 ms base poll backing off to ~200 ms, hierarchical live model,
    /// no local WAL, no promotion.
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(20),
            idle_backoff_cap: PollBackoff::DEFAULT_CAP,
            kind: ModelKind::Hierarchical,
            local_wal: None,
            promote: None,
        }
    }
}

/// The follower's replication ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FollowerStats {
    /// Delta records applied to the local λ store.
    pub applied: u64,
    /// Records skipped because applying them failed for a reason other
    /// than a stale epoch.
    pub skipped: u64,
    /// Re-delivered records whose epoch the local store had already
    /// passed — resume overlap after a reconnect. Applying is idempotent:
    /// each is dropped without touching λ.
    pub duplicates: u64,
    /// The highest epoch seen in the stream so far.
    pub last_epoch: u64,
    /// The highest leader term seen in the stream so far (0 until the
    /// first term marker arrives).
    pub leader_term: u64,
    /// Full resyncs performed (λ-state discarded and rebuilt from the
    /// leader's log start).
    pub full_resyncs: u64,
}

/// Where the replica is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaState {
    /// Tailing a leader; read-only.
    Following,
    /// Promoted: serving as a leader with its own WAL (and, when
    /// configured, its own replication listener). Feedback is accepted.
    Leader,
    /// Tailing stopped and operator intervention is required: the
    /// subscription was refused with a typed error (e.g. `follower_ahead`),
    /// or the local replica WAL could not be written (nothing past the last
    /// persisted frame is applied).
    Halted(String),
    /// Promoted, then superseded: a leader at a strictly higher term was
    /// observed and this replica fenced itself. Reads keep answering from
    /// the λ-state at the moment of demotion; feedback is refused with
    /// [`ServeError::Fenced`](crate::ServeError); the local WAL is frozen
    /// (no divergence past the fence point).
    Demoted {
        /// The term this replica held as a leader.
        term: u64,
        /// The higher term that superseded it.
        observed: u64,
    },
}

/// The promoted leader's moving parts, swapped in by the tail thread.
struct PromotedLeader {
    engine: ServingEngine,
    /// The promoted engine's response channel. The follower serves
    /// recommendations synchronously off the engine's λ-state, so worker
    /// responses are not routed; the receiver is kept so sends never
    /// error.
    _responses: Receiver<ServeResponse>,
    /// The promoted leader's own replication listener, when it bound one.
    listener: Option<ReplicationListener>,
}

/// State shared between the tail thread and the serving side.
struct FollowerShared {
    deployment: Arc<TrainedLorentz>,
    /// The replicated λ-state. Behind an `RwLock` only for full resync,
    /// which swaps in a fresh store; applies and reads go through the
    /// store's own interior mutability under the read lock.
    lambdas: RwLock<LambdaStore>,
    config: FollowerConfig,
    stop: AtomicBool,
    stats: Mutex<FollowerStats>,
    state: Mutex<ReplicaState>,
    promoted: Mutex<Option<PromotedLeader>>,
}

/// A read replica that follows a leader's λ-WAL over TCP and serves
/// recommendations from the replicated epochs;
/// optionally promotes itself to a serving leader when the leader dies.
/// See the module docs for the replication and promotion contracts.
pub struct FollowerEngine {
    shared: Arc<FollowerShared>,
    tailer: Mutex<Option<JoinHandle<()>>>,
}

impl FollowerEngine {
    /// Starts a follower subscribed to a leader's replication listener at
    /// `addr` (`host:port`), catching up to the leader's current epoch
    /// before returning. When the config carries a
    /// [`FollowerConfig::local_wal`], records already persisted there are
    /// replayed first and the subscription resumes from their last epoch —
    /// the leader streams only the tail.
    ///
    /// # Errors
    /// [`EngineError::Replication`] when the connect or handshake fails
    /// (including the typed `follower_ahead` rejection);
    /// [`EngineError::Wal`] when the local WAL cannot be opened, read or
    /// appended to during catch-up; [`EngineError::SpawnFailed`] when the
    /// OS refuses the tail thread.
    pub fn start_tcp(
        deployment: Arc<TrainedLorentz>,
        addr: &str,
        config: FollowerConfig,
    ) -> Result<Self, EngineError> {
        let shared = Self::make_shared(deployment, config);
        let local_wal = open_local_wal(&shared)?;
        if let Some(path) = &shared.config.local_wal {
            // Opening truncated a torn tail from a crashed run, so this
            // pass reads a clean log.
            let bytes = std::fs::read(path).map_err(|source| StoreError::Io {
                path: path.display().to_string(),
                source,
            })?;
            apply_sourced(&shared, local_entries(&bytes), None)?;
        }
        let (last_epoch, observed_term) = {
            let stats = shared.stats.lock().expect("follower stats poisoned");
            (stats.last_epoch, stats.leader_term)
        };
        // Declare every term recovered from the local WAL in the
        // handshake: reconnecting to a leader at a lower term fences that
        // leader instead of silently resubscribing to a stale lineage.
        let source = TcpSource::connect_with_term(addr, last_epoch, observed_term)
            .map_err(EngineError::Replication)?;
        Self::finish_start(shared, Box::new(source), local_wal)
    }

    /// Starts a follower over an arbitrary [`ReplicationSource`] — the
    /// seam the transport-specific constructors share, public so tests
    /// and embedders can inject sources.
    ///
    /// # Errors
    /// [`EngineError::Replication`] when the source rejects the
    /// subscription during catch-up; [`EngineError::Wal`] when the local
    /// WAL cannot be opened or written during catch-up;
    /// [`EngineError::SpawnFailed`] when the OS refuses the tail thread.
    pub fn start_with_source(
        deployment: Arc<TrainedLorentz>,
        source: Box<dyn ReplicationSource>,
        config: FollowerConfig,
    ) -> Result<Self, EngineError> {
        let shared = Self::make_shared(deployment, config);
        let local_wal = open_local_wal(&shared)?;
        Self::finish_start(shared, source, local_wal)
    }

    fn make_shared(deployment: Arc<TrainedLorentz>, config: FollowerConfig) -> Arc<FollowerShared> {
        let lambdas = RwLock::new(LambdaStore::new(deployment.personalizer().clone()));
        Arc::new(FollowerShared {
            deployment,
            lambdas,
            config,
            stop: AtomicBool::new(false),
            stats: Mutex::new(FollowerStats::default()),
            state: Mutex::new(ReplicaState::Following),
            promoted: Mutex::new(None),
        })
    }

    /// Catch-up-then-serve: drain the source to its current end, then tail
    /// it on a background thread.
    fn finish_start(
        shared: Arc<FollowerShared>,
        mut source: Box<dyn ReplicationSource>,
        mut local_wal: Option<ReplicaWal>,
    ) -> Result<Self, EngineError> {
        loop {
            match source.poll() {
                SourcePoll::Entries(batch) => apply_sourced(&shared, batch, local_wal.as_mut())?,
                SourcePoll::Reset => full_resync(&shared, local_wal.as_mut())?,
                SourcePoll::Rejected(rejection) => {
                    return Err(EngineError::Replication(ReplicationError::Rejected(
                        rejection,
                    )));
                }
                // A leader lost during catch-up is the tail loop's problem
                // (it retries and may promote); serve what we have.
                SourcePoll::Idle | SourcePoll::LeaderLost(_) => break,
            }
        }
        let handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lorentz-follow".to_string())
                .spawn(move || tail_loop(&shared, source, local_wal))
                .map_err(|source| EngineError::SpawnFailed {
                    name: "lorentz-follow".to_string(),
                    source,
                })?
        };
        Ok(Self {
            shared,
            tailer: Mutex::new(Some(handle)),
        })
    }

    /// Serves one recommendation from the replicated state (or, after
    /// promotion, from the promoted leader's live λ), pinning one λ epoch
    /// for the whole request — a delta applied mid-serve changes later
    /// requests, never this one.
    ///
    /// # Errors
    /// [`ServeError::Recommend`] when the underlying recommendation fails
    /// (unknown offering, malformed profile, ...).
    pub fn recommend_one(&self, request: &ServeRequest) -> Result<Recommendation, ServeError> {
        let borrowed = RecommendRequest {
            profile: request.profile.iter().map(|v| v.as_deref()).collect(),
            offering: request.offering,
            path: request.path,
        };
        let lambdas = self.lambda_snapshot_for_path(&request.path);
        self.shared
            .deployment
            .live_engine_with_lambdas(self.shared.config.kind, &lambdas)
            .recommend_one(&borrowed)
            .map_err(ServeError::Recommend)
    }

    /// Offers one satisfaction signal. A follower is read-only — only the
    /// leader mints λ epochs — so this is rejected with
    /// [`ServeError::Draining`] until promotion; a promoted replica
    /// accepts, applies, and durably logs the signal like any leader
    /// (blocking until the λ publish lands, so the caller reads its own
    /// write).
    ///
    /// # Errors
    /// [`ServeError::Draining`] while the replica is (still) a follower;
    /// [`ServeError::Fenced`] after it was promoted and then superseded by
    /// a higher-term leader.
    pub fn submit_feedback(&self, signal: SatisfactionSignal) -> Result<(), ServeError> {
        if let ReplicaState::Demoted { term, observed } = self.state() {
            return Err(ServeError::Fenced { term, observed });
        }
        let promoted = self
            .shared
            .promoted
            .lock()
            .expect("promoted leader poisoned");
        match promoted.as_ref() {
            Some(leader) => {
                leader.engine.submit_feedback(signal)?;
                leader.engine.flush_feedback();
                Ok(())
            }
            None => Err(ServeError::Draining),
        }
    }

    /// Whether this replica has promoted itself to a serving leader.
    pub fn is_leader(&self) -> bool {
        matches!(self.state(), ReplicaState::Leader)
    }

    /// The replica's lifecycle state.
    pub fn state(&self) -> ReplicaState {
        self.shared
            .state
            .lock()
            .expect("follower state poisoned")
            .clone()
    }

    /// The λ snapshot covering `path` — the replicated store's while
    /// following, the promoted engine's after promotion.
    fn lambda_snapshot_for_path(&self, path: &lorentz_types::ResourcePath) -> Arc<LambdaSnapshot> {
        let promoted = self
            .shared
            .promoted
            .lock()
            .expect("promoted leader poisoned");
        match promoted.as_ref() {
            Some(leader) => leader.engine.lambda_snapshot_for(path),
            None => self
                .shared
                .lambdas
                .read()
                .expect("follower lambdas poisoned")
                .snapshot(),
        }
    }

    /// The currently replicated λ epoch — a cheap `Arc` clone. After
    /// promotion this keeps answering from the promoted engine's shard 0.
    pub fn lambda_snapshot(&self) -> Arc<LambdaSnapshot> {
        let promoted = self
            .shared
            .promoted
            .lock()
            .expect("promoted leader poisoned");
        match promoted.as_ref() {
            Some(leader) => leader.engine.lambda_snapshot(),
            None => self
                .shared
                .lambdas
                .read()
                .expect("follower lambdas poisoned")
                .snapshot(),
        }
    }

    /// The currently replicated (or, after promotion, served) λ epoch
    /// number.
    pub fn lambda_version(&self) -> u64 {
        let promoted = self
            .shared
            .promoted
            .lock()
            .expect("promoted leader poisoned");
        match promoted.as_ref() {
            Some(leader) => leader.engine.lambda_version(),
            None => self
                .shared
                .lambdas
                .read()
                .expect("follower lambdas poisoned")
                .version(),
        }
    }

    /// A point-in-time copy of the replication ledger.
    pub fn stats(&self) -> FollowerStats {
        *self.shared.stats.lock().expect("follower stats poisoned")
    }

    /// The leader term this replica is operating under: the promoted
    /// engine's own term after promotion, otherwise the highest term seen
    /// in the replicated stream.
    pub fn leader_term(&self) -> u64 {
        let promoted = self
            .shared
            .promoted
            .lock()
            .expect("promoted leader poisoned");
        match promoted.as_ref() {
            Some(leader) => leader.engine.leader_term(),
            None => {
                drop(promoted);
                self.stats().leader_term
            }
        }
    }

    /// Stops tailing (and, after promotion, drains the promoted engine),
    /// returning the final replication ledger. Idempotent with [`Drop`];
    /// records appended after this are not applied.
    pub fn stop(self) -> FollowerStats {
        self.shutdown();
        self.stats()
    }

    fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self
            .tailer
            .lock()
            .expect("follower tailer handle poisoned")
            .take()
        {
            let _ = handle.join();
        }
        // Tear down the promoted leader after the tail thread is gone
        // (it can no longer install a new one).
        if let Some(leader) = self
            .shared
            .promoted
            .lock()
            .expect("promoted leader poisoned")
            .take()
        {
            drop(leader.listener);
            drop(leader.engine); // drop = drain
        }
    }
}

impl Drop for FollowerEngine {
    /// Dropping the follower stops the tailer thread (and any promoted
    /// engine).
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How one promotion attempt ended.
enum PromotionOutcome {
    /// This replica is the new leader.
    Promoted,
    /// Another replica bound the promotion address first; re-subscribe to
    /// it at the returned address.
    LostRace(String),
    /// The attempt failed (bind error, WAL open failure); retry after the
    /// next detection timeout.
    Failed,
}

/// Seeds the tail loop's idle jitter so replicas of one leader desynchronize
/// their poll (and therefore promotion-retry) schedules.
fn tail_jitter_seed() -> u64 {
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
    (u64::from(std::process::id()) << 32) ^ NEXT.fetch_add(0x9E37_79B9, Ordering::Relaxed)
}

/// The tail thread body: poll, apply, back off when idle — until stopped,
/// halted (a typed rejection, or a local WAL that cannot be written), or
/// promoted (after which the same thread stays alive as the demotion
/// watchdog, see [`watch_promoted`]). Leader loss is tolerated up to the
/// promotion detection timeout (sources reconnect internally); without a
/// promote config it is tolerated forever, riding out leader restarts. A
/// `stale_leader` rejection is handled as a *loss*, not a halt: the
/// refusing upstream is the zombie of an older term, and the right move is
/// to promote past it or find the real leader.
fn tail_loop(
    shared: &Arc<FollowerShared>,
    mut source: Box<dyn ReplicationSource>,
    mut local_wal: Option<ReplicaWal>,
) {
    let mut backoff = PollBackoff::with_jitter(
        shared.config.poll_interval,
        shared.config.idle_backoff_cap,
        tail_jitter_seed(),
    );
    let mut lost_since: Option<Instant> = None;
    while !shared.stop.load(Ordering::Acquire) {
        let lost = match source.poll() {
            SourcePoll::Entries(batch) => {
                lost_since = None;
                backoff.reset();
                if let Err(e) = apply_sourced(shared, batch, local_wal.as_mut()) {
                    return halt(shared, format!("replica WAL append failed: {e}"));
                }
                // Drain eagerly; only sleep once the stream is dry.
                continue;
            }
            SourcePoll::Reset => {
                lost_since = None;
                backoff.reset();
                if let Err(e) = full_resync(shared, local_wal.as_mut()) {
                    return halt(shared, format!("replica WAL truncate failed: {e}"));
                }
                continue;
            }
            SourcePoll::Idle => {
                lost_since = None;
                false
            }
            SourcePoll::Rejected(rejection @ HandshakeRejection::StaleLeader { .. }) => {
                let mut stats = shared.stats.lock().expect("follower stats poisoned");
                if let HandshakeRejection::StaleLeader { observed_term, .. } = rejection {
                    stats.leader_term = stats.leader_term.max(observed_term);
                }
                true
            }
            SourcePoll::Rejected(rejection) => return halt(shared, rejection.to_string()),
            SourcePoll::LeaderLost(_reason) => true,
        };
        if lost {
            let since = *lost_since.get_or_insert_with(Instant::now);
            if let Some(promote) = shared.config.promote.clone() {
                if since.elapsed() >= promote.detection_timeout {
                    // The promoted engine reopens the local WAL; close
                    // our append handle first so there is exactly one
                    // writer.
                    drop(local_wal.take());
                    let observed_term = {
                        let stats = shared.stats.lock().expect("follower stats poisoned");
                        stats.leader_term.max(source.observed_term())
                    };
                    let outcome = try_promote(shared, &promote, observed_term);
                    if let PromotionOutcome::Promoted = outcome {
                        watch_promoted(shared);
                        return;
                    }
                    local_wal = match open_local_wal(shared) {
                        Ok(wal) => wal,
                        Err(e) => return halt(shared, format!("replica WAL reopen failed: {e}")),
                    };
                    if let PromotionOutcome::LostRace(winner) = outcome {
                        let last_epoch = shared
                            .stats
                            .lock()
                            .expect("follower stats poisoned")
                            .last_epoch;
                        if let Ok(new_source) =
                            TcpSource::connect_with_term(&winner, last_epoch, observed_term)
                        {
                            source = Box::new(new_source);
                            lost_since = None;
                            backoff.reset();
                            continue;
                        }
                        // The winner is not accepting yet; fall through,
                        // sleep, and retry the election.
                    }
                }
            }
        }
        std::thread::sleep(backoff.idle());
    }
}

/// The tail thread's afterlife as a promoted leader's demotion watchdog:
/// poll the promoted engine for the fence flag (set when a subscriber at
/// a strictly higher term reaches its replication listener). On a fence,
/// stop the listener (existing followers must go find the real leader),
/// flip to [`ReplicaState::Demoted`], and exit. The engine itself stays
/// up: reads keep answering from the λ-state at demotion, while its own
/// fence check refuses feedback, so the local WAL cannot diverge past the
/// fence point.
fn watch_promoted(shared: &Arc<FollowerShared>) {
    while !shared.stop.load(Ordering::Acquire) {
        let fenced = {
            let promoted = shared.promoted.lock().expect("promoted leader poisoned");
            match promoted.as_ref() {
                Some(leader) => leader
                    .engine
                    .fenced_by()
                    .map(|observed| (leader.engine.leader_term(), observed)),
                None => return,
            }
        };
        if let Some((term, observed)) = fenced {
            if let Some(leader) = shared
                .promoted
                .lock()
                .expect("promoted leader poisoned")
                .as_mut()
            {
                leader.listener.take();
            }
            obs::ENGINE_REPLICATION_DEMOTIONS.inc();
            *shared.state.lock().expect("follower state poisoned") =
                ReplicaState::Demoted { term, observed };
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Stops the tail loop for good: records why in [`ReplicaState::Halted`].
/// Reads keep serving the λ-state applied so far.
fn halt(shared: &FollowerShared, reason: String) {
    *shared.state.lock().expect("follower state poisoned") = ReplicaState::Halted(reason);
}

/// The follower's replica WAL and the highest term marker it holds.
/// Markers strictly increase within one lineage, so a marker at or below
/// `last_term` is a re-delivery — a resumed stream restarts just past the
/// last delta record and repeats the markers after it — and is not
/// appended again: the replica stays a byte prefix of the leader's log.
struct ReplicaWal {
    wal: SignalWal,
    last_term: u64,
}

impl ReplicaWal {
    /// Persists one received frame, skipping a re-delivered marker.
    fn append(&mut self, entry: &WalEntry, raw: &[u8]) -> Result<(), StoreError> {
        let term = entry.term();
        if term.is_some_and(|t| t <= self.last_term) {
            return Ok(());
        }
        self.wal.append_frame(raw)?;
        if let Some(t) = term {
            self.last_term = t;
        }
        Ok(())
    }
}

/// Opens (replaying and truncating a torn tail) the configured local WAL —
/// at start, and again after a promotion attempt that did not promote
/// (the handle was closed to guarantee a single writer). `Ok(None)` when
/// no local WAL is configured.
fn open_local_wal(shared: &FollowerShared) -> Result<Option<ReplicaWal>, StoreError> {
    match &shared.config.local_wal {
        Some(path) => {
            let (wal, recovery) = SignalWal::open(path)?;
            Ok(Some(ReplicaWal {
                wal,
                last_term: recovery.last_term,
            }))
        }
        None => Ok(None),
    }
}

/// Decodes every intact frame of a local replica WAL in one pass, with the
/// same decoder the TCP source applies to the wire.
fn local_entries(bytes: &[u8]) -> Vec<SourcedEntry> {
    let mut entries = Vec::new();
    let mut offset = 0;
    while let Some(Ok((entry, end))) = wal::next_frame(bytes, offset) {
        entries.push(SourcedEntry { entry, raw: None });
        offset = end;
    }
    entries
}

/// One promotion attempt: win the bind election (when a listen address is
/// configured), replay the local WAL into a real serving engine — minting
/// a leader term strictly above `observed_term` and everything in the WAL
/// — start the replication listener, and flip the replica state.
fn try_promote(
    shared: &Arc<FollowerShared>,
    promote: &PromoteConfig,
    observed_term: u64,
) -> PromotionOutcome {
    let listener = match &promote.listen {
        Some(addr) => match TcpListener::bind(addr) {
            Ok(listener) => Some(listener),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                return PromotionOutcome::LostRace(addr.clone());
            }
            Err(_) => return PromotionOutcome::Failed,
        },
        None => None,
    };
    // Replaying the local WAL's signals through propagation converges to
    // the same λ the deltas produced (the delta chain is a reordering-free
    // transcript of exactly these applies), and `restore_epoch` continues
    // the leader's epoch numbering.
    let started = ServingEngine::start_promoted(
        Arc::clone(&shared.deployment),
        promote.serve,
        &promote.wal_path,
        observed_term,
    );
    let (engine, responses) = match started {
        Ok(pair) => pair,
        Err(_) => return PromotionOutcome::Failed,
    };
    let listener = listener
        .and_then(|listener| serve_replication(&engine, listener, promote.replication).ok());
    obs::ENGINE_REPLICATION_PROMOTIONS.inc();
    *shared.promoted.lock().expect("promoted leader poisoned") = Some(PromotedLeader {
        engine,
        _responses: responses,
        listener,
    });
    *shared.state.lock().expect("follower state poisoned") = ReplicaState::Leader;
    PromotionOutcome::Promoted
}

/// Applies one polled batch: delta records advance the local epoch chain
/// (re-delivered epochs are skipped — replay is idempotent) and term
/// markers advance the observed term. Frames carrying raw bytes are
/// appended to the local WAL first, so what the follower applied is what
/// it can replay: the first append that fails stops the batch before that
/// frame is applied, and its error is returned.
fn apply_sourced(
    shared: &FollowerShared,
    batch: Vec<SourcedEntry>,
    mut local_wal: Option<&mut ReplicaWal>,
) -> Result<(), StoreError> {
    let lambdas = shared.lambdas.read().expect("follower lambdas poisoned");
    let mut stats = shared.stats.lock().expect("follower stats poisoned");
    let mut persisted = Ok(());
    for sourced in batch {
        if let (Some(wal), Some(raw)) = (local_wal.as_deref_mut(), sourced.raw.as_deref()) {
            if let Err(e) = wal.append(&sourced.entry, raw) {
                persisted = Err(e);
                break;
            }
        }
        match sourced.entry {
            WalEntry::Record(record) => {
                stats.last_epoch = stats.last_epoch.max(record.delta.epoch);
                match lambdas.apply_delta(&record.delta) {
                    Ok(_) => {
                        stats.applied += 1;
                        obs::ENGINE_REPLICATION_APPLIED.inc();
                    }
                    // A stale epoch is a re-delivery (resume overlap after
                    // a reconnect), not damage: the apply is idempotent and
                    // the record is dropped.
                    Err(DeltaCorruption::EpochRegression { .. }) => {
                        stats.duplicates += 1;
                        obs::ENGINE_REPLICATION_DUPLICATES.inc();
                    }
                    Err(_) => {
                        stats.skipped += 1;
                    }
                }
            }
            WalEntry::Term(term) => {
                stats.leader_term = stats.leader_term.max(term);
            }
        }
    }
    let lag = stats.last_epoch.saturating_sub(lambdas.version());
    obs::ENGINE_REPLICATION_LAG_EPOCHS.set(lag as i64);
    persisted
}

/// Full resync: the leader's log no longer reaches back to our epoch, so
/// the replicated λ-state (and the local copy of the log) is discarded;
/// the stream that follows rebuilds both from the log's start. A local
/// log that cannot be truncated leaves the λ-state untouched and returns
/// the error.
fn full_resync(
    shared: &FollowerShared,
    local_wal: Option<&mut ReplicaWal>,
) -> Result<(), StoreError> {
    if let Some(local) = local_wal {
        local.wal.truncate_all()?;
        local.last_term = 0;
    }
    let fresh = LambdaStore::new(shared.deployment.personalizer().clone());
    *shared.lambdas.write().expect("follower lambdas poisoned") = fresh;
    let mut stats = shared.stats.lock().expect("follower stats poisoned");
    stats.last_epoch = 0;
    stats.full_resyncs += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorentz_core::personalizer::WalRecord;
    use lorentz_fault::{Fault, FaultyIo, Op, RealIo};
    use lorentz_types::{
        CustomerId, LambdaDelta, PathKey, ResourceGroupId, ResourcePath, ServerOffering,
        SubscriptionId,
    };

    fn path(c: u32) -> ResourcePath {
        ResourcePath::new(CustomerId(c), SubscriptionId(1), ResourceGroupId(1))
    }

    fn record(c: u32, lambda: f64, epoch: u64) -> WalRecord {
        let signal = SatisfactionSignal::new(path(c), ServerOffering::GeneralPurpose, 1.0).unwrap();
        WalRecord {
            signal,
            delta: LambdaDelta::new(epoch, vec![(PathKey::new(path(c)), [0.0, lambda, 0.0])]),
        }
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A follower persists every replicated frame before applying it, so
    /// when an append fails it applies nothing from that frame on and
    /// halts: its λ never gets ahead of its replica WAL, and the replica
    /// WAL stays a byte prefix of the leader's. Otherwise a restart — which
    /// resumes from the highest epoch on disk — would never re-apply the
    /// lost delta.
    #[test]
    fn a_follower_halts_instead_of_applying_a_frame_it_could_not_persist() {
        let dir = std::env::temp_dir().join(format!("lorentz-fail-stop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (wal, local) = (dir.join("leader.wal"), dir.join("replica.wal"));
        let deployment = crate::test_deployment();
        let (leader, _responses) =
            ServingEngine::start_with_wal(Arc::clone(&deployment), ServeConfig::default(), &wal)
                .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let repl = serve_replication(&leader, listener, ReplicationConfig::default()).unwrap();

        // The replica WAL's first append (the leader's term-1 marker)
        // passes; every later one fails. Only this log sees the fault.
        let io = FaultyIo::new(RealIo).fail(Op::Append, 2.., Fault::Permanent);
        let (replica, recovery) = SignalWal::open_with(&local, Box::new(io)).unwrap();
        let replica = ReplicaWal {
            wal: replica,
            last_term: recovery.last_term,
        };
        let source = TcpSource::connect_with_term(repl.local_addr().to_string(), 0, 0).unwrap();
        let shared =
            FollowerEngine::make_shared(Arc::clone(&deployment), FollowerConfig::default());
        let follower =
            FollowerEngine::finish_start(shared, Box::new(source), Some(replica)).unwrap();
        wait_until("the term-1 marker", || follower.stats().leader_term == 1);
        let hot = path(7);
        let batch_lambda = deployment
            .personalizer()
            .lambda(&hot, ServerOffering::GeneralPurpose);
        let batch_version = follower.lambda_version();

        let signal = SatisfactionSignal::new(hot, ServerOffering::GeneralPurpose, 1.0).unwrap();
        leader.submit_feedback(signal).unwrap();
        leader.flush_feedback();
        wait_until("the follower to halt", || {
            matches!(follower.state(), ReplicaState::Halted(_))
        });
        match follower.state() {
            ReplicaState::Halted(why) => assert!(why.contains("replica WAL"), "{why}"),
            other => panic!("expected a halt, got {other:?}"),
        }
        assert_eq!(follower.stats().applied, 0);
        let served = follower
            .lambda_snapshot()
            .lambda(&hot, ServerOffering::GeneralPurpose);
        assert_eq!(
            served.to_bits(),
            batch_lambda.to_bits(),
            "λ ran ahead of the WAL"
        );
        assert_eq!(follower.lambda_version(), batch_version);
        follower.stop();
        drop(repl);
        drop(leader);

        let leader_bytes = std::fs::read(&wal).unwrap();
        let replica_bytes = std::fs::read(&local).unwrap();
        assert!(replica_bytes.len() < leader_bytes.len());
        assert!(
            leader_bytes.starts_with(&replica_bytes),
            "the replica WAL must be a byte prefix of the leader's"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_epochs_are_skipped_not_fatal() {
        // Exercise the apply path directly on a store, as the follower
        // does when a resumed subscription re-delivers old records.
        let store = LambdaStore::new(
            lorentz_core::Personalizer::new(lorentz_core::PersonalizerConfig::default()).unwrap(),
        );
        let r = record(1, 0.5, 2);
        assert!(store.apply_delta(&r.delta).is_ok());
        assert!(store.apply_delta(&r.delta).is_err(), "duplicate skipped");
        assert_eq!(store.version(), 2);
    }
}
