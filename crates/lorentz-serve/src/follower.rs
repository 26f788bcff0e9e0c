//! The replication follower: a standby [`ServingEngine`] fed over TCP,
//! with promotion.
//!
//! A leader running [`ServingEngine::start_with_wal`] frames every
//! accepted satisfaction signal together with the epoch-stamped λ delta it
//! published. [`FollowerEngine`] consumes that stream through a
//! [`ReplicationSource`] — in deployment a [`TcpSource`] subscribed to the
//! leader's replication listener (over loopback for a standby on the
//! leader's machine) — and applies the deltas to the
//! [`ShardedLambdaStore`](lorentz_core::ShardedLambdaStore) of its own
//! [`ServingEngine`], whatever its shard count: no propagation re-run, no
//! full-table transfer, so the replica converges to the leader's
//! published λ bit-for-bit. Reads go through that engine's
//! [`ServingEngine::answer`], ledger and panic boundary included.
//!
//! While following, the engine is **read-only by construction**: only the
//! leader mints epochs; the follower replays them, and feedback is refused
//! with [`ServeError::NotLeader`](crate::ServeError::NotLeader) — kind
//! `not_leader` on the wire, where the standby's clients reach it through
//! [`crate::serve_net`] like a leader's. Startup is catch-up-then-serve:
//! the constructors drain the source to its current end before returning,
//! so the first recommendation already reflects every durable signal.
//!
//! A follower configured with [`FollowerConfig::local_wal`] persists each
//! received frame verbatim (the frames are byte-identical to the leader's
//! log, CRC and all) *before* applying it, so a restarted follower replays
//! its local log and resumes the subscription *from its last epoch*
//! instead of re-reading the leader's entire WAL. A leader that has
//! compacted past that epoch answers the handshake with full-resync; the
//! follower then truncates its local log, resets its λ-state in place,
//! and applies the fresh stream. A local WAL that cannot be written is
//! fail-stop: the follower applies nothing more and halts
//! ([`ReplicaState::Halted`]), still serving the last epoch that is both
//! applied and persisted.
//!
//! **Promotion**: with [`FollowerConfig::promote`] set (which requires a
//! local WAL), a follower that loses its leader for longer than
//! [`PromoteConfig::detection_timeout`] promotes itself. Promotion is a
//! role change of the one engine, not a second engine: it mints a term,
//! makes it durable as a marker in the replica WAL the tail thread already
//! holds, hands that WAL to the running λ-writer and opens feedback. It
//! does not re-run the WAL's signals — the λ already is
//! the delta chain persisted frame by frame — so readers never see a
//! reset λ. The promoted engine starts its own replication listener and
//! the replica flips to [`ReplicaState::Leader`]: recommendations keep
//! flowing and the engine's [`ServingEngine::submit_feedback`] starts
//! accepting. When several standbys race, the OS arbitrates exactly-once
//! promotion through [`PromoteConfig::listen`]: binding the address is the
//! election, and the losers re-subscribe to the winner as their new
//! upstream.
//!
//! **Term fencing**: promotion mints a leader term strictly above every
//! term the follower recovered or observed, so when a partition heals the
//! cluster can tell the real leader from the zombie. A replica whose
//! subscription is refused with `stale_leader` treats its upstream as
//! lost (the upstream is the zombie — the replica promotes past it or
//! finds the winner); a *promoted* replica whose engine gets fenced (a
//! higher-term subscriber reached its listener) demotes itself: the tail
//! thread — which stays alive after promotion precisely as this watchdog —
//! flips the state to [`ReplicaState::Demoted`] and shuts the listener
//! down, while the engine keeps serving reads and refuses feedback with
//! [`ServeError::Fenced`](crate::ServeError::Fenced).

use crate::engine::ServingEngine;
use crate::replication::{
    serve_replication, ReplicationConfig, ReplicationError, ReplicationListener, ReplicationSource,
    SourcePoll, SourcedEntry, TcpSource,
};
use crate::types::{EngineError, ServeConfig};
use lorentz_core::obs;
use lorentz_core::personalizer::{wal, PollBackoff, WalEntry};
use lorentz_core::{SignalWal, StoreError, TrainedLorentz};
use lorentz_types::{HandshakeRejection, LorentzError};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Base sleep between polls once the stream is drained; consecutive idle
/// polls back off exponentially up to [`PollBackoff::DEFAULT_CAP`].
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// What a follower does when its leader stops answering.
#[derive(Debug, Clone)]
pub struct PromoteConfig {
    /// Replication listen address (`host:port`) the promoted leader
    /// binds. Binding doubles as the election: when several standbys race,
    /// exactly one bind succeeds (`AddrInUse` means "lost; re-subscribe
    /// to the winner here"). `None` promotes unconditionally without a
    /// listener — single-standby deployments only.
    pub listen: Option<String>,
    /// How long the leader must stay unreachable before promotion starts.
    pub detection_timeout: Duration,
}

impl Default for PromoteConfig {
    /// No listener, one-second detection timeout.
    fn default() -> Self {
        Self {
            listen: None,
            detection_timeout: Duration::from_secs(1),
        }
    }
}

/// How the follower serves and tails its leader.
#[derive(Debug, Clone, Default)]
pub struct FollowerConfig {
    /// The standby's engine — model kind, shard count, deadlines — which
    /// it keeps as a promoted leader.
    pub serve: ServeConfig,
    /// Where the follower persists received frames (byte-identical to
    /// the leader's log) before applying them, enabling resume-from-epoch
    /// after a restart; a promoted standby leads on this log.
    pub local_wal: Option<PathBuf>,
    /// Self-promotion on leader loss (requires `local_wal`); `None` (the
    /// default) keeps the replica a follower forever.
    pub promote: Option<PromoteConfig>,
}

/// The follower's replication ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FollowerStats {
    /// Delta records applied to the local λ store.
    pub applied: u64,
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
    /// [`ServeError::Fenced`](crate::ServeError::Fenced); the local WAL is
    /// frozen (no divergence past the fence point).
    Demoted {
        /// The term this replica held as a leader.
        term: u64,
        /// The higher term that superseded it.
        observed: u64,
    },
}

/// State shared between the tail thread and the serving side.
struct FollowerShared {
    /// The one engine the standby serves from, following and promoted.
    engine: ServingEngine,
    config: FollowerConfig,
    stop: AtomicBool,
    stats: Mutex<FollowerStats>,
    state: Mutex<ReplicaState>,
}

/// A read replica that follows a leader's λ-WAL over TCP and serves
/// recommendations from the replicated epochs through its own
/// [`ServingEngine`]; optionally promotes that engine to the leader when
/// the leader dies. See the module docs for the replication and promotion
/// contracts.
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
    /// appended to during catch-up; [`EngineError::Config`] for an invalid
    /// engine configuration or promotion without a local WAL;
    /// [`EngineError::SpawnFailed`] when the OS refuses a thread.
    pub fn start_tcp(
        deployment: Arc<TrainedLorentz>,
        addr: &str,
        config: FollowerConfig,
    ) -> Result<Self, EngineError> {
        let shared = Self::make_shared(deployment, config)?;
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
    /// [`EngineError::Config`] and [`EngineError::SpawnFailed`] as for
    /// [`FollowerEngine::start_tcp`].
    pub fn start_with_source(
        deployment: Arc<TrainedLorentz>,
        source: Box<dyn ReplicationSource>,
        config: FollowerConfig,
    ) -> Result<Self, EngineError> {
        let shared = Self::make_shared(deployment, config)?;
        let local_wal = open_local_wal(&shared)?;
        Self::finish_start(shared, source, local_wal)
    }

    fn make_shared(
        deployment: Arc<TrainedLorentz>,
        config: FollowerConfig,
    ) -> Result<Arc<FollowerShared>, EngineError> {
        if config.promote.is_some() && config.local_wal.is_none() {
            return Err(EngineError::Config(LorentzError::InvalidConfig(
                "promotion requires a local WAL: the promoted leader leads on it".to_owned(),
            )));
        }
        Ok(Arc::new(FollowerShared {
            engine: ServingEngine::start_following(deployment, config.serve)?,
            config,
            stop: AtomicBool::new(false),
            stats: Mutex::new(FollowerStats::default()),
            state: Mutex::new(ReplicaState::Following),
        }))
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

    /// The standby's serving engine: answer reads with
    /// [`ServingEngine::answer`], read its ledger, λ epochs, shard count
    /// and term. It is the same engine before and after promotion.
    pub fn engine(&self) -> &ServingEngine {
        &self.shared.engine
    }

    /// The replica's lifecycle state.
    pub fn state(&self) -> ReplicaState {
        self.shared
            .state
            .lock()
            .expect("follower state poisoned")
            .clone()
    }

    /// A point-in-time copy of the replication ledger.
    pub fn stats(&self) -> FollowerStats {
        *self.shared.stats.lock().expect("follower stats poisoned")
    }

    /// Stops tailing (and any promoted listener), returning the final
    /// replication ledger. The engine keeps answering reads from the λ it
    /// reached and drains when the follower drops. Idempotent with
    /// [`Drop`]; records appended after this are not applied.
    pub fn stop(&self) -> FollowerStats {
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
    }
}

impl Drop for FollowerEngine {
    /// Dropping the follower stops the tail thread; the engine drains with
    /// the last reference to it.
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How one promotion attempt ended.
enum PromotionOutcome {
    /// This replica is the new leader, with its replication listener when
    /// it bound one.
    Promoted(Option<ReplicationListener>),
    /// Another replica bound the promotion address first; re-subscribe to
    /// it at the returned address.
    LostRace(String),
    /// The attempt failed (bind error, term marker append failure); retry
    /// after the next detection timeout.
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
    let mut backoff =
        PollBackoff::with_jitter(POLL_INTERVAL, PollBackoff::DEFAULT_CAP, tail_jitter_seed());
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
                    return halt(shared, format!("replica resync failed: {e}"));
                }
                continue;
            }
            SourcePoll::Idle => {
                lost_since = None;
                false
            }
            SourcePoll::Rejected(HandshakeRejection::StaleLeader { observed_term, .. }) => {
                observe_term(
                    shared,
                    &mut shared.stats.lock().expect("follower stats poisoned"),
                    observed_term,
                );
                true
            }
            SourcePoll::Rejected(rejection) => return halt(shared, rejection.to_string()),
            SourcePoll::LeaderLost(_reason) => true,
        };
        if lost {
            let since = *lost_since.get_or_insert_with(Instant::now);
            if let Some(promote) = shared.config.promote.clone() {
                if since.elapsed() >= promote.detection_timeout {
                    let observed_term = {
                        let stats = shared.stats.lock().expect("follower stats poisoned");
                        stats.leader_term.max(source.observed_term())
                    };
                    match try_promote(shared, &promote, observed_term, &mut local_wal) {
                        PromotionOutcome::Promoted(listener) => {
                            return watch_promoted(shared, listener);
                        }
                        PromotionOutcome::LostRace(winner) => {
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
                            // The winner is not accepting yet; sleep and
                            // retry the election.
                        }
                        PromotionOutcome::Failed => {}
                    }
                }
            }
        }
        std::thread::sleep(backoff.idle());
    }
}

/// The tail thread's afterlife as a promoted leader's demotion watchdog:
/// poll the engine for the fence flag (set when a subscriber at a strictly
/// higher term reaches its replication listener). On a fence, stop the
/// listener (existing followers must go find the real leader), flip to
/// [`ReplicaState::Demoted`], and exit. The engine itself stays up: reads
/// keep answering from the λ-state at demotion, while its own fence check
/// refuses feedback, so the local WAL cannot diverge past the fence point.
/// A stop drops the listener on the way out.
fn watch_promoted(shared: &FollowerShared, listener: Option<ReplicationListener>) {
    while !shared.stop.load(Ordering::Acquire) {
        if let Some(observed) = shared.engine.fenced_by() {
            drop(listener);
            obs::ENGINE_REPLICATION_DEMOTIONS.inc();
            *shared.state.lock().expect("follower state poisoned") = ReplicaState::Demoted {
                term: shared.engine.leader_term(),
                observed,
            };
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

/// Opens (replaying and truncating a torn tail) the configured local WAL
/// at start. `Ok(None)` when no local WAL is configured.
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
/// configured), mint a leader term strictly above `observed_term` and
/// every marker in the replica WAL, make it durable there, hand that WAL
/// to the engine as its leader log, start the replication listener, and
/// flip the replica state. A failed marker append keeps the WAL here for
/// the next attempt.
fn try_promote(
    shared: &FollowerShared,
    promote: &PromoteConfig,
    observed_term: u64,
    local_wal: &mut Option<ReplicaWal>,
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
    let Some(local) = local_wal.as_mut() else {
        return PromotionOutcome::Failed;
    };
    let term = local.last_term.max(observed_term) + 1;
    if local.wal.append_term(term).is_err() {
        return PromotionOutcome::Failed;
    }
    let local = local_wal.take().expect("checked above");
    let last_epoch = shared
        .stats
        .lock()
        .expect("follower stats poisoned")
        .last_epoch;
    shared.engine.promote(local.wal, last_epoch, term);
    let listener = listener.and_then(|listener| {
        serve_replication(&shared.engine, listener, ReplicationConfig::default()).ok()
    });
    obs::ENGINE_REPLICATION_PROMOTIONS.inc();
    *shared.state.lock().expect("follower state poisoned") = ReplicaState::Leader;
    PromotionOutcome::Promoted(listener)
}

/// Records a leader term seen on the wire: in the replication ledger, and
/// as the following engine's term.
fn observe_term(shared: &FollowerShared, stats: &mut FollowerStats, term: u64) {
    if term > stats.leader_term {
        stats.leader_term = term;
        shared.engine.replication_hub().set_term(term);
    }
}

/// Applies one polled batch: delta records advance the engine's epoch
/// chain (re-delivered epochs are skipped — replay is idempotent) and term
/// markers advance the observed term. Frames carrying raw bytes are
/// appended to the local WAL first, so what the follower applied is what
/// it can replay: the first append that fails stops the batch before that
/// frame is applied, and its error is returned.
fn apply_sourced(
    shared: &FollowerShared,
    batch: Vec<SourcedEntry>,
    mut local_wal: Option<&mut ReplicaWal>,
) -> Result<(), StoreError> {
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
                match shared.engine.lambdas().apply_delta(&record.delta) {
                    Ok(_) => {
                        stats.applied += 1;
                        obs::ENGINE_REPLICATION_APPLIED.inc();
                    }
                    // The only refusal is a non-advancing epoch: a
                    // re-delivery (resume overlap after a reconnect), not
                    // damage. The apply is idempotent and the record is
                    // dropped.
                    Err(_) => {
                        stats.duplicates += 1;
                        obs::ENGINE_REPLICATION_DUPLICATES.inc();
                    }
                }
            }
            WalEntry::Term(term) => observe_term(shared, &mut stats, term),
        }
    }
    let lag = stats
        .last_epoch
        .saturating_sub(shared.engine.lambda_version());
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
) -> Result<(), EngineError> {
    if let Some(local) = local_wal {
        local.wal.truncate_all()?;
        local.last_term = 0;
    }
    shared.engine.reset_lambdas()?;
    let mut stats = shared.stats.lock().expect("follower stats poisoned");
    stats.last_epoch = 0;
    stats.full_resyncs += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PANIC_ID;
    use crate::types::{ServeError, ServeRequest};
    use lorentz_core::personalizer::WalRecord;
    use lorentz_core::SatisfactionSignal;
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

    /// A scratch directory removed on drop, named after its test and
    /// this process.
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("lorentz-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A leader that never sends anything.
    struct Silent;

    impl ReplicationSource for Silent {
        fn poll(&mut self) -> SourcePoll {
            SourcePoll::Idle
        }

        fn describe(&self) -> String {
            "silent".to_owned()
        }
    }

    fn request(id: u64) -> ServeRequest {
        ServeRequest {
            id,
            profile: vec![None; crate::test_deployment().profiles().schema().len()],
            offering: ServerOffering::GeneralPurpose,
            path: path(7),
            deadline: None,
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
        let dir = ScratchDir::new("fail-stop");
        let (wal, local) = (dir.0.join("leader.wal"), dir.0.join("replica.wal"));
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
            FollowerEngine::make_shared(Arc::clone(&deployment), FollowerConfig::default())
                .unwrap();
        let follower =
            FollowerEngine::finish_start(shared, Box::new(source), Some(replica)).unwrap();
        wait_until("the term-1 marker", || follower.stats().leader_term == 1);
        let hot = path(7);
        let batch_lambda = deployment
            .personalizer()
            .lambda(&hot, ServerOffering::GeneralPurpose);
        let batch_version = follower.engine().lambda_version();

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
            .engine()
            .lambda_snapshot()
            .lambda(&hot, ServerOffering::GeneralPurpose);
        assert_eq!(
            served.to_bits(),
            batch_lambda.to_bits(),
            "λ ran ahead of the WAL"
        );
        assert_eq!(follower.engine().lambda_version(), batch_version);
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
    }

    #[test]
    fn stale_epochs_are_skipped_not_fatal() {
        // Exercise the apply path directly on a store, as the follower
        // does when a resumed subscription re-delivers old records.
        let store = lorentz_core::ShardedLambdaStore::new(
            lorentz_core::Personalizer::new(lorentz_core::PersonalizerConfig::default()).unwrap(),
            1,
        )
        .unwrap();
        let r = record(1, 0.5, 2);
        assert!(store.apply_delta(&r.delta).is_ok());
        assert!(store.apply_delta(&r.delta).is_err(), "duplicate skipped");
        assert_eq!(store.version(), 2);
    }

    #[test]
    fn a_following_standby_counts_its_reads_in_the_ledger() {
        let follower = FollowerEngine::start_with_source(
            crate::test_deployment(),
            Box::new(Silent),
            FollowerConfig::default(),
        )
        .unwrap();
        for id in 0..5 {
            let response = follower.engine().answer(request(id)).unwrap();
            assert_eq!(response.id, id);
            assert!(response.result.is_ok(), "{:?}", response.result);
        }
        let stats = follower.engine().stats();
        assert_eq!((stats.submitted, stats.accepted, stats.answered), (5, 5, 5));
        assert_eq!(stats.accepted, stats.answered);
        assert_eq!(follower.state(), ReplicaState::Following);
    }

    #[test]
    fn a_panicking_read_on_a_standby_is_answered_as_panicked() {
        let follower = FollowerEngine::start_with_source(
            crate::test_deployment(),
            Box::new(Silent),
            FollowerConfig::default(),
        )
        .unwrap();
        let response = follower.engine().answer(request(PANIC_ID)).unwrap();
        match response.result {
            Err(ServeError::Panicked(msg)) => assert_eq!(msg, "injected worker panic"),
            other => panic!("expected a Panicked answer, got {other:?}"),
        }
        // The panic boundary held: the standby keeps answering.
        assert!(follower.engine().answer(request(1)).unwrap().result.is_ok());
        let stats = follower.engine().stats();
        assert_eq!((stats.accepted, stats.answered, stats.panicked), (2, 2, 1));
    }
}
