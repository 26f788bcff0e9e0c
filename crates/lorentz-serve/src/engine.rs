//! The request engine over hot-swappable store snapshots: answers on the
//! caller's thread, or through a worker pool started by the first submit.

use crate::replication::ReplicationHub;
use crate::types::{
    EngineError, EngineStats, ServeConfig, ServeError, ServeRequest, ServeResponse,
};
use lorentz_core::obs;
use lorentz_core::personalizer::{
    frame_record, LambdaSnapshot, ShardedLambdaStore, WalRecord, WalRecovery,
};
use lorentz_core::store::PublishBatch;
use lorentz_core::{
    RecommendEngine, RecommendRequest, SatisfactionSignal, ShardedPredictionStore, SignalWal,
    StoreOnly, TrainedLorentz,
};
use lorentz_types::{LorentzError, ResourcePath};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One accepted request waiting in the queue.
struct Job {
    request: ServeRequest,
    submitted_at: Instant,
    degraded: bool,
}

/// One message on the λ-writer's channel.
enum FeedbackMsg {
    /// Apply one satisfaction signal, publish its λ delta, and WAL-append
    /// the delta-framed record.
    Signal(SatisfactionSignal),
    /// Barrier: acknowledged only after every earlier signal on the
    /// channel has been applied and published.
    Flush(Sender<()>),
    /// Start appending to this WAL: a promoted standby hands over its
    /// replica log ahead of the first signal it admits. Boxed, so the
    /// per-signal message stays the size it is on a leader.
    Wal(Box<SignalWal>),
}

/// Mutex-guarded engine state: the bounded queue, the intake flag, the
/// feedback intake handle, and the request ledger.
struct State {
    queue: VecDeque<Job>,
    intake_open: bool,
    /// Feedback intake: present while the engine accepts signals, taken
    /// (and thereby closed) by shutdown so the λ-writer drains and exits.
    feedback_tx: Option<Sender<FeedbackMsg>>,
    /// The standby role: the λ-state advances only by the leader's
    /// replicated deltas and feedback is refused as
    /// [`ServeError::NotLeader`], until [`ServingEngine::promote`] makes
    /// this engine the leader.
    following: bool,
    stats: EngineStats,
}

/// Worker-restart accounting, separate from the hot `State` lock.
struct Supervisor {
    /// Restarts consumed so far (capped by `config.max_worker_restarts`).
    restarts_used: u32,
    /// Next worker thread index, for unique thread names.
    next_id: usize,
}

/// Everything the workers share with the submit side.
struct Shared {
    deployment: Arc<TrainedLorentz>,
    /// The hot-swap store: seeded from the deployment's published store at
    /// startup, its entries split by route across `config.shards` shards,
    /// re-published whole through [`ServingEngine::publish`] with zero
    /// reader downtime.
    store: ShardedPredictionStore,
    /// The live λ-state: seeded from the deployment's batch personalizer,
    /// sharded by customer, advanced by the λ-writer as feedback arrives
    /// (each delta swapping only its owning shard), read by every worker
    /// through a per-request shard snapshot.
    lambdas: ShardedLambdaStore,
    config: ServeConfig,
    state: Mutex<State>,
    work: Condvar,
    /// Live worker handles. Replacement workers spawned by the supervisor
    /// land here too, so shutdown joins everything ever spawned.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// The response channel's sender until the first
    /// [`ServingEngine::submit`] starts the pool with it. An engine only
    /// ever asked through [`ServingEngine::answer`] starts no worker; the
    /// unused sender goes with the engine, which closes the channel.
    idle_pool: Mutex<Option<Sender<ServeResponse>>>,
    /// The λ-writer thread, joined at shutdown after its channel closes.
    feedback_worker: Mutex<Option<JoinHandle<()>>>,
    supervisor: Mutex<Supervisor>,
    /// Fanout point for TCP replication: the λ-writer broadcasts each
    /// framed WAL record here; [`crate::serve_replication`] subscribes
    /// follower outboxes. Present (but idle) even without a WAL.
    replication: Arc<ReplicationHub>,
    /// The WAL path, kept so the replication listener can replay it for
    /// resuming followers. Set at start, or at promotion for a standby;
    /// unset for engines without durability.
    wal_path: OnceLock<PathBuf>,
}

/// How a worker's main loop ended.
#[derive(PartialEq, Eq)]
enum WorkerExit {
    /// Queue empty and intake closed: normal drain.
    Drained,
    /// The handler panicked. The request was answered and the ledger
    /// updated; the thread exits so the supervisor can decide on a
    /// replacement.
    Panicked,
}

/// A long-running concurrent serving engine: a bounded submission queue in
/// front of a worker pool, serving live-model recommendations with a
/// store-lookup degraded mode, over hot-swappable prediction-store
/// snapshots. See the crate docs for the full contract.
pub struct ServingEngine {
    shared: Arc<Shared>,
}

impl ServingEngine {
    /// Starts the engine and returns it plus the response channel. Every
    /// request accepted by [`ServingEngine::submit`] produces exactly one
    /// [`ServeResponse`] on the channel; the channel closes once the engine
    /// is drained (or dropped) and all workers have exited. The worker
    /// pool starts on the first `submit`, so an engine that only answers
    /// on its callers' threads ([`ServingEngine::answer`]) runs no worker.
    ///
    /// The hot-swap store is seeded with a copy of `deployment`'s published
    /// store, so degraded-mode lookups answer from the same world as the
    /// live model until the first [`ServingEngine::publish`].
    ///
    /// # Errors
    /// [`EngineError::SpawnFailed`] when the OS refuses the λ-writer
    /// thread.
    pub fn start(
        deployment: Arc<TrainedLorentz>,
        config: ServeConfig,
    ) -> Result<(Self, Receiver<ServeResponse>), EngineError> {
        Self::start_inner(deployment, config, None, false)
    }

    /// Like [`ServingEngine::start`], but with feedback durability: every
    /// accepted satisfaction signal is appended to the CRC-framed WAL at
    /// `wal_path` before it is applied, and signals already in the WAL
    /// (e.g. from a run that was killed mid-stream) are replayed into the
    /// λ-table before the first worker starts, so a restart resumes from
    /// the last durable signal rather than the batch-trained λ.
    ///
    /// # Errors
    /// [`EngineError::Wal`] when the WAL cannot be opened or replayed;
    /// [`EngineError::SpawnFailed`] as for [`ServingEngine::start`].
    pub fn start_with_wal(
        deployment: Arc<TrainedLorentz>,
        config: ServeConfig,
        wal_path: impl AsRef<Path>,
    ) -> Result<(Self, Receiver<ServeResponse>), EngineError> {
        let (wal, recovery) = SignalWal::open(wal_path)?;
        Self::start_inner(deployment, config, Some((wal, recovery)), false)
    }

    /// Starts a standby's engine in the following role: seeded like
    /// [`ServingEngine::start`], but its λ-state advances only through
    /// [`ShardedLambdaStore::apply_delta`] and it refuses feedback until
    /// [`ServingEngine::promote`]. It holds no term of its own; its
    /// [`ServingEngine::leader_term`] is the highest term its leader's
    /// stream carried. No caller submits to it, so its response channel
    /// is dropped.
    pub(crate) fn start_following(
        deployment: Arc<TrainedLorentz>,
        config: ServeConfig,
    ) -> Result<Self, EngineError> {
        Self::start_inner(deployment, config, None, true).map(|(engine, _)| engine)
    }

    fn start_inner(
        deployment: Arc<TrainedLorentz>,
        config: ServeConfig,
        wal: Option<(SignalWal, WalRecovery)>,
        following: bool,
    ) -> Result<(Self, Receiver<ServeResponse>), EngineError> {
        let (tx, rx) = channel();
        let (feedback_tx, feedback_rx) = channel();
        let worker_count = config.workers.max(1);
        let lambdas = ShardedLambdaStore::new(deployment.personalizer().clone(), config.shards)
            .map_err(EngineError::Config)?;
        let (mut wal, recovered, last_epoch, last_term) = match wal {
            Some((wal, recovery)) => (
                Some(wal),
                recovery.signals,
                recovery.last_epoch,
                recovery.last_term,
            ),
            None => (None, Vec::new(), 0, 0),
        };
        if !recovered.is_empty() {
            lambdas.apply_signals(&recovered);
            lambdas.publish();
        }
        // Adopt the on-disk epoch numbering so new appends continue past
        // records already framed (replay publishes one merged epoch, which
        // may lag the per-signal epochs the crashed leader wrote).
        lambdas.restore_epoch(last_epoch);
        // Term lifecycle: a fresh lineage mints term 1; a same-lineage
        // restart resumes the recovered term *unchanged* (re-minting would
        // collide with a standby that promoted to recovered+1 while this
        // node was down — only promotions may raise the term); a standby
        // holds none until it promotes. A minted term is made durable as a
        // WAL marker before the λ-writer (and therefore any feedback
        // append) starts.
        let term = if following { 0 } else { last_term.max(1) };
        if term != last_term {
            if let Some(wal) = wal.as_mut() {
                wal.append_term(term).map_err(EngineError::Wal)?;
            }
        }
        let replication = Arc::new(ReplicationHub::new());
        replication.set_last_epoch(last_epoch);
        replication.set_term(term);
        let wal_path = OnceLock::new();
        if let Some(wal) = &wal {
            let _ = wal_path.set(wal.path().to_path_buf());
        }
        let shared = Arc::new(Shared {
            store: ShardedPredictionStore::from_store(deployment.store(), config.shards)
                .map_err(EngineError::Config)?,
            lambdas,
            deployment,
            config,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                intake_open: true,
                feedback_tx: Some(feedback_tx),
                following,
                stats: EngineStats::default(),
            }),
            work: Condvar::new(),
            workers: Mutex::new(Vec::new()),
            idle_pool: Mutex::new(Some(tx)),
            feedback_worker: Mutex::new(None),
            supervisor: Mutex::new(Supervisor {
                restarts_used: 0,
                next_id: worker_count,
            }),
            replication,
            wal_path,
        });
        let engine = Self {
            shared: Arc::clone(&shared),
        };
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lorentz-serve-lambda".to_string())
                .spawn(move || feedback_loop(&shared, &feedback_rx, wal))
                .map_err(|source| EngineError::SpawnFailed {
                    name: "lorentz-serve-lambda".to_string(),
                    source,
                })?
        };
        *shared
            .feedback_worker
            .lock()
            .expect("engine feedback worker poisoned") = Some(writer);
        Ok((engine, rx))
    }

    /// Spawns the worker pool if no `submit` has yet. A worker the OS
    /// refuses leaves the pool one smaller; a pool that cannot start a
    /// single worker stays unstarted, for the next `submit` to retry.
    /// Returns whether the pool runs.
    fn start_pool(&self) -> bool {
        let mut idle = self.shared.idle_pool.lock().expect("engine pool poisoned");
        let Some(tx) = idle.take() else {
            return true;
        };
        let mut workers = self.shared.workers.lock().expect("engine workers poisoned");
        for i in 0..self.shared.config.workers.max(1) {
            if let Ok(handle) = spawn_worker(&self.shared, &tx, i, Duration::ZERO) {
                workers.push(handle);
            }
        }
        if workers.is_empty() {
            *idle = Some(tx);
            return false;
        }
        true
    }

    /// Offers one request to the engine. The first call starts the worker
    /// pool. Admission is O(1) under the state lock: a full queue or
    /// closed intake rejects immediately (backpressure), otherwise the
    /// request is queued — in degraded mode if the queue is already past
    /// the configured threshold — and a worker is woken.
    ///
    /// # Errors
    /// [`ServeError::Saturated`] when the queue is at capacity, or when the
    /// OS refused every worker thread of the pool (a pool with no worker
    /// has no capacity); [`ServeError::Draining`] after
    /// [`ServingEngine::drain`] has begun. Rejected requests produce no
    /// [`ServeResponse`].
    pub fn submit(&self, request: ServeRequest) -> Result<(), ServeError> {
        let now = Instant::now();
        let pool_runs = self.start_pool();
        let mut state = self.shared.state.lock().expect("engine state poisoned");
        admit(&mut state)?;
        let depth = state.queue.len();
        if !pool_runs || depth >= self.shared.config.queue_capacity {
            state.stats.rejected += 1;
            obs::ENGINE_REJECTED.inc();
            return Err(ServeError::Saturated(depth));
        }
        let degraded = self
            .shared
            .config
            .degraded_threshold
            .is_some_and(|threshold| depth >= threshold);
        if degraded {
            state.stats.degraded += 1;
            obs::ENGINE_DEGRADED.inc();
        }
        state.stats.accepted += 1;
        obs::ENGINE_ACCEPTED.inc();
        state.queue.push_back(Job {
            request,
            submitted_at: now,
            degraded,
        });
        obs::ENGINE_QUEUE_DEPTH.set(state.queue.len() as i64);
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Answers one request on the calling thread: the admission ledger of
    /// [`ServingEngine::submit`] without the queue, then the live model
    /// under the same panic boundary a worker uses. Never degraded — there
    /// is no queue depth to degrade on. The TCP front end answers every
    /// read this way, on the connection's own thread.
    ///
    /// # Errors
    /// [`ServeError::Draining`] after [`ServingEngine::drain`] has begun;
    /// the request is then counted as rejected. Every other outcome,
    /// failures and a caught panic included, is an answered request whose
    /// [`ServeResponse::result`] says what happened.
    pub fn answer(&self, request: ServeRequest) -> Result<ServeResponse, ServeError> {
        let submitted_at = Instant::now();
        {
            let mut state = self.shared.state.lock().expect("engine state poisoned");
            admit(&mut state)?;
            state.stats.accepted += 1;
            obs::ENGINE_ACCEPTED.inc();
        }
        let job = Job {
            request,
            submitted_at,
            degraded: false,
        };
        Ok(run_job(&self.shared, job).0)
    }

    /// Offers one satisfaction signal to the λ-writer. Admission mirrors
    /// [`ServingEngine::submit`]: a draining engine rejects the signal,
    /// otherwise it is queued for the dedicated writer thread, which
    /// appends it to the WAL (when configured), applies the
    /// message-propagation round, and hot-publishes a fresh λ snapshot —
    /// all without pausing the worker pool. Subsequent recommendations for
    /// the affected paths shift by `2^λ` with no model reload.
    ///
    /// # Errors
    /// [`ServeError::Fenced`] once a higher-term leader has been observed
    /// (accepting the signal would fork the WAL lineage);
    /// [`ServeError::NotLeader`] on a standby that has not promoted (only
    /// the leader mints λ epochs); [`ServeError::Draining`] after
    /// [`ServingEngine::drain`] has begun.
    pub fn submit_feedback(&self, signal: SatisfactionSignal) -> Result<(), ServeError> {
        if let Some(observed) = self.shared.replication.fenced_by() {
            obs::ENGINE_REPLICATION_FENCED.inc();
            return Err(ServeError::Fenced {
                term: self.shared.replication.term(),
                observed,
            });
        }
        let mut state = self.shared.state.lock().expect("engine state poisoned");
        if state.following {
            return Err(ServeError::NotLeader);
        }
        let open = state.intake_open;
        let Some(tx) = state.feedback_tx.as_ref().filter(|_| open) else {
            return Err(ServeError::Draining);
        };
        // The send cannot fail while we hold the state lock: the λ-writer
        // only exits after shutdown takes `feedback_tx` under this lock.
        tx.send(FeedbackMsg::Signal(signal))
            .expect("lambda writer exited while intake open");
        state.stats.feedback_accepted += 1;
        obs::ENGINE_FEEDBACK_ACCEPTED.inc();
        Ok(())
    }

    /// Barrier: returns once every signal accepted before this call has
    /// been applied and published. Callers that need read-your-writes
    /// ordering (e.g. a feedback line followed by a recommend in the same
    /// stream) flush between the two.
    pub fn flush_feedback(&self) {
        let tx = {
            let state = self.shared.state.lock().expect("engine state poisoned");
            state.feedback_tx.clone()
        };
        let Some(tx) = tx else { return };
        let (ack_tx, ack_rx) = channel();
        if tx.send(FeedbackMsg::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// The current published λ snapshot (a cheap `Arc` clone). Only
    /// meaningful for single-shard engines (the default); sharded engines
    /// serve per-customer shards — use
    /// [`ServingEngine::lambda_snapshot_for`].
    pub fn lambda_snapshot(&self) -> Arc<LambdaSnapshot> {
        debug_assert_eq!(
            self.shared.lambdas.shards(),
            1,
            "lambda_snapshot() on a sharded engine; use lambda_snapshot_for(path)"
        );
        self.shared
            .lambdas
            .snapshot_shard(0)
            .expect("shard 0 always exists")
    }

    /// The current published λ snapshot covering `path`'s customer (a
    /// cheap `Arc` clone of the owning shard's epoch).
    pub fn lambda_snapshot_for(&self, path: &ResourcePath) -> Arc<LambdaSnapshot> {
        self.shared.lambdas.snapshot_for(path)
    }

    /// How many shards the engine's store and λ-state are split across.
    pub fn shards(&self) -> usize {
        self.shared.store.shards()
    }

    /// The currently published λ snapshot version.
    pub fn lambda_version(&self) -> u64 {
        self.shared.lambdas.version()
    }

    /// The leader term this engine serves under: minted or resumed at
    /// start, or minted by a standby's promotion. A standby that has not
    /// promoted reports the highest term its leader's stream carried.
    pub fn leader_term(&self) -> u64 {
        self.shared.replication.term()
    }

    /// The higher term that fenced this leader, if any. A fenced leader
    /// keeps serving reads but refuses feedback (its WAL lineage is
    /// frozen) and refuses new replication subscriptions.
    pub fn fenced_by(&self) -> Option<u64> {
        self.shared.replication.fenced_by()
    }

    /// Whether a higher-term leader has been observed.
    pub fn is_fenced(&self) -> bool {
        self.fenced_by().is_some()
    }

    /// The engine's replication fanout hub (shared with the listener).
    pub(crate) fn replication_hub(&self) -> Arc<ReplicationHub> {
        Arc::clone(&self.shared.replication)
    }

    /// The WAL path the engine appends to, when durability is configured.
    pub(crate) fn wal_path(&self) -> Option<PathBuf> {
        self.shared.wal_path.get().cloned()
    }

    /// The deployment the engine serves.
    pub(crate) fn deployment(&self) -> &TrainedLorentz {
        &self.shared.deployment
    }

    /// The live λ store, which a standby advances with its leader's
    /// deltas.
    pub(crate) fn lambdas(&self) -> &ShardedLambdaStore {
        &self.shared.lambdas
    }

    /// Resets a standby's λ-state in place to the deployment's batch λ at
    /// epoch 1, for a full resync.
    pub(crate) fn reset_lambdas(&self) -> Result<(), EngineError> {
        let personalizer = self.shared.deployment.personalizer().clone();
        self.shared
            .lambdas
            .reset(personalizer)
            .map_err(EngineError::Config)
    }

    /// Makes a following engine the leader of its lineage at `term`, on
    /// the λ it already serves: `wal` is the standby's replica log (every
    /// frame it applied, persisted before it was applied, up to
    /// `last_epoch`), whose term-`term` marker the caller has already made
    /// durable. The WAL goes to the running λ-writer, the epoch numbering
    /// continues past `last_epoch`, and feedback intake opens. The WAL's
    /// signals are not re-run: the λ-state already is the delta chain they
    /// produced, so readers never see a reset λ.
    pub(crate) fn promote(&self, wal: SignalWal, last_epoch: u64, term: u64) {
        let shared = &self.shared;
        shared.lambdas.restore_epoch(last_epoch);
        shared.replication.set_last_epoch(last_epoch);
        shared.replication.set_term(term);
        let _ = shared.wal_path.set(wal.path().to_path_buf());
        let mut state = shared.state.lock().expect("engine state poisoned");
        // Queued ahead of every signal the opened intake admits.
        if let Some(tx) = &state.feedback_tx {
            let _ = tx.send(FeedbackMsg::Wal(Box::new(wal)));
        }
        state.following = false;
    }

    /// Atomically re-publishes the degraded-path store with zero reader
    /// downtime: in-flight lookups finish on their captured snapshot,
    /// subsequent lookups see the new version. Returns the new store
    /// version.
    ///
    /// # Errors
    /// Returns [`LorentzError::InvalidConfig`] for invalid batches; the
    /// previous snapshot keeps serving.
    pub fn publish(&self, batch: PublishBatch) -> Result<u64, LorentzError> {
        self.shared.store.publish(batch)
    }

    /// The hot-swap store's current version.
    pub fn store_version(&self) -> u64 {
        self.shared.store.version()
    }

    /// A point-in-time copy of the request ledger. Only after
    /// [`ServingEngine::drain`] are the [`EngineStats`] invariants exact.
    pub fn stats(&self) -> EngineStats {
        self.shared
            .state
            .lock()
            .expect("engine state poisoned")
            .stats
    }

    /// Worker restarts the supervisor has performed so far.
    pub fn worker_restarts(&self) -> u32 {
        self.shared
            .supervisor
            .lock()
            .expect("engine supervisor poisoned")
            .restarts_used
    }

    /// Gracefully shuts down: closes intake (new submissions are rejected
    /// with [`ServeError::Draining`]), lets the workers finish every queued
    /// request, joins them, and returns the final ledger — for which
    /// `submitted = accepted + rejected` and `accepted = answered` hold
    /// exactly, panics included (a panicked request is an answered
    /// request).
    pub fn drain(self) -> EngineStats {
        self.shutdown();
        self.shared
            .state
            .lock()
            .expect("engine state poisoned")
            .stats
    }

    /// Closes intake (requests and feedback), wakes every worker, joins
    /// the λ-writer after it drains its channel, then joins the workers —
    /// looping because the supervisor may spawn replacements while earlier
    /// handles are being joined. Idempotent.
    fn shutdown(&self) {
        let feedback_tx = {
            let mut state = self.shared.state.lock().expect("engine state poisoned");
            state.intake_open = false;
            state.feedback_tx.take()
        };
        self.shared.work.notify_all();
        // Dropping the last sender closes the channel; the λ-writer
        // finishes every queued signal first, so after the join the
        // `feedback_accepted = feedback_applied` invariant holds.
        drop(feedback_tx);
        if let Some(writer) = self
            .shared
            .feedback_worker
            .lock()
            .expect("engine feedback worker poisoned")
            .take()
        {
            let _ = writer.join();
        }
        loop {
            let handles: Vec<JoinHandle<()>> =
                std::mem::take(&mut *self.shared.workers.lock().expect("engine workers poisoned"));
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for ServingEngine {
    /// Dropping the engine drains it: queued work is finished, not lost.
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns one worker thread. Replacement workers pass a nonzero
/// `initial_delay` (the supervisor's backoff), slept before the first pop.
fn spawn_worker(
    shared: &Arc<Shared>,
    tx: &Sender<ServeResponse>,
    index: usize,
    initial_delay: Duration,
) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    let tx = tx.clone();
    std::thread::Builder::new()
        .name(format!("lorentz-serve-{index}"))
        .spawn(move || {
            if !initial_delay.is_zero() {
                std::thread::sleep(initial_delay);
            }
            if worker_loop(&shared, &tx) == WorkerExit::Panicked {
                maybe_restart(&shared, &tx);
            }
        })
}

/// Decides whether a crashed worker gets a replacement: only while there is
/// (or can be) work left, and only within the restart cap. The replacement
/// sleeps an exponential backoff before serving, so a poison-pill request
/// stream can't spin the pool.
fn maybe_restart(shared: &Arc<Shared>, tx: &Sender<ServeResponse>) {
    let mut supervisor = shared
        .supervisor
        .lock()
        .expect("engine supervisor poisoned");
    let work_pending = {
        let state = shared.state.lock().expect("engine state poisoned");
        state.intake_open || !state.queue.is_empty()
    };
    if !work_pending || supervisor.restarts_used >= shared.config.max_worker_restarts {
        return;
    }
    let backoff = shared
        .config
        .restart_backoff
        .saturating_mul(1u32 << supervisor.restarts_used.min(16))
        .min(Duration::from_secs(1));
    supervisor.restarts_used += 1;
    let index = supervisor.next_id;
    supervisor.next_id += 1;
    drop(supervisor);
    if let Ok(handle) = spawn_worker(shared, tx, index, backoff) {
        obs::ENGINE_WORKER_RESTARTS.inc();
        shared
            .workers
            .lock()
            .expect("engine workers poisoned")
            .push(handle);
    }
}

/// Worker body: pop jobs until the queue is empty *and* intake is closed,
/// serving each and emitting exactly one response per job. A panicking
/// handler is answered with [`ServeError::Panicked`] by [`run_job`], and
/// the loop exits with [`WorkerExit::Panicked`] so the supervisor can
/// replace the thread.
fn worker_loop(shared: &Shared, tx: &Sender<ServeResponse>) -> WorkerExit {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("engine state poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    obs::ENGINE_QUEUE_DEPTH.set(state.queue.len() as i64);
                    break job;
                }
                if !state.intake_open {
                    return WorkerExit::Drained;
                }
                state = shared.work.wait(state).expect("engine state poisoned");
            }
        };
        let (response, panicked) = run_job(shared, job);
        // The receiver may have been dropped by an impatient caller; the
        // answer ledger is still the source of truth.
        let _ = tx.send(response);
        if panicked {
            obs::ENGINE_WORKER_PANICS.inc();
            return WorkerExit::Panicked;
        }
    }
}

/// Counts one offered request and refuses it while intake is closed. The
/// caller holds the state lock and counts the acceptance itself.
fn admit(state: &mut State) -> Result<(), ServeError> {
    state.stats.submitted += 1;
    obs::ENGINE_SUBMITTED.inc();
    if !state.intake_open {
        state.stats.rejected += 1;
        obs::ENGINE_REJECTED.inc();
        return Err(ServeError::Draining);
    }
    Ok(())
}

/// Serves one accepted job under the panic boundary and closes its ledger
/// entry: every job is answered exactly once, and a caught panic is an
/// answered request carrying [`ServeError::Panicked`]. Returns the
/// response and whether the handler panicked.
fn run_job(shared: &Shared, job: Job) -> (ServeResponse, bool) {
    // Everything needed to answer the request survives outside the
    // closure, because the Job moves in and a panic destroys it.
    let id = job.request.id;
    let degraded = job.degraded;
    let submitted_at = job.submitted_at;
    let outcome = catch_unwind(AssertUnwindSafe(|| serve_job(shared, job)));
    let mut state = shared.state.lock().expect("engine state poisoned");
    state.stats.answered += 1;
    obs::ENGINE_ANSWERED.inc();
    match outcome {
        Ok((response, timed_out)) => {
            if timed_out {
                state.stats.timed_out += 1;
            }
            (response, false)
        }
        Err(payload) => {
            state.stats.panicked += 1;
            drop(state);
            let latency_ns = u64::try_from(submitted_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
            obs::ENGINE_E2E_SPAN_NS.record(latency_ns);
            let response = ServeResponse {
                id,
                result: Err(ServeError::Panicked(panic_message(payload.as_ref()))),
                degraded,
                latency_ns,
            };
            (response, true)
        }
    }
}

/// The λ-writer body: drains the feedback channel in order, WAL-appending
/// (when durability is configured), applying, and hot-publishing each
/// signal. Exits when every sender is gone — shutdown drops the intake
/// handle only after closing admission, so nothing accepted is lost.
fn feedback_loop(shared: &Shared, rx: &Receiver<FeedbackMsg>, mut wal: Option<SignalWal>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            FeedbackMsg::Signal(signal) => {
                shared.lambdas.apply_signal(&signal);
                // Publish only the owning shard, at a globally minted epoch
                // (so the WAL frames stay strictly increasing).
                let delta = shared.lambdas.publish_delta_for(&signal.path);
                let epoch = delta.epoch;
                // Frame the epoch-stamped record once; the same bytes go
                // to the WAL and to every TCP follower, so the replicated
                // stream is byte-identical to the on-disk log. A failed
                // append loses durability for this signal but not
                // liveness: the epoch is already published, and the
                // ledger still closes. A record `frame_record` refuses (a
                // non-finite γ or λ, which replay would reject) is neither
                // logged nor sent.
                if let Ok(frame) = frame_record(&WalRecord { signal, delta }) {
                    if let Some(wal) = wal.as_mut() {
                        let _ = wal.append_frame(&frame);
                    }
                    shared.replication.broadcast(epoch, frame);
                }
                {
                    let mut state = shared.state.lock().expect("engine state poisoned");
                    state.stats.feedback_applied += 1;
                }
                obs::ENGINE_FEEDBACK_APPLIED.inc();
            }
            FeedbackMsg::Flush(ack) => {
                // The sender may have stopped waiting; the barrier already
                // did its job by ordering behind earlier signals.
                let _ = ack.send(());
            }
            FeedbackMsg::Wal(promoted) => wal = Some(*promoted),
        }
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The request id whose handler panics, in test builds only.
#[cfg(test)]
pub(crate) const PANIC_ID: u64 = u64::MAX;

/// Serves one job: deadline check (the request's own deadline, else the
/// engine default, counted from submission), then the degraded store path
/// or the live model. Returns the response and whether the deadline
/// expired.
fn serve_job(shared: &Shared, job: Job) -> (ServeResponse, bool) {
    #[cfg(test)]
    if job.request.id == PANIC_ID {
        panic!("injected worker panic");
    }
    let Job {
        request,
        submitted_at,
        degraded,
    } = job;
    let deadline = request.deadline.or(shared.config.default_deadline);
    let mut timed_out = false;
    let result = if deadline.is_some_and(|d| submitted_at.elapsed() >= d) {
        timed_out = true;
        obs::ENGINE_TIMED_OUT.inc();
        Err(ServeError::DeadlineExceeded(
            u64::try_from(submitted_at.elapsed().as_nanos()).unwrap_or(u64::MAX),
        ))
    } else {
        let borrowed = RecommendRequest {
            profile: request.profile.iter().map(|v| v.as_deref()).collect(),
            offering: request.offering,
            path: request.path,
        };
        // Pin one λ snapshot (the shard owning this request's customer)
        // for the whole request: a feedback publish landing mid-serve
        // changes later requests, never this one.
        let lambdas = shared.lambdas.snapshot_for(&request.path);
        let served = if degraded {
            // Serve from the hot-swap store: the snapshot pins one whole
            // published version for this request, every key and default
            // from the same publish; later publishes land in later
            // snapshots.
            let snapshot = shared.store.snapshot();
            StoreOnly::with_probe_and_lambdas(&shared.deployment, &*snapshot, &lambdas)
                .recommend_one(&borrowed)
        } else {
            shared
                .deployment
                .live_engine_with_lambdas(shared.config.kind, &lambdas)
                .recommend_one(&borrowed)
        };
        served.map_err(ServeError::Recommend)
    };
    let latency_ns = u64::try_from(submitted_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
    obs::ENGINE_E2E_SPAN_NS.record(latency_ns);
    (
        ServeResponse {
            id: request.id,
            result,
            degraded,
            latency_ns,
        },
        timed_out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorentz_types::{CustomerId, ResourceGroupId, ServerOffering, SubscriptionId};

    #[test]
    fn the_pool_starts_on_the_first_submit() {
        let deployment = crate::test_deployment();
        let (engine, responses) = ServingEngine::start(
            Arc::clone(&deployment),
            ServeConfig {
                workers: 3,
                ..ServeConfig::default()
            },
        )
        .expect("engine start");
        let request = |id| ServeRequest {
            id,
            profile: vec![None; deployment.profiles().schema().len()],
            offering: ServerOffering::GeneralPurpose,
            path: ResourcePath::new(CustomerId(0), SubscriptionId(0), ResourceGroupId(0)),
            deadline: None,
        };
        let pool = |engine: &ServingEngine| engine.shared.workers.lock().unwrap().len();
        assert_eq!(pool(&engine), 0, "no worker before any submit");
        engine.answer(request(1)).unwrap();
        assert_eq!(
            pool(&engine),
            0,
            "answering on the caller's thread needs none"
        );
        engine.submit(request(2)).unwrap();
        engine.submit(request(3)).unwrap();
        assert_eq!(pool(&engine), 3, "the first submit starts the whole pool");
        let stats = engine.drain();
        assert_eq!((stats.accepted, stats.answered), (3, 3));
        let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, [2, 3], "only submitted requests reach the channel");
    }

    #[test]
    fn a_worker_panic_is_answered_and_the_worker_restarts() {
        let deployment = crate::test_deployment();
        // A single worker makes the restart deterministic: the panic
        // strands the rest of the queue, which only a supervisor-spawned
        // replacement can serve.
        let (engine, responses) = ServingEngine::start(
            Arc::clone(&deployment),
            ServeConfig {
                workers: 1,
                degraded_threshold: None,
                default_deadline: None,
                ..ServeConfig::default()
            },
        )
        .expect("engine start");

        // Exactly one job panics mid-handler; the rest must be unaffected.
        let total = 24u64;
        for i in 0..total {
            engine
                .submit(ServeRequest {
                    id: if i == 3 { PANIC_ID } else { i },
                    profile: vec![None; deployment.profiles().schema().len()],
                    offering: ServerOffering::GeneralPurpose,
                    path: ResourcePath::new(CustomerId(0), SubscriptionId(0), ResourceGroupId(0)),
                    deadline: None,
                })
                .unwrap();
        }
        let stats = engine.drain();

        // The drain ledger closes exactly, panic included: the panicked
        // request is still an *answered* request.
        assert_eq!(stats.submitted, total);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.submitted, stats.accepted + stats.rejected);
        assert_eq!(stats.accepted, stats.answered);
        assert_eq!(stats.panicked, 1, "exactly one injected panic");

        let mut panicked = 0u64;
        let mut answered = 0u64;
        for response in responses {
            answered += 1;
            match response.result {
                Err(ServeError::Panicked(msg)) => {
                    panicked += 1;
                    assert_eq!(response.id, PANIC_ID);
                    assert_eq!(msg, "injected worker panic", "the payload is carried");
                }
                Err(other) => panic!("unexpected error: {other:?}"),
                Ok(_) => {}
            }
        }
        assert_eq!(answered, total, "every accepted request got a response");
        assert_eq!(panicked, 1, "exactly one Panicked response");

        // The supervisor replaced the crashed worker and the counters
        // agree. No other test in this binary panics a worker.
        let snapshot = obs::snapshot();
        assert_eq!(snapshot.counter("engine.worker_panics"), Some(1));
        let restarts = snapshot.counter("engine.worker_restarts").unwrap_or(0);
        assert!(restarts >= 1, "worker must have been restarted: {restarts}");
    }
}
