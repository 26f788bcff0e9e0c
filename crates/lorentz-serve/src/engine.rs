//! The worker-pool request engine over hot-swappable store snapshots.

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
use lorentz_fault::fail_point;
use lorentz_types::{LorentzError, ResourcePath};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One accepted request waiting in the queue.
struct Job {
    request: ServeRequest,
    submitted_at: Instant,
    deadline_at: Option<Instant>,
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
}

/// Mutex-guarded engine state: the bounded queue, the intake flag, the
/// feedback intake handle, and the request ledger.
struct State {
    queue: VecDeque<Job>,
    intake_open: bool,
    /// Feedback intake: present while the engine accepts signals, taken
    /// (and thereby closed) by shutdown so the λ-writer drains and exits.
    feedback_tx: Option<Sender<FeedbackMsg>>,
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
    /// The λ-writer thread, joined at shutdown after its channel closes.
    feedback_worker: Mutex<Option<JoinHandle<()>>>,
    supervisor: Mutex<Supervisor>,
    /// Fanout point for TCP replication: the λ-writer broadcasts each
    /// framed WAL record here; [`crate::serve_replication`] subscribes
    /// follower outboxes. Present (but idle) even without a WAL.
    replication: Arc<ReplicationHub>,
    /// The WAL path, kept so the replication listener can replay it for
    /// resuming followers. `None` for engines without durability.
    wal_path: Option<PathBuf>,
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
    /// Spawns the worker pool and returns the engine plus the response
    /// channel. Every accepted request produces exactly one
    /// [`ServeResponse`] on the channel; the channel closes once the engine
    /// is drained (or dropped) and all workers have exited.
    ///
    /// The hot-swap store is seeded with a copy of `deployment`'s published
    /// store, so degraded-mode lookups answer from the same world as the
    /// live model until the first [`ServingEngine::publish`].
    ///
    /// # Errors
    /// [`EngineError::SpawnFailed`] when the OS refuses a worker thread;
    /// workers spawned before the failure are shut down first, so nothing
    /// leaks.
    pub fn start(
        deployment: Arc<TrainedLorentz>,
        config: ServeConfig,
    ) -> Result<(Self, Receiver<ServeResponse>), EngineError> {
        Self::start_inner(deployment, config, None, None)
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
        Self::start_inner(deployment, config, Some((wal, recovery)), None)
    }

    /// Like [`ServingEngine::start_with_wal`], but for a standby taking
    /// over leadership: a fresh leader term is minted strictly above both
    /// the highest term recovered from the WAL and `observed_term` (the
    /// highest term the promoting follower saw on the wire), and appended
    /// to the WAL as a term marker before any feedback is accepted. Every
    /// replication handshake then carries the new term, which is what
    /// fences the old leader when the partition heals.
    ///
    /// # Errors
    /// As [`ServingEngine::start_with_wal`].
    pub fn start_promoted(
        deployment: Arc<TrainedLorentz>,
        config: ServeConfig,
        wal_path: impl AsRef<Path>,
        observed_term: u64,
    ) -> Result<(Self, Receiver<ServeResponse>), EngineError> {
        let (wal, recovery) = SignalWal::open(wal_path)?;
        Self::start_inner(
            deployment,
            config,
            Some((wal, recovery)),
            Some(observed_term),
        )
    }

    fn start_inner(
        deployment: Arc<TrainedLorentz>,
        config: ServeConfig,
        wal: Option<(SignalWal, WalRecovery)>,
        promotion: Option<u64>,
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
        // node was down — only promotions may raise the term); a promotion
        // mints strictly above everything recovered or observed. Minted
        // terms are made durable as a WAL marker before the λ-writer (and
        // therefore any feedback append) starts.
        let term = match promotion {
            Some(observed) => last_term.max(observed) + 1,
            None => last_term.max(1),
        };
        if term != last_term {
            if let Some(wal) = wal.as_mut() {
                wal.append_term(term).map_err(EngineError::Wal)?;
            }
        }
        let replication = Arc::new(ReplicationHub::new());
        replication.set_last_epoch(last_epoch);
        replication.set_term(term);
        let wal_path = wal.as_ref().map(|w| w.path().to_path_buf());
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
                stats: EngineStats::default(),
            }),
            work: Condvar::new(),
            workers: Mutex::new(Vec::with_capacity(worker_count)),
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
        for i in 0..worker_count {
            match spawn_worker(&shared, &tx, i, Duration::ZERO) {
                Ok(handle) => shared
                    .workers
                    .lock()
                    .expect("engine workers poisoned")
                    .push(handle),
                Err(source) => {
                    // `engine` drops here, which closes intake and joins
                    // the workers already running.
                    return Err(EngineError::SpawnFailed {
                        name: format!("lorentz-serve-{i}"),
                        source,
                    });
                }
            }
        }
        Ok((engine, rx))
    }

    /// Offers one request to the engine. Admission is O(1) under the state
    /// lock: a full queue or closed intake rejects immediately
    /// (backpressure), otherwise the request is queued — in degraded mode
    /// if the queue is already past the configured threshold — and a worker
    /// is woken.
    ///
    /// # Errors
    /// [`ServeError::Saturated`] when the queue is at capacity,
    /// [`ServeError::Draining`] after [`ServingEngine::drain`] has begun.
    /// Rejected requests produce no [`ServeResponse`].
    pub fn submit(&self, request: ServeRequest) -> Result<(), ServeError> {
        let now = Instant::now();
        let mut state = self.shared.state.lock().expect("engine state poisoned");
        state.stats.submitted += 1;
        obs::ENGINE_SUBMITTED.inc();
        if !state.intake_open {
            state.stats.rejected += 1;
            obs::ENGINE_REJECTED.inc();
            return Err(ServeError::Draining);
        }
        let depth = state.queue.len();
        if depth >= self.shared.config.queue_capacity {
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
        let deadline_at = request
            .deadline
            .or(self.shared.config.default_deadline)
            .map(|d| now + d);
        state.queue.push_back(Job {
            request,
            submitted_at: now,
            deadline_at,
            degraded,
        });
        obs::ENGINE_QUEUE_DEPTH.set(state.queue.len() as i64);
        drop(state);
        self.shared.work.notify_one();
        Ok(())
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
    /// [`ServeError::Draining`] after [`ServingEngine::drain`] has begun.
    pub fn submit_feedback(&self, signal: SatisfactionSignal) -> Result<(), ServeError> {
        if let Some(observed) = self.shared.replication.fenced_by() {
            obs::ENGINE_REPLICATION_FENCED.inc();
            return Err(ServeError::Fenced {
                term: self.shared.replication.term(),
                observed,
            });
        }
        let mut state = self.shared.state.lock().expect("engine state poisoned");
        let Some(tx) = state.feedback_tx.as_ref().filter(|_| state.intake_open) else {
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

    /// Followers currently subscribed to this engine's replication hub.
    pub fn replication_followers(&self) -> usize {
        self.shared.replication.subscriber_count()
    }

    /// The leader term this engine serves under (minted or resumed at
    /// start; see [`ServingEngine::start_promoted`]).
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
        self.shared.wal_path.clone()
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

    /// Requests currently queued (accepted, not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("engine state poisoned")
            .queue
            .len()
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
/// handler is caught at this boundary: the request is answered with
/// [`ServeError::Panicked`], the ledger is updated, and the loop exits with
/// [`WorkerExit::Panicked`] so the supervisor can replace the thread.
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
        // Everything needed to answer the request survives outside the
        // closure, because the Job moves in and a panic destroys it.
        let id = job.request.id;
        let degraded = job.degraded;
        let submitted_at = job.submitted_at;
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_job(shared, job)));
        match outcome {
            Ok((response, timed_out)) => {
                {
                    let mut state = shared.state.lock().expect("engine state poisoned");
                    state.stats.answered += 1;
                    if timed_out {
                        state.stats.timed_out += 1;
                    }
                }
                obs::ENGINE_ANSWERED.inc();
                // The receiver may have been dropped by an impatient
                // caller; the answer ledger above is still the source of
                // truth.
                let _ = tx.send(response);
            }
            Err(payload) => {
                {
                    let mut state = shared.state.lock().expect("engine state poisoned");
                    state.stats.answered += 1;
                    state.stats.panicked += 1;
                }
                obs::ENGINE_ANSWERED.inc();
                obs::ENGINE_WORKER_PANICS.inc();
                let latency_ns =
                    u64::try_from(submitted_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                obs::ENGINE_E2E_SPAN_NS.record(latency_ns);
                let _ = tx.send(ServeResponse {
                    id,
                    result: Err(ServeError::Panicked(panic_message(payload.as_ref()))),
                    degraded,
                    latency_ns,
                });
                return WorkerExit::Panicked;
            }
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
                // ledger still closes.
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

/// Serves one dequeued job: deadline check, then the degraded store path or
/// the live model. Returns the response and whether the deadline expired.
fn serve_job(shared: &Shared, job: Job) -> (ServeResponse, bool) {
    fail_point!("serve.worker.panic");
    let Job {
        request,
        submitted_at,
        deadline_at,
        degraded,
    } = job;
    let mut timed_out = false;
    let result = if deadline_at.is_some_and(|deadline| Instant::now() >= deadline) {
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
