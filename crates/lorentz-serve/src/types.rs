//! Request, response, configuration, and accounting types for the engine.

use lorentz_core::{ModelKind, Recommendation};
use lorentz_types::{LorentzError, ResourcePath, ServerOffering};
use std::time::Duration;
use thiserror::Error;

/// How the serving engine behaves under load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Worker threads serving the queue (clamped to at least 1).
    pub workers: usize,
    /// Maximum queued (accepted but unserved) requests; submissions beyond
    /// this are rejected with [`ServeError::Saturated`](crate::ServeError).
    pub queue_capacity: usize,
    /// Queue depth at or above which newly admitted requests are served
    /// from the prediction store instead of the live model (`None` = never
    /// degrade). Must be below `queue_capacity` to ever trigger.
    pub degraded_threshold: Option<usize>,
    /// Deadline applied to requests that don't carry their own; requests
    /// still queued past their deadline are answered with
    /// [`ServeError::DeadlineExceeded`](crate::ServeError) (`None` = no
    /// default deadline).
    pub default_deadline: Option<Duration>,
    /// The live Stage-2 model served on the non-degraded path.
    pub kind: ModelKind,
    /// How many crashed workers the supervisor will replace over the
    /// engine's lifetime before letting the pool shrink.
    pub max_worker_restarts: u32,
    /// Base delay before a replacement worker starts; doubles per restart
    /// already used, capped at one second.
    pub restart_backoff: Duration,
    /// Power-of-two shard count for the hot-swap prediction store and the
    /// λ-state. 1 (the default) degenerates to the unsharded engine; larger
    /// counts make every λ-delta a single-shard publish.
    pub shards: usize,
}

impl Default for ServeConfig {
    /// 4 workers, a 1024-deep queue, degraded mode at 3/4 capacity, no
    /// default deadline, hierarchical live model, up to 8 worker restarts
    /// starting at a 10 ms backoff, a single shard.
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 1024,
            degraded_threshold: Some(768),
            default_deadline: None,
            kind: ModelKind::Hierarchical,
            max_worker_restarts: 8,
            restart_backoff: Duration::from_millis(10),
            shards: 1,
        }
    }
}

/// One owned request submitted to the engine. The borrowed
/// [`RecommendRequest`](lorentz_core::RecommendRequest) view is rebuilt by
/// the worker that serves it.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Caller-chosen correlation id, echoed back on the response.
    pub id: u64,
    /// Raw profile feature values in schema order (`None` = missing tag).
    pub profile: Vec<Option<String>>,
    /// The pre-selected server offering.
    pub offering: ServerOffering,
    /// Customer / subscription / resource group the resource will live in.
    pub path: ResourcePath,
    /// Per-request deadline measured from submission; overrides the engine
    /// default when set.
    pub deadline: Option<Duration>,
}

/// The engine's answer to one accepted request.
#[derive(Debug)]
pub struct ServeResponse {
    /// The correlation id of the [`ServeRequest`] this answers.
    pub id: u64,
    /// The recommendation, or why it could not be produced.
    pub result: Result<Recommendation, ServeError>,
    /// Whether this request was served on the degraded (store-lookup) path.
    pub degraded: bool,
    /// Submit-to-answer latency in nanoseconds.
    pub latency_ns: u64,
}

/// Why the engine refused or failed a request.
#[derive(Debug, Error)]
pub enum ServeError {
    /// The bounded submission queue was full; the request was rejected at
    /// admission (backpressure, not buffering).
    #[error("serving queue is saturated ({0} requests queued)")]
    Saturated(usize),
    /// The engine is draining; intake is closed.
    #[error("serving engine is draining; intake is closed")]
    Draining,
    /// Feedback reached a standby that has not promoted: only the leader
    /// mints λ epochs. Reads keep working. On the wire its kind is
    /// `not_leader`.
    #[error("not the leader: this standby serves reads and refuses feedback until it promotes")]
    NotLeader,
    /// The request spent longer than its deadline in the queue and was
    /// answered with an error instead of being served late.
    #[error("deadline exceeded after {0} ns in queue")]
    DeadlineExceeded(u64),
    /// The underlying recommendation failed (unknown offering, malformed
    /// profile, empty store, ...).
    #[error("recommendation failed: {0}")]
    Recommend(LorentzError),
    /// The handler panicked while serving this request. The panic was
    /// caught at the worker boundary: the request is still answered (this
    /// error), the ledger still closes, and the supervisor replaces the
    /// worker.
    #[error("request handler panicked: {0}")]
    Panicked(String),
    /// This leader has been fenced: a leader at a strictly higher term owns
    /// the WAL lineage, so accepting feedback here would fork it. Reads keep
    /// working; only feedback intake is refused.
    #[error("leader at term {term} is fenced: a term-{observed} leader has superseded it")]
    Fenced {
        /// The term this (former) leader held.
        term: u64,
        /// The higher term it observed.
        observed: u64,
    },
}

/// Per-request failure type, as seen in [`ServeResponse::result`]. Alias of
/// [`ServeError`]: admission errors ([`ServeError::Saturated`],
/// [`ServeError::Draining`]) are returned from `submit`, the rest arrive on
/// the response channel.
pub type RequestError = ServeError;

/// Why the engine itself (not an individual request) failed.
#[derive(Debug, Error)]
pub enum EngineError {
    /// A thread the engine needs from the start (the λ-writer, a
    /// follower's tail thread) could not be spawned. Nothing else has
    /// been spawned by then, so a failed start leaks nothing.
    #[error("failed to spawn thread '{name}': {source}")]
    SpawnFailed {
        /// Name of the thread that failed to spawn.
        name: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// The feedback WAL could not be opened or replayed at startup.
    #[error("feedback WAL failed: {0}")]
    Wal(lorentz_core::StoreError),
    /// The engine configuration is invalid (e.g. a non-power-of-two shard
    /// count).
    #[error("invalid engine configuration: {0}")]
    Config(LorentzError),
    /// A replication subscription could not be established — the connect
    /// or handshake failed, or the leader refused it with a typed error
    /// (e.g. `follower_ahead`).
    #[error("replication failed: {0}")]
    Replication(crate::replication::ReplicationError),
}

impl From<lorentz_core::StoreError> for EngineError {
    fn from(source: lorentz_core::StoreError) -> Self {
        Self::Wal(source)
    }
}

/// The engine's request ledger. After [`drain`](crate::ServingEngine::drain)
/// the invariants hold exactly: `submitted = accepted + rejected`,
/// `accepted = answered`, and `feedback_accepted = feedback_applied` —
/// every accepted request is answered exactly once, every offered request
/// is accounted for, and every accepted feedback signal has been applied
/// and published.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Requests offered to [`submit`](crate::ServingEngine::submit).
    pub submitted: u64,
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests refused at admission (queue full or intake closed).
    pub rejected: u64,
    /// Responses emitted (success, recommendation error, or deadline).
    pub answered: u64,
    /// Accepted requests answered with a deadline error.
    pub timed_out: u64,
    /// Requests admitted in degraded (store-lookup) mode.
    pub degraded: u64,
    /// Requests whose handler panicked; each was still answered (with
    /// [`ServeError::Panicked`]), so `panicked ⊆ answered`.
    pub panicked: u64,
    /// Satisfaction signals admitted by
    /// [`submit_feedback`](crate::ServingEngine::submit_feedback).
    pub feedback_accepted: u64,
    /// Satisfaction signals the λ-writer has applied and published. Catches
    /// up to `feedback_accepted` once the engine drains.
    pub feedback_applied: u64,
}
