//! Process-wide metric definitions for the train and serve paths.
//!
//! Every metric is a `static` atomic from [`lorentz_obs`], so hot paths pay
//! only the relaxed atomic op — no registry lookup, no allocation, no lock.
//! The [`registry`] assembles them into a named [`MetricsSnapshot`] (the
//! `--metrics-out` payload). Metric names are dotted paths grouped by
//! subsystem; span histograms carry a `.span_ns` suffix and record
//! nanoseconds.
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `train.stage1.span_ns` | histogram | one record per Stage-1 rightsizing pass |
//! | `train.stage1.records` | counter | fleet records rightsized |
//! | `train.stage2.span_ns` | histogram | one record per full Stage-2 run |
//! | `train.stage2.offering_span_ns` | histogram | one record per per-offering worker |
//! | `train.stage2.offerings` | counter | offering models trained |
//! | `train.publish.span_ns` | histogram | store-publish duration |
//! | `train.publish.entries` | counter | store keys published |
//! | `train.personalizer.span_ns` | histogram | personalizer-init duration |
//! | `train.personalizer.profiles` | counter | profile paths registered at init |
//! | `serve.recommend.span_ns` | histogram | one record per single live-model recommend |
//! | `serve.recommend_batch.span_ns` | histogram | one record per live-model batch |
//! | `serve.recommend.requests` / `.errors` | counter | live-model requests / failures (single + batched) |
//! | `serve.recommend_batch.batches` | counter | live-model batch calls |
//! | `serve.store.span_ns` | histogram | one record per single store-path recommend |
//! | `serve.store_batch.span_ns` | histogram | one record per store-path batch |
//! | `serve.store.requests` / `.errors` | counter | store-path requests / failures (single + batched) |
//! | `serve.store_batch.batches` | counter | store-path batch calls |
//! | `store.lookup.hits` / `.defaults` / `.misses` | counter | key hit / default fallback / not-found outcomes |
//! | `store.publishes` | counter | successful store publishes |
//! | `store.save.generations` | counter | snapshot generations committed by the durable store |
//! | `store.save.retries` | counter | snapshot writes that needed at least one retry |
//! | `store.recovery.loads` | counter | durable-store loads attempted |
//! | `store.recovery.fallbacks` | counter | generations skipped as corrupt during load |
//! | `personalizer.signals` | counter | satisfaction signals applied |
//! | `personalizer.profiles_touched` | counter | profiles updated across all propagation rounds |
//! | `personalizer.lambda.publishes` | counter | λ epochs published by the λ store |
//! | `personalizer.lambda.delta_keys` | counter | changed λ keys carried by published deltas |
//! | `personalizer.lambda.compactions` | counter | overlay generations folded into a new base |
//! | `personalizer.wal.appends` | counter | signals appended durably to the WAL |
//! | `personalizer.wal.replayed` | counter | signals replayed from the WAL at startup |
//! | `personalizer.wal.torn_tails` | counter | torn WAL tails truncated during recovery |
//! | `engine.queue.depth` | gauge | serving-engine submission queue depth |
//! | `engine.submitted` | counter | requests offered to the serving engine |
//! | `engine.accepted` | counter | requests admitted to the queue |
//! | `engine.rejected` | counter | requests refused at admission (queue full or intake closed) |
//! | `engine.answered` | counter | responses emitted (success, error, or deadline) |
//! | `engine.timed_out` | counter | accepted requests answered with a deadline error |
//! | `engine.degraded` | counter | requests served from the store because the queue was saturated |
//! | `engine.worker_panics` | counter | pool requests whose handler panicked (answered as `Panicked`) |
//! | `engine.worker_restarts` | counter | crashed workers replaced by the supervisor |
//! | `engine.e2e.span_ns` | histogram | submit-to-answer latency per request |
//! | `engine.feedback.accepted` | counter | feedback signals admitted to the λ-writer |
//! | `engine.feedback.applied` | counter | feedback signals applied and published |
//! | `engine.replication.applied` | counter | delta records a follower applied from the WAL |
//! | `engine.replication.lag_epochs` | gauge | epochs a follower trails the latest WAL record |
//! | `engine.replication.followers` | gauge | subscribers currently attached to the replication listener |
//! | `engine.replication.bytes_sent` | counter | framed WAL bytes sent to subscribers |
//! | `engine.replication.resume_replays` | counter | subscriptions resumed from a follower epoch via on-disk replay |
//! | `engine.replication.full_resyncs` | counter | subscriptions the log could not resume, answered with a full resync |
//! | `engine.replication.max_follower_lag` | gauge | epochs the slowest attached follower trails the leader |
//! | `engine.replication.promotions` | counter | followers promoted to serving leader after leader loss |
//! | `engine.replication.duplicates` | counter | re-delivered already-applied delta epochs skipped as idempotent no-ops |
//! | `engine.replication.fenced` | counter | feedback submissions rejected because the leader is fenced by a higher term |
//! | `engine.replication.demotions` | counter | promoted leaders that fenced themselves after observing a higher term |
//! | `engine.net.connections` | counter | TCP connections accepted by the net front end |
//! | `engine.net.active_connections` | gauge | TCP connections currently open |
//! | `engine.net.frames_in` | counter | request frames decoded off sockets |
//! | `engine.net.frames_out` | counter | response frames written to sockets |
//! | `engine.net.frame_errors` | counter | frames rejected before reaching the engine |
//! | `engine.net.disconnects` | counter | connections ended by an I/O error |
//! | `engine.net.dropped_responses` | counter | reply frames not written because the peer was gone |

use lorentz_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Once;

pub use lorentz_obs::{HistogramSnapshot, MetricsSnapshot};

// Stage spans and counts of the daily batch job (Fig. 8 A→C).
pub(crate) static STAGE1_SPAN_NS: Histogram = Histogram::new();
pub(crate) static STAGE1_RECORDS: Counter = Counter::new();
pub(crate) static STAGE2_SPAN_NS: Histogram = Histogram::new();
pub(crate) static STAGE2_OFFERING_SPAN_NS: Histogram = Histogram::new();
pub(crate) static STAGE2_OFFERINGS: Counter = Counter::new();
pub(crate) static PUBLISH_SPAN_NS: Histogram = Histogram::new();
pub(crate) static PUBLISH_ENTRIES: Counter = Counter::new();
pub(crate) static PERSONALIZER_INIT_SPAN_NS: Histogram = Histogram::new();
pub(crate) static PERSONALIZER_PROFILES: Counter = Counter::new();

// Live-model serving (TrainedLorentz::recommend / recommend_batch).
pub(crate) static RECOMMEND_SPAN_NS: Histogram = Histogram::new();
pub(crate) static RECOMMEND_BATCH_SPAN_NS: Histogram = Histogram::new();
pub(crate) static RECOMMEND_REQUESTS: Counter = Counter::new();
pub(crate) static RECOMMEND_ERRORS: Counter = Counter::new();
pub(crate) static RECOMMEND_BATCHES: Counter = Counter::new();

// Store-backed serving (recommend_from_store / recommend_batch_from_store).
pub(crate) static STORE_SERVE_SPAN_NS: Histogram = Histogram::new();
pub(crate) static STORE_SERVE_BATCH_SPAN_NS: Histogram = Histogram::new();
pub(crate) static STORE_SERVE_REQUESTS: Counter = Counter::new();
pub(crate) static STORE_SERVE_ERRORS: Counter = Counter::new();
pub(crate) static STORE_SERVE_BATCHES: Counter = Counter::new();

// Prediction-store lookup outcomes (shared-store and TrainedLorentz paths).
pub(crate) static STORE_HITS: Counter = Counter::new();
pub(crate) static STORE_DEFAULTS: Counter = Counter::new();
pub(crate) static STORE_MISSES: Counter = Counter::new();
pub(crate) static STORE_PUBLISHES: Counter = Counter::new();

// Durable-store persistence and recovery (`store::durability`).
pub(crate) static STORE_SAVE_GENERATIONS: Counter = Counter::new();
pub(crate) static STORE_SAVE_RETRIES: Counter = Counter::new();
pub(crate) static STORE_RECOVERY_LOADS: Counter = Counter::new();
pub(crate) static STORE_RECOVERY_FALLBACKS: Counter = Counter::new();

// Stage-3 signal propagation.
pub(crate) static SIGNALS_APPLIED: Counter = Counter::new();
pub(crate) static SIGNAL_PROFILES_TOUCHED: Counter = Counter::new();

// Online Stage-3 state: λ-epoch publishes and the signal WAL.
pub(crate) static LAMBDA_PUBLISHES: Counter = Counter::new();
pub(crate) static LAMBDA_DELTA_KEYS: Counter = Counter::new();
pub(crate) static LAMBDA_COMPACTIONS: Counter = Counter::new();
pub(crate) static WAL_APPENDS: Counter = Counter::new();
pub(crate) static WAL_REPLAYED: Counter = Counter::new();
pub(crate) static WAL_TORN_TAILS: Counter = Counter::new();

// The concurrent serving engine (`lorentz-serve`). These are `pub` so the
// engine crate can record into the same process-wide registry that
// `--metrics-out` snapshots.

/// Submission queue depth (set on every enqueue/dequeue).
pub static ENGINE_QUEUE_DEPTH: Gauge = Gauge::new();
/// Requests offered to the engine: `submitted = accepted + rejected`.
pub static ENGINE_SUBMITTED: Counter = Counter::new();
/// Requests admitted to the queue; after a drain, `accepted = answered`.
pub static ENGINE_ACCEPTED: Counter = Counter::new();
/// Requests refused at admission (queue full or intake closed).
pub static ENGINE_REJECTED: Counter = Counter::new();
/// Responses emitted — every accepted request produces exactly one.
pub static ENGINE_ANSWERED: Counter = Counter::new();
/// Accepted requests whose deadline expired before a worker reached them.
pub static ENGINE_TIMED_OUT: Counter = Counter::new();
/// Requests downgraded from live-model inference to a store lookup because
/// the queue was saturated at admission.
pub static ENGINE_DEGRADED: Counter = Counter::new();
/// Pool requests whose handler panicked; each is still answered (as
/// `Panicked`) and its worker replaced. A panic answered on a TCP
/// connection's thread is counted in the ledger's `panicked` only.
pub static ENGINE_WORKER_PANICS: Counter = Counter::new();
/// Crashed worker threads replaced by the engine's supervisor.
pub static ENGINE_WORKER_RESTARTS: Counter = Counter::new();
/// Submit-to-answer latency, one observation per answered request.
pub static ENGINE_E2E_SPAN_NS: Histogram = Histogram::new();
/// Feedback signals admitted to the engine's λ-writer queue.
pub static ENGINE_FEEDBACK_ACCEPTED: Counter = Counter::new();
/// Feedback signals the λ-writer applied (and published); after a drain,
/// `feedback_accepted = feedback_applied`.
pub static ENGINE_FEEDBACK_APPLIED: Counter = Counter::new();
/// Delta records a follower engine applied from the tailed WAL.
pub static ENGINE_REPLICATION_APPLIED: Counter = Counter::new();
/// Epochs the follower's λ store trails the newest WAL record it has seen
/// (0 once caught up; set per tail poll).
pub static ENGINE_REPLICATION_LAG_EPOCHS: Gauge = Gauge::new();
/// Subscribers currently attached to the leader's replication listener.
pub static ENGINE_REPLICATION_FOLLOWERS: Gauge = Gauge::new();
/// Framed WAL bytes sent to replication subscribers (resume replays plus
/// live tail).
pub static ENGINE_REPLICATION_BYTES_SENT: Counter = Counter::new();
/// Subscriptions that resumed from a follower-supplied epoch by replaying
/// the on-disk WAL.
pub static ENGINE_REPLICATION_RESUME_REPLAYS: Counter = Counter::new();
/// Subscriptions whose requested epoch the log no longer reaches, answered
/// with a full resync of the entire log.
pub static ENGINE_REPLICATION_FULL_RESYNCS: Counter = Counter::new();
/// Epochs the slowest currently-attached follower trails the leader's
/// newest broadcast (0 with no followers or all caught up).
pub static ENGINE_REPLICATION_MAX_FOLLOWER_LAG: Gauge = Gauge::new();
/// Followers promoted to serving leader after detecting leader loss.
pub static ENGINE_REPLICATION_PROMOTIONS: Counter = Counter::new();
/// Re-delivered already-applied delta epochs skipped as idempotent no-ops
/// on the follower apply path (ambiguous-send resume, replayed streams).
pub static ENGINE_REPLICATION_DUPLICATES: Counter = Counter::new();
/// Feedback submissions rejected because this leader is fenced: a higher
/// leader term has been observed and a newer leader owns the lineage.
pub static ENGINE_REPLICATION_FENCED: Counter = Counter::new();
/// Promoted leaders that fenced themselves (flipped to `Demoted`) after
/// observing a higher term.
pub static ENGINE_REPLICATION_DEMOTIONS: Counter = Counter::new();
/// TCP connections the net front end has accepted since start.
pub static NET_CONNECTIONS: Counter = Counter::new();
/// TCP connections currently open (accepted minus closed).
pub static NET_ACTIVE_CONNECTIONS: Gauge = Gauge::new();
/// Request frames decoded off sockets (before engine admission).
pub static NET_FRAMES_IN: Counter = Counter::new();
/// Response frames written back to sockets.
pub static NET_FRAMES_OUT: Counter = Counter::new();
/// Frames rejected before reaching the engine (oversized, malformed
/// length, or unparseable payload).
pub static NET_FRAME_ERRORS: Counter = Counter::new();
/// Connections that ended with an I/O error instead of a clean close or
/// drain (half-open peers, mid-frame disconnects, write failures).
pub static NET_DISCONNECTS: Counter = Counter::new();
/// Reply frames not written because the peer was gone when the
/// connection wrote them.
pub static NET_DROPPED_RESPONSES: Counter = Counter::new();

static REGISTRY: Registry = Registry::new();
static REGISTER: Once = Once::new();

/// The process-wide metric registry, with every Lorentz metric registered.
pub fn registry() -> &'static Registry {
    REGISTER.call_once(|| {
        let r = &REGISTRY;
        r.register_histogram("train.stage1.span_ns", &STAGE1_SPAN_NS);
        r.register_counter("train.stage1.records", &STAGE1_RECORDS);
        r.register_histogram("train.stage2.span_ns", &STAGE2_SPAN_NS);
        r.register_histogram("train.stage2.offering_span_ns", &STAGE2_OFFERING_SPAN_NS);
        r.register_counter("train.stage2.offerings", &STAGE2_OFFERINGS);
        r.register_histogram("train.publish.span_ns", &PUBLISH_SPAN_NS);
        r.register_counter("train.publish.entries", &PUBLISH_ENTRIES);
        r.register_histogram("train.personalizer.span_ns", &PERSONALIZER_INIT_SPAN_NS);
        r.register_counter("train.personalizer.profiles", &PERSONALIZER_PROFILES);
        r.register_histogram("serve.recommend.span_ns", &RECOMMEND_SPAN_NS);
        r.register_histogram("serve.recommend_batch.span_ns", &RECOMMEND_BATCH_SPAN_NS);
        r.register_counter("serve.recommend.requests", &RECOMMEND_REQUESTS);
        r.register_counter("serve.recommend.errors", &RECOMMEND_ERRORS);
        r.register_counter("serve.recommend_batch.batches", &RECOMMEND_BATCHES);
        r.register_histogram("serve.store.span_ns", &STORE_SERVE_SPAN_NS);
        r.register_histogram("serve.store_batch.span_ns", &STORE_SERVE_BATCH_SPAN_NS);
        r.register_counter("serve.store.requests", &STORE_SERVE_REQUESTS);
        r.register_counter("serve.store.errors", &STORE_SERVE_ERRORS);
        r.register_counter("serve.store_batch.batches", &STORE_SERVE_BATCHES);
        r.register_counter("store.lookup.hits", &STORE_HITS);
        r.register_counter("store.lookup.defaults", &STORE_DEFAULTS);
        r.register_counter("store.lookup.misses", &STORE_MISSES);
        r.register_counter("store.publishes", &STORE_PUBLISHES);
        r.register_counter("store.save.generations", &STORE_SAVE_GENERATIONS);
        r.register_counter("store.save.retries", &STORE_SAVE_RETRIES);
        r.register_counter("store.recovery.loads", &STORE_RECOVERY_LOADS);
        r.register_counter("store.recovery.fallbacks", &STORE_RECOVERY_FALLBACKS);
        r.register_counter("personalizer.signals", &SIGNALS_APPLIED);
        r.register_counter("personalizer.profiles_touched", &SIGNAL_PROFILES_TOUCHED);
        r.register_counter("personalizer.lambda.publishes", &LAMBDA_PUBLISHES);
        r.register_counter("personalizer.lambda.delta_keys", &LAMBDA_DELTA_KEYS);
        r.register_counter("personalizer.lambda.compactions", &LAMBDA_COMPACTIONS);
        r.register_counter("personalizer.wal.appends", &WAL_APPENDS);
        r.register_counter("personalizer.wal.replayed", &WAL_REPLAYED);
        r.register_counter("personalizer.wal.torn_tails", &WAL_TORN_TAILS);
        r.register_gauge("engine.queue.depth", &ENGINE_QUEUE_DEPTH);
        r.register_counter("engine.submitted", &ENGINE_SUBMITTED);
        r.register_counter("engine.accepted", &ENGINE_ACCEPTED);
        r.register_counter("engine.rejected", &ENGINE_REJECTED);
        r.register_counter("engine.answered", &ENGINE_ANSWERED);
        r.register_counter("engine.timed_out", &ENGINE_TIMED_OUT);
        r.register_counter("engine.degraded", &ENGINE_DEGRADED);
        r.register_counter("engine.worker_panics", &ENGINE_WORKER_PANICS);
        r.register_counter("engine.worker_restarts", &ENGINE_WORKER_RESTARTS);
        r.register_histogram("engine.e2e.span_ns", &ENGINE_E2E_SPAN_NS);
        r.register_counter("engine.feedback.accepted", &ENGINE_FEEDBACK_ACCEPTED);
        r.register_counter("engine.feedback.applied", &ENGINE_FEEDBACK_APPLIED);
        r.register_counter("engine.replication.applied", &ENGINE_REPLICATION_APPLIED);
        r.register_gauge(
            "engine.replication.lag_epochs",
            &ENGINE_REPLICATION_LAG_EPOCHS,
        );
        r.register_gauge(
            "engine.replication.followers",
            &ENGINE_REPLICATION_FOLLOWERS,
        );
        r.register_counter(
            "engine.replication.bytes_sent",
            &ENGINE_REPLICATION_BYTES_SENT,
        );
        r.register_counter(
            "engine.replication.resume_replays",
            &ENGINE_REPLICATION_RESUME_REPLAYS,
        );
        r.register_counter(
            "engine.replication.full_resyncs",
            &ENGINE_REPLICATION_FULL_RESYNCS,
        );
        r.register_gauge(
            "engine.replication.max_follower_lag",
            &ENGINE_REPLICATION_MAX_FOLLOWER_LAG,
        );
        r.register_counter(
            "engine.replication.promotions",
            &ENGINE_REPLICATION_PROMOTIONS,
        );
        r.register_counter(
            "engine.replication.duplicates",
            &ENGINE_REPLICATION_DUPLICATES,
        );
        r.register_counter("engine.replication.fenced", &ENGINE_REPLICATION_FENCED);
        r.register_counter(
            "engine.replication.demotions",
            &ENGINE_REPLICATION_DEMOTIONS,
        );
        r.register_counter("engine.net.connections", &NET_CONNECTIONS);
        r.register_gauge("engine.net.active_connections", &NET_ACTIVE_CONNECTIONS);
        r.register_counter("engine.net.frames_in", &NET_FRAMES_IN);
        r.register_counter("engine.net.frames_out", &NET_FRAMES_OUT);
        r.register_counter("engine.net.frame_errors", &NET_FRAME_ERRORS);
        r.register_counter("engine.net.disconnects", &NET_DISCONNECTS);
        r.register_counter("engine.net.dropped_responses", &NET_DROPPED_RESPONSES);
    });
    &REGISTRY
}

/// Captures every Lorentz metric into a serializable snapshot (the
/// `--metrics-out` payload).
pub fn snapshot() -> MetricsSnapshot {
    registry().snapshot()
}

/// Resets every Lorentz metric to zero. Test support: metrics are
/// process-wide, so tests that assert exact counts reset first and must not
/// run concurrently with other metric-producing tests.
pub fn reset() {
    registry().reset();
}
