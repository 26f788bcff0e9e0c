//! The Lorentz concurrent serving engine.
//!
//! Production Lorentz serves recommendations from a periodically
//! re-published offline prediction store (§4, Fig. 8) — at cloud scale
//! that means many concurrent readers racing a background publisher. This
//! crate owns that hot path:
//!
//! * **Hot-swap snapshots** — the engine serves store lookups from
//!   [`ShardedPredictionStore`](lorentz_core::ShardedPredictionStore)
//!   snapshots: readers clone an `Arc` out of a mutex-guarded slot (the
//!   lock is held only for the refcount bump) and probe an immutable store
//!   version lock-free, while [`ServingEngine::publish`] swaps in a fresh
//!   snapshot atomically — zero-downtime re-publish under drift.
//! * **Worker-pool execution** — the first [`ServingEngine::submit`]
//!   starts a fixed worker pool behind a bounded submission queue, so an
//!   engine that is never submitted to runs no worker.
//!   [`ServingEngine::submit`] applies backpressure: a full queue rejects
//!   with [`ServeError::Saturated`] instead of buffering unboundedly.
//!   [`ServingEngine::answer`] serves one request on the calling thread
//!   instead, under the same admission ledger and panic boundary, with no
//!   queue in between.
//! * **Deadlines** — each request may carry a deadline (or inherit the
//!   engine default); requests that expire while queued are answered with
//!   [`ServeError::DeadlineExceeded`] rather than served late.
//! * **Degraded mode** — when the queue is saturated past a configurable
//!   threshold, requests fall back from live-model inference to the
//!   precomputed store lookup, trading explanation richness for latency.
//! * **Graceful drain** — [`ServingEngine::drain`] closes intake, lets the
//!   workers finish every in-flight request, joins them, and returns the
//!   final [`EngineStats`]. Every accepted request is answered exactly
//!   once: `submitted = accepted + rejected` and `accepted = answered`.
//! * **Panic isolation** — a request handler that panics is caught at the
//!   worker boundary and answered as [`ServeError::Panicked`], keeping the
//!   drain ledger exact; a supervisor replaces the crashed worker (with
//!   exponential backoff, up to [`ServeConfig::max_worker_restarts`]) so a
//!   poison-pill request cannot empty the pool. Engine construction itself
//!   no longer panics: [`ServingEngine::start`] returns
//!   [`EngineError::SpawnFailed`] when the OS refuses the λ-writer thread.
//! * **Online feedback** — [`ServingEngine::submit_feedback`] routes
//!   satisfaction signals to a dedicated λ-writer thread that applies the
//!   Stage-3 message-propagation round off to the side and hot-publishes a
//!   fresh [`LambdaSnapshot`](lorentz_core::LambdaSnapshot); workers pin
//!   one snapshot per request, so the next recommendation for an affected
//!   path shifts by `2^λ` with no model reload and no torn reads. With
//!   [`ServingEngine::start_with_wal`] every accepted signal is appended
//!   to a CRC-framed WAL of binary records and replayed on restart, so
//!   learned λ survives a crash. Each WAL record carries the epoch-stamped λ delta the signal
//!   published, and publishes are generational-overlay deltas — O(keys
//!   changed), never a full-table flatten. The drain ledger extends to
//!   `feedback_accepted = feedback_applied`.
//! * **Replication over TCP & promotion** — [`serve_replication`] runs a
//!   leader-side listener fanning the WAL frame stream out to subscribed
//!   followers (per-follower outbox threads, so one slow standby never
//!   stalls the leader), with a resume-from-epoch handshake: a follower
//!   reconnecting with its last applied epoch receives only the tail, or
//!   a full-resync verdict when the leader compacted past it.
//!   [`FollowerEngine::start_tcp`] subscribes through a [`TcpSource`]
//!   (over loopback on the leader's machine), catches up, and serves from
//!   the replicated epochs through its own [`ServingEngine`], held in a
//!   following role that refuses feedback with [`ServeError::NotLeader`]
//!   — applying the framed deltas to
//!   that engine's λ store converges bit-for-bit without re-running
//!   propagation, whatever either side's shard count. It persists
//!   received frames to a local WAL (byte-identical to the leader's)
//!   before applying them and, with a [`PromoteConfig`], promotes itself
//!   after the leader stays unreachable past the detection timeout —
//!   exactly-once across racing standbys, arbitrated by the promotion
//!   listen address bind. Promotion changes the role of that same engine:
//!   it leads on the local WAL without re-running its signals, so readers
//!   never see a reset λ. Tests inject their own [`ReplicationSource`].
//! * **Leader-term fencing** — every leader serves under a monotonically
//!   increasing term, minted at first start and on every promotion and
//!   persisted in-band as a WAL term marker. Subscribe handshakes carry
//!   the follower's highest observed term; a leader contacted with a
//!   strictly higher one has provably been superseded and fences itself:
//!   feedback is refused with [`ServeError::Fenced`] (the WAL lineage
//!   freezes — no split-brain fork), new subscriptions are refused with a
//!   typed `stale_leader` rejection, and a promoted replica that gets
//!   fenced demotes to [`ReplicaState::Demoted`] while reads keep
//!   answering.
//! * **Sharded state** — with [`ServeConfig::shards`] > 1 the prediction
//!   store and λ-state split into power-of-two shards selected by a
//!   multiply-fold hash of the packed key
//!   ([`ShardRouter`](lorentz_types::ShardRouter)); a λ-delta publish
//!   touches exactly one shard's `Arc` slot, so λ publishes to different
//!   shards never contend. A store hot-swap stays one pointer swap of a
//!   whole version. λ epochs stay globally minted, so the WAL/follower
//!   protocol is unchanged.
//! * **TCP front end** — [`serve_net`] serves the engine over persistent
//!   TCP connections speaking the length-prefixed JSON frame protocol in
//!   [`wire`]: one acceptor, and one thread per connection that answers
//!   each request it reads through [`ServingEngine::answer`] and writes
//!   the replies of a pipelined burst with one `write`. It borrows the
//!   engine, so it serves a leader and a standby's
//!   [`FollowerEngine::engine`] alike. A drain frame closes the ledger
//!   exactly. Per-connection traffic lands in the `engine.net.*` obs
//!   metrics and the final [`NetReport`].
//!
//! All of it threads through the process-wide `lorentz_core::obs` metrics
//! (`engine.*` counters, queue-depth gauge, end-to-end latency histogram),
//! so a `--metrics-out` snapshot accounts for the full request ledger.
//!
//! ```
//! use lorentz_core::{FleetDataset, LorentzConfig, LorentzPipeline};
//! use lorentz_serve::{ServeConfig, ServeRequest, ServingEngine};
//! use lorentz_telemetry::{RegularSeries, UsageTrace};
//! use lorentz_types::{
//!     Capacity, CustomerId, ProfileSchema, ProfileTable, ResourceGroupId, ResourcePath,
//!     ServerId, ServerOffering, SubscriptionId,
//! };
//! use std::sync::Arc;
//!
//! // Train a toy deployment (see `LorentzPipeline` for the fleet shape).
//! let schema = ProfileSchema::new(vec!["industry", "customer"])?;
//! let mut fleet = FleetDataset::new(ProfileTable::new(schema));
//! for i in 0..40u32 {
//!     let (industry, demand) = if i % 2 == 0 { ("retail", 1.0) } else { ("banking", 8.0) };
//!     let customer = format!("c{}", i % 8);
//!     fleet.push(
//!         ServerId(i),
//!         ResourcePath::new(CustomerId(i % 4), SubscriptionId(i % 8), ResourceGroupId(i)),
//!         ServerOffering::GeneralPurpose,
//!         &[Some(industry), Some(customer.as_str())],
//!         Capacity::scalar(8.0),
//!         UsageTrace::single(RegularSeries::new(300.0, vec![demand; 12])?),
//!     )?;
//! }
//! let mut config = LorentzConfig::paper_defaults();
//! config.hierarchical.min_bucket = 5;
//! config.target_encoding.boosting.n_trees = 10;
//! let trained = LorentzPipeline::new(config)?.train(&fleet)?;
//!
//! // Serve through the engine: submit, drain, read answers. `start` can
//! // fail (thread spawn), `submit` can reject (saturated or draining
//! // queue), and each response carries its own per-request result — all
//! // three are handled, not unwrapped.
//! let (engine, responses) = ServingEngine::start(Arc::new(trained), ServeConfig::default())?;
//! engine.submit(ServeRequest {
//!     id: 1,
//!     profile: vec![Some("banking".into()), None],
//!     offering: ServerOffering::GeneralPurpose,
//!     path: ResourcePath::new(CustomerId(99), SubscriptionId(1), ResourceGroupId(1)),
//!     deadline: None,
//! })?;
//! let stats = engine.drain();
//! assert_eq!(stats.answered, 1);
//! let response = responses.recv()?;
//! match response.result {
//!     Ok(recommendation) => assert_eq!(recommendation.sku.capacity.primary(), 16.0),
//!     Err(err) => eprintln!("request {} failed: {err}", response.id),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod follower;
mod net;
pub mod replication;
mod types;
pub mod wire;

pub use engine::ServingEngine;
pub use follower::{FollowerConfig, FollowerEngine, FollowerStats, PromoteConfig, ReplicaState};
pub use net::{serve_net, NetConfig, NetReport};
pub use replication::{
    serve_replication, ReplicationConfig, ReplicationError, ReplicationListener, ReplicationSource,
    SourcePoll, SourcedEntry, TcpSource,
};
pub use types::{
    EngineError, EngineStats, RequestError, ServeConfig, ServeError, ServeRequest, ServeResponse,
};

/// The deployment the crate's unit tests serve: the 80-server fleet the
/// integration suites train, trained once per test binary.
#[cfg(test)]
fn test_deployment() -> std::sync::Arc<lorentz_core::TrainedLorentz> {
    use lorentz_core::{LorentzConfig, LorentzPipeline};
    use lorentz_simdata::fleet::FleetConfig;
    use std::sync::{Arc, OnceLock};
    static DEPLOYMENT: OnceLock<Arc<lorentz_core::TrainedLorentz>> = OnceLock::new();
    DEPLOYMENT
        .get_or_init(|| {
            let fleet = FleetConfig {
                n_servers: 80,
                seed: 20240807,
                ..FleetConfig::default()
            }
            .generate()
            .unwrap()
            .fleet;
            let pipeline = LorentzPipeline::new(LorentzConfig::paper_defaults()).unwrap();
            Arc::new(pipeline.train(&fleet).unwrap())
        })
        .clone()
}
