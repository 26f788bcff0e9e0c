//! Shared domain types for the Lorentz SKU recommender.
//!
//! This crate defines the vocabulary that every other Lorentz crate speaks:
//!
//! * [`ResourceKind`] / [`ResourceSpace`] — the resource dimensions a capacity
//!   spans (vCores, memory, IOPS, ...);
//! * [`Capacity`] — a point in resource space, e.g. `[4 vCores, 16 GB]`;
//! * [`Sku`] / [`SkuCatalog`] — the discrete candidate capacities a cloud
//!   service offers, stratified by [`ServerOffering`];
//! * typed identifiers ([`CustomerId`], [`SubscriptionId`],
//!   [`ResourceGroupId`], [`ServerId`]);
//! * [`ProfileSchema`] / [`ProfileTable`] — categorical customer/server
//!   profile data with per-column value interning;
//! * [`StoreKey`] / [`ValueId`] — typed, `u64`-packable prediction-store
//!   keys over interned profile values;
//! * [`PathKey`] — the `u128`-packable personalization-store key over a
//!   [`ResourcePath`];
//! * [`ShardRouter`] / [`PathKeyHasher`] — multiply-fold shard routing and
//!   hashing over the packed key spaces;
//! * [`LambdaDelta`] / [`StratLambdas`] — epoch-stamped λ-change records
//!   for delta publishing and WAL-streamed replication;
//! * [`Endpoint`] / [`FrameCodec`] — typed transport endpoints
//!   (`tcp://HOST:PORT`) and the shared length-prefixed frame
//!   codec behind the client wire protocol, the signal WAL, and the
//!   replication stream;
//! * [`SubscribeRequest`] / [`SubscribeReply`] — the follower↔leader
//!   resume-from-epoch replication handshake;
//! * [`LorentzError`] — the shared error type.
//!
//! The types follow §2 of the paper: Azure PostgreSQL DB (flexible server)
//! exposes three server offerings with fixed vCore ladders, and capacity for
//! memory is provisioned proportionally to vCores (4 GB per vCore), so most
//! analyses reduce to the vCores dimension while the API remains
//! multi-resource.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capacity;
pub mod endpoint;
pub mod error;
pub mod framing;
pub mod ids;
pub mod lambda;
pub mod offering;
pub mod pathkey;
pub mod profile;
pub mod replication;
pub mod resource;
pub mod shard;
pub mod sku;
pub mod storekey;

pub use capacity::Capacity;
pub use endpoint::Endpoint;
pub use error::{DeltaCorruption, LorentzError, StoreCorruption};
pub use framing::{crc32c, Decoded, FrameCodec, FrameError, StreamError};
pub use ids::{CustomerId, ResourceGroupId, ResourcePath, ServerId, SubscriptionId};
pub use lambda::{LambdaDelta, StratLambdas, N_STRATA};
pub use offering::ServerOffering;
pub use pathkey::PathKey;
pub use profile::{FeatureId, ProfileSchema, ProfileTable, ProfileVector, Vocab};
pub use replication::{
    HandshakeRejection, ResumeMode, SubscribeAck, SubscribeReply, SubscribeRequest,
};
pub use resource::{ResourceKind, ResourceSpace};
pub use shard::{PathKeyHasher, ShardRouter};
pub use sku::{Sku, SkuCatalog};
pub use storekey::{StoreKey, ValueId};

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, LorentzError>;
