//! The Lorentz SKU recommender.
//!
//! Implements the three-stage pipeline of *Lorentz: Learned SKU
//! Recommendation Using Profile Data* (SIGMOD 2024):
//!
//! 1. [`rightsizer`] — Stage 1: compute best-fit capacities for existing
//!    workloads from their telemetry, balancing slack against throttling
//!    with censoring-aware handling of already-throttled workloads
//!    (Eq. 1–9).
//! 2. [`provisioner`] — Stage 2: recommend capacities for *new* workloads
//!    from profile data alone, via the hierarchical bucket model
//!    (Eq. 10–12) or target encoding + gradient-boosted trees (§3.3).
//! 3. [`personalizer`] — Stage 3: learn per-customer cost/performance
//!    sensitivity scores λ from satisfaction signals via message
//!    propagation (Algorithm 1) and apply them as `c** = 2^λ · c*`
//!    (Eq. 13–14).
//!
//! Supporting modules: [`config`] (the Table-2 hyperparameters),
//! [`fleet`] (training-data container), [`store`] (the versioned offline
//! prediction store of §4, with crash-safe generation-numbered persistence
//! in [`store::durability`]), [`retry`] (jittered exponential backoff for
//! transient I/O), [`pipeline`] (batch train → publish → serve
//! orchestration, Fig. 8), [`evaluate`] (slack/throttling metrics and
//! Pareto sweeps used throughout §5), [`explain`] (recommendation
//! rationales, challenge C3), and [`obs`] (per-stage span timings and
//! serving counters, exported as a [`lorentz_obs::MetricsSnapshot`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod cost;
pub mod evaluate;
pub mod explain;
pub mod fleet;
pub mod obs;
pub mod personalizer;
pub mod pipeline;
pub mod provisioner;
pub mod report;
pub mod retry;
pub mod rightsizer;
pub mod store;
pub mod validation;

pub use config::{LorentzConfig, RightsizerConfig};
pub use cost::{bill_fleet, CostModel, FleetBill};
pub use explain::{Explanation, Recommendation};
pub use fleet::FleetDataset;
pub use personalizer::{
    LambdaEpoch, LambdaSnapshot, Personalizer, PersonalizerConfig, PollBackoff, SatisfactionSignal,
    ShardedLambdaStore, SignalWal, WalEntry, WalRecord, WalRecovery, WalReplay, WalVerifyReport,
};
pub use pipeline::{
    LiveModel, LorentzPipeline, ModelKind, RecommendEngine, RecommendRequest, StoreOnly,
    StoreProbe, TrainedLorentz,
};
pub use provisioner::{
    HierarchicalConfig, HierarchicalProvisioner, OfferingRecommender, Provisioner,
    TargetEncodingConfig, TargetEncodingProvisioner, TraceAugmentedProvisioner,
};
pub use report::{fleet_report, FleetReport};
pub use retry::{is_transient_io, retry_with_backoff, RetryPolicy};
pub use rightsizer::{ProvisioningVerdict, RightsizeOutcome, Rightsizer, Stage1Scratch};
pub use store::{
    DurableStore, PredictionStore, RecoveredStore, ShardedPredictionStore, ShardedStoreSnapshot,
    StoreError,
};
pub use validation::{validate_deployment, DeploymentReport, PublishGate};
