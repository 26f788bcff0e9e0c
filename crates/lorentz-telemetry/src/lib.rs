//! Utilization telemetry for the Lorentz pipeline.
//!
//! Existing DBs expose *resource utilization telemetry* — irregularly
//! sampled time series `u(t)`, one per resource dimension, bounded above by
//! the user-selected capacity `c⁰` (Eq. 1). Stage 1 standardizes these into
//! regular `T`-minute signals `w[n]` via max-aggregation (Eq. 2) before
//! computing slack and throttling.
//!
//! This crate provides:
//!
//! * [`RawSeries`] — validated irregular samples;
//! * [`Aggregator`] + [`bin_series`] — the Eq. 2 binning
//!   with pluggable aggregation and empty-bin policies;
//! * [`RegularSeries`] — the binned signal `w[n]`;
//! * [`UsageTrace`] — a multi-resource bundle of series aligned with a
//!   [`ResourceSpace`](lorentz_types::ResourceSpace), with capacity censoring;
//! * [`generators`] — synthetic workload shapes (constant, diurnal, bursty,
//!   spiky, ramp, Ornstein–Uhlenbeck noise, composites) used to simulate the
//!   production fleet the paper measures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod analysis;
pub mod binning;
pub mod columns;
pub mod generators;
pub mod series;
pub mod trace;

pub use aggregate::Aggregator;
pub use analysis::{classify_shape, TraceSummary, WorkloadShape};
pub use binning::{bin_series, EmptyBinPolicy};
pub use columns::{TraceColumns, TraceView};
pub use generators::{WorkloadGenerator, WorkloadSpec};
pub use series::{RawSeries, RegularSeries};
pub use trace::UsageTrace;
