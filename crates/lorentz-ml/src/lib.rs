//! A small, self-contained tabular-ML library for the Lorentz target-encoding
//! provisioner.
//!
//! The paper's second provisioner (§3.3) target-encodes categorical profile
//! features and fits a tree ensemble (LightGBM with 100 trees in Table 2).
//! Since no such library is available to this reproduction, this crate
//! implements the required pieces from scratch:
//!
//! * [`Dataset`] — column-major numeric feature matrix plus labels;
//! * [`DecisionTree`] — a regression tree with LightGBM-style quantile
//!   histogram split finding ([`Binner`], 256 bins by default);
//! * [`GradientBoosting`] — squared-loss gradient-boosted trees with
//!   shrinkage and row subsampling;
//! * [`RandomForest`] — bagged trees with feature subsampling (used by the
//!   missing-data study of §3.3);
//! * [`TargetEncoder`] — the categorical→numeric mapping `TE(x_h)` with the
//!   paper's two missing-value policies (global label mean vs. a `-999`
//!   sentinel, compared in `exp_ablation_missing_data`);
//! * [`split`] — seeded train/validation/test splitting (80/10/10 in the
//!   paper);
//! * [`metrics`] — RMSE / MAE / R² / quantile loss;
//! * [`transform`] — the `ξ = log2` label transform and its inverse (§3.3
//!   "Transformations").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binning;
pub mod dataset;
pub mod encoding;
pub mod forest;
pub mod gbdt;
pub mod linear;
pub mod metrics;
pub mod split;
pub mod transform;
pub mod tree;

pub use binning::Binner;
pub use dataset::Dataset;
pub use encoding::{MissingPolicy, TargetEncoder, TargetStatistic};
pub use forest::{RandomForest, RandomForestConfig};
pub use gbdt::{GradientBoosting, GradientBoostingConfig};
pub use linear::{RidgeConfig, RidgeRegression};
pub use split::{three_way_split, SplitIndices};
pub use tree::{DecisionTree, TreeConfig};
