//! Figure 12: robustness to training-set size.
//!
//! Paper result: retrained on a random 10% of the training split, the
//! hierarchical model performs nearly identically while the target encoder
//! degrades — data-scarce deployments should prefer the hierarchical
//! provisioner.

use crate::common::{self, Scale};
use crate::fig10;
use crate::fig11::THROTTLE_BOUND;
use lorentz_core::evaluate::min_slack_under_throttle_bound;
use serde::{Deserialize, Serialize};

/// Operating-point slack for one model at full vs subsampled training data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustnessRow {
    /// Mean slack at the full training set's operating point.
    pub full_slack: f64,
    /// Mean slack when trained on the small subsample.
    pub small_slack: f64,
    /// Relative degradation (positive = worse with less data).
    pub degradation: f64,
}

/// The Figure-12 reproduction result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig12Result {
    /// Hierarchical provisioner row.
    pub hierarchical: RobustnessRow,
    /// Target-encoding provisioner row.
    pub target_encoding: RobustnessRow,
}

/// The subsample kept for the data-scarce arm. The paper keeps 10% of a
/// 77k-server fleet (~7.7k rows) — still far above the hierarchical
/// model's `min_bucket` threshold. 10% of the CI-sized fleet is ~64 rows,
/// which starves every bucket and tests a different regime entirely, so
/// `Quick` keeps 30% to preserve the paper's rows-per-bucket ratio.
fn subsample_keep(scale: Scale) -> f64 {
    match scale {
        Scale::Quick => 0.3,
        Scale::Full => 0.1,
    }
}

/// Runs the experiment: evaluate both models with the full training split
/// and with a small subsample (see `subsample_keep`).
pub fn run(scale: Scale) -> Fig12Result {
    let keep = subsample_keep(scale);
    common::banner(
        "Figure 12",
        &format!(
            "provisioner robustness to a {:.0}% training subsample",
            100.0 * keep
        ),
    );
    let seeds = fig10::headline_seeds(scale);
    let full = fig10::evaluate_curves_seeded(scale, 1.0, &seeds);
    let small = fig10::evaluate_curves_seeded(scale, keep, &seeds);
    println!(
        "training rows: full {}, small {}",
        full.train_rows, small.train_rows
    );

    let slack_of = |curve: &[lorentz_core::evaluate::EvalPoint]| -> f64 {
        min_slack_under_throttle_bound(curve, THROTTLE_BOUND)
            .map(|p| p.metrics.mean_abs_slack)
            .unwrap_or(f64::INFINITY)
    };
    let row = |full_slack: f64, small_slack: f64| RobustnessRow {
        full_slack,
        small_slack,
        degradation: small_slack / full_slack - 1.0,
    };
    let result = Fig12Result {
        hierarchical: row(slack_of(&full.hierarchical), slack_of(&small.hierarchical)),
        target_encoding: row(
            slack_of(&full.target_encoding),
            slack_of(&small.target_encoding),
        ),
    };

    for (name, r, note) in [
        (
            "hierarchical",
            result.hierarchical,
            "paper: nearly equivalent",
        ),
        ("target encoding", result.target_encoding, "paper: degrades"),
    ] {
        println!(
            "{name:>16}: slack {:.3} -> {:.3} on the subsample ({:+.1}%) [{note}]",
            r.full_slack,
            r.small_slack,
            100.0 * r.degradation
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchical_is_more_robust_to_small_training_sets() {
        let r = run(Scale::Quick);
        // The paper's shape: the hierarchical model's degradation is
        // smaller than the target encoder's.
        assert!(
            r.hierarchical.degradation <= r.target_encoding.degradation + 0.05,
            "hierarchical {:+.3} vs target encoding {:+.3}",
            r.hierarchical.degradation,
            r.target_encoding.degradation
        );
        assert!(r.hierarchical.full_slack.is_finite());
        assert!(r.target_encoding.small_slack.is_finite());
    }
}
