//! Regression trees with histogram split finding.

use crate::binning::{BinId, Binner};
use crate::dataset::Dataset;
use lorentz_types::LorentzError;
use serde::{Deserialize, Serialize};

/// Hyperparameters controlling tree growth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0). 0 yields a single leaf.
    pub max_depth: usize,
    /// Minimum samples each child must keep for a split to be admissible.
    pub min_samples_leaf: usize,
    /// Minimum samples a node needs to attempt a split.
    pub min_samples_split: usize,
    /// Maximum quantile bins per feature (see [`Binner`]).
    pub max_bins: usize,
    /// Minimum variance-reduction gain to accept a split.
    pub min_gain: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 6,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_bins: 256,
            min_gain: 1e-12,
        }
    }
}

impl TreeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`LorentzError::InvalidConfig`] on nonsensical values.
    pub fn validate(&self) -> Result<(), LorentzError> {
        if self.min_samples_leaf == 0 {
            return Err(LorentzError::InvalidConfig(
                "min_samples_leaf must be >= 1".into(),
            ));
        }
        if self.min_samples_split < 2 {
            return Err(LorentzError::InvalidConfig(
                "min_samples_split must be >= 2".into(),
            ));
        }
        if self.max_bins < 2 {
            return Err(LorentzError::InvalidConfig("max_bins must be >= 2".into()));
        }
        if !self.min_gain.is_finite() || self.min_gain < 0.0 {
            return Err(LorentzError::InvalidConfig(
                "min_gain must be finite and >= 0".into(),
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Split {
        feature: u32,
        /// Raw-value threshold: `x <= threshold` (and `NaN`) go left.
        threshold: f64,
        /// Variance-reduction gain of this split (for feature importance).
        gain: f64,
        left: u32,
        right: u32,
    },
    Leaf {
        value: f64,
    },
}

/// A fitted regression tree. Prediction walks raw feature values against the
/// stored thresholds, so a tree is self-contained once fitted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Fits a tree on a dataset (labels are the regression targets).
    ///
    /// # Errors
    /// Returns [`LorentzError`] for invalid configs or an empty dataset.
    pub fn fit(data: &Dataset, config: &TreeConfig) -> Result<Self, LorentzError> {
        config.validate()?;
        if data.is_empty() {
            return Err(LorentzError::Model("cannot fit on an empty dataset".into()));
        }
        let binner = Binner::fit(data, config.max_bins)?;
        let binned = binner.bin_dataset(data);
        let indices: Vec<u32> = (0..data.rows() as u32).collect();
        let features: Vec<usize> = (0..data.features()).collect();
        Ok(Self::grow(
            &binner,
            &binned,
            data.labels(),
            indices,
            &features,
            config,
        ))
    }

    /// Fits a tree on pre-binned data, optionally restricted to a feature
    /// subset — the entry point the boosting and bagging ensembles use so the
    /// binning cost is paid once per dataset, not once per tree.
    pub(crate) fn fit_prebinned(
        binner: &Binner,
        binned: &[Vec<BinId>],
        labels: &[f64],
        indices: Vec<u32>,
        features: &[usize],
        config: &TreeConfig,
    ) -> Self {
        Self::grow(binner, binned, labels, indices, features, config)
    }

    fn grow(
        binner: &Binner,
        binned: &[Vec<BinId>],
        labels: &[f64],
        indices: Vec<u32>,
        features: &[usize],
        config: &TreeConfig,
    ) -> Self {
        let mut nodes = Vec::new();
        Self::grow_node(
            binner, binned, labels, indices, features, config, 0, &mut nodes,
        );
        Self { nodes }
    }

    /// Recursively grows the subtree for `indices`, returning its node id.
    #[allow(clippy::too_many_arguments)]
    fn grow_node(
        binner: &Binner,
        binned: &[Vec<BinId>],
        labels: &[f64],
        indices: Vec<u32>,
        features: &[usize],
        config: &TreeConfig,
        depth: usize,
        nodes: &mut Vec<Node>,
    ) -> u32 {
        let n = indices.len();
        let sum: f64 = indices.iter().map(|&i| labels[i as usize]).sum();
        let mean = sum / n as f64;

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { value: mean });
            (nodes.len() - 1) as u32
        };

        if depth >= config.max_depth || n < config.min_samples_split {
            return make_leaf(nodes);
        }

        let Some(split) = Self::best_split(binner, binned, labels, &indices, features, config, sum)
        else {
            return make_leaf(nodes);
        };

        let (left_idx, right_idx): (Vec<u32>, Vec<u32>) = indices
            .into_iter()
            .partition(|&i| binned[split.feature][i as usize] <= split.bin);
        debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());

        // Reserve this node's slot before children so the root is node 0.
        let id = nodes.len() as u32;
        nodes.push(Node::Leaf { value: mean }); // placeholder
        let left = Self::grow_node(
            binner,
            binned,
            labels,
            left_idx,
            features,
            config,
            depth + 1,
            nodes,
        );
        let right = Self::grow_node(
            binner,
            binned,
            labels,
            right_idx,
            features,
            config,
            depth + 1,
            nodes,
        );
        nodes[id as usize] = Node::Split {
            feature: split.feature as u32,
            threshold: binner.threshold(split.feature, split.bin as BinId),
            gain: split.gain,
            left,
            right,
        };
        id
    }

    /// Finds the best (feature, bin) split by variance reduction, or `None`
    /// if no admissible split clears `min_gain`.
    fn best_split(
        binner: &Binner,
        binned: &[Vec<BinId>],
        labels: &[f64],
        indices: &[u32],
        features: &[usize],
        config: &TreeConfig,
        total_sum: f64,
    ) -> Option<SplitCandidate> {
        let n = indices.len();
        let base_score = total_sum * total_sum / n as f64;
        let mut best: Option<(f64, SplitCandidate)> = None;

        // Reused histogram buffers.
        let max_bins = features.iter().map(|&f| binner.bins(f)).max().unwrap_or(0);
        let mut counts = vec![0u32; max_bins];
        let mut sums = vec![0f64; max_bins];

        for &f in features {
            let bins = binner.bins(f);
            if bins < 2 {
                continue;
            }
            counts[..bins].fill(0);
            sums[..bins].fill(0.0);
            let col = &binned[f];
            for &i in indices {
                let b = col[i as usize] as usize;
                counts[b] += 1;
                sums[b] += labels[i as usize];
            }
            // Prefix scan: candidate split after each bin boundary.
            let mut left_n = 0u32;
            let mut left_sum = 0.0;
            for b in 0..bins - 1 {
                left_n += counts[b];
                left_sum += sums[b];
                let right_n = n as u32 - left_n;
                if (left_n as usize) < config.min_samples_leaf
                    || (right_n as usize) < config.min_samples_leaf
                {
                    continue;
                }
                if left_n == 0 || right_n == 0 {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let score =
                    left_sum * left_sum / left_n as f64 + right_sum * right_sum / right_n as f64;
                let gain = score - base_score;
                if gain > config.min_gain && best.as_ref().is_none_or(|(bg, _)| gain > *bg) {
                    best = Some((
                        gain,
                        SplitCandidate {
                            feature: f,
                            bin: b as BinId,
                            gain,
                        },
                    ));
                }
            }
        }
        best.map(|(_, c)| c)
    }

    /// Predicts a single row of raw feature values. `NaN` routes left.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut id = 0usize;
        loop {
            match &self.nodes[id] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    let v = row[*feature as usize];
                    id = if v.is_nan() || v <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Predicts every row of a dataset.
    pub fn predict(&self, data: &Dataset) -> Vec<f64> {
        let mut row_buf = vec![0.0; data.features()];
        (0..data.rows())
            .map(|r| {
                data.fill_row(r, &mut row_buf);
                self.predict_row(&row_buf)
            })
            .collect()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Accumulates per-feature split gains into `importance` (length must
    /// cover every feature index used by the tree).
    pub fn accumulate_importance(&self, importance: &mut [f64]) {
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                importance[*feature as usize] += gain;
            }
        }
    }

    /// Gain-based feature importance, normalized to sum to 1 (all zeros for
    /// a stump).
    pub fn feature_importance(&self, n_features: usize) -> Vec<f64> {
        let mut imp = vec![0.0; n_features];
        self.accumulate_importance(&mut imp);
        normalize_importance(imp)
    }

    /// Maximum depth of the fitted tree.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left as usize).max(depth_of(nodes, *right as usize))
                }
            }
        }
        depth_of(&self.nodes, 0)
    }
}

struct SplitCandidate {
    feature: usize,
    bin: BinId,
    gain: f64,
}

/// Normalizes an importance vector to sum to 1 (no-op on all-zero input).
pub(crate) fn normalize_importance(mut imp: Vec<f64>) -> Vec<f64> {
    let total: f64 = imp.iter().sum();
    if total > 0.0 {
        for v in &mut imp {
            *v /= total;
        }
    }
    imp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_like() -> Dataset {
        // y = 1 when x0 > 0.5, else 0 — a single clean split.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64 / 100.0, (i % 7) as f64])
            .collect();
        let labels: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        Dataset::from_rows(vec!["x0".into(), "x1".into()], &rows, labels).unwrap()
    }

    #[test]
    fn learns_a_step_function() {
        let d = xor_like();
        let t = DecisionTree::fit(&d, &TreeConfig::default()).unwrap();
        assert_eq!(t.predict_row(&[0.1, 0.0]), 0.0);
        assert_eq!(t.predict_row(&[0.9, 0.0]), 1.0);
        let preds = t.predict(&d);
        let err: f64 = preds
            .iter()
            .zip(d.labels())
            .map(|(p, y)| (p - y).abs())
            .sum();
        assert!(err < 1e-9, "tree should fit a clean step exactly");
    }

    #[test]
    fn max_depth_zero_is_a_mean_stump() {
        let d = xor_like();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&d, &cfg).unwrap();
        assert_eq!(t.n_leaves(), 1);
        let mean = d.label_mean();
        assert!((t.predict_row(&[0.3, 1.0]) - mean).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_limits_splits() {
        let d = xor_like();
        let cfg = TreeConfig {
            min_samples_leaf: 60, // no split can leave 60 on both sides of 100
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&d, &cfg).unwrap();
        assert_eq!(t.n_leaves(), 1);
    }

    #[test]
    fn depth_is_bounded() {
        // Noisy target forces deep growth if unbounded.
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let labels: Vec<f64> = (0..256)
            .map(|i| ((i * 2654435761u64 as usize) % 97) as f64)
            .collect();
        let d = Dataset::from_rows(vec!["x".into()], &rows, labels).unwrap();
        for max_depth in [1, 3, 5] {
            let cfg = TreeConfig {
                max_depth,
                ..TreeConfig::default()
            };
            let t = DecisionTree::fit(&d, &cfg).unwrap();
            assert!(t.depth() <= max_depth);
            assert!(t.n_leaves() <= 1 << max_depth);
        }
    }

    #[test]
    fn constant_labels_yield_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let d = Dataset::from_rows(vec!["x".into()], &rows, vec![3.5; 50]).unwrap();
        let t = DecisionTree::fit(&d, &TreeConfig::default()).unwrap();
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.predict_row(&[12.0]), 3.5);
    }

    #[test]
    fn nan_rows_route_left_consistently() {
        let d = xor_like();
        let t = DecisionTree::fit(&d, &TreeConfig::default()).unwrap();
        let p = t.predict_row(&[f64::NAN, 0.0]);
        assert!(p.is_finite());
        // NaN routes to the left branch (x <= threshold side), i.e. low x0.
        assert_eq!(p, 0.0);
    }

    #[test]
    fn config_validation() {
        let bad = TreeConfig {
            min_samples_leaf: 0,
            ..TreeConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = TreeConfig {
            min_samples_split: 1,
            ..TreeConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = TreeConfig {
            min_gain: -1.0,
            ..TreeConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(TreeConfig::default().validate().is_ok());
    }

    #[test]
    fn piecewise_function_regression() {
        // y = floor(x / 10) on [0, 100): 10 plateaus, needs depth >= 4.
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![(i as f64) / 2.0]).collect();
        let labels: Vec<f64> = rows.iter().map(|r| (r[0] / 10.0).floor()).collect();
        let d = Dataset::from_rows(vec!["x".into()], &rows, labels).unwrap();
        let cfg = TreeConfig {
            max_depth: 8,
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&d, &cfg).unwrap();
        let preds = t.predict(&d);
        let rmse = crate::metrics::rmse(&preds, d.labels());
        assert!(rmse < 0.05, "rmse={rmse}");
    }

    #[test]
    fn feature_importance_identifies_the_informative_feature() {
        let d = xor_like(); // label depends only on x0
        let t = DecisionTree::fit(&d, &TreeConfig::default()).unwrap();
        let imp = t.feature_importance(2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(imp[0] > 0.99, "x0 importance {}", imp[0]);
        assert!(imp[1] < 0.01);
        // A stump has no splits and therefore all-zero importance.
        let stump = DecisionTree::fit(
            &d,
            &TreeConfig {
                max_depth: 0,
                ..TreeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(stump.feature_importance(2), vec![0.0, 0.0]);
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let d = xor_like();
        let t = DecisionTree::fit(&d, &TreeConfig::default()).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(t.predict(&d), back.predict(&d));
    }
}
