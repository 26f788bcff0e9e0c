//! Capacity vectors.
//!
//! A [`Capacity`] is a point in a [`ResourceSpace`]:
//! one provisioned amount per resource dimension, e.g. `[4 vCores, 16 GB]`
//! (the paper's `c`, `c⁰`, `ĉ⁰`, `c*`, `c**`). Capacities support the
//! element-wise comparisons the rightsizer needs (`dominates`,
//! `is_dominated_by`) and the `log2` transform `ξ` used for model fitting
//! (§3.3 "Transformations").

use crate::error::LorentzError;
use crate::resource::ResourceSpace;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A provisioned (or candidate) amount of each resource dimension.
///
/// Entries are aligned with the dimensions of the owning
/// [`ResourceSpace`]; `Capacity` itself stores only the
/// numbers so that it stays cheap to copy around hot loops.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Capacity {
    dims: Vec<f64>,
}

impl Capacity {
    /// Creates a capacity from per-dimension amounts.
    ///
    /// # Errors
    /// Returns [`LorentzError::InvalidCapacity`] if `dims` is empty or any
    /// entry is non-finite or non-positive.
    pub fn new(dims: Vec<f64>) -> Result<Self, LorentzError> {
        if dims.is_empty() {
            return Err(LorentzError::InvalidCapacity("no dimensions".into()));
        }
        for (i, &v) in dims.iter().enumerate() {
            if !v.is_finite() || v <= 0.0 {
                return Err(LorentzError::InvalidCapacity(format!(
                    "dimension {i} has invalid amount {v}"
                )));
            }
        }
        Ok(Self { dims })
    }

    /// Creates a single-dimension capacity (the common vCores-only case).
    pub fn scalar(amount: f64) -> Self {
        Self::new(vec![amount]).expect("scalar capacity must be positive and finite")
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// Whether the capacity has no dimensions (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Amount for dimension index `r`.
    pub fn get(&self, r: usize) -> f64 {
        self.dims[r]
    }

    /// All amounts in dimension order.
    pub fn as_slice(&self) -> &[f64] {
        &self.dims
    }

    /// The first dimension, by convention vCores in the paper's spaces.
    pub fn primary(&self) -> f64 {
        self.dims[0]
    }

    /// Whether this capacity is at least as large as `other` in every
    /// dimension (i.e. provisioning `self` can host anything `other` can).
    pub fn dominates(&self, other: &Capacity) -> bool {
        debug_assert_eq!(self.len(), other.len());
        self.dims.iter().zip(other.dims.iter()).all(|(a, b)| a >= b)
    }

    /// Whether this capacity is strictly smaller than `other` in at least one
    /// dimension (candidates for which censoring applies, §3.2).
    pub fn below_anywhere(&self, other: &Capacity) -> bool {
        debug_assert_eq!(self.len(), other.len());
        self.dims.iter().zip(other.dims.iter()).any(|(a, b)| a < b)
    }

    /// The transform `ξ = log2` applied element-wise (§3.3
    /// "Transformations"). Capacities are positive by construction, so the
    /// result is always finite.
    pub fn log2(&self) -> Vec<f64> {
        self.dims.iter().map(|v| v.log2()).collect()
    }

    /// Inverse transform `ξ⁻¹ = 2^x` applied element-wise.
    ///
    /// # Errors
    /// Returns [`LorentzError::InvalidCapacity`] if any exponent is
    /// non-finite (the result would not be a valid capacity).
    pub fn from_log2(exponents: &[f64]) -> Result<Self, LorentzError> {
        Self::new(exponents.iter().map(|&e| e.exp2()).collect())
    }

    /// Multiplies every dimension by `factor` (used by the Pareto-curve scale
    /// sweep in §5.2 and the λ adjustment `c** = 2^λ · c*` in Eq. 14).
    ///
    /// # Errors
    /// Returns [`LorentzError::InvalidCapacity`] if `factor` is non-positive
    /// or non-finite.
    pub fn scaled(&self, factor: f64) -> Result<Self, LorentzError> {
        Self::new(self.dims.iter().map(|v| v * factor).collect())
    }

    /// Checks that the capacity has one entry per dimension of `space`.
    ///
    /// # Errors
    /// Returns [`LorentzError::DimensionMismatch`] on arity mismatch.
    pub fn check_space(&self, space: &ResourceSpace) -> Result<(), LorentzError> {
        if self.len() != space.len() {
            return Err(LorentzError::DimensionMismatch {
                expected: space.len(),
                got: self.len(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, v) in self.dims.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_capacity_has_one_dim() {
        let c = Capacity::scalar(4.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.primary(), 4.0);
        assert_eq!(c.get(0), 4.0);
    }

    #[test]
    fn rejects_invalid_amounts() {
        assert!(Capacity::new(vec![]).is_err());
        assert!(Capacity::new(vec![0.0]).is_err());
        assert!(Capacity::new(vec![-1.0]).is_err());
        assert!(Capacity::new(vec![f64::NAN]).is_err());
        assert!(Capacity::new(vec![f64::INFINITY]).is_err());
        assert!(Capacity::new(vec![4.0, 0.0]).is_err());
    }

    #[test]
    fn dominates_is_elementwise() {
        let big = Capacity::new(vec![8.0, 32.0]).unwrap();
        let small = Capacity::new(vec![4.0, 16.0]).unwrap();
        let mixed = Capacity::new(vec![16.0, 8.0]).unwrap();
        assert!(big.dominates(&small));
        assert!(!small.dominates(&big));
        assert!(!mixed.dominates(&big));
        assert!(big.dominates(&big));
        assert!(small.below_anywhere(&big));
        assert!(mixed.below_anywhere(&big));
        assert!(!big.below_anywhere(&small));
    }

    #[test]
    fn log2_round_trips() {
        let c = Capacity::new(vec![4.0, 16.0]).unwrap();
        let logs = c.log2();
        assert_eq!(logs, vec![2.0, 4.0]);
        let back = Capacity::from_log2(&logs).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn scaled_multiplies_every_dimension() {
        let c = Capacity::new(vec![4.0, 16.0]).unwrap();
        let s = c.scaled(2.0).unwrap();
        assert_eq!(s.as_slice(), &[8.0, 32.0]);
        assert!(c.scaled(0.0).is_err());
        assert!(c.scaled(-1.0).is_err());
    }

    #[test]
    fn check_space_enforces_arity() {
        let c = Capacity::scalar(4.0);
        let one = ResourceSpace::vcores_only();
        let two = ResourceSpace::vcores_memory();
        assert!(c.check_space(&one).is_ok());
        assert!(c.check_space(&two).is_err());
    }

    #[test]
    fn display_formats_vector() {
        let c = Capacity::new(vec![4.0, 16.0]).unwrap();
        assert_eq!(c.to_string(), "[4, 16]");
    }
}
