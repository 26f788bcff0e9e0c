//! Typed, packed personalization-store keys.
//!
//! Stage 3 keys λ profiles by the customer hierarchy path
//! `(customer, subscription, resource group)` — three `u32` ids, 96 bits,
//! which cannot share the `u64` layout of [`StoreKey`](crate::StoreKey).
//! [`PathKey`] packs a [`ResourcePath`] losslessly into a `u128` so the
//! λ-table is a flat hash map probed without touching the nested id
//! structs, following the same pack/unpack/`Display`/`FromStr` discipline
//! as the prediction-store key. Strings appear only in the snapshot/WAL
//! form, which keeps persisted λ state human-readable.

use crate::error::LorentzError;
use crate::ids::{CustomerId, ResourceGroupId, ResourcePath, SubscriptionId};
use serde::{Deserialize, JsonReader, Serialize, Value};
use std::fmt;
use std::str::FromStr;

/// Bit layout of the packed form:
/// `[32 zero][32 customer][32 subscription][32 resource group]`.
const RG_BITS: u32 = 32;
const SUB_SHIFT: u32 = RG_BITS;
const CUST_SHIFT: u32 = RG_BITS * 2;
const USED_BITS: u32 = RG_BITS * 3;

/// One personalization-store key: a [`ResourcePath`] packable into a
/// `u128` for flat hash-map indexing of the λ-table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathKey(pub ResourcePath);

impl PathKey {
    /// Creates a key from a path.
    pub fn new(path: ResourcePath) -> Self {
        Self(path)
    }

    /// The wrapped path.
    pub fn path(self) -> ResourcePath {
        self.0
    }

    /// Packs the key into a `u128`: customer id in bits 64–95,
    /// subscription id in bits 32–63, resource-group id in bits 0–31.
    /// Bits 96–127 are zero.
    pub fn pack(self) -> u128 {
        (u128::from(self.0.customer.0) << CUST_SHIFT)
            | (u128::from(self.0.subscription.0) << SUB_SHIFT)
            | u128::from(self.0.resource_group.0)
    }

    /// Reverses [`PathKey::pack`]. Returns `None` if the reserved top bits
    /// are set.
    pub fn unpack(packed: u128) -> Option<Self> {
        if packed >> USED_BITS != 0 {
            return None;
        }
        Some(Self(ResourcePath::new(
            CustomerId((packed >> CUST_SHIFT) as u32),
            SubscriptionId(((packed >> SUB_SHIFT) & u128::from(u32::MAX)) as u32),
            ResourceGroupId((packed & u128::from(u32::MAX)) as u32),
        )))
    }
}

impl From<ResourcePath> for PathKey {
    fn from(path: ResourcePath) -> Self {
        Self(path)
    }
}

impl fmt::Display for PathKey {
    /// The canonical snapshot form: `customer|subscription|resource-group`
    /// raw ids.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}|{}|{}",
            self.0.customer.0, self.0.subscription.0, self.0.resource_group.0
        )
    }
}

impl FromStr for PathKey {
    type Err = LorentzError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || LorentzError::InvalidConfig(format!("malformed path key '{s}'"));
        let mut parts = s.splitn(3, '|');
        let customer: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let subscription: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let rg: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        Ok(PathKey(ResourcePath::new(
            CustomerId(customer),
            SubscriptionId(subscription),
            ResourceGroupId(rg),
        )))
    }
}

impl Serialize for PathKey {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for PathKey {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("path key must be a string"))?;
        s.parse().map_err(|e| serde::Error::custom(format!("{e}")))
    }

    /// Parses the key from the string's text, with no tree in between.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, serde::Error> {
        match r.peek() {
            Some(b'"') => r
                .read_str()?
                .parse()
                .map_err(|e| serde::Error::custom(format!("{e}"))),
            _ => Self::from_value(&r.read_value()?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(c: u32, s: u32, r: u32) -> PathKey {
        PathKey::new(ResourcePath::new(
            CustomerId(c),
            SubscriptionId(s),
            ResourceGroupId(r),
        ))
    }

    #[test]
    fn pack_unpack_round_trips_extremes() {
        for c in [0u32, 1, u32::MAX] {
            for s in [0u32, 7, u32::MAX] {
                for r in [0u32, 13, u32::MAX] {
                    let k = key(c, s, r);
                    assert_eq!(PathKey::unpack(k.pack()), Some(k));
                }
            }
        }
    }

    #[test]
    fn packed_keys_are_distinct() {
        let a = key(1, 2, 3);
        let b = key(3, 2, 1);
        let c = key(1, 3, 2);
        assert_ne!(a.pack(), b.pack());
        assert_ne!(a.pack(), c.pack());
        assert_ne!(b.pack(), c.pack());
    }

    #[test]
    fn unpack_rejects_reserved_bits() {
        assert_eq!(PathKey::unpack(1u128 << 96), None);
        assert_eq!(PathKey::unpack(u128::MAX), None);
    }

    #[test]
    fn display_parse_round_trips() {
        let k = key(1, 22, 333);
        assert_eq!(k.to_string(), "1|22|333");
        assert_eq!(k.to_string().parse::<PathKey>().unwrap(), k);
        assert!("1|2".parse::<PathKey>().is_err());
        assert!("a|2|3".parse::<PathKey>().is_err());
        assert!("".parse::<PathKey>().is_err());
    }

    #[test]
    fn serde_round_trips_as_string() {
        let k = key(4, 5, 6);
        let json = serde_json::to_string(&k).unwrap();
        assert_eq!(json, "\"4|5|6\"");
        let back: PathKey = serde_json::from_str(&json).unwrap();
        assert_eq!(back, k);
    }
}
