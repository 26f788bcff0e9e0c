//! Typed, packed prediction-store keys.
//!
//! The §4 online store is keyed by `[server offering, hierarchy feature,
//! feature value]`. Production Lorentz concatenates strings; here the key
//! never leaves integer space: a [`StoreKey`] carries the offering, the
//! [`FeatureId`] of the hierarchy level, and the interned [`ValueId`] of the
//! feature value, and packs losslessly into a single `u64` for hash-map
//! indexing. Strings appear only in the JSON snapshot form (see the manual
//! serde impls below), which keeps persisted stores human-readable.

use crate::error::LorentzError;
use crate::offering::ServerOffering;
use crate::profile::FeatureId;
use serde::{Deserialize, JsonReader, Serialize, Value};
use std::fmt;
use std::str::FromStr;

/// An interned profile-feature value id (the output of
/// [`Vocab::intern`](crate::Vocab::intern)), given a newtype so store keys
/// cannot mix up value ids with feature indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The raw interned id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value#{}", self.0)
    }
}

/// Bit layout of the packed form: `[8 zero][8 offering][16 feature][32 value]`.
const VALUE_BITS: u32 = 32;
const FEATURE_BITS: u32 = 16;
const FEATURE_SHIFT: u32 = VALUE_BITS;
const OFFERING_SHIFT: u32 = VALUE_BITS + FEATURE_BITS;

/// One prediction-store key: `[offering, hierarchy feature, feature value]`.
///
/// Packs into a `u64` ([`StoreKey::pack`]) so the serving path indexes the
/// store without ever materializing a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreKey {
    /// The server offering the entry belongs to.
    pub offering: ServerOffering,
    /// The hierarchy feature (schema column) of the entry.
    pub feature: FeatureId,
    /// The interned value of that feature.
    pub value: ValueId,
}

impl StoreKey {
    /// Creates a key.
    ///
    /// # Panics
    /// Panics if the feature index exceeds `u16::MAX` (a schema with more
    /// than 65 535 columns), which would not fit the packed layout.
    pub fn new(offering: ServerOffering, feature: FeatureId, value: ValueId) -> Self {
        assert!(
            feature.index() <= u16::MAX as usize,
            "feature index {} does not fit the packed key layout",
            feature.index()
        );
        Self {
            offering,
            feature,
            value,
        }
    }

    /// Packs the key into a `u64`: offering code in bits 48–55, feature
    /// index in bits 32–47, value id in bits 0–31. Bits 56–63 are zero.
    pub fn pack(self) -> u64 {
        (u64::from(self.offering.code()) << OFFERING_SHIFT)
            | ((self.feature.index() as u64) << FEATURE_SHIFT)
            | u64::from(self.value.0)
    }

    /// Reverses [`StoreKey::pack`]. Returns `None` if the offering code is
    /// unknown or the reserved top bits are set.
    pub fn unpack(packed: u64) -> Option<Self> {
        let code = u8::try_from(packed >> OFFERING_SHIFT).ok()?;
        let offering = ServerOffering::from_code(code)?;
        let feature = FeatureId(((packed >> FEATURE_SHIFT) & 0xFFFF) as usize);
        let value = ValueId((packed & u64::from(u32::MAX)) as u32);
        Some(Self {
            offering,
            feature,
            value,
        })
    }
}

impl fmt::Display for StoreKey {
    /// The canonical snapshot form: `offering|feature-index|value-id`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}|{}|{}",
            self.offering.name(),
            self.feature.index(),
            self.value.0
        )
    }
}

impl FromStr for StoreKey {
    type Err = LorentzError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || LorentzError::InvalidConfig(format!("malformed store key '{s}'"));
        let mut parts = s.splitn(3, '|');
        let offering: ServerOffering = parts.next().ok_or_else(bad)?.parse()?;
        let feature: usize = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let value: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if feature > u16::MAX as usize {
            return Err(bad());
        }
        Ok(StoreKey::new(offering, FeatureId(feature), ValueId(value)))
    }
}

impl Serialize for StoreKey {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for StoreKey {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("store key must be a string"))?;
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

    fn key(offering: ServerOffering, feature: usize, value: u32) -> StoreKey {
        StoreKey::new(offering, FeatureId(feature), ValueId(value))
    }

    #[test]
    fn pack_unpack_round_trips_extremes() {
        for offering in ServerOffering::ALL {
            for feature in [0usize, 1, 7, u16::MAX as usize] {
                for value in [0u32, 1, u32::MAX] {
                    let k = key(offering, feature, value);
                    assert_eq!(StoreKey::unpack(k.pack()), Some(k));
                }
            }
        }
    }

    #[test]
    fn packed_keys_are_distinct() {
        let a = key(ServerOffering::Burstable, 1, 2);
        let b = key(ServerOffering::GeneralPurpose, 1, 2);
        let c = key(ServerOffering::Burstable, 2, 1);
        assert_ne!(a.pack(), b.pack());
        assert_ne!(a.pack(), c.pack());
    }

    #[test]
    fn unpack_rejects_garbage() {
        // Unknown offering code.
        assert_eq!(StoreKey::unpack(0xFF << 48), None);
        // Reserved top bits set.
        assert_eq!(StoreKey::unpack(1u64 << 60), None);
    }

    #[test]
    fn display_parse_round_trips() {
        let k = key(ServerOffering::MemoryOptimized, 4, 17);
        assert_eq!(k.to_string(), "memory_optimized|4|17");
        assert_eq!(k.to_string().parse::<StoreKey>().unwrap(), k);
        assert!("nope|1|2".parse::<StoreKey>().is_err());
        assert!("burstable|x|2".parse::<StoreKey>().is_err());
        assert!("burstable|1".parse::<StoreKey>().is_err());
        assert!("burstable|70000|2".parse::<StoreKey>().is_err());
    }

    #[test]
    fn serde_round_trips_as_string() {
        let k = key(ServerOffering::GeneralPurpose, 3, 9);
        let json = serde_json::to_string(&k).unwrap();
        assert_eq!(json, "\"general_purpose|3|9\"");
        let back: StoreKey = serde_json::from_str(&json).unwrap();
        assert_eq!(back, k);
    }

    #[test]
    #[should_panic(expected = "does not fit the packed key layout")]
    fn oversized_feature_index_panics() {
        let _ = key(ServerOffering::Burstable, usize::from(u16::MAX) + 1, 0);
    }
}
