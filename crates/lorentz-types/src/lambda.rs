//! Versioned λ-delta records for epoch publishing and replication.
//!
//! Stage-3 personalization (Algorithm 1) updates a handful of
//! `(path, stratum)` λ entries per satisfaction signal, but a naive
//! publish re-materializes the whole fleet table. [`LambdaDelta`] is the
//! wire/WAL record of one publish: the epoch number it produced plus the
//! changed [`PathKey`] → [`StratLambdas`] entries, and nothing else. A
//! follower that applies every delta in epoch order reconstructs the
//! leader's λ table exactly (λ values are carried as full replacement
//! rows, so deltas are idempotent per epoch and safe to re-apply after a
//! truncated tail is rescanned).
//!
//! One encoding is provided: a fixed-layout binary pack
//! ([`LambdaDelta::pack`] / [`LambdaDelta::unpack`]), which is the tail of
//! every SignalWal record and so also of the replication stream that
//! carries those records verbatim. [`DeltaCorruption`] variants mirror the
//! [`StoreCorruption`](crate::StoreCorruption) discipline; `lorentz
//! wal-verify` decodes the pack to print a record.

use crate::error::DeltaCorruption;
use crate::offering::ServerOffering;
use crate::pathkey::PathKey;

/// Per-stratum λ values for one resource path, indexed by
/// [`ServerOffering::ALL`] position.
pub type StratLambdas = [f64; ServerOffering::ALL.len()];

/// Number of server-offering strata (the length of a [`StratLambdas`]).
pub const N_STRATA: usize = ServerOffering::ALL.len();

/// Bytes per packed delta entry: a `u128` key plus one `f64` per stratum.
const ENTRY_LEN: usize = 16 + 8 * N_STRATA;

/// Bytes in the packed header: epoch (`u64`) + entry count (`u32`).
const PACK_HEADER_LEN: usize = 12;

/// One epoch's worth of λ changes: the entries touched by the signals
/// applied since the previous publish, stamped with the epoch number the
/// publish produced.
///
/// Entries are full replacement rows (every stratum), sorted by packed
/// key, so applying a delta is a plain upsert per entry and two deltas
/// for the same epoch are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct LambdaDelta {
    /// The epoch this delta produced when published on the leader.
    pub epoch: u64,
    /// Changed profiles with their post-update λ rows, sorted by
    /// `PathKey::pack` order.
    pub entries: Vec<(PathKey, StratLambdas)>,
}

impl LambdaDelta {
    /// Builds a delta, sorting entries into canonical packed-key order.
    pub fn new(epoch: u64, mut entries: Vec<(PathKey, StratLambdas)>) -> Self {
        entries.sort_by_key(|(k, _)| k.pack());
        LambdaDelta { epoch, entries }
    }

    /// Whether the delta changes nothing (an epoch bump with no entries).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Packs the delta into the fixed binary layout:
    /// `[8 epoch LE][4 n_entries LE]` then per entry
    /// `[16 packed key LE][8 × N_STRATA f64-bits LE]`.
    pub fn pack(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PACK_HEADER_LEN + ENTRY_LEN * self.entries.len());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (key, lambdas) in &self.entries {
            out.extend_from_slice(&key.pack().to_le_bytes());
            for l in lambdas {
                out.extend_from_slice(&l.to_bits().to_le_bytes());
            }
        }
        out
    }

    /// Reverses [`LambdaDelta::pack`], reporting which integrity check
    /// failed on malformed input. λ bit patterns round-trip exactly.
    pub fn unpack(bytes: &[u8]) -> Result<Self, DeltaCorruption> {
        if bytes.len() < PACK_HEADER_LEN {
            return Err(DeltaCorruption::Truncated {
                need: PACK_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let epoch = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
        let n = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
        // Checked against the input before anything is allocated for the
        // declared count.
        let need = ENTRY_LEN.saturating_mul(n).saturating_add(PACK_HEADER_LEN);
        if bytes.len() < need {
            return Err(DeltaCorruption::Truncated {
                need,
                got: bytes.len(),
            });
        }
        if bytes.len() > need {
            return Err(DeltaCorruption::TrailingBytes {
                extra: bytes.len() - need,
            });
        }
        let mut entries = Vec::with_capacity(n);
        let mut at = PACK_HEADER_LEN;
        for _ in 0..n {
            let packed = u128::from_le_bytes(bytes[at..at + 16].try_into().expect("16 bytes"));
            let key = PathKey::unpack(packed).ok_or(DeltaCorruption::BadEntryKey { packed })?;
            at += 16;
            let mut lambdas = [0.0f64; N_STRATA];
            for l in &mut lambdas {
                *l = f64::from_bits(u64::from_le_bytes(
                    bytes[at..at + 8].try_into().expect("8 bytes"),
                ));
                at += 8;
            }
            entries.push((key, lambdas));
        }
        Ok(LambdaDelta { epoch, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CustomerId, ResourceGroupId, ResourcePath, SubscriptionId};

    fn key(c: u32, s: u32, r: u32) -> PathKey {
        PathKey::new(ResourcePath::new(
            CustomerId(c),
            SubscriptionId(s),
            ResourceGroupId(r),
        ))
    }

    fn sample() -> LambdaDelta {
        LambdaDelta::new(
            7,
            vec![
                (key(2, 1, 1), [0.5, -0.25, 8.0]),
                (key(1, 1, 1), [0.1, 0.2, 0.3]),
            ],
        )
    }

    #[test]
    fn new_sorts_entries_by_packed_key() {
        let d = sample();
        assert_eq!(d.entries[0].0, key(1, 1, 1));
        assert_eq!(d.entries[1].0, key(2, 1, 1));
    }

    #[test]
    fn pack_unpack_round_trips_bit_exact() {
        let d = LambdaDelta::new(
            u64::MAX,
            vec![(key(u32::MAX, 0, 7), [f64::MIN_POSITIVE, -0.0, 1.0 / 3.0])],
        );
        let back = LambdaDelta::unpack(&d.pack()).unwrap();
        assert_eq!(back.epoch, d.epoch);
        for ((ka, la), (kb, lb)) in d.entries.iter().zip(&back.entries) {
            assert_eq!(ka, kb);
            for (a, b) in la.iter().zip(lb) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn unpack_reports_each_corruption_kind() {
        let d = sample();
        let bytes = d.pack();
        // Short header.
        assert!(matches!(
            LambdaDelta::unpack(&bytes[..4]),
            Err(DeltaCorruption::Truncated { need: 12, .. })
        ));
        // Truncated entry payload.
        assert!(matches!(
            LambdaDelta::unpack(&bytes[..bytes.len() - 1]),
            Err(DeltaCorruption::Truncated { .. })
        ));
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0xFF);
        assert!(matches!(
            LambdaDelta::unpack(&long),
            Err(DeltaCorruption::TrailingBytes { extra: 1 })
        ));
        // Reserved key bits set.
        let mut bad = bytes;
        bad[PACK_HEADER_LEN + 15] = 0x80;
        assert!(matches!(
            LambdaDelta::unpack(&bad),
            Err(DeltaCorruption::BadEntryKey { .. })
        ));
    }

    #[test]
    fn empty_delta_is_empty() {
        let d = LambdaDelta::new(3, vec![]);
        assert!(d.is_empty());
        assert_eq!(LambdaDelta::unpack(&d.pack()).unwrap(), d);
    }
}
