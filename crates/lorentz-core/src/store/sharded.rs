//! The serving prediction store: one versioned snapshot, split across N
//! power-of-two shards, behind one hot-swap slot — the §4 deployment's
//! "publish a whole new version, then switch to it" (Fig. 8 step C).
//!
//! * A **publish** validates the batch once, splits its entries by routed
//!   shard into the next [`ShardedStoreSnapshot`] outside the lock, then
//!   stamps the next version and swaps one `Arc` under the lock.
//! * A **snapshot** is one lock and one refcount bump. It pins one whole
//!   version: every key and every default its holder probes comes from the
//!   same publish, however many publishes land meanwhile.
//! * A **lookup** probes each hierarchy level in the one shard map its
//!   packed key routes to (a [`ShardRouter`] multiply-fold, the same
//!   discipline the λ-tables hash with), then the per-offering default —
//!   [`PredictionStore::lookup`] semantics bit for bit (the
//!   shard-equivalence proptest pins `sharded lookup ≡ unsharded lookup`
//!   for arbitrary key sets).

use super::{PredictionStore, PublishBatch};
use crate::explain::Explanation;
use lorentz_types::{FeatureId, LorentzError, ServerOffering, ShardRouter, StoreKey, ValueId};
use std::collections::HashMap;
use std::sync::Arc;

/// The hot-swap prediction store the serving engine reads: one slot holding
/// the current [`ShardedStoreSnapshot`]. See the module docs for the
/// publish and snapshot contracts.
#[derive(Debug)]
pub struct ShardedPredictionStore {
    router: ShardRouter,
    /// The current version. Publishers serialize on this lock, which keeps
    /// versions monotone; readers hold it only for the refcount bump.
    slot: parking_lot::Mutex<Arc<ShardedStoreSnapshot>>,
}

impl ShardedPredictionStore {
    /// An empty store at version 0.
    ///
    /// # Errors
    /// [`LorentzError::InvalidConfig`] unless `shards` is a power of two
    /// (see [`ShardRouter::new`]).
    pub fn new(shards: usize) -> Result<Self, LorentzError> {
        Self::from_store(&PredictionStore::new(), shards)
    }

    /// Splits an existing store across `shards` shards, preserving its
    /// version and defaults.
    ///
    /// # Errors
    /// [`LorentzError::InvalidConfig`] for an invalid shard count.
    pub fn from_store(store: &PredictionStore, shards: usize) -> Result<Self, LorentzError> {
        let router = ShardRouter::new(shards)?;
        let snapshot = ShardedStoreSnapshot::split(
            router,
            store.version,
            store
                .entries
                .iter()
                .map(|(&packed, &capacity)| (packed, capacity)),
            store.defaults,
        );
        Ok(Self {
            router,
            slot: parking_lot::Mutex::new(Arc::new(snapshot)),
        })
    }

    /// How many shards the key space is split across.
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// Atomically replaces the whole store and returns the new version.
    /// Readers see either the old version or the new one, never a mix; a
    /// snapshot already handed out keeps answering from its own version.
    ///
    /// # Errors
    /// [`LorentzError::InvalidConfig`] for invalid capacities; the previous
    /// version stays served.
    pub fn publish(&self, batch: PublishBatch) -> Result<u64, LorentzError> {
        let mut staged = PredictionStore::new();
        staged.publish(batch)?;
        let mut next = ShardedStoreSnapshot::split(self.router, 0, staged.entries, staged.defaults);
        let mut slot = self.slot.lock();
        next.version = slot.version + 1;
        let version = next.version;
        *slot = Arc::new(next);
        Ok(version)
    }

    /// The current version, pinned: one refcount bump, no data copy.
    pub fn snapshot(&self) -> Arc<ShardedStoreSnapshot> {
        self.slot.lock().clone()
    }

    /// The version stamped on the most recent publish (0 = nothing
    /// published yet).
    pub fn version(&self) -> u64 {
        self.slot.lock().version
    }
}

/// One published store version, its entries split by routed shard: the
/// immutable view a degraded-path request probes.
#[derive(Debug)]
pub struct ShardedStoreSnapshot {
    version: u64,
    router: ShardRouter,
    /// Packed [`StoreKey`] → recommended primary capacity, one map per
    /// shard.
    shards: Box<[HashMap<u64, f64>]>,
    /// Fallback capacity per offering code when no key matches.
    defaults: [Option<f64>; ServerOffering::ALL.len()],
}

impl ShardedStoreSnapshot {
    fn split(
        router: ShardRouter,
        version: u64,
        entries: impl IntoIterator<Item = (u64, f64)>,
        defaults: [Option<f64>; ServerOffering::ALL.len()],
    ) -> Self {
        let mut shards = vec![HashMap::new(); router.shards()].into_boxed_slice();
        for (packed, capacity) in entries {
            shards[router.route_u64(packed)].insert(packed, capacity);
        }
        Self {
            version,
            router,
            shards,
            defaults,
        }
    }

    /// Looks up the prediction for a request, preserving
    /// [`PredictionStore::lookup`] semantics exactly: levels are probed
    /// most granular first (each in the one shard its packed key routes
    /// to), then the per-offering default answers.
    ///
    /// # Errors
    /// [`LorentzError::NotFound`] if no key matches and no default exists
    /// for the offering.
    pub fn lookup(
        &self,
        offering: ServerOffering,
        levels: &[(FeatureId, ValueId)],
    ) -> Result<(f64, Explanation), LorentzError> {
        for &(feature, value) in levels {
            let key = StoreKey::new(offering, feature, value);
            let packed = key.pack();
            if let Some(&c) = self.shards[self.router.route_u64(packed)].get(&packed) {
                return Ok((
                    c,
                    Explanation::StoreLookup {
                        key: Some(key),
                        offering,
                    },
                ));
            }
        }
        match self.defaults[usize::from(offering.code())] {
            Some(c) => Ok((
                c,
                Explanation::StoreLookup {
                    key: None,
                    offering,
                },
            )),
            None => Err(LorentzError::NotFound(format!(
                "no prediction and no default for offering {offering}"
            ))),
        }
    }

    /// The store version this snapshot pins.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Stored keys across every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    /// Whether no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(HashMap::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VERTICAL: FeatureId = FeatureId(0);
    const CUSTOMER: FeatureId = FeatureId(1);

    fn key(feature: FeatureId, value: u32) -> StoreKey {
        StoreKey::new(ServerOffering::GeneralPurpose, feature, ValueId(value))
    }

    fn batch(n: usize) -> PublishBatch {
        PublishBatch {
            entries: (0..n)
                .map(|i| (key(CUSTOMER, i as u32), 1.0 + i as f64))
                .collect(),
            defaults: vec![(ServerOffering::GeneralPurpose, 2.0)],
        }
    }

    #[test]
    fn rejects_non_power_of_two_shard_counts() {
        assert!(ShardedPredictionStore::new(3).is_err());
        assert!(ShardedPredictionStore::new(0).is_err());
        assert_eq!(ShardedPredictionStore::new(8).unwrap().shards(), 8);
    }

    #[test]
    fn sharded_lookup_matches_unsharded_for_every_key() {
        let mut flat = PredictionStore::new();
        flat.publish(batch(64)).unwrap();
        let sharded = ShardedPredictionStore::from_store(&flat, 8).unwrap();
        let snapshot = sharded.snapshot();
        assert_eq!(snapshot.len(), flat.len());
        assert_eq!(snapshot.version(), flat.version());
        for i in 0..64u32 {
            let levels = [(CUSTOMER, ValueId(i)), (VERTICAL, ValueId(0))];
            let flat_answer = flat
                .lookup(ServerOffering::GeneralPurpose, &levels)
                .unwrap();
            let sharded_answer = snapshot
                .lookup(ServerOffering::GeneralPurpose, &levels)
                .unwrap();
            assert_eq!(flat_answer.0, sharded_answer.0);
        }
        // Misses and defaults agree too.
        let miss = [(VERTICAL, ValueId(999))];
        assert_eq!(
            flat.lookup(ServerOffering::GeneralPurpose, &miss)
                .unwrap()
                .0,
            snapshot
                .lookup(ServerOffering::GeneralPurpose, &miss)
                .unwrap()
                .0,
        );
        assert!(flat.lookup(ServerOffering::Burstable, &miss).is_err());
        assert!(snapshot.lookup(ServerOffering::Burstable, &miss).is_err());
    }

    #[test]
    fn full_publish_bumps_one_version_across_all_shards() {
        let store = ShardedPredictionStore::new(4).unwrap();
        assert_eq!(store.publish(batch(16)).unwrap(), 1);
        assert_eq!(store.publish(batch(16)).unwrap(), 2);
        assert_eq!(store.version(), 2);
        assert_eq!(store.snapshot().version(), 2);
        assert_eq!(store.snapshot().len(), 16);
    }

    #[test]
    fn single_shard_degenerates_to_the_flat_store() {
        let store = ShardedPredictionStore::new(1).unwrap();
        store.publish(batch(8)).unwrap();
        let levels = [(CUSTOMER, ValueId(3))];
        assert_eq!(
            store
                .snapshot()
                .lookup(ServerOffering::GeneralPurpose, &levels)
                .unwrap()
                .0,
            4.0
        );
    }
}
