//! The sharded λ store: per-customer Stage-3 shards under one global,
//! WAL-monotone epoch sequence.
//!
//! λ-state shards by **customer**, not by full path, because Algorithm 1's
//! signal propagation is confined to the signaling customer's subtree — so
//! routing every path of a customer to one shard (via
//! [`ShardRouter::route_customer`]) makes a satisfaction signal, and the
//! λ-delta it publishes, a strictly single-shard affair. A feedback
//! publish swaps one shard's epoch `Arc`; readers of the other N−1 shards
//! never observe so much as a pointer swap.
//!
//! Epoch numbering stays **global**: a central counter mints each epoch
//! and the owning shard publishes at it via
//! [`LambdaStore::publish_delta_at`]. The WAL and follower replication
//! therefore still see strictly increasing epochs (shard-local epochs
//! advance with gaps, which delta replay already tolerates), and with one
//! shard the numbering degenerates bit-for-bit to the flat
//! [`LambdaStore`]'s.

use super::lambda::{LambdaSnapshot, LambdaStore};
use super::{Personalizer, SatisfactionSignal};
use lorentz_types::{LambdaDelta, LorentzError, ResourcePath, ShardRouter};
use std::sync::Arc;

/// N per-customer [`LambdaStore`] shards behind one multiply-fold router
/// and one global epoch counter. See the module docs for the sharding and
/// numbering contracts.
#[derive(Debug)]
pub struct ShardedLambdaStore {
    shards: Box<[LambdaStore]>,
    router: ShardRouter,
    /// The last minted (or restored) global epoch. Every publish holds
    /// this lock across the owning shard's swap, so minted epochs reach
    /// the slots in order.
    epoch: parking_lot::Mutex<u64>,
}

impl ShardedLambdaStore {
    /// Splits a personalizer's profiles across `shards` per-customer
    /// shards. Each shard starts as epoch 1 of its slice (matching
    /// [`LambdaStore::new`]); the global counter starts at 1.
    ///
    /// # Errors
    /// [`LorentzError::InvalidConfig`] for a non-power-of-two shard count
    /// or an invalid personalizer config.
    pub fn new(personalizer: Personalizer, shards: usize) -> Result<Self, LorentzError> {
        let router = ShardRouter::new(shards)?;
        let stores = if router.shards() == 1 {
            vec![LambdaStore::new(personalizer)]
        } else {
            let mut slices = Vec::with_capacity(router.shards());
            for _ in 0..router.shards() {
                slices.push(Personalizer::new(*personalizer.config())?);
            }
            for (path, lambdas) in personalizer.iter_profiles() {
                slices[router.route_customer(path.customer)].set_lambdas(path, lambdas);
            }
            slices.into_iter().map(LambdaStore::new).collect()
        };
        Ok(Self {
            shards: stores.into_boxed_slice(),
            router,
            epoch: parking_lot::Mutex::new(1),
        })
    }

    /// How many shards the customer space is split across.
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// The shard owning a path's customer — total and stable.
    pub fn shard_of(&self, path: &ResourcePath) -> usize {
        self.router.route_customer(path.customer)
    }

    /// The owning shard's current epoch — a cheap `Arc` clone; probe it
    /// lock-free. The snapshot covers every path of the customer (signal
    /// propagation never leaves the shard).
    pub fn snapshot_for(&self, path: &ResourcePath) -> Arc<LambdaSnapshot> {
        self.shards[self.shard_of(path)].snapshot()
    }

    /// One shard's current epoch, by index (diagnostics and tests).
    ///
    /// # Errors
    /// [`LorentzError::InvalidConfig`] for an out-of-range shard index.
    pub fn snapshot_shard(&self, shard: usize) -> Result<Arc<LambdaSnapshot>, LorentzError> {
        self.shards
            .get(shard)
            .map(LambdaStore::snapshot)
            .ok_or_else(|| {
                LorentzError::InvalidConfig(format!(
                    "shard {shard} out of range (store has {} shards)",
                    self.router.shards()
                ))
            })
    }

    /// The last minted (or restored) global epoch. With one shard this is
    /// exactly the flat store's published epoch.
    pub fn version(&self) -> u64 {
        *self.epoch.lock()
    }

    /// Applies one signal to the owning shard's writer state. Not visible
    /// to readers until published.
    pub fn apply_signal(&self, signal: &SatisfactionSignal) {
        self.shards[self.shard_of(&signal.path)].apply_signal(signal);
    }

    /// Applies a batch of signals in order, each routed to its owning
    /// shard. Not visible to readers until published.
    pub fn apply_signals(&self, signals: &[SatisfactionSignal]) {
        for signal in signals {
            self.apply_signal(signal);
        }
    }

    /// Publishes the signal's owning shard at a freshly minted global
    /// epoch, returning the epoch-stamped delta for WAL framing and
    /// replication. Only that shard's epoch pointer swaps.
    pub fn publish_delta_for(&self, path: &ResourcePath) -> LambdaDelta {
        let mut epoch = self.epoch.lock();
        *epoch += 1;
        self.shards[self.shard_of(path)]
            .publish_delta_at(*epoch)
            .expect("globally minted epochs advance every shard")
    }

    /// Publishes every shard's pending changes, each at its own freshly
    /// minted global epoch, returning the last epoch minted. Used for
    /// replay-style bulk publishes; with one shard this is exactly the
    /// flat store's [`LambdaStore::publish`].
    pub fn publish(&self) -> u64 {
        let mut epoch = self.epoch.lock();
        for shard in &self.shards {
            *epoch += 1;
            shard
                .publish_delta_at(*epoch)
                .expect("globally minted epochs advance every shard");
        }
        *epoch
    }

    /// Fast-forwards the global counter and every shard's published epoch
    /// to at least `epoch` without changing any λ values, returning the
    /// resulting global epoch. Used after WAL replay so the next publish
    /// continues the on-disk numbering.
    pub fn restore_epoch(&self, epoch: u64) -> u64 {
        let mut global = self.epoch.lock();
        if epoch > *global {
            *global = epoch;
        }
        for shard in &self.shards {
            shard.restore_epoch(epoch);
        }
        *global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::personalizer::PersonalizerConfig;
    use lorentz_types::{CustomerId, ResourceGroupId, ServerOffering, SubscriptionId};

    fn path(customer: u32, sub: u32, rg: u32) -> ResourcePath {
        ResourcePath::new(
            CustomerId(customer),
            SubscriptionId(sub),
            ResourceGroupId(rg),
        )
    }

    fn signal(p: ResourcePath, gamma: f64) -> SatisfactionSignal {
        SatisfactionSignal::new(p, ServerOffering::GeneralPurpose, gamma).unwrap()
    }

    fn seeded(shards: usize) -> ShardedLambdaStore {
        let mut personalizer = Personalizer::new(PersonalizerConfig::default()).unwrap();
        for customer in 0..32 {
            personalizer.register(path(customer, 0, 0));
        }
        ShardedLambdaStore::new(personalizer, shards).unwrap()
    }

    #[test]
    fn single_shard_matches_flat_store_numbering() {
        let store = seeded(1);
        assert_eq!(store.version(), 1);
        let p = path(3, 0, 0);
        store.apply_signal(&signal(p, 1.0));
        let delta = store.publish_delta_for(&p);
        assert_eq!(delta.epoch, 2);
        assert_eq!(store.version(), 2);
        assert_eq!(store.snapshot_for(&p).version(), 2);
    }

    #[test]
    fn sharded_lambdas_match_flat_for_any_customer() {
        let mut flat = Personalizer::new(PersonalizerConfig::default()).unwrap();
        for customer in 0..32 {
            flat.register(path(customer, 0, 0));
        }
        let flat_store = LambdaStore::new(flat.clone());
        let sharded = ShardedLambdaStore::new(flat, 8).unwrap();
        for customer in [0u32, 7, 31] {
            let p = path(customer, 0, 0);
            let s = signal(p, 0.5);
            flat_store.apply_signal(&s);
            sharded.apply_signal(&s);
            flat_store.publish();
            sharded.publish_delta_for(&p);
            assert_eq!(
                flat_store
                    .snapshot()
                    .lambda(&p, ServerOffering::GeneralPurpose),
                sharded
                    .snapshot_for(&p)
                    .lambda(&p, ServerOffering::GeneralPurpose),
                "customer {customer} diverged from the flat store"
            );
        }
    }

    #[test]
    fn delta_publish_swaps_only_the_owning_shard() {
        let store = seeded(4);
        let p = path(5, 0, 0);
        let owner = store.shard_of(&p);
        let before: Vec<_> = (0..4).map(|i| store.snapshot_shard(i).unwrap()).collect();
        store.apply_signal(&signal(p, 1.0));
        store.publish_delta_for(&p);
        for (i, was) in before.iter().enumerate() {
            let now = store.snapshot_shard(i).unwrap();
            if i == owner {
                assert!(!Arc::ptr_eq(was, &now), "owning shard must swap");
            } else {
                assert!(
                    Arc::ptr_eq(was, &now),
                    "shard {i} swapped without a publish"
                );
            }
        }
    }

    #[test]
    fn global_epochs_stay_strictly_increasing_across_shards() {
        let store = seeded(4);
        let mut last = store.version();
        for customer in 0..16u32 {
            let p = path(customer, 0, 0);
            store.apply_signal(&signal(p, 0.25));
            let delta = store.publish_delta_for(&p);
            assert!(
                delta.epoch > last,
                "epoch regressed: {} -> {}",
                last,
                delta.epoch
            );
            last = delta.epoch;
        }
        assert_eq!(store.version(), last);
    }

    #[test]
    fn restore_epoch_fast_forwards_every_shard() {
        let store = seeded(4);
        assert_eq!(store.restore_epoch(40), 40);
        assert_eq!(store.version(), 40);
        for shard in 0..4 {
            assert_eq!(store.snapshot_shard(shard).unwrap().version(), 40);
        }
        // The next publish continues past the restored numbering.
        let p = path(1, 0, 0);
        store.apply_signal(&signal(p, 1.0));
        assert_eq!(store.publish_delta_for(&p).epoch, 41);
        // Restoring backwards is a no-op.
        assert_eq!(store.restore_epoch(5), 41);
    }
}
