//! The λ store: per-customer Stage-3 shards under one global, WAL-monotone
//! epoch sequence.
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
//! and the owning shard publishes at it. The WAL and follower replication
//! therefore see strictly increasing epochs (shard-local epochs advance
//! with gaps, which delta replay tolerates), and with one shard every
//! epoch lands in the single shard: `shards = 1` is the flat λ-table.

use super::lambda::{LambdaSnapshot, LambdaStore};
use super::{Personalizer, SatisfactionSignal};
use lorentz_types::{DeltaCorruption, LambdaDelta, LorentzError, ResourcePath, ShardRouter};
use std::sync::Arc;

/// N per-customer λ shards behind one multiply-fold router and one global
/// epoch counter. See the module docs for the sharding and numbering
/// contracts.
///
/// ```
/// use lorentz_core::personalizer::{Personalizer, PersonalizerConfig, ShardedLambdaStore};
/// use lorentz_core::SatisfactionSignal;
/// use lorentz_types::{CustomerId, ResourceGroupId, ResourcePath, ServerOffering, SubscriptionId};
///
/// let store = ShardedLambdaStore::new(Personalizer::new(PersonalizerConfig::default())?, 1)?;
/// let path = ResourcePath::new(CustomerId(1), SubscriptionId(1), ResourceGroupId(1));
/// let before = store.snapshot_for(&path);
///
/// store.apply_signal(&SatisfactionSignal::new(path, ServerOffering::GeneralPurpose, 1.0)?);
/// let delta = store.publish_delta_for(&path);
/// assert_eq!(delta.epoch, 2);
/// assert_eq!(delta.entries.len(), 1); // only the touched key is republished
///
/// // The old epoch is immutable; a fresh one sees the new λ.
/// assert_eq!(before.lambda(&path, ServerOffering::GeneralPurpose), 0.0);
/// let after = store.snapshot_for(&path);
/// assert!((after.lambda(&path, ServerOffering::GeneralPurpose) - 0.3).abs() < 1e-12);
/// assert!(after.version() > before.version());
///
/// // A follower of any shard count replays the delta and converges
/// // bit-exactly, at the leader's epoch.
/// let follower = ShardedLambdaStore::new(Personalizer::new(PersonalizerConfig::default())?, 4)?;
/// follower.apply_delta(&delta).unwrap();
/// assert_eq!(follower.version(), store.version());
/// assert_eq!(
///     follower.snapshot_for(&path).lambda(&path, ServerOffering::GeneralPurpose),
///     after.lambda(&path, ServerOffering::GeneralPurpose),
/// );
/// # Ok::<(), lorentz_types::LorentzError>(())
/// ```
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
    /// shards. Each shard starts as epoch 1 of its slice; the global
    /// counter starts at 1.
    ///
    /// # Errors
    /// [`LorentzError::InvalidConfig`] for a non-power-of-two shard count
    /// or an invalid personalizer config.
    pub fn new(personalizer: Personalizer, shards: usize) -> Result<Self, LorentzError> {
        let router = ShardRouter::new(shards)?;
        let stores = split(personalizer, &router)?
            .into_iter()
            .map(LambdaStore::new)
            .collect();
        Ok(Self {
            shards: stores,
            router,
            epoch: parking_lot::Mutex::new(1),
        })
    }

    /// Discards every shard's λ-state and starts over from `personalizer`
    /// at epoch 1, as [`ShardedLambdaStore::new`] would — in place, so
    /// every holder of the store sees the reset. A follower does this on a
    /// full resync.
    ///
    /// # Errors
    /// [`LorentzError::InvalidConfig`] for an invalid personalizer config;
    /// the store is then unchanged.
    pub fn reset(&self, personalizer: Personalizer) -> Result<(), LorentzError> {
        let slices = split(personalizer, &self.router)?;
        let mut epoch = self.epoch.lock();
        for (shard, slice) in self.shards.iter().zip(slices) {
            shard.reset(slice);
        }
        *epoch = 1;
        Ok(())
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

    /// The last minted, applied or restored global epoch.
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
    /// replay-style bulk publishes.
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

    /// Applies a replicated delta — the follower-side mirror of
    /// [`ShardedLambdaStore::publish_delta_for`]: routes every entry to its
    /// customer's shard, publishes each shard that received entries at
    /// exactly `delta.epoch`, and adopts that epoch as the global one. A
    /// follower's shard count need not match its leader's. Epochs must
    /// advance but may skip numbers (a leader publishes epochs that never
    /// reach the WAL, e.g. the post-replay epoch after a restart).
    ///
    /// # Errors
    /// [`DeltaCorruption::EpochRegression`] if `delta.epoch` does not
    /// advance the global epoch; the store is unchanged.
    pub fn apply_delta(&self, delta: &LambdaDelta) -> Result<u64, DeltaCorruption> {
        let mut epoch = self.epoch.lock();
        if delta.epoch <= *epoch {
            return Err(DeltaCorruption::EpochRegression {
                current: *epoch,
                got: delta.epoch,
            });
        }
        for (index, shard) in self.shards.iter().enumerate() {
            let mut owned = delta
                .entries
                .iter()
                .filter(|(key, _)| self.router.route_customer(key.path().customer) == index)
                .peekable();
            if owned.peek().is_some() {
                shard
                    .apply_delta(delta.epoch, owned)
                    .expect("the global epoch bounds every shard's");
            }
        }
        *epoch = delta.epoch;
        Ok(delta.epoch)
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

/// One personalizer per shard of `router`, each holding the profiles of
/// the customers routed to it; one shard keeps `personalizer` whole.
fn split(
    personalizer: Personalizer,
    router: &ShardRouter,
) -> Result<Vec<Personalizer>, LorentzError> {
    if router.shards() == 1 {
        return Ok(vec![personalizer]);
    }
    let mut slices = Vec::with_capacity(router.shards());
    for _ in 0..router.shards() {
        slices.push(Personalizer::new(*personalizer.config())?);
    }
    for (path, lambdas) in personalizer.iter_profiles() {
        slices[router.route_customer(path.customer)].set_lambdas(path, lambdas);
    }
    Ok(slices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::personalizer::PersonalizerConfig;
    use lorentz_types::{CustomerId, PathKey, ResourceGroupId, ServerOffering, SubscriptionId};

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
            flat_store
                .publish_delta_at(flat_store.snapshot().version() + 1)
                .unwrap();
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

    #[test]
    fn apply_delta_routes_entries_to_their_customers_shards() {
        let store = seeded(4);
        let entries: Vec<_> = (0..8u32)
            .map(|customer| (PathKey::new(path(customer, 0, 0)), [f64::from(customer); 3]))
            .collect();
        assert_eq!(store.apply_delta(&LambdaDelta::new(9, entries)), Ok(9));
        assert_eq!(store.version(), 9);
        for customer in 0..8u32 {
            let p = path(customer, 0, 0);
            let snapshot = store.snapshot_for(&p);
            assert_eq!(snapshot.version(), 9, "the owning shard publishes at 9");
            assert_eq!(
                snapshot.lambda(&p, ServerOffering::Burstable),
                f64::from(customer)
            );
        }
        // A replayed or older epoch is refused and changes nothing.
        let stale = LambdaDelta::new(9, vec![(PathKey::new(path(0, 0, 0)), [5.0; 3])]);
        assert_eq!(
            store.apply_delta(&stale),
            Err(DeltaCorruption::EpochRegression { current: 9, got: 9 })
        );
        let p = path(0, 0, 0);
        assert_eq!(
            store.snapshot_for(&p).lambda(&p, ServerOffering::Burstable),
            0.0
        );
    }

    #[test]
    fn reset_starts_over_in_place_at_epoch_one() {
        let store = seeded(4);
        let p = path(5, 0, 0);
        store.apply_signal(&signal(p, 1.0));
        store.publish_delta_for(&p);
        store.restore_epoch(40);
        let mut fresh = Personalizer::new(PersonalizerConfig::default()).unwrap();
        fresh.register(path(6, 0, 0));
        store.reset(fresh).unwrap();
        assert_eq!(store.version(), 1);
        for shard in 0..4 {
            assert_eq!(store.snapshot_shard(shard).unwrap().version(), 1);
        }
        assert_eq!(
            store
                .snapshot_for(&p)
                .lambda(&p, ServerOffering::GeneralPurpose),
            0.0
        );
        assert_eq!(store.snapshot_for(&path(6, 0, 0)).len(), 1);
        // The next leader epoch applies on top of the reset state.
        let delta = LambdaDelta::new(2, vec![(PathKey::new(p), [0.5; 3])]);
        assert_eq!(store.apply_delta(&delta), Ok(2));
    }
}
