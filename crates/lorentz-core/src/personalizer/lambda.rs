//! The live λ-table: Stage-3 state behind atomic-Arc epoch snapshots.
//!
//! Batch training freezes a [`Personalizer`] inside the deployment; online
//! personalization needs the same λ scores to keep moving while requests
//! are in flight. Each shard of a
//! [`ShardedLambdaStore`](super::ShardedLambdaStore) separates the two
//! roles with the same snapshot discipline as
//! [`ShardedPredictionStore`](crate::ShardedPredictionStore), but publishes
//! *deltas*, not full tables:
//!
//! * **Readers** clone an `Arc<LambdaEpoch>` out of a mutex-guarded slot
//!   (the lock is held only for the refcount bump) and probe lock-free.
//!   An epoch is a generational overlay: a large immutable **base**
//!   (`u128`-keyed via [`PathKey`]) shared structurally across epochs,
//!   plus a short newest-first stack of **overlay generations** holding
//!   only keys changed since the base was built. Lookup probes overlays
//!   then base; a hot key lands in the newest generation, so the common
//!   probe is one hash.
//! * **The writer** applies message-propagation rounds to a private
//!   [`Personalizer`] and accumulates the touched keys. A publish wraps
//!   just those keys into a new overlay generation and swaps the `Arc` —
//!   O(keys changed), independent of fleet size — returning the
//!   epoch-stamped [`LambdaDelta`] that the WAL frames and followers
//!   replay. When generations pile up they are merged, and once the
//!   merged overlay reaches a fixed fraction of the base it is folded
//!   into a fresh base off the reader hot path (counted by
//!   `personalizer.lambda.compactions`).
//!
//! Readers therefore never observe a half-applied propagation round: an
//! epoch is immutable from the moment it is published, and every epoch's
//! λ values are bit-identical to a full flatten of the writer state at
//! publish time (the delta-equivalence property tests assert this).

use super::{strat_index, Personalizer, SatisfactionSignal};
use crate::obs;
use lorentz_types::{
    DeltaCorruption, LambdaDelta, PathKey, PathKeyHasher, ResourcePath, ServerOffering, Sku,
    SkuCatalog, StratLambdas,
};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Maximum overlay generations an epoch may carry; a publish that would
/// exceed this merges all generations into one (bounding lookup probes).
const MAX_OVERLAY_GENERATIONS: usize = 4;

/// The merged overlay is folded into a new base once
/// `overlay_keys * FOLD_DIVISOR >= base_keys` — folding costs O(base), so
/// this keeps amortized publish cost proportional to keys actually
/// changed.
const FOLD_DIVISOR: usize = 2;

/// One packed-key λ table (a base or one overlay generation), probed with
/// the shared multiply-fold [`PathKeyHasher`] — the same discipline the
/// shard router reuses for its routing bits.
type LambdaTable = HashMap<u128, StratLambdas, BuildHasherDefault<PathKeyHasher>>;

/// One immutable published view of the λ-table: the epoch number plus a
/// generational overlay over a shared base. Probing never locks;
/// unregistered paths read λ = 0 exactly like [`Personalizer::lambda`].
#[derive(Debug, Clone, Default)]
pub struct LambdaEpoch {
    epoch: u64,
    len: usize,
    /// Overlay generations, newest first; probed before `base`.
    overlays: Vec<Arc<LambdaTable>>,
    /// The immutable base table, shared across epochs until a compaction
    /// folds accumulated overlays into a fresh one.
    base: Arc<LambdaTable>,
}

/// The historical name for a published λ view; since the epoch/delta
/// refactor every snapshot *is* a [`LambdaEpoch`].
pub type LambdaSnapshot = LambdaEpoch;

impl LambdaEpoch {
    /// Monotonically increasing publish epoch (the seed epoch is 1).
    pub fn version(&self) -> u64 {
        self.epoch
    }

    /// Alias for [`LambdaEpoch::version`] under its epoch name.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of overlay generations stacked on the base (0 right after a
    /// seed or a compaction).
    pub fn generations(&self) -> usize {
        self.overlays.len()
    }

    /// The λ score for a location; 0 if no profile was registered when
    /// the epoch was published.
    pub fn lambda(&self, path: &ResourcePath, offering: ServerOffering) -> f64 {
        self.row(PathKey::new(*path).pack())
            .map_or(0.0, |l| l[strat_index(offering)])
    }

    /// Overlay-then-base probe for one packed key.
    fn row(&self, key: u128) -> Option<&StratLambdas> {
        for generation in &self.overlays {
            if let Some(row) = generation.get(&key) {
                return Some(row);
            }
        }
        self.base.get(&key)
    }

    /// λ-adjusted capacity (Eq. 14): `c** = 2^λ · c*`, discretized to the
    /// catalog — the snapshot-side mirror of [`Personalizer::adjust`].
    pub fn adjust(
        &self,
        stage2_capacity: f64,
        path: &ResourcePath,
        offering: ServerOffering,
        catalog: &SkuCatalog,
    ) -> Sku {
        let lambda = self.lambda(path, offering);
        crate::provisioner::discretize(catalog, lambda.exp2() * stage2_capacity)
    }

    /// Number of registered profiles in this epoch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the epoch holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The single writer's working state behind the epoch slot.
struct WriterState {
    /// The nested customer → subscription → resource-group tree doubles
    /// as the propagation index for `apply_signal`.
    personalizer: Personalizer,
    /// Keys touched since the last publish, with their post-update rows —
    /// the next epoch's overlay generation and the next delta's entries.
    pending: LambdaTable,
}

/// One shard of a [`ShardedLambdaStore`](super::ShardedLambdaStore): a
/// single-writer [`Personalizer`] plus the atomic-Arc epoch slot readers
/// probe. Publishes are O(keys changed) and happen at epochs the sharded
/// store mints; [`LambdaStore::publish_delta_at`] returns the
/// [`LambdaDelta`] a follower needs to replay the epoch, and
/// [`LambdaStore::apply_delta`] is that follower-side replay.
pub(crate) struct LambdaStore {
    /// The single writer's working state.
    writer: parking_lot::Mutex<WriterState>,
    /// The published epoch readers clone.
    slot: parking_lot::Mutex<Arc<LambdaEpoch>>,
}

impl std::fmt::Debug for LambdaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let epoch = self.slot.lock().clone();
        f.debug_struct("LambdaStore")
            .field("epoch", &epoch.epoch)
            .field("len", &epoch.len)
            .field("generations", &epoch.overlays.len())
            .finish_non_exhaustive()
    }
}

impl LambdaStore {
    /// Wraps a personalizer (typically the batch-trained Stage-3 state)
    /// and publishes its current λ values as the base of epoch 1.
    pub(crate) fn new(personalizer: Personalizer) -> Self {
        Self {
            slot: parking_lot::Mutex::new(seed_epoch(&personalizer)),
            writer: parking_lot::Mutex::new(WriterState {
                personalizer,
                pending: LambdaTable::default(),
            }),
        }
    }

    /// Discards the writer state and every published epoch, starting over
    /// from `personalizer` at epoch 1 exactly as [`LambdaStore::new`] does.
    pub(crate) fn reset(&self, personalizer: Personalizer) {
        let mut w = self.writer.lock();
        *self.slot.lock() = seed_epoch(&personalizer);
        *w = WriterState {
            personalizer,
            pending: LambdaTable::default(),
        };
    }

    /// The current epoch — a cheap `Arc` clone; probe it lock-free.
    pub(crate) fn snapshot(&self) -> Arc<LambdaEpoch> {
        self.slot.lock().clone()
    }

    /// Applies one signal to the writer state, accumulating the touched
    /// keys for the next delta. Not visible to readers until published.
    pub(crate) fn apply_signal(&self, signal: &SatisfactionSignal) {
        let w = &mut *self.writer.lock();
        let pending = &mut w.pending;
        w.personalizer.apply_signal_sink(signal, |path, lambdas| {
            pending.insert(PathKey::new(path).pack(), lambdas);
        });
    }

    /// Publishes the keys touched since the last publish as a new overlay
    /// generation at an externally minted `epoch` and swaps the epoch
    /// pointer — O(keys changed), never a full flatten. Returns the
    /// epoch-stamped [`LambdaDelta`] (sorted, canonical) for WAL framing
    /// and replication; an empty delta still advances the epoch. A
    /// central counter mints the number, so shard-local epochs advance
    /// with gaps (which delta replay tolerates) while the framed records
    /// stay strictly increasing.
    ///
    /// # Errors
    /// [`DeltaCorruption::EpochRegression`] if `epoch` does not advance
    /// this store's current epoch; pending changes stay pending.
    pub(crate) fn publish_delta_at(&self, epoch: u64) -> Result<LambdaDelta, DeltaCorruption> {
        let mut w = self.writer.lock();
        let current = self.slot.lock().clone();
        if epoch <= current.epoch {
            return Err(DeltaCorruption::EpochRegression {
                current: current.epoch,
                got: epoch,
            });
        }
        let pending = std::mem::take(&mut w.pending);
        let len = w.personalizer.profiles();
        let delta = LambdaDelta::new(
            epoch,
            pending
                .iter()
                .map(|(k, v)| (PathKey::unpack(*k).expect("packed from PathKey"), *v))
                .collect(),
        );
        self.swap_epoch(&current, epoch, pending, len);
        Ok(delta)
    }

    /// Applies replicated delta entries — the follower-side mirror of
    /// [`LambdaStore::publish_delta_at`]: upserts every entry into the
    /// writer state and publishes at exactly `epoch`. Epochs must advance
    /// but may skip numbers (a leader publishes epochs that never reach
    /// the WAL, e.g. the post-replay epoch after a restart).
    ///
    /// # Errors
    /// [`DeltaCorruption::EpochRegression`] if `epoch` does not advance
    /// the store's current epoch; the store is unchanged.
    pub(crate) fn apply_delta<'a>(
        &self,
        epoch: u64,
        entries: impl IntoIterator<Item = &'a (PathKey, StratLambdas)>,
    ) -> Result<u64, DeltaCorruption> {
        let mut w = self.writer.lock();
        let current = self.slot.lock().clone();
        if epoch <= current.epoch {
            return Err(DeltaCorruption::EpochRegression {
                current: current.epoch,
                got: epoch,
            });
        }
        let state = &mut *w;
        for (key, lambdas) in entries {
            state.personalizer.set_lambdas(key.path(), *lambdas);
            state.pending.insert(key.pack(), *lambdas);
        }
        let pending = std::mem::take(&mut state.pending);
        let len = state.personalizer.profiles();
        self.swap_epoch(&current, epoch, pending, len);
        Ok(epoch)
    }

    /// Fast-forwards the published epoch number to `epoch` without
    /// changing any λ values (no-op if already at or past it), returning
    /// the resulting epoch. Used after WAL replay so the next publish
    /// continues the on-disk epoch numbering instead of restarting below
    /// records already written.
    pub(crate) fn restore_epoch(&self, epoch: u64) -> u64 {
        let _writer = self.writer.lock();
        let current = self.slot.lock().clone();
        if current.epoch >= epoch {
            return current.epoch;
        }
        let mut renumbered = (*current).clone();
        renumbered.epoch = epoch;
        *self.slot.lock() = Arc::new(renumbered);
        epoch
    }

    /// Builds the next epoch from `current` plus one pending generation
    /// and swaps it into the slot. Merges piled-up generations and folds
    /// them into a fresh base past the compaction threshold — all outside
    /// the slot lock, so readers only ever wait for the pointer swap.
    /// Caller holds the writer lock, serializing epoch construction.
    fn swap_epoch(&self, current: &LambdaEpoch, epoch: u64, pending: LambdaTable, len: usize) {
        obs::LAMBDA_DELTA_KEYS.add(pending.len() as u64);
        let mut overlays = Vec::with_capacity(current.overlays.len() + 1);
        if !pending.is_empty() {
            overlays.push(Arc::new(pending));
        }
        overlays.extend(current.overlays.iter().cloned());
        let mut base = Arc::clone(&current.base);
        if overlays.len() > MAX_OVERLAY_GENERATIONS {
            // Merge every generation, oldest first, so newer rows win.
            let mut merged = LambdaTable::with_capacity_and_hasher(
                overlays.iter().map(|g| g.len()).sum(),
                BuildHasherDefault::default(),
            );
            for generation in overlays.iter().rev() {
                for (k, v) in generation.iter() {
                    merged.insert(*k, *v);
                }
            }
            if merged.len() * FOLD_DIVISOR >= base.len() {
                // Fold into a fresh base off the reader hot path.
                let mut folded = (*base).clone();
                folded.extend(merged);
                base = Arc::new(folded);
                overlays = Vec::new();
                obs::LAMBDA_COMPACTIONS.inc();
            } else {
                overlays = vec![Arc::new(merged)];
            }
        }
        *self.slot.lock() = Arc::new(LambdaEpoch {
            epoch,
            len,
            overlays,
            base,
        });
        obs::LAMBDA_PUBLISHES.inc();
    }
}

/// Epoch 1 over `personalizer`: its whole λ table as the base, no overlays.
fn seed_epoch(personalizer: &Personalizer) -> Arc<LambdaEpoch> {
    Arc::new(LambdaEpoch {
        epoch: 1,
        len: personalizer.profiles(),
        overlays: Vec::new(),
        base: Arc::new(flatten(personalizer)),
    })
}

/// Flattens the nested λ tree into the packed-key table an epoch's base
/// serves. Only used to seed epoch 1; subsequent publishes are deltas.
fn flatten(personalizer: &Personalizer) -> LambdaTable {
    let mut out = LambdaTable::with_capacity_and_hasher(
        personalizer.profiles(),
        BuildHasherDefault::default(),
    );
    for (path, lambdas) in personalizer.iter_profiles() {
        out.insert(PathKey::new(path).pack(), lambdas);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::personalizer::PersonalizerConfig;
    use lorentz_types::{CustomerId, ResourceGroupId, SubscriptionId};

    fn path(c: u32, s: u32, r: u32) -> ResourcePath {
        ResourcePath::new(CustomerId(c), SubscriptionId(s), ResourceGroupId(r))
    }

    fn store() -> LambdaStore {
        LambdaStore::new(Personalizer::new(PersonalizerConfig::default()).unwrap())
    }

    /// Publishes at the next epoch, as a one-shard sharded store does.
    fn publish(store: &LambdaStore) -> LambdaDelta {
        store
            .publish_delta_at(store.snapshot().version() + 1)
            .unwrap()
    }

    #[test]
    fn seed_snapshot_carries_trained_lambdas() {
        let mut p = Personalizer::new(PersonalizerConfig::default()).unwrap();
        p.set_lambda(path(1, 2, 3), ServerOffering::Burstable, 1.5);
        let store = LambdaStore::new(p);
        let snap = store.snapshot();
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.generations(), 0);
        assert_eq!(snap.lambda(&path(1, 2, 3), ServerOffering::Burstable), 1.5);
        assert_eq!(snap.lambda(&path(9, 9, 9), ServerOffering::Burstable), 0.0);
    }

    #[test]
    fn publish_is_invisible_until_swapped() {
        let store = store();
        let before = store.snapshot();
        let sig =
            SatisfactionSignal::new(path(1, 1, 1), ServerOffering::GeneralPurpose, 1.0).unwrap();
        store.apply_signal(&sig);
        // Applied but unpublished: readers still see the old table.
        assert_eq!(
            store
                .snapshot()
                .lambda(&path(1, 1, 1), ServerOffering::GeneralPurpose),
            0.0
        );
        let v = publish(&store).epoch;
        assert_eq!(v, 2);
        let after = store.snapshot();
        assert!((after.lambda(&path(1, 1, 1), ServerOffering::GeneralPurpose) - 0.3).abs() < 1e-12);
        // The pre-publish snapshot is untouched.
        assert_eq!(
            before.lambda(&path(1, 1, 1), ServerOffering::GeneralPurpose),
            0.0
        );
    }

    #[test]
    fn snapshot_matches_writer_for_every_offering() {
        let store = store();
        for (i, gamma) in [(1u32, 1.0), (2, -0.5), (3, 0.25)] {
            let sig =
                SatisfactionSignal::new(path(1, i, i * 10), ServerOffering::MemoryOptimized, gamma)
                    .unwrap();
            store.apply_signal(&sig);
        }
        publish(&store);
        let snap = store.snapshot();
        for (path, offering, lambda) in store.writer.lock().personalizer.iter() {
            assert_eq!(snap.lambda(&path, offering), lambda);
        }
    }

    #[test]
    fn adjust_mirrors_personalizer_adjust() {
        let store = store();
        let loc = path(1, 1, 1);
        let sig = SatisfactionSignal::new(loc, ServerOffering::GeneralPurpose, 1.0).unwrap();
        for _ in 0..3 {
            store.apply_signal(&sig);
        }
        publish(&store);
        let snap = store.snapshot();
        let catalog = SkuCatalog::azure_postgres(ServerOffering::GeneralPurpose);
        let via_snapshot = snap.adjust(4.0, &loc, ServerOffering::GeneralPurpose, &catalog);
        let via_writer = store.writer.lock().personalizer.adjust(
            4.0,
            &loc,
            ServerOffering::GeneralPurpose,
            &catalog,
        );
        assert_eq!(via_snapshot, via_writer);
        assert_eq!(via_snapshot.capacity.primary(), 8.0);
    }

    #[test]
    fn publish_delta_carries_only_touched_keys() {
        let mut p = Personalizer::new(PersonalizerConfig::default()).unwrap();
        // A second customer that no signal will reach.
        p.register(path(9, 9, 9));
        let store = LambdaStore::new(p);
        let sig =
            SatisfactionSignal::new(path(1, 1, 1), ServerOffering::GeneralPurpose, 1.0).unwrap();
        store.apply_signal(&sig);
        let delta = publish(&store);
        assert_eq!(delta.epoch, 2);
        assert_eq!(delta.entries.len(), 1);
        assert_eq!(delta.entries[0].0, PathKey::new(path(1, 1, 1)));
        // Untouched profiles stay visible through the base.
        let snap = store.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.generations(), 1);
        assert_eq!(snap.lambda(&path(9, 9, 9), ServerOffering::Burstable), 0.0);
    }

    #[test]
    fn empty_publish_advances_epoch_without_entries() {
        let store = store();
        let delta = publish(&store);
        assert_eq!(delta.epoch, 2);
        assert!(delta.is_empty());
        assert_eq!(store.snapshot().generations(), 0);
    }

    #[test]
    fn generations_merge_past_the_cap() {
        let store = store();
        for i in 0..10u32 {
            let sig = SatisfactionSignal::new(path(1, 1, i), ServerOffering::GeneralPurpose, 1.0)
                .unwrap();
            store.apply_signal(&sig);
            publish(&store);
        }
        let snap = store.snapshot();
        assert!(snap.generations() <= MAX_OVERLAY_GENERATIONS);
        // Every published value still resolves, merged or not.
        for (loc, off, l) in store.writer.lock().personalizer.iter() {
            assert_eq!(snap.lambda(&loc, off).to_bits(), l.to_bits());
        }
    }

    #[test]
    fn compaction_folds_overlays_into_new_base() {
        // One registered profile: every overlay immediately reaches the
        // fold threshold, so generations never accumulate past the merge.
        let store = store();
        let sig =
            SatisfactionSignal::new(path(1, 1, 1), ServerOffering::GeneralPurpose, 0.5).unwrap();
        for _ in 0..(MAX_OVERLAY_GENERATIONS + 1) {
            store.apply_signal(&sig);
            publish(&store);
        }
        let snap = store.snapshot();
        assert_eq!(snap.generations(), 0, "overlays folded into the base");
        assert_eq!(snap.version(), 2 + MAX_OVERLAY_GENERATIONS as u64);
        let expect = store
            .writer
            .lock()
            .personalizer
            .lambda(&path(1, 1, 1), ServerOffering::GeneralPurpose);
        assert_eq!(
            snap.lambda(&path(1, 1, 1), ServerOffering::GeneralPurpose),
            expect
        );
    }

    #[test]
    fn apply_delta_replays_leader_epochs_bit_exactly() {
        let leader = store();
        let follower = store();
        let mut deltas = Vec::new();
        for (i, gamma) in [(1u32, 1.0), (2, -0.5), (3, 0.25), (1, -1.0)] {
            let sig =
                SatisfactionSignal::new(path(1, i, i * 10), ServerOffering::MemoryOptimized, gamma)
                    .unwrap();
            leader.apply_signal(&sig);
            deltas.push(publish(&leader));
        }
        for d in &deltas {
            follower.apply_delta(d.epoch, &d.entries).unwrap();
        }
        let l = leader.snapshot();
        let f = follower.snapshot();
        assert_eq!(f.version(), l.version());
        assert_eq!(f.len(), l.len());
        for (loc, off, lambda) in leader.writer.lock().personalizer.iter() {
            assert_eq!(f.lambda(&loc, off).to_bits(), lambda.to_bits());
            assert_eq!(l.lambda(&loc, off).to_bits(), lambda.to_bits());
        }
    }

    #[test]
    fn apply_delta_rejects_stale_epochs() {
        let store = store();
        let delta = LambdaDelta::new(1, vec![(PathKey::new(path(1, 1, 1)), [9.0, 9.0, 9.0])]);
        let err = store.apply_delta(delta.epoch, &delta.entries).unwrap_err();
        assert!(matches!(
            err,
            DeltaCorruption::EpochRegression { current: 1, got: 1 }
        ));
        // The rejected delta left no trace.
        assert_eq!(store.snapshot().version(), 1);
        assert_eq!(
            store
                .snapshot()
                .lambda(&path(1, 1, 1), ServerOffering::GeneralPurpose),
            0.0
        );
    }

    #[test]
    fn publish_delta_at_mints_gapped_epochs_and_rejects_regression() {
        let store = store();
        let sig =
            SatisfactionSignal::new(path(1, 1, 1), ServerOffering::GeneralPurpose, 1.0).unwrap();
        store.apply_signal(&sig);
        // A central counter may skip numbers this shard never minted.
        let delta = store.publish_delta_at(7).unwrap();
        assert_eq!(delta.epoch, 7);
        assert_eq!(delta.entries.len(), 1);
        assert_eq!(store.snapshot().version(), 7);
        // Regression is refused and the pending keys survive for the next
        // valid publish.
        store.apply_signal(&sig);
        let err = store.publish_delta_at(7).unwrap_err();
        assert!(matches!(
            err,
            DeltaCorruption::EpochRegression { current: 7, got: 7 }
        ));
        let delta = store.publish_delta_at(9).unwrap();
        assert_eq!(delta.epoch, 9);
        assert_eq!(delta.entries.len(), 1, "pending keys were not lost");
        // The next publish continues from the adopted numbering.
        assert_eq!(publish(&store).epoch, 10);
    }

    #[test]
    fn apply_delta_accepts_epoch_gaps() {
        let store = store();
        let delta = LambdaDelta::new(7, vec![(PathKey::new(path(1, 1, 1)), [0.5, 0.5, 0.5])]);
        assert_eq!(store.apply_delta(delta.epoch, &delta.entries).unwrap(), 7);
        assert_eq!(store.snapshot().version(), 7);
    }

    #[test]
    fn restore_epoch_fast_forwards_without_changing_lambdas() {
        let store = store();
        let sig =
            SatisfactionSignal::new(path(1, 1, 1), ServerOffering::GeneralPurpose, 1.0).unwrap();
        store.apply_signal(&sig);
        publish(&store);
        let before = store.snapshot();
        assert_eq!(store.restore_epoch(9), 9);
        // Already past it: no-op.
        assert_eq!(store.restore_epoch(5), 9);
        let after = store.snapshot();
        assert_eq!(after.version(), 9);
        assert_eq!(
            after
                .lambda(&path(1, 1, 1), ServerOffering::GeneralPurpose)
                .to_bits(),
            before
                .lambda(&path(1, 1, 1), ServerOffering::GeneralPurpose)
                .to_bits()
        );
    }
}
