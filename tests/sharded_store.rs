//! Property-based concurrency tests for the sharded serving state: shard
//! routing totality/stability, sharded ≡ unsharded lookup equivalence for
//! arbitrary key sets, torn-read freedom of pinned snapshots under racing
//! full publishes, and sharded ≡ flat λ equivalence under random signal
//! streams.

use lorentz::core::store::PublishBatch;
use lorentz::core::{
    Personalizer, PersonalizerConfig, PredictionStore, SatisfactionSignal, ShardedLambdaStore,
    ShardedPredictionStore,
};
use lorentz::types::{
    CustomerId, FeatureId, ResourceGroupId, ResourcePath, ServerOffering, ShardRouter, StoreKey,
    SubscriptionId, ValueId,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn offering() -> impl Strategy<Value = ServerOffering> {
    (0u64..ServerOffering::ALL.len() as u64)
        .prop_map(|c| ServerOffering::from_code(c as u8).unwrap())
}

fn store_key() -> impl Strategy<Value = StoreKey> {
    (offering(), 0u64..=u16::MAX as u64, any::<u32>())
        .prop_map(|(o, f, v)| StoreKey::new(o, FeatureId(f as usize), ValueId(v)))
}

/// Power-of-two shard counts from the 1-shard degenerate case up to
/// `1 << max_log2`.
fn shard_count(max_log2: u32) -> impl Strategy<Value = usize> {
    (0..=max_log2).prop_map(|log2| 1usize << log2)
}

proptest! {
    /// Routing is total and stable: every packed key maps to exactly one
    /// in-range shard, the mapping is a pure function of (key, count), and
    /// the u128 path routing obeys the same contract.
    #[test]
    fn shard_routing_is_total_and_stable(
        shards in shard_count(10),
        keys in collection::vec(any::<u64>(), 1..64),
        path_key_halves in collection::vec((any::<u64>(), any::<u64>()), 1..64),
    ) {
        let router = ShardRouter::new(shards).unwrap();
        prop_assert_eq!(router.shards(), shards);
        for &key in &keys {
            let shard = router.route_u64(key);
            prop_assert!(shard < shards, "key {key} routed out of range: {shard}");
            // Stable: the same key re-routes identically, on this router
            // and on a freshly built router of the same count.
            prop_assert_eq!(router.route_u64(key), shard);
            prop_assert_eq!(ShardRouter::new(shards).unwrap().route_u64(key), shard);
        }
        for &(hi, lo) in &path_key_halves {
            let key = (u128::from(hi) << 64) | u128::from(lo);
            let shard = router.route_u128(key);
            prop_assert!(shard < shards, "path key {key} routed out of range: {shard}");
            prop_assert_eq!(router.route_u128(key), shard);
        }
    }

    /// Sharded lookup ≡ unsharded lookup for arbitrary key sets: same
    /// capacity, same explanation, same error, across every shard count —
    /// probing present keys, absent keys, and the default fallback.
    #[test]
    fn sharded_lookup_matches_unsharded_for_arbitrary_key_sets(
        shards in shard_count(10),
        entries in collection::vec((store_key(), 0.1f64..100.0), 1..48),
        default_capacity in (any::<bool>(), 0.1f64..100.0).prop_map(|(some, c)| some.then_some(c)),
        probe_offering in offering(),
        absent in store_key(),
    ) {
        // Dedup: PublishBatch accepts duplicate keys (last wins) but the
        // comparison is cleaner over a deterministic set.
        let mut unique: HashMap<u64, (StoreKey, f64)> = HashMap::new();
        for (key, capacity) in entries {
            unique.insert(key.pack(), (key, capacity));
        }
        let entries: Vec<(StoreKey, f64)> = unique.into_values().collect();
        let batch = PublishBatch {
            entries: entries.clone(),
            defaults: default_capacity
                .map(|c| vec![(probe_offering, c)])
                .unwrap_or_default(),
        };
        let mut flat = PredictionStore::new();
        flat.publish(batch.clone()).unwrap();
        let sharded = ShardedPredictionStore::new(shards).unwrap();
        sharded.publish(batch).unwrap();
        let snapshot = sharded.snapshot();
        prop_assert_eq!(snapshot.len(), flat.len());
        // Probe every published key at its own level, an absent key, and
        // a multi-level stack that falls through to the default.
        // `LorentzError` is not `PartialEq`; the debug rendering pins the
        // full result — capacity, explanation, and error message alike.
        for (key, _) in &entries {
            let (offering, feature, value) = (key.offering, key.feature, key.value);
            let levels = [(feature, value)];
            prop_assert_eq!(
                format!("{:?}", snapshot.lookup(offering, &levels)),
                format!("{:?}", flat.lookup(offering, &levels))
            );
        }
        let absent_levels = [(absent.feature, absent.value)];
        prop_assert_eq!(
            format!("{:?}", snapshot.lookup(absent.offering, &absent_levels)),
            format!("{:?}", flat.lookup(absent.offering, &absent_levels))
        );
        prop_assert_eq!(
            format!("{:?}", snapshot.lookup(probe_offering, &[])),
            format!("{:?}", flat.lookup(probe_offering, &[]))
        );
    }
}

/// Publishes `n_keys` entries that all carry capacity `c`, plus a matching
/// default, so a snapshot mixing two versions shows unequal capacities.
fn publish_uniform(store: &ShardedPredictionStore, n_keys: usize, c: f64) -> u64 {
    let offering = ServerOffering::GeneralPurpose;
    store
        .publish(PublishBatch {
            entries: (0..n_keys)
                .map(|i| (StoreKey::new(offering, FeatureId(i), ValueId(i as u32)), c))
                .collect(),
            defaults: vec![(offering, c)],
        })
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A snapshot pinned while an arbitrary stream of full publishes races
    /// it always holds one version, at any shard count: every key and the
    /// per-offering default carry one publish's uniform capacity, and the
    /// versions readers pin are monotone.
    #[test]
    fn full_publish_never_tears_a_pinned_snapshot(
        shards in shard_count(3),
        n_keys in 1usize..48,
        n_publishes in 1usize..400,
    ) {
        let store = Arc::new(ShardedPredictionStore::new(shards).unwrap());
        publish_uniform(&store, n_keys, 1.0);
        let done = Arc::new(AtomicBool::new(false));
        let publisher = {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for round in 0..n_publishes {
                    publish_uniform(&store, n_keys, 2.0 + round as f64);
                }
                done.store(true, Ordering::Release);
            })
        };
        let offering = ServerOffering::GeneralPurpose;
        // Every key at its own level, then no level at all (the default).
        let mut levels: Vec<Vec<(FeatureId, ValueId)>> = (0..n_keys)
            .map(|i| vec![(FeatureId(i), ValueId(i as u32))])
            .collect();
        levels.push(Vec::new());
        let mut last_version = 0u64;
        let mut rounds = 0usize;
        while rounds < 2 || !done.load(Ordering::Acquire) {
            rounds += 1;
            let snapshot = store.snapshot();
            let version = snapshot.version();
            prop_assert!(version >= last_version, "version went backwards");
            last_version = version;
            let capacities: Vec<f64> = levels
                .iter()
                .map(|l| snapshot.lookup(offering, l).expect("uniform store always answers").0)
                .collect();
            for &c in &capacities[1..] {
                // A torn snapshot would mix uniform values from two versions.
                prop_assert_eq!(c, capacities[0]);
            }
        }
        publisher.join().unwrap();
        prop_assert_eq!(store.version(), 1 + n_publishes as u64);
    }

    /// Sharded λ serving ≡ the flat λ store under an arbitrary signal
    /// stream: after each publish, every affected customer reads the same
    /// λ through `snapshot_for` as through the flat snapshot.
    #[test]
    fn sharded_lambdas_match_flat_under_random_signals(
        signals in collection::vec((0u32..24, -1.0f64..=1.0), 1..16),
        shards in shard_count(10),
    ) {
        let mut personalizer = Personalizer::new(PersonalizerConfig::default()).unwrap();
        for customer in 0..24 {
            for rg in 0..3 {
                personalizer.register(ResourcePath::new(
                    CustomerId(customer),
                    SubscriptionId(0),
                    ResourceGroupId(rg),
                ));
            }
        }
        let flat = ShardedLambdaStore::new(personalizer.clone(), 1).unwrap();
        let sharded = ShardedLambdaStore::new(personalizer, shards).unwrap();
        for (customer, gamma) in signals {
            let path =
                ResourcePath::new(CustomerId(customer), SubscriptionId(0), ResourceGroupId(0));
            let signal =
                SatisfactionSignal::new(path, ServerOffering::GeneralPurpose, gamma).unwrap();
            flat.apply_signal(&signal);
            sharded.apply_signal(&signal);
            flat.publish();
            sharded.publish_delta_for(&path);
            for rg in 0..3 {
                let probe =
                    ResourcePath::new(CustomerId(customer), SubscriptionId(0), ResourceGroupId(rg));
                prop_assert_eq!(
                    sharded
                        .snapshot_for(&probe)
                        .lambda(&probe, ServerOffering::GeneralPurpose),
                    flat.snapshot_for(&probe).lambda(&probe, ServerOffering::GeneralPurpose)
                );
            }
        }
    }
}
