//! Property-based tests of Algorithm 1 (message propagation), the λ
//! adjustment (Eq. 13-14), and the live λ-table
//! ([`ShardedLambdaStore`](lorentz::core::ShardedLambdaStore)) behind it.

use lorentz::core::{Personalizer, PersonalizerConfig, SatisfactionSignal, ShardedLambdaStore};
use lorentz::types::{
    CustomerId, ResourceGroupId, ResourcePath, ServerOffering, SkuCatalog, SubscriptionId,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn path(c: u32, s: u32, r: u32) -> ResourcePath {
    ResourcePath::new(CustomerId(c), SubscriptionId(s), ResourceGroupId(r))
}

fn config_strategy() -> impl Strategy<Value = PersonalizerConfig> {
    (0.05f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(lr, r, s, c)| {
        PersonalizerConfig {
            learning_rate: lr,
            rho_stratification: r,
            rho_resource_group: s,
            rho_subscription: c,
            lambda_clamp: 50.0,
        }
    })
}

fn gamma_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(-1.0), Just(1.0), -1.0f64..1.0]
}

proptest! {
    /// The propagation respects the locality ordering of Algorithm 1
    /// whenever the decays themselves are ordered (ρ_S >= ρ_C, the natural
    /// configuration): |update(same RG)| >= |update(same subscription)| >=
    /// |update(other subscription)|, and other customers receive nothing.
    #[test]
    fn propagation_locality_ordering(cfg in config_strategy(), gamma in gamma_strategy()) {
        prop_assume!(cfg.rho_resource_group >= cfg.rho_subscription);
        let mut p = Personalizer::new(cfg).unwrap();
        let origin = path(1, 1, 11);
        let sibling_rg = path(1, 1, 12);
        let other_sub = path(1, 2, 21);
        let other_customer = path(2, 9, 91);
        for loc in [origin, sibling_rg, other_sub, other_customer] {
            p.register(loc);
        }
        let st = ServerOffering::GeneralPurpose;
        p.apply_signal(&SatisfactionSignal::new(origin, st, gamma).unwrap());

        let at = |loc: &ResourcePath| p.lambda(loc, st).abs();
        prop_assert!(at(&origin) >= at(&sibling_rg) - 1e-12);
        prop_assert!(at(&sibling_rg) >= at(&other_sub) - 1e-12);
        prop_assert_eq!(p.lambda(&other_customer, st), 0.0);
    }

    /// Signal sign determines update sign everywhere it propagates.
    #[test]
    fn update_sign_matches_signal(cfg in config_strategy(), gamma in gamma_strategy()) {
        prop_assume!(gamma != 0.0);
        let mut p = Personalizer::new(cfg).unwrap();
        let origin = path(1, 1, 1);
        let sibling = path(1, 1, 2);
        p.register(origin);
        p.register(sibling);
        let st = ServerOffering::Burstable;
        p.apply_signal(&SatisfactionSignal::new(origin, st, gamma).unwrap());
        for loc in [origin, sibling] {
            for off in ServerOffering::ALL {
                let l = p.lambda(&loc, off);
                prop_assert!(l * gamma >= 0.0, "lambda {l} disagrees with gamma {gamma}");
            }
        }
    }

    /// Opposite signals of equal magnitude cancel exactly.
    #[test]
    fn opposite_signals_cancel(cfg in config_strategy(), gamma in 0.05f64..1.0) {
        let mut p = Personalizer::new(cfg).unwrap();
        let origin = path(3, 3, 3);
        p.register(origin);
        p.register(path(3, 3, 4));
        p.register(path(3, 5, 6));
        let st = ServerOffering::MemoryOptimized;
        p.apply_signal(&SatisfactionSignal::new(origin, st, gamma).unwrap());
        p.apply_signal(&SatisfactionSignal::new(origin, st, -gamma).unwrap());
        for (loc, off, l) in p.iter() {
            prop_assert!(l.abs() < 1e-9, "{loc} [{off}] kept residual {l}");
        }
    }

    /// λ values never exceed the clamp regardless of signal volume.
    #[test]
    fn lambda_is_clamped(signals in proptest::collection::vec(gamma_strategy(), 1..60)) {
        let cfg = PersonalizerConfig { lambda_clamp: 2.0, ..PersonalizerConfig::default() };
        let mut p = Personalizer::new(cfg).unwrap();
        let origin = path(1, 1, 1);
        p.register(origin);
        let st = ServerOffering::GeneralPurpose;
        for g in signals {
            p.apply_signal(&SatisfactionSignal::new(origin, st, g).unwrap());
            let l = p.lambda(&origin, st);
            prop_assert!(l.abs() <= 2.0 + 1e-12);
        }
    }

    /// Every λ in the whole tree — origin, propagated siblings, every
    /// stratum — stays within ±`lambda_clamp` under arbitrary interleaved
    /// signal sequences across paths, offerings, and clamp settings.
    #[test]
    fn lambda_clamped_under_arbitrary_sequences(
        clamp in 0.1f64..4.0,
        signals in proptest::collection::vec(
            (0usize..4, 0usize..3, gamma_strategy()),
            1..80,
        ),
    ) {
        let cfg = PersonalizerConfig { lambda_clamp: clamp, ..PersonalizerConfig::default() };
        let mut p = Personalizer::new(cfg).unwrap();
        let paths = [path(1, 1, 1), path(1, 1, 2), path(1, 2, 3), path(2, 1, 1)];
        for loc in paths {
            p.register(loc);
        }
        for (pi, oi, g) in signals {
            let st = ServerOffering::ALL[oi];
            p.apply_signal(&SatisfactionSignal::new(paths[pi], st, g).unwrap());
            for (loc, off, l) in p.iter() {
                prop_assert!(
                    l.abs() <= clamp + 1e-12,
                    "{loc} [{off}] escaped the clamp: {l} vs ±{clamp}"
                );
            }
        }
    }

    /// The batched entry point is exactly the sequential one: applying a
    /// signal vector through `apply_signals` leaves the personalizer in the
    /// same state as one-at-a-time `apply_signal`.
    #[test]
    fn apply_signals_matches_sequential(
        cfg in config_strategy(),
        signals in proptest::collection::vec(
            (0usize..4, 0usize..3, gamma_strategy()),
            0..40,
        ),
    ) {
        let paths = [path(1, 1, 1), path(1, 1, 2), path(1, 2, 3), path(2, 1, 1)];
        let build = || {
            let mut p = Personalizer::new(cfg).unwrap();
            for loc in paths {
                p.register(loc);
            }
            p
        };
        let sigs: Vec<SatisfactionSignal> = signals
            .iter()
            .map(|&(pi, oi, g)| {
                SatisfactionSignal::new(paths[pi], ServerOffering::ALL[oi], g).unwrap()
            })
            .collect();
        let mut sequential = build();
        for s in &sigs {
            sequential.apply_signal(s);
        }
        let mut batched = build();
        batched.apply_signals(&sigs);
        prop_assert_eq!(sequential, batched);
    }

    /// Delta/overlay replay is byte-identical to the legacy full-flatten
    /// path: a follower applying only the published [`LambdaDelta`]s
    /// reaches exactly the λ table a direct `Personalizer` holds — and so
    /// does the leader's own generational-overlay epoch, merges and
    /// compactions included.
    #[test]
    fn delta_replay_matches_full_flatten(
        cfg in config_strategy(),
        signals in proptest::collection::vec(
            (0usize..4, 0usize..3, gamma_strategy()),
            1..60,
        ),
    ) {
        let paths = [path(1, 1, 1), path(1, 1, 2), path(1, 2, 3), path(2, 1, 1)];
        let build = || {
            let mut p = Personalizer::new(cfg).unwrap();
            for loc in paths {
                p.register(loc);
            }
            p
        };
        let leader = ShardedLambdaStore::new(build(), 1).unwrap();
        let follower = ShardedLambdaStore::new(build(), 1).unwrap();
        let mut reference = build();
        for &(pi, oi, g) in &signals {
            let sig = SatisfactionSignal::new(paths[pi], ServerOffering::ALL[oi], g).unwrap();
            reference.apply_signal(&sig);
            leader.apply_signal(&sig);
            let delta = follower.apply_delta(&leader.publish_delta_for(&sig.path));
            prop_assert!(delta.is_ok(), "leader epochs always advance the follower");
        }
        let l = leader.snapshot_shard(0).unwrap();
        let f = follower.snapshot_shard(0).unwrap();
        prop_assert_eq!(f.version(), l.version());
        for (loc, off, lambda) in reference.iter() {
            prop_assert_eq!(l.lambda(&loc, off).to_bits(), lambda.to_bits());
            prop_assert_eq!(f.lambda(&loc, off).to_bits(), lambda.to_bits());
        }
    }

    /// A follower of any shard count that applies a leader's published
    /// deltas ends bit-identical to the leader — and to a direct
    /// `Personalizer` — in λ for every path and offering, at the leader's
    /// epoch, whatever shard count the leader itself runs with.
    #[test]
    fn followers_of_any_shard_count_converge_on_the_leader(
        cfg in config_strategy(),
        leader_shards in prop_oneof![Just(1usize), Just(2usize), Just(4usize), Just(8usize)],
        registered in proptest::collection::vec((0u32..12, 0u32..3, 0u32..3), 0..24),
        signals in proptest::collection::vec(
            ((0u32..12, 0u32..3, 0u32..3), 0usize..3, gamma_strategy()),
            1..80,
        ),
    ) {
        let build = || {
            let mut p = Personalizer::new(cfg).unwrap();
            for &(c, s, r) in &registered {
                p.register(path(c, s, r));
            }
            p
        };
        let leader = ShardedLambdaStore::new(build(), leader_shards).unwrap();
        let followers: Vec<ShardedLambdaStore> = [1, 2, 8]
            .into_iter()
            .map(|shards| ShardedLambdaStore::new(build(), shards).unwrap())
            .collect();
        let mut reference = build();
        for &((c, s, r), oi, g) in &signals {
            let sig = SatisfactionSignal::new(path(c, s, r), ServerOffering::ALL[oi], g).unwrap();
            reference.apply_signal(&sig);
            leader.apply_signal(&sig);
            let delta = leader.publish_delta_for(&sig.path);
            for follower in &followers {
                prop_assert_eq!(follower.apply_delta(&delta), Ok(delta.epoch));
            }
        }
        for follower in &followers {
            prop_assert_eq!(follower.version(), leader.version());
            for (loc, off, lambda) in reference.iter() {
                let led = leader.snapshot_for(&loc).lambda(&loc, off);
                let followed = follower.snapshot_for(&loc).lambda(&loc, off);
                prop_assert_eq!(led.to_bits(), lambda.to_bits());
                prop_assert!(
                    followed.to_bits() == lambda.to_bits(),
                    "a {}-shard follower diverged at {loc:?} {off:?}",
                    follower.shards()
                );
            }
        }
    }

    /// Eq. 14: the adjusted capacity is the catalog point nearest
    /// 2^λ · c* in log space, and λ = 0 is the identity on catalog values.
    #[test]
    fn adjustment_matches_eq14(
        lambda in -4.0f64..4.0,
        c_star_idx in 0usize..9,
    ) {
        let cat = SkuCatalog::azure_postgres(ServerOffering::GeneralPurpose);
        let c_star = cat.get(c_star_idx).capacity.primary();
        let mut p = Personalizer::new(PersonalizerConfig::default()).unwrap();
        let loc = path(1, 1, 1);
        p.set_lambda(loc, ServerOffering::GeneralPurpose, lambda);
        let adjusted = p.adjust(c_star, &loc, ServerOffering::GeneralPurpose, &cat);
        let expect = cat
            .nearest_log2(&lorentz::types::Capacity::scalar(lambda.exp2() * c_star))
            .capacity
            .primary();
        prop_assert_eq!(adjusted.capacity.primary(), expect);
        if lambda.abs() < 1e-12 {
            prop_assert_eq!(adjusted.capacity.primary(), c_star);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The λ-store mirror of the PR-3 torn-read store test: readers racing
    /// a publish stream always observe one consistent snapshot. With every
    /// decay at 1.0 each signal bumps *all* of a customer's λ values by
    /// exactly `learning_rate`, so a torn read (some profiles updated, some
    /// not, or strata from different rounds) shows up as unequal values;
    /// versions and values must also be monotone across snapshots.
    #[test]
    fn lambda_publish_never_tears_concurrent_reads(
        n_paths in 2usize..6,
        n_signals in 1usize..30,
    ) {
        let cfg = PersonalizerConfig {
            learning_rate: 0.25,
            rho_stratification: 1.0,
            rho_resource_group: 1.0,
            rho_subscription: 1.0,
            lambda_clamp: 50.0,
        };
        let mut p = Personalizer::new(cfg).unwrap();
        let paths: Vec<ResourcePath> = (0..n_paths)
            .map(|i| path(1, i as u32, 100 + i as u32))
            .collect();
        for &loc in &paths {
            p.register(loc);
        }
        let store = Arc::new(ShardedLambdaStore::new(p, 1).unwrap());
        let done = Arc::new(AtomicBool::new(false));
        let origin = paths[0];
        let writer = {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let sig =
                    SatisfactionSignal::new(origin, ServerOffering::GeneralPurpose, 1.0).unwrap();
                for _ in 0..n_signals {
                    store.apply_signal(&sig);
                    store.publish();
                }
                done.store(true, Ordering::Release);
            })
        };
        let step = 0.25; // learning_rate × γ, exact in binary
        let mut last_version = 0u64;
        let mut last_lambda = 0.0f64;
        let mut rounds = 0usize;
        while rounds < 2 || !done.load(Ordering::Acquire) {
            rounds += 1;
            let snap = store.snapshot_shard(0).unwrap();
            prop_assert!(snap.version() >= last_version, "version went backwards");
            let l0 = snap.lambda(&paths[0], ServerOffering::ALL[0]);
            for loc in &paths {
                for off in ServerOffering::ALL {
                    // A torn read would mix rounds across profiles/strata.
                    prop_assert_eq!(snap.lambda(loc, off), l0);
                }
            }
            let steps = l0 / step;
            prop_assert!(
                (steps - steps.round()).abs() < 1e-9,
                "λ {l0} is not a whole number of signal steps"
            );
            if snap.version() == last_version {
                // Same version must mean the same λ.
                prop_assert_eq!(l0, last_lambda);
            } else {
                prop_assert!(l0 >= last_lambda, "λ went backwards across versions");
            }
            last_version = snap.version();
            last_lambda = l0;
        }
        writer.join().unwrap();
        prop_assert_eq!(store.version(), 1 + n_signals as u64);
        let final_snap = store.snapshot_shard(0).unwrap();
        let expect = n_signals as f64 * step;
        prop_assert_eq!(
            final_snap.lambda(&paths[n_paths - 1], ServerOffering::MemoryOptimized),
            expect
        );
    }
}
