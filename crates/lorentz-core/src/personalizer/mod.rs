//! Stage 3: personalization (§3.4).
//!
//! Lorentz keeps a per-(customer, subscription, resource group) profile of
//! cost/performance sensitivity scores λ — one score per stratification
//! (server offering). Sparse customer-satisfaction signals `γ ∈ [-1, 1]` are
//! propagated through the profile store with multiplicative decays
//! (Algorithm 1), and recommendations are adjusted as
//! `c** = ξ⁻¹(ξ(c*) + λ) = 2^λ · c*` (Eq. 13–14).

pub mod lambda;
pub mod sharded;
pub mod signals;
pub mod wal;

pub use lambda::{LambdaEpoch, LambdaSnapshot};
pub use sharded::ShardedLambdaStore;
pub use signals::{classify_ticket, CriTicket, KeywordClassifier};
pub use wal::{
    frame_record, wal_codec, PollBackoff, SignalWal, WalEntry, WalRecord, WalRecovery, WalReplay,
    WalVerifyReport,
};

use crate::obs;
use crate::provisioner::discretize;
use lorentz_types::{
    CustomerId, LorentzError, ResourceGroupId, ResourcePath, ServerOffering, Sku, SkuCatalog,
    StratLambdas, SubscriptionId,
};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Number of stratification values (server offerings).
const N_STRATA: usize = lorentz_types::N_STRATA;

/// Personalizer hyperparameters (Table 2: learning rate 0.3, signal decay
/// 0.25).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PersonalizerConfig {
    /// Learning rate `l_r` multiplying every incoming signal.
    pub learning_rate: f64,
    /// `ρ_R`: decay applied when propagating across stratifications within
    /// the same resource group.
    pub rho_stratification: f64,
    /// `ρ_S`: decay applied when propagating to other resource groups in the
    /// same subscription. Set to 0 to stop cross-RG sharing once signals are
    /// plentiful (§3.4.2 discussion).
    pub rho_resource_group: f64,
    /// `ρ_C`: decay applied when propagating to other subscriptions of the
    /// same customer.
    pub rho_subscription: f64,
    /// λ values are clamped to ±this bound, keeping adjustments within the
    /// span of any realistic SKU ladder.
    pub lambda_clamp: f64,
}

impl Default for PersonalizerConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.3,
            rho_stratification: 0.25,
            rho_resource_group: 0.25,
            rho_subscription: 0.25,
            lambda_clamp: 8.0,
        }
    }
}

impl PersonalizerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`LorentzError::InvalidConfig`] for out-of-range values.
    pub fn validate(&self) -> Result<(), LorentzError> {
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(LorentzError::InvalidConfig(format!(
                "learning_rate must be positive, got {}",
                self.learning_rate
            )));
        }
        for (name, rho) in [
            ("rho_stratification", self.rho_stratification),
            ("rho_resource_group", self.rho_resource_group),
            ("rho_subscription", self.rho_subscription),
        ] {
            if !rho.is_finite() || !(0.0..=1.0).contains(&rho) {
                return Err(LorentzError::InvalidConfig(format!(
                    "{name} must be in [0, 1], got {rho}"
                )));
            }
        }
        if !self.lambda_clamp.is_finite() || self.lambda_clamp <= 0.0 {
            return Err(LorentzError::InvalidConfig(format!(
                "lambda_clamp must be positive, got {}",
                self.lambda_clamp
            )));
        }
        Ok(())
    }
}

/// One customer-satisfaction signal routed to a profile location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SatisfactionSignal {
    /// Which customer / subscription / resource group the signal concerns.
    pub path: ResourcePath,
    /// The stratification (server offering) the signal concerns.
    pub offering: ServerOffering,
    /// Signal strength: −1 = strong cost sensitivity, +1 = strong
    /// performance sensitivity.
    pub gamma: f64,
}

impl SatisfactionSignal {
    /// Creates a signal, validating `γ ∈ [-1, 1]`.
    ///
    /// # Errors
    /// Returns [`LorentzError::InvalidConfig`] for out-of-range `γ`.
    pub fn new(
        path: ResourcePath,
        offering: ServerOffering,
        gamma: f64,
    ) -> Result<Self, LorentzError> {
        if !gamma.is_finite() || !(-1.0..=1.0).contains(&gamma) {
            return Err(LorentzError::InvalidConfig(format!(
                "gamma must be in [-1, 1], got {gamma}"
            )));
        }
        Ok(Self {
            path,
            offering,
            gamma,
        })
    }
}

/// The Stage-3 personalizer: a λ profile store plus the message-propagation
/// update rule. Deterministic maps keep iteration order (and thus reports)
/// stable.
///
/// ```
/// use lorentz_core::{Personalizer, PersonalizerConfig, SatisfactionSignal};
/// use lorentz_types::{
///     CustomerId, ResourceGroupId, ResourcePath, ServerOffering, SkuCatalog, SubscriptionId,
/// };
///
/// let mut personalizer = Personalizer::new(PersonalizerConfig::default())?;
/// let path = ResourcePath::new(CustomerId(1), SubscriptionId(1), ResourceGroupId(1));
///
/// // Three throttling complaints raise this resource group's lambda by
/// // 3 x learning rate = +0.9 ...
/// for _ in 0..3 {
///     let signal = SatisfactionSignal::new(path, ServerOffering::GeneralPurpose, 1.0)?;
///     personalizer.apply_signal(&signal);
/// }
/// assert!((personalizer.lambda(&path, ServerOffering::GeneralPurpose) - 0.9).abs() < 1e-12);
///
/// // ... which lifts a 4-vCore Stage-2 recommendation one ladder step
/// // (2^0.9 * 4 = 7.5, nearest catalog point 8).
/// let catalog = SkuCatalog::azure_postgres(ServerOffering::GeneralPurpose);
/// let sku = personalizer.adjust(4.0, &path, ServerOffering::GeneralPurpose, &catalog);
/// assert_eq!(sku.capacity.primary(), 8.0);
/// # Ok::<(), lorentz_types::LorentzError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Personalizer {
    config: PersonalizerConfig,
    store: LambdaTree,
    /// Registered resource-group count, maintained incrementally so
    /// [`Personalizer::profiles`] is O(1). Derived state: skipped on
    /// serialization and recomputed by the manual [`Deserialize`] impl.
    #[serde(skip)]
    profile_count: usize,
}

/// The nested per-customer λ tree: customer → subscription → resource
/// group → per-stratum λ. The subscription layer doubles as the
/// per-customer index that lets [`Personalizer::apply_signal`] touch only
/// the affected subtrees.
type LambdaTree =
    BTreeMap<CustomerId, BTreeMap<SubscriptionId, BTreeMap<ResourceGroupId, StratLambdas>>>;

impl Deserialize for Personalizer {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        // Mirrors the derived impl for the two serialized fields, then
        // recomputes the skipped `profile_count` so a deserialized
        // personalizer compares equal to the one that was written.
        let config = PersonalizerConfig::from_value(
            v.get_field("config")
                .ok_or_else(|| serde::Error::custom("Personalizer missing field 'config'"))?,
        )?;
        let store = LambdaTree::from_value(
            v.get_field("store")
                .ok_or_else(|| serde::Error::custom("Personalizer missing field 'store'"))?,
        )?;
        let profile_count = store
            .values()
            .flat_map(|subs| subs.values())
            .map(|rgs| rgs.len())
            .sum();
        Ok(Self {
            config,
            store,
            profile_count,
        })
    }
}

impl Personalizer {
    /// Creates a personalizer.
    ///
    /// # Errors
    /// Returns [`LorentzError::InvalidConfig`] for invalid configs.
    pub fn new(config: PersonalizerConfig) -> Result<Self, LorentzError> {
        config.validate()?;
        Ok(Self {
            config,
            store: BTreeMap::new(),
            profile_count: 0,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &PersonalizerConfig {
        &self.config
    }

    /// Ensures a profile exists for `path` (λ defaults to 0 for new
    /// profiles, §3.4.2).
    pub fn register(&mut self, path: ResourcePath) {
        if let std::collections::btree_map::Entry::Vacant(slot) = self
            .store
            .entry(path.customer)
            .or_default()
            .entry(path.subscription)
            .or_default()
            .entry(path.resource_group)
        {
            slot.insert([0.0; N_STRATA]);
            self.profile_count += 1;
        }
    }

    /// Number of registered resource groups across all customers. O(1):
    /// the count is maintained by [`Personalizer::register`].
    pub fn profiles(&self) -> usize {
        self.profile_count
    }

    /// The λ score for a location; 0 if the profile does not exist yet.
    pub fn lambda(&self, path: &ResourcePath, offering: ServerOffering) -> f64 {
        self.store
            .get(&path.customer)
            .and_then(|subs| subs.get(&path.subscription))
            .and_then(|rgs| rgs.get(&path.resource_group))
            .map_or(0.0, |l| l[strat_index(offering)])
    }

    /// Directly overwrites a λ score — the §4 user-facing control
    /// ("allowing them to adjust this value to their liking").
    pub fn set_lambda(&mut self, path: ResourcePath, offering: ServerOffering, value: f64) {
        self.register(path);
        let slot = self
            .store
            .get_mut(&path.customer)
            .and_then(|subs| subs.get_mut(&path.subscription))
            .and_then(|rgs| rgs.get_mut(&path.resource_group))
            .expect("registered above");
        slot[strat_index(offering)] =
            value.clamp(-self.config.lambda_clamp, self.config.lambda_clamp);
    }

    /// Applies one satisfaction signal with message propagation
    /// (Algorithm 1). The signal's own location is auto-registered; the
    /// propagation reaches every *registered* profile of the same customer.
    /// Zero decays prune whole subtrees: `ρ_C = 0` confines the walk to the
    /// signal's subscription, and `ρ_S = 0` confines a same-subscription
    /// walk to the signal's resource group — foreign entries are never
    /// visited. Each call bumps `personalizer.signals`, and the number of
    /// profiles the propagation round updated lands in
    /// `personalizer.profiles_touched`.
    pub fn apply_signal(&mut self, signal: &SatisfactionSignal) {
        self.apply_signal_sink(signal, |_, _| {});
    }

    /// [`Personalizer::apply_signal`] that additionally reports every
    /// profile the propagation round updated — `(path, post-update λ row)`
    /// pairs — to `sink`, in tree order. This is how the λ store
    /// ([`ShardedLambdaStore`]) materializes the delta of touched keys for
    /// epoch publishing without a second tree walk; the plain entry point
    /// passes a no-op sink, which monomorphizes back to the original loop.
    pub fn apply_signal_sink(
        &mut self,
        signal: &SatisfactionSignal,
        mut sink: impl FnMut(ResourcePath, StratLambdas),
    ) {
        self.register(signal.path);
        let st = strat_index(signal.offering);
        let s = self.config.learning_rate * signal.gamma;
        let delta = self.config.rho_stratification * s;
        let rho_s = self.config.rho_resource_group;
        let rho_c = self.config.rho_subscription;
        let clamp = self.config.lambda_clamp;
        let customer = signal.path.customer;
        let mut touched = 0u64;

        // Scale of the update for one resource group:
        //   same RG          -> 1      (steps 1-2)
        //   same SU, diff RG -> ρ_S    (step 3)
        //   diff SU          -> ρ_C    (step 4)
        let mut bump =
            |sub: SubscriptionId, rg: ResourceGroupId, lambdas: &mut StratLambdas, scale: f64| {
                touched += 1;
                for (x, l) in lambdas.iter_mut().enumerate() {
                    let update = if x == st { scale * s } else { scale * delta };
                    *l = (*l + update).clamp(-clamp, clamp);
                }
                sink(ResourcePath::new(customer, sub, rg), *lambdas);
            };

        let subs = self
            .store
            .get_mut(&signal.path.customer)
            .expect("registered above");
        if rho_c == 0.0 {
            let rgs = subs
                .get_mut(&signal.path.subscription)
                .expect("registered above");
            if rho_s == 0.0 {
                let lambdas = rgs
                    .get_mut(&signal.path.resource_group)
                    .expect("registered above");
                bump(
                    signal.path.subscription,
                    signal.path.resource_group,
                    lambdas,
                    1.0,
                );
            } else {
                for (rg_id, lambdas) in rgs.iter_mut() {
                    let same_rg = *rg_id == signal.path.resource_group;
                    bump(
                        signal.path.subscription,
                        *rg_id,
                        lambdas,
                        if same_rg { 1.0 } else { rho_s },
                    );
                }
            }
        } else {
            for (sub_id, rgs) in subs.iter_mut() {
                let same_sub = *sub_id == signal.path.subscription;
                if same_sub && rho_s == 0.0 {
                    let lambdas = rgs
                        .get_mut(&signal.path.resource_group)
                        .expect("registered above");
                    bump(*sub_id, signal.path.resource_group, lambdas, 1.0);
                    continue;
                }
                for (rg_id, lambdas) in rgs.iter_mut() {
                    let same_rg = same_sub && *rg_id == signal.path.resource_group;
                    let scale = if same_rg {
                        1.0
                    } else if same_sub {
                        rho_s
                    } else {
                        rho_c
                    };
                    bump(*sub_id, *rg_id, lambdas, scale);
                }
            }
        }
        obs::SIGNALS_APPLIED.inc();
        obs::SIGNAL_PROFILES_TOUCHED.add(touched);
    }

    /// Overwrites the whole λ row at `path` — the follower-side application
    /// of one replicated delta entry. Values are clamped to this
    /// personalizer's `lambda_clamp` like every other write path.
    pub fn set_lambdas(&mut self, path: ResourcePath, lambdas: StratLambdas) {
        self.register(path);
        let slot = self
            .store
            .get_mut(&path.customer)
            .and_then(|subs| subs.get_mut(&path.subscription))
            .and_then(|rgs| rgs.get_mut(&path.resource_group))
            .expect("registered above");
        let clamp = self.config.lambda_clamp;
        for (dst, src) in slot.iter_mut().zip(lambdas) {
            *dst = src.clamp(-clamp, clamp);
        }
    }

    /// Applies a batch of signals in order.
    pub fn apply_signals(&mut self, signals: &[SatisfactionSignal]) {
        for s in signals {
            self.apply_signal(s);
        }
    }

    /// λ-adjusted capacity (Eq. 14): `c** = 2^λ · c*`, discretized to the
    /// catalog.
    pub fn adjust(
        &self,
        stage2_capacity: f64,
        path: &ResourcePath,
        offering: ServerOffering,
        catalog: &SkuCatalog,
    ) -> Sku {
        let lambda = self.lambda(path, offering);
        discretize(catalog, lambda.exp2() * stage2_capacity)
    }

    /// Iterates all registered profiles as `(path, per-stratum λ)` in
    /// deterministic order — the flattening walk a λ-store shard publishes
    /// its seed epoch from.
    pub(crate) fn iter_profiles(&self) -> impl Iterator<Item = (ResourcePath, StratLambdas)> + '_ {
        self.store.iter().flat_map(|(cu, subs)| {
            subs.iter().flat_map(move |(su, rgs)| {
                rgs.iter()
                    .map(move |(rg, lambdas)| (ResourcePath::new(*cu, *su, *rg), *lambdas))
            })
        })
    }

    /// Iterates all registered `(path, offering, λ)` entries in
    /// deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourcePath, ServerOffering, f64)> + '_ {
        self.store.iter().flat_map(|(cu, subs)| {
            subs.iter().flat_map(move |(su, rgs)| {
                rgs.iter().flat_map(move |(rg, lambdas)| {
                    ServerOffering::ALL.iter().map(move |&off| {
                        (
                            ResourcePath::new(*cu, *su, *rg),
                            off,
                            lambdas[strat_index(off)],
                        )
                    })
                })
            })
        })
    }
}

fn strat_index(offering: ServerOffering) -> usize {
    ServerOffering::ALL
        .iter()
        .position(|&o| o == offering)
        .expect("offering is one of ALL")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(c: u32, s: u32, r: u32) -> ResourcePath {
        ResourcePath::new(CustomerId(c), SubscriptionId(s), ResourceGroupId(r))
    }

    fn fig7_personalizer() -> Personalizer {
        // Figure 7's exaggerated numbers: lr=2, ρ_R=1/2, ρ_S=1/2, ρ_C=1/4.
        let cfg = PersonalizerConfig {
            learning_rate: 2.0,
            rho_stratification: 0.5,
            rho_resource_group: 0.5,
            rho_subscription: 0.25,
            lambda_clamp: 100.0,
        };
        let mut p = Personalizer::new(cfg).unwrap();
        // Customer 1: two subscriptions, two resource groups each.
        for (s, r) in [(1, 11), (1, 12), (2, 21), (2, 22)] {
            p.register(path(1, s, r));
        }
        p
    }

    #[test]
    fn figure_7_update_example() {
        let mut p = fig7_personalizer();
        // Signal γ=1 for GeneralPurpose on subscription 2 / RG 21.
        let sig =
            SatisfactionSignal::new(path(1, 2, 21), ServerOffering::GeneralPurpose, 1.0).unwrap();
        p.apply_signal(&sig);

        let g = ServerOffering::GeneralPurpose;
        let b = ServerOffering::Burstable;
        // Step 1: same RG, same stratification: s = 2*1 = 2.
        assert_eq!(p.lambda(&path(1, 2, 21), g), 2.0);
        // Step 2: same RG, other strats: δ = ρ_R * s = 1.
        assert_eq!(p.lambda(&path(1, 2, 21), b), 1.0);
        // Step 3: same subscription, other RG: ρ_S*s = 1 (same strat),
        // ρ_S*δ = 0.5 (other strats).
        assert_eq!(p.lambda(&path(1, 2, 22), g), 1.0);
        assert_eq!(p.lambda(&path(1, 2, 22), b), 0.5);
        // Step 4: other subscription: ρ_C*s = 0.5 / ρ_C*δ = 0.25.
        assert_eq!(p.lambda(&path(1, 1, 11), g), 0.5);
        assert_eq!(p.lambda(&path(1, 1, 12), b), 0.25);
    }

    #[test]
    fn signals_do_not_cross_customers() {
        let mut p = fig7_personalizer();
        p.register(path(9, 1, 1)); // another customer
        let sig =
            SatisfactionSignal::new(path(1, 2, 21), ServerOffering::GeneralPurpose, 1.0).unwrap();
        p.apply_signal(&sig);
        assert_eq!(
            p.lambda(&path(9, 1, 1), ServerOffering::GeneralPurpose),
            0.0
        );
    }

    #[test]
    fn cost_signal_decreases_lambda() {
        let mut p = Personalizer::new(PersonalizerConfig::default()).unwrap();
        let sig = SatisfactionSignal::new(path(1, 1, 1), ServerOffering::Burstable, -1.0).unwrap();
        p.apply_signal(&sig);
        let l = p.lambda(&path(1, 1, 1), ServerOffering::Burstable);
        assert!((l + 0.3).abs() < 1e-12); // -lr
    }

    #[test]
    fn rho_s_zero_stops_cross_rg_sharing() {
        let cfg = PersonalizerConfig {
            rho_resource_group: 0.0,
            ..PersonalizerConfig::default()
        };
        let mut p = Personalizer::new(cfg).unwrap();
        p.register(path(1, 1, 1));
        p.register(path(1, 1, 2));
        let sig =
            SatisfactionSignal::new(path(1, 1, 1), ServerOffering::GeneralPurpose, 1.0).unwrap();
        p.apply_signal(&sig);
        assert!(p.lambda(&path(1, 1, 1), ServerOffering::GeneralPurpose) > 0.0);
        assert_eq!(
            p.lambda(&path(1, 1, 2), ServerOffering::GeneralPurpose),
            0.0
        );
    }

    #[test]
    fn adjustment_scales_by_two_to_lambda() {
        let mut p = Personalizer::new(PersonalizerConfig::default()).unwrap();
        let cat = SkuCatalog::azure_postgres(ServerOffering::GeneralPurpose);
        let loc = path(1, 1, 1);
        // λ = +1: 4 -> 8.
        p.set_lambda(loc, ServerOffering::GeneralPurpose, 1.0);
        let sku = p.adjust(4.0, &loc, ServerOffering::GeneralPurpose, &cat);
        assert_eq!(sku.capacity.primary(), 8.0);
        // λ = -1: 4 -> 2.
        p.set_lambda(loc, ServerOffering::GeneralPurpose, -1.0);
        let sku = p.adjust(4.0, &loc, ServerOffering::GeneralPurpose, &cat);
        assert_eq!(sku.capacity.primary(), 2.0);
        // Unknown profile: λ = 0, nearest ladder entry.
        let sku = p.adjust(4.0, &path(7, 7, 7), ServerOffering::GeneralPurpose, &cat);
        assert_eq!(sku.capacity.primary(), 4.0);
    }

    #[test]
    fn repeated_signals_accumulate_and_clamp() {
        let cfg = PersonalizerConfig {
            lambda_clamp: 1.0,
            ..PersonalizerConfig::default()
        };
        let mut p = Personalizer::new(cfg).unwrap();
        let loc = path(1, 1, 1);
        for _ in 0..10 {
            let sig = SatisfactionSignal::new(loc, ServerOffering::GeneralPurpose, 1.0).unwrap();
            p.apply_signal(&sig);
        }
        assert_eq!(p.lambda(&loc, ServerOffering::GeneralPurpose), 1.0); // clamped
    }

    #[test]
    fn signal_validation() {
        assert!(SatisfactionSignal::new(path(1, 1, 1), ServerOffering::Burstable, 1.5).is_err());
        assert!(
            SatisfactionSignal::new(path(1, 1, 1), ServerOffering::Burstable, f64::NAN).is_err()
        );
        assert!(SatisfactionSignal::new(path(1, 1, 1), ServerOffering::Burstable, -1.0).is_ok());
    }

    #[test]
    fn config_validation() {
        let bad = PersonalizerConfig {
            learning_rate: 0.0,
            ..PersonalizerConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = PersonalizerConfig {
            rho_subscription: 1.5,
            ..PersonalizerConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = PersonalizerConfig {
            lambda_clamp: 0.0,
            ..PersonalizerConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn iter_reports_all_profiles_deterministically() {
        let p = fig7_personalizer();
        let entries: Vec<_> = p.iter().collect();
        assert_eq!(entries.len(), 4 * 3); // 4 RGs x 3 strata
        assert_eq!(p.profiles(), 4);
        let again: Vec<_> = p.iter().collect();
        assert_eq!(entries, again);
    }

    #[test]
    fn personalizer_serde_round_trip() {
        let mut p = fig7_personalizer();
        let sig =
            SatisfactionSignal::new(path(1, 2, 21), ServerOffering::MemoryOptimized, 0.5).unwrap();
        p.apply_signal(&sig);
        let json = serde_json::to_string(&p).unwrap();
        let back: Personalizer = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
