//! The end-to-end Lorentz pipeline (Fig. 8): Stage-1 rightsizing over a
//! fleet, per-offering Stage-2 model training, prediction-store publishing,
//! and personalized serving.
//!
//! [`LorentzPipeline::train`] is the daily batch job (A→B of Fig. 8),
//! orchestrated as a sequence of `stages` over a shared
//! [`TrainContext`]; the per-offering Stage-2 models
//! train concurrently on scoped threads. [`TrainedLorentz`] is the serving
//! surface, answering [`RecommendRequest`]s one at a time or in batches
//! through a [`RecommendEngine`] — [`LiveModel`] for Stage-2 inference or
//! [`StoreOnly`] for the precomputed [`PredictionStore`] — always applying
//! the Stage-3 λ adjustment. The legacy entry points
//! ([`TrainedLorentz::recommend`] and friends) are thin wrappers over those
//! engines. Store probes run on packed
//! [`StoreKey`](lorentz_types::StoreKey)s — the serving path never
//! allocates a string.

pub mod context;
mod engine;
mod stages;

use crate::config::LorentzConfig;
use crate::explain::Recommendation;
use crate::fleet::FleetDataset;
use crate::personalizer::signals::{classify_ticket, CriTicket};
use crate::personalizer::{LambdaSnapshot, Personalizer, SatisfactionSignal};
use crate::provisioner::{HierarchicalProvisioner, Provisioner, TargetEncodingProvisioner};
use crate::rightsizer::{RightsizeOutcome, Rightsizer};
use crate::store::PredictionStore;
use lorentz_types::{
    FeatureId, LorentzError, ProfileTable, ProfileVector, ResourcePath, ServerOffering, SkuCatalog,
    ValueId,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub use context::TrainContext;
pub use engine::{LiveModel, RecommendEngine, StoreOnly, StoreProbe};

/// Which Stage-2 model serves a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// The hierarchical bucket provisioner.
    Hierarchical,
    /// The target-encoding + GBDT provisioner.
    TargetEncoding,
}

/// A capacity request for a *new* (not yet provisioned) resource.
#[derive(Debug, Clone)]
pub struct RecommendRequest<'a> {
    /// Raw profile feature values in schema order (`None` = missing tag).
    pub profile: Vec<Option<&'a str>>,
    /// The pre-selected server offering.
    pub offering: ServerOffering,
    /// Customer / subscription / resource group the resource will live in.
    pub path: ResourcePath,
}

/// The batch trainer.
///
/// ```
/// use lorentz_core::{
///     FleetDataset, LorentzConfig, LorentzPipeline, ModelKind, RecommendRequest,
/// };
/// use lorentz_telemetry::{RegularSeries, UsageTrace};
/// use lorentz_types::{
///     Capacity, CustomerId, ProfileSchema, ProfileTable, ResourceGroupId, ResourcePath,
///     ServerId, ServerOffering, SubscriptionId,
/// };
///
/// // A toy fleet: "retail" DBs need ~2 vCores, "banking" ~16. (The
/// // hierarchy learner needs at least two profile features to form a
/// // chain, so the schema nests customers under industries.)
/// let schema = ProfileSchema::new(vec!["industry", "customer"])?;
/// let mut fleet = FleetDataset::new(ProfileTable::new(schema));
/// for i in 0..40u32 {
///     let (industry, demand) = if i % 2 == 0 { ("retail", 1.0) } else { ("banking", 8.0) };
///     let customer = format!("c{}", i % 8);
///     fleet.push(
///         ServerId(i),
///         ResourcePath::new(CustomerId(i % 4), SubscriptionId(i % 8), ResourceGroupId(i)),
///         ServerOffering::GeneralPurpose,
///         &[Some(industry), Some(customer.as_str())],
///         Capacity::scalar(8.0),
///         UsageTrace::single(RegularSeries::new(300.0, vec![demand; 12])?),
///     )?;
/// }
///
/// let mut config = LorentzConfig::paper_defaults();
/// config.hierarchical.min_bucket = 5;
/// config.target_encoding.boosting.n_trees = 10;
/// let trained = LorentzPipeline::new(config)?.train(&fleet)?;
///
/// // A brand-new banking DB gets a banking-sized recommendation.
/// let recommendation = trained.recommend(
///     &RecommendRequest {
///         profile: vec![Some("banking"), Some("brand-new-customer")],
///         offering: ServerOffering::GeneralPurpose,
///         path: ResourcePath::new(CustomerId(99), SubscriptionId(1), ResourceGroupId(1)),
///     },
///     ModelKind::Hierarchical,
/// )?;
/// assert_eq!(recommendation.sku.capacity.primary(), 16.0);
/// # Ok::<(), lorentz_types::LorentzError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LorentzPipeline {
    config: LorentzConfig,
    catalogs: BTreeMap<ServerOffering, SkuCatalog>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct OfferingModels {
    pub(crate) hierarchical: HierarchicalProvisioner,
    pub(crate) target_encoding: TargetEncodingProvisioner,
}

/// A trained Lorentz deployment: rightsized labels, per-offering Stage-2
/// models, the published prediction store, and the Stage-3 personalizer.
///
/// Serializable: the production pipeline "stores the trained model and its
/// performance metrics for offline experimentation" (§4) — use
/// [`TrainedLorentz::to_json`] / [`TrainedLorentz::from_json`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedLorentz {
    config: LorentzConfig,
    rightsizer: Rightsizer,
    catalogs: BTreeMap<ServerOffering, SkuCatalog>,
    profiles: ProfileTable,
    outcomes: Vec<RightsizeOutcome>,
    labels: Vec<f64>,
    models: BTreeMap<ServerOffering, OfferingModels>,
    store: PredictionStore,
    personalizer: Personalizer,
}

impl LorentzPipeline {
    /// Creates a pipeline over the Azure PostgreSQL catalogs.
    ///
    /// # Errors
    /// Returns [`LorentzError::InvalidConfig`] for invalid configs.
    pub fn new(config: LorentzConfig) -> Result<Self, LorentzError> {
        let catalogs = ServerOffering::ALL
            .iter()
            .map(|&o| (o, SkuCatalog::azure_postgres(o)))
            .collect();
        Self::with_catalogs(config, catalogs)
    }

    /// Creates a pipeline with custom per-offering catalogs.
    ///
    /// # Errors
    /// Returns [`LorentzError::InvalidConfig`] for invalid configs or an
    /// empty catalog map.
    pub fn with_catalogs(
        config: LorentzConfig,
        catalogs: BTreeMap<ServerOffering, SkuCatalog>,
    ) -> Result<Self, LorentzError> {
        config.validate()?;
        if catalogs.is_empty() {
            return Err(LorentzError::InvalidConfig(
                "at least one offering catalog required".into(),
            ));
        }
        Ok(Self { config, catalogs })
    }

    /// The configuration.
    pub fn config(&self) -> &LorentzConfig {
        &self.config
    }

    /// Runs the full batch job: rightsize every fleet record (Stage 1),
    /// train both provisioners per offering on the rightsized labels
    /// (Stage 2, one scoped thread per offering), publish the prediction
    /// store, and initialize the personalizer with every observed customer
    /// path. Consumes the pipeline — its config and catalogs move into the
    /// deployment without being copied; clone the pipeline first to train
    /// repeatedly.
    ///
    /// Each stage records its span and counts into [`crate::obs`]
    /// (`train.*` metrics).
    ///
    /// # Errors
    /// Returns [`LorentzError`] if the fleet is empty, contains an offering
    /// without a catalog, or any stage fails to fit.
    pub fn train(self, fleet: &FleetDataset) -> Result<TrainedLorentz, LorentzError> {
        self.train_with_threads(fleet, 0, 0)
    }

    /// Like [`LorentzPipeline::train`], but caps both stage thread pools:
    /// `stage1_threads` bounds the columnar rightsizing sweep's workers and
    /// `stage2_threads` bounds the per-offering model trainers (`0` = auto
    /// for either). Chunked workers are always joined in record/job order,
    /// so every combination of caps trains a byte-identical deployment.
    ///
    /// # Errors
    /// See [`LorentzPipeline::train`].
    pub fn train_with_threads(
        self,
        fleet: &FleetDataset,
        stage1_threads: usize,
        stage2_threads: usize,
    ) -> Result<TrainedLorentz, LorentzError> {
        let ctx = TrainContext::new(&self.config, &self.catalogs, fleet)?;
        let (outcomes, labels) = stages::rightsize_fleet(&ctx, stage1_threads)?;
        let (models, batch) = stages::train_offerings(&ctx, &labels, stage2_threads)?;
        let store = stages::publish_store(batch)?;
        let personalizer = stages::init_personalizer(&ctx)?;
        let rightsizer = ctx.into_rightsizer();

        Ok(TrainedLorentz {
            config: self.config,
            rightsizer,
            catalogs: self.catalogs,
            // The deployment only needs the schema and vocabularies to
            // encode incoming requests, not the training rows.
            profiles: fleet.profiles().vocab_view(),
            outcomes,
            labels,
            models,
            store,
            personalizer,
        })
    }
}

impl TrainedLorentz {
    /// The configuration this deployment was trained with.
    pub fn config(&self) -> &LorentzConfig {
        &self.config
    }

    /// The Stage-1 rightsizer (shared definitions of slack/throttling).
    pub fn rightsizer(&self) -> &Rightsizer {
        &self.rightsizer
    }

    /// Per-record rightsizing outcomes, aligned with the training fleet.
    pub fn outcomes(&self) -> &[RightsizeOutcome] {
        &self.outcomes
    }

    /// Rightsized primary capacities (the Stage-2 training labels).
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// The training profile schema and vocabularies (the reference new
    /// requests are encoded against; carries no training rows).
    pub fn profiles(&self) -> &ProfileTable {
        &self.profiles
    }

    /// The published prediction store.
    pub fn store(&self) -> &PredictionStore {
        &self.store
    }

    /// The personalizer (read access).
    pub fn personalizer(&self) -> &Personalizer {
        &self.personalizer
    }

    /// The personalizer (mutable, e.g. to let a user override their λ).
    pub fn personalizer_mut(&mut self) -> &mut Personalizer {
        &mut self.personalizer
    }

    /// The catalog for an offering.
    ///
    /// # Errors
    /// Returns [`LorentzError::NotFound`] for unknown offerings.
    pub fn catalog(&self, offering: ServerOffering) -> Result<&SkuCatalog, LorentzError> {
        self.catalogs
            .get(&offering)
            .ok_or_else(|| LorentzError::NotFound(format!("no catalog for {offering}")))
    }

    /// Direct access to a fitted Stage-2 model.
    ///
    /// # Errors
    /// Returns [`LorentzError::NotFound`] if the offering had no training
    /// rows.
    pub fn provisioner(
        &self,
        offering: ServerOffering,
        kind: ModelKind,
    ) -> Result<&dyn Provisioner, LorentzError> {
        let models = self.models.get(&offering).ok_or_else(|| {
            LorentzError::NotFound(format!("no model trained for offering {offering}"))
        })?;
        Ok(match kind {
            ModelKind::Hierarchical => &models.hierarchical,
            ModelKind::TargetEncoding => &models.target_encoding,
        })
    }

    /// The hierarchical model for an offering (for chain inspection).
    ///
    /// # Errors
    /// Returns [`LorentzError::NotFound`] if the offering had no training
    /// rows.
    pub fn hierarchical(
        &self,
        offering: ServerOffering,
    ) -> Result<&HierarchicalProvisioner, LorentzError> {
        self.models
            .get(&offering)
            .map(|m| &m.hierarchical)
            .ok_or_else(|| LorentzError::NotFound(format!("no model for {offering}")))
    }

    /// Applies the Stage-3 λ adjustment (Eq. 13) to a Stage-2 capacity and
    /// assembles the final recommendation. Both the single and the batched
    /// serving paths end here, which keeps their outputs identical. When
    /// `lambdas` is set, λ comes from that live published snapshot instead
    /// of the frozen batch personalizer (the online-feedback path).
    fn personalize(
        &self,
        stage2_capacity: f64,
        explanation: crate::explain::Explanation,
        request: &RecommendRequest<'_>,
        lambdas: Option<&LambdaSnapshot>,
    ) -> Result<Recommendation, LorentzError> {
        let catalog = self.catalog(request.offering)?;
        let (lambda, sku) = match lambdas {
            Some(snapshot) => (
                snapshot.lambda(&request.path, request.offering),
                snapshot.adjust(stage2_capacity, &request.path, request.offering, catalog),
            ),
            None => (
                self.personalizer.lambda(&request.path, request.offering),
                self.personalizer
                    .adjust(stage2_capacity, &request.path, request.offering, catalog),
            ),
        };
        Ok(Recommendation {
            sku,
            stage2_capacity,
            lambda,
            explanation,
        })
    }

    /// Serves one already-encoded request through a live Stage-2 model.
    fn recommend_encoded(
        &self,
        x: &ProfileVector,
        request: &RecommendRequest<'_>,
        kind: ModelKind,
        lambdas: Option<&LambdaSnapshot>,
    ) -> Result<Recommendation, LorentzError> {
        let provisioner = self.provisioner(request.offering, kind)?;
        let (stage2_sku, explanation) = provisioner.recommend(x)?;
        self.personalize(stage2_sku.capacity.primary(), explanation, request, lambdas)
    }

    /// The live-model serving engine over this deployment — the
    /// [`RecommendEngine`] the single/batch wrappers below delegate to.
    pub fn live_engine(&self, kind: ModelKind) -> LiveModel<'_> {
        LiveModel::new(self, kind)
    }

    /// The store-backed serving engine over this deployment's published
    /// store.
    pub fn store_engine(&self) -> StoreOnly<'_, PredictionStore> {
        StoreOnly::new(self)
    }

    /// A live-model engine whose Stage-3 adjustment reads λ from a
    /// published [`LambdaSnapshot`] instead of this deployment's frozen
    /// batch personalizer — the online-feedback serving path.
    pub fn live_engine_with_lambdas<'a>(
        &'a self,
        kind: ModelKind,
        lambdas: &'a LambdaSnapshot,
    ) -> LiveModel<'a> {
        LiveModel::with_lambdas(self, kind, lambdas)
    }

    /// Serves a recommendation through a live Stage-2 model, then applies
    /// the Stage-3 λ adjustment (Eq. 13) and re-discretizes. Thin wrapper
    /// over [`LiveModel`]; records one `serve.recommend.span_ns`
    /// observation plus request/error counters.
    ///
    /// # Errors
    /// Returns [`LorentzError`] for unknown offerings or malformed profiles.
    pub fn recommend(
        &self,
        request: &RecommendRequest<'_>,
        kind: ModelKind,
    ) -> Result<Recommendation, LorentzError> {
        self.live_engine(kind).recommend_one(request)
    }

    /// Serves a batch of requests through a live Stage-2 model, interning
    /// each profile once into a reused scratch vector. Results are
    /// positionally aligned with `requests` and identical to calling
    /// [`TrainedLorentz::recommend`] per request. Thin wrapper over
    /// [`LiveModel`]; metrics are amortized per batch.
    pub fn recommend_batch(
        &self,
        requests: &[RecommendRequest<'_>],
        kind: ModelKind,
    ) -> Vec<Result<Recommendation, LorentzError>> {
        self.live_engine(kind).recommend_many(requests)
    }

    /// Interns a request's profile into packed store probe levels,
    /// finest-first along the learned hierarchy chain. Values unseen at
    /// training time have no interned id and are skipped (they could not
    /// have a store entry).
    fn store_levels(
        &self,
        request: &RecommendRequest<'_>,
        levels: &mut Vec<(FeatureId, ValueId)>,
    ) -> Result<(), LorentzError> {
        if request.profile.len() != self.profiles.schema().len() {
            return Err(LorentzError::InvalidProfile(format!(
                "request has {} features, schema has {}",
                request.profile.len(),
                self.profiles.schema().len()
            )));
        }
        let hierarchical = self.hierarchical(request.offering)?;
        levels.clear();
        for feature in hierarchical.chain().fine_to_coarse() {
            if let Some(value) = request.profile[feature.index()] {
                if let Some(id) = self.profiles.vocab(feature).get(value) {
                    levels.push((feature, ValueId(id)));
                }
            }
        }
        Ok(())
    }

    /// Serves a recommendation from the precomputed prediction store (the
    /// low-latency §4 path), falling back most-granular-first along the
    /// learned hierarchy, then applies the λ adjustment. Thin wrapper over
    /// [`StoreOnly`]; records one `serve.store.span_ns` observation plus
    /// request/error counters.
    ///
    /// # Errors
    /// Returns [`LorentzError`] for unknown offerings, malformed profiles,
    /// or an empty store.
    pub fn recommend_from_store(
        &self,
        request: &RecommendRequest<'_>,
    ) -> Result<Recommendation, LorentzError> {
        self.store_engine().recommend_one(request)
    }

    /// Serves a batch of requests from the prediction store, reusing one
    /// probe-level buffer across the batch. Results are positionally
    /// aligned with `requests` and identical to calling
    /// [`TrainedLorentz::recommend_from_store`] per request. Thin wrapper
    /// over [`StoreOnly`]; span and request/error counters are recorded
    /// once per batch.
    pub fn recommend_batch_from_store(
        &self,
        requests: &[RecommendRequest<'_>],
    ) -> Vec<Result<Recommendation, LorentzError>> {
        self.store_engine().recommend_many(requests)
    }

    /// Routes one satisfaction signal into the personalizer.
    pub fn apply_signal(&mut self, signal: &SatisfactionSignal) {
        self.personalizer.apply_signal(signal);
    }

    /// Serializes the full deployment (models, store, personalizer,
    /// training metadata) to JSON.
    ///
    /// # Errors
    /// Returns [`LorentzError::Model`] if serialization fails.
    pub fn to_json(&self) -> Result<String, LorentzError> {
        serde_json::to_string(self)
            .map_err(|e| LorentzError::Model(format!("serialization failed: {e}")))
    }

    /// Restores a deployment from [`TrainedLorentz::to_json`] output,
    /// rebuilding the profile vocabularies' derived lookup indexes.
    ///
    /// # Errors
    /// Returns [`LorentzError::Model`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self, LorentzError> {
        let mut deployment: TrainedLorentz = serde_json::from_str(json)
            .map_err(|e| LorentzError::Model(format!("deserialization failed: {e}")))?;
        deployment.profiles.rebuild_indexes();
        Ok(deployment)
    }

    /// Classifies a CRI ticket (Table-1 keyword filters) and, when the
    /// sentiment is non-neutral, routes it as a satisfaction signal.
    /// Returns the classified γ.
    pub fn apply_ticket(
        &mut self,
        path: ResourcePath,
        offering: ServerOffering,
        ticket: &CriTicket,
    ) -> f64 {
        let gamma = classify_ticket(ticket);
        if gamma != 0.0 {
            let signal = SatisfactionSignal::new(path, offering, gamma)
                .expect("classifier output is in [-1, 1]");
            self.personalizer.apply_signal(&signal);
        }
        gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorentz_telemetry::{RegularSeries, UsageTrace};
    use lorentz_types::{
        Capacity, CustomerId, ProfileSchema, ResourceGroupId, ServerId, SubscriptionId,
    };

    fn path(i: u32) -> ResourcePath {
        ResourcePath::new(
            CustomerId(i % 5),
            SubscriptionId(i % 10),
            ResourceGroupId(i),
        )
    }

    fn steady_trace(level: f64) -> UsageTrace {
        UsageTrace::single(RegularSeries::new(300.0, vec![level; 12]).unwrap())
    }

    /// 60 GP servers: industry i0 needs ~2 vCores, i1 needs ~16; customers
    /// nest under industries.
    fn fleet() -> FleetDataset {
        let schema = ProfileSchema::new(vec!["industry", "customer"]).unwrap();
        let mut fleet = FleetDataset::new(ProfileTable::new(schema));
        for i in 0..60u32 {
            let big = i % 2 == 1;
            let industry = if big { "i1" } else { "i0" };
            let customer = format!("c{}", i % 12);
            // True demand: ~1 vCore for i0 (rightsized to 2), ~8 for i1
            // (rightsized to 16); users picked 8 for everything.
            let demand = if big { 8.0 } else { 1.0 };
            fleet
                .push(
                    ServerId(i),
                    path(i),
                    ServerOffering::GeneralPurpose,
                    &[Some(industry), Some(customer.as_str())],
                    Capacity::scalar(8.0),
                    steady_trace(demand),
                )
                .unwrap();
        }
        fleet
    }

    /// Like [`fleet`], but spread across all three offerings so Stage-2
    /// training exercises the concurrent per-offering path.
    fn multi_offering_fleet() -> FleetDataset {
        let schema = ProfileSchema::new(vec!["industry", "customer"]).unwrap();
        let mut fleet = FleetDataset::new(ProfileTable::new(schema));
        for i in 0..90u32 {
            let offering = ServerOffering::ALL[(i % 3) as usize];
            let big = (i / 3) % 2 == 1;
            let industry = if big { "i1" } else { "i0" };
            let customer = format!("c{}", i % 12);
            let demand = if big { 4.0 } else { 1.0 };
            fleet
                .push(
                    ServerId(i),
                    path(i),
                    offering,
                    &[Some(industry), Some(customer.as_str())],
                    Capacity::scalar(8.0),
                    steady_trace(demand),
                )
                .unwrap();
        }
        fleet
    }

    fn quick_config() -> LorentzConfig {
        let mut c = LorentzConfig::paper_defaults();
        c.target_encoding.boosting.n_trees = 20;
        c.target_encoding.boosting.learning_rate = 0.3;
        c.hierarchical.min_bucket = 5;
        c
    }

    fn trained() -> TrainedLorentz {
        LorentzPipeline::new(quick_config())
            .unwrap()
            .train(&fleet())
            .unwrap()
    }

    #[test]
    fn training_rightsizes_every_record() {
        let t = trained();
        assert_eq!(t.labels().len(), 60);
        assert_eq!(t.outcomes().len(), 60);
        // i0 records (even): steady 1.0 under 8 vCores -> rightsized to 2.
        assert_eq!(t.labels()[0], 2.0);
        // i1 records (odd): steady 8.0 at 8 vCores -> throttled (8 > 7.6),
        // censored branch scales to >= 16.
        assert_eq!(t.labels()[1], 16.0);
        assert!(t.outcomes()[1].censored);
    }

    #[test]
    fn both_models_recommend_by_industry() {
        let t = trained();
        for kind in [ModelKind::Hierarchical, ModelKind::TargetEncoding] {
            let req = RecommendRequest {
                profile: vec![Some("i0"), Some("c99-new")],
                offering: ServerOffering::GeneralPurpose,
                path: path(999),
            };
            let rec = t.recommend(&req, kind).unwrap();
            assert_eq!(rec.sku.capacity.primary(), 2.0, "{kind:?}");
            assert_eq!(rec.lambda, 0.0);

            let req = RecommendRequest {
                profile: vec![Some("i1"), Some("c98-new")],
                offering: ServerOffering::GeneralPurpose,
                path: path(998),
            };
            let rec = t.recommend(&req, kind).unwrap();
            assert_eq!(rec.sku.capacity.primary(), 16.0, "{kind:?}");
        }
    }

    #[test]
    fn concurrent_offering_training_is_deterministic() {
        let f = multi_offering_fleet();
        let a = LorentzPipeline::new(quick_config())
            .unwrap()
            .train(&f)
            .unwrap();
        let b = LorentzPipeline::new(quick_config())
            .unwrap()
            .train(&f)
            .unwrap();
        // All three offerings trained, and two runs agree exactly.
        for offering in ServerOffering::ALL {
            assert!(a.hierarchical(offering).is_ok(), "{offering} missing");
        }
        assert_eq!(a.store(), b.store());
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }

    #[test]
    fn store_path_matches_live_hierarchical_model() {
        let t = trained();
        assert!(t.store().version() >= 1);
        assert!(!t.store().is_empty());
        let req = RecommendRequest {
            profile: vec![Some("i1"), Some("brand-new-customer")],
            offering: ServerOffering::GeneralPurpose,
            path: path(997),
        };
        let live = t.recommend(&req, ModelKind::Hierarchical).unwrap();
        let stored = t.recommend_from_store(&req).unwrap();
        assert_eq!(live.sku.capacity, stored.sku.capacity);
    }

    #[test]
    fn store_serves_default_for_fully_unknown_profiles() {
        let t = trained();
        let req = RecommendRequest {
            profile: vec![Some("unknown"), Some("unknown")],
            offering: ServerOffering::GeneralPurpose,
            path: path(996),
        };
        let rec = t.recommend_from_store(&req).unwrap();
        assert!(rec.explanation.to_string().contains("default"));
        assert!(rec.sku.capacity.primary() >= 2.0);
    }

    #[test]
    fn batched_serving_matches_single_requests() {
        let t = trained();
        let profiles: Vec<Vec<Option<&str>>> = vec![
            vec![Some("i0"), Some("c0")],
            vec![Some("i1"), Some("c1")],
            vec![Some("i1"), Some("never-seen")],
            vec![Some("unknown"), None],
            vec![Some("i0")], // malformed arity
            vec![None, None],
        ];
        let requests: Vec<RecommendRequest<'_>> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| RecommendRequest {
                profile: p.clone(),
                offering: ServerOffering::GeneralPurpose,
                path: path(i as u32),
            })
            .collect();
        for kind in [ModelKind::Hierarchical, ModelKind::TargetEncoding] {
            let batched = t.recommend_batch(&requests, kind);
            assert_eq!(batched.len(), requests.len());
            for (req, got) in requests.iter().zip(&batched) {
                match (t.recommend(req, kind), got) {
                    (Ok(single), Ok(b)) => assert_eq!(&single, b, "{kind:?}"),
                    (Err(_), Err(_)) => {}
                    (single, got) => panic!("mismatch: {single:?} vs {got:?}"),
                }
            }
        }
        let batched = t.recommend_batch_from_store(&requests);
        for (req, got) in requests.iter().zip(&batched) {
            match (t.recommend_from_store(req), got) {
                (Ok(single), Ok(b)) => assert_eq!(&single, b),
                (Err(_), Err(_)) => {}
                (single, got) => panic!("store mismatch: {single:?} vs {got:?}"),
            }
        }
    }

    #[test]
    fn personalization_shifts_recommendations() {
        let mut t = trained();
        let p = path(1); // existing customer path (registered at train time)
        let req = RecommendRequest {
            profile: vec![Some("i1"), None],
            offering: ServerOffering::GeneralPurpose,
            path: p,
        };
        let before = t.recommend(&req, ModelKind::Hierarchical).unwrap();
        assert_eq!(before.sku.capacity.primary(), 16.0);

        // A strong performance signal stream raises λ for this RG.
        for _ in 0..5 {
            let sig = SatisfactionSignal::new(p, ServerOffering::GeneralPurpose, 1.0).unwrap();
            t.apply_signal(&sig);
        }
        let after = t.recommend(&req, ModelKind::Hierarchical).unwrap();
        assert!(after.lambda > 0.0);
        assert!(after.sku.capacity.primary() > 16.0);
        assert_eq!(after.stage2_capacity, 16.0, "stage-2 output unchanged");
    }

    #[test]
    fn lambda_snapshot_overrides_batch_personalizer() {
        use crate::personalizer::LambdaStore;
        let t = trained();
        let p = path(1);
        let req = RecommendRequest {
            profile: vec![Some("i1"), None],
            offering: ServerOffering::GeneralPurpose,
            path: p,
        };

        // Feedback flows into a live λ store seeded from the deployment;
        // the deployment's own personalizer stays frozen.
        let store = LambdaStore::new(t.personalizer().clone());
        let sig = SatisfactionSignal::new(p, ServerOffering::GeneralPurpose, 1.0).unwrap();
        for _ in 0..5 {
            store.apply_signal(&sig);
        }
        store.publish();
        let snap = store.snapshot();

        let frozen = t.recommend(&req, ModelKind::Hierarchical).unwrap();
        assert_eq!(frozen.lambda, 0.0);
        assert_eq!(frozen.sku.capacity.primary(), 16.0);

        let live = t
            .live_engine_with_lambdas(ModelKind::Hierarchical, &snap)
            .recommend_one(&req)
            .unwrap();
        assert!(live.lambda > 0.0);
        assert!(live.sku.capacity.primary() > 16.0);
        assert_eq!(live.stage2_capacity, 16.0, "stage-2 output unchanged");

        // The store-backed engine applies the same live λ.
        let stored = StoreOnly::with_probe_and_lambdas(&t, t.store(), &snap)
            .recommend_one(&req)
            .unwrap();
        assert_eq!(stored.sku.capacity, live.sku.capacity);
        assert_eq!(stored.lambda, live.lambda);

        // Batched serving with the same snapshot matches single-shot.
        let reqs = vec![req];
        let batched = t
            .live_engine_with_lambdas(ModelKind::Hierarchical, &snap)
            .recommend_many(&reqs);
        assert_eq!(batched[0].as_ref().unwrap(), &live);
    }

    #[test]
    fn tickets_route_through_the_classifier() {
        let mut t = trained();
        let p = path(2);
        let gamma = t.apply_ticket(
            p,
            ServerOffering::GeneralPurpose,
            &CriTicket::new("high cpu usage all day", "", "scaled up the server"),
        );
        assert_eq!(gamma, 1.0);
        assert!(t.personalizer().lambda(&p, ServerOffering::GeneralPurpose) > 0.0);
        // Neutral tickets change nothing.
        let gamma = t.apply_ticket(
            p,
            ServerOffering::GeneralPurpose,
            &CriTicket::new("login issue", "", "reset password"),
        );
        assert_eq!(gamma, 0.0);
    }

    #[test]
    fn unknown_offering_and_empty_fleet_are_errors() {
        let t = trained();
        let req = RecommendRequest {
            profile: vec![Some("i0"), None],
            offering: ServerOffering::Burstable, // no Burstable training rows
            path: path(1),
        };
        assert!(t.recommend(&req, ModelKind::Hierarchical).is_err());

        let schema = ProfileSchema::new(vec!["industry", "customer"]).unwrap();
        let empty = FleetDataset::new(ProfileTable::new(schema));
        assert!(LorentzPipeline::new(quick_config())
            .unwrap()
            .train(&empty)
            .is_err());
    }

    #[test]
    fn deployment_persists_and_restores() {
        let mut t = trained();
        let p = path(3);
        // Put some personalization state in before saving.
        let sig = SatisfactionSignal::new(p, ServerOffering::GeneralPurpose, 1.0).unwrap();
        t.apply_signal(&sig);
        let json = t.to_json().unwrap();
        let restored = TrainedLorentz::from_json(&json).unwrap();

        // Restored deployment serves identical recommendations — including
        // for request profiles that must be re-encoded against the restored
        // vocabularies (the index-rebuild path).
        let req = RecommendRequest {
            profile: vec![Some("i1"), Some("c3")],
            offering: ServerOffering::GeneralPurpose,
            path: p,
        };
        for kind in [ModelKind::Hierarchical, ModelKind::TargetEncoding] {
            let a = t.recommend(&req, kind).unwrap();
            let b = restored.recommend(&req, kind).unwrap();
            assert_eq!(a.sku.capacity, b.sku.capacity, "{kind:?}");
            assert_eq!(a.lambda, b.lambda);
        }
        let a = t.recommend_from_store(&req).unwrap();
        let b = restored.recommend_from_store(&req).unwrap();
        assert_eq!(a.sku.capacity, b.sku.capacity);
        assert_eq!(restored.store().version(), t.store().version());
        assert!(TrainedLorentz::from_json("not json").is_err());
    }

    #[test]
    fn malformed_request_profile_rejected() {
        let t = trained();
        let req = RecommendRequest {
            profile: vec![Some("i0")], // wrong arity
            offering: ServerOffering::GeneralPurpose,
            path: path(1),
        };
        assert!(t.recommend(&req, ModelKind::Hierarchical).is_err());
        assert!(t.recommend_from_store(&req).is_err());
    }
}
