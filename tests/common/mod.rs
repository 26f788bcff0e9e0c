//! Helpers shared by the integration test binaries (`mod common;`). Each
//! binary uses a subset, so unused ones are allowed.
#![allow(dead_code)]

use lorentz::core::{LorentzConfig, LorentzPipeline, SatisfactionSignal, TrainedLorentz};
use lorentz::simdata::fleet::FleetConfig;
use lorentz::types::{CustomerId, ResourceGroupId, ResourcePath, ServerOffering, SubscriptionId};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The deployment the serving and replication suites run against: 80
/// servers, seed 20240807, paper defaults. Trained once per test binary
/// (training dominates test runtime; the engines never mutate it).
pub fn deployment() -> Arc<TrainedLorentz> {
    static DEPLOYMENT: OnceLock<Arc<TrainedLorentz>> = OnceLock::new();
    DEPLOYMENT
        .get_or_init(|| {
            let fleet = FleetConfig {
                n_servers: 80,
                seed: 20240807,
                ..FleetConfig::default()
            }
            .generate()
            .unwrap()
            .fleet;
            Arc::new(
                LorentzPipeline::new(LorentzConfig::paper_defaults())
                    .unwrap()
                    .train(&fleet)
                    .unwrap(),
            )
        })
        .clone()
}

/// The resource path the replication suites send feedback for.
pub fn hot_path() -> ResourcePath {
    ResourcePath::new(CustomerId(7), SubscriptionId(8), ResourceGroupId(9))
}

/// A general-purpose satisfaction signal for [`hot_path`].
pub fn signal(gamma: f64) -> SatisfactionSignal {
    SatisfactionSignal::new(hot_path(), ServerOffering::GeneralPurpose, gamma).unwrap()
}

/// A scratch directory owned by one test: its name carries the test's
/// label, the process id and a per-process counter, so no two tests (nor
/// two cases of one property) ever share it. Removed on drop.
pub struct TestDir(PathBuf);

impl TestDir {
    /// Creates a fresh, empty directory under the system temp dir.
    pub fn new(name: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lorentz-{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }
}

impl Deref for TestDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
