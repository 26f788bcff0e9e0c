//! Durable-store integrity: every `StoreCorruption` branch, recovery
//! fallback order, and write retries — all without the `fault-injection`
//! feature, by corrupting the persisted files directly.

use lorentz::core::retry::RetryPolicy;
use lorentz::core::store::PublishBatch;
use lorentz::core::{DurableStore, PredictionStore, StoreError};
use lorentz::fault::{RealIo, SnapshotIo};
use lorentz::types::{FeatureId, ServerOffering, StoreCorruption, StoreKey, ValueId};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

mod common;
use common::TestDir;

fn sample_store(capacity: f64) -> PredictionStore {
    let mut store = PredictionStore::new();
    store
        .publish(PublishBatch {
            entries: vec![(
                StoreKey::new(ServerOffering::GeneralPurpose, FeatureId(0), ValueId(3)),
                capacity,
            )],
            defaults: vec![(ServerOffering::GeneralPurpose, 2.0)],
        })
        .unwrap();
    store
}

/// Saves two generations and returns the durable store; corruption is then
/// applied to gen 2 so load must fall back to gen 1.
fn two_generations(dir: &Path) -> DurableStore {
    let durable = DurableStore::open(dir);
    assert_eq!(durable.save(&sample_store(4.0)).unwrap(), 1);
    assert_eq!(durable.save(&sample_store(8.0)).unwrap(), 2);
    durable
}

fn gen_file(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("store.gen-{generation}.json"))
}

/// Asserts that load falls back from corrupt gen 2 to intact gen 1 and
/// reports the expected corruption kind.
fn assert_falls_back(durable: &DurableStore, check: impl Fn(&StoreCorruption) -> bool) {
    let recovered = durable.load().expect("gen 1 must still load");
    assert_eq!(recovered.generation, 1);
    assert_eq!(recovered.fallbacks, 1);
    assert_eq!(recovered.skipped.len(), 1);
    assert_eq!(recovered.skipped[0].0, 2);
    assert!(
        check(&recovered.skipped[0].1),
        "unexpected corruption kind: {:?}",
        recovered.skipped[0].1
    );
}

#[test]
fn truncated_payload_falls_back() {
    let dir = TestDir::new("durable-truncated");
    let durable = two_generations(&dir);
    let path = gen_file(&dir, 2);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    assert_falls_back(&durable, |c| matches!(c, StoreCorruption::Truncated { .. }));
}

#[test]
fn truncation_into_the_header_falls_back() {
    let dir = TestDir::new("durable-header-truncated");
    let durable = two_generations(&dir);
    let path = gen_file(&dir, 2);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..11]).unwrap();
    assert_falls_back(&durable, |c| {
        matches!(c, StoreCorruption::HeaderTruncated { got: 11, need: 20 })
    });
}

#[test]
fn crc_mismatch_falls_back() {
    let dir = TestDir::new("durable-crc");
    let durable = two_generations(&dir);
    let path = gen_file(&dir, 2);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40; // single bit of rot in the payload
    std::fs::write(&path, &bytes).unwrap();
    assert_falls_back(&durable, |c| {
        matches!(c, StoreCorruption::ChecksumMismatch { .. })
    });
}

#[test]
fn bad_magic_falls_back() {
    let dir = TestDir::new("durable-magic");
    let durable = two_generations(&dir);
    let path = gen_file(&dir, 2);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[..4].copy_from_slice(b"NOPE");
    std::fs::write(&path, &bytes).unwrap();
    assert_falls_back(
        &durable,
        |c| matches!(c, StoreCorruption::BadMagic { found } if found == b"NOPE"),
    );
}

#[test]
fn unknown_format_version_falls_back() {
    let dir = TestDir::new("durable-version");
    let durable = two_generations(&dir);
    let path = gen_file(&dir, 2);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4] = 0xFF;
    bytes[5] = 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert_falls_back(&durable, |c| {
        matches!(c, StoreCorruption::UnknownVersion(0xFFFF))
    });
}

#[test]
fn manifest_pointing_at_missing_generation_falls_back() {
    let dir = TestDir::new("durable-missing-gen");
    let durable = two_generations(&dir);
    std::fs::remove_file(gen_file(&dir, 2)).unwrap();
    assert_falls_back(&durable, |c| {
        matches!(c, StoreCorruption::MissingGeneration { generation: 2, .. })
    });
}

#[test]
fn valid_payload_bytes_that_are_not_a_store_fall_back() {
    let dir = TestDir::new("durable-bad-payload");
    let durable = two_generations(&dir);
    // A perfectly framed file whose payload is not a store snapshot: the
    // frame passes, deserialization must still be treated as corruption.
    let framed = lorentz::core::store::durability::frame_snapshot(b"{\"not\": \"a store\"}");
    std::fs::write(gen_file(&dir, 2), framed).unwrap();
    assert_falls_back(&durable, |c| matches!(c, StoreCorruption::BadPayload(_)));
}

#[test]
fn corrupt_manifest_recovers_via_directory_scan() {
    let dir = TestDir::new("durable-bad-manifest");
    let durable = two_generations(&dir);
    std::fs::write(dir.join("store.manifest.json"), "{definitely not json").unwrap();
    let recovered = durable.load().expect("dir scan must recover");
    assert_eq!(recovered.generation, 2, "scan still finds the newest gen");
    assert_eq!(recovered.fallbacks, 0);
    assert!(
        matches!(
            recovered.manifest_error,
            Some(StoreCorruption::BadManifest(_))
        ),
        "manifest corruption must be reported: {:?}",
        recovered.manifest_error
    );
}

#[test]
fn every_generation_corrupt_is_unrecoverable() {
    let dir = TestDir::new("durable-unrecoverable");
    let durable = two_generations(&dir);
    for generation in [1, 2] {
        std::fs::write(gen_file(&dir, generation), b"garbage").unwrap();
    }
    let err = durable.load().unwrap_err();
    match err {
        StoreError::Unrecoverable { attempts, .. } => assert_eq!(attempts, 2),
        other => panic!("expected Unrecoverable, got: {other}"),
    }
}

#[test]
fn round_trip_preserves_store_contents() {
    let dir = TestDir::new("durable-round-trip");
    let durable = two_generations(&dir);
    let recovered = durable.load().unwrap();
    assert_eq!(recovered.generation, 2);
    assert_eq!(recovered.fallbacks, 0);
    assert_eq!(recovered.store, sample_store(8.0));
}

/// A [`SnapshotIo`] whose first N writes fail with `Interrupted` — the
/// retry layer in `DurableStore::save` must absorb them.
struct FlakyIo {
    inner: RealIo,
    failures_left: AtomicU32,
}

impl SnapshotIo for FlakyIo {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if self
            .failures_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "flaky disk",
            ));
        }
        self.inner.write_atomic(path, bytes)
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
}

#[test]
fn transient_write_errors_are_retried() {
    let dir = TestDir::new("durable-flaky");
    let fast_retry = RetryPolicy {
        base_delay: std::time::Duration::from_micros(50),
        max_delay: std::time::Duration::from_micros(200),
        ..RetryPolicy::default()
    };
    let durable = DurableStore::with_io(
        &*dir,
        Box::new(FlakyIo {
            inner: RealIo,
            failures_left: AtomicU32::new(2),
        }),
    )
    .retry_policy(fast_retry);
    assert_eq!(durable.save(&sample_store(4.0)).unwrap(), 1);
    let recovered = durable.load().unwrap();
    assert_eq!(recovered.generation, 1);
    assert_eq!(recovered.fallbacks, 0);
}

#[test]
fn persistent_write_errors_surface_as_io_errors() {
    let dir = TestDir::new("durable-dead-disk");
    let durable = DurableStore::with_io(
        &*dir,
        Box::new(FlakyIo {
            inner: RealIo,
            failures_left: AtomicU32::new(u32::MAX),
        }),
    )
    .retry_policy(RetryPolicy {
        max_attempts: 3,
        base_delay: std::time::Duration::from_micros(10),
        max_delay: std::time::Duration::from_micros(20),
        ..RetryPolicy::default()
    });
    let err = durable.save(&sample_store(4.0)).unwrap_err();
    assert!(matches!(err, StoreError::Io { .. }), "got: {err}");
}
