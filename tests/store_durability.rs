//! Durable-store integrity: every `StoreCorruption` branch, recovery
//! fallback order, and write retries — by corrupting the persisted files
//! directly, or by opening the store on a `FaultyIo` whose script only
//! that store sees.

use lorentz::core::retry::RetryPolicy;
use lorentz::core::store::PublishBatch;
use lorentz::core::{DurableStore, PredictionStore, StoreError};
use lorentz::fault::{Fault, FaultyIo, Op, RealIo};
use lorentz::types::{FeatureId, ServerOffering, StoreCorruption, StoreKey, ValueId};
use std::path::{Path, PathBuf};

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

/// A retry policy that keeps the transient-error tests fast.
fn fast_retry(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_delay: std::time::Duration::from_micros(50),
        max_delay: std::time::Duration::from_micros(200),
        ..RetryPolicy::default()
    }
}

#[test]
fn transient_write_errors_are_retried() {
    let dir = TestDir::new("durable-flaky");
    let io = FaultyIo::new(RealIo).fail(Op::Write, 1..=2, Fault::Transient);
    let durable = DurableStore::with_io(&*dir, Box::new(io)).retry_policy(fast_retry(4));
    assert_eq!(durable.save(&sample_store(4.0)).unwrap(), 1);
    let recovered = durable.load().unwrap();
    assert_eq!(recovered.generation, 1);
    assert_eq!(recovered.fallbacks, 0);
}

#[test]
fn persistent_write_errors_surface_as_io_errors() {
    let dir = TestDir::new("durable-dead-disk");
    let io = FaultyIo::new(RealIo).fail(Op::Write, 1.., Fault::Transient);
    let durable = DurableStore::with_io(&*dir, Box::new(io)).retry_policy(fast_retry(3));
    let err = durable.save(&sample_store(4.0)).unwrap_err();
    assert!(matches!(err, StoreError::Io { .. }), "got: {err}");
}

/// Saves gen 1 cleanly, then gen 2 through `io`'s third write (gen 1's
/// data and manifest are writes 1 and 2), and loads through the same `io`.
fn faulted_second_generation(dir: &Path, io: FaultyIo) -> DurableStore {
    let durable = DurableStore::with_io(dir, Box::new(io));
    assert_eq!(durable.save(&sample_store(4.0)).unwrap(), 1);
    assert_eq!(durable.save(&sample_store(8.0)).unwrap(), 2);
    durable
}

#[test]
fn committed_write_faults_fall_back() {
    // A torn write and a flipped bit both report success, so the manifest
    // commits generation 2 exactly as a crash or lying fsync after the data
    // write would leave it; only its integrity check catches either.
    for (name, fault) in [
        ("torn", Fault::Tear(0.5)),
        ("flipped", Fault::FlipBit(8 * 40)),
    ] {
        let dir = TestDir::new(&format!("durable-{name}-write"));
        let io = FaultyIo::new(RealIo).fail(Op::Write, 3..=3, fault);
        let durable = faulted_second_generation(&dir, io);
        assert_falls_back(&durable, |c| {
            matches!(
                c,
                StoreCorruption::Truncated { .. } | StoreCorruption::ChecksumMismatch { .. }
            )
        });
    }
}

#[test]
fn read_faults_fall_back_and_clear() {
    // Each save reads the manifest once, so the first load's manifest
    // read is read 3 and its generation-2 read is read 4.
    let dir = TestDir::new("durable-read-faults");
    let io = FaultyIo::new(RealIo)
        .fail(Op::Read, 4..=4, Fault::FlipBit(8 * 40))
        .fail(Op::Read, 7..=7, Fault::Permanent)
        .fail(Op::Read, 10..=10, Fault::Tear(0.5));
    let durable = faulted_second_generation(&dir, io);
    assert_falls_back(&durable, |c| {
        matches!(c, StoreCorruption::ChecksumMismatch { .. })
    });
    assert_falls_back(&durable, |c| matches!(c, StoreCorruption::BadPayload(_)));
    assert_falls_back(&durable, |c| {
        matches!(
            c,
            StoreCorruption::Truncated { .. } | StoreCorruption::ChecksumMismatch { .. }
        )
    });
    // The files themselves were never damaged.
    assert_eq!(durable.load().unwrap().generation, 2);
}

#[test]
fn a_crash_after_the_manifest_commit_leaves_a_loadable_store() {
    // The state a process dying right after the manifest commit leaves
    // behind: the new generation is current, and a generation the manifest
    // no longer lists was never pruned. Plant it by restoring the pruned
    // file after a clean save.
    let dir = TestDir::new("durable-commit-crash");
    let durable = DurableStore::open(&*dir).keep_generations(2);
    for capacity in [4.0, 8.0] {
        durable.save(&sample_store(capacity)).unwrap();
    }
    let unpruned = std::fs::read(gen_file(&dir, 1)).unwrap();
    assert_eq!(durable.save(&sample_store(16.0)).unwrap(), 3);
    assert!(!gen_file(&dir, 1).exists(), "a clean save prunes gen 1");
    std::fs::write(gen_file(&dir, 1), unpruned).unwrap();

    let recovered = durable.load().unwrap();
    assert_eq!(recovered.generation, 3);
    assert_eq!(recovered.fallbacks, 0);
    assert_eq!(recovered.store, sample_store(16.0));
    // The next save numbers past every file on disk and finishes the
    // interrupted prune.
    assert_eq!(durable.save(&sample_store(32.0)).unwrap(), 4);
    assert!(!gen_file(&dir, 1).exists());
    assert!(!gen_file(&dir, 2).exists());
    assert_eq!(durable.load().unwrap().generation, 4);
}

#[test]
fn unreadable_generations_are_unrecoverable() {
    // Every read from the first load on fails: the manifest falls back to
    // a scan, and both scanned generations fail in turn.
    let dir = TestDir::new("durable-unreadable");
    let io = FaultyIo::new(RealIo).fail(Op::Read, 3.., Fault::Permanent);
    let durable = faulted_second_generation(&dir, io);
    match durable.load().unwrap_err() {
        StoreError::Unrecoverable { attempts, last } => {
            assert_eq!(attempts, 2);
            assert!(matches!(last, StoreCorruption::BadPayload(_)), "{last:?}");
        }
        other => panic!("expected Unrecoverable, got: {other}"),
    }
}
