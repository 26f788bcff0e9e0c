//! Kill-mid-write crash recovery, end to end against the real binary.
//!
//! Two `lorentz train` runs commit store generations 1 and 2; the test then
//! plants the state a second run killed mid-save leaves behind: the
//! generation-2 data write torn in half (yet *committed* — the observable
//! outcome of a crash or lying fsync between write and durability) and the
//! manifest already pointing at it. Recovery must then fall back to
//! generation 1, deterministically, with exactly one recorded fallback.

use lorentz_core::retry::RetryPolicy;
use lorentz_core::{obs, DurableStore};
use lorentz_fault::{Fault, FaultyIo, Op, RealIo};
use lorentz_types::StoreCorruption;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

/// Serializes the in-process recovery sections: the `store.recovery.*`
/// metrics are process-wide, and both tests load a durable store.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lorentz_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lorentz"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lorentz-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates a small fleet and runs `lorentz train --store-dir` on it
/// `trains` times, each run committing one store generation.
fn train_store(dir: &Path, trains: u64) -> PathBuf {
    let fleet = dir.join("fleet.json");
    let store_dir = dir.join("store");
    let status = lorentz_bin()
        .args(["generate", "--servers", "60", "--seed", "5", "--out"])
        .arg(&fleet)
        .status()
        .expect("spawn lorentz generate");
    assert!(status.success(), "generate failed");
    for generation in 1..=trains {
        let status = lorentz_bin()
            .args(["train", "--fleet"])
            .arg(&fleet)
            .arg("--out")
            .arg(dir.join("model.json"))
            .args(["--trees", "5", "--min-bucket", "3", "--store-dir"])
            .arg(&store_dir)
            .status()
            .expect("spawn lorentz train");
        assert!(status.success(), "train {generation} failed");
        assert!(store_dir
            .join(format!("store.gen-{generation}.json"))
            .exists());
    }
    store_dir
}

#[test]
fn kill_mid_write_recovers_previous_generation() {
    let dir = tmp_dir("recovery");
    let store_dir = train_store(&dir, 2);

    // Tear generation 2's committed data file in half. The manifest still
    // names it current, so it fails its integrity check only on load.
    let gen2 = store_dir.join("store.gen-2.json");
    let bytes = std::fs::read(&gen2).unwrap();
    std::fs::write(&gen2, &bytes[..bytes.len() / 2]).unwrap();

    // Recovery: generation 2 fails its checksum, generation 1 loads, and
    // the fallback is visible both on the recovery report and in the
    // process-wide metrics.
    let _obs = OBS_LOCK.lock().unwrap();
    obs::reset();
    let recovered = DurableStore::open(&store_dir).load().expect("recovery");
    assert_eq!(recovered.generation, 1, "must fall back to generation 1");
    assert_eq!(recovered.fallbacks, 1, "exactly one generation skipped");
    assert!(!recovered.store.is_empty(), "recovered store has entries");
    assert_eq!(recovered.skipped.len(), 1);
    assert_eq!(recovered.skipped[0].0, 2);
    assert!(
        matches!(
            recovered.skipped[0].1,
            StoreCorruption::ChecksumMismatch { .. } | StoreCorruption::Truncated { .. }
        ),
        "torn write must surface as truncation or checksum mismatch, got {:?}",
        recovered.skipped[0].1
    );
    let snapshot = obs::snapshot();
    assert_eq!(snapshot.counter("store.recovery.fallbacks"), Some(1));
    assert_eq!(snapshot.counter("store.recovery.loads"), Some(1));

    // The CLI verifier sees the same picture, and exits non-zero because a
    // generation is corrupt.
    let output = lorentz_bin()
        .args(["store-verify", "--store-dir"])
        .arg(&store_dir)
        .output()
        .expect("spawn lorentz store-verify");
    assert!(
        !output.status.success(),
        "store-verify must exit non-zero on a corrupt generation"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("gen 2: CORRUPT"), "stdout: {stdout}");
    assert!(stdout.contains("gen 1: OK"), "stdout: {stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_write_errors_are_retried_to_success() {
    let dir = tmp_dir("retry");
    let store_dir = train_store(&dir, 1);

    // Republish the binary's store through a disk whose first write fails
    // with ErrorKind::Interrupted: the retry layer must absorb it.
    let _obs = OBS_LOCK.lock().unwrap();
    let store = DurableStore::open(&store_dir).load().expect("load").store;
    let io = FaultyIo::new(RealIo).fail(Op::Write, 1..=1, Fault::Transient);
    let durable = DurableStore::with_io(&store_dir, Box::new(io)).retry_policy(RetryPolicy {
        base_delay: std::time::Duration::from_micros(50),
        ..RetryPolicy::default()
    });
    assert_eq!(durable.save(&store).expect("save survives"), 2);
    let recovered = DurableStore::open(&store_dir).load().expect("load");
    assert_eq!(recovered.generation, 2);
    assert_eq!(recovered.fallbacks, 0);
    assert_eq!(recovered.store, store);

    let _ = std::fs::remove_dir_all(&dir);
}
