//! Kill-mid-write crash recovery, end to end against the real binary.
//!
//! A child `lorentz train` is driven through the `LORENTZ_FAILPOINTS`
//! environment variable: the `store.write.partial` fail point tears the
//! second generation's data write (the torn bytes still *commit* — the
//! observable outcome of a crash or lying fsync between write and
//! durability), and `store.save.commit` aborts the process right at the
//! manifest commit point. Recovery must then fall back to generation 1,
//! deterministically, with exactly one recorded fallback.
//!
//! Only compiled under the `fault-injection` feature — the binary must
//! have its fail points compiled in:
//! `cargo test -p lorentz-cli --features fault-injection`.

#![cfg(feature = "fault-injection")]

use lorentz_core::{obs, DurableStore};
use lorentz_types::StoreCorruption;
use std::path::PathBuf;
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

#[test]
fn kill_mid_write_recovers_previous_generation() {
    let dir = tmp_dir("recovery");
    let fleet = dir.join("fleet.json");
    let model = dir.join("model.json");
    let store_dir = dir.join("store");

    let status = lorentz_bin()
        .args(["generate", "--servers", "60", "--seed", "5", "--out"])
        .arg(&fleet)
        .status()
        .expect("spawn lorentz generate");
    assert!(status.success(), "generate failed");

    // First train commits generation 1 cleanly.
    let train_args = |cmd: &mut Command| {
        cmd.args(["train", "--fleet"])
            .arg(&fleet)
            .arg("--out")
            .arg(&model)
            .args(["--trees", "5", "--min-bucket", "3", "--store-dir"])
            .arg(&store_dir);
    };
    let mut cmd = lorentz_bin();
    train_args(&mut cmd);
    let status = cmd.status().expect("spawn lorentz train");
    assert!(status.success(), "first train failed");
    assert!(store_dir.join("store.gen-1.json").exists());

    // Second train: tear the generation-2 data write, then die at the
    // commit point. The torn generation is committed in the manifest but
    // fails its CRC on load.
    let mut cmd = lorentz_bin();
    train_args(&mut cmd);
    let status = cmd
        .env(
            "LORENTZ_FAILPOINTS",
            "store.write.partial=partial(0.5)@once;store.save.commit=abort",
        )
        .status()
        .expect("spawn lorentz train (faulted)");
    assert!(
        !status.success(),
        "faulted train must die at the commit fail point"
    );
    assert!(
        store_dir.join("store.gen-2.json").exists(),
        "the torn generation-2 file must have been committed"
    );

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
    let fleet = dir.join("fleet.json");
    let model = dir.join("model.json");
    let store_dir = dir.join("store");

    let status = lorentz_bin()
        .args(["generate", "--servers", "60", "--seed", "5", "--out"])
        .arg(&fleet)
        .status()
        .expect("spawn lorentz generate");
    assert!(status.success(), "generate failed");

    // One injected ErrorKind::Interrupted on the store write: the retry
    // layer must absorb it and the train must still succeed.
    let status = lorentz_bin()
        .args(["train", "--fleet"])
        .arg(&fleet)
        .arg("--out")
        .arg(&model)
        .args(["--trees", "5", "--min-bucket", "3", "--store-dir"])
        .arg(&store_dir)
        .env(
            "LORENTZ_FAILPOINTS",
            "store.write.io_error=interrupted@once",
        )
        .status()
        .expect("spawn lorentz train (transient fault)");
    assert!(status.success(), "train must survive a transient I/O error");

    let _obs = OBS_LOCK.lock().unwrap();
    let recovered = DurableStore::open(&store_dir).load().expect("load");
    assert_eq!(recovered.generation, 1);
    assert_eq!(recovered.fallbacks, 0);

    let _ = std::fs::remove_dir_all(&dir);
}
