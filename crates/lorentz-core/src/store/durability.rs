//! Crash-safe persistence for the prediction store.
//!
//! A bare `fs::write` of the store JSON can be observed half-written after
//! a crash, silently corrupted by bit rot, or clobbered by a concurrent
//! writer — and the serving path would load whatever bytes it found. This
//! module replaces it with a generation-numbered, checksummed scheme:
//!
//! * **Framing** — every snapshot is written as a fixed 20-byte header
//!   (magic `LRTZ`, format version, payload length, CRC32C) followed by
//!   the store JSON. Load verifies all four fields before parsing, so
//!   truncation, version skew, and bit flips surface as a typed
//!   [`StoreCorruption`] instead of a JSON parse error (or worse, a
//!   wrong-but-parseable store).
//! * **Generations** — each save commits a fresh `store.gen-N.json` via
//!   `tmp → fsync → atomic rename` (see [`lorentz_fault::RealIo`]), then
//!   atomically updates `store.manifest.json` to point at it. Old
//!   generations are retained (default 4) and pruned only after the new
//!   manifest is durable, so there is *always* a committed snapshot to
//!   fall back to.
//! * **Recovery** — [`DurableStore::load`] walks generations newest-first,
//!   skipping corrupt ones and counting each skip in
//!   `store.recovery.fallbacks`; a corrupt or missing manifest degrades to
//!   a directory scan. Only when every candidate fails does load give up.
//!
//! All I/O goes through the injectable [`SnapshotIo`] seam, so a test that
//! opens the store with a scripted `FaultyIo` can tear, corrupt, or fail
//! any one write or read deterministically.

use std::io;
use std::path::{Path, PathBuf};

use lorentz_fault::{default_io, RealIo, SnapshotIo};
use lorentz_types::StoreCorruption;
use serde::{Deserialize, Serialize};
use thiserror::Error;

use crate::obs;
use crate::retry::{is_transient_io, retry_with_backoff, RetryPolicy};
use crate::store::PredictionStore;

/// Snapshot frame magic bytes.
pub const MAGIC: [u8; 4] = *b"LRTZ";
/// Snapshot format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;
/// Fixed frame header length: magic + version + flags + length + CRC32C.
pub const HEADER_LEN: usize = 20;
/// File name of the generation manifest.
pub const MANIFEST_NAME: &str = "store.manifest.json";

/// Generations retained after a save, including the one just written.
pub const DEFAULT_KEEP_GENERATIONS: usize = 4;

// CRC32C (Castagnoli), reflected polynomial — the same checksum iSCSI and
// ext4 use for metadata. The implementation moved to lorentz-types with the
// shared frame codec; re-exported here for the store's existing callers.
pub use lorentz_types::framing::crc32c;

/// Wraps a snapshot payload in the framed header.
pub fn frame_snapshot(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32c(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a framed snapshot and returns its payload.
///
/// # Errors
/// The first integrity check that fails: header truncation, bad magic,
/// unknown version, payload truncation, or checksum mismatch.
pub fn unframe_snapshot(bytes: &[u8]) -> Result<&[u8], StoreCorruption> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreCorruption::HeaderTruncated {
            got: bytes.len(),
            need: HEADER_LEN,
        });
    }
    if bytes[0..4] != MAGIC {
        return Err(StoreCorruption::BadMagic {
            found: [bytes[0], bytes[1], bytes[2], bytes[3]],
        });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(StoreCorruption::UnknownVersion(version));
    }
    let declared = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let expected = u32::from_le_bytes(bytes[16..20].try_into().expect("4-byte slice"));
    let body = &bytes[HEADER_LEN..];
    if (body.len() as u64) < declared {
        return Err(StoreCorruption::Truncated {
            declared,
            got: body.len() as u64,
        });
    }
    let payload = &body[..declared as usize];
    let actual = crc32c(payload);
    if actual != expected {
        return Err(StoreCorruption::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

/// The persisted generation index: which snapshot is current and which
/// older generations are still on disk for fallback.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Manifest {
    format: u32,
    current: u64,
    generations: Vec<u64>,
}

/// Errors from [`DurableStore`] operations.
#[derive(Debug, Error)]
pub enum StoreError {
    /// An I/O operation failed permanently (after retries, if transient).
    #[error("store I/O error at {path}: {source}")]
    Io {
        /// Path the operation targeted.
        path: String,
        /// The underlying error.
        source: io::Error,
    },

    /// The store could not be serialized for persistence.
    #[error("store serialization failed: {0}")]
    Serialize(String),

    /// The directory holds no snapshot at all (fresh deployment).
    #[error("no store snapshot found in {dir}")]
    NoSnapshot {
        /// The directory searched.
        dir: String,
    },

    /// Every candidate generation failed integrity checks.
    #[error("store unrecoverable: all {attempts} generation(s) corrupt; newest failure: {last}")]
    Unrecoverable {
        /// How many generations were tried.
        attempts: usize,
        /// The corruption found in the newest generation.
        last: StoreCorruption,
    },

    /// A signal log written before WAL records went binary: its records
    /// are JSON, which this build no longer reads. The file is left as
    /// it is.
    #[error(
        "WAL {path} holds JSON-era records, a format this build no longer reads; \
         the file was left unchanged"
    )]
    JsonEraWal {
        /// Path of the log.
        path: String,
    },
}

fn io_err(path: &Path, source: io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        source,
    }
}

/// A successfully recovered store plus how the recovery went.
#[derive(Debug)]
pub struct RecoveredStore {
    /// The recovered prediction store.
    pub store: PredictionStore,
    /// The generation it was loaded from.
    pub generation: u64,
    /// Generations skipped as corrupt or missing before this one.
    pub fallbacks: u64,
    /// What was wrong with each skipped generation, newest first.
    pub skipped: Vec<(u64, StoreCorruption)>,
    /// Set when the manifest was unreadable and recovery degraded to a
    /// directory scan.
    pub manifest_error: Option<StoreCorruption>,
}

/// Generation-numbered, checksummed persistence for [`PredictionStore`].
///
/// ```no_run
/// use lorentz_core::store::durability::DurableStore;
/// use lorentz_core::store::PredictionStore;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let durable = DurableStore::open("/var/lib/lorentz/store");
/// durable.save(&PredictionStore::new())?;
/// let recovered = durable.load()?;
/// assert_eq!(recovered.fallbacks, 0);
/// # Ok(())
/// # }
/// ```
pub struct DurableStore {
    dir: PathBuf,
    io: Box<dyn SnapshotIo>,
    keep: usize,
    retry: RetryPolicy,
}

impl DurableStore {
    /// Opens a durable store rooted at `dir` on the plain filesystem
    /// ([`RealIo`]).
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        Self::with_io(dir, default_io())
    }

    /// Opens a durable store with an explicit [`SnapshotIo`].
    pub fn with_io(dir: impl Into<PathBuf>, io: Box<dyn SnapshotIo>) -> Self {
        Self {
            dir: dir.into(),
            io,
            keep: DEFAULT_KEEP_GENERATIONS,
            retry: RetryPolicy::default(),
        }
    }

    /// Sets how many generations each save retains (minimum 1).
    #[must_use]
    pub fn keep_generations(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Sets the retry policy for snapshot and manifest writes.
    #[must_use]
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_NAME)
    }

    fn gen_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("store.gen-{generation}.json"))
    }

    /// Reads and parses the manifest. `Ok(None)` when it does not exist.
    fn read_manifest(&self) -> Result<Option<Manifest>, StoreCorruption> {
        let path = self.manifest_path();
        let bytes = match self.io.read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreCorruption::BadManifest(format!("read failed: {e}"))),
        };
        let text = String::from_utf8(bytes)
            .map_err(|e| StoreCorruption::BadManifest(format!("not UTF-8: {e}")))?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| StoreCorruption::BadManifest(format!("parse failed: {e}")))?;
        Ok(Some(manifest))
    }

    /// Generation numbers found by scanning the directory for
    /// `store.gen-N.json` files.
    fn scan_generations(&self) -> Vec<u64> {
        let mut gens: Vec<u64> = self
            .io
            .list(&self.dir)
            .unwrap_or_default()
            .iter()
            .filter_map(|p| p.file_name()?.to_str())
            .filter_map(|name| {
                name.strip_prefix("store.gen-")?
                    .strip_suffix(".json")?
                    .parse()
                    .ok()
            })
            .collect();
        gens.sort_unstable();
        gens.dedup();
        gens
    }

    fn write_with_retry(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        retry_with_backoff(&self.retry, is_transient_io, |attempt| {
            if attempt > 0 {
                obs::STORE_SAVE_RETRIES.inc();
            }
            self.io.write_atomic(path, bytes)
        })
        .map_err(|e| io_err(path, e))
    }

    /// Persists `store` as a new generation and commits it in the
    /// manifest, then prunes generations beyond the retention count.
    ///
    /// Returns the committed generation number. Crash-safety argument: the
    /// generation file and the manifest are each written atomically, and
    /// the manifest flips to the new generation only after the data file
    /// is durable — a crash at any point leaves the previous manifest (and
    /// its generations) intact.
    ///
    /// # Errors
    /// [`StoreError::Serialize`] when the store will not serialize,
    /// [`StoreError::Io`] when a write fails past the retry budget.
    pub fn save(&self, store: &PredictionStore) -> Result<u64, StoreError> {
        let prior = self.read_manifest().ok().flatten();
        let mut known = self.scan_generations();
        if let Some(m) = &prior {
            known.extend(m.generations.iter().copied());
            known.push(m.current);
            known.sort_unstable();
            known.dedup();
        }
        let generation = known.last().copied().unwrap_or(0) + 1;

        let payload =
            serde_json::to_string(store).map_err(|e| StoreError::Serialize(format!("{e}")))?;
        let gen_path = self.gen_path(generation);
        self.write_with_retry(&gen_path, &frame_snapshot(payload.as_bytes()))?;

        // The manifest lists only the generations we intend to keep; files
        // beyond the retention count are deleted after the manifest commits,
        // so every listed generation exists on disk at all times.
        known.push(generation);
        known.sort_unstable();
        known.dedup();
        let retained: Vec<u64> = known.iter().rev().take(self.keep).copied().rev().collect();
        let manifest = Manifest {
            format: 1,
            current: generation,
            generations: retained.clone(),
        };
        let manifest_json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| StoreError::Serialize(format!("{e}")))?;
        self.write_with_retry(&self.manifest_path(), manifest_json.as_bytes())?;

        // The commit point: a crash here must leave a loadable store
        // (pruning is only cleanup; the next save redoes it).
        for &old in known.iter().filter(|g| !retained.contains(g)) {
            let _ = self.io.remove(&self.gen_path(old));
        }
        obs::STORE_SAVE_GENERATIONS.inc();
        Ok(generation)
    }

    /// Loads the newest intact generation, falling back past corrupt ones.
    ///
    /// Every skipped generation increments `store.recovery.fallbacks`; the
    /// returned [`RecoveredStore`] reports exactly what was skipped and
    /// why.
    ///
    /// # Errors
    /// [`StoreError::NoSnapshot`] when the directory holds no generation
    /// at all, [`StoreError::Unrecoverable`] when every generation fails
    /// its integrity checks.
    pub fn load(&self) -> Result<RecoveredStore, StoreError> {
        obs::STORE_RECOVERY_LOADS.inc();

        let (mut candidates, manifest_error) = match self.read_manifest() {
            Ok(Some(m)) => {
                let mut gens = m.generations.clone();
                gens.push(m.current);
                gens.sort_unstable();
                gens.dedup();
                (gens, None)
            }
            Ok(None) => (self.scan_generations(), None),
            Err(corruption) => (self.scan_generations(), Some(corruption)),
        };
        candidates.reverse(); // newest first

        let mut skipped: Vec<(u64, StoreCorruption)> = Vec::new();
        for &generation in &candidates {
            match self.try_load_generation(generation) {
                Ok(store) => {
                    return Ok(RecoveredStore {
                        store,
                        generation,
                        fallbacks: skipped.len() as u64,
                        skipped,
                        manifest_error,
                    });
                }
                Err(corruption) => {
                    obs::STORE_RECOVERY_FALLBACKS.inc();
                    skipped.push((generation, corruption));
                }
            }
        }

        match skipped.into_iter().next() {
            None => Err(StoreError::NoSnapshot {
                dir: self.dir.display().to_string(),
            }),
            Some((_, last)) => Err(StoreError::Unrecoverable {
                attempts: candidates.len(),
                last,
            }),
        }
    }

    fn try_load_generation(&self, generation: u64) -> Result<PredictionStore, StoreCorruption> {
        let path = self.gen_path(generation);
        let bytes = match self.io.read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(StoreCorruption::MissingGeneration {
                    generation,
                    path: path.display().to_string(),
                })
            }
            Err(e) => return Err(StoreCorruption::BadPayload(format!("read failed: {e}"))),
        };
        let payload = unframe_snapshot(&bytes)?;
        let text = std::str::from_utf8(payload)
            .map_err(|e| StoreCorruption::BadPayload(format!("not UTF-8: {e}")))?;
        serde_json::from_str(text).map_err(|e| StoreCorruption::BadPayload(format!("{e}")))
    }
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("keep", &self.keep)
            .finish_non_exhaustive()
    }
}

/// Atomically writes `bytes` to `path` (`tmp → fsync → rename`), retrying
/// transient failures under `policy`. The shared helper behind every CLI
/// output write — partially-written files can never be observed at `path`.
///
/// # Errors
/// The underlying I/O error once the retry budget is exhausted.
pub fn atomic_write(path: &Path, bytes: &[u8], policy: &RetryPolicy) -> io::Result<()> {
    retry_with_backoff(policy, is_transient_io, |_| {
        RealIo.write_atomic(path, bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PublishBatch;
    use lorentz_types::{FeatureId, ServerOffering, StoreKey, ValueId};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lorentz-durability-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_store() -> PredictionStore {
        let mut store = PredictionStore::new();
        store
            .publish(PublishBatch {
                entries: vec![(
                    StoreKey::new(ServerOffering::GeneralPurpose, FeatureId(1), ValueId(2)),
                    4.0,
                )],
                defaults: vec![(ServerOffering::GeneralPurpose, 2.0)],
            })
            .unwrap();
        store
    }

    #[test]
    fn frame_round_trips_and_detects_each_corruption() {
        let framed = frame_snapshot(b"hello store");
        assert_eq!(unframe_snapshot(&framed).unwrap(), b"hello store");

        // Header truncation.
        assert!(matches!(
            unframe_snapshot(&framed[..10]),
            Err(StoreCorruption::HeaderTruncated { got: 10, need: 20 })
        ));

        // Bad magic.
        let mut bad = framed.clone();
        bad[0] = b'X';
        assert!(matches!(
            unframe_snapshot(&bad),
            Err(StoreCorruption::BadMagic { .. })
        ));

        // Unknown version.
        let mut bad = framed.clone();
        bad[4] = 0xFF;
        bad[5] = 0xFF;
        assert!(matches!(
            unframe_snapshot(&bad),
            Err(StoreCorruption::UnknownVersion(0xFFFF))
        ));

        // Payload truncation.
        let truncated = &framed[..framed.len() - 3];
        assert!(matches!(
            unframe_snapshot(truncated),
            Err(StoreCorruption::Truncated { .. })
        ));

        // Bit flip in the payload.
        let mut bad = framed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            unframe_snapshot(&bad),
            Err(StoreCorruption::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn save_load_round_trips_with_generations() {
        let dir = tmp_dir("roundtrip");
        let durable = DurableStore::open(&dir);
        let store = sample_store();
        assert_eq!(durable.save(&store).unwrap(), 1);
        assert_eq!(durable.save(&store).unwrap(), 2);

        let recovered = durable.load().unwrap();
        assert_eq!(recovered.generation, 2);
        assert_eq!(recovered.fallbacks, 0);
        assert!(recovered.manifest_error.is_none());
        assert_eq!(recovered.store.len(), store.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruning_keeps_only_the_retention_window() {
        let dir = tmp_dir("prune");
        let durable = DurableStore::open(&dir).keep_generations(2);
        let store = sample_store();
        for expected in 1..=4 {
            assert_eq!(durable.save(&store).unwrap(), expected);
        }
        let gens = durable.scan_generations();
        assert_eq!(gens, vec![3, 4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_reports_no_snapshot() {
        let dir = tmp_dir("empty");
        let err = DurableStore::open(&dir).load().unwrap_err();
        assert!(matches!(err, StoreError::NoSnapshot { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_survives_serde_round_trip() {
        let m = Manifest {
            format: 1,
            current: 7,
            generations: vec![5, 6, 7],
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: Manifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
