//! The shared error type for the Lorentz workspace.

use thiserror::Error;

/// Errors surfaced by Lorentz components.
#[derive(Debug, Error)]
pub enum LorentzError {
    /// A capacity vector was structurally invalid (empty, non-positive, or
    /// non-finite entries).
    #[error("invalid capacity: {0}")]
    InvalidCapacity(String),

    /// A capacity or usage vector did not match the resource space arity.
    #[error("dimension mismatch: expected {expected} dimensions, got {got}")]
    DimensionMismatch {
        /// Dimensions required by the resource space.
        expected: usize,
        /// Dimensions actually provided.
        got: usize,
    },

    /// An SKU catalog was empty or malformed.
    #[error("invalid SKU catalog: {0}")]
    InvalidCatalog(String),

    /// A telemetry trace was unusable (no samples, unordered timestamps, ...).
    #[error("invalid telemetry: {0}")]
    InvalidTelemetry(String),

    /// Profile data was inconsistent with its schema.
    #[error("invalid profile data: {0}")]
    InvalidProfile(String),

    /// A model was asked to predict before being trained, or trained on an
    /// unusable dataset.
    #[error("model error: {0}")]
    Model(String),

    /// The rightsizing optimizer had no feasible candidate.
    #[error("rightsizing infeasible: {0}")]
    Infeasible(String),

    /// A configuration value was out of its valid range.
    #[error("invalid configuration: {0}")]
    InvalidConfig(String),

    /// A lookup key was absent from a store.
    #[error("not found: {0}")]
    NotFound(String),

    /// A persisted store snapshot failed integrity verification.
    #[error("store corruption: {0}")]
    Corruption(StoreCorruption),

    /// A λ-delta record failed integrity verification or could not be
    /// applied in epoch order.
    #[error("delta corruption: {0}")]
    Delta(DeltaCorruption),
}

impl From<StoreCorruption> for LorentzError {
    fn from(err: StoreCorruption) -> Self {
        LorentzError::Corruption(err)
    }
}

/// Why a persisted snapshot could not be trusted.
///
/// Each variant corresponds to one integrity check performed when a framed
/// snapshot (`store.gen-N.json`) or the manifest (`store.manifest.json`) is
/// loaded; the durable store reports which check failed so operators can
/// distinguish truncation from bit rot from version skew.
#[derive(Debug, Error, Clone, PartialEq, Eq)]
pub enum StoreCorruption {
    /// The file is shorter than the fixed frame header.
    #[error("frame header truncated: got {got} bytes, need {need}")]
    HeaderTruncated {
        /// Bytes actually present.
        got: usize,
        /// Bytes the header requires.
        need: usize,
    },

    /// The frame does not start with the snapshot magic bytes.
    #[error("bad frame magic: found {found:?}")]
    BadMagic {
        /// The four bytes found where the magic was expected.
        found: [u8; 4],
    },

    /// The frame declares a format version this build cannot read.
    #[error("unknown snapshot format version {0}")]
    UnknownVersion(u16),

    /// The payload is shorter than the length the header declares.
    #[error("payload truncated: header declares {declared} bytes, got {got}")]
    Truncated {
        /// Payload length declared in the header.
        declared: u64,
        /// Payload bytes actually present.
        got: u64,
    },

    /// The payload checksum does not match the header's CRC32C.
    #[error("checksum mismatch: expected {expected:#010x}, computed {actual:#010x}")]
    ChecksumMismatch {
        /// CRC32C recorded in the frame header.
        expected: u32,
        /// CRC32C computed over the payload as read.
        actual: u32,
    },

    /// The payload passed integrity checks but did not deserialize.
    #[error("bad snapshot payload: {0}")]
    BadPayload(String),

    /// The manifest points at a generation file that does not exist.
    #[error("manifest references missing generation {generation} at {path}")]
    MissingGeneration {
        /// The missing generation number.
        generation: u64,
        /// Path the manifest resolved to.
        path: String,
    },

    /// The manifest itself was unreadable or malformed.
    #[error("bad manifest: {0}")]
    BadManifest(String),
}

/// Why a λ-delta record could not be applied.
///
/// Mirrors [`StoreCorruption`] for the replication path: each variant is
/// one integrity check performed when a packed
/// [`LambdaDelta`](crate::LambdaDelta) is decoded or applied to a follower
/// store, so `lorentz wal-verify` and the follower can say which check
/// failed.
#[derive(Debug, Error, Clone, PartialEq, Eq)]
pub enum DeltaCorruption {
    /// The packed delta is shorter than its header or declared entries.
    #[error("delta truncated: got {got} bytes, need {need}")]
    Truncated {
        /// Bytes actually present.
        got: usize,
        /// Bytes the declared layout requires.
        need: usize,
    },

    /// The packed delta has bytes beyond the declared entries.
    #[error("delta has {extra} trailing bytes")]
    TrailingBytes {
        /// Unexpected bytes after the last entry.
        extra: usize,
    },

    /// An entry key has reserved high bits set and cannot be a
    /// [`PathKey`](crate::PathKey).
    #[error("bad delta entry key {packed:#034x}: reserved bits set")]
    BadEntryKey {
        /// The packed key as read.
        packed: u128,
    },

    /// The delta's epoch does not advance the store it was applied to —
    /// a replication stream replayed out of order or forked.
    #[error("delta epoch {got} does not advance store epoch {current}")]
    EpochRegression {
        /// The store's current epoch.
        current: u64,
        /// The epoch carried by the rejected delta.
        got: u64,
    },
}

impl From<DeltaCorruption> for LorentzError {
    fn from(err: DeltaCorruption) -> Self {
        LorentzError::Delta(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = LorentzError::DimensionMismatch {
            expected: 2,
            got: 1,
        };
        assert_eq!(
            e.to_string(),
            "dimension mismatch: expected 2 dimensions, got 1"
        );
        let e = LorentzError::InvalidCapacity("x".into());
        assert!(e.to_string().contains("invalid capacity"));
    }

    #[test]
    fn corruption_variants_render_and_convert() {
        let c = StoreCorruption::ChecksumMismatch {
            expected: 0xDEAD_BEEF,
            actual: 0x0000_0001,
        };
        assert_eq!(
            c.to_string(),
            "checksum mismatch: expected 0xdeadbeef, computed 0x00000001"
        );
        let e: LorentzError = c.into();
        assert!(e.to_string().starts_with("store corruption: "));

        let c = StoreCorruption::BadMagic { found: *b"oops" };
        assert!(c.to_string().contains("bad frame magic"));
    }
}
