//! Structured CLI errors.
//!
//! Command implementations used to return `Result<(), String>`, flattening
//! every failure into prose at the point it occurred. [`CliError`] keeps
//! the structure instead: the kind of failure picks the exit code (usage
//! errors exit 2, runtime errors exit 1), I/O errors keep the offending
//! path and the underlying [`std::io::Error`], and core failures carry the
//! typed [`LorentzError`] all the way to `main`.

use lorentz_core::StoreError;
use lorentz_serve::EngineError;
use lorentz_types::LorentzError;
use thiserror::Error;

/// Any way a CLI command can fail.
#[derive(Debug, Error)]
pub enum CliError {
    /// The command line itself was wrong: unknown command or flag, missing
    /// required flag, unparseable flag value. Exits with status 2.
    #[error("{0}")]
    Usage(String),
    /// A file could not be read or written.
    #[error("{path}: {source}")]
    Io {
        /// The path that failed.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// User-provided content was malformed (profile spec, batch file,
    /// ticket lines, ...).
    #[error("{0}")]
    InvalidInput(String),
    /// JSON (de)serialization failed.
    #[error("{0}")]
    Json(String),
    /// The core recommender failed.
    #[error("{0}")]
    Lorentz(LorentzError),
    /// The serving engine itself could not be constructed.
    #[error("{0}")]
    Engine(EngineError),
    /// The durable prediction store could not be saved or loaded.
    #[error("{0}")]
    Store(StoreError),
}

impl CliError {
    /// An I/O failure on `path`.
    pub fn io(path: &str, source: std::io::Error) -> Self {
        Self::Io {
            path: path.to_owned(),
            source,
        }
    }

    /// The process exit status this error maps to: 2 for usage errors
    /// (matching the argument-parse failure path), 1 for runtime failures.
    pub fn exit_code(&self) -> i32 {
        match self {
            Self::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl From<LorentzError> for CliError {
    fn from(e: LorentzError) -> Self {
        Self::Lorentz(e)
    }
}

impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        Self::Engine(e)
    }
}

impl From<StoreError> for CliError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        Self::Json(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_split_usage_from_runtime() {
        assert_eq!(CliError::Usage("bad flag".into()).exit_code(), 2);
        assert_eq!(CliError::InvalidInput("nope".into()).exit_code(), 1);
        let io = CliError::io(
            "missing.json",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert_eq!(io.exit_code(), 1);
        assert!(io.to_string().contains("missing.json"));
        assert!(io.to_string().contains("gone"));
    }

    #[test]
    fn wrapped_errors_keep_their_message() {
        let e = CliError::from(LorentzError::NotFound("no catalog".into()));
        assert!(e.to_string().contains("no catalog"));
        assert!(matches!(e, CliError::Lorentz(LorentzError::NotFound(_))));
    }
}
