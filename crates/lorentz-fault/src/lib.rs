//! Deterministic fault injection for the Lorentz serving system.
//!
//! Torn snapshot writes, torn WAL appends, transient I/O errors and bit
//! rot, made *injectable and deterministic* through one seam:
//!
//! * **[`SnapshotIo`]** — the persistence trait the durable store and the
//!   signal WAL do all their file I/O through: atomic write, read, remove,
//!   list, and append. [`RealIo`] is the production implementation
//!   (`tmp → fsync → rename` for snapshots, `write_all` for appends), and
//!   [`default_io`] returns it.
//! * **[`FaultyIo`]** — a decorator that carries its own script: a
//!   [`Fault`] (tear at a fraction, flip a bit, transient or permanent
//!   error) on chosen calls of an [`Op`]. Faults belong to the value a test
//!   builds, not to the process, so parallel tests never fire each
//!   other's faults and production code has nothing to switch off.
//!
//! Faults outside the disk live with their owners: torn network frames
//! come from a proxy on the test side of the socket (`lorentz-chaos`'s
//! `FaultProxy`), and the serving engine's worker-panic trigger exists
//! only in its own unit tests.
//!
//! ```
//! use lorentz_fault::{Fault, FaultyIo, Op, RealIo, SnapshotIo};
//!
//! let dir = std::env::temp_dir().join(format!("lorentz-fault-doc-{}", std::process::id()));
//! let path = dir.join("snap.bin");
//! // The second write commits only half its bytes, yet reports success.
//! let io = FaultyIo::new(RealIo).fail(Op::Write, 2..=2, Fault::Tear(0.5));
//! io.write_atomic(&path, b"12345678").unwrap();
//! io.write_atomic(&path, b"abcdefgh").unwrap();
//! assert_eq!(io.read(&path).unwrap(), b"abcd");
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod io;

pub use io::{default_io, Fault, FaultyIo, Op, RealIo, SnapshotIo};
