//! The persistence seam: [`SnapshotIo`], its production implementation
//! [`RealIo`], and the fault-scripting [`FaultyIo`].
//!
//! The durable store does all its file I/O, and the signal WAL all its
//! appends, through a `SnapshotIo`, so a test can hand either one a
//! [`FaultyIo`] that tears, corrupts, or fails the calls it chose.

use std::fs::{self, File};
use std::io::{self, Write};
use std::ops::{Bound, RangeBounds};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Filesystem operations used by snapshot persistence and the WAL.
///
/// `write_atomic` must be all-or-nothing on a well-behaved filesystem: a
/// crash during the call leaves either the previous content or the new
/// content at `path`, never a prefix. ([`FaultyIo`] exists precisely to
/// simulate the ill-behaved case.)
pub trait SnapshotIo: Send + Sync {
    /// Writes `bytes` to `path` atomically: temp file in the same
    /// directory, flush + fsync, then rename over the destination.
    ///
    /// # Errors
    /// Any underlying I/O error; the destination is untouched on failure.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Reads the full contents of `path`.
    ///
    /// # Errors
    /// Any underlying I/O error (`NotFound` when the file is absent).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Removes `path`.
    ///
    /// # Errors
    /// Any underlying I/O error.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Lists the entries of directory `dir`.
    ///
    /// # Errors
    /// Any underlying I/O error.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Appends `bytes` at `file`'s cursor (the WAL's write; the caller
    /// syncs).
    ///
    /// # Errors
    /// Any underlying I/O error.
    fn append(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        file.write_all(bytes)
    }
}

/// The production [`SnapshotIo`]: real filesystem calls with
/// `tmp → fsync → rename` atomic writes.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl SnapshotIo for RealIo {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = dir {
            fs::create_dir_all(dir)?;
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        // Make the rename itself durable where the platform allows
        // fsyncing a directory handle; best-effort elsewhere.
        if let Some(dir) = dir {
            if let Ok(handle) = File::open(dir) {
                let _ = handle.sync_all();
            }
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries = Vec::new();
        for entry in fs::read_dir(dir)? {
            entries.push(entry?.path());
        }
        entries.sort();
        Ok(entries)
    }
}

/// The call a scripted [`Fault`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// [`SnapshotIo::write_atomic`].
    Write,
    /// [`SnapshotIo::read`].
    Read,
    /// [`SnapshotIo::append`].
    Append,
}

/// What a scripted call does instead of succeeding normally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Keep only this fraction (clamped to `[0, 1]`) of the bytes. A write
    /// commits the torn prefix and reports success (a crash or lying
    /// fsync between write and durability); a read returns the prefix; an
    /// append writes the prefix and fails, as a writer killed mid-append
    /// leaves its log.
    Tear(f64),
    /// Flip this bit (index modulo the bit count) and report success:
    /// silent corruption.
    FlipBit(u64),
    /// Fail with `ErrorKind::Interrupted`, touching nothing (retryable).
    Transient,
    /// Fail with `ErrorKind::Other`, touching nothing.
    Permanent,
}

/// A range of 1-based call numbers.
type Calls = (Bound<u64>, Bound<u64>);

/// The scripted rules, and the calls seen so far per [`Op`].
#[derive(Debug, Default)]
struct Script {
    rules: Vec<(Op, Calls, Fault)>,
    calls: [u64; 3],
}

/// A [`SnapshotIo`] decorator that injects the faults its owner scripted.
/// Each instance counts its own calls per [`Op`] (1-based) and fires the
/// first matching rule, so two tests — or two logs in one test — never
/// see each other's faults.
#[derive(Debug, Default)]
pub struct FaultyIo<I: SnapshotIo = RealIo> {
    inner: I,
    script: Mutex<Script>,
}

impl<I: SnapshotIo> FaultyIo<I> {
    /// Wraps an inner implementation with an empty script (a transparent
    /// pass-through).
    pub fn new(inner: I) -> Self {
        Self {
            inner,
            script: Mutex::default(),
        }
    }

    /// Scripts `fault` for the calls of `op` whose 1-based number falls in
    /// `calls` (`3..=3` is the third call only, `2..` every call from the
    /// second on). Earlier rules win where ranges overlap.
    #[must_use]
    pub fn fail(mut self, op: Op, calls: impl RangeBounds<u64>, fault: Fault) -> Self {
        let calls = (calls.start_bound().cloned(), calls.end_bound().cloned());
        let script = self.script.get_mut().expect("fault script poisoned");
        script.rules.push((op, calls, fault));
        self
    }

    /// Counts one call of `op` and returns the fault scripted for it.
    fn next(&self, op: Op) -> Option<Fault> {
        let mut script = self.script.lock().expect("fault script poisoned");
        script.calls[op as usize] += 1;
        let n = script.calls[op as usize];
        let rule = script.rules.iter().find(|r| r.0 == op && r.1.contains(&n));
        rule.map(|r| r.2)
    }
}

/// The prefix of `bytes` a `Tear(frac)` keeps.
fn torn(bytes: &[u8], frac: f64) -> &[u8] {
    &bytes[..((bytes.len() as f64) * frac.clamp(0.0, 1.0)) as usize]
}

/// A copy of `bytes` with one bit flipped (index modulo total bits).
fn flip_bit(bytes: &[u8], bit: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if !out.is_empty() {
        let bit = bit % (out.len() as u64 * 8);
        out[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
    out
}

fn injected(op: Op, fault: Fault) -> io::Error {
    let kind = match fault {
        Fault::Transient => io::ErrorKind::Interrupted,
        _ => io::ErrorKind::Other,
    };
    io::Error::new(kind, format!("injected {fault:?} on {op:?}"))
}

impl<I: SnapshotIo> SnapshotIo for FaultyIo<I> {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.next(Op::Write) {
            None => self.inner.write_atomic(path, bytes),
            Some(Fault::Tear(frac)) => self.inner.write_atomic(path, torn(bytes, frac)),
            Some(Fault::FlipBit(bit)) => self.inner.write_atomic(path, &flip_bit(bytes, bit)),
            Some(fault) => Err(injected(Op::Write, fault)),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.next(Op::Read) {
            None => self.inner.read(path),
            Some(Fault::Tear(frac)) => Ok(torn(&self.inner.read(path)?, frac).to_vec()),
            Some(Fault::FlipBit(bit)) => Ok(flip_bit(&self.inner.read(path)?, bit)),
            Some(fault) => Err(injected(Op::Read, fault)),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn append(&self, file: &mut File, bytes: &[u8]) -> io::Result<()> {
        match self.next(Op::Append) {
            None => self.inner.append(file, bytes),
            Some(fault @ Fault::Tear(frac)) => {
                self.inner.append(file, torn(bytes, frac))?;
                Err(injected(Op::Append, fault))
            }
            Some(Fault::FlipBit(bit)) => self.inner.append(file, &flip_bit(bytes, bit)),
            Some(fault) => Err(injected(Op::Append, fault)),
        }
    }
}

/// The [`SnapshotIo`] the durable store and the WAL use by default.
pub fn default_io() -> Box<dyn SnapshotIo> {
    Box::new(RealIo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lorentz-fault-io-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_io_round_trips_and_replaces_atomically() {
        let dir = tmp_dir("real");
        let path = dir.join("snap.bin");
        RealIo.write_atomic(&path, b"first").unwrap();
        assert_eq!(RealIo.read(&path).unwrap(), b"first");
        RealIo.write_atomic(&path, b"second").unwrap();
        assert_eq!(RealIo.read(&path).unwrap(), b"second");
        // No temp file left behind.
        let listed = RealIo.list(&dir).unwrap();
        assert_eq!(listed, vec![path.clone()]);
        RealIo.remove(&path).unwrap();
        assert_eq!(
            RealIo.read(&path).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_io_is_transparent_when_nothing_is_configured() {
        let dir = tmp_dir("transparent");
        let path = dir.join("snap.bin");
        let io = FaultyIo::new(RealIo);
        io.write_atomic(&path, b"payload").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"payload");
        let mut file = File::create(dir.join("log")).unwrap();
        io.append(&mut file, b"frame").unwrap();
        assert_eq!(fs::read(dir.join("log")).unwrap(), b"frame");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unscripted_ops_never_fire() {
        // Every write fails; reads and appends have no rule and pass through.
        let dir = tmp_dir("unscripted");
        let path = dir.join("snap.bin");
        RealIo.write_atomic(&path, b"payload").unwrap();
        let io = FaultyIo::new(RealIo).fail(Op::Write, .., Fault::Permanent);
        assert!(io.write_atomic(&path, b"other").is_err());
        let mut file = File::create(dir.join("log")).unwrap();
        for _ in 0..3 {
            assert_eq!(io.read(&path).unwrap(), b"payload");
            io.append(&mut file, b"frame").unwrap();
        }
        assert_eq!(fs::read(dir.join("log")).unwrap(), b"frameframeframe");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_io_injects_tears_corruption_and_errors() {
        let dir = tmp_dir("faulty");
        let path = dir.join("snap.bin");
        let io = FaultyIo::new(RealIo)
            .fail(Op::Write, 1..=1, Fault::Tear(0.5))
            .fail(Op::Write, 3..=3, Fault::FlipBit(0))
            .fail(Op::Write, 4..=4, Fault::Transient)
            .fail(Op::Read, 4..=4, Fault::Permanent)
            .fail(Op::Read, 6..=6, Fault::FlipBit(3));

        io.write_atomic(&path, b"12345678").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"1234", "torn write kept half");
        io.write_atomic(&path, b"12345678").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"12345678", "fires only once");

        io.write_atomic(&path, &[0u8; 4]).unwrap();
        assert_eq!(io.read(&path).unwrap(), &[1u8, 0, 0, 0]);

        assert_eq!(
            io.write_atomic(&path, b"x").unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        io.write_atomic(&path, b"x").unwrap();

        assert_eq!(
            io.read(&path).unwrap_err().kind(),
            io::ErrorKind::Other,
            "read 4 fails"
        );
        assert_eq!(io.read(&path).unwrap(), b"x");
        assert_eq!(io.read(&path).unwrap(), &[b'x' ^ 0b1000]);
        assert_eq!(io.read(&path).unwrap(), b"x");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_append_writes_the_prefix_and_fails() {
        let dir = tmp_dir("append");
        let log = dir.join("log");
        let io = FaultyIo::new(RealIo)
            .fail(Op::Append, 2..=2, Fault::Tear(0.5))
            .fail(Op::Append, 3.., Fault::Permanent);
        let mut file = File::create(&log).unwrap();
        io.append(&mut file, b"whole").unwrap();
        assert!(io.append(&mut file, b"torn").is_err());
        assert_eq!(
            io.append(&mut file, b"never").unwrap_err().kind(),
            io::ErrorKind::Other
        );
        assert!(io.append(&mut file, b"never").is_err(), "open-ended range");
        assert_eq!(fs::read(&log).unwrap(), b"wholeto");
        let _ = fs::remove_dir_all(&dir);
    }
}
