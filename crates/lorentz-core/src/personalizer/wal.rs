//! The satisfaction-signal write-ahead log.
//!
//! A published λ epoch lives in memory; the signals that produced it must
//! survive a crash. [`SignalWal`] appends every accepted signal as a
//! CRC-framed record *before* the epoch is published, and replays the log
//! on startup so a restarted server rebuilds exactly the λ state it lost.
//! Each record also carries the epoch-stamped [`LambdaDelta`] the signal
//! produced ([`WalRecord`]), so the same log doubles as the replication
//! stream a follower applies without re-running propagation.
//!
//! Each record is framed independently (unlike the whole-file snapshot
//! frames of [`store::durability`](crate::store::durability), the WAL
//! grows by appending):
//!
//! ```text
//! [4 magic "LSIG"] [4 payload len u32 LE] [4 payload CRC32C u32 LE] [payload]
//! ```
//!
//! The payload is a fixed binary layout, little-endian throughout, led by
//! a tag byte:
//!
//! ```text
//! record: [1 tag = 1] [4 customer] [4 subscription] [4 resource group]
//!         [1 offering code] [8 γ f64 bits] [LambdaDelta::pack() bytes]
//! term:   [1 tag = 2] [8 leader term u64]
//! ```
//!
//! A record is a [`WalRecord`]; a term marker is appended whenever a
//! process mints a new leader term (a log with no markers recovers as term
//! 0). A payload that is not exactly one of the two — unknown tag, wrong
//! length, trailing bytes, an offering code out of range, a non-finite γ or
//! λ, a delta key with reserved bits set — is
//! [`StoreCorruption::BadPayload`]. Logs written before records went binary
//! held JSON payloads; a log whose first intact frame holds one is refused
//! whole with [`StoreError::JsonEraWal`] and left byte-identical, instead
//! of being truncated as a torn tail.
//! Appends are `write_all` + `fsync` under [`retry_with_backoff`], so
//! transient I/O failures retry and permanent ones surface. A failed
//! attempt first cuts the file back to its length before the attempt, so
//! neither a retry nor the next append lands behind a torn prefix; a log
//! whose cut itself fails refuses every later append. A crash
//! mid-append leaves a torn final record; replay verifies each frame's
//! CRC, keeps every intact prefix record, truncates the torn tail, and
//! reports how many bytes were dropped — mirroring the newest-first
//! fallback discipline of the durable store. Appends go through a
//! [`SnapshotIo`] seam chosen at [`SignalWal::open_with`], so a test that
//! hands in a scripted `FaultyIo` gets torn appends, bit flips, and
//! transient or permanent errors on that one log. [`SignalWal::verify`]
//! walks a log read-only and reports each record's verdict (the `lorentz
//! wal-verify` command), reusing [`StoreCorruption`] so operators see the
//! same corruption taxonomy as `store-verify`.

use super::SatisfactionSignal;
use crate::obs;
use crate::retry::{is_transient_io, retry_with_backoff, RetryPolicy};
use crate::store::StoreError;
use lorentz_fault::{default_io, SnapshotIo};
use lorentz_types::framing::{Decoded, FrameCodec, FrameError};
use lorentz_types::{
    CustomerId, LambdaDelta, ResourceGroupId, ResourcePath, ServerOffering, StoreCorruption,
    SubscriptionId,
};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Frame magic for one WAL record.
const MAGIC: [u8; 4] = *b"LSIG";
/// Fixed bytes before each record's payload.
const HEADER_LEN: usize = 12;
/// Upper bound on a record payload. A delta record lists every profile a
/// propagation round touched — potentially a whole customer subtree — so
/// the cap is generous; a larger declared length still means the header
/// itself is corrupt.
const MAX_PAYLOAD: u32 = 1 << 24;
/// Payload tag of a delta-framed [`WalRecord`].
const TAG_RECORD: u8 = 1;
/// Payload tag of a leader-term marker.
const TAG_TERM: u8 = 2;
/// Bytes of a record payload before its packed delta: the tag, three path
/// ids, the offering code and γ.
const SIGNAL_LEN: usize = 1 + 3 * 4 + 1 + 8;
/// Bytes of a term-marker payload: the tag and the term.
const TERM_LEN: usize = 1 + 8;

/// The WAL's frame codec: `[4 magic "LSIG"][4 len u32 LE][4 CRC32C u32 LE]`
/// then the payload. Public because the replication stream carries these
/// exact frames over a socket, and the TCP follower decodes them with the
/// same codec that wrote the leader's disk.
pub fn wal_codec() -> FrameCodec {
    FrameCodec::wal(MAGIC, MAX_PAYLOAD as usize)
}

/// One delta-framed WAL record: the accepted signal plus the epoch-stamped
/// [`LambdaDelta`] applying it produced on the leader. The leader's replay
/// path only needs `signal`; a follower only needs `delta`; `wal-verify`
/// prints both.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The satisfaction signal as accepted.
    pub signal: SatisfactionSignal,
    /// The λ changes applying it produced, stamped with the epoch the
    /// leader published.
    pub delta: LambdaDelta,
}

/// One intact record read back from a log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// A delta-framed [`WalRecord`].
    Record(WalRecord),
    /// A leader-term marker: appended once whenever a process mints a new
    /// leader term (fresh-log startup, every promotion). Terms never
    /// regress within one log, so the highest marker reconstructs the
    /// lineage's current term on recovery; because the replication stream
    /// carries the log's frames verbatim, the marker also tells every
    /// follower which term produced the records after it — without
    /// per-frame headers that would break the replica's byte-identical-log
    /// property.
    Term(u64),
}

impl WalEntry {
    /// The signal this entry carries, `None` for a term marker.
    pub fn signal(&self) -> Option<&SatisfactionSignal> {
        match self {
            WalEntry::Record(r) => Some(&r.signal),
            WalEntry::Term(_) => None,
        }
    }

    /// The delta epoch, if this is a delta-framed record.
    pub fn epoch(&self) -> Option<u64> {
        match self {
            WalEntry::Record(r) => Some(r.delta.epoch),
            WalEntry::Term(_) => None,
        }
    }

    /// The minted leader term, if this is a term marker.
    pub fn term(&self) -> Option<u64> {
        match self {
            WalEntry::Term(t) => Some(*t),
            WalEntry::Record(_) => None,
        }
    }
}

/// What [`SignalWal::open`] recovered from an existing log.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecovery {
    /// Every intact signal, in append order — apply these before serving.
    pub signals: Vec<SatisfactionSignal>,
    /// The highest delta epoch among intact records (0 when the log holds
    /// none). After replaying, fast-forward the λ store to at least this
    /// epoch so new appends continue the on-disk numbering.
    pub last_epoch: u64,
    /// The highest leader term among intact term markers (0 for
    /// a log with no markers). A restarting leader resumes this term; a
    /// promotion mints a strictly higher one.
    pub last_term: u64,
    /// Bytes discarded from a torn final record (0 for a clean log).
    pub torn_tail_bytes: usize,
}

/// An append-only, CRC-framed log of satisfaction signals and their λ
/// deltas. Framing is the shared [`wal_codec`]; [`SignalWal::replay_from`]
/// is the leader-side resume cursor behind the replication handshake.
pub struct SignalWal {
    path: PathBuf,
    file: File,
    io: Box<dyn SnapshotIo>,
    /// Bytes of whole records: where the next append starts, and what a
    /// failed one is cut back to. `None` once a cut failed, which makes
    /// the log refuse every later append.
    len: Option<u64>,
}

impl std::fmt::Debug for SignalWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignalWal")
            .field("path", &self.path)
            .finish()
    }
}

impl SignalWal {
    /// Opens (or creates) the log at `path`, replaying every intact record
    /// and truncating a torn tail. Appends go straight to the file.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the file cannot be opened, read, or
    /// truncated, and [`StoreError::JsonEraWal`] — leaving the file as it
    /// is — when it holds JSON-era records.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, WalRecovery), StoreError> {
        Self::open_with(path, default_io())
    }

    /// [`SignalWal::open`] with every append going through `io`.
    ///
    /// # Errors
    /// As [`SignalWal::open`].
    pub fn open_with(
        path: impl AsRef<Path>,
        io: Box<dyn SnapshotIo>,
    ) -> Result<(Self, WalRecovery), StoreError> {
        let path = path.as_ref().to_path_buf();
        let io_err = |source: io::Error| StoreError::Io {
            path: path.display().to_string(),
            source,
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(&io_err)?;
        let len = file.metadata().map_err(&io_err)?.len();
        let mut bytes = Vec::with_capacity(usize::try_from(len).unwrap_or(0));
        file.read_to_end(&mut bytes).map_err(&io_err)?;
        refuse_json_era(&path, &bytes)?;
        // Walk the intact prefix, keeping only what recovery needs: each
        // delta is dropped as soon as its epoch is read. Any violation
        // ends the walk there; everything after it is the torn tail.
        let (mut signals, mut last_epoch, mut last_term) = (Vec::new(), 0, 0);
        let mut good_len = 0;
        while let Some(Ok((entry, end))) = next_frame(&bytes, good_len) {
            match entry {
                WalEntry::Record(r) => {
                    signals.push(r.signal);
                    last_epoch = last_epoch.max(r.delta.epoch);
                }
                WalEntry::Term(t) => last_term = last_term.max(t),
            }
            obs::WAL_REPLAYED.inc();
            good_len = end;
        }
        let torn_tail_bytes = bytes.len() - good_len;
        if torn_tail_bytes > 0 {
            file.set_len(good_len as u64).map_err(&io_err)?;
            obs::WAL_TORN_TAILS.inc();
        }
        file.seek(SeekFrom::Start(good_len as u64))
            .map_err(&io_err)?;
        Ok((
            Self {
                path,
                file,
                io,
                len: Some(good_len as u64),
            },
            WalRecovery {
                signals,
                last_epoch,
                last_term,
                torn_tail_bytes,
            },
        ))
    }

    /// Walks the log at `path` read-only, reporting a verdict per record
    /// — the `lorentz wal-verify` backend. Unlike [`SignalWal::open`] this
    /// never truncates: a torn or corrupt tail is described, not repaired.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the file cannot be read and
    /// [`StoreError::JsonEraWal`] when it holds JSON-era records.
    pub fn verify(path: impl AsRef<Path>) -> Result<WalVerifyReport, StoreError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|source| StoreError::Io {
            path: path.display().to_string(),
            source,
        })?;
        refuse_json_era(path, &bytes)?;
        let mut records = Vec::new();
        let mut offset = 0usize;
        let mut corrupt = None;
        loop {
            match next_frame(&bytes, offset) {
                None => break,
                Some(Err(why)) => {
                    corrupt = Some((offset as u64, why));
                    break;
                }
                Some(Ok((entry, end))) => {
                    records.push(WalRecordSummary {
                        index: records.len(),
                        offset: offset as u64,
                        epoch: entry.epoch(),
                        term: entry.term(),
                        delta_keys: match &entry {
                            WalEntry::Record(r) => r.delta.entries.len(),
                            WalEntry::Term(_) => 0,
                        },
                        signal: entry.signal().copied(),
                    });
                    offset = end;
                }
            }
        }
        Ok(WalVerifyReport {
            records,
            corrupt,
            trailing_bytes: (bytes.len() - offset) as u64,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one delta-framed record durably: frame, `write_all`,
    /// `fsync`, with transient I/O failures retried under the policy.
    /// This is the leader's append path; followers replay the embedded
    /// delta without re-running propagation.
    ///
    /// # Errors
    /// Returns [`StoreError::Serialize`] when the record cannot be
    /// encoded and [`StoreError::Io`] when the write fails permanently.
    pub fn append_record(&mut self, record: &WalRecord) -> Result<(), StoreError> {
        self.append_frame(&frame_record(record)?)
    }

    /// Appends one leader-term marker durably. Term markers are control
    /// records, not feedback: they share the framing, retry, and
    /// fault-seam discipline of every other append but are *not* counted
    /// in `personalizer.wal.appends`, which meters accepted signals.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the write fails permanently.
    pub fn append_term(&mut self, term: u64) -> Result<(), StoreError> {
        let mut payload = Vec::with_capacity(TERM_LEN);
        payload.push(TAG_TERM);
        payload.extend_from_slice(&term.to_le_bytes());
        self.write_frame(&wal_codec().encode(&payload))
    }

    /// Appends pre-framed record bytes (from [`frame_record`], or received
    /// off a replication stream) durably, under the same retry and
    /// fault-seam discipline as [`SignalWal::append_record`]. The frame is
    /// written verbatim, so a TCP follower's local log stays byte-identical
    /// to the leader's.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the write fails permanently.
    pub fn append_frame(&mut self, frame: &[u8]) -> Result<(), StoreError> {
        self.write_frame(frame)?;
        obs::WAL_APPENDS.inc();
        Ok(())
    }

    /// The durable write every append path shares: the seam's append +
    /// `fsync` under the default retry policy, metering left to the
    /// caller.
    fn write_frame(&mut self, frame: &[u8]) -> Result<(), StoreError> {
        let policy = RetryPolicy::default();
        retry_with_backoff(&policy, is_transient_io, |_| self.append_once(frame)).map_err(
            |source| StoreError::Io {
                path: self.path.display().to_string(),
                source,
            },
        )
    }

    /// Discards every record, resetting the log to empty — the follower's
    /// full-resync path, where the leader's stream restarts from its log's
    /// beginning and the local copy must restart with it.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the truncate fails.
    pub fn truncate_all(&mut self) -> Result<(), StoreError> {
        let io_err = |source: io::Error| StoreError::Io {
            path: self.path.display().to_string(),
            source,
        };
        self.len = None;
        self.file.set_len(0).map_err(io_err)?;
        self.file.seek(SeekFrom::Start(0)).map_err(io_err)?;
        self.len = Some(0);
        Ok(())
    }

    /// One append attempt. A failed write or sync is cut back to the
    /// pre-append length before the error is returned.
    fn append_once(&mut self, frame: &[u8]) -> io::Result<()> {
        let len = self.len.ok_or_else(|| {
            io::Error::other("log refuses appends: cutting a failed append back failed")
        })?;
        let written = self
            .io
            .append(&mut self.file, frame)
            .and_then(|()| self.file.sync_data());
        self.len = match written {
            Ok(()) => Some(len + frame.len() as u64),
            Err(_) => self
                .file
                .set_len(len)
                .and_then(|()| self.file.seek(SeekFrom::Start(len)))
                .ok(),
        };
        written
    }

    /// The leader-side resume cursor: reads the log at `path` and returns
    /// the raw frames a subscriber resuming from `last_epoch` must receive,
    /// in log order.
    ///
    /// Resume is positional, not epoch-filtered: a follower's `last_epoch`
    /// always names a record it applied *from this log* (epochs are minted
    /// by one global counter and the log is append-only), so the cursor
    /// finds the record carrying that epoch and replays everything after
    /// it — including term markers, which carry no epoch but still belong
    /// to the stream. When `last_epoch > 0` and no record carries it, the
    /// log has been compacted/rotated past the follower's position: the
    /// whole log is returned with `full_resync = true`, and the follower
    /// must reset its λ-state before applying.
    ///
    /// A torn/corrupt tail ends the cursor at the last good boundary,
    /// matching every other reader of the log.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] when the file exists but cannot be read
    /// (a missing file is an empty log, not an error), and
    /// [`StoreError::JsonEraWal`] when it holds JSON-era records.
    pub fn replay_from(path: impl AsRef<Path>, last_epoch: u64) -> Result<WalReplay, StoreError> {
        let path = path.as_ref();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(source) => {
                return Err(StoreError::Io {
                    path: path.display().to_string(),
                    source,
                });
            }
        };
        refuse_json_era(path, &bytes)?;
        let mut frames: Vec<(Option<u64>, usize, usize)> = Vec::new();
        let mut offset = 0usize;
        while let Some(Ok((entry, end))) = next_frame(&bytes, offset) {
            frames.push((entry.epoch(), offset, end));
            offset = end;
        }
        let log_last_epoch = frames.iter().filter_map(|(e, _, _)| *e).max().unwrap_or(0);
        let (start_index, full_resync) = if last_epoch == 0 {
            (0, false)
        } else {
            match frames.iter().rposition(|(e, _, _)| *e == Some(last_epoch)) {
                Some(i) => (i + 1, false),
                None => (0, true),
            }
        };
        let frames = frames[start_index..]
            .iter()
            .map(|&(_, start, end)| bytes[start..end].to_vec())
            .collect();
        Ok(WalReplay {
            frames,
            full_resync,
            log_last_epoch,
        })
    }
}

/// What [`SignalWal::replay_from`] found for a resuming subscriber.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// Raw framed records to send, in log order — byte-identical to the
    /// on-disk frames.
    pub frames: Vec<Vec<u8>>,
    /// True when the log no longer reaches back to the requested epoch:
    /// `frames` is then the *entire* log and the subscriber must reset its
    /// λ-state before applying.
    pub full_resync: bool,
    /// The highest delta epoch among the log's intact records (0 when the
    /// log holds none).
    pub log_last_epoch: u64,
}

/// Exponential idle backoff for poll loops: each consecutive idle poll
/// doubles the sleep from `base` up to `cap`, and any productive poll
/// resets it. Replaces the follower's hard-coded 20 ms spin so an idle
/// standby stops burning a syscall loop. [`PollBackoff::with_jitter`]
/// additionally scatters each sleep by a seeded ±50% so a fleet of
/// followers healing from the same partition doesn't reconnect in
/// lockstep.
#[derive(Debug, Clone)]
pub struct PollBackoff {
    base: Duration,
    cap: Duration,
    next: Duration,
    /// SplitMix64 state when jitter is on; `None` doubles exactly.
    jitter: Option<u64>,
}

impl PollBackoff {
    /// Default backoff ceiling (~200 ms): long enough to quiet an idle
    /// follower, short enough that catch-up latency stays invisible.
    pub const DEFAULT_CAP: Duration = Duration::from_millis(200);

    /// A backoff starting at `base` and doubling up to `cap`.
    pub fn new(base: Duration, cap: Duration) -> Self {
        let cap = cap.max(base);
        Self {
            base,
            cap,
            next: base,
            jitter: None,
        }
    }

    /// Like [`PollBackoff::new`], but each returned sleep is scaled by a
    /// deterministic seeded factor in `[0.5, 1.5)`. The doubling schedule
    /// underneath is unchanged — only the emitted sleeps scatter — so two
    /// backoffs with the same seed still produce identical schedules
    /// (replayable under the chaos harness).
    pub fn with_jitter(base: Duration, cap: Duration, seed: u64) -> Self {
        Self {
            jitter: Some(seed),
            ..Self::new(base, cap)
        }
    }

    /// Called after an idle poll: returns how long to sleep, then doubles
    /// the next idle sleep (saturating at the cap).
    pub fn idle(&mut self) -> Duration {
        let sleep = match self.jitter.as_mut() {
            None => self.next,
            Some(state) => {
                // SplitMix64: one step of state, mixed into [0.5, 1.5).
                *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
                self.next.mul_f64(0.5 + frac)
            }
        };
        self.next = (self.next * 2).min(self.cap);
        sleep
    }

    /// Called after a productive poll: the next idle sleep restarts at
    /// `base`.
    pub fn reset(&mut self) {
        self.next = self.base;
    }

    /// The configured base interval.
    pub fn base(&self) -> Duration {
        self.base
    }
}

/// Read-only verdict for one log, from [`SignalWal::verify`].
#[derive(Debug, Clone, PartialEq)]
pub struct WalVerifyReport {
    /// One summary per intact record, in append order.
    pub records: Vec<WalRecordSummary>,
    /// Why the walk stopped before end-of-file: byte offset of the first
    /// corrupt frame plus the failed integrity check. `None` for a clean
    /// log.
    pub corrupt: Option<(u64, StoreCorruption)>,
    /// Bytes after the intact prefix (the torn/corrupt tail; 0 if clean).
    pub trailing_bytes: u64,
}

/// One intact record's summary within a [`WalVerifyReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecordSummary {
    /// Zero-based record index.
    pub index: usize,
    /// Byte offset of the record's frame.
    pub offset: u64,
    /// The delta epoch, `None` for a term marker.
    pub epoch: Option<u64>,
    /// The minted leader term, `Some` only for a term marker.
    pub term: Option<u64>,
    /// Number of λ keys the embedded delta carries (0 otherwise).
    pub delta_keys: usize,
    /// The signal the record carries, `None` for a term marker.
    pub signal: Option<SatisfactionSignal>,
}

/// Frames one delta record exactly as [`SignalWal::append_record`] writes
/// it — the leader's replication fanout broadcasts these bytes so the
/// stream a follower receives is byte-identical to the leader's disk.
///
/// # Errors
/// Returns [`StoreError::Serialize`] for a record the decoder would refuse:
/// a non-finite γ or λ, or a payload past the record cap.
pub fn frame_record(record: &WalRecord) -> Result<Vec<u8>, StoreError> {
    let WalRecord { signal, delta } = record;
    if !signal.gamma.is_finite()
        || delta
            .entries
            .iter()
            .flat_map(|(_, l)| l)
            .any(|l| !l.is_finite())
    {
        return Err(StoreError::Serialize(format!(
            "WAL record at epoch {} carries a non-finite γ or λ",
            delta.epoch
        )));
    }
    let packed = delta.pack();
    let len = SIGNAL_LEN + packed.len();
    if len > MAX_PAYLOAD as usize {
        return Err(StoreError::Serialize(format!(
            "WAL record of {len} bytes exceeds the {MAX_PAYLOAD}-byte record cap"
        )));
    }
    let mut payload = Vec::with_capacity(len);
    payload.push(TAG_RECORD);
    for id in [
        signal.path.customer.0,
        signal.path.subscription.0,
        signal.path.resource_group.0,
    ] {
        payload.extend_from_slice(&id.to_le_bytes());
    }
    payload.push(signal.offering.code());
    payload.extend_from_slice(&signal.gamma.to_bits().to_le_bytes());
    payload.extend_from_slice(&packed);
    Ok(wal_codec().encode(&payload))
}

/// Decodes an intact frame payload into a [`WalEntry`], refusing anything
/// [`frame_record`] or [`SignalWal::append_term`] would not have written.
fn parse_entry(payload: &[u8]) -> Result<WalEntry, StoreCorruption> {
    match payload.first() {
        Some(&TAG_RECORD) => parse_record(payload).map(WalEntry::Record),
        Some(&TAG_TERM) => {
            let term: [u8; 8] = payload[1..].try_into().map_err(|_| {
                StoreCorruption::BadPayload(format!(
                    "term marker is {} bytes, expected {TERM_LEN}",
                    payload.len()
                ))
            })?;
            Ok(WalEntry::Term(u64::from_le_bytes(term)))
        }
        Some(tag) => Err(StoreCorruption::BadPayload(format!(
            "unknown record tag {tag:#04x}"
        ))),
        None => Err(StoreCorruption::BadPayload("empty payload".to_owned())),
    }
}

/// Decodes a [`TAG_RECORD`] payload: the fixed signal head, then exactly
/// one packed delta.
fn parse_record(payload: &[u8]) -> Result<WalRecord, StoreCorruption> {
    let Some(head) = payload.get(..SIGNAL_LEN) else {
        return Err(StoreCorruption::BadPayload(format!(
            "record is {} bytes, shorter than its {SIGNAL_LEN}-byte signal",
            payload.len()
        )));
    };
    let id = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().expect("4 bytes"));
    let path = ResourcePath::new(
        CustomerId(id(1)),
        SubscriptionId(id(5)),
        ResourceGroupId(id(9)),
    );
    let offering = ServerOffering::from_code(head[13]).ok_or_else(|| {
        StoreCorruption::BadPayload(format!("offering code {} is out of range", head[13]))
    })?;
    let gamma = f64::from_bits(u64::from_le_bytes(
        head[14..22].try_into().expect("8 bytes"),
    ));
    if !gamma.is_finite() {
        return Err(StoreCorruption::BadPayload(format!(
            "γ {gamma} is not finite"
        )));
    }
    let delta = LambdaDelta::unpack(&payload[SIGNAL_LEN..])
        .map_err(|e| StoreCorruption::BadPayload(format!("delta: {e}")))?;
    if let Some((key, _)) = delta
        .entries
        .iter()
        .find(|(_, lambdas)| lambdas.iter().any(|l| !l.is_finite()))
    {
        return Err(StoreCorruption::BadPayload(format!(
            "delta: λ of {key} is not finite"
        )));
    }
    Ok(WalRecord {
        signal: SatisfactionSignal {
            path,
            offering,
            gamma,
        },
        delta,
    })
}

/// Refuses a log written before records went binary: one whose first
/// intact frame holds a JSON object. Walking it would read every frame as
/// corrupt, and [`SignalWal::open`] would truncate the whole log as a torn
/// tail.
fn refuse_json_era(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    match wal_codec().decode(bytes, 0) {
        Ok(Decoded::Frame { payload, .. }) if payload.first() == Some(&b'{') => {
            Err(StoreError::JsonEraWal {
                path: path.display().to_string(),
            })
        }
        _ => Ok(()),
    }
}

/// Examines the frame starting at `offset`: `None` at clean end-of-log,
/// `Some(Ok((entry, next_offset)))` for an intact record, `Some(Err)`
/// naming the failed integrity check. Frames are self-delimiting, so the
/// first violation ends every walk — the bytes after it cannot be
/// re-synchronized. Structural checks (magic, cap, CRC, truncation) are
/// the shared codec's; this translates its verdicts into the store's
/// corruption taxonomy.
///
/// Public so transports that carry WAL frames verbatim (the TCP
/// replication stream) can decode with exactly the on-disk rules. In a
/// streaming context `HeaderTruncated`/`Truncated` mean "wait for more
/// bytes", not corruption.
pub fn next_frame(
    bytes: &[u8],
    offset: usize,
) -> Option<Result<(WalEntry, usize), StoreCorruption>> {
    let remaining = bytes.len() - offset;
    if remaining == 0 {
        return None;
    }
    match wal_codec().decode(bytes, offset) {
        Ok(Decoded::Frame { payload, consumed }) => {
            Some(parse_entry(payload).map(|entry| (entry, offset + consumed)))
        }
        Ok(Decoded::Incomplete {
            got,
            declared: None,
        }) => Some(Err(StoreCorruption::HeaderTruncated {
            got,
            need: HEADER_LEN,
        })),
        Ok(Decoded::Incomplete {
            got,
            declared: Some(len),
        }) => Some(Err(StoreCorruption::Truncated {
            declared: len as u64,
            got: (got - HEADER_LEN) as u64,
        })),
        Err(FrameError::BadMagic { found }) => Some(Err(StoreCorruption::BadMagic { found })),
        Err(FrameError::TooLarge { len, .. }) => Some(Err(StoreCorruption::BadPayload(format!(
            "declared payload length {len} exceeds the {MAX_PAYLOAD}-byte record cap"
        )))),
        Err(FrameError::ChecksumMismatch { expected, actual }) => {
            Some(Err(StoreCorruption::ChecksumMismatch { expected, actual }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lorentz_fault::{Fault, FaultyIo, Op, RealIo};
    use lorentz_types::{
        CustomerId, PathKey, ResourceGroupId, ResourcePath, ServerOffering, SubscriptionId,
    };
    use std::io::Write;

    fn signal(c: u32, gamma: f64) -> SatisfactionSignal {
        SatisfactionSignal::new(
            ResourcePath::new(CustomerId(c), SubscriptionId(1), ResourceGroupId(1)),
            ServerOffering::GeneralPurpose,
            gamma,
        )
        .unwrap()
    }

    fn record(c: u32, gamma: f64, epoch: u64) -> WalRecord {
        let s = signal(c, gamma);
        WalRecord {
            signal: s,
            delta: LambdaDelta::new(epoch, vec![(PathKey::new(s.path), [gamma, 0.0, 0.0])]),
        }
    }

    /// A per-test temp dir, removed with everything in it on drop;
    /// derefs to the `signals.wal` path inside it.
    struct TempLog {
        dir: PathBuf,
        path: PathBuf,
    }

    impl TempLog {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("lorentz-wal-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("signals.wal");
            Self { dir, path }
        }
    }

    impl std::ops::Deref for TempLog {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.path
        }
    }

    impl AsRef<Path> for TempLog {
        fn as_ref(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for TempLog {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// Shared fixture: a fresh per-test temp dir holding `signals.wal`,
    /// opened with the recovery asserted empty/clean. Every test reopens
    /// through [`reopen`] to avoid repeating the unwrap chain.
    fn fresh_wal(name: &str) -> (TempLog, SignalWal) {
        faulted_wal(name, FaultyIo::new(RealIo))
    }

    /// [`fresh_wal`] appending through `io`, whose faults only this log
    /// sees.
    fn faulted_wal(name: &str, io: FaultyIo) -> (TempLog, SignalWal) {
        let log = TempLog::new(name);
        let (wal, recovery) = SignalWal::open_with(&log, Box::new(io)).unwrap();
        assert!(recovery.signals.is_empty());
        assert_eq!(recovery.torn_tail_bytes, 0);
        (log, wal)
    }

    /// Reopens an existing log, returning the handle and its recovery.
    fn reopen(path: &Path) -> (SignalWal, WalRecovery) {
        SignalWal::open(path).unwrap()
    }

    #[test]
    fn append_and_replay_round_trips() {
        let (path, mut wal) = fresh_wal("round-trip");
        let records = [record(1, 1.0, 2), record(2, -0.5, 3), record(3, 0.25, 4)];
        for r in &records {
            wal.append_record(r).unwrap();
        }
        drop(wal);
        let (_wal, recovery) = reopen(&path);
        let signals: Vec<_> = records.iter().map(|r| r.signal).collect();
        assert_eq!(recovery.signals, signals);
        assert_eq!(recovery.last_epoch, 4);
        assert_eq!(recovery.last_term, 0); // no term markers: term 0
        assert_eq!(recovery.torn_tail_bytes, 0);
    }

    #[test]
    fn term_markers_round_trip_and_track_the_lineage() {
        let (path, mut wal) = fresh_wal("terms");
        wal.append_term(1).unwrap();
        wal.append_record(&record(1, 1.0, 2)).unwrap();
        wal.append_term(4).unwrap(); // a promotion mid-log
        wal.append_record(&record(2, 0.5, 3)).unwrap();
        drop(wal);

        let (_wal, recovery) = reopen(&path);
        assert_eq!(recovery.last_term, 4);
        assert_eq!(recovery.last_epoch, 3);
        assert_eq!(recovery.signals, vec![signal(1, 1.0), signal(2, 0.5)]);

        let report = SignalWal::verify(&path).unwrap();
        assert_eq!(report.records.len(), 4);
        assert_eq!(report.records[0].term, Some(1));
        assert_eq!(report.records[0].epoch, None);
        assert!(report.records[0].signal.is_none());
        assert_eq!(report.records[1].term, None);
        assert_eq!(report.records[1].signal, Some(signal(1, 1.0)));
        assert!(report.corrupt.is_none());

        // Markers ride the replication stream positionally: resuming past
        // epoch 2 replays the term-4 marker before the epoch-3 record.
        let replay = SignalWal::replay_from(&path, 2).unwrap();
        assert_eq!(replay.frames.len(), 2);
        let (entry, _) = next_frame(&replay.frames[0], 0).unwrap().unwrap();
        assert_eq!(entry.term(), Some(4));
    }

    #[test]
    fn delta_records_round_trip_with_epochs() {
        let (path, mut wal) = fresh_wal("records");
        wal.append_record(&record(1, 1.0, 2)).unwrap();
        wal.append_record(&record(2, -0.5, 3)).unwrap();
        drop(wal);
        let (_wal, recovery) = reopen(&path);
        assert_eq!(recovery.signals, vec![signal(1, 1.0), signal(2, -0.5)]);
        assert_eq!(recovery.last_epoch, 3);
        let report = SignalWal::verify(&path).unwrap();
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[0].epoch, Some(2));
        assert_eq!(report.records[0].delta_keys, 1);
        assert_eq!(report.records[1].epoch, Some(3));
        assert!(report.corrupt.is_none());
        assert_eq!(report.trailing_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let (path, mut wal) = fresh_wal("torn-tail");
        wal.append_record(&record(1, 1.0, 2)).unwrap();
        wal.append_record(&record(2, -1.0, 3)).unwrap();
        drop(wal);
        // Tear the final record in half, as a kill mid-append would.
        let bytes = std::fs::read(&path).unwrap();
        let torn_at = bytes.len() - 7;
        std::fs::write(&path, &bytes[..torn_at]).unwrap();

        let (mut wal, recovery) = reopen(&path);
        assert_eq!(recovery.signals, vec![signal(1, 1.0)]);
        assert!(recovery.torn_tail_bytes > 0);
        // The tail was truncated, so new appends land on a clean boundary.
        wal.append_record(&record(3, 0.5, 4)).unwrap();
        drop(wal);
        let (_wal, recovery) = reopen(&path);
        assert_eq!(recovery.signals, vec![signal(1, 1.0), signal(3, 0.5)]);
        assert_eq!(recovery.torn_tail_bytes, 0);
    }

    #[test]
    fn corrupt_crc_ends_the_replay() {
        let (path, mut wal) = fresh_wal("bad-crc");
        wal.append_record(&record(1, 1.0, 2)).unwrap();
        wal.append_record(&record(2, 1.0, 3)).unwrap();
        drop(wal);
        // Flip a bit in the second record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let report = SignalWal::verify(&path).unwrap();
        assert_eq!(report.records.len(), 1);
        assert!(matches!(
            report.corrupt,
            Some((_, StoreCorruption::ChecksumMismatch { .. }))
        ));
        let (_wal, recovery) = reopen(&path);
        assert_eq!(recovery.signals, vec![signal(1, 1.0)]);
        assert!(recovery.torn_tail_bytes > 0);
    }

    #[test]
    fn garbage_file_recovers_to_empty() {
        let (path, wal) = fresh_wal("garbage");
        drop(wal);
        std::fs::write(&path, b"not a wal at all, definitely long enough").unwrap();
        let report = SignalWal::verify(&path).unwrap();
        assert!(report.records.is_empty());
        assert!(matches!(
            report.corrupt,
            Some((0, StoreCorruption::BadMagic { .. }))
        ));
        let (mut wal, recovery) = reopen(&path);
        assert!(recovery.signals.is_empty());
        assert!(recovery.torn_tail_bytes > 0);
        wal.append_record(&record(4, 1.0, 2)).unwrap();
        drop(wal);
        let (_wal, recovery) = reopen(&path);
        assert_eq!(recovery.signals, vec![signal(4, 1.0)]);
    }

    /// Frames whose payload the log cannot read end every walk with
    /// `BadPayload` at their offset: a header declaring more than the
    /// record cap, and a record cut after its signal with a valid CRC — a
    /// payload that is neither a delta record nor a term marker.
    #[test]
    fn oversized_declared_length_is_rejected() {
        let (path, wal) = fresh_wal("oversized");
        drop(wal);
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&MAGIC);
        oversized.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        oversized.extend_from_slice(&0u32.to_le_bytes());
        oversized.extend_from_slice(b"xxxx");
        let whole = frame_record(&record(2, 1.0, 3)).unwrap();
        let bare_signal = wal_codec().encode(&whole[HEADER_LEN..HEADER_LEN + SIGNAL_LEN]);
        let good = frame_record(&record(1, 1.0, 2)).unwrap();
        for (prefix, bad) in [(Vec::new(), oversized), (good, bare_signal)] {
            std::fs::write(&path, [prefix.as_slice(), &bad].concat()).unwrap();
            let report = SignalWal::verify(&path).unwrap();
            assert!(matches!(
                report.corrupt,
                Some((offset, StoreCorruption::BadPayload(_))) if offset == prefix.len() as u64
            ));
            let (_wal, recovery) = reopen(&path);
            assert_eq!(recovery.signals.len(), usize::from(!prefix.is_empty()));
            assert_eq!(recovery.torn_tail_bytes, bad.len());
        }
    }

    /// The on-disk format, pinned byte for byte: changing either frame has
    /// to be deliberate, because every log already written holds these.
    #[test]
    fn record_and_term_frames_match_their_goldens() {
        const RECORD: &str = concat!(
            "4c5349474a000000b17a67a0",         // "LSIG", length 74, CRC32C
            "01010000000100000001000000",       // record tag, path 1|1|1
            "01000000000000f03f",               // general_purpose, γ 1.0
            "020000000000000001000000",         // epoch 2, one entry
            "01000000010000000100000000000000", // key 1|1|1
            "000000000000f03f",                 // λ[burstable] 1.0
            "00000000000000000000000000000000", // the other two λ 0.0
        );
        const TERM: &str = concat!(
            "4c53494709000000c6b72dac", // "LSIG", length 9, CRC32C
            "020700000000000000",       // term tag, leader term 7
        );
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(hex(&frame_record(&record(1, 1.0, 2)).unwrap()), RECORD);
        let (path, mut wal) = fresh_wal("goldens");
        wal.append_term(7).unwrap();
        drop(wal);
        assert_eq!(hex(&std::fs::read(&path).unwrap()), TERM);
    }

    #[test]
    fn frame_record_matches_append_bytes() {
        let (path, mut wal) = fresh_wal("frame-record");
        let r = record(1, 1.0, 2);
        wal.append_record(&r).unwrap();
        drop(wal);
        assert_eq!(frame_record(&r).unwrap(), std::fs::read(&path).unwrap());
    }

    #[test]
    fn replay_from_is_positional_and_detects_compaction() {
        let (path, mut wal) = fresh_wal("replay-from");
        wal.append_record(&record(1, 1.0, 2)).unwrap();
        wal.append_record(&record(2, 0.5, 3)).unwrap();
        wal.append_term(2).unwrap(); // a marker carries no epoch
        wal.append_record(&record(4, -0.5, 7)).unwrap(); // epoch jump
        drop(wal);

        // From 0: the whole log, not a resync.
        let replay = SignalWal::replay_from(&path, 0).unwrap();
        assert_eq!(replay.frames.len(), 4);
        assert!(!replay.full_resync);
        assert_eq!(replay.log_last_epoch, 7);

        // From epoch 3: the term marker and the epoch-7 record follow.
        let replay = SignalWal::replay_from(&path, 3).unwrap();
        assert_eq!(replay.frames.len(), 2);
        assert!(!replay.full_resync);

        // Fully caught up: nothing to send.
        let replay = SignalWal::replay_from(&path, 7).unwrap();
        assert!(replay.frames.is_empty());
        assert!(!replay.full_resync);

        // Epoch 5 was never written to this log: full resync.
        let replay = SignalWal::replay_from(&path, 5).unwrap();
        assert_eq!(replay.frames.len(), 4);
        assert!(replay.full_resync);

        // The replayed frames are byte-identical to the disk.
        let bytes = std::fs::read(&path).unwrap();
        let all: Vec<u8> = SignalWal::replay_from(&path, 0).unwrap().frames.concat();
        assert_eq!(all, bytes);

        // A missing log is empty, not an error.
        let replay = SignalWal::replay_from(path.with_extension("absent"), 0).unwrap();
        assert!(replay.frames.is_empty());
        assert_eq!(replay.log_last_epoch, 0);
    }

    #[test]
    fn replay_from_stops_at_a_torn_tail() {
        let (path, mut wal) = fresh_wal("replay-torn");
        wal.append_record(&record(1, 1.0, 2)).unwrap();
        wal.append_record(&record(2, 0.5, 3)).unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let replay = SignalWal::replay_from(&path, 0).unwrap();
        assert_eq!(replay.frames.len(), 1);
        assert_eq!(replay.log_last_epoch, 2);
    }

    #[test]
    fn poll_backoff_doubles_idle_and_resets() {
        let mut b = PollBackoff::new(Duration::from_millis(20), Duration::from_millis(200));
        assert_eq!(b.idle(), Duration::from_millis(20));
        assert_eq!(b.idle(), Duration::from_millis(40));
        assert_eq!(b.idle(), Duration::from_millis(80));
        assert_eq!(b.idle(), Duration::from_millis(160));
        assert_eq!(b.idle(), Duration::from_millis(200));
        assert_eq!(b.idle(), Duration::from_millis(200), "saturates at the cap");
        b.reset();
        assert_eq!(b.idle(), Duration::from_millis(20));
    }

    #[test]
    fn jittered_backoff_is_seeded_and_stays_within_bounds() {
        let (base, cap) = (Duration::from_millis(20), Duration::from_millis(200));
        let mut exact = PollBackoff::new(base, cap);
        let mut a = PollBackoff::with_jitter(base, cap, 0xC0FFEE);
        let mut b = PollBackoff::with_jitter(base, cap, 0xC0FFEE);
        for _ in 0..12 {
            let want = exact.idle();
            let got = a.idle();
            assert_eq!(got, b.idle(), "same seed ⇒ same schedule");
            assert!(got >= want / 2, "{got:?} below half of {want:?}");
            assert!(got <= want * 3 / 2, "{got:?} above 1.5× {want:?}");
        }
        a.reset();
        assert!(a.idle() <= base * 3 / 2, "reset returns to the base rung");
        // Distinct seeds decorrelate the schedules.
        let mut c = PollBackoff::with_jitter(base, cap, 1);
        let mut d = PollBackoff::with_jitter(base, cap, 2);
        assert!((0..12).any(|_| c.idle() != d.idle()));
    }

    #[test]
    fn missing_file_verify_is_an_io_error() {
        let log = TempLog::new("miss");
        assert!(matches!(
            SignalWal::verify(&log),
            Err(StoreError::Io { .. })
        ));
    }

    #[test]
    fn transient_append_faults_are_retried() {
        let io = FaultyIo::new(RealIo).fail(Op::Append, 1..=1, Fault::Transient);
        let (path, mut wal) = faulted_wal("retry", io);
        wal.append_record(&record(1, 1.0, 2)).unwrap();
        drop(wal);
        let (_wal, recovery) = reopen(&path);
        assert_eq!(recovery.signals, vec![signal(1, 1.0)]);
    }

    #[test]
    fn permanent_append_faults_surface() {
        let io = FaultyIo::new(RealIo).fail(Op::Append, 1.., Fault::Permanent);
        let (_path, mut wal) = faulted_wal("permanent", io);
        let err = wal.append_record(&record(1, 1.0, 2)).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
    }

    #[test]
    fn flipped_bit_appends_are_caught_on_replay() {
        let io = FaultyIo::new(RealIo).fail(Op::Append, 2..=2, Fault::FlipBit(100));
        let (path, mut wal) = faulted_wal("flip", io);
        wal.append_record(&record(1, 1.0, 2)).unwrap();
        wal.append_record(&record(2, 1.0, 3)).unwrap();
        drop(wal);
        let (_wal, recovery) = reopen(&path);
        assert_eq!(recovery.signals, vec![signal(1, 1.0)]);
        assert!(recovery.torn_tail_bytes > 0);
    }

    #[test]
    fn kill_mid_append_keeps_the_intact_prefix() {
        // A term marker and one signal commit whole; the second signal's
        // append dies half-written, as a process killed mid-append leaves
        // its log. The restart replays the intact prefix and truncates
        // exactly the torn half-frame.
        let (path, mut wal) = fresh_wal("kill-mid-append");
        wal.append_term(1).unwrap();
        wal.append_record(&record(8, 1.0, 2)).unwrap();
        drop(wal);
        // A killed writer never gets to cut its torn append back, so the
        // half-frame is planted on disk directly.
        let torn = frame_record(&record(8, 1.0, 3)).unwrap();
        OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&torn[..torn.len() / 2])
            .unwrap();
        let (_wal, recovery) = reopen(&path);
        assert_eq!(recovery.signals, vec![signal(8, 1.0)]);
        assert_eq!((recovery.last_epoch, recovery.last_term), (2, 1));
        assert_eq!(recovery.torn_tail_bytes, torn.len() / 2);
        let (_wal, again) = reopen(&path);
        assert_eq!(again.torn_tail_bytes, 0, "the tail was truncated");
    }

    #[test]
    fn a_faulted_log_leaves_a_clean_one_alone() {
        // Two logs in one process, appended from parallel threads: every
        // append to the faulted one tears, and the clean one must still
        // replay exactly what was appended to it.
        let io = FaultyIo::new(RealIo).fail(Op::Append, 1.., Fault::Tear(0.5));
        let (faulted_path, mut faulted) = faulted_wal("parallel-faulted", io);
        let (clean_path, mut clean) = fresh_wal("parallel-clean");
        let records: Vec<WalRecord> = (0..64).map(|i| record(i, 1.0, u64::from(i) + 2)).collect();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for r in &records {
                    assert!(faulted.append_record(r).is_err());
                }
            });
            scope.spawn(|| {
                for r in &records {
                    clean.append_record(r).unwrap();
                }
            });
        });
        drop((faulted, clean));
        let (_wal, recovery) = reopen(&clean_path);
        let signals: Vec<_> = records.iter().map(|r| r.signal).collect();
        assert_eq!(recovery.signals, signals);
        assert_eq!(recovery.last_epoch, 65);
        assert_eq!(recovery.torn_tail_bytes, 0);
        // Every torn append was cut back, so the faulted log is empty.
        let (_wal, torn) = reopen(&faulted_path);
        assert!(torn.signals.is_empty());
        assert_eq!(torn.torn_tail_bytes, 0);
    }

    #[test]
    fn a_torn_append_is_cut_back_before_the_next_one() {
        let io = FaultyIo::new(RealIo).fail(Op::Append, 1..=1, Fault::Tear(0.5));
        let (path, mut wal) = faulted_wal("torn-then-clean", io);
        let records: Vec<WalRecord> = (0..64).map(|i| record(i, 1.0, u64::from(i) + 2)).collect();
        assert!(wal.append_record(&records[0]).is_err());
        for r in &records[1..] {
            wal.append_record(r).unwrap();
        }
        drop(wal);
        let (_wal, recovery) = reopen(&path);
        let signals: Vec<_> = records[1..].iter().map(|r| r.signal).collect();
        assert_eq!(recovery.signals, signals);
        assert_eq!(recovery.torn_tail_bytes, 0);
    }
}
