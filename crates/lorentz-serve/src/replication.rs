//! λ-WAL replication over TCP: leader fanout, resume handshake, sources.
//!
//! The leader side ([`serve_replication`]) accepts follower connections on
//! a dedicated listener, performs the one-frame-each subscribe handshake
//! (see [`lorentz_types::SubscribeRequest`] for the wire shapes and the
//! epoch-gap semantics), replays the on-disk WAL from the follower's
//! resume epoch, and then streams every newly published record live. Each
//! follower gets its **own outbox thread** fed through a bounded channel
//! from the [`ReplicationHub`], so one slow or wedged standby can never
//! stall the λ-writer or the other followers — a subscriber whose outbox
//! fills is dropped (it reconnects and resumes from its own epoch, which
//! is exactly what the handshake is for).
//!
//! The frames on the socket are **byte-identical to the leader's on-disk
//! WAL frames** (CRC32C-framed by
//! [`wal_codec`](lorentz_core::personalizer::wal_codec)): the follower can
//! append them verbatim to a local log and later restart from it, and torn
//! sends are caught by the same checksum that catches torn disk writes.
//!
//! Every subscribe carries the follower's highest **observed leader term**
//! and every ack carries the leader's own term. A leader contacted with a
//! strictly higher term has provably been superseded: it answers with a
//! typed `stale_leader` rejection and fences itself (feedback intake stops
//! with [`ServeError::Fenced`](crate::ServeError); new subscriptions are
//! refused), which is what keeps a healed split-brain from forking the
//! WAL lineage. Terms travel *in-band* as WAL term-marker frames, so the
//! replica-WAL-is-a-byte-prefix property is preserved.
//!
//! The follower side is abstracted behind [`ReplicationSource`] — "where
//! do replicated WAL entries come from". [`TcpSource`] subscribes to a
//! leader's replication listener over a socket (a standby on the leader's
//! machine dials loopback); tests inject their own sources through the
//! same seam. The [`FollowerEngine`](crate::FollowerEngine) drives every
//! source through one apply path. A frame torn mid-send (a leader dying,
//! or a link cut, mid-frame) fails the follower's CRC check like a torn
//! disk write: the follower drops the connection, resubscribes, and
//! resumes from its last good epoch.

use crate::engine::ServingEngine;
use crate::net::wake_addr;
use crate::wire::{self, WireError};
use lorentz_core::obs;
use lorentz_core::personalizer::{PollBackoff, SignalWal, WalEntry};
use lorentz_types::{
    HandshakeRejection, ResumeMode, StoreCorruption, SubscribeAck, SubscribeReply, SubscribeRequest,
};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use thiserror::Error;

/// Why a replication subscription could not be established.
#[derive(Debug, Error)]
pub enum ReplicationError {
    /// The leader answered the handshake with a typed refusal (e.g.
    /// `follower_ahead`). Retrying without operator intervention is wrong.
    #[error("replication subscription rejected: {0}")]
    Rejected(HandshakeRejection),
    /// Connecting, framing, or parsing failed at the transport level.
    #[error("replication transport failed: {0}")]
    Transport(String),
}

/// Tuning for the leader's replication listener.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationConfig {
    /// How long a connected follower may take to send its subscribe frame
    /// before the connection is dropped.
    pub handshake_timeout: Duration,
    /// Bounded per-follower outbox depth (in records). A follower that
    /// falls this many live records behind is disconnected rather than
    /// allowed to backpressure the leader; it reconnects and resumes.
    pub outbox_capacity: usize,
    /// Largest accepted subscribe frame.
    pub max_handshake_frame: usize,
}

impl Default for ReplicationConfig {
    /// 5 s handshake timeout, 1024-record outboxes.
    fn default() -> Self {
        Self {
            handshake_timeout: Duration::from_secs(5),
            outbox_capacity: 1024,
            max_handshake_frame: wire::MAX_FRAME_LEN_DEFAULT,
        }
    }
}

/// One subscribed follower's leader-side state.
struct Subscriber {
    id: u64,
    tx: SyncSender<(u64, Arc<Vec<u8>>)>,
    /// Highest epoch this follower's outbox thread has put on the wire,
    /// for the max-lag gauge.
    last_sent: Arc<AtomicU64>,
}

/// A subscription as seen by its outbox thread.
pub(crate) struct SubscriberHandle {
    pub(crate) id: u64,
    pub(crate) rx: Receiver<(u64, Arc<Vec<u8>>)>,
    pub(crate) last_sent: Arc<AtomicU64>,
}

/// The leader's fanout point: the λ-writer broadcasts each framed WAL
/// record here; per-follower outbox threads drain their bounded channels
/// onto their sockets. `broadcast` never blocks — a full outbox drops its
/// follower (see [`ReplicationConfig::outbox_capacity`]).
pub struct ReplicationHub {
    subs: Mutex<Vec<Subscriber>>,
    next_id: AtomicU64,
    /// Highest epoch ever appended/broadcast — the leader's position for
    /// handshake purposes, seeded from WAL recovery at engine start.
    last_epoch: AtomicU64,
    /// The leader term this hub fans out under, minted/resumed at engine
    /// start and stamped into every handshake ack.
    term: AtomicU64,
    /// 0 while this leader is live; once a subscriber presents a strictly
    /// higher term, the higher term is recorded here and the leader is
    /// fenced — feedback intake stops and new subscriptions are refused.
    fenced_by: AtomicU64,
}

impl ReplicationHub {
    /// An empty hub at epoch 0, term 0, unfenced.
    pub(crate) fn new() -> Self {
        Self {
            subs: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            last_epoch: AtomicU64::new(0),
            term: AtomicU64::new(0),
            fenced_by: AtomicU64::new(0),
        }
    }

    /// Adopts the recovered on-disk epoch as the leader position.
    pub(crate) fn set_last_epoch(&self, epoch: u64) {
        self.last_epoch.store(epoch, Ordering::Release);
    }

    /// The leader's current replication epoch.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch.load(Ordering::Acquire)
    }

    /// Installs the leader term: at engine start and promotion, and as a
    /// standby sees its leader's terms.
    pub(crate) fn set_term(&self, term: u64) {
        self.term.store(term, Ordering::Release);
    }

    /// The term this leader fans out under.
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::Acquire)
    }

    /// Fences this leader against `observed`, a strictly higher term seen
    /// on the wire. Idempotent; keeps the highest term observed so far.
    pub(crate) fn fence(&self, observed: u64) {
        self.fenced_by.fetch_max(observed, Ordering::AcqRel);
    }

    /// The higher term that fenced this leader, if any.
    pub fn fenced_by(&self) -> Option<u64> {
        match self.fenced_by.load(Ordering::Acquire) {
            0 => None,
            observed => Some(observed),
        }
    }

    /// Currently subscribed followers.
    pub fn subscriber_count(&self) -> usize {
        self.subs.lock().expect("replication hub poisoned").len()
    }

    /// Registers a follower outbox. Called by the connection handler
    /// *before* it reads the on-disk replay, so no record broadcast during
    /// the file read can be missed (duplicates are deduped by epoch).
    pub(crate) fn subscribe(&self, capacity: usize) -> SubscriberHandle {
        let (tx, rx) = sync_channel(capacity.max(1));
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let last_sent = Arc::new(AtomicU64::new(0));
        let mut subs = self.subs.lock().expect("replication hub poisoned");
        subs.push(Subscriber {
            id,
            tx,
            last_sent: Arc::clone(&last_sent),
        });
        self.update_gauges(&subs);
        SubscriberHandle { id, rx, last_sent }
    }

    /// Removes a follower (disconnect or shutdown).
    pub(crate) fn unsubscribe(&self, id: u64) {
        let mut subs = self.subs.lock().expect("replication hub poisoned");
        subs.retain(|s| s.id != id);
        self.update_gauges(&subs);
    }

    /// Fans one framed record out to every outbox. Non-blocking by
    /// construction: `try_send` either queues or evicts the subscriber
    /// (its outbox thread sees the closed channel and tears down the
    /// connection; the follower reconnects and resumes from its epoch).
    pub(crate) fn broadcast(&self, epoch: u64, frame: Vec<u8>) {
        self.last_epoch.store(epoch, Ordering::Release);
        let frame = Arc::new(frame);
        let mut subs = self.subs.lock().expect("replication hub poisoned");
        if subs.is_empty() {
            return;
        }
        subs.retain(|s| match s.tx.try_send((epoch, Arc::clone(&frame))) {
            Ok(()) => true,
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => false,
        });
        self.update_gauges(&subs);
    }

    /// Refreshes the follower-count and max-lag gauges (caller holds the
    /// subscriber lock).
    fn update_gauges(&self, subs: &[Subscriber]) {
        obs::ENGINE_REPLICATION_FOLLOWERS.set(subs.len() as i64);
        let leader = self.last_epoch.load(Ordering::Acquire);
        let max_lag = subs
            .iter()
            .map(|s| leader.saturating_sub(s.last_sent.load(Ordering::Acquire)))
            .max()
            .unwrap_or(0);
        obs::ENGINE_REPLICATION_MAX_FOLLOWER_LAG.set(max_lag as i64);
    }
}

/// A running replication listener, returned by [`serve_replication`].
/// Dropping it (or calling [`ReplicationListener::shutdown`]) stops the
/// acceptor, disconnects every follower, and joins all threads.
pub struct ReplicationListener {
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl ReplicationListener {
    /// The bound address (useful with port 0 in tests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, disconnects followers, joins threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.acceptor.take() {
            // The acceptor blocks in `accept`: one connection wakes it to
            // see the flag.
            let _ = TcpStream::connect(wake_addr(self.local_addr));
            let _ = handle.join();
        }
    }
}

impl Drop for ReplicationListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the leader-side replication listener over an already-bound
/// socket: accepted followers handshake, replay from their resume epoch
/// out of the engine's on-disk WAL, then live-tail the hub. Returns
/// immediately; the acceptor and per-follower outboxes run on background
/// threads owned by the returned handle.
///
/// # Errors
/// `InvalidInput` when the engine has no WAL (nothing durable to replay —
/// a replication leader must be started with
/// [`ServingEngine::start_with_wal`]); otherwise listener-level I/O
/// errors.
pub fn serve_replication(
    engine: &ServingEngine,
    listener: TcpListener,
    config: ReplicationConfig,
) -> io::Result<ReplicationListener> {
    let Some(wal_path) = engine.wal_path() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "replication requires a WAL-backed engine (start_with_wal)",
        ));
    };
    let hub = engine.replication_hub();
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("lorentz-repl-accept".to_string())
            .spawn(move || accept_loop(&hub, wal_path, listener, config, &stop))?
    };
    Ok(ReplicationListener {
        stop,
        acceptor: Some(acceptor),
        local_addr,
    })
}

/// The acceptor body: accept connections until stopped, spawning one
/// handler (outbox) thread per follower; joins every handler on the way
/// out so shutdown leaves no thread behind. The connection that wakes it
/// for a shutdown is dropped unserved.
fn accept_loop(
    hub: &Arc<ReplicationHub>,
    wal_path: PathBuf,
    listener: TcpListener,
    config: ReplicationConfig,
    stop: &Arc<AtomicBool>,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok(_) if stop.load(Ordering::Acquire) => break,
            Ok((stream, _peer)) => {
                let hub = Arc::clone(hub);
                let wal_path = wal_path.clone();
                let stop = Arc::clone(stop);
                let spawned = std::thread::Builder::new()
                    .name("lorentz-repl-out".to_string())
                    .spawn(move || handle_follower(&hub, &wal_path, stream, config, &stop));
                match spawned {
                    Ok(handle) => handlers.push(handle),
                    Err(_) => {
                        // Refused thread: drop the connection; the
                        // follower retries.
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// One follower connection, handshake to hangup:
///
/// 1. read the subscribe frame (bounded by the handshake timeout);
/// 2. reject a follower ahead of this leader with a typed error;
/// 3. **subscribe to the hub first**, then read the on-disk replay — any
///    record broadcast during the file read is queued, and the epoch
///    dedup below drops the copies the file already covered (sound
///    because the single λ-writer appends in mint order: a record in the
///    queue with `epoch <= log_last_epoch` is on disk);
/// 4. ack (resume or full-resync), send the replay frames, then live-tail
///    the outbox until disconnect, eviction, or shutdown.
fn handle_follower(
    hub: &Arc<ReplicationHub>,
    wal_path: &PathBuf,
    mut stream: TcpStream,
    config: ReplicationConfig,
    stop: &Arc<AtomicBool>,
) {
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(config.handshake_timeout))
        .is_err()
    {
        return;
    }
    let request = match read_subscribe(&mut stream, config.max_handshake_frame) {
        Ok(request) => request,
        Err(Some(reject)) => {
            let _ = write_reply(&mut stream, &SubscribeReply::Err(reject));
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        Err(None) => {
            // Mid-handshake disconnect or timeout: nothing to answer.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    // Term fencing, checked before anything epoch-shaped. A subscriber
    // carrying a strictly higher term proves a newer leader was elected:
    // this leader fences itself (feedback intake stops; see
    // `ServingEngine::submit_feedback`) and the subscriber is told who it
    // just demoted so it can go find the real leader. An already-fenced
    // leader refuses everyone — streaming a stale lineage would only
    // spread it.
    let leader_term = hub.term();
    if request.term > leader_term {
        hub.fence(request.term);
        let _ = write_reply(
            &mut stream,
            &SubscribeReply::Err(HandshakeRejection::StaleLeader {
                leader_term,
                observed_term: request.term,
            }),
        );
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    if let Some(observed) = hub.fenced_by() {
        let _ = write_reply(
            &mut stream,
            &SubscribeReply::Err(HandshakeRejection::StaleLeader {
                leader_term,
                observed_term: observed,
            }),
        );
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    if request.last_epoch > hub.last_epoch() {
        let _ = write_reply(
            &mut stream,
            &SubscribeReply::Err(HandshakeRejection::FollowerAhead {
                follower: request.last_epoch,
                leader: hub.last_epoch(),
            }),
        );
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    let sub = hub.subscribe(config.outbox_capacity);
    let replay = match SignalWal::replay_from(wal_path, request.last_epoch) {
        Ok(replay) => replay,
        Err(_) => {
            // The log vanished or broke under us; the follower retries.
            hub.unsubscribe(sub.id);
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let mode = if replay.full_resync {
        obs::ENGINE_REPLICATION_FULL_RESYNCS.inc();
        ResumeMode::FullResync
    } else {
        if request.last_epoch > 0 {
            obs::ENGINE_REPLICATION_RESUME_REPLAYS.inc();
        }
        ResumeMode::Resume
    };
    let ack = SubscribeAck {
        mode,
        from_epoch: if replay.full_resync {
            0
        } else {
            request.last_epoch
        },
        leader_epoch: hub.last_epoch().max(replay.log_last_epoch),
        leader_term,
    };
    if write_reply(&mut stream, &SubscribeReply::Ok(ack)).is_err() {
        hub.unsubscribe(sub.id);
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    // Dedup floor: live frames at or below the replayed log position are
    // already on the wire via the file replay.
    let floor = replay.log_last_epoch;
    let mut ok = true;
    for frame in &replay.frames {
        if stream.write_all(frame).is_err() {
            ok = false;
            break;
        }
        obs::ENGINE_REPLICATION_BYTES_SENT.add(frame.len() as u64);
    }
    sub.last_sent
        .store(floor.max(request.last_epoch), Ordering::Release);
    while ok && !stop.load(Ordering::Acquire) {
        match sub.rx.recv_timeout(Duration::from_millis(50)) {
            Ok((epoch, frame)) => {
                if epoch <= floor {
                    continue;
                }
                if stream.write_all(&frame).is_err() {
                    break;
                }
                obs::ENGINE_REPLICATION_BYTES_SENT.add(frame.len() as u64);
                sub.last_sent.store(epoch, Ordering::Release);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    hub.unsubscribe(sub.id);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads and parses the follower's subscribe frame. `Err(Some(_))` is a
/// malformed frame worth answering with a typed rejection; `Err(None)` is
/// a transport-level failure (timeout, disconnect) with nobody to answer.
fn read_subscribe(
    stream: &mut TcpStream,
    max_frame: usize,
) -> Result<SubscribeRequest, Option<HandshakeRejection>> {
    let payload = match wire::read_frame(stream, max_frame) {
        Ok(payload) => payload,
        Err(WireError::TooLarge { len, max }) => {
            return Err(Some(HandshakeRejection::Malformed(format!(
                "subscribe frame of {len} bytes exceeds the {max}-byte cap"
            ))));
        }
        Err(_) => return Err(None),
    };
    let text = std::str::from_utf8(&payload).map_err(|_| {
        Some(HandshakeRejection::Malformed(
            "frame is not UTF-8".to_owned(),
        ))
    })?;
    serde_json::from_str::<SubscribeRequest>(text)
        .map_err(|e| Some(HandshakeRejection::Malformed(e.to_string())))
}

/// Writes one handshake reply frame.
fn write_reply(stream: &mut TcpStream, reply: &SubscribeReply) -> io::Result<()> {
    let payload =
        serde_json::to_string(reply).expect("handshake replies contain no unserializable variants");
    wire::write_frame(stream, payload.as_bytes())
}

// ---------------------------------------------------------------------------
// Follower-side sources
// ---------------------------------------------------------------------------

/// One replicated WAL entry plus, when the transport carries them, the raw
/// on-wire frame bytes (so the follower can persist them to a local WAL
/// verbatim).
#[derive(Debug)]
pub struct SourcedEntry {
    /// The decoded WAL entry.
    pub entry: WalEntry,
    /// The exact frame bytes as the leader wrote them; `None` when the
    /// entry was read back from the follower's own local WAL.
    pub raw: Option<Vec<u8>>,
}

/// What one poll of a [`ReplicationSource`] produced.
#[derive(Debug)]
pub enum SourcePoll {
    /// New complete entries, in stream order.
    Entries(Vec<SourcedEntry>),
    /// Nothing new; sleep and poll again.
    Idle,
    /// The leader granted a full resync: the follower must discard its
    /// λ-state (and truncate its local WAL) before applying what follows.
    Reset,
    /// The connection to the leader is gone (clean close, timeout, torn
    /// stream). The source will retry on the next poll; the follower
    /// counts consecutive losses toward its promotion timeout.
    LeaderLost(String),
    /// The leader refused the subscription with a typed error; retrying
    /// is pointless without operator intervention.
    Rejected(HandshakeRejection),
}

/// Where replicated WAL entries come from. Implementations are polled by
/// the follower's tail loop; each poll returns complete entries only (a
/// partial frame stays buffered inside the source).
pub trait ReplicationSource: Send {
    /// Pulls whatever the transport has ready.
    fn poll(&mut self) -> SourcePoll;
    /// Human-readable endpoint, for logs and errors.
    fn describe(&self) -> String;
    /// The highest leader term this source has observed (handshake acks
    /// and streamed term markers); a promoting follower mints strictly
    /// above this. 0 for sources that track no terms.
    fn observed_term(&self) -> u64 {
        0
    }
}

/// An established leader connection and its decode buffer.
struct TcpConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Seeds a source's redial jitter from its endpoint and process (FNV-1a
/// over the address, xor'd with the pid), so followers of one leader never
/// share a backoff schedule and redials don't stampede in lockstep.
fn redial_seed(addr: &str) -> u64 {
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in addr.bytes() {
        seed = (seed ^ u64::from(b)).wrapping_mul(0x1_0000_01b3);
    }
    seed ^ (u64::from(std::process::id()) << 32)
}

/// The socket transport: subscribe to a leader's replication listener,
/// decode the streamed WAL frames with the on-disk codec, reconnect with
/// a resume handshake after any loss.
pub struct TcpSource {
    addr: String,
    /// Highest epoch delivered to the follower — the resume position for
    /// the next (re)connect.
    resume_epoch: u64,
    /// Highest leader term observed (from handshake acks and streamed term
    /// markers); sent with every subscribe so a stale leader fences itself.
    observed_term: Arc<AtomicU64>,
    /// Set when a (re)handshake was granted full-resync; surfaced as
    /// [`SourcePoll::Reset`] on the next poll so the caller resets its
    /// λ-state before any streamed entry is applied.
    pending_reset: bool,
    conn: Option<TcpConn>,
    handshake_timeout: Duration,
    /// Per-poll read budget while connected; WouldBlock/TimedOut means
    /// "idle", not "lost".
    read_timeout: Duration,
    last_ack: Option<SubscribeAck>,
    /// Jittered exponential backoff between redial attempts, so a fleet of
    /// followers does not stampede a recovering leader in lockstep.
    redial_backoff: PollBackoff,
    /// Earliest instant the next redial may happen; polls before it report
    /// [`SourcePoll::LeaderLost`] without touching the network (the loss
    /// must stay visible so the follower's promotion clock keeps running).
    next_redial: Option<Instant>,
}

/// How `TcpSource::establish` failed.
enum EstablishError {
    Rejected(HandshakeRejection),
    Transport(String),
}

impl TcpSource {
    /// Connects and subscribes eagerly, resuming from `last_epoch`, so
    /// misconfiguration (wrong address, stale leader, follower ahead)
    /// surfaces as a typed error instead of a silent retry loop.
    ///
    /// # Errors
    /// [`ReplicationError::Rejected`] for a typed handshake refusal,
    /// [`ReplicationError::Transport`] for connect/frame failures.
    pub fn connect(addr: impl Into<String>, last_epoch: u64) -> Result<Self, ReplicationError> {
        Self::connect_with_term(addr, last_epoch, 0)
    }

    /// [`TcpSource::connect`] with a pre-observed leader term. The term is
    /// declared in the subscribe handshake, so connecting to a leader at a
    /// *lower* term fences that leader and fails here with a typed
    /// [`HandshakeRejection::StaleLeader`] — which is exactly how a healed
    /// partition's zombie leader learns it has been superseded.
    ///
    /// # Errors
    /// As [`TcpSource::connect`].
    pub fn connect_with_term(
        addr: impl Into<String>,
        last_epoch: u64,
        observed_term: u64,
    ) -> Result<Self, ReplicationError> {
        let addr = addr.into();
        let seed = redial_seed(&addr);
        let mut source = Self {
            addr,
            resume_epoch: last_epoch,
            observed_term: Arc::new(AtomicU64::new(observed_term)),
            pending_reset: false,
            conn: None,
            handshake_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_millis(5),
            last_ack: None,
            redial_backoff: PollBackoff::with_jitter(
                Duration::from_millis(10),
                Duration::from_millis(200),
                seed,
            ),
            next_redial: None,
        };
        match source.establish() {
            Ok(()) => Ok(source),
            Err(EstablishError::Rejected(r)) => Err(ReplicationError::Rejected(r)),
            Err(EstablishError::Transport(msg)) => Err(ReplicationError::Transport(msg)),
        }
    }

    /// The handshake ack from the most recent successful subscription.
    pub fn last_ack(&self) -> Option<SubscribeAck> {
        self.last_ack
    }

    /// Dials the leader and runs the subscribe handshake. On success the
    /// connection is installed with the steady-state read timeout; a
    /// granted full resync sets `pending_reset` so the next poll surfaces
    /// it before any streamed entry.
    fn establish(&mut self) -> Result<(), EstablishError> {
        let io_err = |e: &dyn std::fmt::Display| EstablishError::Transport(e.to_string());
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| io_err(&e))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(self.handshake_timeout))
            .map_err(|e| io_err(&e))?;
        let observed = self.observed_term.load(Ordering::Acquire);
        let request = SubscribeRequest {
            last_epoch: self.resume_epoch,
            term: observed,
        };
        let payload = serde_json::to_string(&request)
            .expect("subscribe requests contain no unserializable variants");
        wire::write_frame(&mut stream, payload.as_bytes()).map_err(|e| io_err(&e))?;
        let reply =
            wire::read_frame(&mut stream, wire::MAX_FRAME_LEN_DEFAULT).map_err(|e| io_err(&e))?;
        let text = std::str::from_utf8(&reply)
            .map_err(|_| EstablishError::Transport("handshake reply is not UTF-8".to_owned()))?;
        let reply: SubscribeReply = serde_json::from_str(text)
            .map_err(|e| EstablishError::Transport(format!("bad handshake reply: {e}")))?;
        match reply {
            SubscribeReply::Ok(ack) => {
                // Belt-and-suspenders for a leader that acks without
                // having checked our term: a stream from a term below what
                // this follower has already seen is a stale lineage and
                // must not be applied.
                if ack.leader_term < observed {
                    return Err(EstablishError::Rejected(HandshakeRejection::StaleLeader {
                        leader_term: ack.leader_term,
                        observed_term: observed,
                    }));
                }
                self.observed_term
                    .fetch_max(ack.leader_term, Ordering::AcqRel);
                stream
                    .set_read_timeout(Some(self.read_timeout))
                    .map_err(|e| io_err(&e))?;
                self.last_ack = Some(ack);
                self.conn = Some(TcpConn {
                    stream,
                    buf: Vec::new(),
                });
                if ack.mode == ResumeMode::FullResync {
                    self.pending_reset = true;
                    self.resume_epoch = 0;
                }
                Ok(())
            }
            SubscribeReply::Err(rejection) => Err(EstablishError::Rejected(rejection)),
        }
    }

    /// Decodes every complete frame buffered so far, recording the raw
    /// bytes of each. Returns `Err` with a reason when the stream bytes
    /// are structurally corrupt (the connection must be dropped).
    fn drain_buffer(conn: &mut TcpConn) -> Result<Vec<SourcedEntry>, String> {
        let mut entries = Vec::new();
        let mut consumed = 0usize;
        loop {
            match lorentz_core::personalizer::wal::next_frame(&conn.buf, consumed) {
                None => break,
                Some(Ok((entry, end))) => {
                    entries.push(SourcedEntry {
                        entry,
                        raw: Some(conn.buf[consumed..end].to_vec()),
                    });
                    consumed = end;
                }
                // An incomplete frame at the buffer's end is "wait for
                // more bytes" on a stream, not corruption.
                Some(Err(
                    StoreCorruption::HeaderTruncated { .. } | StoreCorruption::Truncated { .. },
                )) => break,
                Some(Err(corruption)) => return Err(format!("corrupt stream: {corruption}")),
            }
        }
        conn.buf.drain(..consumed);
        Ok(entries)
    }
}

impl ReplicationSource for TcpSource {
    fn poll(&mut self) -> SourcePoll {
        if self.conn.is_none() {
            // Honor the redial backoff. The answer while waiting is
            // LeaderLost, never Idle: Idle would reset the follower's
            // promotion clock, and a leader we're backing off from is
            // still a lost leader.
            if let Some(at) = self.next_redial {
                if Instant::now() < at {
                    return SourcePoll::LeaderLost("redial backoff in progress".to_owned());
                }
            }
            match self.establish() {
                Ok(()) => {
                    self.redial_backoff.reset();
                    self.next_redial = None;
                }
                Err(EstablishError::Rejected(r)) => return SourcePoll::Rejected(r),
                Err(EstablishError::Transport(msg)) => {
                    self.next_redial = Some(Instant::now() + self.redial_backoff.idle());
                    return SourcePoll::LeaderLost(msg);
                }
            }
        }
        if self.pending_reset {
            self.pending_reset = false;
            return SourcePoll::Reset;
        }
        let conn = self.conn.as_mut().expect("connection installed above");
        let mut lost: Option<String> = None;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    lost = Some("leader closed the stream".to_owned());
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    lost = Some(e.to_string());
                    break;
                }
            }
        }
        let entries = match Self::drain_buffer(conn) {
            Ok(entries) => entries,
            Err(reason) => {
                self.conn = None;
                return SourcePoll::LeaderLost(reason);
            }
        };
        for sourced in &entries {
            if let Some(epoch) = sourced.entry.epoch() {
                self.resume_epoch = self.resume_epoch.max(epoch);
            }
            if let Some(term) = sourced.entry.term() {
                self.observed_term.fetch_max(term, Ordering::AcqRel);
            }
        }
        if !entries.is_empty() {
            // Deliver what arrived; a pending disconnect is rediscovered
            // on the next poll, after these entries are applied.
            return SourcePoll::Entries(entries);
        }
        if let Some(reason) = lost {
            self.conn = None;
            return SourcePoll::LeaderLost(reason);
        }
        SourcePoll::Idle
    }

    fn describe(&self) -> String {
        format!("tcp://{}", self.addr)
    }

    fn observed_term(&self) -> u64 {
        self.observed_term.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_broadcast_drops_full_outboxes_instead_of_blocking() {
        let hub = ReplicationHub::new();
        let healthy = hub.subscribe(8);
        let slow = hub.subscribe(1);
        assert_eq!(hub.subscriber_count(), 2);
        hub.broadcast(1, vec![1]);
        hub.broadcast(2, vec![2]);
        // The slow subscriber's single-slot outbox was full at epoch 2:
        // it is evicted, the healthy one keeps receiving.
        assert_eq!(hub.subscriber_count(), 1);
        assert_eq!(healthy.rx.try_recv().unwrap().0, 1);
        assert_eq!(healthy.rx.try_recv().unwrap().0, 2);
        let _ = slow.rx.try_recv(); // epoch 1 was queued before eviction
        assert!(
            slow.rx.try_recv().is_err(),
            "evicted outbox is disconnected"
        );
        hub.unsubscribe(healthy.id);
        assert_eq!(hub.subscriber_count(), 0);
    }

    #[test]
    fn hub_tracks_leader_epoch() {
        let hub = ReplicationHub::new();
        assert_eq!(hub.last_epoch(), 0);
        hub.set_last_epoch(7);
        assert_eq!(hub.last_epoch(), 7);
        hub.broadcast(9, vec![0]);
        assert_eq!(hub.last_epoch(), 9);
    }
}
