//! The TCP front end: persistent connections feeding the bounded-queue
//! engine.
//!
//! One acceptor owns the listening socket. Each accepted connection gets
//! a **reader** thread (decodes length-prefixed frames, parses them, and
//! submits requests/feedback to the [`ServingEngine`]) and a **writer**
//! thread (drains a per-connection outbox channel onto the socket, so a
//! slow client never blocks a worker). A single **dispatcher** thread
//! consumes the engine's response channel and routes each answer back to
//! the connection that submitted it: the server rewrites every request id
//! to a process-unique routing id at admission and restores the client's
//! id on the way out, so ids need not be unique across connections.
//!
//! Graceful drain: a `{"op": "drain"}` frame (from any connection) stops
//! the acceptor, half-closes every connection's read side (unblocking the
//! readers), drains the engine — every accepted request still gets its
//! response, flushed to whichever connection submitted it — then closes
//! write sides. The final [`NetReport`] carries the engine's exact ledger
//! plus the per-connection accounting, mirrored into the `engine.net.*`
//! obs metrics.
//!
//! Failure semantics per connection:
//! * clean close / half-open peer → the reader exits, in-flight responses
//!   for that connection are dropped (counted, never blocking the pool);
//! * mid-frame disconnect → counted as a disconnect, same cleanup;
//! * oversized frame → typed `frame_too_large` error frame, then the
//!   connection closes (the payload was never read, so the stream cannot
//!   be resynchronized);
//! * garbage payload → typed `malformed` error frame, connection stays
//!   open (the frame boundary is intact).

use crate::engine::ServingEngine;
use crate::types::{EngineStats, ServeResponse};
use crate::wire::{self, ClientFrame, WireError};
use lorentz_core::{obs, TrainedLorentz};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for the TCP front end.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Largest accepted frame payload; larger declared lengths are
    /// rejected with a typed error before buffering.
    pub max_frame_len: usize,
    /// How often the (non-blocking) acceptor polls for new connections
    /// and for the stop flag.
    pub accept_poll: Duration,
}

impl Default for NetConfig {
    /// 1 MiB frames, 5 ms accept poll.
    fn default() -> Self {
        Self {
            max_frame_len: wire::MAX_FRAME_LEN_DEFAULT,
            accept_poll: Duration::from_millis(5),
        }
    }
}

/// What the front end did over its lifetime, returned by [`serve_net`]
/// after the drain completes.
#[derive(Debug, Clone, Copy)]
pub struct NetReport {
    /// The engine's exact post-drain ledger
    /// (`submitted = accepted + rejected`, `accepted = answered`).
    pub engine: EngineStats,
    /// Prediction-store version at drain time.
    pub store_version: u64,
    /// λ-state version (last globally minted epoch) at drain time.
    pub lambda_version: u64,
    /// The leader term the engine served under.
    pub leader_term: u64,
    /// The higher term that fenced this leader, if one was observed
    /// (`None` = the engine was never superseded).
    pub fenced_by: Option<u64>,
    /// Connections accepted.
    pub connections: u64,
    /// Request frames decoded off sockets.
    pub frames_in: u64,
    /// Frames written back (responses, acks, error frames).
    pub frames_out: u64,
    /// Frames rejected before reaching the engine.
    pub frame_errors: u64,
    /// Connections that ended in an I/O error instead of a clean close.
    pub disconnects: u64,
    /// Responses whose connection was gone when the engine answered.
    pub dropped_responses: u64,
}

/// Local accounting, mirrored into the global `engine.net.*` metrics (the
/// report uses these so concurrent servers in one process — e.g. tests —
/// stay independent).
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    frame_errors: AtomicU64,
    disconnects: AtomicU64,
    dropped_responses: AtomicU64,
}

/// One connection's server-side handle: the outbox the dispatcher and the
/// reader enqueue frames into, and a stream clone for half-close.
struct ConnHandle {
    outbox: Sender<Vec<u8>>,
    stream: TcpStream,
}

/// State shared by the acceptor, readers, writers, and dispatcher.
struct Ctx {
    deployment: Arc<TrainedLorentz>,
    /// Set by a drain frame; the acceptor polls it, readers check it to
    /// decide whether their connection outlives them (drain keeps write
    /// sides open for in-flight responses).
    stop: AtomicBool,
    /// Process-unique routing ids for in-flight requests.
    next_routing_id: AtomicU64,
    /// routing id → (connection id, client's correlation id).
    pending: Mutex<HashMap<u64, (u64, u64)>>,
    conns: Mutex<HashMap<u64, ConnHandle>>,
    counters: Counters,
    max_frame_len: usize,
}

impl Ctx {
    /// Enqueues a frame on a connection's outbox; a vanished connection
    /// counts the frame as dropped.
    fn send_to(&self, conn_id: u64, payload: Vec<u8>) -> bool {
        let delivered = self
            .conns
            .lock()
            .expect("net conns poisoned")
            .get(&conn_id)
            .is_some_and(|conn| conn.outbox.send(payload).is_ok());
        if !delivered {
            self.counters
                .dropped_responses
                .fetch_add(1, Ordering::Relaxed);
            obs::NET_DROPPED_RESPONSES.inc();
        }
        delivered
    }

    /// Removes a connection: drops its outbox, which lets the writer
    /// drain any queued frames and then close the socket itself (closing
    /// here would race the writer and cut off a final error frame).
    fn remove_conn(&self, conn_id: u64) {
        if self
            .conns
            .lock()
            .expect("net conns poisoned")
            .remove(&conn_id)
            .is_some()
        {
            obs::NET_ACTIVE_CONNECTIONS.add(-1);
        }
    }
}

/// Runs the TCP front end over an already-bound listener until a client
/// sends `{"op": "drain"}`, then drains the engine and returns the
/// combined report. Blocks the calling thread for the server's lifetime.
///
/// # Errors
/// Only listener-level I/O errors (e.g. the socket being closed under the
/// acceptor) are fatal; per-connection errors are counted and contained.
pub fn serve_net(
    deployment: Arc<TrainedLorentz>,
    engine: ServingEngine,
    responses: Receiver<ServeResponse>,
    listener: TcpListener,
    config: NetConfig,
) -> std::io::Result<NetReport> {
    let engine = Arc::new(engine);
    let ctx = Arc::new(Ctx {
        deployment,
        stop: AtomicBool::new(false),
        next_routing_id: AtomicU64::new(1),
        pending: Mutex::new(HashMap::new()),
        conns: Mutex::new(HashMap::new()),
        counters: Counters::default(),
        max_frame_len: config.max_frame_len,
    });
    listener.set_nonblocking(true)?;

    let dispatcher = {
        let ctx = Arc::clone(&ctx);
        std::thread::Builder::new()
            .name("lorentz-net-dispatch".to_string())
            .spawn(move || dispatch_loop(&ctx, &responses))?
    };

    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut writers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_conn_id = 0u64;
    while !ctx.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let conn_id = next_conn_id;
                next_conn_id += 1;
                ctx.counters.connections.fetch_add(1, Ordering::Relaxed);
                obs::NET_CONNECTIONS.inc();
                obs::NET_ACTIVE_CONNECTIONS.add(1);
                let (outbox_tx, outbox_rx) = channel::<Vec<u8>>();
                let write_half = stream.try_clone()?;
                ctx.conns.lock().expect("net conns poisoned").insert(
                    conn_id,
                    ConnHandle {
                        outbox: outbox_tx,
                        stream: stream.try_clone()?,
                    },
                );
                {
                    let ctx = Arc::clone(&ctx);
                    writers.push(
                        std::thread::Builder::new()
                            .name(format!("lorentz-net-write-{conn_id}"))
                            .spawn(move || writer_loop(&ctx, write_half, &outbox_rx))?,
                    );
                }
                {
                    let ctx = Arc::clone(&ctx);
                    let engine = Arc::clone(&engine);
                    readers.push(
                        std::thread::Builder::new()
                            .name(format!("lorentz-net-read-{conn_id}"))
                            .spawn(move || reader_loop(&ctx, &engine, conn_id, stream))?,
                    );
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(config.accept_poll);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }

    // Drain: unblock every reader by half-closing the read sides; write
    // sides stay open so in-flight responses still reach their clients.
    for conn in ctx.conns.lock().expect("net conns poisoned").values() {
        let _ = conn.stream.shutdown(Shutdown::Read);
    }
    for reader in readers {
        let _ = reader.join();
    }
    // Readers are gone, so no new submissions: drain the engine. Every
    // accepted request produces its response before the channel closes.
    let engine = Arc::try_unwrap(engine)
        .unwrap_or_else(|_| unreachable!("reader threads joined, no engine clones remain"));
    let store_version = engine.store_version();
    let lambda_version = engine.lambda_version();
    let leader_term = engine.leader_term();
    let fenced_by = engine.fenced_by();
    let stats = engine.drain();
    // The response channel is closed; the dispatcher finishes routing
    // whatever was answered, then exits.
    let _ = dispatcher.join();
    let conn_ids: Vec<u64> = ctx
        .conns
        .lock()
        .expect("net conns poisoned")
        .keys()
        .copied()
        .collect();
    for conn_id in conn_ids {
        ctx.remove_conn(conn_id);
    }
    for writer in writers {
        let _ = writer.join();
    }
    Ok(NetReport {
        engine: stats,
        store_version,
        lambda_version,
        leader_term,
        fenced_by,
        connections: ctx.counters.connections.load(Ordering::Relaxed),
        frames_in: ctx.counters.frames_in.load(Ordering::Relaxed),
        frames_out: ctx.counters.frames_out.load(Ordering::Relaxed),
        frame_errors: ctx.counters.frame_errors.load(Ordering::Relaxed),
        disconnects: ctx.counters.disconnects.load(Ordering::Relaxed),
        dropped_responses: ctx.counters.dropped_responses.load(Ordering::Relaxed),
    })
}

/// Routes engine responses back to the connections that submitted them.
/// Exits when the response channel closes (after the engine drains).
fn dispatch_loop(ctx: &Ctx, responses: &Receiver<ServeResponse>) {
    for response in responses {
        let route = ctx
            .pending
            .lock()
            .expect("net pending poisoned")
            .remove(&response.id);
        let Some((conn_id, client_id)) = route else {
            // A response with no pending entry (rejected at submit after
            // the entry was removed) — nothing to route.
            continue;
        };
        ctx.send_to(conn_id, wire::encode_response(client_id, &response));
    }
}

/// Per-connection writer: drains the outbox onto the socket. Exits when
/// the outbox closes (connection removed) or a write fails.
fn writer_loop(ctx: &Ctx, mut stream: TcpStream, outbox: &Receiver<Vec<u8>>) {
    for payload in outbox {
        if wire::write_frame(&mut stream, &payload).is_err() {
            ctx.counters.disconnects.fetch_add(1, Ordering::Relaxed);
            obs::NET_DISCONNECTS.inc();
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        ctx.counters.frames_out.fetch_add(1, Ordering::Relaxed);
        obs::NET_FRAMES_OUT.inc();
    }
    // The outbox closed (connection removed): everything queued has been
    // written, so the write side can finally close.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Per-connection reader: decode → parse → submit, answering control
/// frames inline. See the module docs for the per-error semantics.
fn reader_loop(ctx: &Ctx, engine: &ServingEngine, conn_id: u64, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    loop {
        let payload = match wire::read_frame(&mut reader, ctx.max_frame_len) {
            Ok(payload) => payload,
            Err(WireError::Closed) => break,
            Err(err @ WireError::TooLarge { .. }) => {
                // The oversized payload was never read; the stream cannot
                // be resynchronized, so answer and close.
                ctx.counters.frame_errors.fetch_add(1, Ordering::Relaxed);
                obs::NET_FRAME_ERRORS.inc();
                ctx.send_to(
                    conn_id,
                    wire::encode_error(None, err.kind(), &err.to_string()),
                );
                break;
            }
            Err(err) => {
                // Truncated frame or socket error: the peer is gone (or
                // the drain half-closed us mid-read).
                if !ctx.stop.load(Ordering::Acquire) {
                    ctx.counters.disconnects.fetch_add(1, Ordering::Relaxed);
                    obs::NET_DISCONNECTS.inc();
                }
                let _ = err;
                break;
            }
        };
        ctx.counters.frames_in.fetch_add(1, Ordering::Relaxed);
        obs::NET_FRAMES_IN.inc();
        match wire::parse_client_frame(&payload, ctx.deployment.profiles().schema()) {
            Err(err) => {
                // Frame boundary intact: report and keep serving.
                ctx.counters.frame_errors.fetch_add(1, Ordering::Relaxed);
                obs::NET_FRAME_ERRORS.inc();
                ctx.send_to(
                    conn_id,
                    wire::encode_error(None, err.kind(), &err.to_string()),
                );
            }
            Ok(ClientFrame::Request(mut request)) => {
                let client_id = request.id;
                let routing_id = ctx.next_routing_id.fetch_add(1, Ordering::Relaxed);
                request.id = routing_id;
                ctx.pending
                    .lock()
                    .expect("net pending poisoned")
                    .insert(routing_id, (conn_id, client_id));
                if let Err(err) = engine.submit(request) {
                    ctx.pending
                        .lock()
                        .expect("net pending poisoned")
                        .remove(&routing_id);
                    ctx.send_to(
                        conn_id,
                        wire::encode_error(Some(client_id), "rejected", &err.to_string()),
                    );
                }
            }
            Ok(ClientFrame::Feedback(signal)) => match engine.submit_feedback(signal) {
                Ok(()) => {
                    // Read-your-writes for this connection: the ack only
                    // leaves after the λ publish lands.
                    engine.flush_feedback();
                    ctx.send_to(conn_id, wire::encode_ack("ack", "feedback"));
                }
                Err(err) => {
                    ctx.send_to(
                        conn_id,
                        wire::encode_error(None, "rejected", &err.to_string()),
                    );
                }
            },
            Ok(ClientFrame::Ping) => {
                ctx.send_to(conn_id, wire::encode_ack("pong", true));
            }
            Ok(ClientFrame::Drain) => {
                ctx.send_to(conn_id, wire::encode_ack("ack", "drain"));
                ctx.stop.store(true, Ordering::Release);
                break;
            }
        }
    }
    // On drain the connection outlives its reader: pending responses are
    // flushed by the dispatcher before `serve_net` closes write sides.
    if !ctx.stop.load(Ordering::Acquire) {
        ctx.remove_conn(conn_id);
    }
}
