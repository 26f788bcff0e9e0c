//! The TCP front end: one thread per persistent connection, each read
//! answered on the thread that read it.
//!
//! One acceptor blocks in `accept`. Each connection's thread owns both
//! halves of its socket and runs every frame to completion: decode, parse,
//! answer a request through [`ServingEngine::answer`], and append the
//! reply frame to an output buffer. Replies leave in request order, and a
//! pipelined burst leaves in one `write`: the buffer is written before any
//! read that could block (no whole frame is buffered), before waiting on
//! the feedback barrier, at 64 KiB, and when the connection ends. A client
//! that stops reading pushes back through TCP; nothing queues for it.
//! Feedback goes to the engine's single λ-writer, and its ack is appended
//! only after the publish lands, so a request behind it on the same
//! connection serves under the new λ.
//!
//! [`serve_net`] borrows the engine, so one loop serves every role: a
//! leader's engine, and a standby's
//! [`FollowerEngine::engine`](crate::FollowerEngine::engine) before and
//! after it promotes. Feedback to a standby that has not promoted is
//! answered with kind `not_leader`; every other refused signal with kind
//! `rejected`.
//!
//! Graceful drain: a `{"op": "drain"}` frame (from any connection) is
//! acked, sets the stop flag and connects once to the listener to wake
//! the acceptor. Every connection's read side is then shut down; each
//! thread writes what it answered and exits, and the λ-writer applies
//! every signal accepted so far. The final [`NetReport`] carries the
//! engine's exact ledger plus the per-connection accounting, mirrored
//! into the `engine.net.*` metrics. The engine itself keeps running: the
//! caller drains or stops it.
//!
//! Failure semantics per connection:
//! * clean close / half-open peer → everything read is answered first;
//! * mid-frame disconnect, or a write the peer is gone for → a counted
//!   disconnect; unwritten reply frames count as dropped;
//! * oversized frame → typed `frame_too_large` error frame, then close
//!   (the payload was never read, so the stream cannot be resynchronized);
//! * garbage payload → typed `malformed` error frame, connection stays
//!   open (the frame boundary is intact);
//! * a handler panic → a `serve` error frame, connection stays open.

use crate::engine::ServingEngine;
use crate::types::{EngineStats, ServeError};
use crate::wire::{self, ClientFrame, WireError};
use lorentz_core::obs;
use lorentz_types::framing::{Decoded, FrameCodec, ABSOLUTE_MAX_PAYLOAD};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Reply bytes a connection buffers before writing them even though more
/// whole frames are waiting to be answered.
const FLUSH_AT: usize = 64 * 1024;

/// Tuning for the TCP front end.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Largest accepted frame payload; larger declared lengths are
    /// rejected with a typed error before buffering.
    pub max_frame_len: usize,
}

impl Default for NetConfig {
    /// 1 MiB frames.
    fn default() -> Self {
        Self {
            max_frame_len: wire::MAX_FRAME_LEN_DEFAULT,
        }
    }
}

/// What the front end did over its lifetime, returned by [`serve_net`]
/// after the drain completes.
#[derive(Debug, Clone, Copy)]
pub struct NetReport {
    /// The engine's exact ledger once every connection closed and every
    /// accepted signal was applied (`submitted = accepted + rejected`,
    /// `accepted = answered`, `feedback_accepted = feedback_applied`).
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
    /// Reply frames not written because the peer was gone.
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

/// State shared by the acceptor and the connection threads.
struct Ctx {
    /// Set by a drain frame; the acceptor checks it after every accept.
    stop: AtomicBool,
    /// Where the draining thread connects to wake the blocked acceptor.
    wake_addr: SocketAddr,
    /// Each open connection's socket, kept for the drain's half-close.
    conns: Mutex<HashMap<u64, TcpStream>>,
    counters: Counters,
    max_frame_len: usize,
}

impl Ctx {
    /// Stops the acceptor: sets the flag, then connects once so the
    /// blocked `accept` returns and sees it.
    fn stop_accepting(&self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.wake_addr);
    }

    fn count_frame_error(&self) {
        self.counters.frame_errors.fetch_add(1, Ordering::Relaxed);
        obs::NET_FRAME_ERRORS.inc();
    }

    fn count_disconnect(&self) {
        self.counters.disconnects.fetch_add(1, Ordering::Relaxed);
        obs::NET_DISCONNECTS.inc();
    }

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

/// The address that reaches a listener bound to `local`: an unspecified
/// bind address (`0.0.0.0`, `::`) is reached over loopback.
pub(crate) fn wake_addr(mut local: SocketAddr) -> SocketAddr {
    if local.ip().is_unspecified() {
        local.set_ip(match local {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    local
}

/// Runs the TCP front end over an already-bound listener until a client
/// sends `{"op": "drain"}`, then closes every connection, waits for the
/// λ-writer to apply every accepted signal, and returns the combined
/// report. Blocks the calling thread for the server's lifetime. The
/// engine is borrowed and left running: the caller drains or stops it.
///
/// # Errors
/// Only listener-level I/O errors (e.g. the socket being closed under the
/// acceptor) are fatal; per-connection errors are counted and contained.
/// Either way every connection is closed before this returns.
pub fn serve_net(
    engine: &ServingEngine,
    listener: TcpListener,
    config: NetConfig,
) -> std::io::Result<NetReport> {
    let ctx = Ctx {
        stop: AtomicBool::new(false),
        wake_addr: wake_addr(listener.local_addr()?),
        conns: Mutex::new(HashMap::new()),
        counters: Counters::default(),
        max_frame_len: config.max_frame_len,
    };
    std::thread::scope(|scope| {
        let accepted = accept_loop(&ctx, engine, &listener, scope);
        // Drain: half-close every read side so each connection thread stops
        // at its next blocking read, having answered and written everything
        // it read before. The scope joins them on the way out.
        for stream in ctx.conns.lock().expect("net conns poisoned").values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        accepted
    })?;
    // No connection is left to admit a request: the ledger is final once
    // the λ-writer has applied every accepted signal.
    engine.flush_feedback();
    Ok(NetReport {
        engine: engine.stats(),
        store_version: engine.store_version(),
        lambda_version: engine.lambda_version(),
        leader_term: engine.leader_term(),
        fenced_by: engine.fenced_by(),
        connections: ctx.counters.connections.load(Ordering::Relaxed),
        frames_in: ctx.counters.frames_in.load(Ordering::Relaxed),
        frames_out: ctx.counters.frames_out.load(Ordering::Relaxed),
        frame_errors: ctx.counters.frame_errors.load(Ordering::Relaxed),
        disconnects: ctx.counters.disconnects.load(Ordering::Relaxed),
        dropped_responses: ctx.counters.dropped_responses.load(Ordering::Relaxed),
    })
}

/// Accepts connections, each onto its own thread in `scope`, until a
/// drain sets the stop flag.
fn accept_loop<'scope>(
    ctx: &'scope Ctx,
    engine: &'scope ServingEngine,
    listener: &TcpListener,
    scope: &'scope std::thread::Scope<'scope, '_>,
) -> std::io::Result<()> {
    let mut next_conn_id = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if ctx.stop.load(Ordering::Acquire) {
            // The drain's wake-up connection (or a client racing the
            // drain): dropped uncounted.
            return Ok(());
        }
        let _ = stream.set_nodelay(true);
        let conn_id = next_conn_id;
        next_conn_id += 1;
        ctx.counters.connections.fetch_add(1, Ordering::Relaxed);
        obs::NET_CONNECTIONS.inc();
        obs::NET_ACTIVE_CONNECTIONS.add(1);
        ctx.conns
            .lock()
            .expect("net conns poisoned")
            .insert(conn_id, stream.try_clone()?);
        std::thread::Builder::new()
            .name(format!("lorentz-net-conn-{conn_id}"))
            .spawn_scoped(scope, move || conn_loop(ctx, engine, conn_id, stream))?;
    }
}

/// One connection's reply frames that are not written yet.
#[derive(Default)]
struct Replies {
    buf: Vec<u8>,
    frames: u64,
}

impl Replies {
    fn push(&mut self, payload: &[u8]) {
        FrameCodec::wire(ABSOLUTE_MAX_PAYLOAD).encode_into(payload, &mut self.buf);
        self.frames += 1;
    }

    /// Writes every buffered frame with one `write_all`. A failed write
    /// means the peer is gone: its frames count as dropped and the
    /// connection as a disconnect. Returns whether the write went out.
    fn flush(&mut self, ctx: &Ctx, mut stream: &TcpStream) -> bool {
        if self.frames == 0 {
            return true;
        }
        let written = stream.write_all(&self.buf).is_ok();
        let frames = std::mem::take(&mut self.frames);
        self.buf.clear();
        if written {
            ctx.counters.frames_out.fetch_add(frames, Ordering::Relaxed);
            obs::NET_FRAMES_OUT.add(frames);
        } else {
            ctx.counters
                .dropped_responses
                .fetch_add(frames, Ordering::Relaxed);
            obs::NET_DROPPED_RESPONSES.add(frames);
            ctx.count_disconnect();
        }
        written
    }
}

/// Per-connection body: read → parse → answer → buffer the reply (see the
/// module docs for when the buffer is written and the error semantics).
fn conn_loop(ctx: &Ctx, engine: &ServingEngine, conn_id: u64, stream: TcpStream) {
    let codec = FrameCodec::wire(ctx.max_frame_len);
    let schema = engine.deployment().profiles().schema();
    let mut reader = BufReader::new(stream);
    let mut replies = Replies::default();
    loop {
        let frame_buffered = matches!(codec.decode(reader.buffer(), 0), Ok(Decoded::Frame { .. }));
        if (!frame_buffered || replies.buf.len() >= FLUSH_AT)
            && !replies.flush(ctx, reader.get_ref())
        {
            break;
        }
        let payload = match wire::read_frame(&mut reader, ctx.max_frame_len) {
            Ok(payload) => payload,
            Err(WireError::Closed) => break,
            Err(err @ WireError::TooLarge { .. }) => {
                // The oversized payload was never read; the stream cannot
                // be resynchronized, so answer and close.
                ctx.count_frame_error();
                replies.push(&wire::encode_error(None, err.kind(), &err.to_string()));
                break;
            }
            Err(_) => {
                // Truncated frame or socket error: the peer is gone (or
                // the drain half-closed us mid-read).
                if !ctx.stop.load(Ordering::Acquire) {
                    ctx.count_disconnect();
                }
                break;
            }
        };
        ctx.counters.frames_in.fetch_add(1, Ordering::Relaxed);
        obs::NET_FRAMES_IN.inc();
        match wire::parse_client_frame(&payload, schema) {
            Err(err) => {
                // Frame boundary intact: report and keep serving.
                ctx.count_frame_error();
                replies.push(&wire::encode_error(None, err.kind(), &err.to_string()));
            }
            Ok(ClientFrame::Request(request)) => {
                let id = request.id;
                replies.push(&match engine.answer(request) {
                    Ok(response) => wire::encode_response(id, &response),
                    Err(err) => wire::encode_error(Some(id), "rejected", &err.to_string()),
                });
            }
            Ok(ClientFrame::Feedback(signal)) => match engine.submit_feedback(signal) {
                Ok(()) => {
                    // Read-your-writes for this connection: the ack only
                    // leaves after the λ publish lands.
                    if !replies.flush(ctx, reader.get_ref()) {
                        break;
                    }
                    engine.flush_feedback();
                    replies.push(&wire::encode_ack("ack", "feedback"));
                }
                Err(err) => {
                    let kind = match err {
                        ServeError::NotLeader => "not_leader",
                        _ => "rejected",
                    };
                    replies.push(&wire::encode_error(None, kind, &err.to_string()));
                }
            },
            Ok(ClientFrame::Ping) => replies.push(&wire::encode_ack("pong", true)),
            Ok(ClientFrame::Drain) => {
                replies.push(&wire::encode_ack("ack", "drain"));
                ctx.stop_accepting();
                break;
            }
        }
    }
    replies.flush(ctx, reader.get_ref());
    let _ = reader.get_ref().shutdown(Shutdown::Both);
    ctx.remove_conn(conn_id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PANIC_ID;
    use crate::ServeConfig;
    use serde::Value;

    fn exchange(stream: &mut TcpStream, frame: &str) -> Value {
        wire::write_frame(stream, frame.as_bytes()).unwrap();
        let payload = wire::read_frame(stream, 1 << 20).unwrap();
        serde_json::parse(&String::from_utf8(payload).unwrap()).unwrap()
    }

    #[test]
    fn a_panicking_request_is_answered_and_the_connection_keeps_serving() {
        let (engine, _responses) =
            ServingEngine::start(crate::test_deployment(), ServeConfig::default()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve_net(&engine, listener, NetConfig::default()).unwrap());
        let mut stream = TcpStream::connect(addr).unwrap();
        let panicked = format!("{{\"id\": {PANIC_ID}, \"profile\": {{}}}}");
        let panicked = exchange(&mut stream, &panicked);
        assert_eq!(
            panicked.get_field("error").and_then(Value::as_str),
            Some("request handler panicked: injected worker panic")
        );
        let next = exchange(&mut stream, "{\"id\": 2, \"profile\": {}}");
        assert!(next.get_field("ok").is_some(), "{next:?}");
        let ack = exchange(&mut stream, "{\"op\": \"drain\"}");
        assert_eq!(ack.get_field("ack").and_then(Value::as_str), Some("drain"));
        let report = server.join().unwrap();
        let stats = report.engine;
        assert_eq!(stats.panicked, 1);
        assert_eq!((stats.submitted, stats.accepted, stats.answered), (2, 2, 2));
        assert_eq!(report.frames_out, 3);
        assert_eq!(report.disconnects, 0);
    }
}
