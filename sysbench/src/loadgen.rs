//! The load generator: an open-loop (fixed-arrival-schedule) phase and a
//! closed-loop phase over persistent TCP connections to `lorentz serve`.
//!
//! **Open loop.** Frame `i` of a connection is *due* at `t0 + i·interval`
//! whatever the server does; its latency runs from that due instant to the
//! arrival of its response, so a stall is charged to every request it
//! delays (no coordinated omission). Connections are staggered by a
//! fraction of the interval, so arrivals are evenly spaced at the aggregate
//! rate. One thread walks the merged schedule of all connections, writes
//! each frame when it is due and, while it waits, polls the non-blocking
//! sockets for replies (a socket read timeout is rounded up to 8 ms on this
//! kernel and a `sleep` overshoots by 60–100 µs, so it neither blocks nor
//! sleeps). No thread of the generator waits to be scheduled, so the time
//! stamp of a reply is taken within a poll of its arrival. How late the
//! frames were still sent is reported (`gen.late_p99_us`), and a late
//! generator fails the run. A response's due time follows from the sequence
//! number in its id; feedback acks (which carry no id) are FIFO per
//! connection.
//!
//! **Closed loop.** One thread per connection keeps [`CLOSED_IN_FLIGHT`]
//! frames in flight and sends the next as soon as a reply arrives, unpaced,
//! until the phase's time is up. More than one frame is in flight so that
//! the phase measures what the server can sustain, not the length of one
//! request's chain of thread wake-ups.
//!
//! Responses are not parsed on the hot path — the client's cost per reply
//! is part of every closed-loop cycle — only scanned for their `id` and
//! `latency_ns`; one in [`ORACLE_EVERY`] is kept whole for the oracle.

use crate::fixture::{Phase, Traffic};
use lorentz_serve::wire;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The load shape issue 11 fixes: two connections.
pub const CONNECTIONS: usize = 2;
/// Frames each connection keeps in flight in the closed-loop phase. With one
/// in flight the rate ranged 6,400–16,200/s between identical runs; with 32
/// it repeats.
const CLOSED_IN_FLIGHT: usize = 32;
/// One answer in this many is kept and compared with the in-process result.
const ORACLE_EVERY: u64 = 100;
/// The closed loop counts replies per window of this length.
pub const CLOSED_WINDOW: Duration = Duration::from_millis(500);
/// A reply that takes this long is a failure, not a sample.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// What one phase measured, merged over its connections.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Request frames: `(1-second window of the due time, latency ns)`.
    pub request_lat: Vec<(u32, u64)>,
    /// Feedback frames: due → ack, ns.
    pub feedback_lat: Vec<u64>,
    /// Client round trip minus the response's own `latency_ns`, ns.
    pub client_minus_engine: Vec<u64>,
    /// The `latency_ns` each response carried.
    pub engine_reported: Vec<u64>,
    /// Open loop: `(1-second window of the due time, how long after its due
    /// time the frame was sent, ns)`.
    pub lateness: Vec<(u32, u64)>,
    /// Closed loop: replies that arrived in each half-second of the phase.
    pub window_counts: Vec<u64>,
    /// `(frame id, response payload)` kept for the oracle.
    pub samples: Vec<(u64, Vec<u8>)>,
    pub sent: u64,
    pub answered: u64,
    /// Error frames, wrong/duplicate/unknown ids, missing replies.
    pub failed: u64,
    pub first_failure: Option<String>,
    pub elapsed: Duration,
}

impl PhaseResult {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    fn merge(&mut self, other: PhaseResult) {
        self.request_lat.extend(other.request_lat);
        self.feedback_lat.extend(other.feedback_lat);
        self.client_minus_engine.extend(other.client_minus_engine);
        self.engine_reported.extend(other.engine_reported);
        self.lateness.extend(other.lateness);
        self.samples.extend(other.samples);
        if self.window_counts.len() < other.window_counts.len() {
            self.window_counts.resize(other.window_counts.len(), 0);
        }
        for (total, one) in self.window_counts.iter_mut().zip(&other.window_counts) {
            *total += one;
        }
        self.sent += other.sent;
        self.answered += other.answered;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

/// The unsigned integer following `"key":` (first or last occurrence).
/// Enough to read `id` and `latency_ns` off a response without building a
/// JSON tree; the oracle parses the sampled responses in full.
fn scan_u64(payload: &[u8], key: &[u8], last: bool) -> Option<u64> {
    let mut positions = payload
        .windows(key.len())
        .enumerate()
        .filter(|(_, w)| *w == key);
    let (at, _) = if last {
        positions.next_back()?
    } else {
        positions.next()?
    };
    let digits = payload[at + key.len()..]
        .iter()
        .skip_while(|b| **b == b' ')
        .take_while(|b| b.is_ascii_digit());
    let mut value: Option<u64> = None;
    for d in digits {
        value = Some(
            value
                .unwrap_or(0)
                .checked_mul(10)?
                .checked_add(u64::from(d - b'0'))?,
        );
    }
    value
}

/// What a response frame is, from a scan of its bytes.
#[derive(Debug, PartialEq)]
enum Reply {
    Ok { id: u64, latency_ns: u64 },
    FeedbackAck,
    Bad(String),
}

fn classify(payload: &[u8]) -> Reply {
    let has = |needle: &[u8]| payload.windows(needle.len()).any(|w| w == needle);
    if has(b"\"error\":") {
        return Reply::Bad(String::from_utf8_lossy(payload).into_owned());
    }
    if has(b"\"ack\":") {
        return Reply::FeedbackAck;
    }
    match (
        has(b"\"ok\":"),
        scan_u64(payload, b"\"id\":", false),
        scan_u64(payload, b"\"latency_ns\":", true),
    ) {
        (true, Some(id), Some(latency_ns)) => Reply::Ok { id, latency_ns },
        _ => Reply::Bad(format!(
            "unrecognized response: {}",
            String::from_utf8_lossy(payload)
        )),
    }
}

fn read_reply(stream: &mut TcpStream) -> Result<Vec<u8>, wire::WireError> {
    wire::read_frame(stream, wire::MAX_FRAME_LEN_DEFAULT)
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The fixed arrival schedule of one open-loop connection.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub interval: Duration,
    pub frames: u64,
}

impl Schedule {
    /// `rate_rps` over the [`CONNECTIONS`] connections for `seconds`.
    pub fn new(rate_rps: u64, seconds: f64) -> Self {
        let per_conn = rate_rps as f64 / CONNECTIONS as f64;
        Self {
            interval: Duration::from_secs_f64(1.0 / per_conn),
            frames: (per_conn * seconds).floor() as u64,
        }
    }

    /// When frame `seq` of connection `conn` is due, from the phase start.
    pub fn due(&self, conn: usize, seq: u64) -> Duration {
        let stagger = self.interval.mul_f64(conn as f64 / CONNECTIONS as f64);
        Duration::from_nanos(ns(self.interval).saturating_mul(seq)) + stagger
    }
}

/// One open-loop connection as the generator's single thread sees it: a
/// non-blocking socket, the bytes read from it that do not yet make a whole
/// frame, and which scheduled frames have been answered.
struct OpenConnection {
    stream: TcpStream,
    conn: usize,
    /// Reassembly buffer: replies arrive in whatever pieces the kernel hands
    /// over.
    pending: Vec<u8>,
    /// Feedback frames sent and not yet acked, oldest first (acks carry no
    /// id and come back in order).
    unacked_feedback: VecDeque<u64>,
    answered: Vec<bool>,
    outstanding: u64,
}

impl OpenConnection {
    /// Reads whatever has arrived, without blocking, and accounts every
    /// whole reply. Returns whether anything was read.
    fn poll(
        &mut self,
        traffic: &Traffic,
        schedule: Schedule,
        t0: Instant,
        result: &mut PhaseResult,
    ) -> Result<bool, String> {
        let mut chunk = [0u8; 16 * 1024];
        let n = match self.stream.read(&mut chunk) {
            Ok(0) => return Err(format!("connection {}: closed by the server", self.conn)),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
            Err(e) => return Err(format!("connection {}: read failed: {e}", self.conn)),
        };
        let arrived = Instant::now();
        let mut pending = std::mem::take(&mut self.pending);
        pending.extend_from_slice(&chunk[..n]);
        let mut at = 0;
        while let Some(prefix) = pending.get(at..at + 4) {
            let len = u32::from_be_bytes(prefix.try_into().expect("four bytes")) as usize;
            let Some(payload) = pending.get(at + 4..at + 4 + len) else {
                break;
            };
            self.account(payload, arrived, traffic, schedule, t0, result);
            at += 4 + len;
        }
        pending.drain(..at);
        self.pending = pending;
        Ok(true)
    }

    fn account(
        &mut self,
        payload: &[u8],
        arrived: Instant,
        traffic: &Traffic,
        schedule: Schedule,
        t0: Instant,
        result: &mut PhaseResult,
    ) {
        let conn = self.conn;
        let due = |seq: u64| schedule.due(conn, seq);
        let since_due = |seq: u64| ns(arrived.saturating_duration_since(t0 + due(seq)));
        match classify(payload) {
            Reply::Ok { id, latency_ns } => {
                let seq = id & 0xFFFF_FFFF;
                if id != Traffic::frame_id(Phase::Open, conn, seq)
                    || seq >= schedule.frames
                    || traffic.is_feedback(seq)
                    || std::mem::replace(&mut self.answered[seq as usize], true)
                {
                    result.fail(format!("connection {conn}: unexpected or repeated id {id}"));
                    return;
                }
                let latency = since_due(seq);
                result
                    .request_lat
                    .push((due(seq).as_secs() as u32, latency));
                result
                    .client_minus_engine
                    .push(latency.saturating_sub(latency_ns));
                result.engine_reported.push(latency_ns);
                if seq % ORACLE_EVERY == 0 {
                    result.samples.push((id, payload.to_vec()));
                }
            }
            Reply::FeedbackAck => match self.unacked_feedback.pop_front() {
                Some(seq) => {
                    self.answered[seq as usize] = true;
                    result.feedback_lat.push(since_due(seq));
                }
                None => {
                    result.fail(format!("connection {conn}: more acks than feedback frames"));
                    return;
                }
            },
            Reply::Bad(what) => {
                result.fail(format!("connection {conn}: {what}"));
                return;
            }
        }
        result.answered += 1;
        self.outstanding -= 1;
    }
}

/// Runs the open-loop phase: every connection's frames on the fixed
/// schedule, whatever the server does. One thread does everything — it
/// walks the merged schedule, writes each frame when it is due and, while it
/// waits, polls the non-blocking sockets for replies — so no scheduling
/// decision on the generator's side lies between a reply's arrival and its
/// time stamp.
pub fn open_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    schedule: Schedule,
) -> Result<PhaseResult, String> {
    let mut connections = (0..CONNECTIONS)
        .map(|conn| {
            let stream = connect(addr)?;
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(OpenConnection {
                stream,
                conn,
                pending: Vec::with_capacity(64 * 1024),
                unacked_feedback: VecDeque::new(),
                answered: vec![false; schedule.frames as usize],
                outstanding: 0,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut result = PhaseResult::default();
    let mut frame = Vec::with_capacity(512);
    let t0 = Instant::now() + Duration::from_millis(20);
    let poll_all = |connections: &mut [OpenConnection], result: &mut PhaseResult| {
        let mut any = false;
        for c in connections.iter_mut() {
            any |= c.poll(traffic, schedule, t0, result)?;
        }
        Ok::<bool, String>(any)
    };
    for seq in 0..schedule.frames {
        for conn in 0..CONNECTIONS {
            // Build the frame before waiting, so only the write is on the clock.
            let feedback = traffic.is_feedback(seq);
            traffic.write_frame(
                Traffic::frame_id(Phase::Open, conn, seq),
                feedback,
                &mut frame,
            );
            let offset = schedule.due(conn, seq);
            let due = t0 + offset;
            while Instant::now() < due {
                poll_all(&mut connections, &mut result)?;
            }
            result
                .lateness
                .push((offset.as_secs() as u32, ns(due.elapsed())));
            let mut written = 0;
            while written < frame.len() {
                match connections[conn].stream.write(&frame[written..]) {
                    Ok(n) => written += n,
                    // The server has stopped reading: keep collecting replies
                    // while its receive window is full.
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        poll_all(&mut connections, &mut result)?;
                    }
                    Err(e) => return Err(format!("connection {conn}: send failed: {e}")),
                }
            }
            if feedback {
                connections[conn].unacked_feedback.push_back(seq);
            }
            connections[conn].outstanding += 1;
            result.sent += 1;
        }
    }
    let mut last_reply = Instant::now();
    while connections.iter().any(|c| c.outstanding > 0) {
        if poll_all(&mut connections, &mut result)? {
            last_reply = Instant::now();
        } else if last_reply.elapsed() > REPLY_TIMEOUT {
            let missing: u64 = connections.iter().map(|c| c.outstanding).sum();
            result.fail(format!("{missing} frames never answered"));
            break;
        }
    }
    result.elapsed = t0.elapsed();
    Ok(result)
}

/// One closed-loop connection: keeps [`CLOSED_IN_FLIGHT`] frames in flight,
/// sending the next as soon as a reply arrives, until `duration` is over;
/// then collects the replies still outstanding.
fn closed_connection(
    mut stream: TcpStream,
    traffic: &Traffic,
    conn: usize,
    duration: Duration,
) -> PhaseResult {
    let mut result = PhaseResult::default();
    let mut frame = Vec::with_capacity(512);
    // Per sequence number: when it was sent, and whether it was answered.
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut answered: Vec<bool> = Vec::new();
    let mut unacked_feedback: VecDeque<u64> = VecDeque::new();
    let started = Instant::now();
    let mut in_flight = 0usize;
    loop {
        while in_flight < CLOSED_IN_FLIGHT && started.elapsed() < duration {
            let seq = sent_at.len() as u64;
            let feedback = traffic.is_feedback(seq);
            traffic.write_frame(
                Traffic::frame_id(Phase::Closed, conn, seq),
                feedback,
                &mut frame,
            );
            sent_at.push(Instant::now());
            answered.push(false);
            if feedback {
                unacked_feedback.push_back(seq);
            }
            if let Err(e) = stream.write_all(&frame) {
                result.fail(format!("connection {conn}: send failed: {e}"));
                result.elapsed = started.elapsed();
                return result;
            }
            in_flight += 1;
        }
        if in_flight == 0 {
            break;
        }
        let buf = match read_reply(&mut stream) {
            Ok(buf) => buf,
            Err(e) => {
                result.fail(format!("connection {conn}: reply missing: {e}"));
                break;
            }
        };
        in_flight -= 1;
        let seq = match classify(&buf) {
            Reply::Ok { id, latency_ns } => {
                let seq = id & 0xFFFF_FFFF;
                let known = id == Traffic::frame_id(Phase::Closed, conn, seq)
                    && (seq as usize) < sent_at.len()
                    && !traffic.is_feedback(seq);
                if !known {
                    result.fail(format!("connection {conn}: unexpected id {id}"));
                    continue;
                }
                let latency = ns(sent_at[seq as usize].elapsed());
                result.request_lat.push((0, latency));
                result
                    .client_minus_engine
                    .push(latency.saturating_sub(latency_ns));
                result.engine_reported.push(latency_ns);
                if seq % ORACLE_EVERY == 0 {
                    result.samples.push((id, buf));
                }
                seq
            }
            Reply::FeedbackAck => match unacked_feedback.pop_front() {
                Some(seq) => {
                    result
                        .feedback_lat
                        .push(ns(sent_at[seq as usize].elapsed()));
                    seq
                }
                None => {
                    result.fail(format!("connection {conn}: more acks than feedback frames"));
                    continue;
                }
            },
            Reply::Bad(what) => {
                result.fail(format!("connection {conn}: {what}"));
                continue;
            }
        };
        if std::mem::replace(&mut answered[seq as usize], true) {
            result.fail(format!("connection {conn}: frame {seq} answered twice"));
        } else {
            result.answered += 1;
            let window = (started.elapsed().as_millis() / CLOSED_WINDOW.as_millis()) as usize;
            if result.window_counts.len() <= window {
                result.window_counts.resize(window + 1, 0);
            }
            result.window_counts[window] += 1;
        }
    }
    result.sent = sent_at.len() as u64;
    result.elapsed = started.elapsed();
    result
}

/// Runs the closed-loop phase: one thread per connection for `duration`.
pub fn closed_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    duration: Duration,
) -> Result<PhaseResult, String> {
    let streams: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| connect(addr))
        .collect::<Result<_, _>>()?;
    let mut total = PhaseResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(conn, stream)| {
                scope.spawn(move || closed_connection(stream, traffic, conn, duration))
            })
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("closed-loop connection panicked"));
        }
    });
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_rate_connections_and_seconds() {
        let s = Schedule::new(4000, 5.5);
        assert_eq!(s.interval, Duration::from_micros(500));
        assert_eq!(s.frames, 11_000);
        assert_eq!(s.due(0, 0), Duration::ZERO);
        assert_eq!(s.due(0, 2000), Duration::from_secs(1));
        // The second connection runs half an interval behind the first.
        assert_eq!(s.due(1, 0), Duration::from_micros(250));
        // The last frame is due inside the phase.
        assert!(s.due(1, s.frames - 1) < Duration::from_secs_f64(5.5));
    }

    #[test]
    fn replies_split_across_reads_are_reassembled_and_matched_to_their_due_time() {
        let traffic = crate::fixture::tests::small_traffic(7);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = connect(listener.local_addr().unwrap()).unwrap();
        stream.set_nonblocking(true).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let schedule = Schedule::new(4000, 1.0);
        let mut conn = OpenConnection {
            stream,
            conn: 1,
            pending: Vec::new(),
            // Frame 9 of a connection is the first feedback frame.
            unacked_feedback: VecDeque::from([9]),
            answered: vec![false; schedule.frames as usize],
            outstanding: 3,
        };
        let t0 = Instant::now();
        let mut result = PhaseResult::default();
        let poll_until = |conn: &mut OpenConnection, result: &mut PhaseResult, answered| {
            while result.answered < answered && result.failed == 0 {
                conn.poll(&traffic, schedule, t0, result).unwrap();
            }
        };
        assert!(!conn.poll(&traffic, schedule, t0, &mut result).unwrap());

        let id = Traffic::frame_id(Phase::Open, 1, 4);
        let mut bytes = Vec::new();
        for payload in [
            format!("{{\"id\":{id},\"ok\":{{}},\"degraded\":false,\"latency_ns\":9}}"),
            "{\"ack\":\"feedback\"}".to_owned(),
        ] {
            wire::write_frame(&mut bytes, payload.as_bytes()).unwrap();
        }
        // The first reply and a piece of the second, then the rest.
        let cut = bytes.len() - 5;
        server.write_all(&bytes[..cut]).unwrap();
        poll_until(&mut conn, &mut result, 1);
        assert_eq!((result.answered, conn.outstanding), (1, 2));
        assert_eq!(conn.pending, bytes[bytes.len() - 22..cut]);
        server.write_all(&bytes[cut..]).unwrap();
        poll_until(&mut conn, &mut result, 2);
        assert_eq!((result.answered, result.failed), (2, 0));
        assert!(conn.pending.is_empty() && conn.unacked_feedback.is_empty());
        assert!(conn.answered[4] && conn.answered[9]);
        assert_eq!(
            (result.request_lat.len(), result.feedback_lat.len()),
            (1, 1)
        );
        assert_eq!(result.engine_reported, [9]);

        // The same id again is a failure, not a sample.
        server.write_all(&bytes[..cut]).unwrap();
        while result.failed == 0 {
            conn.poll(&traffic, schedule, t0, &mut result).unwrap();
        }
        assert!(result.first_failure.unwrap().contains("repeated id"));
    }

    #[test]
    fn scan_reads_top_level_integers_without_parsing() {
        let ok = br#"{"id":1099511627781,"ok":{"sku":{"name":"gp-4"}},"degraded":false,"latency_ns":48211}"#;
        assert_eq!(scan_u64(ok, b"\"id\":", false), Some(1_099_511_627_781));
        assert_eq!(scan_u64(ok, b"\"latency_ns\":", true), Some(48_211));
        assert_eq!(scan_u64(ok, b"\"missing\":", false), None);
        assert_eq!(scan_u64(br#"{"id": 7}"#, b"\"id\":", false), Some(7));
        assert_eq!(scan_u64(br#"{"id":"x"}"#, b"\"id\":", false), None);
        assert_eq!(
            scan_u64(br#"{"id":99999999999999999999}"#, b"\"id\":", false),
            None
        );
    }

    #[test]
    fn classify_tells_answers_acks_and_errors_apart() {
        assert_eq!(
            classify(br#"{"id":5,"ok":{},"degraded":false,"latency_ns":9}"#),
            Reply::Ok {
                id: 5,
                latency_ns: 9
            }
        );
        assert_eq!(classify(br#"{"ack":"feedback"}"#), Reply::FeedbackAck);
        assert!(matches!(
            classify(br#"{"id":5,"error":"saturated","kind":"rejected"}"#),
            Reply::Bad(_)
        ));
        assert!(matches!(classify(br#"{"pong":true}"#), Reply::Bad(_)));
    }
}
