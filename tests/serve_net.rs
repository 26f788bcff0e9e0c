//! Network integration tests for the TCP front end: multi-connection
//! request/response routing, half-open and mid-frame disconnects,
//! oversized/garbage frame rejection with typed errors, and exact
//! drain-on-shutdown accounting over real sockets.

use lorentz::serve::wire::{read_frame, write_frame};
use lorentz::serve::{serve_net, NetConfig, NetReport, ServeConfig, ServingEngine};
use serde::Deserialize;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

mod common;
use common::deployment;

/// Starts an engine + TCP front end on an ephemeral port with a 4096-byte
/// frame cap; the handle resolves to the post-drain [`NetReport`] once a
/// client sends the drain frame.
fn start_server(config: ServeConfig) -> (SocketAddr, JoinHandle<NetReport>) {
    start_server_capped(config, 4096)
}

fn start_server_capped(
    config: ServeConfig,
    max_frame_len: usize,
) -> (SocketAddr, JoinHandle<NetReport>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (engine, _) = ServingEngine::start(deployment(), config).unwrap();
    let handle = std::thread::spawn(move || {
        serve_net(&engine, listener, NetConfig { max_frame_len }).unwrap()
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

fn send_json(stream: &mut TcpStream, json: &str) {
    write_frame(stream, json.as_bytes()).unwrap();
}

fn recv_json(stream: &mut TcpStream) -> serde::Value {
    let payload = read_frame(stream, 1 << 20).unwrap();
    serde_json::parse(&String::from_utf8(payload).unwrap()).unwrap()
}

fn request_json(id: u64, customer: u64) -> String {
    format!("{{\"id\": {id}, \"profile\": {{}}, \"customer\": {customer}}}")
}

fn field_u64(value: &serde::Value, key: &str) -> Option<u64> {
    value.get_field(key).and_then(|v| u64::from_value(v).ok())
}

/// Sends the drain frame on a fresh connection and returns the report the
/// server thread exits with.
fn drain(addr: SocketAddr, server: JoinHandle<NetReport>) -> NetReport {
    let mut stream = connect(addr);
    send_json(&mut stream, "{\"op\": \"drain\"}");
    let ack = recv_json(&mut stream);
    assert_eq!(ack.get_field("ack").and_then(|v| v.as_str()), Some("drain"));
    server.join().unwrap()
}

/// The exact-ledger invariants every drained server must satisfy.
fn assert_ledger_exact(report: &NetReport) {
    let stats = report.engine;
    assert_eq!(stats.submitted, stats.accepted + stats.rejected);
    assert_eq!(stats.accepted, stats.answered);
    assert_eq!(stats.feedback_accepted, stats.feedback_applied);
}

#[test]
fn multi_connection_responses_route_back_without_crosstalk() {
    let (addr, server) = start_server(ServeConfig {
        shards: 4,
        ..ServeConfig::default()
    });
    // Three connections pipeline 20 requests each, with DELIBERATELY
    // overlapping client ids (0..20 on every connection): correct routing
    // is only possible if the server keys responses by connection, not id.
    const PER_CONN: u64 = 20;
    let mut conns: Vec<TcpStream> = (0..3).map(|_| connect(addr)).collect();
    for (c, stream) in conns.iter_mut().enumerate() {
        for id in 0..PER_CONN {
            send_json(stream, &request_json(id, c as u64));
        }
    }
    for stream in &mut conns {
        // Each id arrives exactly once per connection, each with a
        // result.
        let mut seen = vec![false; PER_CONN as usize];
        for _ in 0..PER_CONN {
            let response = recv_json(stream);
            let id = field_u64(&response, "id").unwrap();
            assert!(!seen[id as usize], "id {id} answered twice on one conn");
            seen[id as usize] = true;
            assert!(
                response.get_field("ok").is_some(),
                "request {id} failed: {response:?}"
            );
        }
        assert!(seen.iter().all(|&s| s));
    }
    let report = drain(addr, server);
    assert_ledger_exact(&report);
    assert_eq!(report.engine.submitted, 3 * PER_CONN);
    assert_eq!(report.engine.answered, 3 * PER_CONN);
    assert_eq!(report.connections, 4); // 3 clients + the drain connection
    assert_eq!(report.frames_in, 3 * PER_CONN + 1);
    assert_eq!(report.frames_out, 3 * PER_CONN + 1);
    assert_eq!(report.disconnects, 0);
    assert_eq!(report.dropped_responses, 0);
}

#[test]
fn ping_and_feedback_are_acknowledged_in_order() {
    let (addr, server) = start_server(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    });
    let mut stream = connect(addr);
    send_json(&mut stream, "{\"op\": \"ping\"}");
    let pong = recv_json(&mut stream);
    assert_eq!(pong.get_field("pong"), Some(&serde::Value::Bool(true)));
    // Feedback is acked only after the λ publish lands, so a request sent
    // after the ack serves under the updated lambda.
    send_json(&mut stream, "{\"gamma\": 1.0, \"customer\": 5}");
    let ack = recv_json(&mut stream);
    assert_eq!(
        ack.get_field("ack").and_then(|v| v.as_str()),
        Some("feedback")
    );
    send_json(&mut stream, &request_json(9, 5));
    let response = recv_json(&mut stream);
    assert_eq!(field_u64(&response, "id"), Some(9));
    assert!(response.get_field("ok").is_some());
    let report = drain(addr, server);
    assert_ledger_exact(&report);
    assert_eq!(report.engine.feedback_applied, 1);
    // λ starts at the seed epoch 1; one published signal mints epoch 2.
    assert_eq!(report.lambda_version, 2);
}

#[test]
fn half_open_peer_is_a_clean_close_not_a_disconnect() {
    let (addr, server) = start_server(ServeConfig::default());
    let mut idle = connect(addr);
    let mut active = connect(addr);
    // The half-open peer: request in flight, then the client closes its
    // write side. The server must answer what was submitted, then treat
    // the EOF as a clean close.
    send_json(&mut idle, &request_json(1, 1));
    let response = recv_json(&mut idle);
    assert!(response.get_field("ok").is_some());
    idle.shutdown(Shutdown::Write).unwrap();
    // The other connection keeps serving after the neighbor went away.
    std::thread::sleep(Duration::from_millis(20));
    send_json(&mut active, &request_json(2, 2));
    assert!(recv_json(&mut active).get_field("ok").is_some());
    let report = drain(addr, server);
    assert_ledger_exact(&report);
    assert_eq!(report.disconnects, 0);
    assert_eq!(report.dropped_responses, 0);
}

#[test]
fn mid_frame_disconnect_is_counted_and_contained() {
    let (addr, server) = start_server(ServeConfig::default());
    {
        // A torn frame: the prefix declares 100 bytes, only 10 arrive
        // before the peer vanishes.
        let mut torn = connect(addr);
        torn.write_all(&100u32.to_be_bytes()).unwrap();
        torn.write_all(b"0123456789").unwrap();
        torn.flush().unwrap();
    }
    // Give the reader a beat to hit the truncated read before draining
    // (after the stop flag a truncated read is attributed to the drain).
    std::thread::sleep(Duration::from_millis(50));
    let mut healthy = connect(addr);
    send_json(&mut healthy, &request_json(7, 7));
    assert!(recv_json(&mut healthy).get_field("ok").is_some());
    let report = drain(addr, server);
    assert_ledger_exact(&report);
    assert_eq!(report.disconnects, 1);
    // The torn frame never became a request.
    assert_eq!(report.engine.submitted, 1);
}

#[test]
fn oversized_frames_get_a_typed_error_then_the_connection_closes() {
    let (addr, server) = start_server(ServeConfig::default());
    let mut stream = connect(addr);
    // Declare a payload over the server's 4096-byte cap; the server must
    // reject on the prefix alone, without waiting for (or buffering) it.
    stream.write_all(&(1u32 << 20).to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let error = recv_json(&mut stream);
    assert_eq!(
        error.get_field("kind").and_then(|v| v.as_str()),
        Some("frame_too_large")
    );
    // The stream cannot be resynchronized, so the server closes it.
    assert!(read_frame(&mut stream, 1 << 20).is_err());
    let report = drain(addr, server);
    assert_ledger_exact(&report);
    assert_eq!(report.frame_errors, 1);
    assert_eq!(report.engine.submitted, 0);
}

#[test]
fn garbage_frames_get_a_typed_error_and_the_connection_survives() {
    // A 1 MiB cap, so the large frames below reach the JSON reader.
    let (addr, server) = start_server_capped(ServeConfig::default(), 1 << 20);
    let mut stream = connect(addr);
    // Nested far past the reader's depth limit: rejected, not a stack
    // overflow on the connection's reader thread.
    let deep = "[".repeat(200_000);
    // Well-formed JSON, but a string is not a request object.
    let big_string = format!("\"{}\"", "x".repeat(900_000));
    for garbage in [
        "not json at all",
        "[1, 2, 3]",
        "{\"offering\": \"warp_drive\"}",
        deep.as_str(),
        big_string.as_str(),
    ] {
        send_json(&mut stream, garbage);
        let error = recv_json(&mut stream);
        assert_eq!(
            error.get_field("kind").and_then(|v| v.as_str()),
            Some("malformed"),
            "frame {:?}... should be malformed",
            &garbage[..garbage.len().min(40)]
        );
    }
    // The frame boundary was intact each time: the same connection still
    // serves real requests.
    send_json(&mut stream, &request_json(3, 3));
    let response = recv_json(&mut stream);
    assert_eq!(field_u64(&response, "id"), Some(3));
    assert!(response.get_field("ok").is_some());
    let report = drain(addr, server);
    assert_ledger_exact(&report);
    assert_eq!(report.frame_errors, 5);
    assert_eq!(report.engine.submitted, 1);
}

#[test]
fn a_pipelined_burst_is_answered_in_order_without_rejections() {
    // A one-deep queue behind one worker: the pool's admission limits do
    // not apply to TCP reads, which are answered on the connection's own
    // thread, so a pipelined burst is answered whole and in order.
    let (addr, server) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        degraded_threshold: None,
        ..ServeConfig::default()
    });
    const BURST: u64 = 40;
    let mut stream = connect(addr);
    for id in 0..BURST {
        send_json(&mut stream, &request_json(id, id));
    }
    for id in 0..BURST {
        let response = recv_json(&mut stream);
        assert_eq!(field_u64(&response, "id"), Some(id));
        assert!(
            response.get_field("ok").is_some(),
            "request {id} failed: {response:?}"
        );
    }
    let report = drain(addr, server);
    assert_ledger_exact(&report);
    assert_eq!(report.engine.submitted, BURST);
    assert_eq!(report.engine.accepted, BURST);
    assert_eq!(report.engine.rejected, 0);
    assert_eq!(report.frames_out, BURST + 1);
    assert_eq!(report.dropped_responses, 0);
}

#[test]
fn a_read_behind_feedback_in_one_write_serves_the_published_lambda() {
    let (addr, server) = start_server(ServeConfig::default());
    let mut stream = connect(addr);
    // Request, feedback and request leave in a single write, so all three
    // frames can sit in the server's read buffer at once.
    let mut burst = Vec::new();
    let codec = lorentz_types::framing::FrameCodec::wire(1 << 20);
    for frame in [
        request_json(1, 5),
        "{\"gamma\": 1.0, \"customer\": 5}".to_owned(),
        request_json(2, 5),
    ] {
        codec.encode_into(frame.as_bytes(), &mut burst);
    }
    stream.write_all(&burst).unwrap();
    let lambda = |response: &serde::Value| {
        response
            .get_field("ok")
            .and_then(|ok| ok.get_field("lambda"))
            .and_then(|v| f64::from_value(v).ok())
            .unwrap_or_else(|| panic!("no lambda in {response:?}"))
    };
    let before = recv_json(&mut stream);
    assert_eq!(field_u64(&before, "id"), Some(1));
    let ack = recv_json(&mut stream);
    assert_eq!(
        ack.get_field("ack").and_then(|v| v.as_str()),
        Some("feedback")
    );
    let after = recv_json(&mut stream);
    assert_eq!(field_u64(&after, "id"), Some(2));
    // Read-your-writes on one connection: the request behind the ack
    // serves under the λ the signal published.
    assert!(
        lambda(&after) > lambda(&before),
        "{before:?} then {after:?}"
    );
    let report = drain(addr, server);
    assert_ledger_exact(&report);
    assert_eq!(report.engine.feedback_applied, 1);
    assert_eq!(report.lambda_version, 2);
    assert_eq!(report.frames_out, 4);
}
