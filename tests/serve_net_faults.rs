//! Fault injection on the TCP front end, driven by the `serve.net.*` fail
//! points: a server killed mid-response leaves the client with a clean
//! truncated-frame error (never a corrupt-but-complete frame), a refused
//! accept is contained, and the engine ledger closes exactly either way.
//!
//! Run with `cargo test --features fault-injection --test serve_net_faults`.

#![cfg(feature = "fault-injection")]

use lorentz::fault::{registry, FailAction, Trigger};
use lorentz::serve::wire::{read_frame, write_frame, WireError};
use lorentz::serve::{serve_net, NetConfig, NetReport, ServeConfig, ServingEngine};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

mod common;
use common::deployment;

fn start_server() -> (SocketAddr, JoinHandle<NetReport>) {
    let deployment = deployment();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (engine, responses) =
        ServingEngine::start(Arc::clone(&deployment), ServeConfig::default()).unwrap();
    let handle = std::thread::spawn(move || {
        serve_net(
            deployment,
            engine,
            responses,
            listener,
            NetConfig::default(),
        )
        .unwrap()
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

fn drain(addr: SocketAddr, server: JoinHandle<NetReport>) -> NetReport {
    let mut stream = connect(addr);
    write_frame(&mut stream, b"{\"op\": \"drain\"}").unwrap();
    let _ = read_frame(&mut stream, 1 << 20).unwrap();
    server.join().unwrap()
}

#[test]
fn kill_mid_response_leaves_client_a_clean_error_and_ledger_exact() {
    let (addr, server) = start_server();
    // The first response write is torn at 50% and the connection killed —
    // the server falling over mid-response, as the client sees it.
    registry().configure("serve.net.write", Trigger::Once, FailAction::Partial(0.5));
    let mut stream = connect(addr);
    write_frame(
        &mut stream,
        b"{\"id\": 1, \"profile\": {}, \"customer\": 1}",
    )
    .unwrap();
    // The client never sees a corrupt-but-complete frame: the length
    // prefix promises more bytes than arrive, so the read fails with the
    // typed truncation error, not garbage JSON.
    match read_frame(&mut stream, 1 << 20) {
        Err(WireError::Truncated | WireError::Io(_)) => {}
        other => panic!("expected a truncated frame, got {other:?}"),
    }
    // The server survives: a fresh connection serves normally.
    let mut healthy = connect(addr);
    write_frame(
        &mut healthy,
        b"{\"id\": 2, \"profile\": {}, \"customer\": 2}",
    )
    .unwrap();
    let payload = read_frame(&mut healthy, 1 << 20).unwrap();
    assert!(String::from_utf8(payload).unwrap().contains("\"ok\""));
    let report = drain(addr, server);
    // The torn response was still ANSWERED by the engine — the wire loss
    // is accounted on the net side, never smudged into the ledger.
    assert_eq!(
        report.engine.submitted,
        report.engine.accepted + report.engine.rejected
    );
    assert_eq!(report.engine.accepted, report.engine.answered);
    assert_eq!(report.engine.answered, 2);
    assert_eq!(report.disconnects, 1);
}

#[test]
fn refused_accept_is_contained_and_later_connections_serve() {
    let (addr, server) = start_server();
    registry().configure("serve.net.accept", Trigger::Once, FailAction::Error);
    // The refused connection is simply dropped by the server; the client
    // observes EOF (or a reset) on its first read.
    {
        let mut refused = connect(addr);
        let _ = write_frame(&mut refused, b"{\"op\": \"ping\"}");
        assert!(
            read_frame(&mut refused, 1 << 20).is_err(),
            "the refused connection must never be served"
        );
    }
    std::thread::sleep(Duration::from_millis(20));
    let mut healthy = connect(addr);
    write_frame(&mut healthy, b"{\"op\": \"ping\"}").unwrap();
    let payload = read_frame(&mut healthy, 1 << 20).unwrap();
    assert!(String::from_utf8(payload).unwrap().contains("pong"));
    let report = drain(addr, server);
    assert_eq!(report.engine.submitted, 0);
    assert_eq!(report.disconnects, 1);
}
