//! A response torn mid-flight on the TCP front end. The client talks to
//! the server through a `FaultProxy` that forwards a prefix of the first
//! response and then severs the connection — the server falling over
//! mid-response, as the client sees it. The client gets a clean
//! truncated-frame error (never a corrupt-but-complete frame), the server
//! keeps serving, and the engine ledger closes exactly.

use lorentz::serve::wire::{read_frame, write_frame, WireError};
use lorentz::serve::{serve_net, NetConfig, NetReport, ServeConfig, ServingEngine};
use lorentz_chaos::proxy::FaultProxy;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

mod common;
use common::deployment;

fn start_server() -> (SocketAddr, JoinHandle<NetReport>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (engine, _) = ServingEngine::start(deployment(), ServeConfig::default()).unwrap();
    let handle =
        std::thread::spawn(move || serve_net(&engine, listener, NetConfig::default()).unwrap());
    (addr, handle)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

/// Connects through `proxy`, bounding reads so a cut that never severs
/// fails the test instead of hanging it.
fn connect_through(proxy: &FaultProxy) -> TcpStream {
    let stream = connect(proxy.local_addr());
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
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
    let proxy = FaultProxy::start(addr).unwrap();
    // The first response crosses as its 4-byte length prefix plus 8
    // payload bytes, then the connection is severed.
    proxy.cut_after(4 + 8);
    let mut stream = connect_through(&proxy);
    write_frame(
        &mut stream,
        b"{\"id\": 1, \"profile\": {}, \"customer\": 1}",
    )
    .unwrap();
    // The client never sees a corrupt-but-complete frame: the length
    // prefix promises more bytes than arrive before end-of-stream, so the
    // read fails with the typed truncation error, not garbage JSON.
    match read_frame(&mut stream, 1 << 20) {
        Err(WireError::Truncated) => {}
        other => panic!("expected a truncated frame, got {other:?}"),
    }
    assert_eq!(proxy.cuts(), 1);
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
    // The server wrote the whole response before the cut, and the severed
    // peer then closed at a frame boundary: an orderly close, which the
    // front end does not count as a disconnect.
    assert_eq!(report.connections, 3);
    assert_eq!(report.disconnects, 0);
}

#[test]
fn a_torn_feedback_ack_still_applies_the_signal() {
    let (addr, server) = start_server();
    let proxy = FaultProxy::start(addr).unwrap();
    // The ack is written only after the λ publish lands, so losing it on
    // the wire loses the client's confirmation, never the signal.
    proxy.cut_after(4 + 6);
    let mut stream = connect_through(&proxy);
    write_frame(&mut stream, b"{\"gamma\": 1.0, \"customer\": 5}").unwrap();
    match read_frame(&mut stream, 1 << 20) {
        Err(WireError::Truncated) => {}
        other => panic!("expected a truncated frame, got {other:?}"),
    }
    assert_eq!(proxy.cuts(), 1);
    let report = drain(addr, server);
    assert_eq!(report.engine.feedback_accepted, 1);
    assert_eq!(report.engine.feedback_applied, 1);
    assert_eq!(report.engine.submitted, 0);
    assert_eq!(report.disconnects, 0);
}
