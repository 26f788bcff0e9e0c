//! Harness-side network clients: feedback load over the client wire
//! protocol, and raw subscribe probes against replication listeners. Both
//! reuse the production frame codec (`lorentz_serve::wire`) so the
//! harness speaks byte-for-byte what real clients and followers speak.

use crate::rng::SplitMix64;
use crate::ChaosError;
use lorentz_serve::wire;
use lorentz_types::{HandshakeRejection, SubscribeReply, SubscribeRequest};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const FRAME_CAP: usize = 1 << 20;

fn connect(addr: SocketAddr, timeout: Duration) -> Result<TcpStream, ChaosError> {
    let stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| ChaosError::Net(format!("connect {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| ChaosError::Net(format!("socket options on {addr}: {e}")))?;
    Ok(stream)
}

/// One feedback signal's wire JSON, with a seeded path so different seeds
/// exercise different λ keys.
fn feedback_json(rng: &mut SplitMix64) -> String {
    let customer = rng.range(1, 4);
    let subscription = rng.range(1, 3);
    let resource_group = rng.range(1, 5);
    let gamma: i64 = if rng.chance(1, 2) { 1 } else { -1 };
    format!(
        "{{\"gamma\": {gamma}, \"customer\": {customer}, \
         \"subscription\": {subscription}, \"resource_group\": {resource_group}}}"
    )
}

/// Drives `count` feedback signals at a leader's client port, waiting for
/// each `{"ack": "feedback"}` before sending the next. Returns how many
/// were acked; transport errors and rejection frames end the batch early
/// (the caller decides whether that is expected — e.g. a frozen leader).
pub fn drive_feedback(
    addr: SocketAddr,
    count: u64,
    rng: &mut SplitMix64,
    timeout: Duration,
) -> (u64, Vec<String>) {
    let mut acked = 0;
    let mut rejections = Vec::new();
    let mut stream = match connect(addr, timeout) {
        Ok(s) => s,
        Err(e) => return (0, vec![e.to_string()]),
    };
    for _ in 0..count {
        let payload = feedback_json(rng);
        if wire::write_frame(&mut stream, payload.as_bytes()).is_err() {
            rejections.push("write failed mid-batch".to_owned());
            break;
        }
        match wire::read_frame(&mut stream, FRAME_CAP) {
            Ok(reply) => {
                let text = String::from_utf8_lossy(&reply).into_owned();
                if text.contains("\"ack\"") {
                    acked += 1;
                } else {
                    rejections.push(text);
                }
            }
            Err(e) => {
                rejections.push(format!("no ack: {e}"));
                break;
            }
        }
    }
    (acked, rejections)
}

/// Sends one feedback frame and returns the raw reply text (ack or error
/// frame), for probing which nodes take feedback: a fenced leader, a
/// standby that has not promoted, the winner.
pub fn probe_feedback(
    addr: SocketAddr,
    rng: &mut SplitMix64,
    timeout: Duration,
) -> Result<String, ChaosError> {
    let mut stream = connect(addr, timeout)?;
    let payload = feedback_json(rng);
    wire::write_frame(&mut stream, payload.as_bytes())
        .map_err(|e| ChaosError::Net(format!("feedback probe write {addr}: {e}")))?;
    let reply = wire::read_frame(&mut stream, FRAME_CAP)
        .map_err(|e| ChaosError::Net(format!("feedback probe read {addr}: {e}")))?;
    Ok(String::from_utf8_lossy(&reply).into_owned())
}

/// Sends `{"op": "drain"}`, which makes a `--listen` node — leader or
/// standby — drain and exit after acking.
pub fn drain(addr: SocketAddr, timeout: Duration) -> Result<(), ChaosError> {
    let mut stream = connect(addr, timeout)?;
    wire::write_frame(&mut stream, br#"{"op": "drain"}"#)
        .map_err(|e| ChaosError::Net(format!("drain write {addr}: {e}")))?;
    let _ = wire::read_frame(&mut stream, FRAME_CAP);
    Ok(())
}

/// What a subscribe probe against a replication listener observed.
#[derive(Debug)]
pub enum ProbeOutcome {
    /// The leader accepted: it is unfenced and serving at this term.
    Ack {
        /// The leader's current term from the ack.
        leader_term: u64,
    },
    /// The leader refused with `stale_leader`: it is fenced (or was just
    /// fenced by this very probe, when the probe carries a higher term).
    Stale {
        /// The refusing leader's own term.
        leader_term: u64,
        /// The higher term it reported observing.
        observed_term: u64,
    },
    /// Some other typed rejection (e.g. `follower_ahead`).
    Rejected(String),
    /// Nothing is listening (or the handshake tore).
    Unreachable(String),
}

/// Handshakes with a replication listener as a subscriber that has
/// observed `term`, then disconnects. Probing with a term *above* the
/// leader's own is the fencing signal itself: the leader learns it has
/// been superseded and fences before replying.
pub fn probe_subscribe(
    addr: SocketAddr,
    last_epoch: u64,
    term: u64,
    timeout: Duration,
) -> ProbeOutcome {
    let mut stream = match connect(addr, timeout) {
        Ok(s) => s,
        Err(e) => return ProbeOutcome::Unreachable(e.to_string()),
    };
    let request = SubscribeRequest { last_epoch, term };
    let payload = serde_json::to_string(&request).expect("subscribe request serializes");
    if let Err(e) = wire::write_frame(&mut stream, payload.as_bytes()) {
        return ProbeOutcome::Unreachable(format!("handshake write: {e}"));
    }
    let reply = match wire::read_frame(&mut stream, FRAME_CAP) {
        Ok(r) => r,
        Err(e) => return ProbeOutcome::Unreachable(format!("handshake read: {e}")),
    };
    let text = match std::str::from_utf8(&reply) {
        Ok(t) => t,
        Err(_) => return ProbeOutcome::Unreachable("handshake reply not UTF-8".to_owned()),
    };
    match serde_json::from_str::<SubscribeReply>(text) {
        Ok(SubscribeReply::Ok(ack)) => ProbeOutcome::Ack {
            leader_term: ack.leader_term,
        },
        Ok(SubscribeReply::Err(HandshakeRejection::StaleLeader {
            leader_term,
            observed_term,
        })) => ProbeOutcome::Stale {
            leader_term,
            observed_term,
        },
        Ok(SubscribeReply::Err(other)) => ProbeOutcome::Rejected(other.to_string()),
        Err(e) => ProbeOutcome::Unreachable(format!("handshake reply unparsable: {e}")),
    }
}
