//! The NDJSON-over-TCP wire protocol: length-prefixed JSON frames.
//!
//! Every frame on the socket — in either direction — is a big-endian
//! `u32` byte length followed by exactly that many bytes of UTF-8 JSON.
//! The length prefix makes framing unambiguous under partial reads (a
//! mid-frame disconnect is distinguishable from a clean close) and lets
//! the server reject an oversized frame *before* buffering it.
//!
//! Client → server frames are one JSON object each, the same shape the
//! CLI's stdin serve mode reads:
//!
//! * a **request**: `{"id": 7, "profile": {"industry": "banking"},
//!   "offering": "general_purpose", "customer": 3, "subscription": 1,
//!   "resource_group": 9, "deadline_ms": 50}` — every field optional
//!   (`id` defaults to 0 and is echoed back verbatim; each connection's
//!   replies come back in its request order, so ids need not be unique);
//! * a **feedback signal**: any object with a `gamma` field (`gamma` ∈
//!   [-1, 1] plus the path ids and optional `offering`), acknowledged
//!   with `{"ack": "feedback"}` after the λ publish lands, or refused
//!   with `{"error": "...", "kind": "not_leader"}` by a standby that has
//!   not promoted and with kind `rejected` otherwise (draining, fenced);
//! * a **control frame**: `{"op": "ping"}` (answered `{"pong": true}`) or
//!   `{"op": "drain"}` (acknowledged, then the server drains and exits).
//!
//! Server → client frames echo the request id:
//! `{"id": 7, "ok": {...}}` or `{"id": 7, "error": "...", "kind": "..."}`
//! plus `degraded` and `latency_ns`. Protocol-level rejections carry a
//! typed `kind` (see [`WireError::kind`]) so clients can distinguish an
//! oversized frame from garbage JSON from an admission rejection.

use crate::types::{ServeRequest, ServeResponse};
use lorentz_core::SatisfactionSignal;
use lorentz_types::framing::{FrameCodec, FrameError, StreamError};
use lorentz_types::{
    CustomerId, ProfileSchema, ResourceGroupId, ResourcePath, ServerOffering, SubscriptionId,
};
use serde::{Deserialize, Serialize, Value};
use std::io::{Read, Write};
use std::time::Duration;
use thiserror::Error;

/// Default cap on a single frame's payload (1 MiB). A request frame is a
/// few hundred bytes; anything near this is a protocol error or abuse.
pub const MAX_FRAME_LEN_DEFAULT: usize = 1 << 20;

/// Why a frame could not be read or understood.
#[derive(Debug, Error)]
pub enum WireError {
    /// The peer closed the connection cleanly between frames.
    #[error("connection closed")]
    Closed,
    /// The peer disconnected mid-frame (length prefix or payload cut
    /// short) — a torn frame, not a clean close.
    #[error("connection closed mid-frame")]
    Truncated,
    /// The declared frame length exceeds the configured cap; the payload
    /// was not read.
    #[error("frame of {len} bytes exceeds the {max}-byte cap")]
    TooLarge {
        /// Declared payload length.
        len: usize,
        /// Configured cap.
        max: usize,
    },
    /// The payload was read but is not a usable frame (bad UTF-8, bad
    /// JSON, or bad field types/values).
    #[error("malformed frame: {0}")]
    Malformed(String),
    /// An I/O error other than EOF while reading or writing.
    #[error("socket i/o failed: {0}")]
    Io(#[from] std::io::Error),
}

impl WireError {
    /// The stable `kind` tag error frames carry, so clients can branch
    /// without parsing prose.
    pub fn kind(&self) -> &'static str {
        match self {
            WireError::Closed => "closed",
            WireError::Truncated => "truncated",
            WireError::TooLarge { .. } => "frame_too_large",
            WireError::Malformed(_) => "malformed",
            WireError::Io(_) => "io",
        }
    }
}

/// Translates the shared codec's stream verdicts into this protocol's
/// typed errors, preserving the `kind` tags clients branch on.
fn from_stream_error(e: StreamError) -> WireError {
    match e {
        StreamError::Closed => WireError::Closed,
        StreamError::Truncated => WireError::Truncated,
        StreamError::Frame(FrameError::TooLarge { len, max }) => WireError::TooLarge { len, max },
        // The wire codec has no magic or checksum, so other structural
        // verdicts cannot occur; map defensively rather than panic.
        StreamError::Frame(other) => WireError::Malformed(other.to_string()),
        StreamError::Io(e) => WireError::Io(e),
    }
}

/// Reads one length-prefixed frame, enforcing `max_len` before buffering
/// the payload. Framing is [`FrameCodec::wire`] — the same codec the
/// replication handshake and the WAL share.
///
/// # Errors
/// [`WireError::Closed`] on EOF before the first length byte,
/// [`WireError::Truncated`] on EOF inside the prefix or payload,
/// [`WireError::TooLarge`] for an over-cap declared length, and
/// [`WireError::Io`] for any other socket error.
pub fn read_frame(reader: &mut impl Read, max_len: usize) -> Result<Vec<u8>, WireError> {
    FrameCodec::wire(max_len)
        .read_frame(reader)
        .map_err(from_stream_error)
}

/// Writes one length-prefixed frame and flushes it.
///
/// # Errors
/// Any socket error; a frame over the codec's absolute cap is an
/// `InvalidInput` error (never produced by this crate's encoders).
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    FrameCodec::wire(lorentz_types::framing::ABSOLUTE_MAX_PAYLOAD).write_frame(writer, payload)
}

/// One decoded client frame.
#[derive(Debug)]
pub enum ClientFrame {
    /// A recommendation request for the engine's bounded queue.
    Request(ServeRequest),
    /// A satisfaction signal for the λ-writer.
    Feedback(SatisfactionSignal),
    /// Liveness probe; answered immediately by the connection's reader.
    Ping,
    /// Graceful-drain request: the server stops accepting, finishes every
    /// in-flight request, and exits.
    Drain,
}

/// Reads an optional unsigned-integer field.
fn opt_u64_field(item: &Value, field: &str) -> Result<Option<u64>, WireError> {
    match item.get_field(field) {
        None => Ok(None),
        Some(v) => u64::from_value(v)
            .map(Some)
            .map_err(|_| WireError::Malformed(format!("{field} must be an unsigned integer"))),
    }
}

/// Parses one client frame payload against the deployment's profile
/// schema. The accepted shapes mirror the CLI's serve stream (see the
/// module docs).
///
/// # Errors
/// [`WireError::Malformed`] describing the first offending field.
pub fn parse_client_frame(
    payload: &[u8],
    schema: &ProfileSchema,
) -> Result<ClientFrame, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| WireError::Malformed("frame is not UTF-8".into()))?;
    let value = serde_json::parse(text).map_err(|e| WireError::Malformed(e.to_string()))?;
    if value.as_map().is_none() {
        return Err(WireError::Malformed("frame must be a JSON object".into()));
    }
    if let Some(op) = value.get_field("op") {
        return match op.as_str() {
            Some("ping") => Ok(ClientFrame::Ping),
            Some("drain") => Ok(ClientFrame::Drain),
            Some(other) => Err(WireError::Malformed(format!("unknown op '{other}'"))),
            None => Err(WireError::Malformed("op must be a string".into())),
        };
    }
    let offering = match value.get_field("offering") {
        None => ServerOffering::GeneralPurpose,
        Some(v) => v
            .as_str()
            .ok_or_else(|| WireError::Malformed("offering must be a string".into()))?
            .parse()
            .map_err(|e: lorentz_types::LorentzError| WireError::Malformed(e.to_string()))?,
    };
    let path_id = |field: &str| -> Result<u32, WireError> {
        opt_u64_field(&value, field)?
            .map(|v| {
                u32::try_from(v)
                    .map_err(|_| WireError::Malformed(format!("{field} must fit in 32 bits")))
            })
            .transpose()
            .map(|v| v.unwrap_or(0))
    };
    let path = ResourcePath::new(
        CustomerId(path_id("customer")?),
        SubscriptionId(path_id("subscription")?),
        ResourceGroupId(path_id("resource_group")?),
    );
    if let Some(g) = value.get_field("gamma") {
        let gamma = f64::from_value(g)
            .map_err(|_| WireError::Malformed("gamma must be a number".into()))?;
        let signal = SatisfactionSignal::new(path, offering, gamma)
            .map_err(|e| WireError::Malformed(e.to_string()))?;
        return Ok(ClientFrame::Feedback(signal));
    }
    let mut profile: Vec<Option<String>> = vec![None; schema.len()];
    if let Some(p) = value.get_field("profile") {
        let entries = p
            .as_map()
            .ok_or_else(|| WireError::Malformed("profile must be an object".into()))?;
        for (name, v) in entries {
            let feature = schema.feature_id(name).ok_or_else(|| {
                WireError::Malformed(format!(
                    "unknown profile feature '{name}' (schema: {:?})",
                    schema.names()
                ))
            })?;
            let s = v.as_str().ok_or_else(|| {
                WireError::Malformed(format!("profile value for '{name}' must be a string"))
            })?;
            profile[feature.index()] = Some(s.to_owned());
        }
    }
    Ok(ClientFrame::Request(ServeRequest {
        id: opt_u64_field(&value, "id")?.unwrap_or(0),
        profile,
        offering,
        path,
        deadline: opt_u64_field(&value, "deadline_ms")?.map(Duration::from_millis),
    }))
}

/// Room for a typical recommendation response (about 350 bytes), so
/// encoding one does not regrow its buffer.
const RESPONSE_CAPACITY: usize = 512;

/// Encodes a served response, echoing the client's correlation id. The
/// frame is
/// written straight from the typed recommendation: `{"id":…,"ok":…,
/// "degraded":…,"latency_ns":…}`, or `"error"` and `"kind"` in place of
/// `"ok"`.
pub fn encode_response(client_id: u64, response: &ServeResponse) -> Vec<u8> {
    let mut out = String::with_capacity(RESPONSE_CAPACITY);
    out.push_str("{\"id\":");
    client_id.write_json(&mut out);
    match &response.result {
        Ok(rec) => {
            out.push_str(",\"ok\":");
            rec.write_json(&mut out);
        }
        Err(e) => {
            out.push_str(",\"error\":");
            e.to_string().write_json(&mut out);
            out.push_str(",\"kind\":\"serve\"");
        }
    }
    out.push_str(",\"degraded\":");
    response.degraded.write_json(&mut out);
    out.push_str(",\"latency_ns\":");
    response.latency_ns.write_json(&mut out);
    out.push('}');
    out.into_bytes()
}

/// Encodes a typed protocol error frame: `{"id": ..., "error": "...",
/// "kind": "..."}`. `client_id` is `None` when the error is not
/// attributable to a specific request (e.g. an unparseable frame).
pub fn encode_error(client_id: Option<u64>, kind: &str, message: &str) -> Vec<u8> {
    let mut out = String::with_capacity(48 + message.len() + kind.len());
    out.push('{');
    if let Some(id) = client_id {
        out.push_str("\"id\":");
        id.write_json(&mut out);
        out.push(',');
    }
    out.push_str("\"error\":");
    message.write_json(&mut out);
    out.push_str(",\"kind\":");
    kind.write_json(&mut out);
    out.push('}');
    out.into_bytes()
}

/// Encodes a one-field acknowledgement frame (`{"ack": "drain"}`,
/// `{"ack": "feedback"}`, `{"pong": true}`).
pub fn encode_ack(key: &str, value: impl Serialize) -> Vec<u8> {
    let mut out = String::with_capacity(32);
    out.push('{');
    key.write_json(&mut out);
    out.push(':');
    value.write_json(&mut out);
    out.push('}');
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ServeError;
    use lorentz_core::explain::BucketSummary;
    use lorentz_core::{Explanation, Recommendation};
    use lorentz_types::{Capacity, LorentzError, Sku};

    fn schema() -> ProfileSchema {
        ProfileSchema::new(vec!["industry", "customer"]).unwrap()
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut reader = &buf[..];
        assert_eq!(read_frame(&mut reader, 64).unwrap(), b"{\"op\":\"ping\"}");
        assert_eq!(read_frame(&mut reader, 64).unwrap(), b"");
        assert!(matches!(
            read_frame(&mut reader, 64),
            Err(WireError::Closed)
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_before_buffering() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[b'x'; 100]).unwrap();
        let err = read_frame(&mut &buf[..], 10).unwrap_err();
        assert!(matches!(err, WireError::TooLarge { len: 100, max: 10 }));
        assert_eq!(err.kind(), "frame_too_large");
    }

    #[test]
    fn torn_frames_are_truncated_not_closed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello world").unwrap();
        // Cut inside the payload.
        let cut = &buf[..buf.len() - 3];
        assert!(matches!(
            read_frame(&mut &cut[..], 64),
            Err(WireError::Truncated)
        ));
        // Cut inside the length prefix.
        assert!(matches!(
            read_frame(&mut &buf[..2], 64),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn parses_requests_feedback_and_control_frames() {
        let schema = schema();
        let frame = parse_client_frame(
            br#"{"id": 9, "profile": {"industry": "banking"}, "customer": 3, "deadline_ms": 50}"#,
            &schema,
        )
        .unwrap();
        match frame {
            ClientFrame::Request(r) => {
                assert_eq!(r.id, 9);
                assert_eq!(r.profile, vec![Some("banking".to_owned()), None]);
                assert_eq!(r.path.customer, CustomerId(3));
                assert_eq!(r.deadline, Some(Duration::from_millis(50)));
            }
            other => panic!("expected request, got {other:?}"),
        }
        assert!(matches!(
            parse_client_frame(br#"{"gamma": -0.5, "customer": 1}"#, &schema).unwrap(),
            ClientFrame::Feedback(_)
        ));
        assert!(matches!(
            parse_client_frame(br#"{"op": "ping"}"#, &schema).unwrap(),
            ClientFrame::Ping
        ));
        assert!(matches!(
            parse_client_frame(br#"{"op": "drain"}"#, &schema).unwrap(),
            ClientFrame::Drain
        ));
    }

    /// A frame the way the tree-based encoder built it: a `Value` map of
    /// `fields`, in order, written as compact JSON.
    fn tree_frame(fields: Vec<(&str, Value)>) -> Vec<u8> {
        let map = fields.into_iter().map(|(k, v)| (k.to_owned(), v));
        serde_json::to_string(&Value::Map(map.collect()))
            .unwrap()
            .into_bytes()
    }

    fn recommendation() -> Recommendation {
        Recommendation {
            sku: Sku::new("gp-8vc", Capacity::scalar(8.0)),
            stage2_capacity: 5.25,
            lambda: -0.5,
            explanation: Explanation::HierarchicalBucket {
                feature: "industry".into(),
                value: "bank \"east\"".into(),
                level: 1,
                percentile: 95.0,
                bucket: BucketSummary::from_sorted(&[2.0, 4.0, 8.0]),
            },
        }
    }

    #[test]
    fn response_frames_keep_their_bytes() {
        let results = || {
            [
                Ok(recommendation()),
                Err(ServeError::Saturated(64)),
                Err(ServeError::Draining),
                Err(ServeError::DeadlineExceeded(1_500)),
                Err(ServeError::Recommend(LorentzError::NotFound(
                    "offering\tx".into(),
                ))),
                Err(ServeError::Panicked("boom\n".into())),
                Err(ServeError::Fenced {
                    term: 2,
                    observed: 3,
                }),
            ]
        };
        for degraded in [false, true] {
            for result in results() {
                let mut fields = vec![("id", Value::UInt(u64::MAX))];
                match &result {
                    Ok(rec) => fields.push(("ok", rec.to_value())),
                    Err(e) => {
                        fields.push(("error", Value::Str(e.to_string())));
                        fields.push(("kind", Value::Str("serve".into())));
                    }
                }
                fields.push(("degraded", Value::Bool(degraded)));
                fields.push(("latency_ns", Value::UInt(12_345)));
                let response = ServeResponse {
                    id: 7,
                    result,
                    degraded,
                    latency_ns: 12_345,
                };
                assert_eq!(
                    String::from_utf8(encode_response(u64::MAX, &response)).unwrap(),
                    String::from_utf8(tree_frame(fields)).unwrap()
                );
            }
        }
    }

    #[test]
    fn error_and_ack_frames_keep_their_bytes() {
        let message = "bad \"frame\" \\ at byte 3\n";
        assert_eq!(
            encode_error(Some(9), "malformed", message),
            tree_frame(vec![
                ("id", Value::UInt(9)),
                ("error", Value::Str(message.into())),
                ("kind", Value::Str("malformed".into())),
            ])
        );
        assert_eq!(
            encode_error(None, "frame_too_large", message),
            tree_frame(vec![
                ("error", Value::Str(message.into())),
                ("kind", Value::Str("frame_too_large".into())),
            ])
        );
        for (frame, key, value, text) in [
            (
                encode_ack("pong", true),
                "pong",
                Value::Bool(true),
                r#"{"pong":true}"#,
            ),
            (
                encode_ack("ack", "feedback"),
                "ack",
                Value::Str("feedback".into()),
                r#"{"ack":"feedback"}"#,
            ),
            (
                encode_ack("ack", "drain"),
                "ack",
                Value::Str("drain".into()),
                r#"{"ack":"drain"}"#,
            ),
        ] {
            assert_eq!(frame, tree_frame(vec![(key, value)]));
            assert_eq!(frame, text.as_bytes());
        }
    }

    #[test]
    fn garbage_frames_produce_typed_malformed_errors() {
        let schema = schema();
        for garbage in [
            &b"\xff\xfe"[..],
            b"not json",
            b"[1, 2]",
            br#"{"op": "reboot"}"#,
            br#"{"gamma": 99, "customer": 1}"#,
            br#"{"profile": {"unknown_feature": "x"}}"#,
            br#"{"customer": 5000000000}"#,
        ] {
            let err = parse_client_frame(garbage, &schema).unwrap_err();
            assert_eq!(err.kind(), "malformed", "payload: {garbage:?}");
        }
    }

    #[test]
    fn ids_past_u64_are_malformed_not_saturated() {
        let schema = schema();
        for frame in [&br#"{"id": 1e20}"#[..], br#"{"id": 18446744073709551616}"#] {
            let err = parse_client_frame(frame, &schema).unwrap_err();
            assert_eq!(err.kind(), "malformed", "payload: {frame:?}");
            assert!(
                err.to_string().contains("id must be an unsigned integer"),
                "{err}"
            );
        }
        let max = parse_client_frame(br#"{"id": 18446744073709551615}"#, &schema).unwrap();
        assert!(matches!(max, ClientFrame::Request(r) if r.id == u64::MAX));
    }
}
