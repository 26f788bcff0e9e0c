//! Replication handshake wire types.
//!
//! A follower opens a TCP connection to the leader's replication listener
//! and the two exchange exactly one JSON frame each (framed by the client
//! wire codec, [`crate::framing::FrameCodec::wire`]):
//!
//! ```text
//! follower -> leader   {"subscribe": {"last_epoch": N, "term": T}}
//! leader   -> follower {"ok": {"mode": "resume", "from_epoch": N, "leader_epoch": M, "leader_term": T}}
//!                    | {"ok": {"mode": "full_resync", "from_epoch": 0, "leader_epoch": M, "leader_term": T}}
//!                    | {"error": {"kind": "follower_ahead", "follower": N, "leader": M}}
//!                    | {"error": {"kind": "stale_leader", "leader_term": T, "observed_term": U}}
//! ```
//!
//! After an `ok` the leader switches the connection to a one-way stream of
//! CRC-framed WAL records — the exact bytes it appends to its own log — and
//! never reads from the socket again.
//!
//! # Epoch-gap semantics
//!
//! Epochs are minted by one global counter on the leader, but each shard's
//! λ-store advances only when a delta routes to it, so any single replicated
//! stream (and any shard within it) observes epochs that advance *with
//! gaps*. `last_epoch` therefore means "the highest epoch I have applied",
//! not "I have applied every epoch below this"; the leader resumes from the
//! first record with `epoch > last_epoch`, and followers accept any forward
//! jump while rejecting regression ([`crate::DeltaCorruption::EpochRegression`]).
//!
//! Two asymmetric positions get typed outcomes rather than silent behavior:
//!
//! * follower *behind the log's start* (the leader compacted or rotated its
//!   WAL past `last_epoch`): not an error — the leader answers
//!   `mode: full_resync` and the follower must reset its λ-state before
//!   applying the stream;
//! * follower *ahead of the leader* (`last_epoch` beyond the leader's own
//!   epoch): a [`HandshakeRejection::FollowerAhead`] error, because the
//!   "leader" is stale and syncing would silently rewind the follower.
//!
//! # Leader terms
//!
//! Every serving leader carries a monotonically increasing **term**,
//! persisted as a framed record in its WAL and incremented on every
//! promotion. The handshake stamps terms in both directions: the follower
//! reports the highest term it has observed (`term`), and the ack carries
//! the leader's own term (`leader_term`). Both fields are required; a frame
//! without one is `malformed`. A leader contacted by a subscriber that has
//! observed a *higher* term knows it has been superseded: it answers
//! [`HandshakeRejection::StaleLeader`] and fences itself. A follower whose
//! ack carries a term *below* what it has already observed refuses the
//! stream for the same reason — applying a stale leader's frames would
//! fork the replica WAL.

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// The first (and only) frame a follower sends: its resume position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscribeRequest {
    /// Highest epoch the follower has durably applied; `0` requests the
    /// stream from the beginning.
    pub last_epoch: u64,
    /// Highest leader term the follower has observed (from term records
    /// it replayed or acks it received).
    pub term: u64,
}

/// How the leader will bring this follower up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeMode {
    /// Replay on-disk records with `epoch > last_epoch`, then live-tail.
    Resume,
    /// The log no longer reaches back to `last_epoch`: the follower must
    /// discard its λ-state and apply the full stream from the log's start.
    FullResync,
}

/// The leader's acceptance of a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscribeAck {
    /// Resume or full-resync (see [`ResumeMode`]).
    pub mode: ResumeMode,
    /// The epoch replay starts after (equals the request's `last_epoch` on
    /// resume, `0` on full resync).
    pub from_epoch: u64,
    /// The leader's current epoch at subscription time.
    pub leader_epoch: u64,
    /// The leader's current term.
    pub leader_term: u64,
}

/// A typed refusal, sent instead of an ack and followed by connection close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeRejection {
    /// The follower's `last_epoch` is beyond the leader's own epoch — the
    /// leader is stale (or the follower is pointed at the wrong cluster)
    /// and resuming would silently rewind the follower.
    FollowerAhead {
        /// The follower's claimed epoch.
        follower: u64,
        /// The leader's current epoch.
        leader: u64,
    },
    /// The subscriber has observed a term above the answering leader's
    /// own — this leader has been superseded by a newer promotion and
    /// must fence itself instead of streaming.
    StaleLeader {
        /// The answering leader's own term.
        leader_term: u64,
        /// The higher term the subscriber reported.
        observed_term: u64,
    },
    /// The subscribe frame did not parse.
    Malformed(String),
}

impl HandshakeRejection {
    /// Stable machine-readable kind string used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            HandshakeRejection::FollowerAhead { .. } => "follower_ahead",
            HandshakeRejection::StaleLeader { .. } => "stale_leader",
            HandshakeRejection::Malformed(_) => "malformed",
        }
    }
}

impl std::fmt::Display for HandshakeRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeRejection::FollowerAhead { follower, leader } => write!(
                f,
                "follower at epoch {follower} is ahead of leader at epoch {leader}"
            ),
            HandshakeRejection::StaleLeader {
                leader_term,
                observed_term,
            } => write!(
                f,
                "leader at term {leader_term} is stale: a term-{observed_term} leader supersedes it"
            ),
            HandshakeRejection::Malformed(msg) => write!(f, "malformed subscribe frame: {msg}"),
        }
    }
}

impl std::error::Error for HandshakeRejection {}

/// The leader's single handshake reply: an ack or a typed rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscribeReply {
    /// Subscription accepted; the WAL stream follows.
    Ok(SubscribeAck),
    /// Subscription refused; the leader closes the connection.
    Err(HandshakeRejection),
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, SerdeError> {
    v.get_field(name)
        .ok_or_else(|| SerdeError::custom(format!("handshake frame missing field '{name}'")))
}

impl Serialize for SubscribeRequest {
    fn to_value(&self) -> Value {
        Value::Map(vec![(
            "subscribe".to_owned(),
            Value::Map(vec![
                ("last_epoch".to_owned(), self.last_epoch.to_value()),
                ("term".to_owned(), self.term.to_value()),
            ]),
        )])
    }
}

impl Deserialize for SubscribeRequest {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let body = field(v, "subscribe")?;
        Ok(SubscribeRequest {
            last_epoch: u64::from_value(field(body, "last_epoch")?)?,
            term: u64::from_value(field(body, "term")?)?,
        })
    }
}

impl Serialize for SubscribeReply {
    fn to_value(&self) -> Value {
        match self {
            SubscribeReply::Ok(ack) => {
                let mode = match ack.mode {
                    ResumeMode::Resume => "resume",
                    ResumeMode::FullResync => "full_resync",
                };
                Value::Map(vec![(
                    "ok".to_owned(),
                    Value::Map(vec![
                        ("mode".to_owned(), Value::Str(mode.to_owned())),
                        ("from_epoch".to_owned(), ack.from_epoch.to_value()),
                        ("leader_epoch".to_owned(), ack.leader_epoch.to_value()),
                        ("leader_term".to_owned(), ack.leader_term.to_value()),
                    ]),
                )])
            }
            SubscribeReply::Err(rej) => {
                let mut body = vec![("kind".to_owned(), Value::Str(rej.kind().to_owned()))];
                match rej {
                    HandshakeRejection::FollowerAhead { follower, leader } => {
                        body.push(("follower".to_owned(), follower.to_value()));
                        body.push(("leader".to_owned(), leader.to_value()));
                    }
                    HandshakeRejection::StaleLeader {
                        leader_term,
                        observed_term,
                    } => {
                        body.push(("leader_term".to_owned(), leader_term.to_value()));
                        body.push(("observed_term".to_owned(), observed_term.to_value()));
                    }
                    HandshakeRejection::Malformed(msg) => {
                        body.push(("message".to_owned(), Value::Str(msg.clone())));
                    }
                }
                Value::Map(vec![("error".to_owned(), Value::Map(body))])
            }
        }
    }
}

impl Deserialize for SubscribeReply {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        if let Some(body) = v.get_field("ok") {
            let mode = match field(body, "mode")?.as_str() {
                Some("resume") => ResumeMode::Resume,
                Some("full_resync") => ResumeMode::FullResync,
                other => {
                    return Err(SerdeError::custom(format!("unknown resume mode {other:?}")));
                }
            };
            return Ok(SubscribeReply::Ok(SubscribeAck {
                mode,
                from_epoch: u64::from_value(field(body, "from_epoch")?)?,
                leader_epoch: u64::from_value(field(body, "leader_epoch")?)?,
                leader_term: u64::from_value(field(body, "leader_term")?)?,
            }));
        }
        if let Some(body) = v.get_field("error") {
            let rejection = match field(body, "kind")?.as_str() {
                Some("follower_ahead") => HandshakeRejection::FollowerAhead {
                    follower: u64::from_value(field(body, "follower")?)?,
                    leader: u64::from_value(field(body, "leader")?)?,
                },
                Some("stale_leader") => HandshakeRejection::StaleLeader {
                    leader_term: u64::from_value(field(body, "leader_term")?)?,
                    observed_term: u64::from_value(field(body, "observed_term")?)?,
                },
                Some("malformed") => HandshakeRejection::Malformed(
                    field(body, "message")?
                        .as_str()
                        .unwrap_or_default()
                        .to_owned(),
                ),
                other => {
                    return Err(SerdeError::custom(format!(
                        "unknown rejection kind {other:?}"
                    )));
                }
            };
            return Ok(SubscribeReply::Err(rejection));
        }
        Err(SerdeError::custom(
            "handshake reply must be {\"ok\": ...} or {\"error\": ...}",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_request_roundtrips() {
        let req = SubscribeRequest {
            last_epoch: 42,
            term: 3,
        };
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"subscribe\""), "{json}");
        assert!(json.contains("\"last_epoch\""), "{json}");
        assert!(json.contains("\"term\""), "{json}");
        let back: SubscribeRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn replies_roundtrip() {
        let cases = [
            SubscribeReply::Ok(SubscribeAck {
                mode: ResumeMode::Resume,
                from_epoch: 7,
                leader_epoch: 19,
                leader_term: 2,
            }),
            SubscribeReply::Ok(SubscribeAck {
                mode: ResumeMode::FullResync,
                from_epoch: 0,
                leader_epoch: 19,
                leader_term: 1,
            }),
            SubscribeReply::Err(HandshakeRejection::FollowerAhead {
                follower: 20,
                leader: 19,
            }),
            SubscribeReply::Err(HandshakeRejection::StaleLeader {
                leader_term: 2,
                observed_term: 5,
            }),
            SubscribeReply::Err(HandshakeRejection::Malformed("not json".to_owned())),
        ];
        for reply in cases {
            let json = serde_json::to_string(&reply).unwrap();
            let back: SubscribeReply = serde_json::from_str(&json).unwrap();
            assert_eq!(back, reply, "{json}");
        }
    }

    #[test]
    fn frames_without_terms_are_rejected() {
        // A subscribe frame without `term` and an ack without
        // `leader_term` fail to parse, naming the missing field; the
        // leader answers the former with a typed `malformed` rejection.
        let err = serde_json::from_str::<SubscribeRequest>(r#"{"subscribe": {"last_epoch": 9}}"#)
            .unwrap_err();
        assert!(err.to_string().contains("'term'"), "{err}");
        let err = serde_json::from_str::<SubscribeReply>(
            r#"{"ok": {"mode": "resume", "from_epoch": 9, "leader_epoch": 12}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("'leader_term'"), "{err}");
    }

    #[test]
    fn rejection_kinds_are_stable() {
        assert_eq!(
            HandshakeRejection::FollowerAhead {
                follower: 1,
                leader: 0
            }
            .kind(),
            "follower_ahead"
        );
        assert_eq!(
            HandshakeRejection::StaleLeader {
                leader_term: 1,
                observed_term: 2
            }
            .kind(),
            "stale_leader"
        );
        assert_eq!(
            HandshakeRejection::Malformed(String::new()).kind(),
            "malformed"
        );
    }
}
