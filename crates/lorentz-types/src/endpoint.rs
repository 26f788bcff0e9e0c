//! Typed transport endpoints (`tcp://HOST:PORT`).
//!
//! Every place the CLI names a transport — the client front end's listen
//! address, a follower's replication upstream, the leader's replication
//! listener — parses one [`Endpoint`] instead of growing its own flag
//! grammar. The one scheme is `tcp://HOST:PORT`, a socket address resolved
//! at connect/bind time; a standby on the leader's machine subscribes over
//! loopback (`tcp://127.0.0.1:PORT`). Anything else — a bare path, a
//! `file:` URI, another scheme — is rejected with an error naming the
//! expected form.

use std::fmt;

use crate::error::LorentzError;

/// A parsed transport endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP authority (`tcp://HOST:PORT`), kept as a string and resolved
    /// by `ToSocketAddrs` at connect/bind time so hostnames work.
    Tcp(String),
}

impl Endpoint {
    /// Parse an endpoint URI; only `tcp://HOST:PORT` is accepted.
    pub fn parse(s: &str) -> Result<Endpoint, LorentzError> {
        let s = s.trim();
        let Some(rest) = s.strip_prefix("tcp://") else {
            return Err(LorentzError::InvalidConfig(format!(
                "endpoint '{s}' is not tcp://HOST:PORT (a follower on the leader's \
                 machine subscribes over loopback, tcp://127.0.0.1:PORT)"
            )));
        };
        let authority = rest.trim_end_matches('/');
        let port_ok = authority.rsplit_once(':').is_some_and(|(host, port)| {
            // An unbracketed IPv6 literal (`tcp://::1:7400`) would
            // silently misparse — the last colon is inside the
            // address — so hosts with colons are rejected outright.
            !host.is_empty() && !host.contains(':') && port.parse::<u16>().is_ok()
        });
        if !port_ok {
            return Err(LorentzError::InvalidConfig(format!(
                "endpoint '{s}' must be tcp://HOST:PORT with a numeric port \
                 (IPv6 literals are not supported)"
            )));
        }
        Ok(Endpoint::Tcp(authority.to_owned()))
    }

    /// The TCP authority (`HOST:PORT`).
    pub fn as_tcp(&self) -> &str {
        match self {
            Endpoint::Tcp(a) => a,
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tcp://{}", self.as_tcp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tcp_endpoints() {
        assert_eq!(
            Endpoint::parse("tcp://127.0.0.1:7400").unwrap(),
            Endpoint::Tcp("127.0.0.1:7400".to_owned())
        );
        assert_eq!(
            Endpoint::parse("tcp://standby.internal:7400").unwrap(),
            Endpoint::Tcp("standby.internal:7400".to_owned())
        );
    }

    #[test]
    fn rejects_malformed_endpoints() {
        assert!(Endpoint::parse("tcp://no-port").is_err());
        assert!(Endpoint::parse("tcp://:7400").is_err());
        assert!(Endpoint::parse("tcp://host:notaport").is_err());
        assert!(Endpoint::parse("udp://host:1").is_err());
        assert!(Endpoint::parse("file:").is_err());
        assert!(Endpoint::parse("/bare/path.wal").is_err());
        // IPv6 hosts would misparse around the colons; rejected outright.
        assert!(Endpoint::parse("tcp://::1:7400").is_err());
        assert!(Endpoint::parse("tcp://[::1]:7400").is_err());
    }

    #[test]
    fn display_roundtrips() {
        let s = "tcp://127.0.0.1:7400";
        assert_eq!(Endpoint::parse(s).unwrap().to_string(), s);
    }
}
