//! Property-based tests of [`Endpoint`] parsing: every endpoint the
//! grammar accepts survives a parse → Display → parse round trip, and the
//! malformed shapes operators actually type — out-of-range ports, IPv6
//! literals (whose colons would misparse the authority), file paths —
//! are rejected for any generated instance, not just the handful of
//! fixtures in the unit tests.

use lorentz::types::{Endpoint, LorentzError};
use proptest::prelude::*;

const HOST_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-";
const PATH_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789./-_";

fn host(ix: &[usize]) -> String {
    ix.iter()
        .map(|i| HOST_CHARS[i % HOST_CHARS.len()] as char)
        .collect()
}

fn path(ix: &[usize]) -> String {
    ix.iter()
        .map(|i| PATH_CHARS[i % PATH_CHARS.len()] as char)
        .collect()
}

proptest! {
    /// A well-formed `tcp://HOST:PORT` parses to the same authority it
    /// displays, and re-parsing the display lands on an equal endpoint.
    #[test]
    fn tcp_roundtrips(ix in collection::vec(0usize..1000, 1..16), port in any::<u16>()) {
        let h = host(&ix);
        let s = format!("tcp://{h}:{port}");
        let ep = Endpoint::parse(&s).expect("valid tcp endpoint");
        let authority = format!("{h}:{port}");
        prop_assert_eq!(ep.as_tcp(), authority.as_str());
        prop_assert_eq!(ep.to_string(), s.clone());
        prop_assert_eq!(Endpoint::parse(&ep.to_string()).unwrap(), ep);
    }

    /// Ports beyond u16 are rejected no matter the host.
    #[test]
    fn oversized_ports_are_rejected(
        ix in collection::vec(0usize..1000, 1..12),
        beyond in 0u32..1_000_000,
    ) {
        let port = u64::from(u16::MAX) + 1 + u64::from(beyond);
        let s = format!("tcp://{}:{port}", host(&ix));
        prop_assert!(Endpoint::parse(&s).is_err(), "{s} must not parse");
    }

    /// Any host containing a colon — an unbracketed or bracketed IPv6
    /// literal, or a stray separator — is rejected outright, because the
    /// authority split would otherwise silently cut inside the address.
    #[test]
    fn hosts_with_colons_are_rejected(
        ix in collection::vec(0usize..1000, 1..12),
        split in 0usize..12,
        port in any::<u16>(),
    ) {
        let h = host(&ix);
        let split = split.min(h.len());
        let spliced = format!("{}:{}", &h[..split], &h[split..]);
        for s in [
            format!("tcp://{spliced}:{port}"),
            format!("tcp://::1:{port}"),
            format!("tcp://[::1]:{port}"),
        ] {
            prop_assert!(Endpoint::parse(&s).is_err(), "{s} must not parse");
        }
    }

    /// A path is never an endpoint: bare, `file:` or `file://`, it is
    /// rejected as invalid configuration with a message naming the one
    /// accepted form.
    #[test]
    fn paths_are_rejected_naming_tcp(ix in collection::vec(0usize..1000, 1..24)) {
        let p = path(&ix);
        for s in [p.clone(), format!("file:{p}"), format!("file://{p}")] {
            match Endpoint::parse(&s) {
                Err(LorentzError::InvalidConfig(msg)) => {
                    prop_assert!(msg.contains("tcp://HOST:PORT"), "{s}: {msg}");
                }
                other => prop_assert!(false, "{s} must be rejected, got {other:?}"),
            }
        }
    }
}

#[test]
fn empty_and_schemeless_forms_are_rejected() {
    for s in [
        "file:",
        "file://",
        "",
        "   ",
        "tcp://",
        "tcp://h",
        "tcp://:7",
        "udp://h:7",
    ] {
        assert!(Endpoint::parse(s).is_err(), "{s:?} must not parse");
    }
}
