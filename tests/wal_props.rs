//! Property tests of the binary WAL record codec: every record and term
//! marker the writer frames decodes back bit for bit — `-0.0`, subnormals,
//! `u32::MAX` ids, empty deltas and epoch `u64::MAX` included — and no
//! mutation of a frame makes the decoder panic, whether the mutation is
//! caught by the frame checksum or reaches the payload decoder under a
//! valid one. A mutated payload the decoder accepts is one the writer
//! could have written: it frames back to the same bytes.

use lorentz::core::personalizer::wal::{frame_record, next_frame, wal_codec, WalEntry};
use lorentz::core::{SatisfactionSignal, SignalWal, WalRecord};
use lorentz::types::{
    CustomerId, LambdaDelta, PathKey, ResourceGroupId, ResourcePath, ServerOffering, SubscriptionId,
};
use proptest::prelude::*;
use std::fmt::Debug;

mod common;
use common::TestDir;

/// Draws from `f` with a fresh value per case.
struct Sampled<F>(F);

impl<T: Debug, F: Fn(&mut TestRng) -> T> Strategy for Sampled<F> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Finite floats, weighted toward the bit patterns a text format would
/// lose or bend: signed zeros, subnormals and the extremes.
fn finite(rng: &mut TestRng) -> f64 {
    const EDGES: [f64; 8] = [
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        1.0 / 3.0,
    ];
    if rng.below(2) == 0 {
        return EDGES[rng.below(EDGES.len() as u64) as usize];
    }
    loop {
        let f = f64::from_bits(rng.next_u64());
        if f.is_finite() {
            return f;
        }
    }
}

/// An id that is `0`, `u32::MAX` or anything between.
fn id(rng: &mut TestRng) -> u32 {
    match rng.below(4) {
        0 => 0,
        1 => u32::MAX,
        _ => rng.next_u64() as u32,
    }
}

fn path(rng: &mut TestRng) -> ResourcePath {
    ResourcePath::new(
        CustomerId(id(rng)),
        SubscriptionId(id(rng)),
        ResourceGroupId(id(rng)),
    )
}

fn record(rng: &mut TestRng) -> WalRecord {
    let signal = SatisfactionSignal {
        path: path(rng),
        offering: ServerOffering::ALL[rng.below(ServerOffering::ALL.len() as u64) as usize],
        gamma: finite(rng),
    };
    let epoch = if rng.below(4) == 0 {
        u64::MAX
    } else {
        rng.next_u64()
    };
    let entries = (0..rng.below(5))
        .map(|_| {
            (
                PathKey::new(path(rng)),
                [finite(rng), finite(rng), finite(rng)],
            )
        })
        .collect();
    WalRecord {
        signal,
        delta: LambdaDelta::new(epoch, entries),
    }
}

/// Every float of `r` as bits, in layout order, so two records compare
/// bit for bit (`-0.0 == 0.0` under `PartialEq`).
fn bits(r: &WalRecord) -> Vec<u64> {
    let mut out = vec![r.signal.gamma.to_bits()];
    for (_, lambdas) in &r.delta.entries {
        out.extend(lambdas.iter().map(|l| l.to_bits()));
    }
    out
}

/// The term-marker frame `SignalWal::append_term` writes.
fn term_frame(term: u64) -> Vec<u8> {
    let mut payload = vec![2u8];
    payload.extend_from_slice(&term.to_le_bytes());
    wal_codec().encode(&payload)
}

/// The frame the writer would produce for a decoded entry.
fn reframe(entry: &WalEntry) -> Vec<u8> {
    match entry {
        WalEntry::Record(r) => frame_record(r).unwrap(),
        WalEntry::Term(t) => term_frame(*t),
    }
}

/// `frame` with one payload bit flipped, cut, lengthened, or a field
/// overwritten, then framed again with a valid checksum.
fn mutated_payload(frame: &[u8], rng: &mut TestRng) -> Vec<u8> {
    let header = wal_codec().header_len();
    let mut payload = frame[header..].to_vec();
    match rng.below(5) {
        0 => {
            let bit = rng.below(payload.len() as u64 * 8) as usize;
            payload[bit / 8] ^= 1 << (bit % 8);
        }
        1 => payload.truncate(rng.below(payload.len() as u64) as usize),
        2 => payload.extend((0..1 + rng.below(48)).map(|_| rng.next_u64() as u8)),
        3 => {
            // A byte from a small alphabet of meaningful values at any
            // position: tags, offering codes, reserved-bit and NaN bytes.
            const BYTES: [u8; 7] = [0, 1, 2, 3, 0x7B, 0x7F, 0xFF];
            let at = rng.below(payload.len() as u64) as usize;
            payload[at] = BYTES[rng.below(BYTES.len() as u64) as usize];
        }
        _ => {
            // The delta's entry count, when the payload has one.
            if payload.len() >= 34 {
                let count = match rng.below(3) {
                    0 => u32::MAX,
                    1 => rng.next_u64() as u32,
                    _ => u32::from_le_bytes(payload[30..34].try_into().unwrap()).wrapping_add(1),
                };
                payload[30..34].copy_from_slice(&count.to_le_bytes());
            }
        }
    }
    wal_codec().encode(&payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A framed record decodes to the same record, bit for bit, consumes
    /// exactly its frame, and frames back to the same bytes.
    #[test]
    fn records_round_trip_bit_exactly(r in Sampled(record)) {
        let frame = frame_record(&r).unwrap();
        let (entry, end) = next_frame(&frame, 0).unwrap().unwrap();
        prop_assert_eq!(end, frame.len());
        let WalEntry::Record(back) = &entry else {
            return Err(TestCaseError::fail(format!("decoded {entry:?}")));
        };
        prop_assert_eq!(back, &r);
        prop_assert_eq!(bits(back), bits(&r));
        prop_assert_eq!(reframe(&entry), frame);
    }

    /// Term markers round-trip through the log, `u64::MAX` included, and
    /// the writer's frame is the one `term_frame` pins.
    #[test]
    fn term_markers_round_trip(term in Sampled(|rng: &mut TestRng| {
        if rng.below(4) == 0 { u64::MAX } else { rng.next_u64() }
    })) {
        let dir = TestDir::new("wal-props-term");
        let path = dir.join("signals.wal");
        let (mut wal, _) = SignalWal::open(&path).unwrap();
        wal.append_term(term).unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        prop_assert_eq!(&bytes, &term_frame(term));
        let (entry, end) = next_frame(&bytes, 0).unwrap().unwrap();
        prop_assert_eq!((entry, end), (WalEntry::Term(term), bytes.len()));
        let (_, recovery) = SignalWal::open(&path).unwrap();
        prop_assert_eq!(recovery.last_term, term);
    }

    /// No mutation of a WAL frame makes the WAL decoder panic: bit flips
    /// and truncations of the framed bytes, and mutated payloads framed
    /// with a valid checksum so they reach the payload decoder. Whatever
    /// it accepts frames back to the bytes it read.
    #[test]
    fn mutated_wal_frames_decode_without_panicking(logs in Sampled(|rng: &mut TestRng| {
        let frame = if rng.below(4) == 0 {
            term_frame(rng.next_u64())
        } else {
            frame_record(&record(rng)).unwrap()
        };
        let mut logs: Vec<Vec<u8>> = (0..8).map(|_| mutated_payload(&frame, rng)).collect();
        for _ in 0..4 {
            let mut bytes = frame.clone();
            let bit = rng.below(bytes.len() as u64 * 8) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            logs.push(bytes);
            logs.push(frame[..rng.below(frame.len() as u64) as usize].to_vec());
        }
        logs
    })) {
        for log in &logs {
            let mut offset = 0;
            while let Some(Ok((entry, end))) = next_frame(log, offset) {
                prop_assert!(end > offset && end <= log.len());
                prop_assert_eq!(reframe(&entry), log[offset..end].to_vec());
                offset = end;
            }
        }
    }
}
