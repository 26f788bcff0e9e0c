//! Negative-path regression tests for the binary WAL record decoder: every
//! rejection branch surfaces as a typed [`StoreCorruption`] — never a
//! panic, never a record — with one test per branch, and a log written in
//! the JSON-era format is refused whole and left byte-identical.
//!
//! Payload offsets, from `personalizer::wal`: tag 0, customer 1..5,
//! subscription 5..9, resource group 9..13, offering 13, γ 14..22, then the
//! packed delta — epoch 22..30, entry count 30..34, and 40-byte entries
//! (16-byte key, three λ) from 34.

use lorentz::core::personalizer::wal::{frame_record, next_frame, wal_codec};
use lorentz::core::{SatisfactionSignal, SignalWal, StoreError, WalRecord};
use lorentz::types::{LambdaDelta, PathKey, StoreCorruption};

mod common;
use common::{hot_path, signal, TestDir};

const OFFERING: usize = 13;
const GAMMA: usize = 14;
const COUNT: usize = 30;
const FIRST_KEY: usize = 34;
const FIRST_LAMBDA: usize = FIRST_KEY + 16;

/// The JSON-era log the previous release wrote: a term marker and two
/// delta records.
const JSON_ERA_WAL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/json-era.wal");

/// A well-formed record payload with one delta entry.
fn good_payload() -> Vec<u8> {
    let record = WalRecord {
        signal: signal(0.5),
        delta: LambdaDelta::new(9, vec![(PathKey::new(hot_path()), [0.25, -0.5, 1.0])]),
    };
    frame_record(&record).unwrap()[wal_codec().header_len()..].to_vec()
}

/// What the walk makes of `frame` at offset 0.
fn verdict(frame: &[u8]) -> StoreCorruption {
    match next_frame(frame, 0) {
        Some(Err(why)) => why,
        other => panic!("expected a rejection, got {other:?}"),
    }
}

/// The `BadPayload` reason for `payload` under a valid frame.
fn rejection(payload: &[u8]) -> String {
    match verdict(&wal_codec().encode(payload)) {
        StoreCorruption::BadPayload(why) => why,
        other => panic!("expected BadPayload, got {other:?}"),
    }
}

#[test]
fn the_reference_payload_decodes() {
    let frame = wal_codec().encode(&good_payload());
    let (entry, end) = next_frame(&frame, 0).unwrap().unwrap();
    assert_eq!(end, frame.len());
    assert_eq!(entry.epoch(), Some(9));
    assert_eq!(entry.signal(), Some(&signal(0.5)));
}

#[test]
fn a_bad_magic_is_rejected() {
    let mut frame = wal_codec().encode(&good_payload());
    frame[0] = b'X';
    assert!(matches!(verdict(&frame), StoreCorruption::BadMagic { .. }));
}

#[test]
fn a_declared_length_past_the_cap_is_rejected() {
    let mut frame = wal_codec().encode(&good_payload());
    frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    match verdict(&frame) {
        StoreCorruption::BadPayload(why) => assert!(why.contains("record cap"), "{why}"),
        other => panic!("expected BadPayload, got {other:?}"),
    }
}

#[test]
fn a_checksum_mismatch_is_rejected() {
    let mut frame = wal_codec().encode(&good_payload());
    let last = frame.len() - 1;
    frame[last] ^= 1;
    assert!(matches!(
        verdict(&frame),
        StoreCorruption::ChecksumMismatch { .. }
    ));
}

#[test]
fn a_truncated_header_is_rejected() {
    let frame = wal_codec().encode(&good_payload());
    assert!(matches!(
        verdict(&frame[..7]),
        StoreCorruption::HeaderTruncated { got: 7, need: 12 }
    ));
}

#[test]
fn a_truncated_frame_is_rejected() {
    let frame = wal_codec().encode(&good_payload());
    assert!(matches!(
        verdict(&frame[..frame.len() - 1]),
        StoreCorruption::Truncated { .. }
    ));
}

#[test]
fn an_empty_payload_is_rejected() {
    assert!(rejection(&[]).contains("empty payload"));
}

#[test]
fn an_unknown_tag_is_rejected() {
    let mut payload = good_payload();
    for tag in [0, 3, b'{', 0xFF] {
        payload[0] = tag;
        let why = rejection(&payload);
        assert!(why.contains("unknown record tag"), "{why}");
    }
}

#[test]
fn a_term_marker_of_the_wrong_length_is_rejected() {
    let mut payload = vec![2u8];
    payload.extend_from_slice(&7u64.to_le_bytes());
    for bad in [&payload[..8], &[payload.as_slice(), &[0]].concat()[..]] {
        let why = rejection(bad);
        assert!(why.contains("term marker is"), "{why}");
    }
}

#[test]
fn a_record_shorter_than_its_signal_is_rejected() {
    let why = rejection(&good_payload()[..GAMMA + 7]);
    assert!(why.contains("shorter than its 22-byte signal"), "{why}");
}

#[test]
fn an_offering_code_out_of_range_is_rejected() {
    let mut payload = good_payload();
    payload[OFFERING] = 3;
    let why = rejection(&payload);
    assert!(why.contains("offering code 3"), "{why}");
}

#[test]
fn a_non_finite_gamma_is_rejected() {
    let mut payload = good_payload();
    for gamma in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        payload[GAMMA..GAMMA + 8].copy_from_slice(&gamma.to_bits().to_le_bytes());
        let why = rejection(&payload);
        assert!(why.contains("is not finite"), "{why}");
    }
}

#[test]
fn a_truncated_delta_header_is_rejected() {
    let why = rejection(&good_payload()[..COUNT + 2]);
    assert!(why.contains("delta truncated"), "{why}");
}

/// A count claiming four billion entries is refused by length before
/// anything is allocated for it.
#[test]
fn an_entry_count_past_the_payload_is_rejected() {
    let mut payload = good_payload();
    payload[COUNT..COUNT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let why = rejection(&payload);
    assert!(why.contains("delta truncated"), "{why}");
}

#[test]
fn a_truncated_entry_is_rejected() {
    let payload = good_payload();
    let why = rejection(&payload[..payload.len() - 1]);
    assert!(why.contains("delta truncated"), "{why}");
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut payload = good_payload();
    payload.push(0);
    let why = rejection(&payload);
    assert!(why.contains("1 trailing bytes"), "{why}");
}

#[test]
fn reserved_path_key_bits_are_rejected() {
    let mut payload = good_payload();
    payload[FIRST_KEY + 15] = 0x80;
    let why = rejection(&payload);
    assert!(why.contains("reserved bits set"), "{why}");
}

#[test]
fn a_non_finite_lambda_is_rejected() {
    let mut payload = good_payload();
    for lambda in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let at = FIRST_LAMBDA + 8;
        payload[at..at + 8].copy_from_slice(&lambda.to_bits().to_le_bytes());
        let why = rejection(&payload);
        assert!(why.contains("is not finite"), "{why}");
    }
}

/// The writer refuses what the decoder would: a record it framed could
/// otherwise end every later replay at itself.
#[test]
fn the_writer_refuses_non_finite_values() {
    let nan_gamma = WalRecord {
        signal: SatisfactionSignal {
            gamma: f64::NAN,
            ..signal(0.5)
        },
        delta: LambdaDelta::new(2, vec![]),
    };
    let inf_lambda = WalRecord {
        signal: signal(0.5),
        delta: LambdaDelta::new(
            2,
            vec![(PathKey::new(hot_path()), [0.0, f64::INFINITY, 0.0])],
        ),
    };
    for record in [nan_gamma, inf_lambda] {
        assert!(matches!(
            frame_record(&record),
            Err(StoreError::Serialize(why)) if why.contains("non-finite")
        ));
    }
}

/// A JSON-era log is refused by every reader, which name the format, and
/// no reader changes a byte of it — `open` would otherwise truncate the
/// whole log as a torn tail.
#[test]
fn a_json_era_log_is_refused_and_left_unchanged() {
    let original = std::fs::read(JSON_ERA_WAL).unwrap();
    assert!(original.len() <= 1024);
    let dir = TestDir::new("wal-json-era");
    let path = dir.join("signals.wal");
    std::fs::write(&path, &original).unwrap();

    let refused = |result: Result<(), StoreError>| match result {
        Err(e @ StoreError::JsonEraWal { .. }) => {
            assert!(e.to_string().contains("JSON-era"), "{e}");
        }
        other => panic!("expected JsonEraWal, got {other:?}"),
    };
    refused(SignalWal::open(&path).map(drop));
    refused(SignalWal::verify(&path).map(drop));
    refused(SignalWal::replay_from(&path, 0).map(drop));
    refused(SignalWal::replay_from(&path, 2).map(drop));
    assert_eq!(std::fs::read(&path).unwrap(), original);
}

/// Only the first frame decides the format: a JSON payload behind binary
/// records is a corrupt tail like any other unknown tag.
#[test]
fn a_json_payload_behind_binary_records_is_a_corrupt_tail() {
    let json = &std::fs::read(JSON_ERA_WAL).unwrap()[..29];
    let good = wal_codec().encode(&good_payload());
    let dir = TestDir::new("wal-json-tail");
    let path = dir.join("signals.wal");
    std::fs::write(&path, [good.as_slice(), json].concat()).unwrap();
    let report = SignalWal::verify(&path).unwrap();
    assert_eq!(report.records.len(), 1);
    assert!(matches!(
        &report.corrupt,
        Some((offset, StoreCorruption::BadPayload(why)))
            if *offset == good.len() as u64 && why.contains("unknown record tag 0x7b")
    ));
}
