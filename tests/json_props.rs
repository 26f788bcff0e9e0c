//! Property and pinned tests of the JSON text layer every model file, WAL
//! record and wire frame goes through: whatever the writer emits reads
//! back to the same text (compact and pretty), the reader's edge cases —
//! the nesting limit, 64-bit integer bounds, floats past them, `-0`,
//! surrogate pairs, escapes, trailing input — are pinned, and the reader
//! stays linear on large strings and arrays.

use proptest::prelude::*;
use serde::Value;
use std::time::{Duration, Instant};

/// Characters a generated string draws from: the ones the writer escapes,
/// ASCII, and one- to four-byte UTF-8.
const STRING_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', 'é', 'ß', '€', '中', '😀', '\u{fffd}',
];

fn string(rng: &mut TestRng) -> String {
    (0..rng.below(12))
        .map(|_| STRING_CHARS[rng.below(STRING_CHARS.len() as u64) as usize])
        .collect()
}

/// Finite floats, weighted toward the ones the writer renders without a
/// fraction: `-0.0`, integral values and values past the 64-bit range.
fn float(rng: &mut TestRng) -> f64 {
    match rng.below(5) {
        0 => -0.0,
        1 => (rng.next_u64() >> rng.below(64)) as f64,
        2 => 1e19 * (1.0 + rng.unit_f64() * 1e6),
        3 => -1e19 * 10f64.powi(rng.below(290) as i32),
        _ => any::<f64>().sample(rng),
    }
}

/// A value tree at most `depth` arrays/objects deep.
struct Tree {
    depth: u32,
}

impl Strategy for Tree {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Value {
        let kinds = if self.depth == 0 { 6 } else { 8 };
        let child = Tree {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.next_u64() & 1 == 1),
            2 => Value::Int(rng.next_u64() as i64),
            3 => Value::UInt(rng.next_u64()),
            4 => Value::Float(float(rng)),
            5 => Value::Str(string(rng)),
            6 => Value::Seq((0..rng.below(5)).map(|_| child.sample(rng)).collect()),
            _ => Value::Map(
                (0..rng.below(5))
                    .map(|_| (string(rng), child.sample(rng)))
                    .collect(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compact text survives parse → write unchanged.
    #[test]
    fn compact_text_round_trips(v in Tree { depth: 6 }) {
        let text = serde_json::to_string(&v).unwrap();
        let back = serde_json::parse(&text).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    /// Pretty text survives parse → write unchanged.
    #[test]
    fn pretty_text_round_trips(v in Tree { depth: 6 }) {
        let text = serde_json::to_string_pretty(&v).unwrap();
        let back = serde_json::parse(&text).unwrap();
        prop_assert_eq!(serde_json::to_string_pretty(&back).unwrap(), text);
    }
}

#[test]
fn nesting_is_limited_to_128_levels() {
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        let ok = format!("{}0{}", open.repeat(128), close.repeat(128));
        assert!(serde_json::parse(&ok).is_ok(), "128 levels of {open}");
        let deep = format!("{}0{}", open.repeat(129), close.repeat(129));
        let err = serde_json::parse(&deep).unwrap_err().to_string();
        let offset = 128 * open.len();
        assert!(
            err.contains("128") && err.contains(&format!("byte {offset}")),
            "{err}"
        );
    }
    // Far past the limit the reader still returns instead of recursing.
    assert!(serde_json::parse(&"[{\"a\":".repeat(500_000)).is_err());
}

#[test]
fn integers_keep_their_64_bit_bounds() {
    let max = u64::MAX.to_string();
    assert_eq!(serde_json::parse(&max).unwrap(), Value::UInt(u64::MAX));
    assert_eq!(serde_json::from_str::<u64>(&max).unwrap(), u64::MAX);
    let min = i64::MIN.to_string();
    assert_eq!(serde_json::parse(&min).unwrap(), Value::Int(i64::MIN));
    assert_eq!(serde_json::from_str::<i64>(&min).unwrap(), i64::MIN);
    // One past either end reads as a float instead of failing.
    assert_eq!(
        serde_json::parse("18446744073709551616").unwrap(),
        Value::Float(18_446_744_073_709_551_616.0)
    );
    assert_eq!(
        serde_json::parse("-9223372036854775809").unwrap(),
        Value::Float(-9_223_372_036_854_775_809.0)
    );
    assert_eq!(serde_json::parse("0").unwrap(), Value::UInt(0));
    assert_eq!(serde_json::parse("-7").unwrap(), Value::Int(-7));
}

#[test]
fn emitted_floats_read_back_with_their_sign() {
    let text = serde_json::to_string(&1e20_f64).unwrap();
    assert_eq!(text, "100000000000000000000");
    assert_eq!(serde_json::from_str::<f64>(&text).unwrap(), 1e20);

    let text = serde_json::to_string(&-0.0_f64).unwrap();
    assert_eq!(text, "-0");
    let back = serde_json::from_str::<f64>(&text).unwrap();
    assert!(back == 0.0 && back.is_sign_negative());
    assert_eq!(serde_json::to_string(&back).unwrap(), "-0");
    // Integer fields still take `-0`.
    assert_eq!(serde_json::from_str::<u64>("-0").unwrap(), 0);
    assert_eq!(serde_json::from_str::<i32>("-0").unwrap(), 0);
}

#[test]
fn surrogate_pairs_decode_to_one_char() {
    let parse_str = |s: &str| serde_json::from_str::<String>(s).unwrap();
    assert_eq!(parse_str(r#""\ud83d\ude00""#), "😀");
    assert_eq!(parse_str(r#""a\uD83D\uDE00b""#), "a😀b");
    // Lone or mismatched surrogates become U+FFFD; the escape after a
    // lone high surrogate still decodes on its own.
    assert_eq!(parse_str(r#""\ud83d""#), "\u{fffd}");
    assert_eq!(parse_str(r#""\ude00x""#), "\u{fffd}x");
    assert_eq!(parse_str(r#""\ud83dA""#), "\u{fffd}A");
    assert_eq!(parse_str(r#""\ud83d\u0041""#), "\u{fffd}A");
    assert_eq!(parse_str(r#""\ud83d\ud83d\ude00""#), "\u{fffd}😀");
    assert!(serde_json::parse(r#""\ud83d\u00""#).is_err());
}

#[test]
fn every_escape_decodes() {
    let s: String = serde_json::from_str(r#""\"\\\/\n\r\t\b\fAé""#).unwrap();
    assert_eq!(s, "\"\\/\n\r\t\u{8}\u{c}Aé");
    for bad in [r#""\x""#, r#""\u12""#, r#""\uzzzz""#, r#""abc"#, r#""\"#] {
        assert!(serde_json::parse(bad).is_err(), "{bad} must not parse");
    }
}

#[test]
fn trailing_characters_are_rejected() {
    for bad in ["1 2", "{} x", "[]]", "\"a\"\"b\"", "null,"] {
        let err = serde_json::parse(bad).unwrap_err().to_string();
        assert!(err.contains("trailing characters"), "{bad}: {err}");
    }
    assert!(serde_json::parse(" [1] \n").is_ok());
}

/// Parses `text` and fails if that took longer than a linear reader
/// needs, even unoptimized.
fn parse_within(text: &str, bound: Duration) -> Value {
    let start = Instant::now();
    let value = serde_json::parse(text).unwrap();
    let took = start.elapsed();
    assert!(took < bound, "{} bytes took {took:?}", text.len());
    value
}

#[test]
fn large_documents_parse_in_linear_time() {
    let bound = Duration::from_secs(2);
    let run = "abcdefgh é€😀 \\\"";
    let body = run.repeat((1 << 20) / run.len());
    let value = parse_within(&format!("\"{body}\""), bound);
    let expected = body.replace("\\\"", "\"");
    assert_eq!(value.as_str(), Some(expected.as_str()));

    let items = ["-1.5e3", "\"s\"", "true", "18446744073709551615"].repeat(25_000);
    let value = parse_within(&format!("[{}]", items.join(",")), bound);
    assert_eq!(value.as_seq().map(<[Value]>::len), Some(100_000));
}
