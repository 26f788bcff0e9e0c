//! Property and pinned tests of the JSON text layer every model file and
//! wire frame goes through: whatever the writer emits reads
//! back to the same text (compact and pretty), compact text written
//! straight from a typed value equals the text of its value tree, text
//! read straight into a type gives what the type's `from_value` makes of
//! the text's tree — on the writer's text and on mutations of it — the
//! reader's edge cases — the nesting limit, 64-bit integer bounds, floats
//! past them, `-0`, surrogate pairs, escapes, trailing input — are pinned,
//! and the reader stays linear on large strings and arrays. WAL records
//! are binary, not JSON: `tests/wal_props.rs` covers their decoder.

use lorentz::core::explain::BucketSummary;
use lorentz::core::{Explanation, LorentzConfig, LorentzPipeline, Recommendation, TrainedLorentz};
use lorentz::simdata::fleet::{FleetConfig, SyntheticFleet};
use lorentz::types::{Capacity, FeatureId, ServerOffering, Sku, StoreKey, ValueId};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
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

/// Draws from a plain generator function.
struct Sampled<F>(F);

impl<T: Debug, F: Fn(&mut TestRng) -> T> Strategy for Sampled<F> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// [`float`] plus the non-finite values, which both writers render `null`.
fn any_float(rng: &mut TestRng) -> f64 {
    match rng.below(8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => float(rng),
    }
}

fn offering(rng: &mut TestRng) -> ServerOffering {
    ServerOffering::ALL[rng.below(ServerOffering::ALL.len() as u64) as usize]
}

fn bucket(rng: &mut TestRng) -> BucketSummary {
    match rng.below(4) {
        // An empty bucket: NaN min, median and max.
        0 => BucketSummary::from_sorted(&[]),
        _ => BucketSummary {
            size: rng.below(10_000) as usize,
            min: any_float(rng),
            median: any_float(rng),
            max: any_float(rng),
        },
    }
}

fn explanation(rng: &mut TestRng) -> Explanation {
    match rng.below(4) {
        0 => Explanation::HierarchicalBucket {
            feature: string(rng),
            value: string(rng),
            level: rng.below(6) as usize,
            percentile: any_float(rng),
            bucket: bucket(rng),
        },
        1 => Explanation::GlobalFallback {
            percentile: any_float(rng),
            bucket: bucket(rng),
        },
        2 => Explanation::TargetEncoding {
            encoded_features: (0..rng.below(4))
                .map(|_| (string(rng), any_float(rng)))
                .collect(),
            prediction_log2: any_float(rng),
        },
        _ => Explanation::StoreLookup {
            key: (rng.below(2) == 0).then(|| {
                StoreKey::new(
                    offering(rng),
                    FeatureId(rng.below(8) as usize),
                    ValueId(rng.next_u64() as u32),
                )
            }),
            offering: offering(rng),
        },
    }
}

fn recommendation(rng: &mut TestRng) -> Recommendation {
    Recommendation {
        sku: Sku::new(
            string(rng),
            Capacity::new(
                (0..=rng.below(3))
                    .map(|_| float(rng).abs().max(f64::MIN_POSITIVE))
                    .collect(),
            )
            .unwrap(),
        ),
        stage2_capacity: any_float(rng),
        lambda: any_float(rng),
        explanation: explanation(rng),
    }
}

/// Every shape the derive supports.
#[derive(Debug, Serialize, Deserialize)]
enum Shape {
    Unit,
    Named {
        a: f64,
        #[serde(skip)]
        skipped: u8,
        c: String,
    },
    One(Vec<u8>),
    Many(i64, bool, [f64; 3]),
}

#[derive(Debug, Serialize, Deserialize)]
struct Skipping {
    kept: u32,
    #[serde(skip)]
    skipped: Vec<f64>,
    pair: (i8, String),
    triple: (Option<char>, f32, u64),
    shapes: Vec<Shape>,
    newtype: Newtype,
    tuple: TupleStruct,
    unit: UnitStruct,
}

#[derive(Debug, Serialize, Deserialize)]
struct Newtype(f64);

#[derive(Debug, Serialize, Deserialize)]
struct TupleStruct(u16, Option<String>);

#[derive(Debug, Serialize, Deserialize)]
struct UnitStruct;

fn shape(rng: &mut TestRng) -> Shape {
    match rng.below(4) {
        0 => Shape::Unit,
        1 => Shape::Named {
            a: any_float(rng),
            skipped: rng.below(256) as u8,
            c: string(rng),
        },
        2 => Shape::One((0..rng.below(4)).map(|_| rng.below(256) as u8).collect()),
        _ => Shape::Many(
            rng.next_u64() as i64,
            rng.below(2) == 0,
            [any_float(rng), float(rng), -0.0],
        ),
    }
}

fn skipping(rng: &mut TestRng) -> Skipping {
    let chars: Vec<char> = string(rng).chars().collect();
    Skipping {
        kept: rng.next_u64() as u32,
        skipped: vec![any_float(rng)],
        pair: (rng.next_u64() as i8, string(rng)),
        triple: (
            chars.first().copied(),
            any_float(rng) as f32,
            rng.next_u64(),
        ),
        shapes: (0..rng.below(5)).map(|_| shape(rng)).collect(),
        newtype: Newtype(any_float(rng)),
        tuple: TupleStruct(
            rng.below(1 << 16) as u16,
            (rng.below(2) == 0).then(|| string(rng)),
        ),
        unit: UnitStruct,
    }
}

/// Integer-valued keys ("9" before "10" as numbers, after it as strings)
/// mixed with arbitrary ones.
fn hash_map(rng: &mut TestRng) -> HashMap<String, f32> {
    (0..rng.below(8))
        .map(|_| {
            let key = match rng.below(3) {
                0 => string(rng),
                _ => rng.below(200).to_string(),
            };
            (key, any_float(rng) as f32)
        })
        .collect()
}

fn btree_map(rng: &mut TestRng) -> BTreeMap<u32, Vec<f64>> {
    (0..rng.below(6))
        .map(|_| {
            let values = (0..rng.below(4)).map(|_| any_float(rng)).collect();
            (rng.next_u64() as u32, values)
        })
        .collect()
}

/// Compact text written straight from `x` equals the text of its tree.
fn writes_like_its_tree<T: Serialize + ?Sized>(x: &T) -> Result<(), TestCaseError> {
    let direct = serde_json::to_string(x).unwrap();
    let tree = serde_json::to_string(&x.to_value()).unwrap();
    prop_assert_eq!(direct, tree);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Responses, with every explanation, write like their trees.
    #[test]
    fn recommendations_write_like_their_trees(rec in Sampled(recommendation)) {
        writes_like_its_tree(&rec)?;
    }

    /// Maps write keys in the tree's order: a `BTreeMap` in key order, a
    /// `HashMap` sorted by key string.
    #[test]
    fn maps_write_like_their_trees(b in Sampled(btree_map), h in Sampled(hash_map)) {
        writes_like_its_tree(&b)?;
        writes_like_its_tree(&h)?;
    }

    /// Derived shapes, `#[serde(skip)]`, tuples, options, chars and arrays
    /// write like their trees.
    #[test]
    fn derived_values_write_like_their_trees(s in Sampled(skipping)) {
        writes_like_its_tree(&s)?;
        let text = serde_json::to_string(&s).unwrap();
        prop_assert!(!text.contains("skipped"), "skipped {:?} was written", s.skipped);
    }

    /// Numbers write exactly as the standard library's `Display`, the
    /// reference the text format is defined by.
    #[test]
    fn numbers_write_as_display(f in Sampled(float), bits in any::<u64>()) {
        let text = |x: &dyn Serialize| serde_json::to_string(x).unwrap();
        prop_assert_eq!(text(&f), f.to_string());
        let narrow = f as f32;
        if narrow.is_finite() {
            prop_assert_eq!(text(&narrow), (narrow as f64).to_string());
        }
        let small = (bits >> (bits % 64)) as f64 * if bits & 1 == 1 { -1.0 } else { 1.0 };
        prop_assert_eq!(text(&small), small.to_string());
        prop_assert_eq!(text(&bits), bits.to_string());
        prop_assert_eq!(text(&(bits as i64)), (bits as i64).to_string());
        prop_assert_eq!(text(&(bits as i8)), (bits as i8).to_string());
        prop_assert_eq!(text(&(bits as usize)), (bits as usize).to_string());
    }

    /// Every float — `-0.0`, integral, past 1e19, NaN, ±inf — and the
    /// containers around it write like their trees.
    #[test]
    fn floats_write_like_their_trees(f in Sampled(any_float), c in Sampled(|rng: &mut TestRng| {
        string(rng).chars().next()
    })) {
        writes_like_its_tree(&f)?;
        writes_like_its_tree(&(f as f32))?;
        writes_like_its_tree(&Some(f))?;
        writes_like_its_tree(&[f, -f, f * 0.5])?;
        writes_like_its_tree(&(f, c))?;
        writes_like_its_tree(&(c, f, vec![f]))?;
    }
}

/// `from_str` reads `text` as `from_value` reads its tree: both `Ok` with
/// equal values after `canon`, or both `Err`. Values are compared by their
/// `Debug` text, which tells every two floats with different bits apart
/// (`-0.0`, infinities, NaN) short of NaN payloads.
fn reads_like_its_tree_by<T: Deserialize + Debug, C: Debug>(
    text: &str,
    canon: impl Fn(T) -> C,
) -> Result<(), TestCaseError> {
    let typed = serde_json::from_str::<T>(text).map(&canon);
    let tree = serde_json::parse(text)
        .map_err(|e| e.to_string())
        .and_then(|v| T::from_value(&v).map_err(|e| e.to_string()))
        .map(&canon);
    match (typed, tree) {
        (Ok(a), Ok(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
        (Err(_), Err(_)) => {}
        (typed, tree) => prop_assert!(false, "{text}\n  typed: {typed:?}\n  tree: {tree:?}"),
    }
    Ok(())
}

fn reads_like_its_tree<T: Deserialize + Debug>(text: &str) -> Result<(), TestCaseError> {
    reads_like_its_tree_by(text, |x: T| x)
}

/// Rewrites `v` in place: map entries reordered, a key repeated with
/// another value before or after it, unknown keys holding nested values
/// (which also gives one-key enum objects a second key), each with a
/// small chance per object.
fn mutate_tree(v: &mut Value, rng: &mut TestRng) {
    match v {
        Value::Seq(items) => items.iter_mut().for_each(|x| mutate_tree(x, rng)),
        Value::Map(entries) => {
            entries.iter_mut().for_each(|(_, x)| mutate_tree(x, rng));
            for _ in 0..entries.len() {
                if rng.below(4) == 0 {
                    let (a, b) = (
                        rng.below(entries.len() as u64),
                        rng.below(entries.len() as u64),
                    );
                    entries.swap(a as usize, b as usize);
                }
            }
            if !entries.is_empty() && rng.below(4) == 0 {
                let at = rng.below(entries.len() as u64) as usize;
                let key = entries[at].0.clone();
                let other = Tree { depth: 2 }.sample(rng);
                let to = rng.below(entries.len() as u64 + 1) as usize;
                entries.insert(to, (key, other));
            }
            if rng.below(4) == 0 {
                let to = rng.below(entries.len() as u64 + 1) as usize;
                entries.insert(to, ("unknown".to_owned(), Tree { depth: 3 }.sample(rng)));
            }
        }
        _ => {}
    }
}

/// Rewrites number tokens outside strings: an integer as `N.0` or `"N"`,
/// any number as `null`, each with a small chance.
fn mutate_numbers(text: &str, rng: &mut TestRng) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    let mut chars = text.chars().peekable();
    let (mut in_string, mut escaped) = (false, false);
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            (in_string, escaped) = (escaped || c != '"', !escaped && c == '\\');
            continue;
        }
        if c != '-' && !c.is_ascii_digit() {
            in_string = c == '"';
            out.push(c);
            continue;
        }
        let mut token = c.to_string();
        while let Some(&d) = chars
            .peek()
            .filter(|d| d.is_ascii_digit() || ".eE+-".contains(**d))
        {
            token.push(d);
            chars.next();
        }
        let integer = !token.contains(['.', 'e', 'E']);
        match rng.below(8) {
            0 if integer => out.push_str(&format!("{token}.0")),
            1 if integer => out.push_str(&format!("\"{token}\"")),
            2 => out.push_str("null"),
            _ => out.push_str(&token),
        }
    }
    out
}

/// `text` with an unknown first key holding arrays nested `levels` deep.
fn with_deep_unknown_key(text: &str, levels: usize) -> Option<String> {
    let rest = text.strip_prefix('{')?;
    let nested = format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    let sep = if rest == "}" { "" } else { "," };
    Some(format!("{{\"deep\":{nested}{sep}{rest}"))
}

/// The compact text of `x`, and mutations of it: tree rewrites, number
/// rewrites, an unknown field nested 127, 128 and 129 levels inside the
/// top object (the limit is 128 including that object), truncations and
/// single bit flips that leave valid UTF-8.
fn mutated_texts(x: &impl Serialize, rng: &mut TestRng) -> Vec<String> {
    let text = serde_json::to_string(x).unwrap();
    let mut texts = vec![text.clone()];
    for _ in 0..3 {
        let mut tree = x.to_value();
        mutate_tree(&mut tree, rng);
        texts.push(serde_json::to_string(&tree).unwrap());
    }
    texts.push(mutate_numbers(&text, rng));
    texts.extend((127..=129).filter_map(|levels| with_deep_unknown_key(&text, levels)));
    for _ in 0..3 {
        let cut = rng.below(text.len() as u64) as usize;
        if text.is_char_boundary(cut) {
            texts.push(text[..cut].to_owned());
        }
        let mut bytes = text.clone().into_bytes();
        let bit = rng.below(bytes.len() as u64 * 8) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        texts.extend(String::from_utf8(bytes).ok());
    }
    texts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Responses, with every explanation, read like their trees.
    #[test]
    fn recommendations_read_like_their_trees(
        texts in Sampled(|rng: &mut TestRng| mutated_texts(&recommendation(rng), rng))
    ) {
        for text in &texts {
            reads_like_its_tree::<Recommendation>(text)?;
        }
    }

    /// Maps read like their trees: a repeated key keeps its last value.
    #[test]
    fn maps_read_like_their_trees(texts in Sampled(|rng: &mut TestRng| {
        let mut texts = mutated_texts(&btree_map(rng), rng);
        texts.extend(mutated_texts(&hash_map(rng), rng));
        texts
    })) {
        for text in &texts {
            reads_like_its_tree::<BTreeMap<u32, Vec<f64>>>(text)?;
            reads_like_its_tree_by(text, |m: HashMap<String, f32>| {
                m.into_iter().collect::<BTreeMap<_, _>>()
            })?;
        }
    }

    /// Derived shapes, `#[serde(skip)]`, tuples, options, chars and arrays
    /// read like their trees: a repeated field keeps its first value.
    #[test]
    fn derived_values_read_like_their_trees(
        texts in Sampled(|rng: &mut TestRng| mutated_texts(&skipping(rng), rng))
    ) {
        for text in &texts {
            reads_like_its_tree::<Skipping>(text)?;
        }
    }

    /// Every float, and the containers around it, reads like its tree.
    #[test]
    fn floats_read_like_their_trees(texts in Sampled(|rng: &mut TestRng| {
        let f = any_float(rng);
        let mut texts = mutated_texts(&vec![f, -f, f * 0.5], rng);
        texts.extend(mutated_texts(&(Some(f), string(rng).chars().next()), rng));
        texts
    })) {
        for text in &texts {
            reads_like_its_tree::<f64>(text)?;
            reads_like_its_tree::<f32>(text)?;
            reads_like_its_tree::<Option<f64>>(text)?;
            reads_like_its_tree::<[f64; 3]>(text)?;
            reads_like_its_tree::<Vec<f32>>(text)?;
            reads_like_its_tree::<(Option<f64>, Option<char>)>(text)?;
            reads_like_its_tree::<Value>(text)?;
        }
    }
}

/// A model trained on a small generated fleet, and that fleet.
fn trained_fixture() -> (TrainedLorentz, SyntheticFleet) {
    let generated = FleetConfig {
        n_servers: 120,
        seed: 7,
        ..FleetConfig::default()
    }
    .generate()
    .unwrap();
    let mut config = LorentzConfig::paper_defaults();
    config.target_encoding.boosting.n_trees = 5;
    config.hierarchical.min_bucket = 3;
    let trained = LorentzPipeline::new(config)
        .unwrap()
        .train(&generated.fleet)
        .unwrap();
    (trained, generated)
}

/// `text` reads to the same value straight and through its tree, and
/// that value writes `text` back.
fn reads_back_both_ways<T: Deserialize + Serialize>(text: &str) {
    let typed: T = serde_json::from_str(text).unwrap();
    let tree = T::from_value(&serde_json::parse(text).unwrap()).unwrap();
    assert_eq!(serde_json::to_string(&typed).unwrap(), text);
    assert_eq!(serde_json::to_string(&tree).unwrap(), text);
}

#[test]
fn trained_model_and_fleet_read_like_their_trees() {
    let (trained, fleet) = trained_fixture();
    reads_back_both_ways::<TrainedLorentz>(&trained.to_json().unwrap());
    reads_back_both_ways::<SyntheticFleet>(&serde_json::to_string(&fleet).unwrap());
}

#[test]
fn strings_escape_exactly_the_json_specials() {
    let text = serde_json::to_string("a\"\\/\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}é😀").unwrap();
    assert_eq!(
        text,
        r#""a\"\\/\n\r\t\u0000\u0008\u000c\u001f"#.to_owned() + "\u{7f}é😀\""
    );
    assert_eq!(serde_json::to_string(&'"').unwrap(), r#""\"""#);
}

/// The number conventions of the text format, pinned literally: integral
/// floats carry no fraction, `-0.0` keeps its sign, no exponent is used,
/// `f32` widens to `f64` first, and non-finite floats are `null`.
#[test]
fn number_edges_write_pinned_text() {
    let text = |x: &dyn Serialize| serde_json::to_string(x).unwrap();
    assert_eq!(text(&u64::MAX), "18446744073709551615");
    assert_eq!(text(&i64::MIN), "-9223372036854775808");
    assert_eq!(text(&1.0), "1");
    assert_eq!(text(&-0.0), "-0");
    assert_eq!(text(&1e21), "1000000000000000000000");
    assert_eq!(text(&0.1f32), "0.10000000149011612");
    assert_eq!(text(&f64::NEG_INFINITY), "null");
}

#[test]
fn trained_model_writes_like_its_tree() {
    let (trained, _) = trained_fixture();
    let tree = serde_json::to_string(&trained.to_value()).unwrap();
    assert_eq!(trained.to_json().unwrap(), tree);
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
