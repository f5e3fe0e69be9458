//! The serving loop's single-pass line decoder, held to the tree decoder.
//!
//! `wire::decode_to_key` may *decide* only a line the tree decoder
//! (`parse` + `decode_value` + `min_epoch_of`, the loop's fallback)
//! accepts, to the same query and fencing floor, and must then leave the
//! key `Query::canonical_at` writes. Every other line stays undecided, so
//! the tree words every error.
//!
//! * **Spellings:** JSON whitespace and field order are decided; escapes
//!   and the number spellings on which integer and `f64` parsing part
//!   ways (`3.0`, `3e0`, `03`, `-0`, `1e400`, 2^53+1, u32::MAX+1) are not.
//! * **Property:** random valid requests in random plain spellings are
//!   all decided; random messy ones (escapes, odd numbers, duplicate,
//!   unknown and mistyped fields, `min_hops > max_hops`) are decided only
//!   in agreement with the tree.
//! * **Hostile soup:** byte soup and mutated requests never panic.
//!
//! Every canonical form over the planner's selection grid is checked in
//! `src/wire.rs` (`decode_to_key_decides_every_canonical_form_the_tree_accepts`),
//! where the crate-private grid lives; that both benchmark mixes take the
//! single pass is checked beside the load generator, in
//! `crates/bench/tests/mix_decoding.rs`.

use lfp_analysis::json::{parse, JsonValue};
use lfp_analysis::path_corpus::LabelSource;
use lfp_analysis::us_study::UsSlice;
use lfp_analysis::World;
use lfp_query::query::{method_name, slice_name};
use lfp_query::wire::{self, Decoded};
use lfp_query::{Query, QueryEngine, Selection};
use lfp_topo::{Continent, Scale};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// The tree decoder's verdict on a line: the serving loop's fallback.
fn tree(line: &str) -> Result<Decoded, String> {
    let value = parse(line).map_err(|error| format!("invalid JSON: {error}"))?;
    let query = wire::decode_value(&value)?;
    Ok(Decoded {
        query,
        min_epoch: wire::min_epoch_of(&value),
    })
}

/// Run the single pass on `line` at `epoch`, holding whatever it decides
/// to the tree. Returns the decided request, if any.
fn single_pass(line: &str, epoch: u64) -> Option<Decoded> {
    let mut key = String::from("left over from an earlier line");
    let decoded = wire::decode_to_key(line, epoch, &mut key)?;
    let expected = tree(line)
        .unwrap_or_else(|error| panic!("single pass decided {line:?}; the tree says {error}"));
    assert_eq!(decoded, expected, "{line}");
    assert_eq!(key, expected.query.canonical_at(epoch), "{line}");
    assert_eq!(wire::decode(line), Ok(expected.query), "{line}");
    Some(decoded)
}

/// The tiny world's catalog, built once for the whole binary.
fn tiny_catalog() -> &'static JsonValue {
    static CATALOG: OnceLock<JsonValue> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let engine = QueryEngine::new(Arc::new(World::build(Scale::tiny())));
        parse(&engine.execute(&Query::Catalog).unwrap().payload).unwrap()
    })
}

fn catalog_strings(catalog: &JsonValue, key: &str) -> Vec<String> {
    catalog
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|item| item.as_str().unwrap().to_string())
        .collect()
}

#[test]
fn whitespace_and_field_order_are_decided() {
    let fields = [
        "\"query\":\"path_diversity\"",
        "\"src_as\":3",
        "\"dst_as\":9",
        "\"min_hops\":2",
        "\"source\":\"ünï §5\"",
    ];
    let expected = Query::PathDiversity {
        selection: Selection {
            src_as: Some(3),
            dst_as: Some(9),
            min_hops: Some(2),
            source: Some("ünï §5".to_string()),
            ..Selection::default()
        },
    };
    // Every rotation and its reverse, under every JSON whitespace byte.
    for rotation in 0..fields.len() {
        let mut order: Vec<&str> = fields
            .iter()
            .cycle()
            .skip(rotation)
            .take(fields.len())
            .copied()
            .collect();
        for reversed in [false, true] {
            if reversed {
                order.reverse();
            }
            for pad in ["", " ", "\t", "\r", "\n", " \t\r\n "] {
                let spaced: Vec<String> = order
                    .iter()
                    .map(|field| field.replace(':', &format!("{pad}:{pad}")))
                    .collect();
                let line = format!(
                    "{pad}{{{pad}{}{pad}}}{pad}",
                    spaced.join(&format!("{pad},{pad}"))
                );
                let decoded =
                    single_pass(&line, 5).unwrap_or_else(|| panic!("undecided: {line:?}"));
                assert_eq!(decoded.query, expected);
            }
        }
    }
}

#[test]
fn number_spellings_beyond_plain_integers_are_left_to_the_tree() {
    // Plain integers, decided exactly when the field's range holds them.
    let plain = [
        0u64,
        3,
        65_535,
        65_536,
        4_294_967_295,
        4_294_967_296,
        999_999_999_999_999,
    ];
    // Spellings the single pass never decides, with whether the tree
    // accepts them as `epoch` (it is laxer: `3.0`, `03` and `-0` read as
    // integers through its `f64`).
    let other = [
        ("3.0", true),
        ("3e0", true),
        ("03", true),
        ("-0", true),
        ("-3", false),
        ("1e400", false),
        ("9007199254740993", true), // 2^53 + 1, rounded by the tree
        ("1000000000000000", true), // sixteen digits
        ("\"3\"", false),
        ("null", false),
        ("true", false),
        ("[3]", false),
        ("{}", false),
    ];
    for (template, max) in [
        ("{\"query\":\"catalog\",\"epoch\":N}", u64::MAX),
        ("{\"query\":\"catalog\",\"min_epoch\":N}", u64::MAX),
        ("{\"query\":\"vendor_mix\",\"as\":N}", u64::from(u32::MAX)),
        (
            "{\"query\":\"transitions\",\"src_as\":N}",
            u64::from(u32::MAX),
        ),
        (
            "{\"query\":\"longest_runs\",\"max_hops\":N}",
            u64::from(u16::MAX),
        ),
    ] {
        for value in plain {
            let line = template.replace('N', &value.to_string());
            assert_eq!(single_pass(&line, 1).is_some(), value <= max, "{line}");
        }
        for (spelling, _) in other {
            let line = template.replace('N', spelling);
            assert!(single_pass(&line, 1).is_none(), "decided: {line}");
        }
    }
    for (spelling, accepted) in other {
        let line = format!("{{\"query\":\"catalog\",\"epoch\":{spelling}}}");
        assert_eq!(tree(&line).is_ok(), accepted, "{line}");
    }
}

#[test]
fn escapes_duplicates_and_rejections_are_left_to_the_tree() {
    for line in [
        // Escapes anywhere, even ones the tree accepts.
        r#"{"query":"vendor\u005fmix","as":3}"#,
        r#"{"qu\u0065ry":"catalog"}"#,
        r#"{"query":"transitions","source":"RIPE\u002d1"}"#,
        r#"{"query":"transitions","source":"a\/b"}"#,
        // A raw control character inside a string.
        "{\"query\":\"transitions\",\"source\":\"tab\there\"}",
        // Duplicate, unknown and misplaced fields.
        r#"{"query":"catalog","query":"catalog"}"#,
        r#"{"query":"transitions","min_hops":2,"min_hops":2}"#,
        r#"{"query":"catalog","typo":1}"#,
        r#"{"query":"transitions","as":1}"#,
        r#"{"query":"catalog","src_as":1}"#,
        // Mistyped values and unknown names.
        r#"{"query":7}"#,
        r#"{"query":"vendor_mix","region":3}"#,
        r#"{"query":"vendor_mix","as":"3"}"#,
        r#"{"query":"vendor_mix","as":3,"method":"banner"}"#,
        r#"{"query":"vendor_mix","region":"XX"}"#,
        r#"{"query":"transitions","slice":"lunar"}"#,
        r#"{"query":"mystery"}"#,
        // The kind-level rules.
        r#"{"query":"vendor_mix"}"#,
        r#"{"query":"vendor_mix","as":1,"region":"EU"}"#,
        r#"{"query":"path_diversity","src_as":1}"#,
        r#"{"query":"transitions","min_hops":9,"max_hops":2}"#,
        // Not one flat object.
        r#"{}"#,
        r#"{"query":"catalog",}"#,
        r#"{"query":"catalog"} x"#,
        r#"{"query":"catalog""#,
        r#"[{"query":"catalog"}]"#,
        r#"{"query":"catalog","epoch":{"n":1}}"#,
        "\u{a0}{\"query\":\"catalog\"}",
        "",
    ] {
        assert!(single_pass(line, 0).is_none(), "decided: {line}");
    }
}

/// A random request the tree accepts, as its expected decoding and its
/// fields `(name, value spelling)` in canonical order.
fn random_request(rng: &mut SmallRng, sources: &[String]) -> (Decoded, Vec<(String, String)>) {
    fn quoted(text: &str) -> String {
        format!("\"{text}\"")
    }
    let as_number = |rng: &mut SmallRng| match rng.gen_range(0..4) {
        0 => 0,
        1 => u32::MAX,
        2 => rng.gen_range(1..100),
        _ => rng.gen(),
    };
    let method = if rng.gen_bool(0.5) {
        LabelSource::Lfp
    } else {
        LabelSource::Snmp
    };
    let mut fields = Vec::new();
    let query = match rng.gen_range(0..6) {
        0 => Query::Catalog,
        1 => Query::VendorMixAs {
            as_id: as_number(rng),
            method,
        },
        2 => Query::VendorMixRegion {
            region: Continent::ALL[rng.gen_range(0..Continent::ALL.len())],
            method,
        },
        kind => {
            let mut selection = Selection::default();
            if kind == 3 || rng.gen_bool(0.4) {
                selection.src_as = Some(as_number(rng));
            }
            if kind == 3 || rng.gen_bool(0.4) {
                selection.dst_as = Some(as_number(rng));
            }
            if rng.gen_bool(0.4) {
                selection.source = Some(sources[rng.gen_range(0..sources.len())].clone());
            }
            let hops = |rng: &mut SmallRng| match rng.gen_range(0..3) {
                0 => u16::MAX,
                _ => rng.gen_range(0..30),
            };
            let (low, high) = (hops(rng), hops(rng));
            if rng.gen_bool(0.5) {
                selection.min_hops = Some(low.min(high));
            }
            if rng.gen_bool(0.5) {
                selection.max_hops = Some(low.max(high));
            }
            if rng.gen_bool(0.4) {
                selection.slice = Some(UsSlice::ALL[rng.gen_range(0..UsSlice::ALL.len())]);
            }
            match kind {
                3 => Query::PathDiversity { selection },
                4 => Query::Transitions { selection },
                _ => Query::LongestRuns { selection },
            }
        }
    };
    let kind = match &query {
        Query::Catalog => "catalog",
        Query::VendorMixAs { .. } | Query::VendorMixRegion { .. } => "vendor_mix",
        Query::PathDiversity { .. } => "path_diversity",
        Query::Transitions { .. } => "transitions",
        Query::LongestRuns { .. } => "longest_runs",
    };
    fields.push(("query".to_string(), quoted(kind)));
    let mut push = |name: &str, value: String| fields.push((name.to_string(), value));
    match &query {
        Query::Catalog => {}
        Query::VendorMixAs { as_id, .. } => push("as", as_id.to_string()),
        Query::VendorMixRegion { region, .. } => push("region", quoted(region.abbrev())),
        Query::PathDiversity { selection }
        | Query::Transitions { selection }
        | Query::LongestRuns { selection } => {
            if let Some(value) = selection.src_as {
                push("src_as", value.to_string());
            }
            if let Some(value) = selection.dst_as {
                push("dst_as", value.to_string());
            }
            if let Some(value) = &selection.source {
                push("source", quoted(value));
            }
            if let Some(value) = selection.min_hops {
                push("min_hops", value.to_string());
            }
            if let Some(value) = selection.max_hops {
                push("max_hops", value.to_string());
            }
            if let Some(value) = selection.slice {
                push("slice", quoted(slice_name(value)));
            }
        }
    }
    if let Query::VendorMixAs { method, .. } | Query::VendorMixRegion { method, .. } = &query {
        // `lfp` is the default: spelled out only sometimes.
        if *method == LabelSource::Snmp || rng.gen_bool(0.5) {
            push("method", quoted(method_name(*method)));
        }
    }
    let epoch_number = |rng: &mut SmallRng| match rng.gen_range(0..3) {
        0 => 0,
        1 => 999_999_999_999_999,
        _ => rng.gen_range(1..1_000_000),
    };
    if rng.gen_bool(0.3) {
        let epoch = epoch_number(rng);
        push("epoch", epoch.to_string());
    }
    let min_epoch = rng.gen_bool(0.3).then(|| epoch_number(rng));
    if let Some(floor) = min_epoch {
        push("min_epoch", floor.to_string());
    }
    (Decoded { query, min_epoch }, fields)
}

/// Spell fields as one request line: shuffled, with random JSON
/// whitespace around every token.
fn render(rng: &mut SmallRng, fields: &mut [(String, String)]) -> String {
    const PADS: [&str; 7] = ["", "", "", " ", "  ", "\t", " \r\n"];
    let pad = |rng: &mut SmallRng| PADS[rng.gen_range(0..PADS.len())];
    for index in (1..fields.len()).rev() {
        fields.swap(index, rng.gen_range(0..=index));
    }
    let mut line = format!("{}{{", pad(rng));
    for (index, (name, value)) in fields.iter().enumerate() {
        if index > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "{}\"{name}\"{}:{}{value}{}",
            pad(rng),
            pad(rng),
            pad(rng),
            pad(rng)
        ));
    }
    line.push('}');
    line.push_str(pad(rng));
    line
}

/// One random change that may make a valid request invalid, or valid in
/// a spelling the single pass leaves to the tree.
fn mess_up(rng: &mut SmallRng, fields: &mut Vec<(String, String)>) {
    const ODD_NUMBERS: [&str; 12] = [
        "3.0",
        "3e0",
        "03",
        "-0",
        "-1",
        "1e400",
        "9007199254740993",
        "4294967296",
        "65536",
        "1000000000000000",
        "0.5",
        "1E2",
    ];
    const ODD_VALUES: [&str; 10] = [
        "null",
        "true",
        "[]",
        "{}",
        "\"\"",
        "\"lunar\"",
        "\"EU\"",
        "\"lfp\"",
        "\"intra-us\"",
        "7",
    ];
    const NAMES: [&str; 14] = [
        "query",
        "as",
        "region",
        "method",
        "src_as",
        "dst_as",
        "source",
        "min_hops",
        "max_hops",
        "slice",
        "epoch",
        "min_epoch",
        "typo",
        "",
    ];
    let pick = rng.gen_range(0..fields.len());
    match rng.gen_range(0..9) {
        0 => fields[pick].1 = ODD_NUMBERS[rng.gen_range(0..ODD_NUMBERS.len())].to_string(),
        1 => fields[pick].1 = ODD_VALUES[rng.gen_range(0..ODD_VALUES.len())].to_string(),
        // Escape the first character of a name.
        2 => {
            let name = &mut fields[pick].0;
            if let Some(first) = name.chars().next() {
                *name = format!("\\u{:04x}{}", first as u32, &name[first.len_utf8()..]);
            }
        }
        // An escape or a raw tab inside a string value.
        3 => {
            let value = &mut fields[pick].1;
            if value.len() >= 2 && value.starts_with('"') {
                let insert = ["\\u0041", "\\/", "\\\\", "\t", "\\\""][rng.gen_range(0..5)];
                value.insert_str(1, insert);
            }
        }
        4 => {
            let copy = fields[pick].clone();
            fields.push(copy);
        }
        5 => {
            let name = NAMES[rng.gen_range(0..NAMES.len())].to_string();
            let value = ODD_VALUES[rng.gen_range(0..ODD_VALUES.len())].to_string();
            fields.push((name, value));
        }
        6 => {
            fields.remove(pick);
        }
        7 => {
            fields.retain(|(name, _)| name != "min_hops" && name != "max_hops");
            fields.push(("min_hops".to_string(), "9".to_string()));
            fields.push(("max_hops".to_string(), "2".to_string()));
        }
        _ => {
            let name = NAMES[rng.gen_range(0..NAMES.len())].to_string();
            let value = rng.gen_range(0..70_000u32).to_string();
            fields.push((name, value));
        }
    }
}

fn sources() -> Vec<String> {
    catalog_strings(tiny_catalog(), "sources")
}

proptest! {
    /// Valid requests, spelled with plain values in any order and any
    /// JSON whitespace, are all decided, to the request generated.
    #[test]
    fn plain_spellings_of_valid_requests_are_all_decided(seed in any::<u64>()) {
        let sources = sources();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..64 {
            let (expected, mut fields) = random_request(&mut rng, &sources);
            let line = render(&mut rng, &mut fields);
            let epoch = rng.gen_range(0..1_000u64);
            prop_assert_eq!(single_pass(&line, epoch), Some(expected));
        }
    }

    /// Valid requests with one to three random changes: whatever the
    /// single pass decides, the tree accepts identically.
    #[test]
    fn messy_spellings_are_decided_only_in_agreement_with_the_tree(seed in any::<u64>()) {
        let sources = sources();
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut decided, mut total) = (0, 0);
        for _ in 0..64 {
            let (_, mut fields) = random_request(&mut rng, &sources);
            for _ in 0..rng.gen_range(1..4) {
                if !fields.is_empty() {
                    mess_up(&mut rng, &mut fields);
                }
            }
            let line = render(&mut rng, &mut fields);
            decided += usize::from(single_pass(&line, 3).is_some());
            total += 1;
        }
        // Some changes keep the request plain and valid (dropping an
        // optional field, say); most do not.
        prop_assert!(decided < total);
    }

    /// Byte soup, and valid requests with bytes inserted, deleted or
    /// replaced from a JSON-heavy alphabet: never a panic, never a
    /// disagreement with the tree.
    #[test]
    fn hostile_soup_never_panics(seed in any::<u64>()) {
        const ALPHABET: &[u8] = b"{}[]\":,0123456789.-+eE \t\\u/aqs\x01\x7f";
        let sources = sources();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..64 {
            let mut bytes: Vec<u8> = if rng.gen_bool(0.3) {
                (0..rng.gen_range(0..80)).map(|_| rng.gen()).collect()
            } else {
                let (_, mut fields) = random_request(&mut rng, &sources);
                render(&mut rng, &mut fields).into_bytes()
            };
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..=bytes.len());
                let byte = ALPHABET[rng.gen_range(0..ALPHABET.len())];
                match rng.gen_range(0..3) {
                    0 => bytes.insert(at, byte),
                    _ if at == bytes.len() => bytes.push(byte),
                    1 => bytes[at] = byte,
                    _ => {
                        bytes.remove(at);
                    }
                }
            }
            if let Ok(line) = String::from_utf8(bytes) {
                single_pass(&line, rng.gen_range(0..10));
            }
        }
    }
}
