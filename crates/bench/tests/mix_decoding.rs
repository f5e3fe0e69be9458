//! Real traffic takes the serving loop's single-pass decoder.
//!
//! Every line of the load generator's warm mix, and every line shaped
//! like the cold mix's pool, must be decided by `wire::decode_to_key`, to
//! the query, fencing floor and key the tree decoder gives. A line left
//! undecided would still be answered correctly (the loop falls through to
//! the tree), but would pay the tree's cost on every request. The rest of
//! the decoder's battery is `crates/query/tests/line_decoder.rs`.

use lfp_analysis::json::{parse, JsonValue};
use lfp_query::wire::{self, Decoded};
use lfp_query::{Query, QueryEngine};

fn catalog_strings(catalog: &JsonValue, key: &str) -> Vec<String> {
    catalog
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|item| item.as_str().unwrap().to_string())
        .collect()
}

fn catalog_numbers(catalog: &JsonValue, key: &str) -> Vec<u64> {
    catalog
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|item| item.as_u64().unwrap())
        .collect()
}

/// The cold mix's pool, spelled as the benchmark spells it: both
/// scan-heavy kinds over source × slice × hop range, and a
/// `path_diversity` pair on every fourth filter.
fn cold_shaped_lines(catalog: &JsonValue) -> Vec<String> {
    let mut sources = vec![None];
    sources.extend(catalog_strings(catalog, "sources").into_iter().map(Some));
    let mut slices = vec![None];
    slices.extend(catalog_strings(catalog, "slices").into_iter().map(Some));
    let (src_ases, dst_ases) = (
        catalog_numbers(catalog, "src_ases"),
        catalog_numbers(catalog, "dst_ases"),
    );
    let mut lines = Vec::new();
    let mut index = 0usize;
    for source in &sources {
        for slice in &slices {
            for min_hops in 0..=10u16 {
                for max_hops in min_hops.max(4)..=24 {
                    let mut fields = String::new();
                    if let Some(source) = source {
                        fields.push_str(&format!(",\"source\":\"{source}\""));
                    }
                    if min_hops > 0 {
                        fields.push_str(&format!(",\"min_hops\":{min_hops}"));
                    }
                    if max_hops < 24 {
                        fields.push_str(&format!(",\"max_hops\":{max_hops}"));
                    }
                    if let Some(slice) = slice {
                        fields.push_str(&format!(",\"slice\":\"{slice}\""));
                    }
                    lines.push(format!("{{\"query\":\"transitions\"{fields}}}"));
                    lines.push(format!("{{\"query\":\"longest_runs\"{fields}}}"));
                    if index.is_multiple_of(4) {
                        let src = src_ases[(index / 4) % src_ases.len()];
                        let dst = dst_ases[(index / 4 / src_ases.len()) % dst_ases.len()];
                        lines.push(format!(
                            "{{\"query\":\"path_diversity\",\"src_as\":{src},\"dst_as\":{dst}{fields}}}"
                        ));
                    }
                    index += 1;
                }
            }
        }
    }
    lines
}

#[test]
fn every_line_of_both_benchmark_mixes_takes_the_single_pass() {
    let engine = QueryEngine::new(lfp_bench::shared_tiny_world());
    let catalog = parse(&engine.execute(&Query::Catalog).unwrap().payload).unwrap();
    let warm = lfp_bench::mix::build_mix(&catalog, 64).expect("catalog lists ASes");
    let cold = cold_shaped_lines(&catalog);
    assert!(cold.len() > 1_000, "{}", cold.len());
    let mut key = String::new();
    for (epoch, line) in warm.iter().chain(&cold).enumerate() {
        let epoch = epoch as u64;
        let decoded = wire::decode_to_key(line, epoch, &mut key)
            .unwrap_or_else(|| panic!("undecided: {line}"));
        let value = parse(line).unwrap();
        let expected = Decoded {
            query: wire::decode_value(&value).unwrap(),
            min_epoch: wire::min_epoch_of(&value),
        };
        assert_eq!(decoded, expected, "{line}");
        assert_eq!(key, expected.query.canonical_at(epoch), "{line}");
    }
}
