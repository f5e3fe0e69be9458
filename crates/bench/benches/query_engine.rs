//! Query-engine benchmarks: the serving hot paths `vendor-queryd` rides.
//!
//! `cache_hit` is the path a warm daemon serves almost every request
//! from (hash + shard lock + `Arc` clone); the `cold_*` benches time a
//! full plan → execute → render for each query family, over the whole
//! corpus and over the filtered selections (dataset + hop range + slice,
//! one AS pair) the repo benchmark's `serve-cold` workload sends;
//! `batch_*` measures the fan-out executor against the same queries run
//! serially.

use criterion::{criterion_group, criterion_main, Criterion};
use lfp_bench::shared_tiny_world;
use lfp_query::{run_batch, wire, Query, QueryEngine, Selection};

fn mixed_queries(engine: &QueryEngine, count: usize) -> Vec<Query> {
    let src = engine.corpus().src_as_ids();
    let dst = engine.corpus().dst_as_ids();
    (0..count)
        .map(|index| match index % 4 {
            0 => Query::VendorMixAs {
                as_id: src[index % src.len()],
                method: lfp_analysis::path_corpus::LabelSource::Lfp,
            },
            1 => Query::PathDiversity {
                selection: Selection {
                    src_as: Some(src[index % src.len()]),
                    dst_as: Some(dst[index % dst.len()]),
                    ..Selection::default()
                },
            },
            2 => Query::Transitions {
                selection: Selection {
                    min_hops: Some((2 + index % 4) as u16),
                    ..Selection::default()
                },
            },
            _ => Query::LongestRuns {
                selection: Selection::default(),
            },
        })
        .collect()
}

fn bench_engine_paths(c: &mut Criterion) {
    let world = shared_tiny_world();
    let engine = QueryEngine::new(world);
    let pair = mixed_queries(&engine, 2).pop().unwrap();
    let mut group = c.benchmark_group("query_engine");
    group.bench_function("cold_path_diversity", |b| {
        b.iter(|| engine.execute_uncached(&pair).unwrap())
    });
    group.bench_function("cold_transitions_full_corpus", |b| {
        b.iter(|| {
            engine
                .execute_uncached(&Query::Transitions {
                    selection: Selection::default(),
                })
                .unwrap()
        })
    });
    let corpus = engine.corpus();
    let filtered = Selection {
        source: Some(corpus.sources()[corpus.latest_ripe_source()].clone()),
        min_hops: Some(2),
        max_hops: Some(8),
        slice: Some(lfp_analysis::us_study::UsSlice::Other),
        ..Selection::default()
    };
    let as_pair = Selection {
        src_as: Some(corpus.src_as_ids()[0]),
        dst_as: Some(corpus.dst_as_ids()[0]),
        ..Selection::default()
    };
    for (name, selection) in [("source_hops_slice", filtered), ("as_pair", as_pair)] {
        let transitions = Query::Transitions {
            selection: selection.clone(),
        };
        group.bench_function(&format!("cold_transitions_{name}"), |b| {
            b.iter(|| engine.execute_uncached(&transitions).unwrap())
        });
        let longest_runs = Query::LongestRuns { selection };
        group.bench_function(&format!("cold_longest_runs_{name}"), |b| {
            b.iter(|| engine.execute_uncached(&longest_runs).unwrap())
        });
    }
    // Warm the cache, then time the hit path.
    engine.execute(&pair).unwrap();
    group.bench_function("cache_hit", |b| b.iter(|| engine.execute(&pair).unwrap()));
    // The miss/insert path: round-robin over twice the capacity makes
    // every insert an evicting miss, so this times the per-miss key
    // allocation (now one shared `Arc<str>`, previously two `String`s).
    group.bench_function("cache_insert_miss", |b| {
        let cache = lfp_query::ShardedLru::new(8, 512);
        let keys: Vec<String> = (0..1024)
            .map(|index| format!(r#"{{"query":"vendor_mix","as":{index}}}"#))
            .collect();
        let body: std::sync::Arc<str> = std::sync::Arc::from(r#"{"ok": true}"#);
        let mut next = 0usize;
        b.iter(|| {
            cache.insert(&keys[next % keys.len()], std::sync::Arc::clone(&body));
            next += 1;
        })
    });
    group.bench_function("wire_decode", |b| {
        b.iter(|| {
            wire::decode(r#"{"query":"path_diversity","src_as":3,"dst_as":9,"min_hops":2}"#)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let world = shared_tiny_world();
    let mut group = c.benchmark_group("query_batch");
    group.sample_size(10);
    group.bench_function("batch_64_cold_engine", |b| {
        b.iter(|| {
            let engine = QueryEngine::new(world.clone());
            let queries = mixed_queries(&engine, 64);
            run_batch(&engine, &queries)
        })
    });
    let engine = QueryEngine::new(world.clone());
    let queries = mixed_queries(&engine, 64);
    run_batch(&engine, &queries);
    group.bench_function("batch_64_warm_cache", |b| {
        b.iter(|| run_batch(&engine, &queries))
    });
    group.finish();
}

criterion_group!(benches, bench_engine_paths, bench_batch);
criterion_main!(benches);
