//! Path-corpus benchmarks: the build fold (single-shard vs parallel) and
//! the query families the §6 figures and the ordered-path experiments
//! lean on. The build is the repo benchmark's `analysis.corpus_build_s`;
//! the queries show why a build-once store beats re-walking the trace
//! list per figure. The ordered folds are timed over the whole
//! corpus *and* over planned selections (dataset + hop range + slice,
//! and one AS pair) — the shapes the repo benchmark's `serve-cold`
//! workload sends.

use criterion::{criterion_group, criterion_main, Criterion};
use lfp_analysis::path_corpus::{LabelSource, PathCorpus};
use lfp_analysis::us_study::UsSlice;
use lfp_bench::shared_tiny_world;
use lfp_query::{select_rows, Selection};
use std::num::NonZeroUsize;

fn bench_corpus_build(c: &mut Criterion) {
    let world = shared_tiny_world();
    let mut group = c.benchmark_group("path_corpus_build");
    group.sample_size(10);
    group.bench_function("single_shard", |b| {
        b.iter(|| PathCorpus::build_with_shards(&world, NonZeroUsize::new(1).unwrap()))
    });
    group.bench_function("parallel", |b| b.iter(|| PathCorpus::build(&world)));
    group.finish();
}

fn bench_corpus_queries(c: &mut Criterion) {
    let world = shared_tiny_world();
    let corpus = world.path_corpus();
    let rows = corpus.all_rows();
    let latest = corpus.rows_in(corpus.latest_ripe_source(), None);
    let mut group = c.benchmark_group("path_corpus_query");
    group.bench_function("path_length_ecdf", |b| {
        b.iter(|| corpus.path_length_ecdf(&latest))
    });
    group.bench_function("identified_fraction_ecdf", |b| {
        b.iter(|| corpus.identified_fraction_ecdf(&latest, 3, 0, LabelSource::Lfp))
    });
    group.bench_function("top_vendor_combinations", |b| {
        b.iter(|| corpus.top_vendor_combinations(&latest, 10))
    });
    group.bench_function("transition_matrix", |b| {
        b.iter(|| corpus.transition_matrix(&rows))
    });
    group.bench_function("longest_run_ecdf", |b| {
        b.iter(|| corpus.longest_run_ecdf(&rows))
    });
    group.bench_function("segment_summary", |b| {
        b.iter(|| corpus.segment_summary(&rows))
    });
    group.finish();
}

fn bench_selected_rows(c: &mut Criterion) {
    let world = shared_tiny_world();
    let corpus = world.path_corpus();
    let filtered = Selection {
        source: Some(corpus.sources()[corpus.latest_ripe_source()].clone()),
        min_hops: Some(2),
        max_hops: Some(8),
        slice: Some(UsSlice::Other),
        ..Selection::default()
    };
    let pair = Selection {
        src_as: Some(corpus.src_as_ids()[0]),
        dst_as: Some(corpus.dst_as_ids()[0]),
        ..Selection::default()
    };
    let mut group = c.benchmark_group("path_corpus_selected");
    for (name, selection) in [("source_hops_slice", &filtered), ("as_pair", &pair)] {
        let rows = select_rows(corpus, selection).expect("known source").rows;
        group.bench_function(&format!("select_rows/{name}"), |b| {
            b.iter(|| select_rows(corpus, selection))
        });
        group.bench_function(&format!("transition_matrix/{name}"), |b| {
            b.iter(|| corpus.transition_matrix(&rows))
        });
        group.bench_function(&format!("longest_run_ecdf/{name}"), |b| {
            b.iter(|| corpus.longest_run_ecdf(&rows))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_corpus_build,
    bench_corpus_queries,
    bench_selected_rows
);
criterion_main!(benches);
