//! # lfp-query — the vendor-intelligence query engine
//!
//! The paper's end product is *queryable* intelligence — "which vendors
//! does provider X run?", "how vendor-diverse are paths between AS A and
//! AS B?" (§5–§6) — but the batch pipeline answers those questions by
//! rebuilding a [`World`](lfp_analysis::World) and regenerating figures.
//! This crate turns the measured state into a serving layer:
//!
//! * [`query`] — the typed [`Query`] AST (vendor mix by AS or region,
//!   path diversity between AS pairs, transition-matrix and longest-run
//!   slices) with filters by source dataset, path length and US slice,
//!   plus a canonical wire form that doubles as the cache key,
//! * [`plan`] — the planner: lowers a [`Selection`] onto the path
//!   corpus's columnar indexes (`rows_between` / `rows_of_source` /
//!   `rows_with_length`) and runs one of two executors — rows
//!   (intersecting sorted row-id slices, residual predicates in one
//!   fused pass) when an AS endpoint is named, the corpus's
//!   per-(source, slice, hop count) group folds when none is — with one
//!   `explain` trace for both,
//! * [`cache`] — a sharded LRU keyed by the canonical query, storing the
//!   rendered result bytes so a hit is a hash, a lock and an `Arc` clone,
//! * [`engine`] — [`QueryEngine`]: plan → execute → render → cache,
//! * [`batch`] — fans independent queries across the zmap-style sharded
//!   scanner with deterministic result ordering (batch ≡ serial, byte
//!   for byte),
//! * [`wire`] — the line protocol: one JSON query per line in, one JSON
//!   result per line out, plus the incremental [`FrameDecoder`] the
//!   event-driven server feeds raw socket chunks and the single-pass
//!   [`wire::decode_to_key`] its loop decodes each line with (the
//!   `vendor-queryd` binary in `lfp-bench` serves it over TCP via
//!   `lfp-serve`).
//!
//! ```no_run
//! use lfp_analysis::World;
//! use lfp_query::{wire, QueryEngine};
//! use lfp_topo::Scale;
//! use std::sync::Arc;
//!
//! let world = Arc::new(World::build(Scale::tiny()));
//! let engine = QueryEngine::new(world);
//! let query = wire::decode(r#"{"query": "path_diversity", "src_as": 3, "dst_as": 9}"#)?;
//! let response = engine.execute(&query)?;
//! println!("{}", response.payload);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod engine;
pub mod plan;
pub mod query;
pub mod wire;

pub use batch::{run_batch, run_batch_with_shards};
pub use cache::{CacheStats, LaneStats, ShardedLru, LANE_SLOTS};
pub use engine::{CacheKey, ExecObs, QueryEngine, Response};
pub use plan::{select_rows, RowPlan};
pub use query::{Query, Selection};
pub use wire::{FrameDecoder, FrameError};

#[cfg(test)]
pub(crate) mod testutil {
    use crate::plan::RowPlan;
    use crate::query::{slice_name, Selection};
    use lfp_analysis::path_corpus::{intersect_sorted, CorpusParts, PathCorpus};
    use lfp_analysis::us_study::UsSlice;
    use lfp_analysis::World;
    use lfp_topo::Scale;
    use std::sync::{Arc, OnceLock};

    /// One tiny world shared by every test in this crate (building a
    /// world dominates test wall-clock; the engine under test does not).
    pub fn shared_world() -> Arc<World> {
        static WORLD: OnceLock<Arc<World>> = OnceLock::new();
        Arc::clone(WORLD.get_or_init(|| Arc::new(World::build(Scale::tiny()))))
    }

    /// Oracle for [`select_rows`](crate::select_rows): the staged plan
    /// the fused pass replaced — copy the smallest index contribution,
    /// intersect the rest into it, then `retain` once per residual
    /// predicate, appending to the trace after every stage.
    pub fn select_rows_staged(
        corpus: &PathCorpus,
        selection: &Selection,
    ) -> Result<RowPlan, String> {
        let mut parts: Vec<(String, Vec<u32>)> = Vec::new();
        match (selection.src_as, selection.dst_as) {
            (Some(src), Some(dst)) => parts.push((
                format!("between({src},{dst})"),
                corpus.rows_between(src, dst),
            )),
            (Some(src), None) => {
                parts.push((format!("src_as({src})"), corpus.rows_from_as(src).to_vec()))
            }
            (None, Some(dst)) => {
                parts.push((format!("dst_as({dst})"), corpus.rows_to_as(dst).to_vec()))
            }
            (None, None) => {}
        }
        if let Some(name) = &selection.source {
            let source = corpus.source_id(name).ok_or_else(|| {
                format!(
                    "unknown source dataset '{name}' (have: {})",
                    corpus.sources().join(", ")
                )
            })?;
            parts.push((
                format!("source({name})"),
                corpus.rows_of_source(source).to_vec(),
            ));
        }
        let exact_hops = match (selection.min_hops, selection.max_hops) {
            (Some(min), Some(max)) if min == max => Some(min),
            _ => None,
        };
        if let Some(hops) = exact_hops {
            parts.push((
                format!("length({hops})"),
                corpus.rows_with_length(hops).to_vec(),
            ));
        }
        parts.sort_by_key(|(_, rows)| rows.len());

        let mut explain;
        let mut rows = match parts.split_first() {
            None => {
                explain = format!("base=all({})", corpus.len());
                corpus.all_rows()
            }
            Some(((label, base), rest)) => {
                explain = format!("base={label}[{}]", base.len());
                let mut rows = base.clone();
                for (label, part) in rest {
                    rows = intersect_sorted(&rows, part);
                    explain.push_str(&format!(" ∩ {label}[{}] → {}", part.len(), rows.len()));
                }
                rows
            }
        };
        if exact_hops.is_none() && (selection.min_hops.is_some() || selection.max_hops.is_some()) {
            let min = selection.min_hops.unwrap_or(0);
            let max = selection.max_hops.unwrap_or(u16::MAX);
            rows.retain(|&row| (min..=max).contains(&corpus.hops_of(row)));
            explain.push_str(&format!(" ▸ hops {min}..={max} → {}", rows.len()));
        }
        if let Some(slice) = selection.slice {
            rows.retain(|&row| corpus.us_slice_of(row) == slice);
            explain.push_str(&format!(" ▸ slice {} → {}", slice_name(slice), rows.len()));
        }
        Ok(RowPlan { rows, explain })
    }

    /// Every filter shape the planner distinguishes, crossed: endpoints
    /// {none, src, dst, pair} × source {none, each dataset} × hops {none,
    /// exact, min only, max only, range, empty range (`min > max`), a
    /// max past the corpus's longest path} × slice {none, each}.
    pub fn selection_grid(corpus: &PathCorpus) -> Vec<Selection> {
        let (src, dst) = (corpus.src_as_ids()[0], corpus.dst_as_ids()[0]);
        let endpoints = [
            (None, None),
            (Some(src), None),
            (None, Some(dst)),
            (Some(src), Some(dst)),
        ];
        let mut sources: Vec<Option<String>> = vec![None];
        sources.extend(corpus.sources().iter().cloned().map(Some));
        let longest = corpus
            .all_rows()
            .into_iter()
            .map(|row| corpus.hops_of(row))
            .max()
            .unwrap_or(0);
        let hops = [
            (None, None),
            (Some(4), Some(4)),
            (Some(3), None),
            (None, Some(6)),
            (Some(2), Some(7)),
            (Some(9), Some(3)),
            (Some(3), Some(longest + 40)),
        ];
        let mut slices = vec![None];
        slices.extend(lfp_analysis::us_study::UsSlice::ALL.map(Some));
        let mut grid = Vec::new();
        for &(src_as, dst_as) in &endpoints {
            for source in &sources {
                for &(min_hops, max_hops) in &hops {
                    for &slice in &slices {
                        grid.push(Selection {
                            src_as,
                            dst_as,
                            source: source.clone(),
                            min_hops,
                            max_hops,
                            slice,
                        });
                    }
                }
            }
        }
        grid
    }

    /// A corpus of hand-made paths `(source id, hop codes, US slice)`
    /// over sources `S-1` and `S-derived`, built through
    /// [`PathCorpus::from_parts`]: for shapes a simulated world does not
    /// happen to produce. Every row gets its own sequence and set, and
    /// AS ids `row` → `100 + row`.
    pub fn corpus_of(paths: &[(u16, &[u8], UsSlice)]) -> PathCorpus {
        let mut parts = CorpusParts {
            sources: vec!["S-1".to_string(), "S-derived".to_string()],
            ripe_source_count: 1,
            latest_ripe: 0,
            source: Vec::new(),
            src_as: Vec::new(),
            dst_as: Vec::new(),
            effective_len: Vec::new(),
            snmp_identified: Vec::new(),
            slice: Vec::new(),
            set_id: Vec::new(),
            seq_id: Vec::new(),
            edge_vendors: Vec::new(),
            core_vendors: Vec::new(),
            as_segments: Vec::new(),
            runs: Vec::new(),
            seq_spans: Vec::new(),
            sets: Vec::new(),
        };
        for (row, &(source, codes, slice)) in paths.iter().enumerate() {
            let offset = parts.runs.len();
            for &code in codes {
                match parts.runs[offset..].last_mut() {
                    Some((last, len)) if *last == code => *len += 1,
                    _ => parts.runs.push((code, 1)),
                }
            }
            parts
                .seq_spans
                .push((offset as u32, (parts.runs.len() - offset) as u32));
            let mut set = codes.to_vec();
            set.sort_unstable();
            set.dedup();
            parts.sets.push(set);
            parts.source.push(source);
            parts.src_as.push(row as u32);
            parts.dst_as.push(100 + row as u32);
            parts.effective_len.push(codes.len() as u16);
            parts.snmp_identified.push(0);
            parts.slice.push(slice.code());
            parts.set_id.push(row as u32);
            parts.seq_id.push(row as u32);
            parts.edge_vendors.push(0);
            parts.core_vendors.push(0);
            parts.as_segments.push(0);
        }
        PathCorpus::from_parts(parts).expect("hand-made parts are valid")
    }
}
