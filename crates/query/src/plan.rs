//! The planner: lower a [`Selection`] onto the path corpus's columnar
//! indexes.
//!
//! Every indexable predicate contributes a **sorted row-id slice** (the
//! corpus builds its indexes in row order): AS pair → `rows_between`
//! (itself a sorted intersection of the per-endpoint indexes), single
//! endpoint → `rows_from_as`/`rows_to_as`, dataset → `rows_of_source`,
//! exact hop count → `rows_with_length`. The planner picks the smallest
//! contribution as the scan base and intersects the rest pairwise (linear
//! two-pointer merges via [`intersect_sorted`]).
//!
//! The predicates an index cannot answer (hop *ranges*, US slice) are
//! then applied by **one fused pass** over the base — the row range
//! `0..len` when nothing was indexable, a borrowed index slice, or the
//! computed intersection — so no base is copied before it is filtered
//! and no row is visited twice. The pass counts the survivors of each
//! stage as it goes, which is all the `explain` trace (chosen base,
//! selectivity of each step) needs.

use crate::query::{slice_name, Selection};
use lfp_analysis::path_corpus::{intersect_sorted, PathCorpus};
use lfp_analysis::us_study::UsSlice;
use std::borrow::Cow;
use std::fmt::Write as _;

/// A planned (and executed) row selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPlan {
    /// The selected rows, ascending.
    pub rows: Vec<u32>,
    /// Human-readable plan trace: base index, intersections, residual
    /// filters, and the row count after each step.
    pub explain: String,
}

/// One index-backed contribution to the selection.
struct IndexPart<'a> {
    label: String,
    rows: Cow<'a, [u32]>,
}

/// Plan and execute a selection against the corpus.
///
/// Errors only on an unknown `source` dataset name (the one filter whose
/// domain a client cannot know a priori; the error lists what exists).
pub fn select_rows(corpus: &PathCorpus, selection: &Selection) -> Result<RowPlan, String> {
    let mut parts: Vec<IndexPart> = Vec::new();

    // AS endpoints: the pair index when both are present, the
    // single-endpoint index otherwise.
    match (selection.src_as, selection.dst_as) {
        (Some(src_as), Some(dst_as)) => parts.push(IndexPart {
            label: format!("between({src_as},{dst_as})"),
            rows: Cow::Owned(corpus.rows_between(src_as, dst_as)),
        }),
        (Some(src_as), None) => parts.push(IndexPart {
            label: format!("src_as({src_as})"),
            rows: Cow::Borrowed(corpus.rows_from_as(src_as)),
        }),
        (None, Some(dst_as)) => parts.push(IndexPart {
            label: format!("dst_as({dst_as})"),
            rows: Cow::Borrowed(corpus.rows_to_as(dst_as)),
        }),
        (None, None) => {}
    }

    if let Some(name) = &selection.source {
        let source = corpus.source_id(name).ok_or_else(|| {
            format!(
                "unknown source dataset '{name}' (have: {})",
                corpus.sources().join(", ")
            )
        })?;
        parts.push(IndexPart {
            label: format!("source({name})"),
            rows: Cow::Borrowed(corpus.rows_of_source(source)),
        });
    }

    // An exact hop count lowers onto the length index; any other hop
    // bound stays a residual range for the fused pass below.
    let hop_range = match (selection.min_hops, selection.max_hops) {
        (None, None) => None,
        (Some(min), Some(max)) if min == max => {
            parts.push(IndexPart {
                label: format!("length({min})"),
                rows: Cow::Borrowed(corpus.rows_with_length(min)),
            });
            None
        }
        (min, max) => Some((min.unwrap_or(0), max.unwrap_or(u16::MAX))),
    };
    let (min, max) = hop_range.unwrap_or((0, u16::MAX));

    // Smallest contribution first: every later intersection is bounded
    // by the base's cardinality.
    parts.sort_by_key(|part| part.rows.len());

    let mut explain = String::new();
    let (rows, in_range) = match parts.split_first() {
        None => {
            let _ = write!(explain, "base=all({})", corpus.len());
            filter_rows(corpus, 0..corpus.len() as u32, min, max, selection.slice)
        }
        Some((base, rest)) => {
            let _ = write!(explain, "base={}[{}]", base.label, base.rows.len());
            let mut rows = Cow::Borrowed(&*base.rows);
            for part in rest {
                rows = Cow::Owned(intersect_sorted(&rows, &part.rows));
                let _ = write!(
                    explain,
                    " ∩ {}[{}] → {}",
                    part.label,
                    part.rows.len(),
                    rows.len()
                );
            }
            filter_rows(corpus, rows.iter().copied(), min, max, selection.slice)
        }
    };
    if hop_range.is_some() {
        let _ = write!(explain, " ▸ hops {min}..={max} → {in_range}");
    }
    if let Some(slice) = selection.slice {
        let _ = write!(explain, " ▸ slice {} → {}", slice_name(slice), rows.len());
    }
    Ok(RowPlan { rows, explain })
}

/// The fused residual pass: keep the rows of `base` with `min..=max`
/// router hops in `slice` (when given), and count the rows passing the
/// hop test alone — the explain trace reports each stage's survivors.
/// Every row is written to the output and the cursor advances only for
/// keepers, so the loop has no data-dependent branch to mispredict.
fn filter_rows(
    corpus: &PathCorpus,
    base: impl ExactSizeIterator<Item = u32>,
    min: u16,
    max: u16,
    slice: Option<UsSlice>,
) -> (Vec<u32>, usize) {
    // Bit `code` set ⇔ rows of that slice pass.
    let slices: u8 = slice.map_or(u8::MAX, |slice| 1 << slice.code());
    let mut rows = vec![0u32; base.len()];
    let (mut kept, mut in_range) = (0usize, 0usize);
    for row in base {
        let hops_ok = (min..=max).contains(&corpus.hops_of(row));
        let slice_ok = (slices >> corpus.us_slice_of(row).code()) & 1 == 1;
        rows[kept] = row;
        in_range += usize::from(hops_ok);
        kept += usize::from(hops_ok & slice_ok);
    }
    rows.truncate(kept);
    (rows, in_range)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{select_rows_staged, selection_grid, shared_world};

    /// Reference implementation: scan every row, apply every predicate.
    fn naive_rows(corpus: &PathCorpus, selection: &Selection) -> Vec<u32> {
        let source = selection
            .source
            .as_deref()
            .map(|name| corpus.source_id(name).expect("known source") as u16);
        corpus
            .all_rows()
            .into_iter()
            .filter(|&row| {
                let hops = corpus.hops_of(row);
                selection
                    .src_as
                    .is_none_or(|src| corpus.rows_from_as(src).contains(&row))
                    && selection
                        .dst_as
                        .is_none_or(|dst| corpus.rows_to_as(dst).contains(&row))
                    && source.is_none_or(|wanted| corpus.source_of(row) == wanted)
                    && selection.min_hops.is_none_or(|min| hops >= min)
                    && selection.max_hops.is_none_or(|max| hops <= max)
                    && selection
                        .slice
                        .is_none_or(|wanted| corpus.us_slice_of(row) == wanted)
            })
            .collect()
    }

    #[test]
    fn empty_selection_selects_every_row() {
        let world = shared_world();
        let corpus = world.path_corpus();
        let plan = select_rows(corpus, &Selection::default()).unwrap();
        assert_eq!(plan.rows, corpus.all_rows());
        assert!(plan.explain.contains("base=all"), "{}", plan.explain);
    }

    #[test]
    fn planner_matches_naive_scan_across_filter_shapes() {
        let world = shared_world();
        let corpus = world.path_corpus();
        let src = corpus.src_as_ids();
        let dst = corpus.dst_as_ids();
        let sources = corpus.sources();
        let selections = [
            Selection {
                src_as: Some(src[0]),
                ..Selection::default()
            },
            Selection {
                dst_as: Some(dst[dst.len() / 2]),
                ..Selection::default()
            },
            Selection {
                src_as: Some(src[0]),
                dst_as: Some(dst[0]),
                ..Selection::default()
            },
            Selection {
                source: Some(sources[0].clone()),
                min_hops: Some(2),
                max_hops: Some(6),
                ..Selection::default()
            },
            Selection {
                source: Some("ITDK-derived".to_string()),
                slice: Some(UsSlice::IntraUs),
                ..Selection::default()
            },
            Selection {
                min_hops: Some(4),
                max_hops: Some(4),
                ..Selection::default()
            },
            Selection {
                src_as: Some(src[src.len() - 1]),
                source: Some(sources[sources.len() - 1].clone()),
                min_hops: Some(1),
                slice: Some(UsSlice::Other),
                ..Selection::default()
            },
        ];
        for selection in &selections {
            let plan = select_rows(corpus, selection).unwrap();
            assert_eq!(
                plan.rows,
                naive_rows(corpus, selection),
                "selection {selection:?} (plan: {})",
                plan.explain
            );
            // Planned rows always come back sorted (index order).
            assert!(plan.rows.windows(2).all(|pair| pair[0] < pair[1]));
        }
    }

    #[test]
    fn fused_plan_equals_the_staged_oracle_in_rows_and_explain() {
        let world = shared_world();
        let corpus = world.path_corpus();
        let grid = selection_grid(corpus);
        assert!(grid.len() >= 4 * 3 * 6 * 4);
        let mut nonempty = 0usize;
        for selection in &grid {
            let fused = select_rows(corpus, selection).unwrap();
            let staged = select_rows_staged(corpus, selection).unwrap();
            assert_eq!(fused, staged, "selection {selection:?}");
            nonempty += usize::from(!fused.rows.is_empty());
        }
        assert!(nonempty > grid.len() / 8, "grid selects almost nothing");
    }

    #[test]
    fn exact_hop_count_uses_the_length_index() {
        let world = shared_world();
        let corpus = world.path_corpus();
        let selection = Selection {
            min_hops: Some(3),
            max_hops: Some(3),
            ..Selection::default()
        };
        let plan = select_rows(corpus, &selection).unwrap();
        assert!(plan.explain.contains("length(3)"), "{}", plan.explain);
        assert_eq!(plan.rows, corpus.rows_with_length(3));
    }

    #[test]
    fn pair_selection_uses_rows_between() {
        let world = shared_world();
        let corpus = world.path_corpus();
        let src = corpus.src_as_ids()[0];
        let dst = corpus.dst_as_ids()[0];
        let plan = select_rows(
            corpus,
            &Selection {
                src_as: Some(src),
                dst_as: Some(dst),
                ..Selection::default()
            },
        )
        .unwrap();
        assert!(plan.explain.contains("between("), "{}", plan.explain);
        assert_eq!(plan.rows, corpus.rows_between(src, dst));
    }

    #[test]
    fn unknown_source_is_a_descriptive_error() {
        let world = shared_world();
        let corpus = world.path_corpus();
        let error = select_rows(
            corpus,
            &Selection {
                source: Some("RIPE-99".to_string()),
                ..Selection::default()
            },
        )
        .unwrap_err();
        assert!(error.contains("RIPE-99"), "{error}");
        assert!(error.contains("ITDK-derived"), "{error}");
    }
}
