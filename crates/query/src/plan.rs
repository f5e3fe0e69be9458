//! The planner: lower a [`Selection`] onto the path corpus, choose an
//! executor from what the selection asks, and explain what ran.
//!
//! **Lowering.** Every indexable predicate contributes a **sorted row-id
//! slice** (the corpus builds its indexes in row order): AS pair →
//! `rows_between` (itself a sorted intersection of the per-endpoint
//! indexes), single endpoint → `rows_from_as`/`rows_to_as`, dataset →
//! `rows_of_source`, exact hop count → `rows_with_length`. The parts are
//! ordered smallest first — a stable sort, so equal sizes keep the order
//! endpoint, source, length — and the first is the scan base. What an
//! index cannot answer (hop *ranges*, the US slice) stays residual.
//! Every size is known here, before anything executes.
//!
//! **Two executors.**
//!
//! * *Rows* — when the selection names an AS endpoint. The base is
//!   intersected with the other parts pairwise ([`intersect_sorted`],
//!   which gallops when one side is far larger), then one fused pass
//!   applies the residual predicates — over the row range `0..len` when
//!   nothing was indexable, a borrowed index slice, or the computed
//!   intersection — so no base is copied before it is filtered and no
//!   row is visited twice. [`select_rows`] always runs this executor.
//! * *Groups* — when it names none. The corpus keeps per-(source, US
//!   slice, hop count) group folds as prefix sums over hop counts, so
//!   any source × hop range × slice is answered from at most three
//!   slices × two prefix records, and no row is materialised
//!   ([`plan`] chooses this for `transitions` and `longest_runs`).
//!
//! **One explain.** Both executors report the survivors of each stage —
//! each intersection, the hop test, the slice — to the one writer of
//! the `plan` trace ([`Lowered::explain`]). The group executor reads
//! them off its group counts: with no endpoint the only possible
//! intersection is source ∩ length(h), whose survivors are exactly the
//! source's rows with `h` hops, its in-range count. So the trace is
//! byte-identical whichever executor ran.

use crate::query::{slice_name, Selection};
use lfp_analysis::path_corpus::{
    intersect_sorted, GroupSelection, PathCorpus, RunHistogram, TransitionCells,
};
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

/// A planned selection for the ordered analyses, answered by whichever
/// executor [`plan`] chose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// What the executor selected.
    pub selected: Selected,
    /// The plan trace (the same bytes [`select_rows`] would write).
    pub explain: String,
}

/// The result of one executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selected {
    /// The rows executor's selection, ascending.
    Rows(Vec<u32>),
    /// The group executor's key and how many rows it covers.
    Groups {
        /// The selection in the group folds' key space.
        key: GroupSelection,
        /// Rows selected.
        rows: usize,
    },
}

impl Plan {
    /// Number of rows selected.
    pub fn paths(&self) -> usize {
        match &self.selected {
            Selected::Rows(rows) => rows.len(),
            Selected::Groups { rows, .. } => *rows,
        }
    }

    /// The transition matrix over the selection.
    pub fn transitions(&self, corpus: &PathCorpus) -> TransitionCells {
        match &self.selected {
            Selected::Rows(rows) => corpus.transition_cells(rows),
            Selected::Groups { key, .. } => corpus.group_transitions(key),
        }
    }

    /// The longest-run histogram over the selection.
    pub fn longest_runs(&self, corpus: &PathCorpus) -> RunHistogram {
        match &self.selected {
            Selected::Rows(rows) => corpus.longest_run_histogram(rows),
            Selected::Groups { key, .. } => corpus.group_runs(key),
        }
    }
}

/// One index-backed contribution to the selection.
struct IndexPart<'a> {
    label: String,
    rows: Cow<'a, [u32]>,
}

/// A selection lowered onto the corpus, before any executor runs.
struct Lowered<'a> {
    /// Index parts, smallest first (stable).
    parts: Vec<IndexPart<'a>>,
    /// Source id, when the selection names one.
    source: Option<usize>,
    /// Hop bounds (`0..=u16::MAX` when unbounded).
    hops: (u16, u16),
    /// Whether the hop bound is residual (not an exact count the length
    /// index answered).
    hop_residual: bool,
    slice: Option<UsSlice>,
    /// Rows in the corpus (the base when no part exists).
    all: usize,
}

/// Lower a selection. Errors only on an unknown `source` dataset name
/// (the one filter whose domain a client cannot know a priori; the
/// error lists what exists).
fn lower<'a>(corpus: &'a PathCorpus, selection: &Selection) -> Result<Lowered<'a>, String> {
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

    let mut source = None;
    if let Some(name) = &selection.source {
        let id = corpus.source_id(name).ok_or_else(|| {
            format!(
                "unknown source dataset '{name}' (have: {})",
                corpus.sources().join(", ")
            )
        })?;
        parts.push(IndexPart {
            label: format!("source({name})"),
            rows: Cow::Borrowed(corpus.rows_of_source(id)),
        });
        source = Some(id);
    }

    // An exact hop count lowers onto the length index; any other hop
    // bound stays a residual range.
    let (min, max) = (selection.min_hops, selection.max_hops);
    let exact = match (min, max) {
        (Some(min), Some(max)) if min == max => Some(min),
        _ => None,
    };
    if let Some(hops) = exact {
        parts.push(IndexPart {
            label: format!("length({hops})"),
            rows: Cow::Borrowed(corpus.rows_with_length(hops)),
        });
    }

    // Smallest contribution first: every later intersection is bounded
    // by the base's cardinality.
    parts.sort_by_key(|part| part.rows.len());
    Ok(Lowered {
        parts,
        source,
        hops: (min.unwrap_or(0), max.unwrap_or(u16::MAX)),
        hop_residual: exact.is_none() && (min.is_some() || max.is_some()),
        slice: selection.slice,
        all: corpus.len(),
    })
}

impl Lowered<'_> {
    /// The plan trace, from each stage's survivors: `met[i]` after the
    /// base's `i`-th intersection, `in_range` after the hop test, `kept`
    /// after the slice.
    fn explain(&self, met: &[usize], in_range: usize, kept: usize) -> String {
        let mut explain = String::new();
        match self.parts.split_first() {
            None => {
                let _ = write!(explain, "base=all({})", self.all);
            }
            Some((base, rest)) => {
                let _ = write!(explain, "base={}[{}]", base.label, base.rows.len());
                for (part, met) in rest.iter().zip(met) {
                    let _ = write!(explain, " ∩ {}[{}] → {met}", part.label, part.rows.len());
                }
            }
        }
        if self.hop_residual {
            let (min, max) = self.hops;
            let _ = write!(explain, " ▸ hops {min}..={max} → {in_range}");
        }
        if let Some(slice) = self.slice {
            let _ = write!(explain, " ▸ slice {} → {kept}", slice_name(slice));
        }
        explain
    }

    /// The rows executor: intersect the parts into the base, then the
    /// fused residual pass.
    fn select_rows(&self, corpus: &PathCorpus) -> RowPlan {
        let (min, max) = self.hops;
        let mut met = Vec::new();
        let (rows, in_range) = match self.parts.split_first() {
            None => filter_rows(corpus, 0..self.all as u32, min, max, self.slice),
            Some((base, rest)) => {
                let mut rows = Cow::Borrowed(&*base.rows);
                for part in rest {
                    rows = Cow::Owned(intersect_sorted(&rows, &part.rows));
                    met.push(rows.len());
                }
                filter_rows(corpus, rows.iter().copied(), min, max, self.slice)
            }
        };
        let explain = self.explain(&met, in_range, rows.len());
        RowPlan { rows, explain }
    }

    /// The group executor (endpoint-free selections only): every stage
    /// count comes from the group folds.
    fn select_groups(&self, corpus: &PathCorpus) -> Plan {
        let (min_hops, max_hops) = self.hops;
        let key = GroupSelection {
            source: self.source,
            min_hops,
            max_hops,
            slice: self.slice,
        };
        let (in_range, rows) = corpus.group_rows(&key);
        // The one intersection an endpoint-free selection can have is
        // source ∩ length(h): its survivors are the in-range rows.
        let explain = self.explain(&[in_range], in_range, rows);
        Plan {
            selected: Selected::Groups { key, rows },
            explain,
        }
    }
}

/// Plan and execute a selection on the rows executor, materialising the
/// selected rows (what `path_diversity` folds over).
///
/// Errors only on an unknown `source` dataset name.
pub fn select_rows(corpus: &PathCorpus, selection: &Selection) -> Result<RowPlan, String> {
    Ok(lower(corpus, selection)?.select_rows(corpus))
}

/// Plan a selection for the ordered analyses (`transitions`,
/// `longest_runs`): the group executor when no AS endpoint is named,
/// the rows executor otherwise. The choice depends on the selection
/// alone, and both answer the same bytes.
///
/// Errors only on an unknown `source` dataset name.
pub fn plan(corpus: &PathCorpus, selection: &Selection) -> Result<Plan, String> {
    let lowered = lower(corpus, selection)?;
    if selection.src_as.is_none() && selection.dst_as.is_none() {
        return Ok(lowered.select_groups(corpus));
    }
    let RowPlan { rows, explain } = lowered.select_rows(corpus);
    Ok(Plan {
        selected: Selected::Rows(rows),
        explain,
    })
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
    use crate::testutil::{corpus_of, select_rows_staged, selection_grid, shared_world};

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

    /// Both executors agree on the trace, the row count and the folds.
    fn assert_executors_agree(corpus: &PathCorpus, selection: &Selection) -> Plan {
        let rows = select_rows(corpus, selection).unwrap();
        let planned = plan(corpus, selection).unwrap();
        assert_eq!(planned.explain, rows.explain, "selection {selection:?}");
        assert_eq!(planned.paths(), rows.rows.len(), "selection {selection:?}");
        assert_eq!(
            planned.transitions(corpus),
            corpus.transition_cells(&rows.rows),
            "selection {selection:?}"
        );
        assert_eq!(
            planned.longest_runs(corpus),
            corpus.longest_run_histogram(&rows.rows),
            "selection {selection:?}"
        );
        planned
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
    fn the_group_executor_answers_endpoint_free_selections_like_the_rows_executor() {
        let world = shared_world();
        let corpus = world.path_corpus();
        let (mut grouped, mut on_rows) = (0usize, 0usize);
        for selection in &selection_grid(corpus) {
            let planned = assert_executors_agree(corpus, selection);
            match planned.selected {
                Selected::Groups { .. } => grouped += 1,
                Selected::Rows(_) => on_rows += 1,
            }
            let endpoint_free = selection.src_as.is_none() && selection.dst_as.is_none();
            assert_eq!(
                matches!(planned.selected, Selected::Groups { .. }),
                endpoint_free,
                "selection {selection:?}"
            );
        }
        assert!(grouped > 0 && on_rows > 0);
    }

    #[test]
    fn equal_sized_parts_keep_their_lowering_order_on_both_executors() {
        // Source S-1 and length(5) both hold two rows: the stable sort
        // keeps source first, and the group executor's trace follows.
        let corpus = corpus_of(&[
            (0, &[0, 0, 1], UsSlice::IntraUs),
            (0, &[2, 2, 2, 1, 1], UsSlice::Other),
            (1, &[1, 1, 1, 1, 1], UsSlice::Other),
            (1, &[3, 3, 3, 3], UsSlice::InterUs),
        ]);
        assert_eq!(corpus.rows_of_source(0).len(), 2);
        assert_eq!(corpus.rows_with_length(5).len(), 2);
        let selection = Selection {
            source: Some("S-1".to_string()),
            min_hops: Some(5),
            max_hops: Some(5),
            ..Selection::default()
        };
        let planned = assert_executors_agree(&corpus, &selection);
        assert_eq!(planned.explain, "base=source(S-1)[2] ∩ length(5)[2] → 1");
        assert!(matches!(planned.selected, Selected::Groups { rows: 1, .. }));
        let sliced = Selection {
            slice: Some(UsSlice::IntraUs),
            ..selection
        };
        let planned = assert_executors_agree(&corpus, &sliced);
        assert_eq!(
            planned.explain,
            "base=source(S-1)[2] ∩ length(5)[2] → 1 ▸ slice intra-us → 0"
        );
    }

    #[test]
    fn empty_and_oversized_hop_ranges_plan_alike_on_both_executors() {
        let world = shared_world();
        let corpus = world.path_corpus();
        let longest = corpus
            .all_rows()
            .into_iter()
            .map(|row| corpus.hops_of(row))
            .max()
            .unwrap();
        let past = longest + 50;
        for (min_hops, max_hops) in [
            (Some(9), Some(3)),
            (None, Some(past)),
            (Some(2), Some(past)),
            (Some(past), None),
            (Some(past), Some(past)),
        ] {
            for source in [None, Some(corpus.sources()[0].clone())] {
                let selection = Selection {
                    source,
                    min_hops,
                    max_hops,
                    ..Selection::default()
                };
                let planned = assert_executors_agree(corpus, &selection);
                assert_eq!(planned.paths(), naive_rows(corpus, &selection).len());
            }
        }
        let everything = Selection {
            max_hops: Some(past),
            ..Selection::default()
        };
        let planned = plan(corpus, &everything).unwrap();
        assert_eq!(planned.paths(), corpus.len());
        assert_eq!(
            planned.explain,
            format!("base=all({0}) ▸ hops 0..={past} → {0}", corpus.len())
        );
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
        let selection = Selection {
            source: Some("RIPE-99".to_string()),
            ..Selection::default()
        };
        let error = select_rows(corpus, &selection).unwrap_err();
        assert!(error.contains("RIPE-99"), "{error}");
        assert!(error.contains("ITDK-derived"), "{error}");
        // The group executor refuses with the same words.
        assert_eq!(plan(corpus, &selection).unwrap_err(), error);
        assert_eq!(
            error,
            format!(
                "unknown source dataset 'RIPE-99' (have: {})",
                corpus.sources().join(", ")
            )
        );
    }
}
