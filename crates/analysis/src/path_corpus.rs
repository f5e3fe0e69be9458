//! The path corpus: a build-once, query-many columnar store over every
//! trace a measured [`World`] holds (paper §6, Figures 8–14, and the
//! ordered-path analyses beyond them).
//!
//! ## Why a corpus
//!
//! The flat functions in [`crate::paths`] re-walk and re-classify every
//! trace once per figure. That is seven passes over the same snapshot for
//! Figures 8–14 alone, and it only models *unordered* vendor sets — the
//! sequence a packet actually traverses (who hands off to whom, how long
//! a single vendor keeps custody, how diversity differs between the edge
//! and the transit core) is invisible to it. The corpus pays the
//! classification cost exactly once, interns each trace's classified hop
//! sequence into a compact vendor-run encoding, and indexes the result by
//! source AS, destination AS, path length, vendor set and vendor
//! sequence, so every figure — and every new ordered analysis — is a
//! cheap scan over small integer columns.
//!
//! ## Per-sequence summaries
//!
//! The ordered analyses ([`PathCorpus::transition_matrix`],
//! [`PathCorpus::longest_run_ecdf`]) ask the same two things of every
//! selected row: which hand-offs does its hop sequence contain, and how
//! long is its longest single-vendor run? Both are functions of the
//! *sequence*, and a corpus has far fewer sequences than rows. So as
//! each sequence is interned the corpus derives, per sequence id, its
//! longest identified run and a short list of `(matrix cell, weight)`
//! transition entries. These are derived arenas exactly like the
//! `router_hops` / `identified` columns: appended at intern time,
//! rebuilt by [`PathCorpus::from_parts`], never serialised (the store
//! format does not know they exist) and covered by `PartialEq`.
//!
//! A query then folds *sequence ids*: per selected row, one lookup and
//! a few adds into a dense 16×16 matrix, or one bump of a run-length
//! histogram — work proportional to the selection alone, never to the
//! corpus. The results are byte-identical to the per-hop folds they
//! replaced, by two arguments the tests pin down:
//!
//! * **Order.** A vendor's hop code is its enum discriminant, which is
//!   both its index in `Vendor::ALL` and its rank under `Vendor: Ord`;
//!   reading the dense matrix out in cell order therefore yields
//!   `(from, to)` pairs in exactly the order the old
//!   `BTreeMap<(Vendor, Vendor), _>` iterated.
//! * **Exactness.** Transition counts are integers summed in `u64`.
//!   Longest-run samples are small integers: a histogram read back in
//!   ascending order *is* the sorted sample vector the old code obtained
//!   by sorting, so the [`Ecdf`] (and its mean — a sum of
//!   integer-valued `f64`s, exact in any order) is the same value.
//!
//! ## Group folds
//!
//! The exploratory questions (paper §6–7) slice the corpus by dataset,
//! by US slice and by path length, with no AS endpoint at all — and for
//! those a per-row fold still walks thousands of rows. So the corpus
//! also keeps, for every **(source, US slice, router-hop count)** group,
//! the group's row count, its longest-run histogram and its transition
//! cells. They accumulate as rows are interned, from the same per-
//! sequence summaries the row folds read (O(new rows)), and are sealed
//! into one immutable [`Arc`]-shared table per source when a build or an
//! extension ends, plus a corpus-wide total that an extension updates by
//! adding only the new sources' tables. A table is sparse over hop
//! counts and lists only the run lengths and matrix cells present in it,
//! so nothing is sized by `u16::MAX`; within a slice its groups are
//! stored as prefix sums over ascending hop counts. Any endpoint-free
//! selection — a source or the whole corpus, a hop range, a slice or
//! all three — is then at most three slices × two prefix lookups
//! ([`PathCorpus::group_transitions`], [`PathCorpus::group_runs`]), and
//! no row is visited.
//!
//! The answers are the row folds' answers, exactly: every count is an
//! integer summed in `u64` (a prefix difference is an exact sum of the
//! groups in range), and a [`RunHistogram`]'s mean and quantiles are
//! computed the way [`Ecdf`]'s are — the integer sample sum is exact below
//! 2^53, which is the same value `Ecdf` reaches by adding integer-valued
//! `f64`s, and the quantile rank is the same `round(q·(n−1))`. Like the
//! summaries, the tables are derived: never serialised (`CorpusParts` and
//! the store bytes do not change), rebuilt by
//! [`PathCorpus::from_parts`] and covered by `PartialEq`. A table is a
//! canonical function of its groups' sums, so a chain of extensions, one
//! batch extension and a round trip through the parts all compare equal.
//!
//! ## Construction and determinism
//!
//! Building ingests every RIPE snapshot plus ITDK-derivable paths
//! ([`lfp_topo::datasets::derive_itdk_traces`]: ground-truth routed paths
//! toward the ITDK router population). Per-trace classification fans out
//! through [`lfp_net::scanner::scan`] and inherits its determinism
//! contract — results return in submission order regardless of shard
//! count — so the serial interning fold that follows sees an identical
//! stream whether the corpus was built on one shard or sixteen
//! (`tests/determinism.rs` asserts the built corpora compare equal).
//!
//! Figure 8–14 queries are regression-tested byte-for-byte against the
//! flat reference implementation (`tests/figures_regression.rs`).

use crate::paths::hop_vendors;
use crate::stats::Ecdf;
use crate::us_study::{slice_of, UsSlice};
use crate::world::World;
use lfp_net::link::splitmix64;
use lfp_net::scanner::{scan, ScanConfig};
use lfp_stack::vendor::Vendor;
use lfp_topo::datasets::{derive_itdk_traces, TraceRecord};
use lfp_topo::Internet;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;
use std::num::NonZeroUsize;
use std::sync::Arc;

/// Hop code for a responsive router hop without a unique LFP verdict.
pub const UNKNOWN_HOP: u8 = u8::MAX;

/// Compact code of a vendor: its discriminant, which is also its index
/// in [`Vendor::ALL`] and its rank under `Vendor: Ord` (pinned by
/// `vendor_codes_are_discriminants_in_ord_order`).
pub fn vendor_code(vendor: Vendor) -> u8 {
    vendor as u8
}

/// Vendor behind a hop code ([`UNKNOWN_HOP`] and out-of-range are `None`).
pub fn code_vendor(code: u8) -> Option<Vendor> {
    Vendor::ALL.get(code as usize).copied()
}

/// Which identification method a per-path query consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelSource {
    /// Unique LFP classifications (the paper's method).
    Lfp,
    /// SNMPv3 engine-ID labels (the baseline).
    Snmp,
}

/// Summary of edge-vs-transit vendor diversity over a row selection
/// (paths are segmented by the AS owning each hop; the first and last AS
/// segments are the edge, everything between them the transit core).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SegmentSummary {
    /// Paths considered (at least one identified hop).
    pub paths: usize,
    /// Paths that actually have a transit portion (≥ 3 AS segments).
    pub paths_with_core: usize,
    /// Mean distinct identified vendors in the edge segments.
    pub edge_mean: f64,
    /// Mean distinct identified vendors in the core (over paths that have
    /// one).
    pub core_mean: f64,
    /// Paths whose edge segments mix ≥ 2 vendors.
    pub edge_multi: usize,
    /// Paths whose core mixes ≥ 2 vendors.
    pub core_multi: usize,
}

/// One trace queued for the parallel classification fan-out.
struct TraceItem<'a> {
    index: usize,
    trace: &'a TraceRecord,
    lfp: &'a HashMap<Ipv4Addr, Vendor>,
    snmp: &'a HashMap<Ipv4Addr, Vendor>,
}

/// One row's stored columns, everything but its source id (assigned
/// when the row is appended) and its hop sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowFields {
    /// Vantage AS.
    pub src_as: u32,
    /// Destination AS.
    pub dst_as: u32,
    /// Effective path length.
    pub effective_len: u16,
    /// SNMPv3-identified hop count.
    pub snmp_identified: u16,
    /// US slice of the trace's endpoints.
    pub slice: UsSlice,
    /// Distinct identified vendors in the edge segments.
    pub edge_vendors: u8,
    /// Distinct identified vendors in the transit core.
    pub core_vendors: u8,
    /// AS segment count.
    pub as_segments: u16,
}

/// One trace classified into a row: everything the serial interning
/// fold needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedRow {
    /// The row's columns.
    pub fields: RowFields,
    /// The classified hop codes ([`vendor_code`] or [`UNKNOWN_HOP`]),
    /// run-length encoded.
    pub runs: Vec<(u8, u16)>,
}

/// One new source's rows, encoded and ready to append: what
/// [`PathCorpus::encode`] computes from traces, and what
/// [`PathCorpus::append_encoded`] interns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedSource {
    /// Dataset name the source registers under (must be unused).
    pub name: String,
    /// Whether this source is a RIPE-style snapshot (advances
    /// [`PathCorpus::latest_ripe_source`]).
    pub is_ripe_snapshot: bool,
    /// One row per trace, in collection order.
    pub rows: Vec<EncodedRow>,
}

/// Side of the dense vendor×vendor transition matrix (one row and one
/// column per vendor code); cell `from·MATRIX_SIDE + to` counts the
/// hand-off `from → to`.
const MATRIX_SIDE: usize = Vendor::ALL.len();
const MATRIX_CELLS: usize = MATRIX_SIDE * MATRIX_SIDE;
/// Entries per block of a sequence's transition-cell list.
const CELL_BLOCK: usize = 4;

/// Per-sequence summaries the ordered analyses fold over: what one
/// interned hop sequence contributes to the longest-run ECDF and to the
/// transition matrix. Pure functions of the run arena, derived as each
/// sequence is interned (and again by [`PathCorpus::from_parts`]); never
/// serialised.
#[derive(Debug, Clone, Default, PartialEq)]
struct SequenceSummaries {
    /// Longest identified run per sequence id; 0 = no identified hop
    /// (arena runs are never empty, so 0 is free to mean "none").
    longest_run: Vec<u16>,
    /// Sparse transition cells `(cell, weight)`, each matrix cell at most
    /// once per sequence, shared by all sequences. A sequence owns a
    /// whole number (≥ 1) of [`CELL_BLOCK`]-entry blocks: the fold then
    /// runs a fixed four adds per block with a loop exit that is almost
    /// always "one block", where a variable-length list costs a
    /// mispredicted exit per row (measured 2× slower). Unused slots hold
    /// zero-weight entries aimed at spare accumulators *past* the matrix
    /// (`MATRIX_CELLS + slot`), so padding never serialises on a real
    /// cell's accumulator.
    cells: Vec<(u16, u32)>,
    /// (offset, len) into `cells` per sequence id; `len` is a positive
    /// multiple of [`CELL_BLOCK`].
    cell_spans: Vec<(u32, u32)>,
}

impl SequenceSummaries {
    /// Append the summaries of the next sequence id.
    fn push(&mut self, runs: &[(u8, u16)]) {
        let offset = self.cells.len();
        let mut longest = 0u16;
        let mut previous: Option<u8> = None;
        for &(code, len) in runs {
            if code == UNKNOWN_HOP {
                continue;
            }
            longest = longest.max(len);
            if let Some(from) = previous {
                self.add_cell(offset, from, code, 1);
            }
            if len > 1 {
                self.add_cell(offset, code, code, u32::from(len) - 1);
            }
            previous = Some(code);
        }
        let used = self.cells.len() - offset;
        let padded = used.max(1).next_multiple_of(CELL_BLOCK);
        for slot in used..padded {
            self.cells
                .push(((MATRIX_CELLS + slot % CELL_BLOCK) as u16, 0));
        }
        self.longest_run.push(longest);
        self.cell_spans
            .push((offset as u32, (self.cells.len() - offset) as u32));
    }

    /// Add `weight` to the open sequence's `from → to` cell (the open
    /// sequence owns `cells[offset..]`; a handful of entries, so a linear
    /// probe beats any scratch table).
    fn add_cell(&mut self, offset: usize, from: u8, to: u8, weight: u32) {
        let cell = (from as usize * MATRIX_SIDE + to as usize) as u16;
        match self.cells[offset..].iter_mut().find(|(c, _)| *c == cell) {
            Some((_, total)) => *total += weight,
            None => self.cells.push((cell, weight)),
        }
    }

    fn cells_of(&self, seq: u32) -> &[(u16, u32)] {
        let (offset, len) = self.cell_spans[seq as usize];
        &self.cells[offset as usize..(offset + len) as usize]
    }
}

/// A dense vendor×vendor transition matrix: cell `from·16 + to` counts
/// the hand-off `from → to`, by vendor code (which is `Vendor: Ord`
/// order, so reading the cells in index order is reading the pairs in
/// order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionCells([u64; MATRIX_CELLS]);

impl TransitionCells {
    /// The nonzero cells as `(from, to, count)`, in `(Vendor, Vendor)`
    /// order.
    pub fn nonzero(&self) -> impl Iterator<Item = (Vendor, Vendor, u64)> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(cell, &count)| {
                let from = Vendor::ALL[cell / MATRIX_SIDE];
                (from, Vendor::ALL[cell % MATRIX_SIDE], count)
            })
    }

    /// Every hand-off counted.
    pub fn handoffs(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The diagonal: hand-offs that kept custody with one vendor.
    pub fn kept(&self) -> u64 {
        (0..MATRIX_SIDE)
            .map(|code| self.0[code * MATRIX_SIDE + code])
            .sum()
    }
}

/// The longest-run samples of a selection as a value histogram:
/// ascending `(run length, paths)` pairs, both ≥ 1 (paths without an
/// identified hop are not samples). Read back in order it *is* the
/// sorted sample vector, and its statistics are computed the way
/// [`Ecdf`]'s are, so they are the same values bit for bit (see the
/// module docs' "Group folds").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunHistogram(Vec<(u16, u64)>);

impl RunHistogram {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.iter().map(|&(_, paths)| paths as usize).sum()
    }

    /// True when there is no sample.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Mean of the samples: their integer sum (exact below 2^53) over
    /// their count — [`Ecdf::mean`]'s value.
    pub fn mean(&self) -> Option<f64> {
        let samples = self.len();
        let sum: u64 = self
            .0
            .iter()
            .map(|&(value, paths)| u64::from(value) * paths)
            .sum();
        (samples > 0).then(|| sum as f64 / samples as f64)
    }

    /// The q-quantile by nearest rank — [`Ecdf::quantile`]'s rank rule.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let samples = self.len();
        if samples == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (samples - 1) as f64).round() as usize;
        let mut seen = 0usize;
        self.0.iter().find_map(|&(value, paths)| {
            seen += paths as usize;
            (rank < seen).then_some(f64::from(value))
        })
    }

    /// The samples expanded into an [`Ecdf`] (already sorted).
    pub fn to_ecdf(&self) -> Ecdf {
        let mut sorted = Vec::with_capacity(self.len());
        for &(value, paths) in &self.0 {
            sorted.extend(std::iter::repeat_n(f64::from(value), paths as usize));
        }
        Ecdf::from_sorted(sorted)
    }
}

/// An endpoint-free selection in the group folds' key space: one source
/// (or the whole corpus), a router-hop range and one US slice (or all).
/// An empty range (`min_hops > max_hops`) selects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSelection {
    /// Source id, or `None` for every source.
    pub source: Option<usize>,
    /// Fewest router hops selected.
    pub min_hops: u16,
    /// Most router hops selected.
    pub max_hops: u16,
    /// US slice, or `None` for every slice.
    pub slice: Option<UsSlice>,
}

/// Number of US slices (the group key's middle component).
const SLICES: usize = UsSlice::ALL.len();

/// One group's fold while its source is open: rows, the longest-run
/// histogram (a handful of distinct values, so a short list) and dense
/// transition cells, with the spare accumulators a sequence's padding
/// entries aim at.
#[derive(Debug, Clone)]
struct GroupAcc {
    rows: u64,
    runs: Vec<(u16, u64)>,
    cells: Box<[u64; MATRIX_CELLS + CELL_BLOCK]>,
}

impl Default for GroupAcc {
    fn default() -> GroupAcc {
        GroupAcc {
            rows: 0,
            runs: Vec::new(),
            cells: Box::new([0; MATRIX_CELLS + CELL_BLOCK]),
        }
    }
}

impl GroupAcc {
    fn add_run(&mut self, value: u16, paths: u64) {
        match self.runs.iter_mut().find(|(run, _)| *run == value) {
            Some((_, total)) => *total += paths,
            None => self.runs.push((value, paths)),
        }
    }
}

/// The group folds of the sources a build or an extension is appending,
/// keyed `(source, slice code, router hops)`, until
/// [`PathCorpus::seal_groups`] turns them into tables.
#[derive(Debug)]
struct OpenGroups {
    /// Position in `groups` per key.
    index: HashMap<(u16, u8, u16), usize>,
    /// The groups, in first-row order.
    groups: Vec<((u16, u8, u16), GroupAcc)>,
    /// `index` memoised for the source of the latest row (rows arrive
    /// grouped by source) and hop counts below [`MEMO_HOPS`], so most rows
    /// skip the hash.
    memo_source: u16,
    memo: [usize; SLICES * MEMO_HOPS],
}

/// Hop counts the [`OpenGroups`] memo covers (every real path is shorter).
const MEMO_HOPS: usize = 64;

impl Default for OpenGroups {
    fn default() -> OpenGroups {
        OpenGroups {
            index: HashMap::new(),
            groups: Vec::new(),
            memo_source: 0,
            memo: [usize::MAX; SLICES * MEMO_HOPS],
        }
    }
}

impl OpenGroups {
    /// Fold one row; `longest` and `cells` are its sequence's summaries.
    fn add(&mut self, source: u16, slice: UsSlice, hops: u16, longest: u16, cells: &[(u16, u32)]) {
        if source != self.memo_source {
            self.memo_source = source;
            self.memo.fill(usize::MAX);
        }
        let memo = (hops as usize) * SLICES + slice.code() as usize;
        let at = match self.memo.get(memo) {
            Some(&at) if at != usize::MAX => at,
            _ => {
                let key = (source, slice.code(), hops);
                let fresh = self.groups.len();
                let at = *self.index.entry(key).or_insert(fresh);
                if at == fresh {
                    self.groups.push((key, GroupAcc::default()));
                }
                if let Some(slot) = self.memo.get_mut(memo) {
                    *slot = at;
                }
                at
            }
        };
        let group = &mut self.groups[at].1;
        group.rows += 1;
        group.add_run(longest, 1);
        for block in cells.chunks_exact(CELL_BLOCK) {
            for &(cell, weight) in block {
                group.cells[cell as usize] += u64::from(weight);
            }
        }
    }
}

/// The interning arenas' dedup tables: hop sequence → sequence id and
/// vendor set (as a bit mask over vendor codes) → set id. A pure
/// function of the arenas, kept beside them so that extending a corpus
/// interns only the new rows. Sequences are keyed by a hash of their
/// runs and confirmed against the arena, so the table holds no copy of
/// a sequence: it is a few words per id, and cloning it copies no heap
/// objects.
#[derive(Debug, Clone, Default, PartialEq)]
struct Interner {
    /// Sequence id by [`seq_hash`]: the first sequence with that hash.
    seqs: HashMap<u64, u32>,
    /// The sequences whose hash an earlier, different sequence took.
    colliding: HashMap<Vec<(u8, u16)>, u32>,
    sets: HashMap<u64, u32>,
}

impl Interner {
    fn add_seq(&mut self, runs: &[(u8, u16)], id: u32) {
        match self.seqs.entry(seq_hash(runs)) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(_) => {
                self.colliding.insert(runs.to_vec(), id);
            }
        }
    }
}

/// The key a hop sequence is interned under (a fixed-key hash, so equal
/// arenas give equal tables).
fn seq_hash(runs: &[(u8, u16)]) -> u64 {
    let mut hasher = DefaultHasher::new();
    runs.hash(&mut hasher);
    hasher.finish()
}

/// The identified vendors of a hop sequence as a bit mask over vendor
/// codes; ascending bits are ascending `Vendor: Ord`.
fn vendor_mask(runs: &[(u8, u16)]) -> u64 {
    const _: () = assert!(MATRIX_SIDE <= 64, "vendor codes fit a u64 mask");
    runs.iter()
        .filter(|&&(code, _)| code != UNKNOWN_HOP)
        .fold(0, |mask, &(code, _)| mask | 1 << code)
}

/// Run-length encode hop codes (runs cap at `u16::MAX` hops).
fn run_length(codes: &[u8]) -> Vec<(u8, u16)> {
    let mut runs: Vec<(u8, u16)> = Vec::new();
    for &code in codes {
        match runs.last_mut() {
            Some((last, count)) if *last == code && *count < u16::MAX => *count += 1,
            _ => runs.push((code, 1)),
        }
    }
    runs
}

/// One source's sealed group folds (or the whole corpus's). Every
/// *record* is `[rows, run histogram…, transition cells…]` over the
/// table's own `runs` and `cells` columns; per slice, record `k` sums the
/// groups of the first `k` hop counts, so the groups in any hop range are
/// one record difference.
#[derive(Debug, Clone, Default, PartialEq)]
struct GroupTable {
    /// Router-hop counts with at least one row, ascending.
    hops: Vec<u16>,
    /// Longest-run values with at least one row, ascending (0 counts the
    /// rows without an identified hop).
    runs: Vec<u16>,
    /// Matrix cells with a nonzero count, ascending.
    cells: Vec<u16>,
    /// Per slice code, `hops.len() + 1` prefix records.
    prefix: [Vec<u64>; SLICES],
}

/// The table of a source id the corpus does not have: no groups.
static NO_GROUPS: GroupTable = GroupTable {
    hops: Vec::new(),
    runs: Vec::new(),
    cells: Vec::new(),
    prefix: [Vec::new(), Vec::new(), Vec::new()],
};

impl GroupTable {
    /// Seal folded groups (each with at least one row) into a table whose
    /// columns are exactly the hop counts, run values and cells present —
    /// a canonical function of the groups' sums.
    fn seal(groups: &[((u8, u16), &GroupAcc)]) -> GroupTable {
        let mut hops = BTreeSet::new();
        let mut runs = BTreeSet::new();
        let mut present = [false; MATRIX_CELLS];
        for &((_, group_hops), group) in groups {
            hops.insert(group_hops);
            runs.extend(group.runs.iter().map(|&(value, _)| value));
            for (seen, &count) in present.iter_mut().zip(group.cells.iter()) {
                *seen |= count > 0;
            }
        }
        let mut table = GroupTable {
            hops: hops.into_iter().collect(),
            runs: runs.into_iter().collect(),
            cells: (0..MATRIX_CELLS as u16)
                .filter(|&cell| present[cell as usize])
                .collect(),
            prefix: Default::default(),
        };
        let width = table.width();
        let records = table.hops.len() + 1;
        table.prefix = std::array::from_fn(|_| vec![0; records * width]);
        for &((slice, group_hops), group) in groups {
            let at = table.hops.binary_search(&group_hops).expect("hop column") + 1;
            let record = &mut table.prefix[slice as usize][at * width..(at + 1) * width];
            record[0] += group.rows;
            for &(value, paths) in &group.runs {
                record[1 + table.runs.binary_search(&value).expect("run column")] += paths;
            }
            let cells = &mut record[1 + table.runs.len()..];
            for (total, &cell) in cells.iter_mut().zip(&table.cells) {
                *total += group.cells[cell as usize];
            }
        }
        for prefix in &mut table.prefix {
            for at in width..prefix.len() {
                prefix[at] += prefix[at - width];
            }
        }
        table
    }

    /// The sum of several tables' groups, sealed.
    fn sum<'a>(tables: impl IntoIterator<Item = &'a GroupTable>) -> GroupTable {
        let mut groups: BTreeMap<(u8, u16), GroupAcc> = BTreeMap::new();
        for table in tables {
            let offset = 1 + table.runs.len();
            for slice in 0..SLICES {
                for (at, &hops) in table.hops.iter().enumerate() {
                    let (lower, upper) = (table.record(slice, at), table.record(slice, at + 1));
                    let rows = upper[0] - lower[0];
                    if rows == 0 {
                        continue;
                    }
                    let group = groups.entry((slice as u8, hops)).or_default();
                    group.rows += rows;
                    for (index, &value) in table.runs.iter().enumerate() {
                        let paths = upper[1 + index] - lower[1 + index];
                        if paths > 0 {
                            group.add_run(value, paths);
                        }
                    }
                    for (index, &cell) in table.cells.iter().enumerate() {
                        group.cells[cell as usize] += upper[offset + index] - lower[offset + index];
                    }
                }
            }
        }
        let groups: Vec<_> = groups.iter().map(|(&key, group)| (key, group)).collect();
        GroupTable::seal(&groups)
    }

    /// Words per record.
    fn width(&self) -> usize {
        1 + self.runs.len() + self.cells.len()
    }

    /// Prefix record `at` of one slice.
    fn record(&self, slice: usize, at: usize) -> &[u64] {
        let width = self.width();
        &self.prefix[slice][at * width..(at + 1) * width]
    }

    /// Visit, for `slice` (every slice when `None`), the two prefix
    /// records bounding the groups with hop counts in `min..=max` as
    /// `visit(slice code, lower, upper)`. A range holding no hop count
    /// of the table — `min > max` included — visits nothing.
    fn span(
        &self,
        min: u16,
        max: u16,
        slice: Option<UsSlice>,
        mut visit: impl FnMut(usize, &[u64], &[u64]),
    ) {
        let lo = self.hops.partition_point(|&hops| hops < min);
        let hi = self.hops.partition_point(|&hops| hops <= max);
        if lo >= hi {
            return;
        }
        for code in 0..SLICES {
            if slice.is_none_or(|wanted| wanted.code() as usize == code) {
                visit(code, self.record(code, lo), self.record(code, hi));
            }
        }
    }
}

/// The columnar path store. All per-path attributes are parallel columns
/// indexed by row id; hop sequences live run-length encoded in a shared
/// arena behind interned sequence ids.
#[derive(Debug, Clone, PartialEq)]
pub struct PathCorpus {
    /// Dataset names, index-aligned with the `source` column's values.
    sources: Vec<String>,
    /// How many leading sources are RIPE snapshots (the rest are derived).
    ripe_source_count: usize,
    /// Source id of the most recent RIPE-style snapshot. Starts at
    /// `ripe_source_count - 1`; epoch ingestion moves it to the newest
    /// appended snapshot source.
    latest_ripe: usize,

    // -- columns (one entry per path) -------------------------------
    source: Vec<u16>,
    src_as: Vec<u32>,
    dst_as: Vec<u32>,
    effective_len: Vec<u16>,
    router_hops: Vec<u16>,
    identified: Vec<u16>,
    snmp_identified: Vec<u16>,
    slice: Vec<UsSlice>,
    set_id: Vec<u32>,
    seq_id: Vec<u32>,
    edge_vendors: Vec<u8>,
    core_vendors: Vec<u8>,
    as_segments: Vec<u16>,

    // -- interning arenas -------------------------------------------
    /// Run-length encoded hop codes, shared by all sequences.
    runs: Vec<(u8, u16)>,
    /// (offset, len) into `runs` per sequence id.
    seq_spans: Vec<(u32, u32)>,
    /// Distinct identified-vendor sets (sorted), per set id.
    sets: Vec<Vec<Vendor>>,
    /// Pre-rendered ", "-joined labels, per set id.
    set_labels: Vec<String>,
    /// What each sequence id contributes to the ordered analyses.
    summaries: SequenceSummaries,
    /// The arenas' dedup tables.
    interner: Interner,

    // -- group folds (see the module docs) --------------------------
    /// One sealed table per source id, shared by every corpus extended
    /// from this one.
    groups: Vec<Arc<GroupTable>>,
    /// The sum of every source's table.
    total: GroupTable,

    // -- indexes ----------------------------------------------------
    by_source: Vec<Vec<u32>>,
    by_src_as: HashMap<u32, Vec<u32>>,
    by_dst_as: HashMap<u32, Vec<u32>>,
    by_length: HashMap<u16, Vec<u32>>,
    by_set: Vec<Vec<u32>>,
    by_seq: Vec<Vec<u32>>,
}

impl PathCorpus {
    /// Build the corpus for a world with the default shard budget (one
    /// per available core, like [`ScanConfig::default`]).
    pub fn build(world: &World) -> PathCorpus {
        Self::build_with_shards(world, ScanConfig::default().shards)
    }

    /// Build with an explicit shard count. Shard count never changes the
    /// result (the scanner's determinism contract), only the wall-clock.
    pub fn build_with_shards(world: &World, shards: NonZeroUsize) -> PathCorpus {
        let internet = &world.internet;
        let derived = derive_itdk_traces(internet, &world.itdk, internet.scale.dests_per_vantage);

        // Per-source vendor maps: each snapshot classifies through its own
        // scan; the derived ITDK paths through the ITDK scan. The Arcs are
        // held here so the fan-out below can borrow plain references.
        let lfp_maps: Vec<_> = world
            .all_scans()
            .map(|scan| world.lfp_vendor_map(scan))
            .collect();
        let snmp_maps: Vec<_> = world
            .all_scans()
            .map(|scan| world.snmp_vendor_map(scan))
            .collect();

        let ripe_source_count = world.ripe.len();
        let mut sources: Vec<String> = world.ripe.iter().map(|s| s.name.clone()).collect();
        sources.push("ITDK-derived".to_string());

        let mut items: Vec<TraceItem> = Vec::new();
        let mut row_sources: Vec<u16> = Vec::new();
        let traces = world.ripe.iter().map(|snapshot| &snapshot.traces[..]);
        for (source, traces) in traces.chain([&derived[..]]).enumerate() {
            for trace in traces {
                items.push(TraceItem {
                    index: items.len(),
                    trace,
                    lfp: lfp_maps[source].as_ref(),
                    snmp: snmp_maps[source].as_ref(),
                });
                row_sources.push(source as u16);
            }
        }

        // Phase 1 — parallel classification. Classification is pure, so
        // any key partitioning is valid; hashing the submission index
        // spreads work evenly. Results come back in submission order.
        let config = ScanConfig {
            shards,
            pacing: 0.0,
        };
        let encoded = scan(
            &items,
            config,
            |item| splitmix64(item.index as u64 ^ 0x9e37_79b9_7f4a_7c15),
            |item, _ctx| encode_path(internet, item),
        );

        // Phase 2 — serial interning fold over the ordered stream.
        let mut corpus = PathCorpus::with_capacity(sources, ripe_source_count, encoded.len());
        let mut groups = OpenGroups::default();
        for (source, row) in row_sources.into_iter().zip(encoded) {
            corpus.intern(source, row.fields, &row.runs, &mut groups);
        }
        corpus.seal_groups(&groups);
        corpus
    }

    /// An empty corpus over the given sources, with room for `rows` paths.
    fn with_capacity(sources: Vec<String>, ripe_source_count: usize, rows: usize) -> PathCorpus {
        PathCorpus {
            by_source: sources.iter().map(|_| Vec::new()).collect(),
            sources,
            ripe_source_count,
            latest_ripe: ripe_source_count - 1,
            source: Vec::with_capacity(rows),
            src_as: Vec::with_capacity(rows),
            dst_as: Vec::with_capacity(rows),
            effective_len: Vec::with_capacity(rows),
            router_hops: Vec::with_capacity(rows),
            identified: Vec::with_capacity(rows),
            snmp_identified: Vec::with_capacity(rows),
            slice: Vec::with_capacity(rows),
            set_id: Vec::with_capacity(rows),
            seq_id: Vec::with_capacity(rows),
            edge_vendors: Vec::with_capacity(rows),
            core_vendors: Vec::with_capacity(rows),
            as_segments: Vec::with_capacity(rows),
            runs: Vec::new(),
            seq_spans: Vec::new(),
            sets: Vec::new(),
            set_labels: Vec::new(),
            summaries: SequenceSummaries::default(),
            interner: Interner::default(),
            groups: Vec::new(),
            total: GroupTable::default(),
            by_src_as: HashMap::new(),
            by_dst_as: HashMap::new(),
            by_length: HashMap::new(),
            by_set: Vec::new(),
            by_seq: Vec::new(),
        }
    }

    /// Append one path as the next row of `source`. Its group fold stays
    /// open in `groups` until [`seal_groups`](PathCorpus::seal_groups).
    fn intern(
        &mut self,
        source: u16,
        fields: RowFields,
        runs: &[(u8, u16)],
        groups: &mut OpenGroups,
    ) {
        let row = self.source.len() as u32;
        let seq_id = match self.interned_seq(runs) {
            Some(id) => id,
            None => {
                let id = self.seq_spans.len() as u32;
                self.seq_spans
                    .push((self.runs.len() as u32, runs.len() as u32));
                self.runs.extend_from_slice(runs);
                self.summaries.push(runs);
                self.by_seq.push(Vec::new());
                self.interner.add_seq(runs, id);
                id
            }
        };

        let mask = vendor_mask(runs);
        let set_id = match self.interner.sets.get(&mask) {
            Some(&id) => id,
            None => {
                let id = self.sets.len() as u32;
                let set: Vec<Vendor> = Vendor::ALL
                    .iter()
                    .copied()
                    .filter(|&vendor| mask >> vendor_code(vendor) & 1 == 1)
                    .collect();
                let label = set
                    .iter()
                    .map(|vendor| vendor.name().to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                self.sets.push(set);
                self.set_labels.push(label);
                self.by_set.push(Vec::new());
                self.interner.sets.insert(mask, id);
                id
            }
        };

        let (router_hops, identified) =
            runs.iter()
                .fold((0u16, 0u16), |(hops, known), &(code, len)| {
                    let identified = if code == UNKNOWN_HOP { 0 } else { len };
                    (hops.wrapping_add(len), known.wrapping_add(identified))
                });

        self.source.push(source);
        self.src_as.push(fields.src_as);
        self.dst_as.push(fields.dst_as);
        self.effective_len.push(fields.effective_len);
        self.router_hops.push(router_hops);
        self.identified.push(identified);
        self.snmp_identified.push(fields.snmp_identified);
        self.slice.push(fields.slice);
        self.set_id.push(set_id);
        self.seq_id.push(seq_id);
        self.edge_vendors.push(fields.edge_vendors);
        self.core_vendors.push(fields.core_vendors);
        self.as_segments.push(fields.as_segments);

        self.by_source[source as usize].push(row);
        self.by_src_as.entry(fields.src_as).or_default().push(row);
        self.by_dst_as.entry(fields.dst_as).or_default().push(row);
        self.by_length.entry(router_hops).or_default().push(row);
        self.by_set[set_id as usize].push(row);
        self.by_seq[seq_id as usize].push(row);
        groups.add(
            source,
            fields.slice,
            router_hops,
            self.summaries.longest_run[seq_id as usize],
            self.summaries.cells_of(seq_id),
        );
    }

    /// The id `runs` is interned under, if any.
    fn interned_seq(&self, runs: &[(u8, u16)]) -> Option<u32> {
        let &id = self.interner.seqs.get(&seq_hash(runs))?;
        let (offset, len) = self.seq_spans[id as usize];
        if &self.runs[offset as usize..(offset + len) as usize] == runs {
            Some(id)
        } else {
            self.interner.colliding.get(runs).copied()
        }
    }

    /// A row's columns, as [`intern`](PathCorpus::intern) takes them.
    fn fields_of(&self, row: usize) -> RowFields {
        RowFields {
            src_as: self.src_as[row],
            dst_as: self.dst_as[row],
            effective_len: self.effective_len[row],
            snmp_identified: self.snmp_identified[row],
            slice: self.slice[row],
            edge_vendors: self.edge_vendors[row],
            core_vendors: self.core_vendors[row],
            as_segments: self.as_segments[row],
        }
    }

    /// Seal the open group folds into one table per source that has none
    /// yet (every source past the last sealed one, rows or not), and add
    /// them to the corpus-wide total. Sealed tables are shared, never
    /// copied or touched again.
    fn seal_groups(&mut self, open: &OpenGroups) {
        let first = self.groups.len();
        let mut by_source = vec![Vec::new(); self.sources.len() - first];
        for ((source, slice, hops), group) in &open.groups {
            (source.checked_sub(first as u16))
                .and_then(|fresh| by_source.get_mut(fresh as usize))
                .expect("open groups belong to unsealed sources")
                .push(((*slice, *hops), group));
        }
        let fresh: Vec<Arc<GroupTable>> = by_source
            .iter()
            .map(|groups| Arc::new(GroupTable::seal(groups)))
            .collect();
        self.total =
            GroupTable::sum(std::iter::once(&self.total).chain(fresh.iter().map(|t| &**t)));
        self.groups.extend(fresh);
    }

    // -- shape ------------------------------------------------------

    /// Number of paths stored.
    pub fn len(&self) -> usize {
        self.source.len()
    }

    /// True when no paths were ingested.
    pub fn is_empty(&self) -> bool {
        self.source.is_empty()
    }

    /// Dataset names, index-aligned with source ids.
    pub fn sources(&self) -> &[String] {
        &self.sources
    }

    /// Number of distinct interned hop sequences.
    pub fn distinct_sequences(&self) -> usize {
        self.seq_spans.len()
    }

    /// Source id of the most recent RIPE snapshot (the paper's path
    /// analyses all read this source). Epoch ingestion advances it to the
    /// newest appended snapshot.
    pub fn latest_ripe_source(&self) -> usize {
        self.latest_ripe
    }

    /// Source id of the derived ITDK path set.
    pub fn derived_source(&self) -> usize {
        self.ripe_source_count
    }

    // -- row selection ----------------------------------------------

    /// Rows of one source, in ingestion (trace) order.
    pub fn rows_of_source(&self, source: usize) -> &[u32] {
        self.by_source
            .get(source)
            .map(|rows| rows.as_slice())
            .unwrap_or(&[])
    }

    /// Every row, in ingestion order.
    pub fn all_rows(&self) -> Vec<u32> {
        (0..self.len() as u32).collect()
    }

    /// Rows of one source, optionally restricted to a US slice.
    pub fn rows_in(&self, source: usize, slice: Option<UsSlice>) -> Vec<u32> {
        self.rows_of_source(source)
            .iter()
            .copied()
            .filter(|&row| slice.is_none_or(|wanted| self.slice[row as usize] == wanted))
            .collect()
    }

    /// Rows whose vantage sits in the given AS.
    pub fn rows_from_as(&self, as_id: u32) -> &[u32] {
        self.by_src_as
            .get(&as_id)
            .map(|rows| rows.as_slice())
            .unwrap_or(&[])
    }

    /// Rows whose destination sits in the given AS.
    pub fn rows_to_as(&self, as_id: u32) -> &[u32] {
        self.by_dst_as
            .get(&as_id)
            .map(|rows| rows.as_slice())
            .unwrap_or(&[])
    }

    /// Rows with exactly `hops` router hops.
    pub fn rows_with_length(&self, hops: u16) -> &[u32] {
        self.by_length
            .get(&hops)
            .map(|rows| rows.as_slice())
            .unwrap_or(&[])
    }

    /// Rows sharing one interned hop sequence.
    pub fn rows_with_sequence(&self, seq: u32) -> &[u32] {
        self.by_seq
            .get(seq as usize)
            .map(|rows| rows.as_slice())
            .unwrap_or(&[])
    }

    /// Rows whose vantage sits in `src_as` **and** whose destination sits
    /// in `dst_as` — the AS-pair selection every path-diversity query
    /// starts from. Computed as a sorted intersection of the two
    /// per-endpoint indexes (both are built in row order, hence sorted),
    /// so the cost is linear in the smaller index, not in the corpus.
    pub fn rows_between(&self, src_as: u32, dst_as: u32) -> Vec<u32> {
        intersect_sorted(self.rows_from_as(src_as), self.rows_to_as(dst_as))
    }

    /// Source id of a dataset by name (e.g. `"RIPE-2"`, `"ITDK-derived"`).
    pub fn source_id(&self, name: &str) -> Option<usize> {
        self.sources.iter().position(|source| source == name)
    }

    /// Every source AS with at least one row, ascending (planner and
    /// load-generator catalogs).
    pub fn src_as_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.by_src_as.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Every destination AS with at least one row, ascending.
    pub fn dst_as_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.by_dst_as.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    // -- per-row accessors ------------------------------------------

    /// Source (dataset) id of a row.
    pub fn source_of(&self, row: u32) -> u16 {
        self.source[row as usize]
    }

    /// Router-hop count of a row (the length the `by_length` index keys).
    pub fn hops_of(&self, row: u32) -> u16 {
        self.router_hops[row as usize]
    }

    /// US slice of a row's trace endpoints.
    pub fn us_slice_of(&self, row: u32) -> UsSlice {
        self.slice[row as usize]
    }

    /// The run-length encoded hop codes of a row's sequence.
    pub fn runs_of(&self, row: u32) -> &[(u8, u16)] {
        let (offset, len) = self.seq_spans[self.seq_id[row as usize] as usize];
        &self.runs[offset as usize..(offset + len) as usize]
    }

    /// The distinct identified vendors of a row (sorted).
    pub fn vendor_set(&self, row: u32) -> &[Vendor] {
        &self.sets[self.set_id[row as usize] as usize]
    }

    fn identified_by(&self, row: u32, method: LabelSource) -> u16 {
        match method {
            LabelSource::Lfp => self.identified[row as usize],
            LabelSource::Snmp => self.snmp_identified[row as usize],
        }
    }

    // -- figure queries (byte-identical to `crate::paths`) ----------

    /// Figure 8: ECDF of effective path lengths over the selection.
    pub fn path_length_ecdf(&self, rows: &[u32]) -> Ecdf {
        Ecdf::new(
            rows.iter()
                .map(|&row| self.effective_len[row as usize] as f64)
                .collect(),
        )
    }

    /// Figures 9/10: ECDF of the identified-hop percentage over rows with
    /// at least `min_hops` router hops and `min_identified` fingerprints,
    /// under either identification method.
    pub fn identified_fraction_ecdf(
        &self,
        rows: &[u32],
        min_hops: usize,
        min_identified: usize,
        method: LabelSource,
    ) -> Ecdf {
        Ecdf::new(
            rows.iter()
                .filter_map(|&row| {
                    let hops = self.router_hops[row as usize] as usize;
                    let identified = self.identified_by(row, method) as usize;
                    if hops >= min_hops && identified >= min_identified && hops > 0 {
                        Some(identified as f64 * 100.0 / hops as f64)
                    } else {
                        None
                    }
                })
                .collect(),
        )
    }

    /// Count of rows with ≥ `min_hops` router hops and ≥ `min_identified`
    /// identified hops under the method.
    pub fn count_identified_at_least(
        &self,
        rows: &[u32],
        min_hops: usize,
        min_identified: usize,
        method: LabelSource,
    ) -> usize {
        rows.iter()
            .filter(|&&row| {
                self.router_hops[row as usize] as usize >= min_hops
                    && self.identified_by(row, method) as usize >= min_identified
            })
            .count()
    }

    /// Rows with at least one LFP-identified hop.
    pub fn identified_paths(&self, rows: &[u32]) -> usize {
        rows.iter()
            .filter(|&&row| self.identified[row as usize] > 0)
            .count()
    }

    /// Rows whose identified-vendor set has exactly `size` members
    /// (identified paths only).
    pub fn count_set_size(&self, rows: &[u32], size: usize) -> usize {
        rows.iter()
            .filter(|&&row| self.identified[row as usize] > 0 && self.vendor_set(row).len() == size)
            .count()
    }

    /// Figure 11: ECDF of distinct vendors per path (paths with at least
    /// one identified hop).
    pub fn vendors_per_path_ecdf(&self, rows: &[u32]) -> Ecdf {
        Ecdf::new(
            rows.iter()
                .filter(|&&row| self.identified[row as usize] > 0)
                .map(|&row| self.vendor_set(row).len() as f64)
                .collect(),
        )
    }

    /// Figures 12–14: ranked vendor combinations (unordered sets) with
    /// their share of identified paths.
    pub fn top_vendor_combinations(&self, rows: &[u32], top: usize) -> Vec<(String, f64, usize)> {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        let mut total = 0usize;
        for &row in rows {
            let set_id = self.set_id[row as usize];
            if self.sets[set_id as usize].is_empty() {
                continue;
            }
            total += 1;
            *counts.entry(set_id).or_default() += 1;
        }
        let mut ranked: Vec<(String, usize)> = counts
            .into_iter()
            .map(|(set_id, count)| (self.set_labels[set_id as usize].clone(), count))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
            .into_iter()
            .take(top)
            .map(|(label, count)| (label, count as f64 * 100.0 / total.max(1) as f64, count))
            .collect()
    }

    /// Count of distinct non-empty vendor sets over the selection.
    pub fn distinct_vendor_sets(&self, rows: &[u32]) -> usize {
        rows.iter()
            .map(|&row| self.set_id[row as usize])
            .filter(|&set_id| !self.sets[set_id as usize].is_empty())
            .collect::<BTreeSet<_>>()
            .len()
    }

    // -- ordered analyses (beyond the flat implementation) ----------

    /// Vendor transition matrix: for every adjacent pair in each path's
    /// identified-hop subsequence, count the hand-off `from → to`.
    /// Consecutive same-vendor routers count as self-transitions, so the
    /// diagonal measures custody kept and the off-diagonal custody
    /// changed.
    ///
    /// Built from [`transition_cells`](PathCorpus::transition_cells),
    /// whose cell order is `Vendor: Ord` order — the map is built from an
    /// already sorted stream.
    pub fn transition_matrix(&self, rows: &[u32]) -> BTreeMap<(Vendor, Vendor), usize> {
        self.transition_cells(rows)
            .nonzero()
            .map(|(from, to, count)| ((from, to), count as usize))
            .collect()
    }

    /// The [`transition_matrix`](PathCorpus::transition_matrix) over
    /// `rows`, dense. Folds each row's per-sequence cell blocks: no work
    /// or memory proportional to the corpus, only to `rows`.
    pub fn transition_cells(&self, rows: &[u32]) -> TransitionCells {
        let mut dense = [0u64; MATRIX_CELLS + CELL_BLOCK];
        for &row in rows {
            let cells = self.summaries.cells_of(self.seq_id[row as usize]);
            for block in cells.chunks_exact(CELL_BLOCK) {
                for &(cell, weight) in block {
                    dense[cell as usize] += u64::from(weight);
                }
            }
        }
        let mut cells = [0u64; MATRIX_CELLS];
        cells.copy_from_slice(&dense[..MATRIX_CELLS]);
        TransitionCells(cells)
    }

    /// ECDF of the longest same-vendor run per path (strict hop
    /// adjacency: an unidentified hop breaks the run). Paths without an
    /// identified hop are excluded. The expansion of
    /// [`longest_run_histogram`](PathCorpus::longest_run_histogram).
    pub fn longest_run_ecdf(&self, rows: &[u32]) -> Ecdf {
        self.longest_run_histogram(rows).to_ecdf()
    }

    /// The [`longest_run_ecdf`](PathCorpus::longest_run_ecdf) samples as
    /// a value histogram. Run lengths are small integers, so they are
    /// counted into slots (grown to the selection's own maximum) and read
    /// back in ascending order — no sort.
    pub fn longest_run_histogram(&self, rows: &[u32]) -> RunHistogram {
        let mut histogram: Vec<u32> = Vec::new();
        for &row in rows {
            let longest = self.summaries.longest_run[self.seq_id[row as usize] as usize] as usize;
            if longest >= histogram.len() {
                histogram.resize(longest + 1, 0);
            }
            histogram[longest] += 1;
        }
        // Slot 0 counts the paths without an identified hop: skipped.
        RunHistogram(
            histogram
                .iter()
                .enumerate()
                .skip(1)
                .filter(|&(_, &paths)| paths > 0)
                .map(|(value, &paths)| (value as u16, u64::from(paths)))
                .collect(),
        )
    }

    // -- group folds (endpoint-free selections; see the module docs) --

    fn group_table(&self, source: Option<usize>) -> &GroupTable {
        match source {
            None => &self.total,
            Some(source) => self.groups.get(source).map_or(&NO_GROUPS, |table| table),
        }
    }

    /// Rows of the selection's source in its hop range: over every slice
    /// (the planner's in-range stage), and in its slice (the selection).
    pub fn group_rows(&self, selection: &GroupSelection) -> (usize, usize) {
        let (mut in_range, mut kept) = (0u64, 0u64);
        let table = self.group_table(selection.source);
        table.span(
            selection.min_hops,
            selection.max_hops,
            None,
            |slice, lower, upper| {
                let rows = upper[0] - lower[0];
                in_range += rows;
                if selection
                    .slice
                    .is_none_or(|wanted| wanted.code() as usize == slice)
                {
                    kept += rows;
                }
            },
        );
        (in_range as usize, kept as usize)
    }

    /// [`transition_cells`](PathCorpus::transition_cells) over the
    /// selection's rows, from the group folds.
    pub fn group_transitions(&self, selection: &GroupSelection) -> TransitionCells {
        let mut cells = [0u64; MATRIX_CELLS];
        let table = self.group_table(selection.source);
        let offset = 1 + table.runs.len();
        table.span(
            selection.min_hops,
            selection.max_hops,
            selection.slice,
            |_, lower, upper| {
                for (index, &cell) in table.cells.iter().enumerate() {
                    cells[cell as usize] += upper[offset + index] - lower[offset + index];
                }
            },
        );
        TransitionCells(cells)
    }

    /// [`longest_run_histogram`](PathCorpus::longest_run_histogram) over
    /// the selection's rows, from the group folds.
    pub fn group_runs(&self, selection: &GroupSelection) -> RunHistogram {
        let table = self.group_table(selection.source);
        let mut paths = vec![0u64; table.runs.len()];
        table.span(
            selection.min_hops,
            selection.max_hops,
            selection.slice,
            |_, lower, upper| {
                for (index, total) in paths.iter_mut().enumerate() {
                    *total += upper[1 + index] - lower[1 + index];
                }
            },
        );
        RunHistogram(
            table
                .runs
                .iter()
                .zip(paths)
                .filter(|&(&value, paths)| value > 0 && paths > 0)
                .map(|(&value, paths)| (value, paths))
                .collect(),
        )
    }

    /// Edge-vs-transit vendor diversity over the selection (identified
    /// paths only; see [`SegmentSummary`]).
    pub fn segment_summary(&self, rows: &[u32]) -> SegmentSummary {
        let mut summary = SegmentSummary::default();
        let mut edge_total = 0usize;
        let mut core_total = 0usize;
        for &row in rows {
            if self.identified[row as usize] == 0 {
                continue;
            }
            summary.paths += 1;
            let edge = self.edge_vendors[row as usize] as usize;
            edge_total += edge;
            if edge >= 2 {
                summary.edge_multi += 1;
            }
            if self.as_segments[row as usize] >= 3 {
                summary.paths_with_core += 1;
                let core = self.core_vendors[row as usize] as usize;
                core_total += core;
                if core >= 2 {
                    summary.core_multi += 1;
                }
            }
        }
        if summary.paths > 0 {
            summary.edge_mean = edge_total as f64 / summary.paths as f64;
        }
        if summary.paths_with_core > 0 {
            summary.core_mean = core_total as f64 / summary.paths_with_core as f64;
        }
        summary
    }

    // -- serialization and incremental ingestion --------------------

    /// Dump everything a store needs to reconstruct this corpus exactly:
    /// the column vectors and interning arenas, with enums lowered to
    /// stable one-byte codes. Indexes, derived columns (`router_hops`,
    /// `identified`), per-sequence summaries, group folds and rendered
    /// labels are *not* dumped — they are pure functions of the rest and
    /// [`PathCorpus::from_parts`] rebuilds them.
    pub fn to_parts(&self) -> CorpusParts {
        CorpusParts {
            sources: self.sources.clone(),
            ripe_source_count: self.ripe_source_count as u32,
            latest_ripe: self.latest_ripe as u32,
            source: self.source.clone(),
            src_as: self.src_as.clone(),
            dst_as: self.dst_as.clone(),
            effective_len: self.effective_len.clone(),
            snmp_identified: self.snmp_identified.clone(),
            slice: self.slice.iter().map(|slice| slice.code()).collect(),
            set_id: self.set_id.clone(),
            seq_id: self.seq_id.clone(),
            edge_vendors: self.edge_vendors.clone(),
            core_vendors: self.core_vendors.clone(),
            as_segments: self.as_segments.clone(),
            runs: self.runs.clone(),
            seq_spans: self.seq_spans.clone(),
            sets: self
                .sets
                .iter()
                .map(|set| set.iter().map(|&vendor| vendor_code(vendor)).collect())
                .collect(),
        }
    }

    /// Reconstruct a corpus from dumped parts, validating every id,
    /// code and span before touching an index (a corrupted store must
    /// produce an error, never a panic). Byte-identical to the corpus
    /// the parts were dumped from (`PartialEq`-tested).
    pub fn from_parts(parts: CorpusParts) -> Result<PathCorpus, String> {
        let rows = parts.source.len();
        let columns = [
            ("src_as", parts.src_as.len()),
            ("dst_as", parts.dst_as.len()),
            ("effective_len", parts.effective_len.len()),
            ("snmp_identified", parts.snmp_identified.len()),
            ("slice", parts.slice.len()),
            ("set_id", parts.set_id.len()),
            ("seq_id", parts.seq_id.len()),
            ("edge_vendors", parts.edge_vendors.len()),
            ("core_vendors", parts.core_vendors.len()),
            ("as_segments", parts.as_segments.len()),
        ];
        for (name, len) in columns {
            if len != rows {
                return Err(format!("column {name} has {len} rows, expected {rows}"));
            }
        }
        let source_count = parts.sources.len();
        let ripe_source_count = parts.ripe_source_count as usize;
        let latest_ripe = parts.latest_ripe as usize;
        if source_count == 0 {
            return Err("corpus has no sources".to_string());
        }
        for (index, name) in parts.sources.iter().enumerate() {
            if parts.sources[..index].iter().any(|prior| prior == name) {
                return Err(format!("duplicate source name '{name}'"));
            }
        }
        if ripe_source_count == 0 || ripe_source_count >= source_count {
            return Err(format!(
                "ripe_source_count {ripe_source_count} out of range for {source_count} sources"
            ));
        }
        if latest_ripe >= source_count || latest_ripe == ripe_source_count {
            return Err(format!(
                "latest_ripe {latest_ripe} is not a snapshot source id"
            ));
        }
        // Arenas: spans in bounds, codes valid, sets sorted and unique.
        for &(offset, len) in &parts.seq_spans {
            let end = (offset as usize)
                .checked_add(len as usize)
                .ok_or_else(|| "sequence span overflows".to_string())?;
            if end > parts.runs.len() {
                return Err(format!(
                    "sequence span {offset}+{len} exceeds {} runs",
                    parts.runs.len()
                ));
            }
        }
        for &(code, len) in &parts.runs {
            if code != UNKNOWN_HOP && code_vendor(code).is_none() {
                return Err(format!("invalid vendor code {code} in run arena"));
            }
            if len == 0 {
                return Err("zero-length run in arena".to_string());
            }
        }
        let sets: Vec<Vec<Vendor>> = parts
            .sets
            .iter()
            .map(|codes| {
                let set: Vec<Vendor> = codes
                    .iter()
                    .map(|&code| {
                        code_vendor(code)
                            .ok_or_else(|| format!("invalid vendor code {code} in set"))
                    })
                    .collect::<Result<_, String>>()?;
                if set.windows(2).any(|pair| pair[0] >= pair[1]) {
                    return Err("vendor set not sorted/unique".to_string());
                }
                Ok(set)
            })
            .collect::<Result<_, String>>()?;
        let slice: Vec<UsSlice> = parts
            .slice
            .iter()
            .map(|&code| {
                UsSlice::from_code(code).ok_or_else(|| format!("invalid slice code {code}"))
            })
            .collect::<Result<_, String>>()?;

        let set_labels: Vec<String> = sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|vendor| vendor.name().to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .collect();

        let mut corpus = PathCorpus {
            by_source: parts.sources.iter().map(|_| Vec::new()).collect(),
            sources: parts.sources,
            ripe_source_count,
            latest_ripe,
            source: parts.source,
            src_as: parts.src_as,
            dst_as: parts.dst_as,
            effective_len: parts.effective_len,
            router_hops: Vec::with_capacity(rows),
            identified: Vec::with_capacity(rows),
            snmp_identified: parts.snmp_identified,
            slice,
            set_id: parts.set_id,
            seq_id: parts.seq_id,
            edge_vendors: parts.edge_vendors,
            core_vendors: parts.core_vendors,
            as_segments: parts.as_segments,
            runs: parts.runs,
            seq_spans: parts.seq_spans,
            sets,
            set_labels,
            summaries: SequenceSummaries::default(),
            interner: Interner::default(),
            groups: Vec::new(),
            total: GroupTable::default(),
            by_src_as: HashMap::new(),
            by_dst_as: HashMap::new(),
            by_length: HashMap::new(),
            by_set: vec![Vec::new(); parts.sets.len()],
            by_seq: Vec::new(),
        };
        corpus.by_seq = vec![Vec::new(); corpus.seq_spans.len()];
        // The dedup tables, inserted in id order (as interning would).
        for (id, set) in corpus.sets.iter().enumerate() {
            let mask = set
                .iter()
                .fold(0u64, |mask, &vendor| mask | 1 << vendor_code(vendor));
            corpus.interner.sets.insert(mask, id as u32);
        }

        // Per-sequence pass: hop totals (which must fit the u16 columns
        // and bound the summaries' weights) and the derived summaries.
        let mut seq_hops: Vec<(u16, u16)> = Vec::with_capacity(corpus.seq_spans.len());
        for (seq_id, &(offset, len)) in corpus.seq_spans.iter().enumerate() {
            let runs = &corpus.runs[offset as usize..(offset + len) as usize];
            let hops: usize = runs.iter().map(|&(_, count)| count as usize).sum();
            if hops > u16::MAX as usize {
                return Err(format!("sequence {seq_id} has {hops} hops (exceeds u16)"));
            }
            let identified: usize = runs
                .iter()
                .filter(|&&(code, _)| code != UNKNOWN_HOP)
                .map(|&(_, count)| count as usize)
                .sum();
            seq_hops.push((hops as u16, identified as u16));
            corpus.summaries.push(runs);
            corpus.interner.add_seq(runs, seq_id as u32);
        }

        // Per-row validation + derived columns + index rebuild + group
        // folds, one pass in row order (indexes come out sorted, exactly
        // as built).
        let mut groups = OpenGroups::default();
        for row in 0..rows {
            let source = corpus.source[row] as usize;
            if source >= source_count {
                return Err(format!("row {row} references unknown source {source}"));
            }
            let seq_id = corpus.seq_id[row] as usize;
            if seq_id >= corpus.seq_spans.len() {
                return Err(format!("row {row} references unknown sequence {seq_id}"));
            }
            let set_id = corpus.set_id[row] as usize;
            if set_id >= corpus.sets.len() {
                return Err(format!("row {row} references unknown set {set_id}"));
            }
            let (hops, identified) = seq_hops[seq_id];
            corpus.router_hops.push(hops);
            corpus.identified.push(identified);

            let row = row as u32;
            corpus.by_source[source].push(row);
            corpus
                .by_src_as
                .entry(corpus.src_as[row as usize])
                .or_default()
                .push(row);
            corpus
                .by_dst_as
                .entry(corpus.dst_as[row as usize])
                .or_default()
                .push(row);
            corpus.by_length.entry(hops).or_default().push(row);
            corpus.by_set[set_id].push(row);
            corpus.by_seq[seq_id].push(row);
            groups.add(
                source as u16,
                corpus.slice[row as usize],
                hops,
                corpus.summaries.longest_run[seq_id],
                corpus.summaries.cells_of(seq_id as u32),
            );
        }
        corpus.seal_groups(&groups);
        Ok(corpus)
    }

    /// Fold new snapshot sources into this corpus in place, without
    /// touching any existing row: [`encode`](PathCorpus::encode) the new
    /// traces, then [`append_encoded`](PathCorpus::append_encoded) them.
    /// The interning tables live in the corpus and only grow, so
    /// appended rows share sequence/set ids with the existing ones and
    /// the cost is the new traces' alone — and a one-source-at-a-time
    /// chain of calls produces a corpus equal to one call carrying every
    /// source (regression-tested by `lfp-store`). On an error the corpus
    /// is unchanged.
    pub fn extend(
        &mut self,
        internet: &Internet,
        additions: &[NewPathSource<'_>],
        shards: NonZeroUsize,
    ) -> Result<(), String> {
        self.append_encoded(&Self::encode(internet, additions, shards))
    }

    /// Classify each new source's traces into rows. Per-trace work fans
    /// out through [`scan`] (the same determinism contract as
    /// [`PathCorpus::build`]) and reads no corpus state, so the rows can
    /// be computed once and appended anywhere.
    pub fn encode(
        internet: &Internet,
        additions: &[NewPathSource<'_>],
        shards: NonZeroUsize,
    ) -> Vec<EncodedSource> {
        let config = ScanConfig {
            shards,
            pacing: 0.0,
        };
        additions
            .iter()
            .map(|addition| {
                let items: Vec<TraceItem> = addition
                    .traces
                    .iter()
                    .enumerate()
                    .map(|(index, trace)| TraceItem {
                        index,
                        trace,
                        lfp: addition.lfp,
                        snmp: addition.snmp,
                    })
                    .collect();
                EncodedSource {
                    name: addition.name.clone(),
                    is_ripe_snapshot: addition.is_ripe_snapshot,
                    rows: scan(
                        &items,
                        config,
                        |item| splitmix64(item.index as u64 ^ 0x9e37_79b9_7f4a_7c15),
                        |item, _ctx| encode_path(internet, item),
                    ),
                }
            })
            .collect()
    }

    /// Append encoded sources as fresh sources, one row per encoded row,
    /// through the serial interning fold. Everything is validated before
    /// anything is mutated — names fresh against the corpus and unique
    /// within the batch, hop codes known, runs non-empty and every
    /// sequence within the `u16` hop columns — so rows from an untrusted
    /// peer produce an error, never a panic, and on an error the corpus
    /// is unchanged.
    pub fn append_encoded(&mut self, sources: &[EncodedSource]) -> Result<(), String> {
        // Names must be fresh against the corpus *and* unique within the
        // batch — otherwise one call could build a corpus whose persisted
        // form `from_parts` would reject forever.
        for (index, source) in sources.iter().enumerate() {
            if self.sources.iter().any(|name| name == &source.name)
                || sources[..index]
                    .iter()
                    .any(|prior| prior.name == source.name)
            {
                return Err(format!("source '{}' already in corpus", source.name));
            }
            for row in &source.rows {
                let mut hops = 0usize;
                for &(code, len) in &row.runs {
                    if code != UNKNOWN_HOP && code_vendor(code).is_none() {
                        return Err(format!("invalid vendor code {code} in '{}'", source.name));
                    }
                    if len == 0 {
                        return Err(format!("zero-length run in '{}'", source.name));
                    }
                    hops += len as usize;
                }
                if hops > u16::MAX as usize {
                    return Err(format!("a row of '{}' has {hops} hops", source.name));
                }
            }
        }
        if self.sources.len() + sources.len() > u16::MAX as usize {
            return Err("source id space exhausted".to_string());
        }

        let mut groups = OpenGroups::default();
        for source in sources {
            let source_id = self.sources.len();
            self.sources.push(source.name.clone());
            self.by_source.push(Vec::new());
            for row in &source.rows {
                self.intern(source_id as u16, row.fields, &row.runs, &mut groups);
            }
            if source.is_ripe_snapshot {
                self.latest_ripe = source_id;
            }
        }
        self.seal_groups(&groups);
        Ok(())
    }

    /// The rows of one source as [`append_encoded`](PathCorpus::append_encoded)
    /// takes them, in row order (empty for an unknown source).
    pub fn source_rows(&self, source: usize) -> Vec<EncodedRow> {
        self.rows_of_source(source)
            .iter()
            .map(|&row| EncodedRow {
                fields: self.fields_of(row as usize),
                runs: self.runs_of(row).to_vec(),
            })
            .collect()
    }

    /// [`extend`](PathCorpus::extend) a copy of this corpus.
    pub fn extended_with(
        &self,
        internet: &Internet,
        additions: &[NewPathSource<'_>],
        shards: NonZeroUsize,
    ) -> Result<PathCorpus, String> {
        let mut corpus = self.clone();
        corpus.extend(internet, additions, shards)?;
        Ok(corpus)
    }

    /// Append the sources and rows `newer` holds past this corpus's
    /// end, re-interning rows `newer` already classified and encoded —
    /// no trace is classified again, and the work is the appended rows'
    /// alone. `newer` must be an extension of this corpus: this is
    /// checked (sources, per-source row counts) before anything is
    /// mutated, and on an error the corpus is unchanged. Afterwards the
    /// two compare equal.
    pub fn catch_up(&mut self, newer: &PathCorpus) -> Result<(), String> {
        let (sources, rows) = (self.sources.len(), self.len());
        let extends = newer.sources.len() >= sources
            && newer.sources[..sources] == self.sources[..]
            && newer.ripe_source_count == self.ripe_source_count
            && (0..sources).all(|source| {
                newer.rows_of_source(source).len() == self.rows_of_source(source).len()
            });
        if !extends {
            return Err("the newer corpus does not extend this one".to_string());
        }
        let mut groups = OpenGroups::default();
        for name in &newer.sources[sources..] {
            self.sources.push(name.clone());
            self.by_source.push(Vec::new());
        }
        for row in rows..newer.len() {
            let (source, fields) = (newer.source[row], newer.fields_of(row));
            self.intern(source, fields, newer.runs_of(row as u32), &mut groups);
        }
        self.latest_ripe = newer.latest_ripe;
        self.seal_groups(&groups);
        Ok(())
    }
}

/// One snapshot's worth of new traces for [`PathCorpus::extended_with`]:
/// the traces plus the per-method vendor maps they classify through
/// (produced by scanning the snapshot's router population and classifying
/// it against the world's frozen signature set).
pub struct NewPathSource<'a> {
    /// Dataset name the new source registers under (must be unused).
    pub name: String,
    /// The new traces, in collection order.
    pub traces: &'a [TraceRecord],
    /// ip → vendor for unique LFP verdicts over the new population.
    pub lfp: &'a HashMap<Ipv4Addr, Vendor>,
    /// ip → vendor for SNMPv3 labels over the new population.
    pub snmp: &'a HashMap<Ipv4Addr, Vendor>,
    /// Whether this source is a RIPE-style snapshot (advances
    /// [`PathCorpus::latest_ripe_source`]).
    pub is_ripe_snapshot: bool,
}

/// Everything [`PathCorpus::to_parts`] dumps — plain vectors with enums
/// lowered to stable codes, ready for a length-prefixed columnar store.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusParts {
    /// Dataset names, index-aligned with source ids.
    pub sources: Vec<String>,
    /// How many leading sources are base RIPE snapshots.
    pub ripe_source_count: u32,
    /// Source id of the most recent RIPE-style snapshot.
    pub latest_ripe: u32,
    /// Source id per row.
    pub source: Vec<u16>,
    /// Vantage AS per row.
    pub src_as: Vec<u32>,
    /// Destination AS per row.
    pub dst_as: Vec<u32>,
    /// Effective path length per row.
    pub effective_len: Vec<u16>,
    /// SNMPv3-identified hop count per row.
    pub snmp_identified: Vec<u16>,
    /// US slice code per row (see [`UsSlice::code`]).
    pub slice: Vec<u8>,
    /// Interned vendor-set id per row.
    pub set_id: Vec<u32>,
    /// Interned hop-sequence id per row.
    pub seq_id: Vec<u32>,
    /// Distinct identified vendors in the edge segments, per row.
    pub edge_vendors: Vec<u8>,
    /// Distinct identified vendors in the transit core, per row.
    pub core_vendors: Vec<u8>,
    /// AS segment count per row.
    pub as_segments: Vec<u16>,
    /// The shared run-length arena.
    pub runs: Vec<(u8, u16)>,
    /// (offset, len) into `runs` per sequence id.
    pub seq_spans: Vec<(u32, u32)>,
    /// Vendor codes per interned set (sorted, unique).
    pub sets: Vec<Vec<u8>>,
}

/// Size ratio past which [`intersect_sorted`] gallops instead of merging.
const GALLOP_RATIO: usize = 16;

/// Intersect two ascending row-id slices (the corpus indexes are built in
/// row order, so every index lookup returns a sorted slice) — the
/// planner's only set operation. Sizes within [`GALLOP_RATIO`] of each
/// other take a linear two-pointer merge; past it, each element of the
/// smaller side gallops through the larger, O(small · log(large/small)):
/// a ~100-row pair base against a whole-source index costs a few hundred
/// probes instead of a walk over the index.
pub fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len().saturating_mul(GALLOP_RATIO) < large.len() {
        gallop_intersect(small, large)
    } else {
        merge_intersect(a, b)
    }
}

/// Galloping intersection: for each value of `small`, an exponential
/// probe through what is left of `large`, then a binary search inside the
/// last doubling.
fn gallop_intersect(small: &[u32], large: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(small.len());
    let mut rest = large;
    for &value in small {
        let mut step = 1;
        while step <= rest.len() && rest[step - 1] < value {
            step *= 2;
        }
        // rest[..step / 2] < value, and rest[step - 1] ≥ value if it exists.
        let low = step / 2;
        let at = low + rest[low..step.min(rest.len())].partition_point(|&row| row < value);
        if at == rest.len() {
            break;
        }
        if rest[at] == value {
            out.push(value);
            rest = &rest[at + 1..];
        } else {
            rest = &rest[at..];
        }
    }
    out
}

/// Two-pointer merge intersection.
fn merge_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Worker: classify one trace into its encoded row. Pure, so the scanner
/// may run it on any shard.
fn encode_path(internet: &Internet, item: &TraceItem) -> EncodedRow {
    let hops = item.trace.router_hops();
    let codes: Vec<u8> = hop_vendors(&hops, item.lfp)
        .into_iter()
        .map(|verdict| verdict.map(vendor_code).unwrap_or(UNKNOWN_HOP))
        .collect();
    let snmp_identified = hops
        .iter()
        .filter(|hop| item.snmp.contains_key(hop))
        .count() as u16;
    let hop_as: Vec<u32> = hops
        .iter()
        .map(|&hop| {
            internet
                .truth_of(hop)
                .map(|meta| meta.as_id)
                .unwrap_or(u32::MAX)
        })
        .collect();
    let (edge_vendors, core_vendors, as_segments) = segment_diversity(&codes, &hop_as);
    EncodedRow {
        fields: RowFields {
            src_as: item.trace.src_as,
            dst_as: item.trace.dst_as,
            effective_len: item.trace.effective_length() as u16,
            snmp_identified,
            slice: slice_of(internet, item.trace),
            edge_vendors,
            core_vendors,
            as_segments,
        },
        runs: run_length(&codes),
    }
}

/// Segment a path by the AS owning each hop; the first and last segments
/// are the edge, the rest the transit core. Returns (distinct identified
/// vendors in the edge, in the core, AS segment count).
fn segment_diversity(codes: &[u8], hop_as: &[u32]) -> (u8, u8, u16) {
    if codes.is_empty() {
        return (0, 0, 0);
    }
    let mut segments: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    for index in 1..hop_as.len() {
        if hop_as[index] != hop_as[index - 1] {
            segments.push((start, index));
            start = index;
        }
    }
    segments.push((start, hop_as.len()));
    let last = segments.len() - 1;
    let mut edge: BTreeSet<u8> = BTreeSet::new();
    let mut core: BTreeSet<u8> = BTreeSet::new();
    for (index, &(from, to)) in segments.iter().enumerate() {
        let target = if index == 0 || index == last {
            &mut edge
        } else {
            &mut core
        };
        for &code in &codes[from..to] {
            if code != UNKNOWN_HOP {
                target.insert(code);
            }
        }
    }
    (edge.len() as u8, core.len() as u8, segments.len() as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Oracle for [`PathCorpus::transition_matrix`]: the per-row,
    /// per-run `BTreeMap` fold the sequence summaries replaced.
    fn transition_matrix_by_row(
        corpus: &PathCorpus,
        rows: &[u32],
    ) -> BTreeMap<(Vendor, Vendor), usize> {
        let mut matrix: BTreeMap<(Vendor, Vendor), usize> = BTreeMap::new();
        for &row in rows {
            let mut previous: Option<Vendor> = None;
            for &(code, len) in corpus.runs_of(row) {
                let Some(vendor) = code_vendor(code) else {
                    continue;
                };
                if let Some(from) = previous {
                    *matrix.entry((from, vendor)).or_default() += 1;
                }
                if len > 1 {
                    *matrix.entry((vendor, vendor)).or_default() += len as usize - 1;
                }
                previous = Some(vendor);
            }
        }
        matrix
    }

    /// Oracle for [`PathCorpus::longest_run_ecdf`]: one `f64` per row
    /// through the sorting constructor.
    fn longest_run_ecdf_by_row(corpus: &PathCorpus, rows: &[u32]) -> Ecdf {
        Ecdf::new(
            rows.iter()
                .filter_map(|&row| {
                    corpus
                        .runs_of(row)
                        .iter()
                        .filter(|&&(code, _)| code != UNKNOWN_HOP)
                        .map(|&(_, len)| len)
                        .max()
                        .map(f64::from)
                })
                .collect(),
        )
    }

    /// A corpus interned from hand-made hop-code sequences: the edge
    /// cases a simulated world never produces (no hops at all, no
    /// identified hop, a `u16::MAX`-hop single-vendor run) beside a few
    /// hundred pseudo-random paths that share sequences.
    fn synthetic_corpus() -> PathCorpus {
        let mut paths: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![UNKNOWN_HOP; 5],
            vec![3; u16::MAX as usize],
            [vec![7], vec![2; u16::MAX as usize - 1]].concat(),
            vec![0, UNKNOWN_HOP, 0, 0, UNKNOWN_HOP, 1, 1, 1, 0],
        ];
        let mut state = 0x5eed_u64;
        let mut next = |bound: u64| {
            state = splitmix64(state);
            state % bound
        };
        for _ in 0..400 {
            // A small alphabet and short paths, so sequences repeat.
            let path = (0..next(9))
                .map(|_| match next(6) {
                    5 => UNKNOWN_HOP,
                    code => (code * 3) as u8,
                })
                .collect();
            paths.push(path);
        }
        let sources = vec!["S-1".to_string(), "S-derived".to_string()];
        let mut corpus = PathCorpus::with_capacity(sources, 1, paths.len());
        let mut groups = OpenGroups::default();
        for (index, codes) in paths.into_iter().enumerate() {
            let fields = RowFields {
                src_as: (index % 7) as u32,
                dst_as: (index % 5) as u32,
                effective_len: codes.len() as u16,
                snmp_identified: 0,
                slice: UsSlice::ALL[index % 3],
                edge_vendors: 0,
                core_vendors: 0,
                as_segments: 0,
            };
            let source = (index % 2) as u16;
            corpus.intern(source, fields, &run_length(&codes), &mut groups);
        }
        corpus.seal_groups(&groups);
        assert!(corpus.distinct_sequences() < corpus.len());
        corpus
    }

    /// `percent`% of the corpus's rows, ascending, chosen by `seed`.
    fn row_subset(corpus: &PathCorpus, percent: u64, seed: u64) -> Vec<u32> {
        corpus
            .all_rows()
            .into_iter()
            .filter(|&row| splitmix64(seed ^ u64::from(row)) % 100 < percent)
            .collect()
    }

    fn assert_ordered_folds_match_oracles(corpus: &PathCorpus, rows: &[u32]) {
        assert_eq!(
            corpus.transition_matrix(rows),
            transition_matrix_by_row(corpus, rows)
        );
        let (fast, oracle) = (
            corpus.longest_run_ecdf(rows),
            longest_run_ecdf_by_row(corpus, rows),
        );
        // Same sorted samples, so everything derived from them agrees —
        // spelled out for the values the engine renders, which it reads
        // straight off the histogram.
        assert_eq!(fast, oracle);
        let histogram = corpus.longest_run_histogram(rows);
        assert_eq!(histogram.len(), oracle.len());
        assert_eq!(
            histogram.mean().map(f64::to_bits),
            oracle.mean().map(f64::to_bits)
        );
        for step in 0..=20 {
            let q = f64::from(step) / 20.0;
            assert_eq!(histogram.quantile(q), oracle.quantile(q), "quantile {q}");
        }
        assert_eq!(fast.series(16), oracle.series(16));
    }

    /// Every endpoint-free selection shape over `corpus`: source {all,
    /// each} × hops {everything, exact, ranges, `min > max`, past the
    /// corpus maximum} × slice {all, each}.
    fn group_selections(corpus: &PathCorpus) -> Vec<GroupSelection> {
        let longest = corpus.router_hops.iter().copied().max().unwrap_or(0);
        let ranges = [
            (0, u16::MAX),
            (3, 3),
            (0, 0),
            (2, 7),
            (5, u16::MAX),
            (9, 3),
            (longest, longest),
            (1, longest.saturating_add(100)),
            (longest.saturating_add(1), u16::MAX),
        ];
        let mut sources = vec![None];
        sources.extend((0..corpus.sources().len()).map(Some));
        let mut slices = vec![None];
        slices.extend(UsSlice::ALL.map(Some));
        let mut grid = Vec::new();
        for &source in &sources {
            for &(min_hops, max_hops) in &ranges {
                for &slice in &slices {
                    grid.push(GroupSelection {
                        source,
                        min_hops,
                        max_hops,
                        slice,
                    });
                }
            }
        }
        grid
    }

    fn assert_group_folds_match_row_folds(corpus: &PathCorpus) {
        for selection in group_selections(corpus) {
            let in_range: Vec<u32> = corpus
                .all_rows()
                .into_iter()
                .filter(|&row| {
                    selection
                        .source
                        .is_none_or(|source| corpus.source_of(row) as usize == source)
                        && (selection.min_hops..=selection.max_hops).contains(&corpus.hops_of(row))
                })
                .collect();
            let rows: Vec<u32> = in_range
                .iter()
                .copied()
                .filter(|&row| {
                    selection
                        .slice
                        .is_none_or(|slice| corpus.us_slice_of(row) == slice)
                })
                .collect();
            assert_eq!(
                corpus.group_rows(&selection),
                (in_range.len(), rows.len()),
                "{selection:?}"
            );
            assert_eq!(
                corpus.group_transitions(&selection),
                corpus.transition_cells(&rows),
                "{selection:?}"
            );
            assert_eq!(
                corpus.group_runs(&selection),
                corpus.longest_run_histogram(&rows),
                "{selection:?}"
            );
        }
    }

    #[test]
    fn group_folds_equal_the_row_folds_for_every_endpoint_free_selection() {
        let world = crate::world::World::build(lfp_topo::Scale::tiny());
        assert_group_folds_match_row_folds(&synthetic_corpus());
        assert_group_folds_match_row_folds(world.path_corpus());
        // A source id the corpus does not have selects nothing.
        let corpus = world.path_corpus();
        let missing = GroupSelection {
            source: Some(corpus.sources().len()),
            min_hops: 0,
            max_hops: u16::MAX,
            slice: None,
        };
        assert_eq!(corpus.group_rows(&missing), (0, 0));
        assert!(corpus.group_runs(&missing).is_empty());
        assert_eq!(corpus.group_transitions(&missing).handoffs(), 0);
    }

    #[test]
    fn group_tables_are_sized_by_what_is_present_not_by_u16_max() {
        // The synthetic corpus holds two paths of u16::MAX hops (runs of
        // u16::MAX and u16::MAX - 1): sparse hop and run columns keep
        // every table a few hundred words, rebuilt from parts or not.
        let synthetic = synthetic_corpus();
        let rebuilt = PathCorpus::from_parts(synthetic.to_parts()).expect("valid parts");
        for corpus in [&synthetic, &rebuilt] {
            let tables = corpus.groups.iter().map(|table| &**table);
            for table in tables.chain([&corpus.total]) {
                let words: usize = table.prefix.iter().map(Vec::len).sum();
                assert!(words < 4096, "{words} words");
            }
            assert!(corpus.total.hops.contains(&u16::MAX));
            assert!(corpus.total.runs.contains(&u16::MAX));
        }
        assert_eq!(synthetic.groups.len(), synthetic.sources().len());
    }

    proptest! {
        /// The sequence-domain folds equal the per-row oracles over any
        /// ascending row subset (0% is the empty selection, 100% every
        /// row; the synthetic corpus carries the edge-case paths).
        #[test]
        fn ordered_folds_match_per_row_oracles(percent in 0u64..=100, seed in any::<u64>()) {
            static CORPUS: std::sync::OnceLock<PathCorpus> = std::sync::OnceLock::new();
            let corpus = CORPUS.get_or_init(synthetic_corpus);
            assert_ordered_folds_match_oracles(corpus, &row_subset(corpus, percent, seed));
        }
    }

    #[test]
    fn ordered_folds_match_oracles_on_edge_selections() {
        let synthetic = synthetic_corpus();
        let world = crate::world::World::build(lfp_topo::Scale::tiny());
        for corpus in [&synthetic, world.path_corpus()] {
            assert_ordered_folds_match_oracles(corpus, &[]);
            assert_ordered_folds_match_oracles(corpus, &corpus.all_rows());
            for row in corpus.all_rows().into_iter().take(8) {
                assert_ordered_folds_match_oracles(corpus, &[row]);
            }
            assert_ordered_folds_match_oracles(corpus, &row_subset(corpus, 30, 1));
        }
        // Rows 0–1 have no identified hop: excluded from the ECDF, and
        // an empty ECDF keeps answering `None` (rendered as NaN).
        let empty = synthetic.longest_run_ecdf(&[0, 1]);
        assert!(empty.is_empty());
        assert_eq!((empty.mean(), empty.quantile(0.5)), (None, None));
        assert!(synthetic.transition_matrix(&[0, 1]).is_empty());
        // Row 2 is one u16::MAX-hop run: u16::MAX - 1 self-transitions.
        assert_eq!(
            synthetic.longest_run_ecdf(&[2]).quantile(1.0),
            Some(f64::from(u16::MAX))
        );
        let vendor = Vendor::ALL[3];
        assert_eq!(
            synthetic.transition_matrix(&[2]),
            BTreeMap::from([((vendor, vendor), u16::MAX as usize - 1)])
        );
    }

    #[test]
    fn parts_round_trip_rebuilds_the_sequence_summaries() {
        let world = crate::world::World::build(lfp_topo::Scale::tiny());
        for corpus in [&synthetic_corpus(), world.path_corpus()] {
            let rebuilt = PathCorpus::from_parts(corpus.to_parts()).expect("valid parts");
            assert!(!rebuilt.summaries.cells.is_empty());
            assert_eq!(rebuilt.groups.len(), rebuilt.sources().len());
            assert!(!rebuilt.total.hops.is_empty());
            // `PartialEq` covers the derived arenas and the group folds.
            assert_eq!(&rebuilt, corpus);
        }
    }

    /// Run `body` over every base snapshot of `world` again, as new
    /// sources under fresh names.
    fn with_repeated_snapshots<T>(
        world: &World,
        body: impl FnOnce(&[NewPathSource<'_>]) -> T,
    ) -> T {
        let maps: Vec<_> = world
            .ripe_scans
            .iter()
            .map(|scan| (world.lfp_vendor_map(scan), world.snmp_vendor_map(scan)))
            .collect();
        let additions: Vec<NewPathSource> = world
            .ripe
            .iter()
            .zip(&maps)
            .enumerate()
            .map(|(index, (snapshot, (lfp, snmp)))| NewPathSource {
                name: format!("again-{index}"),
                traces: &snapshot.traces,
                lfp,
                snmp,
                is_ripe_snapshot: true,
            })
            .collect();
        assert!(additions.len() >= 2);
        body(&additions)
    }

    #[test]
    fn sequences_sharing_a_hash_still_intern_apart() {
        let mut corpus = synthetic_corpus();
        let runs_of = |corpus: &PathCorpus, id: u32| {
            let (offset, len) = corpus.seq_spans[id as usize];
            corpus.runs[offset as usize..(offset + len) as usize].to_vec()
        };
        let (a, b, c) = (
            runs_of(&corpus, 4),
            runs_of(&corpus, 5),
            runs_of(&corpus, 6),
        );
        // As if sequence 4 had hashed like 5 and 6: the first to arrive
        // holds the key, the later ones are found through `colliding`.
        corpus.interner = Interner::default();
        corpus.interner.seqs.insert(seq_hash(&b), 4);
        corpus.interner.seqs.insert(seq_hash(&c), 4);
        corpus.interner.add_seq(&b, 5);
        corpus.interner.add_seq(&c, 6);
        assert_eq!(corpus.interner.colliding.len(), 2);
        assert_eq!(corpus.interned_seq(&b), Some(5));
        assert_eq!(corpus.interned_seq(&c), Some(6));
        assert_eq!(
            corpus.interned_seq(&a),
            None,
            "4 was never added under its own hash"
        );
    }

    #[test]
    fn in_place_extension_and_catch_up_equal_the_copying_path() {
        let world = World::build(lfp_topo::Scale::tiny());
        let corpus = world.path_corpus();
        let shards = NonZeroUsize::new(2).unwrap();
        with_repeated_snapshots(&world, |additions| {
            let (first, rest) = additions.split_at(1);
            let copied = corpus
                .extended_with(&world.internet, first, shards)
                .unwrap();
            let mut in_place = corpus.clone();
            in_place.extend(&world.internet, first, shards).unwrap();
            assert_eq!(in_place, copied);

            // A corpus two extensions behind catches up without
            // classifying a trace, to exactly the newer corpus.
            let newer = copied.extended_with(&world.internet, rest, shards).unwrap();
            let mut behind = corpus.clone();
            behind.catch_up(&newer).unwrap();
            assert_eq!(behind, newer);
            assert_group_folds_match_row_folds(&behind);
            // Catching up to itself is a no-op.
            behind.catch_up(&newer).unwrap();
            assert_eq!(behind, newer);

            // Validation comes before any mutation.
            let before = in_place.clone();
            assert!(in_place.extend(&world.internet, first, shards).is_err());
            assert_eq!(in_place, before);
            let mut unrelated = synthetic_corpus();
            let untouched = unrelated.clone();
            assert!(unrelated.catch_up(&newer).is_err());
            assert_eq!(unrelated, untouched);
            let mut ahead = newer.clone();
            assert!(ahead.catch_up(corpus).is_err());
            assert_eq!(ahead, newer);
        });
    }

    #[test]
    fn appending_read_back_rows_equals_extending() {
        let world = World::build(lfp_topo::Scale::tiny());
        let corpus = world.path_corpus();
        let shards = NonZeroUsize::new(2).unwrap();
        with_repeated_snapshots(&world, |additions| {
            let extended = corpus
                .extended_with(&world.internet, additions, shards)
                .unwrap();
            // The rows a corpus holds for a source are the rows `encode`
            // computed for it: appending them reproduces the extension.
            let encoded = PathCorpus::encode(&world.internet, additions, shards);
            let first = corpus.sources().len();
            for (offset, source) in encoded.iter().enumerate() {
                assert_eq!(extended.source_rows(first + offset), source.rows);
            }
            let mut appended = corpus.clone();
            appended.append_encoded(&encoded).unwrap();
            assert_eq!(appended, extended);

            // Hostile rows are refused before anything changes.
            let hostile = |edit: &dyn Fn(&mut EncodedSource)| {
                let mut sources = encoded.clone();
                edit(&mut sources[0]);
                let mut target = corpus.clone();
                assert!(target.append_encoded(&sources).is_err());
                assert_eq!(&target, corpus);
            };
            let row = encoded[0]
                .rows
                .iter()
                .position(|row| !row.runs.is_empty())
                .expect("a row with hops");
            hostile(&|source| source.rows[row].runs[0].0 = 200);
            hostile(&|source| source.rows[row].runs[0].1 = 0);
            hostile(&|source| source.rows[row].runs = vec![(0, u16::MAX), (1, 1)]);
            hostile(&|source| source.name = corpus.sources()[0].clone());
        });
    }

    #[test]
    fn chained_extension_equals_batch_extension() {
        let world = crate::world::World::build(lfp_topo::Scale::tiny());
        let corpus = world.path_corpus();
        let shards = NonZeroUsize::new(2).unwrap();
        with_repeated_snapshots(&world, |additions| {
            let batch = corpus
                .extended_with(&world.internet, additions, shards)
                .unwrap();
            let mut chained = corpus.clone();
            for addition in additions {
                chained = chained
                    .extended_with(&world.internet, std::slice::from_ref(addition), shards)
                    .unwrap();
            }
            // Equal group folds included (`PartialEq` covers them).
            assert_eq!(chained, batch);
            assert_eq!(
                batch.summaries.longest_run.len(),
                batch.distinct_sequences()
            );
            // Extending shares the base's tables instead of copying them,
            // and the total is the sum of every source's table.
            assert_eq!(batch.groups.len(), batch.sources().len());
            for (base, extended) in corpus.groups.iter().zip(&batch.groups) {
                assert!(Arc::ptr_eq(base, extended));
            }
            assert_eq!(
                batch.total,
                GroupTable::sum(batch.groups.iter().map(|table| &**table))
            );
            assert_group_folds_match_row_folds(&batch);
        });
    }

    #[test]
    fn vendor_codes_round_trip() {
        for &vendor in &Vendor::ALL {
            assert_eq!(code_vendor(vendor_code(vendor)), Some(vendor));
        }
        assert_eq!(code_vendor(UNKNOWN_HOP), None);
    }

    /// The dense transition matrix is read out in cell order and must
    /// come out in `(Vendor, Vendor)` `Ord` order, byte-identical to the
    /// `BTreeMap` it replaced: that holds only while a vendor's code is
    /// its discriminant, its `ALL` index and its `Ord` rank at once.
    #[test]
    fn vendor_codes_are_discriminants_in_ord_order() {
        for (index, &vendor) in Vendor::ALL.iter().enumerate() {
            assert_eq!(vendor as u8 as usize, index);
            assert_eq!(vendor_code(vendor) as usize, index);
        }
        assert!(Vendor::ALL.windows(2).all(|pair| pair[0] < pair[1]));
        assert!(MATRIX_CELLS + CELL_BLOCK <= usize::from(u16::MAX));
    }

    #[test]
    fn segment_diversity_splits_edge_and_core() {
        // AS layout 1 1 | 2 2 | 3 — edge = first + last segment.
        let codes = [0u8, UNKNOWN_HOP, 1, 2, 3];
        let hop_as = [1u32, 1, 2, 2, 3];
        let (edge, core, segments) = segment_diversity(&codes, &hop_as);
        assert_eq!(segments, 3);
        assert_eq!(edge, 2); // vendor 0 at the head, vendor 3 at the tail
        assert_eq!(core, 2); // vendors 1 and 2 in the middle AS
                             // Two segments only: everything is edge.
        let (edge2, core2, segments2) = segment_diversity(&[0, 1], &[1, 2]);
        assert_eq!((edge2, core2, segments2), (2, 0, 2));
        assert_eq!(segment_diversity(&[], &[]), (0, 0, 0));
    }

    #[test]
    fn run_length_encoding_is_compact_and_queryable() {
        // Build a corpus over a real tiny world and sanity-check shape.
        let world = crate::world::World::build(lfp_topo::Scale::tiny());
        let corpus = world.path_corpus();
        assert!(!corpus.is_empty());
        assert_eq!(corpus.sources().len(), world.ripe.len() + 1);
        assert_eq!(corpus.latest_ripe_source(), world.ripe.len() - 1);
        // Every source contributed rows and the columns stay aligned.
        let total: usize = (0..corpus.sources().len())
            .map(|source| corpus.rows_of_source(source).len())
            .sum();
        assert_eq!(total, corpus.len());
        // Interning actually shares sequences.
        assert!(corpus.distinct_sequences() <= corpus.len());
        for row in corpus.all_rows() {
            let runs = corpus.runs_of(row);
            let hops: usize = runs.iter().map(|&(_, len)| len as usize).sum();
            assert_eq!(hops, corpus.router_hops[row as usize] as usize);
            let identified: usize = runs
                .iter()
                .filter(|&&(code, _)| code != UNKNOWN_HOP)
                .map(|&(_, len)| len as usize)
                .sum();
            assert_eq!(identified, corpus.identified[row as usize] as usize);
        }
    }

    #[test]
    fn indexes_cover_all_rows() {
        let world = crate::world::World::build(lfp_topo::Scale::tiny());
        let corpus = world.path_corpus();
        let by_src: usize = corpus.by_src_as.values().map(Vec::len).sum();
        let by_dst: usize = corpus.by_dst_as.values().map(Vec::len).sum();
        let by_len: usize = corpus.by_length.values().map(Vec::len).sum();
        let by_set: usize = corpus.by_set.iter().map(Vec::len).sum();
        let by_seq: usize = corpus.by_seq.iter().map(Vec::len).sum();
        assert_eq!(by_src, corpus.len());
        assert_eq!(by_dst, corpus.len());
        assert_eq!(by_len, corpus.len());
        assert_eq!(by_set, corpus.len());
        assert_eq!(by_seq, corpus.len());
        // Index lookups agree with the columns.
        let row = 0u32;
        assert!(corpus.rows_from_as(corpus.src_as[0]).contains(&row));
        assert!(corpus.rows_to_as(corpus.dst_as[0]).contains(&row));
        assert!(corpus
            .rows_with_length(corpus.router_hops[0])
            .contains(&row));
        assert!(corpus.rows_with_sequence(corpus.seq_id[0]).contains(&row));
    }

    /// `count` ascending distinct values below `universe`, drawn by `seed`.
    fn sorted_sample(count: usize, universe: u64, seed: u64) -> Vec<u32> {
        let mut state = seed;
        let mut values: Vec<u32> = (0..count)
            .map(|_| {
                state = splitmix64(state);
                (state % universe) as u32
            })
            .collect();
        values.sort_unstable();
        values.dedup();
        values
    }

    proptest! {
        /// Galloping ≡ the two-pointer merge, over sorted pairs whose
        /// sizes differ by 1× to 10⁴×; half the small side is drawn from
        /// the large side so there is something to find.
        #[test]
        fn galloping_equals_the_merge(
            small in 0usize..24,
            ratio in 1usize..=10_000,
            seed in any::<u64>(),
        ) {
            let large_len = small.max(1) * ratio;
            let universe = 2 * large_len as u64 + 1;
            let large = sorted_sample(large_len, universe, seed);
            let picks = sorted_sample(small / 2, large.len() as u64, seed ^ 1);
            let mut small_side: Vec<u32> = picks.iter().map(|&index| large[index as usize]).collect();
            small_side.extend(sorted_sample(small - small / 2, universe, seed ^ 2));
            small_side.sort_unstable();
            small_side.dedup();
            let expected = merge_intersect(&small_side, &large);
            prop_assert_eq!(gallop_intersect(&small_side, &large), expected.clone());
            prop_assert_eq!(intersect_sorted(&small_side, &large), expected.clone());
            prop_assert_eq!(intersect_sorted(&large, &small_side), expected);
        }
    }

    #[test]
    fn galloping_handles_the_edges() {
        let large: Vec<u32> = (0..1000).map(|row| row * 3).collect();
        for small in [
            vec![],
            vec![0],
            vec![2997],
            vec![2998, 5000],
            vec![1, 2, 3, 4, 5],
            vec![0, 3, 2997],
        ] {
            assert_eq!(
                gallop_intersect(&small, &large),
                merge_intersect(&small, &large),
                "{small:?}"
            );
        }
        assert!(gallop_intersect(&[1, 2], &[]).is_empty());
    }

    #[test]
    fn intersect_sorted_is_set_intersection() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 9], &[2, 3, 4, 5, 10]), [3, 5]);
        assert_eq!(intersect_sorted(&[], &[1, 2]), Vec::<u32>::new());
        assert_eq!(intersect_sorted(&[7], &[7]), [7]);
        assert_eq!(intersect_sorted(&[1, 2], &[3, 4]), Vec::<u32>::new());
        // One side a strict subset of the other.
        assert_eq!(intersect_sorted(&[2, 4, 6, 8], &[4, 8]), [4, 8]);
    }

    #[test]
    fn rows_between_matches_naive_pair_scan() {
        let world = crate::world::World::build(lfp_topo::Scale::tiny());
        let corpus = world.path_corpus();
        let mut checked_nonempty = 0usize;
        for &src in corpus.src_as_ids().iter().take(8) {
            for &dst in corpus.dst_as_ids().iter().take(8) {
                let fast = corpus.rows_between(src, dst);
                let naive: Vec<u32> = corpus
                    .all_rows()
                    .into_iter()
                    .filter(|&row| {
                        corpus.src_as[row as usize] == src && corpus.dst_as[row as usize] == dst
                    })
                    .collect();
                assert_eq!(fast, naive, "pair ({src}, {dst}) diverged");
                checked_nonempty += usize::from(!fast.is_empty());
            }
        }
        assert!(checked_nonempty > 0, "no AS pair had any path");
        // Unknown ASes intersect to nothing.
        assert!(corpus.rows_between(u32::MAX - 1, 0).is_empty());
    }

    #[test]
    fn per_row_accessors_expose_the_columns() {
        let world = crate::world::World::build(lfp_topo::Scale::tiny());
        let corpus = world.path_corpus();
        for row in corpus.all_rows() {
            assert_eq!(corpus.source_of(row), corpus.source[row as usize]);
            assert_eq!(corpus.hops_of(row), corpus.router_hops[row as usize]);
            assert_eq!(corpus.us_slice_of(row), corpus.slice[row as usize]);
        }
        assert_eq!(
            corpus.source_id("ITDK-derived"),
            Some(corpus.derived_source())
        );
        assert_eq!(corpus.source_id(&corpus.sources()[0]), Some(0));
        assert_eq!(corpus.source_id("no-such-dataset"), None);
    }

    #[test]
    fn transition_matrix_counts_handoffs() {
        let world = crate::world::World::build(lfp_topo::Scale::tiny());
        let corpus = world.path_corpus();
        let rows = corpus.all_rows();
        let matrix = corpus.transition_matrix(&rows);
        // Total transitions = sum over rows of (identified hops - gaps' merges):
        // every adjacent pair in the identified subsequence counts once.
        let expected: usize = rows
            .iter()
            .map(|&row| {
                let identified = corpus.identified[row as usize] as usize;
                identified.saturating_sub(1)
            })
            .sum();
        let total: usize = matrix.values().sum();
        assert_eq!(total, expected);
    }
}
