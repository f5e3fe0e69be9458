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
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;
use std::num::NonZeroUsize;

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
    source: u16,
    trace: &'a TraceRecord,
    lfp: &'a HashMap<Ipv4Addr, Vendor>,
    snmp: &'a HashMap<Ipv4Addr, Vendor>,
}

/// Per-trace worker output: everything the serial interning fold needs.
struct EncodedPath {
    source: u16,
    src_as: u32,
    dst_as: u32,
    effective_len: u16,
    snmp_identified: u16,
    slice: UsSlice,
    codes: Vec<u8>,
    edge_vendors: u8,
    core_vendors: u8,
    as_segments: u16,
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
        for (source, snapshot) in world.ripe.iter().enumerate() {
            for trace in &snapshot.traces {
                items.push(TraceItem {
                    index: items.len(),
                    source: source as u16,
                    trace,
                    lfp: lfp_maps[source].as_ref(),
                    snmp: snmp_maps[source].as_ref(),
                });
            }
        }
        for trace in &derived {
            items.push(TraceItem {
                index: items.len(),
                source: ripe_source_count as u16,
                trace,
                lfp: lfp_maps[ripe_source_count].as_ref(),
                snmp: snmp_maps[ripe_source_count].as_ref(),
            });
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
        let mut seq_intern: HashMap<Vec<(u8, u16)>, u32> = HashMap::new();
        let mut set_intern: HashMap<Vec<Vendor>, u32> = HashMap::new();
        for path in encoded {
            corpus.intern(path, &mut seq_intern, &mut set_intern);
        }
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
            by_src_as: HashMap::new(),
            by_dst_as: HashMap::new(),
            by_length: HashMap::new(),
            by_set: Vec::new(),
            by_seq: Vec::new(),
        }
    }

    fn intern(
        &mut self,
        path: EncodedPath,
        seq_intern: &mut HashMap<Vec<(u8, u16)>, u32>,
        set_intern: &mut HashMap<Vec<Vendor>, u32>,
    ) {
        let row = self.source.len() as u32;

        let mut runs: Vec<(u8, u16)> = Vec::new();
        for &code in &path.codes {
            match runs.last_mut() {
                Some((last, count)) if *last == code && *count < u16::MAX => *count += 1,
                _ => runs.push((code, 1)),
            }
        }
        let seq_id = *seq_intern.entry(runs.clone()).or_insert_with(|| {
            let id = self.seq_spans.len() as u32;
            let offset = self.runs.len() as u32;
            self.runs.extend(runs.iter().copied());
            self.seq_spans.push((offset, runs.len() as u32));
            self.summaries.push(&runs);
            self.by_seq.push(Vec::new());
            id
        });

        let set: Vec<Vendor> = path
            .codes
            .iter()
            .filter(|&&code| code != UNKNOWN_HOP)
            .filter_map(|&code| code_vendor(code))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let set_id = *set_intern.entry(set.clone()).or_insert_with(|| {
            let id = self.sets.len() as u32;
            let label = set
                .iter()
                .map(|vendor| vendor.name().to_string())
                .collect::<Vec<_>>()
                .join(", ");
            self.sets.push(set.clone());
            self.set_labels.push(label);
            self.by_set.push(Vec::new());
            id
        });

        let identified = path.codes.iter().filter(|&&c| c != UNKNOWN_HOP).count() as u16;
        let router_hops = path.codes.len() as u16;

        self.source.push(path.source);
        self.src_as.push(path.src_as);
        self.dst_as.push(path.dst_as);
        self.effective_len.push(path.effective_len);
        self.router_hops.push(router_hops);
        self.identified.push(identified);
        self.snmp_identified.push(path.snmp_identified);
        self.slice.push(path.slice);
        self.set_id.push(set_id);
        self.seq_id.push(seq_id);
        self.edge_vendors.push(path.edge_vendors);
        self.core_vendors.push(path.core_vendors);
        self.as_segments.push(path.as_segments);

        self.by_source[path.source as usize].push(row);
        self.by_src_as.entry(path.src_as).or_default().push(row);
        self.by_dst_as.entry(path.dst_as).or_default().push(row);
        self.by_length.entry(router_hops).or_default().push(row);
        self.by_set[set_id as usize].push(row);
        self.by_seq[seq_id as usize].push(row);
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
    /// Folds each row's per-sequence cell blocks into a dense matrix: no
    /// work or memory proportional to the corpus, only to `rows`.
    pub fn transition_matrix(&self, rows: &[u32]) -> BTreeMap<(Vendor, Vendor), usize> {
        let mut dense = [0u64; MATRIX_CELLS + CELL_BLOCK];
        for &row in rows {
            let cells = self.summaries.cells_of(self.seq_id[row as usize]);
            for block in cells.chunks_exact(CELL_BLOCK) {
                for &(cell, weight) in block {
                    dense[cell as usize] += u64::from(weight);
                }
            }
        }
        // Cell order is (from, to) code order, which is `Vendor: Ord`
        // order — the map is built from an already sorted stream.
        dense[..MATRIX_CELLS]
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(cell, &count)| {
                let pair = (
                    Vendor::ALL[cell / MATRIX_SIDE],
                    Vendor::ALL[cell % MATRIX_SIDE],
                );
                (pair, count as usize)
            })
            .collect()
    }

    /// ECDF of the longest same-vendor run per path (strict hop
    /// adjacency: an unidentified hop breaks the run). Paths without an
    /// identified hop are excluded.
    ///
    /// Run lengths are small integers, so the samples are counted into a
    /// value histogram (grown to the selection's own maximum) and read
    /// back in ascending order — no sort.
    pub fn longest_run_ecdf(&self, rows: &[u32]) -> Ecdf {
        let mut histogram: Vec<u32> = Vec::new();
        for &row in rows {
            let longest = self.summaries.longest_run[self.seq_id[row as usize] as usize] as usize;
            if longest >= histogram.len() {
                histogram.resize(longest + 1, 0);
            }
            histogram[longest] += 1;
        }
        // Slot 0 counts the paths without an identified hop: skipped.
        let samples = histogram.iter().skip(1).map(|&n| n as usize).sum();
        let mut sorted = Vec::with_capacity(samples);
        for (value, &count) in histogram.iter().enumerate().skip(1) {
            sorted.extend(std::iter::repeat_n(value as f64, count as usize));
        }
        Ecdf::from_sorted(sorted)
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
    /// `identified`), per-sequence summaries and rendered labels are *not*
    /// dumped — they are pure functions of the rest and
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
            by_src_as: HashMap::new(),
            by_dst_as: HashMap::new(),
            by_length: HashMap::new(),
            by_set: vec![Vec::new(); parts.sets.len()],
            by_seq: Vec::new(),
        };
        corpus.by_seq = vec![Vec::new(); corpus.seq_spans.len()];

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
        }

        // Per-row validation + derived columns + index rebuild, one pass
        // in row order (indexes come out sorted, exactly as built).
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
        }
        Ok(corpus)
    }

    /// Fold new snapshot sources into a copy of this corpus without
    /// touching any existing row: per-trace classification of the *new*
    /// traces fans out through [`scan`] (the same determinism contract as
    /// [`PathCorpus::build`]), then the serial interning fold appends
    /// them as fresh sources. The interning tables are re-derived from
    /// the arenas, so appended rows share sequence/set ids with the base
    /// corpus — and a one-source-at-a-time chain of calls produces a
    /// corpus equal to one call carrying every source (regression-tested
    /// by `lfp-store`).
    pub fn extended_with(
        &self,
        internet: &Internet,
        additions: &[NewPathSource<'_>],
        shards: NonZeroUsize,
    ) -> Result<PathCorpus, String> {
        let mut corpus = self.clone();
        // Names must be fresh against the corpus *and* unique within the
        // batch — otherwise one call could build a corpus whose persisted
        // form `from_parts` would reject forever.
        for (index, addition) in additions.iter().enumerate() {
            if corpus.sources.iter().any(|name| name == &addition.name)
                || additions[..index]
                    .iter()
                    .any(|prior| prior.name == addition.name)
            {
                return Err(format!("source '{}' already in corpus", addition.name));
            }
        }
        if corpus.sources.len() + additions.len() > u16::MAX as usize {
            return Err("source id space exhausted".to_string());
        }
        // Re-derive the interning tables from the arenas (cheap relative
        // to classification; the arenas are append-only so ids persist).
        let mut seq_intern: HashMap<Vec<(u8, u16)>, u32> = HashMap::new();
        for (id, &(offset, len)) in corpus.seq_spans.iter().enumerate() {
            let key = corpus.runs[offset as usize..(offset + len) as usize].to_vec();
            seq_intern.insert(key, id as u32);
        }
        let mut set_intern: HashMap<Vec<Vendor>, u32> = HashMap::new();
        for (id, set) in corpus.sets.iter().enumerate() {
            set_intern.insert(set.clone(), id as u32);
        }

        let config = ScanConfig {
            shards,
            pacing: 0.0,
        };
        for addition in additions {
            let source_id = corpus.sources.len();
            corpus.sources.push(addition.name.clone());
            corpus.by_source.push(Vec::new());
            let items: Vec<TraceItem> = addition
                .traces
                .iter()
                .enumerate()
                .map(|(index, trace)| TraceItem {
                    index,
                    source: source_id as u16,
                    trace,
                    lfp: addition.lfp,
                    snmp: addition.snmp,
                })
                .collect();
            let encoded = scan(
                &items,
                config,
                |item| splitmix64(item.index as u64 ^ 0x9e37_79b9_7f4a_7c15),
                |item, _ctx| encode_path(internet, item),
            );
            for path in encoded {
                corpus.intern(path, &mut seq_intern, &mut set_intern);
            }
            if addition.is_ripe_snapshot {
                corpus.latest_ripe = source_id;
            }
        }
        Ok(corpus)
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

/// Intersect two ascending row-id slices (the corpus indexes are built in
/// row order, so every index lookup returns a sorted slice). Linear
/// two-pointer merge; the planner's only set operation.
pub fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
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
fn encode_path(internet: &Internet, item: &TraceItem) -> EncodedPath {
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
    EncodedPath {
        source: item.source,
        src_as: item.trace.src_as,
        dst_as: item.trace.dst_as,
        effective_len: item.trace.effective_length() as u16,
        snmp_identified,
        slice: slice_of(internet, item.trace),
        codes,
        edge_vendors,
        core_vendors,
        as_segments,
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
        let (mut seq_intern, mut set_intern) = (HashMap::new(), HashMap::new());
        for (index, codes) in paths.into_iter().enumerate() {
            let path = EncodedPath {
                source: (index % 2) as u16,
                src_as: (index % 7) as u32,
                dst_as: (index % 5) as u32,
                effective_len: codes.len() as u16,
                snmp_identified: 0,
                slice: UsSlice::ALL[index % 3],
                codes,
                edge_vendors: 0,
                core_vendors: 0,
                as_segments: 0,
            };
            corpus.intern(path, &mut seq_intern, &mut set_intern);
        }
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
        // spelled out for the values the engine renders.
        assert_eq!(fast, oracle);
        assert_eq!(fast.len(), oracle.len());
        assert_eq!(
            fast.mean().map(f64::to_bits),
            oracle.mean().map(f64::to_bits)
        );
        for step in 0..=20 {
            let q = f64::from(step) / 20.0;
            assert_eq!(fast.quantile(q), oracle.quantile(q), "quantile {q}");
        }
        assert_eq!(fast.series(16), oracle.series(16));
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
            // `PartialEq` covers the derived arenas.
            assert_eq!(&rebuilt, corpus);
        }
    }

    #[test]
    fn chained_extension_equals_batch_extension() {
        let world = crate::world::World::build(lfp_topo::Scale::tiny());
        let corpus = world.path_corpus();
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
        let shards = NonZeroUsize::new(2).unwrap();
        let batch = corpus
            .extended_with(&world.internet, &additions, shards)
            .unwrap();
        let mut chained = corpus.clone();
        for addition in &additions {
            chained = chained
                .extended_with(&world.internet, std::slice::from_ref(addition), shards)
                .unwrap();
        }
        assert_eq!(chained, batch);
        assert_eq!(
            batch.summaries.longest_run.len(),
            batch.distinct_sequences()
        );
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
