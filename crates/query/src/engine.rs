//! The query engine: plan → execute → render → cache.
//!
//! A [`QueryEngine`] holds shared ownership of a measured [`World`] and
//! a [`PathCorpus`] (normally the world's memoised one, but an epoch
//! store may hand it an *extended* corpus), pre-aggregates the per-AS
//! vendor counts the vendor-mix queries read, and serves every query as
//! rendered JSON bytes. Execution is deterministic — a pure function of
//! the engine's state and the query — so the cache may return stored
//! bytes without changing any observable result (property-tested in
//! `tests/determinism.rs`).
//!
//! ## Epochs
//!
//! Every engine carries an **epoch id**: 0 for an engine built straight
//! from a world, `n` after `n` snapshots have been ingested by an epoch
//! store. The epoch participates in the canonical form the engine caches
//! and echoes ([`QueryEngine::canonical`]), which is what makes a shared
//! result cache safe across an epoch swap: the new engine's keys never
//! collide with the old engine's, so a stale answer is structurally
//! unservable and old entries simply age out of the LRU.

use crate::cache::{CacheStats, ShardedLru};
use crate::plan::{plan, select_rows};
use crate::query::{method_name, slice_name, Query};
use lfp_analysis::homogeneity::per_as_vendor_counts;
use lfp_analysis::json::{escape, escape_into, number, push_number, JsonBuilder};
use lfp_analysis::path_corpus::{LabelSource, PathCorpus, RunHistogram, TransitionCells};
use lfp_analysis::World;
use lfp_obs::Clock;
use lfp_stack::vendor::Vendor;
use lfp_topo::Continent;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// How many vendor combinations a path-diversity answer ranks.
const TOP_SETS: usize = 5;

/// How many sample AS ids a catalog answer lists per endpoint.
const CATALOG_SAMPLE: usize = 24;

/// One answered query.
#[derive(Debug, Clone)]
pub struct Response {
    /// The rendered result object (compact JSON, one line).
    pub payload: Arc<str>,
    /// Whether the payload came from the result cache.
    pub cached: bool,
}

/// Observed execution breakdown for one query, in nanoseconds (see
/// [`QueryEngine::execute_lane_obs`]). The sub-stages partition the
/// engine's share of a request: cache probe (+ insert), selection
/// planning, and everything else (fold + render).
#[derive(Debug, Clone, Default)]
pub struct ExecObs {
    /// Result-cache probe (and insert on a miss), plus canonicalisation
    /// when the caller did not hand in a key of this engine's epoch.
    pub cache_ns: u64,
    /// Selection planning (the planner and its executor's stage counts);
    /// 0 for planless queries and cache hits.
    pub plan_ns: u64,
    /// Computing and rendering the payload; 0 for cache hits.
    pub render_ns: u64,
    /// Whether the response came from the result cache.
    pub cached: bool,
    /// The planner's explain trace (empty on hits and planless queries).
    pub explain: String,
    /// The epoch-tagged canonical form the result is cached under and
    /// echoed as ([`QueryEngine::canonical`]), so a caller rendering the
    /// envelope need not build it a second time.
    pub key: String,
}

/// An epoch-tagged canonical form ([`QueryEngine::canonical`]) with the
/// epoch it was built at. A cache probe that misses hands its key on, so
/// the execution that follows builds it again only when it runs on an
/// engine of another epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// The epoch the key was built at.
    pub epoch: u64,
    /// The canonical form.
    pub text: String,
}

/// The serving engine. Shareable by reference (or `Arc`) across worker
/// threads and connection handlers (all interior mutability lives in the
/// cache).
pub struct QueryEngine {
    world: Arc<World>,
    corpus: Arc<PathCorpus>,
    /// AS → vendor → identified-router count, per identification method,
    /// over the engine's latest snapshot (the paper's §5 dataset; the
    /// newest ingested snapshot after an epoch swap).
    per_as_lfp: BTreeMap<u32, BTreeMap<Vendor, usize>>,
    per_as_snmp: BTreeMap<u32, BTreeMap<Vendor, usize>>,
    cache: Arc<ShardedLru>,
    epoch: u64,
}

impl QueryEngine {
    /// Default cache geometry: 16 shards, 4096 resident results.
    pub fn new(world: Arc<World>) -> QueryEngine {
        Self::with_cache(world, 16, 4096)
    }

    /// Build with explicit cache geometry at epoch 0. Triggers the
    /// world's corpus build (memoised) and one classification pass for
    /// the vendor-mix aggregates; both are shared with every other
    /// consumer of the world.
    pub fn with_cache(world: Arc<World>, shards: usize, capacity: usize) -> QueryEngine {
        let corpus = world.path_corpus_arc();
        let (targets, lfp, snmp) = {
            let (snapshot, scan) = world.latest_ripe();
            let targets: Vec<Ipv4Addr> = snapshot.router_ips.iter().copied().collect();
            (
                targets,
                world.lfp_vendor_map(scan),
                world.snmp_vendor_map(scan),
            )
        };
        Self::for_epoch(
            world,
            corpus,
            &targets,
            &lfp,
            &snmp,
            Arc::new(ShardedLru::new(shards, capacity)),
            0,
        )
    }

    /// Build an engine for one epoch of a serving store: an explicit
    /// corpus (possibly extended past the world's memoised one), the
    /// newest snapshot's router population and vendor maps for the
    /// vendor-mix aggregates, a **shared** result cache, and the epoch id
    /// that tags every cache key this engine writes or reads.
    pub fn for_epoch(
        world: Arc<World>,
        corpus: Arc<PathCorpus>,
        latest_targets: &[Ipv4Addr],
        lfp: &HashMap<Ipv4Addr, Vendor>,
        snmp: &HashMap<Ipv4Addr, Vendor>,
        cache: Arc<ShardedLru>,
        epoch: u64,
    ) -> QueryEngine {
        let per_as_lfp = per_as_vendor_counts(&world.internet, latest_targets, lfp);
        let per_as_snmp = per_as_vendor_counts(&world.internet, latest_targets, snmp);
        QueryEngine {
            world,
            corpus,
            per_as_lfp,
            per_as_snmp,
            cache,
            epoch,
        }
    }

    /// The corpus this engine serves (for catalogs and tests).
    pub fn corpus(&self) -> &PathCorpus {
        &self.corpus
    }

    /// A shared handle to the served corpus (the epoch store extends it
    /// into the next epoch's corpus).
    pub fn corpus_arc(&self) -> Arc<PathCorpus> {
        Arc::clone(&self.corpus)
    }

    /// The world this engine serves.
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// This engine's epoch id (0 for a freshly built world; incremented
    /// by each ingested snapshot).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A shared handle to the result cache (epoch swaps pass it to the
    /// next engine; epoch-tagged keys keep the generations disjoint).
    pub fn cache_handle(&self) -> Arc<ShardedLru> {
        Arc::clone(&self.cache)
    }

    /// The canonical form this engine caches under and echoes: the
    /// query's canonical JSON with the engine's epoch appended (see
    /// [`Query::canonical_at`]).
    pub fn canonical(&self, query: &Query) -> String {
        query.canonical_at(self.epoch)
    }

    /// [`canonical`](QueryEngine::canonical) as a [`CacheKey`] of this
    /// engine's epoch.
    pub fn key(&self, query: &Query) -> CacheKey {
        CacheKey {
            epoch: self.epoch,
            text: self.canonical(query),
        }
    }

    /// Cache counters since construction.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Answer one query: cache lookup by the epoch-tagged canonical key,
    /// else compute, render and store. Errors (unknown source dataset)
    /// are not cached.
    pub fn execute(&self, query: &Query) -> Result<Response, String> {
        self.execute_lane(query, 0)
    }

    /// [`execute`](QueryEngine::execute) with an explicit cache lane.
    /// A multi-loop server passes its event-loop shard id so each loop
    /// keeps its hot working set on its own cache shards (see
    /// [`ShardedLru::get_lane`]); results are identical bytes either way.
    pub fn execute_lane(&self, query: &Query, lane: u64) -> Result<Response, String> {
        let key = self.canonical(query);
        if let Some(payload) = self.cache.get_lane(&key, lane) {
            return Ok(Response {
                payload,
                cached: true,
            });
        }
        let payload: Arc<str> = Arc::from(self.compute(query, None)?.0);
        self.cache.insert_lane(&key, Arc::clone(&payload), lane);
        Ok(Response {
            payload,
            cached: false,
        })
    }

    /// Cold execution, bypassing the cache entirely (reference path for
    /// the determinism tests and benches).
    pub fn execute_uncached(&self, query: &Query) -> Result<String, String> {
        Ok(self.compute(query, None)?.0)
    }

    /// [`execute_lane`](QueryEngine::execute_lane) with per-sub-stage
    /// timing: identical bytes and cache behaviour, plus an [`ExecObs`]
    /// splitting the engine's time into cache probe / plan / render and
    /// carrying the planner's explain trace for the slow-query log.
    ///
    /// `key` is the query's key if a probe already built one (see
    /// [`resident_lane_obs`](QueryEngine::resident_lane_obs)); it is used
    /// only if it was built at this engine's epoch, else rebuilt.
    pub fn execute_lane_obs(
        &self,
        query: &Query,
        key: Option<CacheKey>,
        lane: u64,
        clock: &dyn Clock,
    ) -> Result<(Response, ExecObs), String> {
        let probe_start = clock.now_ns();
        let key = match key {
            Some(key) if key.epoch == self.epoch => key.text,
            _ => self.canonical(query),
        };
        if let Some(payload) = self.cache.get_lane(&key, lane) {
            return Ok(cache_hit(payload, key, probe_start, clock));
        }
        let compute_start = clock.now_ns();
        let (body, plan_ns, explain) = self.compute(query, Some(clock))?;
        let compute_end = clock.now_ns();
        let payload: Arc<str> = Arc::from(body);
        self.cache.insert_lane(&key, Arc::clone(&payload), lane);
        let insert_end = clock.now_ns();
        let compute_ns = compute_end.saturating_sub(compute_start);
        let obs = ExecObs {
            cache_ns: compute_start.saturating_sub(probe_start)
                + insert_end.saturating_sub(compute_end),
            plan_ns,
            render_ns: compute_ns.saturating_sub(plan_ns),
            cached: false,
            explain,
            key,
        };
        Ok((
            Response {
                payload,
                cached: false,
            },
            obs,
        ))
    }

    /// The cache-probe half of
    /// [`execute_lane_obs`](QueryEngine::execute_lane_obs): the resident
    /// answer under `lane`, or — without executing anything — a copy of
    /// the key it was probed under, for the execution that follows. The
    /// key is borrowed: a caller that already wrote it (the serving
    /// loop's [`wire::decode_to_key`](crate::wire::decode_to_key)) pays
    /// no second canonicalisation. A key of another epoch is never
    /// probed, so it reads as a miss. A hit counts; a miss does not,
    /// because the caller hands the query on to `execute_lane_obs`, whose
    /// own probe counts it — one lookup per request in the cache
    /// counters either way.
    pub fn resident_lane_obs(
        &self,
        key: &CacheKey,
        lane: u64,
        clock: &dyn Clock,
    ) -> Result<(Response, ExecObs), CacheKey> {
        let probe_start = clock.now_ns();
        if key.epoch != self.epoch {
            return Err(key.clone());
        }
        match self.cache.hit_lane(&key.text, lane) {
            Some(payload) => Ok(cache_hit(payload, key.text.clone(), probe_start, clock)),
            None => Err(key.clone()),
        }
    }

    /// Compute one payload; returns it with the nanoseconds planning took
    /// and the plan's explain trace (0 and empty when planless). Without
    /// a clock it is the same path minus the clock reads.
    fn compute(
        &self,
        query: &Query,
        clock: Option<&dyn Clock>,
    ) -> Result<(String, u64, String), String> {
        let planless = |payload: String| Ok((payload, 0, String::new()));
        let corpus = &*self.corpus;
        match query {
            Query::VendorMixAs { as_id, method } => planless(self.vendor_mix(
                &format!("as:{as_id}"),
                *method,
                |candidate| candidate == *as_id,
            )),
            Query::VendorMixRegion { region, method } => planless(self.vendor_mix(
                &format!("region:{}", region.abbrev()),
                *method,
                |candidate| self.world.internet.continent_of(candidate) == *region,
            )),
            Query::Catalog => planless(self.catalog()),
            Query::PathDiversity { selection } => {
                let (planned, plan_ns) = timed(clock, || select_rows(corpus, selection));
                let planned = planned?;
                let payload = self.path_diversity(&planned.rows, &planned.explain);
                Ok((payload, plan_ns, planned.explain))
            }
            Query::Transitions { selection } => {
                let (planned, plan_ns) = timed(clock, || plan(corpus, selection));
                let planned = planned?;
                let cells = planned.transitions(corpus);
                let payload = render_transitions(planned.paths(), &cells, &planned.explain);
                Ok((payload, plan_ns, planned.explain))
            }
            Query::LongestRuns { selection } => {
                let (planned, plan_ns) = timed(clock, || plan(corpus, selection));
                let planned = planned?;
                let payload = render_longest_runs(&planned.longest_runs(corpus), &planned.explain);
                Ok((payload, plan_ns, planned.explain))
            }
        }
    }

    fn counts_for(&self, method: LabelSource) -> &BTreeMap<u32, BTreeMap<Vendor, usize>> {
        match method {
            LabelSource::Lfp => &self.per_as_lfp,
            LabelSource::Snmp => &self.per_as_snmp,
        }
    }

    fn vendor_mix<F: Fn(u32) -> bool>(
        &self,
        group: &str,
        method: LabelSource,
        include_as: F,
    ) -> String {
        // Aggregate matching ASes (one AS for as:N, a continent's worth
        // for region:XX). BTreeMaps keep iteration deterministic.
        let mut totals: BTreeMap<Vendor, usize> = BTreeMap::new();
        let mut ases = 0usize;
        for (&as_id, vendors) in self.counts_for(method) {
            if !include_as(as_id) {
                continue;
            }
            ases += 1;
            for (&vendor, &count) in vendors {
                *totals.entry(vendor).or_default() += count;
            }
        }
        let routers: usize = totals.values().sum();
        let mut ranked: Vec<(Vendor, usize)> = totals.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.name().cmp(b.0.name())));
        let mut json = JsonBuilder::object();
        json.string("group", group);
        json.string("method", method_name(method));
        json.integer("ases", ases as u64);
        json.integer("routers", routers as u64);
        json.raw_array(
            "vendors",
            ranked.into_iter().map(|(vendor, count)| {
                format!(
                    "[\"{}\", {count}, {}]",
                    escape(vendor.name()),
                    number(count as f64 * 100.0 / routers.max(1) as f64)
                )
            }),
        );
        json.finish()
    }

    fn path_diversity(&self, rows: &[u32], explain: &str) -> String {
        let corpus = &self.corpus;
        let identified = corpus.identified_paths(rows);
        let single = corpus.count_set_size(rows, 1);
        let multi = identified.saturating_sub(single);
        let mean = corpus
            .vendors_per_path_ecdf(rows)
            .mean()
            .unwrap_or(f64::NAN);
        let mut json = JsonBuilder::object();
        json.integer("paths", rows.len() as u64);
        json.integer("identified_paths", identified as u64);
        json.number("mean_vendors", mean);
        json.integer("multi_vendor_paths", multi as u64);
        json.number(
            "multi_vendor_percent",
            multi as f64 * 100.0 / identified.max(1) as f64,
        );
        json.integer(
            "distinct_vendor_sets",
            corpus.distinct_vendor_sets(rows) as u64,
        );
        json.raw_array(
            "top_sets",
            corpus
                .top_vendor_combinations(rows, TOP_SETS)
                .into_iter()
                .map(|(label, share, count)| {
                    format!("[\"{}\", {count}, {}]", escape(&label), number(share))
                }),
        );
        json.string("plan", explain);
        json.finish()
    }

    fn catalog(&self) -> String {
        let corpus = &self.corpus;
        let sample = |ids: Vec<u32>| {
            ids.into_iter()
                .take(CATALOG_SAMPLE)
                .map(|id| id.to_string())
        };
        let mut json = JsonBuilder::object();
        json.integer("epoch", self.epoch);
        json.string_array("sources", corpus.sources());
        json.string(
            "latest_source",
            &corpus.sources()[corpus.latest_ripe_source()],
        );
        json.integer("paths", corpus.len() as u64);
        json.integer("sequences", corpus.distinct_sequences() as u64);
        json.raw_array("src_ases", sample(corpus.src_as_ids()));
        json.raw_array("dst_ases", sample(corpus.dst_as_ids()));
        json.raw_array(
            "regions",
            Continent::ALL
                .iter()
                .map(|region| format!("\"{}\"", region.abbrev())),
        );
        json.raw_array(
            "slices",
            [
                lfp_analysis::us_study::UsSlice::IntraUs,
                lfp_analysis::us_study::UsSlice::InterUs,
                lfp_analysis::us_study::UsSlice::Other,
            ]
            .into_iter()
            .map(|slice| format!("\"{}\"", slice_name(slice))),
        );
        json.finish()
    }
}

/// A resident answer with its observation: the probe took from
/// `probe_start` until now, and nothing was planned or rendered.
fn cache_hit(
    payload: Arc<str>,
    key: String,
    probe_start: u64,
    clock: &dyn Clock,
) -> (Response, ExecObs) {
    let obs = ExecObs {
        cache_ns: clock.now_ns().saturating_sub(probe_start),
        cached: true,
        key,
        ..ExecObs::default()
    };
    let response = Response {
        payload,
        cached: true,
    };
    (response, obs)
}

/// Run `step`; return its result and the nanoseconds it took on `clock`
/// (0 without a clock, which is then never read).
fn timed<T>(clock: Option<&dyn Clock>, step: impl FnOnce() -> T) -> (T, u64) {
    let now = || clock.map_or(0, Clock::now_ns);
    let start = now();
    let result = step();
    (result, now().saturating_sub(start))
}

/// The `transitions` result object, written straight from the dense
/// matrix into one `String` — the bytes `JsonBuilder` renders for it
/// (the `BTreeMap` rendering stays as the tests' oracle), without a map,
/// a builder or an allocation per cell.
fn render_transitions(paths: usize, cells: &TransitionCells, explain: &str) -> String {
    let handoffs = cells.handoffs();
    // Room for a few dozen cells, the common case, without regrowing.
    let mut out = String::with_capacity(1024 + explain.len());
    let _ = write!(
        out,
        "{{\"paths\": {paths}, \"handoffs\": {handoffs}, \"custody_kept_percent\": "
    );
    push_number(
        &mut out,
        cells.kept() as f64 * 100.0 / handoffs.max(1) as f64,
    );
    out.push_str(", \"transitions\": [");
    for (index, (from, to, count)) in cells.nonzero().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        out.push_str("[\"");
        escape_into(&mut out, from.name());
        out.push_str("\", \"");
        escape_into(&mut out, to.name());
        let _ = write!(out, "\", {count}]");
    }
    out.push_str("], \"plan\": \"");
    escape_into(&mut out, explain);
    out.push_str("\"}");
    out
}

/// The `longest_runs` result object, read straight off the histogram —
/// the bytes `JsonBuilder` renders from the expanded [`Ecdf`] (kept as
/// the tests' oracle).
///
/// [`Ecdf`]: lfp_analysis::stats::Ecdf
fn render_longest_runs(runs: &RunHistogram, explain: &str) -> String {
    let mut out = String::with_capacity(96 + explain.len());
    let _ = write!(out, "{{\"paths\": {}, \"mean\": ", runs.len());
    push_number(&mut out, runs.mean().unwrap_or(f64::NAN));
    for (key, q) in [("p50", 0.5), ("p90", 0.9), ("max", 1.0)] {
        let _ = write!(out, ", \"{key}\": ");
        push_number(&mut out, runs.quantile(q).unwrap_or(f64::NAN));
    }
    out.push_str(", \"plan\": \"");
    escape_into(&mut out, explain);
    out.push_str("\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Selection;
    use crate::testutil::{select_rows_staged, selection_grid, shared_world};
    use lfp_analysis::json::parse;
    use lfp_analysis::path_corpus::{code_vendor, UNKNOWN_HOP};
    use lfp_analysis::stats::Ecdf;

    fn engine() -> QueryEngine {
        QueryEngine::new(shared_world())
    }

    #[test]
    fn vendor_mix_by_as_sums_to_router_total() {
        let engine = engine();
        let as_id = *engine.per_as_lfp.keys().next().expect("some AS identified");
        let response = engine
            .execute(&Query::VendorMixAs {
                as_id,
                method: LabelSource::Lfp,
            })
            .unwrap();
        let value = parse(&response.payload).unwrap();
        let routers = value.get("routers").unwrap().as_u64().unwrap();
        let from_rows: u64 = value
            .get("vendors")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|row| row.as_array().unwrap()[1].as_u64().unwrap())
            .sum();
        assert_eq!(routers, from_rows);
        assert_eq!(value.get("ases").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn vendor_mix_by_region_covers_member_ases() {
        let engine = engine();
        // Regions partition the ASes, so summing router counts over all
        // six regions equals the total over all ASes.
        let total: u64 = Continent::ALL
            .iter()
            .map(|&region| {
                let response = engine
                    .execute(&Query::VendorMixRegion {
                        region,
                        method: LabelSource::Lfp,
                    })
                    .unwrap();
                parse(&response.payload)
                    .unwrap()
                    .get("routers")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .sum();
        let identified: u64 = engine
            .per_as_lfp
            .values()
            .flat_map(|vendors| vendors.values())
            .map(|&count| count as u64)
            .sum();
        assert_eq!(total, identified);
    }

    #[test]
    fn path_diversity_and_runs_report_consistent_shapes() {
        let engine = engine();
        let response = engine
            .execute(&Query::PathDiversity {
                selection: Selection::default(),
            })
            .unwrap();
        let value = parse(&response.payload).unwrap();
        assert_eq!(
            value.get("paths").unwrap().as_u64().unwrap(),
            engine.corpus().len() as u64
        );
        assert!(value
            .get("plan")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("base=all"));
        let runs = engine
            .execute(&Query::LongestRuns {
                selection: Selection::default(),
            })
            .unwrap();
        let runs = parse(&runs.payload).unwrap();
        assert!(
            runs.get("p50").unwrap().as_f64().unwrap()
                <= runs.get("max").unwrap().as_f64().unwrap()
        );
    }

    #[test]
    fn transitions_match_the_corpus_matrix() {
        let engine = engine();
        let response = engine
            .execute(&Query::Transitions {
                selection: Selection::default(),
            })
            .unwrap();
        let value = parse(&response.payload).unwrap();
        let rows = engine.corpus().all_rows();
        let matrix = engine.corpus().transition_matrix(&rows);
        let expected: u64 = matrix.values().map(|&count| count as u64).sum();
        assert_eq!(value.get("handoffs").unwrap().as_u64(), Some(expected));
        assert_eq!(
            value.get("transitions").unwrap().as_array().unwrap().len(),
            matrix.len()
        );
    }

    /// Oracle for [`render_transitions`]: the `BTreeMap` through
    /// `JsonBuilder`.
    fn render_transitions_oracle(
        paths: usize,
        matrix: BTreeMap<(Vendor, Vendor), usize>,
        explain: &str,
    ) -> String {
        let handoffs: usize = matrix.values().sum();
        let kept: usize = matrix
            .iter()
            .filter(|((from, to), _)| from == to)
            .map(|(_, &count)| count)
            .sum();
        let mut json = JsonBuilder::object();
        json.integer("paths", paths as u64);
        json.integer("handoffs", handoffs as u64);
        json.number(
            "custody_kept_percent",
            kept as f64 * 100.0 / handoffs.max(1) as f64,
        );
        json.raw_array(
            "transitions",
            matrix.into_iter().map(|((from, to), count)| {
                format!(
                    "[\"{}\", \"{}\", {count}]",
                    escape(from.name()),
                    escape(to.name())
                )
            }),
        );
        json.string("plan", explain);
        json.finish()
    }

    /// Oracle for [`render_longest_runs`]: the expanded [`Ecdf`] through
    /// `JsonBuilder`.
    fn render_longest_runs_oracle(ecdf: &Ecdf, explain: &str) -> String {
        let quantile = |q: f64| ecdf.quantile(q).unwrap_or(f64::NAN);
        let mut json = JsonBuilder::object();
        json.integer("paths", ecdf.len() as u64);
        json.number("mean", ecdf.mean().unwrap_or(f64::NAN));
        json.number("p50", quantile(0.5));
        json.number("p90", quantile(0.9));
        json.number("max", quantile(1.0));
        json.string("plan", explain);
        json.finish()
    }

    /// The rows executor for every selection: materialise the rows, fold
    /// them, render with the production renderers.
    fn row_fold_payload(engine: &QueryEngine, query: &Query) -> String {
        let corpus = engine.corpus();
        match query {
            Query::Transitions { selection } => {
                let plan = select_rows(corpus, selection).unwrap();
                let cells = corpus.transition_cells(&plan.rows);
                render_transitions(plan.rows.len(), &cells, &plan.explain)
            }
            Query::LongestRuns { selection } => {
                let plan = select_rows(corpus, selection).unwrap();
                render_longest_runs(&corpus.longest_run_histogram(&plan.rows), &plan.explain)
            }
            other => engine.execute_uncached(other).unwrap(),
        }
    }

    /// The pre-summary execution path: staged plan, then the per-row,
    /// per-run folds (`BTreeMap` entry per run; one sorted `f64` per
    /// row), rendered by the oracle renderers.
    fn oracle_payload(engine: &QueryEngine, query: &Query) -> String {
        let corpus = engine.corpus();
        match query {
            Query::PathDiversity { selection } => {
                let plan = select_rows_staged(corpus, selection).unwrap();
                engine.path_diversity(&plan.rows, &plan.explain)
            }
            Query::Transitions { selection } => {
                let plan = select_rows_staged(corpus, selection).unwrap();
                let mut matrix: BTreeMap<(Vendor, Vendor), usize> = BTreeMap::new();
                for &row in &plan.rows {
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
                render_transitions_oracle(plan.rows.len(), matrix, &plan.explain)
            }
            Query::LongestRuns { selection } => {
                let plan = select_rows_staged(corpus, selection).unwrap();
                let longest = |row: &u32| {
                    corpus
                        .runs_of(*row)
                        .iter()
                        .filter(|&&(code, _)| code != UNKNOWN_HOP)
                        .map(|&(_, len)| f64::from(len))
                        .reduce(f64::max)
                };
                let ecdf = Ecdf::new(plan.rows.iter().filter_map(longest).collect());
                render_longest_runs_oracle(&ecdf, &plan.explain)
            }
            planless => engine.execute_uncached(planless).unwrap(),
        }
    }

    /// Grouped (the engine's choice for endpoint-free selections) ≡ the
    /// row fold ≡ the oracle path, byte for byte, `plan` included.
    #[test]
    fn cold_mix_shaped_pool_renders_byte_identical_to_the_oracle_path() {
        let engine = engine();
        let mut empty_selections = 0usize;
        let grid = selection_grid(engine.corpus());
        for (index, selection) in grid.iter().enumerate() {
            // The cold mix's shape: both scan-heavy kinds over every
            // filter combination, path_diversity on the AS-pair ones.
            let mut queries = vec![
                Query::Transitions {
                    selection: selection.clone(),
                },
                Query::LongestRuns {
                    selection: selection.clone(),
                },
            ];
            if selection.src_as.is_some() && selection.dst_as.is_some() {
                queries.push(Query::PathDiversity {
                    selection: selection.clone(),
                });
            }
            for query in &queries {
                let payload = engine.execute_uncached(query).unwrap();
                assert_eq!(payload, row_fold_payload(&engine, query), "query #{index}");
                assert_eq!(payload, oracle_payload(&engine, query), "query #{index}");
                if let Query::LongestRuns { .. } = query {
                    let empty = payload.starts_with("{\"paths\": 0,");
                    // An empty selection still renders its NaN fields
                    // (the JSON writer spells NaN `null`).
                    assert_eq!(empty, payload.contains("\"mean\": null"), "{payload}");
                    empty_selections += usize::from(empty);
                }
            }
        }
        assert!(empty_selections > 0 && empty_selections < grid.len());
    }

    #[test]
    fn second_execution_is_a_cache_hit_with_identical_bytes() {
        let engine = engine();
        let query = Query::PathDiversity {
            selection: Selection {
                min_hops: Some(2),
                ..Selection::default()
            },
        };
        let cold = engine.execute(&query).unwrap();
        assert!(!cold.cached);
        let warm = engine.execute(&query).unwrap();
        assert!(warm.cached);
        assert_eq!(cold.payload, warm.payload);
        assert_eq!(&*cold.payload, engine.execute_uncached(&query).unwrap());
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn observed_execution_is_byte_identical_and_reports_stages() {
        let engine = engine();
        let clock = lfp_obs::MonotonicClock::new();
        let query = Query::PathDiversity {
            selection: Selection::default(),
        };
        let (cold, cold_obs) = engine.execute_lane_obs(&query, None, 0, &clock).unwrap();
        assert!(!cold.cached && !cold_obs.cached);
        assert!(
            cold_obs.explain.contains("base=all"),
            "explain trace captured on a miss"
        );
        assert_eq!(&*cold.payload, engine.execute_uncached(&query).unwrap());
        let (warm, warm_obs) = engine.execute_lane_obs(&query, None, 0, &clock).unwrap();
        assert!(warm.cached && warm_obs.cached);
        assert!(warm_obs.explain.is_empty());
        assert_eq!((warm_obs.plan_ns, warm_obs.render_ns), (0, 0));
        assert_eq!(cold.payload, warm.payload);
        // And the untraced lane path sees the same cache entry.
        let plain = engine.execute_lane(&query, 0).unwrap();
        assert!(plain.cached);
        assert_eq!(plain.payload, cold.payload);
    }

    #[test]
    fn resident_probe_shares_the_execution_key_and_counts_one_lookup_per_request() {
        let engine = engine();
        let clock = lfp_obs::MonotonicClock::new();
        let query = Query::Transitions {
            selection: Selection {
                min_hops: Some(3),
                ..Selection::default()
            },
        };
        // Not resident yet: no answer, and the miss — with the key it was
        // probed under — is left to the execution that follows.
        let key = engine
            .resident_lane_obs(&engine.key(&query), 2, &clock)
            .expect_err("cold cache");
        assert_eq!(key, engine.key(&query));
        let (cold, cold_obs) = engine
            .execute_lane_obs(&query, Some(key), 2, &clock)
            .unwrap();
        assert_eq!(cold_obs.key, engine.canonical(&query));
        let (warm, warm_obs) = engine
            .resident_lane_obs(&engine.key(&query), 2, &clock)
            .unwrap();
        assert!(warm.cached && warm_obs.cached);
        assert_eq!(warm.payload, cold.payload);
        assert_eq!(warm_obs.key, cold_obs.key);
        assert_eq!((warm_obs.plan_ns, warm_obs.render_ns), (0, 0));
        // Two requests, two lookups: one miss, one hit.
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn a_key_built_at_another_epoch_is_rebuilt_not_reused() {
        let engine = engine();
        let clock = lfp_obs::MonotonicClock::new();
        let query = Query::LongestRuns {
            selection: Selection {
                max_hops: Some(5),
                ..Selection::default()
            },
        };
        let stale = CacheKey {
            epoch: engine.epoch() + 1,
            text: query.canonical_at(engine.epoch() + 1),
        };
        let (_, obs) = engine
            .execute_lane_obs(&query, Some(stale.clone()), 0, &clock)
            .unwrap();
        assert_eq!(obs.key, engine.canonical(&query));
        assert!(engine
            .resident_lane_obs(&engine.key(&query), 0, &clock)
            .is_ok());
        assert!(engine.cache_handle().hit_lane(&stale.text, 0).is_none());
        // Nor does a probe under a key of another epoch reach the cache,
        // even when an entry sits under that key's text.
        engine
            .cache_handle()
            .insert_lane(&stale.text, Arc::from("stale"), 0);
        let missed = engine
            .resident_lane_obs(&stale, 0, &clock)
            .expect_err("another epoch's key is a miss");
        assert_eq!(missed, stale);
    }

    #[test]
    fn unknown_source_errors_and_is_not_cached() {
        let engine = engine();
        let query = Query::Transitions {
            selection: Selection {
                source: Some("nope".to_string()),
                ..Selection::default()
            },
        };
        assert!(engine.execute(&query).is_err());
        assert!(engine.execute(&query).is_err());
        assert_eq!(engine.cache_stats().entries, 0);
    }

    #[test]
    fn catalog_lists_sources_and_samples() {
        let engine = engine();
        let response = engine.execute(&Query::Catalog).unwrap();
        let value = parse(&response.payload).unwrap();
        assert_eq!(
            value.get("sources").unwrap().as_array().unwrap().len(),
            engine.corpus().sources().len()
        );
        assert!(!value
            .get("src_ases")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        assert_eq!(value.get("regions").unwrap().as_array().unwrap().len(), 6);
    }
}
