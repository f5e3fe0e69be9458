//! The serving supervisor: lifecycle above N independent shard loops.
//!
//! The serving core is layered (see the README diagram):
//!
//! ```text
//!            listener
//!               │
//!          ┌────▼─────┐   round-robin by accept order
//!          │ acceptor │──────────────┐
//!          └──────────┘              │
//!        ┌──────────┬────────────┬───▼──────┐
//!        │ shard 0  │  shard 1   │  shard N-1│   independent poll sets,
//!        │ loop     │  loop      │  loop     │   wake pipes, fault lanes
//!        └───┬──────┴────┬───────┴────┬──────┘
//!          workers     workers      workers      per-shard pools
//!            └────────────┴────────────┘
//!                    query engine                shared, epoch-swapped
//! ```
//!
//! This module is the thin **supervisor**: it binds the listener, builds
//! the shards ([`crate::shard`]) and the acceptor ([`crate::accept`]),
//! fans shutdown/drain out through one [`ControlPlane`], and merges
//! per-shard counters — both into the final [`ServeReport`] and, via
//! [`StatsHub`], into the `stats` control reply (aggregate plus a
//! `per_shard` breakdown). Each shard owns its connections outright:
//! reads, pipelining, write-buffer caps, slow-reader eviction and drain
//! all happen shard-locally, so the only cross-shard traffic is accept
//! hand-off and stop propagation.
//!
//! Two control queries live above the wire grammar, answered in the
//! shard loops themselves (they describe serving state no worker can
//! see):
//!
//! * `{"query": "stats"}` → aggregate connections, queue depths, epoch,
//!   counters, plus per-shard rows;
//! * `{"query": "shutdown"}` → acknowledged in order on its own
//!   connection, then the **whole server** drains: the control plane
//!   stops the acceptor and every shard, each shard executes and
//!   flushes every request it already accepted (on *every* connection),
//!   and only then does the process exit. A drain deadline bounds how
//!   long a stalled peer can hold the exit hostage. *Accepted* means
//!   assigned a pipeline sequence number: frames still sitting
//!   undecoded past the inflight bound — like request bytes still in
//!   kernel buffers — are past the shutdown's edge and are not
//!   answered; anything looser would make the drain unbounded against
//!   a client that keeps a deep decoder queue.

use crate::accept::{Acceptor, ShardLink};
use crate::obs::ShardObs;
use crate::policy::{DirectIo, IoPolicy, PolicySlot};
use crate::shard::{ShardPublic, ShardSeed, ShardSnapshot, Shared};
use lfp_analysis::json::{parse, JsonBuilder, JsonValue};
use lfp_obs::{Clock, Histogram, MonotonicClock, PromText, SlowLog, Stage};
use lfp_query::{wire, QueryEngine, LANE_SLOTS};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where the serving loop gets the engine for each request. Fetching
/// per request is the contract that makes epoch swaps linearizable:
/// a request decoded after an ingest swap runs on the new engine, one
/// decoded before may run on the old — but never on a mix.
pub trait EngineSource: Send + Sync {
    /// The engine to answer the next request with.
    fn engine(&self) -> Arc<QueryEngine>;
}

impl<F: Fn() -> Arc<QueryEngine> + Send + Sync> EngineSource for F {
    fn engine(&self) -> Arc<QueryEngine> {
        self()
    }
}

/// Tuning knobs for the serving core.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Independent event-loop shards. `1` is the single-loop layout;
    /// `0` sizes from `available_parallelism` (capped at 8). Each shard
    /// gets its own poll set, wake pipe, worker pool, fault lane and
    /// result-cache lane.
    pub loops: usize,
    /// Worker threads executing queries, **per shard**. `0` sizes from
    /// `available_parallelism / loops` (at least 1, capped at 8).
    pub workers: usize,
    /// Hard cap on concurrent connections across all shards; beyond it
    /// the listener is simply not polled, parking further clients in
    /// the accept queue.
    pub max_connections: usize,
    /// Per-frame byte limit for the incremental decoder.
    pub max_frame_bytes: usize,
    /// Unsent-response bytes a connection may buffer before it is
    /// evicted as a stalled reader (accounted on the shard that owns
    /// the connection).
    pub write_buffer_cap: usize,
    /// Requests one connection may have unanswered before the loop
    /// stops reading it (pipelining backpressure).
    pub max_inflight: usize,
    /// How long a graceful shutdown waits for pending responses to
    /// flush before abandoning the stragglers.
    pub drain_timeout: Duration,
    /// Admission-control watermark on a shard's job-queue depth: once
    /// this many requests are waiting for that shard's workers, new data
    /// queries on it are **shed** with the typed `overloaded` wire error
    /// instead of being admitted. Only work that queues builds the depth
    /// — cache misses, and lines for the extension or a typed error. A
    /// resident answer is served on the loop and never queues, so a warm
    /// working set alone never sheds; the check runs before a line is
    /// parsed, so while misses hold the queue at the watermark, every
    /// data line on that shard is shed. `usize::MAX` (the default)
    /// disables shedding.
    pub queue_watermark: usize,
    /// Per-request deadline, measured from pipeline admission to the
    /// start of execution. A request that waited that long is answered
    /// `overloaded` (reason `deadline`) without executing — under
    /// backlog the client has long since retried or given up, and
    /// executing it anyway only starves requests that can still make
    /// it. An answer served on the loop starts at admission, so there
    /// only a zero deadline fires.
    pub request_deadline: Duration,
    /// Retry hint (milliseconds) embedded in `overloaded` responses.
    pub retry_hint_ms: u64,
    /// Entries the top-K-by-latency slow-query log keeps (server-wide,
    /// across shards). 0 disables the log; the `slowlog` control query
    /// then reports an empty ring.
    pub slowlog_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            loops: 1,
            workers: 0,
            max_connections: 1024,
            max_frame_bytes: wire::MAX_FRAME_BYTES,
            write_buffer_cap: 1 << 20,
            max_inflight: 128,
            drain_timeout: Duration::from_secs(5),
            queue_watermark: usize::MAX,
            request_deadline: Duration::from_secs(30),
            retry_hint_ms: 25,
            slowlog_capacity: 64,
        }
    }
}

/// What a serving run did: the supervisor's merge of every shard's
/// report (also the shape each shard reports in).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeReport {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Data requests accepted into pipelines.
    pub queries: u64,
    /// Control requests (stats/shutdown) answered.
    pub control: u64,
    /// Data answers delivered to connections, whether the loop answered
    /// inline or a worker executed them.
    pub completed: u64,
    /// Connections evicted (write-buffer cap or drain deadline).
    pub evicted: u64,
    /// Whether shutdown drained every pending response in time, on
    /// **every** shard.
    pub drained_cleanly: bool,
    /// Event-loop iterations, summed across shards.
    pub iterations: u64,
    /// `read(2)` calls issued on connection sockets.
    pub socket_reads: u64,
    /// Bytes pulled off connection sockets.
    pub bytes_read: u64,
    /// Data queries shed at admission (queue watermark).
    pub shed: u64,
    /// Data requests answered `overloaded` because their deadline
    /// expired before execution started.
    pub deadline_expired: u64,
    /// Faults the I/O policies injected, every shard's plus the
    /// acceptor's (0 under [`DirectIo`]).
    pub injected_faults: u64,
    /// Event-loop shards the server ran.
    pub loops: u64,
    /// Shards that drained every pending response before their
    /// deadline (equals `loops` on a clean exit).
    pub shards_drained: u64,
}

/// Write one wake byte, retrying `EINTR`. A full pipe (`WouldBlock`)
/// means a wake-up is already pending — ignore; any other failure is
/// also ignored (the loop's poll timeout bounds the added latency).
pub(crate) fn nudge_wake_pipe(mut pipe: impl Write) {
    loop {
        match pipe.write(&[1]) {
            Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
            _ => return,
        }
    }
}

/// Drain every pending byte from the wake pipe, retrying `EINTR` —
/// a signal landing mid-drain must not leave stale wake bytes that
/// would turn every later poll into a spurious wakeup. Returns bytes
/// drained (for tests; the loops ignore it).
pub(crate) fn drain_wake_pipe(mut pipe: impl Read) -> u64 {
    let mut sink = [0u8; 64];
    let mut drained = 0u64;
    loop {
        match pipe.read(&mut sink) {
            Ok(0) => return drained,
            Ok(n) => drained += n as u64,
            Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return drained,
        }
    }
}

/// The supervisor's stop-and-wake fabric, shared by the acceptor, every
/// shard, and every [`ServerHandle`]. One stop flag; one wake pipe per
/// party, so a stop request (or a freed accept slot) interrupts any
/// poll wherever it is sleeping.
pub(crate) struct ControlPlane {
    stop: AtomicBool,
    acceptor_wake: UnixStream,
    shard_wakes: Vec<UnixStream>,
}

impl ControlPlane {
    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stop the whole server: flag, then wake everything that might be
    /// asleep in a poll. Idempotent.
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        nudge_wake_pipe(&self.acceptor_wake);
        for wake in &self.shard_wakes {
            nudge_wake_pipe(wake);
        }
    }

    pub(crate) fn wake_shard(&self, shard: usize) {
        nudge_wake_pipe(&self.shard_wakes[shard]);
    }

    pub(crate) fn wake_acceptor(&self) {
        nudge_wake_pipe(&self.acceptor_wake);
    }
}

/// A cloneable remote control for a running server: `shutdown()`
/// triggers the same graceful drain as the wire-level control query,
/// on every shard.
#[derive(Clone)]
pub struct ServerHandle {
    control: Arc<ControlPlane>,
}

impl ServerHandle {
    /// Ask the server to drain and exit.
    pub fn shutdown(&self) {
        self.control.request_stop();
    }
}

/// Answer one already-framed protocol line against an engine: the
/// whole per-request data path, as one owned string. Callers that need
/// the serving core's answer without a socket use it (the repo
/// benchmark's byte-identity oracle, the in-process test servers); the
/// shards run the segmented equivalent — decode
/// once on the loop, then `shard::answer_resident_obs` inline or
/// `shard::answer_request_obs` in a worker — whose rendering is tested
/// identical.
pub fn answer_line(line: &str, engine: &QueryEngine) -> String {
    let value = match parse(line) {
        Ok(value) => value,
        Err(error) => return wire::error_envelope(&format!("invalid JSON: {error}")),
    };
    match wire::decode_value(&value) {
        Ok(query) => {
            // Epoch fencing: a request whose `min_epoch` floor is above
            // the engine actually answering gets the typed refusal —
            // never data from an older epoch.
            if let Some(want) = wire::min_epoch_of(&value) {
                let have = engine.epoch();
                if have < want {
                    return wire::stale_epoch_envelope(have, want);
                }
            }
            match engine.execute(&query) {
                Ok(response) => wire::ok_envelope(&engine.canonical(&query), &response),
                Err(error) => wire::error_envelope(&error),
            }
        }
        Err(error) => wire::error_envelope(&error),
    }
}

/// A pluggable answerer multiplexed onto the framed protocol beside the
/// data path: every line the data grammar rejects (`wire::decode`
/// fails) goes to a worker, which probes the extension, and the
/// extension owns any line it returns `Some` for. The replication
/// control stream (`repl_*` requests, answered against the *store* —
/// state no [`QueryEngine`] can see) rides this seam; a line the
/// extension declines is answered with the decode error. Lines that
/// decode as data queries never reach the extension — the loop answers
/// resident ones before any worker runs — so an extension's grammar
/// must be disjoint from the data grammar (`repl_*` kinds are unknown
/// query kinds to `wire::decode`).
///
/// Implementations run on worker threads: they must be `Send + Sync`
/// and cheap to probe on non-matching lines (prefilter on a substring
/// before parsing, the same discipline as control detection).
pub trait LineExtension: Send + Sync {
    /// Answer the line, or `None` to let the data path have it.
    fn try_answer(&self, line: &str) -> Option<String>;
}

/// The control queries the shard loops answer themselves.
pub(crate) enum Control {
    Stats,
    Metrics,
    Slowlog,
    Shutdown,
}

/// Detect a control line without JSON-parsing the fast path: the cheap
/// substring test rejects virtually every data query, and only
/// candidates pay for a parse that confirms the `query` field exactly.
pub(crate) fn control_of(line: &str) -> Option<Control> {
    // Every control word contains an 's', so one vectorized char scan
    // rejects most data lines before the four substring tests run.
    if !line.contains('s') {
        return None;
    }
    if !line.contains("stats")
        && !line.contains("shutdown")
        && !line.contains("metrics")
        && !line.contains("slowlog")
    {
        return None;
    }
    let value = parse(line).ok()?;
    match value.get("query").and_then(JsonValue::as_str) {
        Some("stats") => Some(Control::Stats),
        Some("metrics") => Some(Control::Metrics),
        Some("slowlog") => Some(Control::Slowlog),
        Some("shutdown") => Some(Control::Shutdown),
        _ => None,
    }
}

/// The wire acknowledgement for `shutdown`.
pub(crate) const SHUTDOWN_ACK: &str = "{\"ok\": true, \"result\": \"shutting down\"}";

/// Extra integer stats the embedding daemon contributes to `stats` and
/// `metrics` renders — counters the serving core cannot see, like
/// `vendor-queryd`'s log-compaction tallies. Probed on every render;
/// implementations should read atomics, never take serving-path locks.
/// Each `(name, value)` lands verbatim as a `stats` field and as an
/// `lfp_<name>` gauge in the exposition.
pub trait StatsSource: Send + Sync {
    /// The current extra fields, in render order.
    fn fields(&self) -> Vec<(String, u64)>;
}

/// The supervisor's `stats` aggregator. Every shard publishes a
/// consistent [`ShardSnapshot`] under its own mutex each iteration;
/// rendering reads each snapshot whole, so no counter in the reply can
/// mix two moments of one shard — the torn-read-free contract the
/// per-shard collection replaced ad-hoc field reads for.
pub(crate) struct StatsHub {
    publics: Vec<Arc<ShardPublic>>,
    accepted: Arc<AtomicU64>,
    total_workers: usize,
    /// Per-shard recording surfaces (same order as `publics`).
    obs: Vec<Arc<ShardObs>>,
    /// The server-wide slow-query log.
    slowlog: Arc<SlowLog>,
    /// The server's clock, for uptime in the exposition.
    clock: Arc<dyn Clock>,
    /// Daemon-contributed extra fields (compaction counters et al).
    extra: Mutex<Option<Arc<dyn StatsSource>>>,
}

impl StatsHub {
    /// Render the `stats` control result: the aggregate over every
    /// shard's latest snapshot, plus a `per_shard` breakdown.
    /// `draining` is the asking shard's own state (folded in with any
    /// sibling already observed draining).
    pub(crate) fn render(&self, epoch: u64, draining: bool) -> String {
        let snapshots: Vec<ShardSnapshot> = self.publics.iter().map(|p| p.read()).collect();
        let sum = |field: fn(&ShardSnapshot) -> u64| -> u64 { snapshots.iter().map(field).sum() };
        let mut json = JsonBuilder::object();
        json.integer("connections", sum(|s| s.connections));
        json.integer("queued_jobs", sum(|s| s.queued_jobs));
        json.integer("inflight", sum(|s| s.inflight));
        json.integer("write_buffered_bytes", sum(|s| s.write_buffered_bytes));
        json.integer("epoch", epoch);
        json.integer("workers", self.total_workers as u64);
        json.integer("loops", self.publics.len() as u64);
        json.raw(
            "draining",
            (draining || snapshots.iter().any(|s| s.draining)).to_string(),
        );
        json.integer("accepted", self.accepted.load(Ordering::Relaxed));
        json.integer("queries", sum(|s| s.queries));
        json.integer("control", sum(|s| s.control));
        json.integer("completed", sum(|s| s.completed));
        json.integer("evicted", sum(|s| s.evicted));
        json.integer("shed", sum(|s| s.shed));
        json.integer("deadline_expired", sum(|s| s.deadline_expired));
        json.integer("injected_faults", sum(|s| s.injected_faults));
        for (name, value) in self.extra_fields() {
            json.integer(&name, value);
        }
        json.raw_array(
            "per_shard",
            snapshots.iter().enumerate().map(|(shard, s)| {
                let mut row = JsonBuilder::object();
                row.integer("shard", shard as u64);
                row.integer("connections", s.connections);
                row.integer("queued_jobs", s.queued_jobs);
                row.integer("inflight", s.inflight);
                row.integer("accepted", s.adopted);
                row.integer("queries", s.queries);
                row.integer("completed", s.completed);
                row.integer("evicted", s.evicted);
                row.integer("shed", s.shed);
                row.integer("injected_faults", s.injected_faults);
                row.integer("iterations", s.iterations);
                row.raw("draining", s.draining.to_string());
                row.integer("uptime_ms", s.uptime_ms);
                row.integer("snapshot_seq", s.snapshot_seq);
                row.finish()
            }),
        );
        json.finish()
    }

    /// Render the `metrics` control result: the full Prometheus text
    /// exposition — counters and gauges from each shard's latest
    /// snapshot, cache counters (global and per lane), and the stage /
    /// request-duration histograms with per-shard series plus a
    /// bucket-exact `shard="all"` merge.
    ///
    /// The reconciliation contract: `lfp_responses_total` and the
    /// `lfp_request_duration_us` histogram are both derived from the
    /// *same* per-shard snapshots, so the bucket counts always sum to
    /// the total — and once traffic quiesces, that total equals the
    /// client-side acknowledged count exactly.
    pub(crate) fn render_metrics(&self, engine: &QueryEngine) -> String {
        let snapshots: Vec<ShardSnapshot> = self.publics.iter().map(|p| p.read()).collect();
        let names: Vec<String> = (0..snapshots.len()).map(|i| i.to_string()).collect();
        let mut out = PromText::new();

        let sharded = |out: &mut PromText,
                       name: &str,
                       kind: &str,
                       help: &str,
                       field: &dyn Fn(&ShardSnapshot) -> u64| {
            out.header(name, kind, help);
            for (i, s) in snapshots.iter().enumerate() {
                out.sample(name, &[("shard", &names[i])], field(s));
            }
            out.sample(name, &[("shard", "all")], snapshots.iter().map(field).sum());
        };

        out.header(
            "lfp_uptime_ms",
            "gauge",
            "Milliseconds since the server started.",
        );
        out.sample(
            "lfp_uptime_ms",
            &[],
            self.clock
                .now_ns()
                .saturating_sub(self.obs.first().map_or(0, |o| o.started_ns))
                / 1_000_000,
        );
        out.header("lfp_epoch", "gauge", "Serving engine epoch.");
        out.sample("lfp_epoch", &[], engine.epoch());
        out.header("lfp_loops", "gauge", "Event-loop shards.");
        out.sample("lfp_loops", &[], snapshots.len() as u64);
        out.header("lfp_workers", "gauge", "Worker threads across shards.");
        out.sample("lfp_workers", &[], self.total_workers as u64);
        out.header("lfp_draining", "gauge", "1 while any shard is draining.");
        out.sample(
            "lfp_draining",
            &[],
            u64::from(snapshots.iter().any(|s| s.draining)),
        );
        out.header(
            "lfp_accepted_total",
            "counter",
            "Connections accepted over the server's lifetime.",
        );
        out.sample(
            "lfp_accepted_total",
            &[],
            self.accepted.load(Ordering::Relaxed),
        );

        sharded(
            &mut out,
            "lfp_connections",
            "gauge",
            "Open connections.",
            &|s| s.connections,
        );
        sharded(
            &mut out,
            "lfp_queued_jobs",
            "gauge",
            "Decoded requests waiting for a worker.",
            &|s| s.queued_jobs,
        );
        sharded(
            &mut out,
            "lfp_inflight",
            "gauge",
            "Requests admitted but not yet flushed.",
            &|s| s.inflight,
        );
        sharded(
            &mut out,
            "lfp_write_buffered_bytes",
            "gauge",
            "Unsent response bytes buffered.",
            &|s| s.write_buffered_bytes,
        );
        sharded(
            &mut out,
            "lfp_queries_total",
            "counter",
            "Data requests admitted into pipelines.",
            &|s| s.queries,
        );
        sharded(
            &mut out,
            "lfp_control_total",
            "counter",
            "Control requests answered.",
            &|s| s.control,
        );
        sharded(
            &mut out,
            "lfp_completed_total",
            "counter",
            "Data answers delivered to connections (inline or from a worker).",
            &|s| s.completed,
        );
        sharded(
            &mut out,
            "lfp_evicted_total",
            "counter",
            "Connections evicted (write cap or drain deadline).",
            &|s| s.evicted,
        );
        sharded(
            &mut out,
            "lfp_shed_total",
            "counter",
            "Data queries shed at admission (queue watermark).",
            &|s| s.shed,
        );
        sharded(
            &mut out,
            "lfp_deadline_expired_total",
            "counter",
            "Data requests answered overloaded past their deadline.",
            &|s| s.deadline_expired,
        );
        sharded(
            &mut out,
            "lfp_injected_faults_total",
            "counter",
            "Faults the I/O policies injected (chaos runs).",
            &|s| s.injected_faults,
        );
        sharded(
            &mut out,
            "lfp_iterations_total",
            "counter",
            "Event-loop iterations.",
            &|s| s.iterations,
        );
        sharded(
            &mut out,
            "lfp_snapshot_seq",
            "counter",
            "Monotone shard snapshot publications.",
            &|s| s.snapshot_seq,
        );

        // ---- the observability plane proper -----------------------
        let requests: Vec<Histogram> = self.obs.iter().map(|o| o.request_snapshot()).collect();
        let mut all_requests = Histogram::new();
        for hist in &requests {
            all_requests.merge(hist);
        }
        out.header(
            "lfp_responses_total",
            "counter",
            "Successful data responses whose last byte was written.",
        );
        for (i, hist) in requests.iter().enumerate() {
            out.sample("lfp_responses_total", &[("shard", &names[i])], hist.count());
        }
        out.sample(
            "lfp_responses_total",
            &[("shard", "all")],
            all_requests.count(),
        );
        out.header(
            "lfp_responses_dropped_total",
            "counter",
            "Data responses whose connection died before the flush.",
        );
        let mut dropped_all = 0u64;
        for (i, obs) in self.obs.iter().enumerate() {
            let dropped = obs.dropped.load(Ordering::Relaxed);
            dropped_all += dropped;
            out.sample(
                "lfp_responses_dropped_total",
                &[("shard", &names[i])],
                dropped,
            );
        }
        out.sample(
            "lfp_responses_dropped_total",
            &[("shard", "all")],
            dropped_all,
        );
        out.header(
            "lfp_request_duration_us",
            "histogram",
            "Accept-to-flush latency of successful data responses (microseconds).",
        );
        for (i, hist) in requests.iter().enumerate() {
            out.histogram("lfp_request_duration_us", &[("shard", &names[i])], hist);
        }
        out.histogram(
            "lfp_request_duration_us",
            &[("shard", "all")],
            &all_requests,
        );
        out.header(
            "lfp_stage_duration_us",
            "histogram",
            "Per-stage latency of successful data responses (microseconds).",
        );
        for stage in Stage::ALL {
            let mut all = Histogram::new();
            for (i, obs) in self.obs.iter().enumerate() {
                let hist = obs.stage_snapshot(stage, requests[i].count());
                out.histogram(
                    "lfp_stage_duration_us",
                    &[("stage", stage.name()), ("shard", &names[i])],
                    &hist,
                );
                all.merge(&hist);
            }
            out.histogram(
                "lfp_stage_duration_us",
                &[("stage", stage.name()), ("shard", "all")],
                &all,
            );
        }

        // ---- result cache -----------------------------------------
        let cache = engine.cache_stats();
        let handle = engine.cache_handle();
        let lanes: Vec<(String, lfp_query::LaneStats)> = (0..snapshots.len().min(LANE_SLOTS))
            .map(|lane| (lane.to_string(), handle.lane_stats(lane as u64)))
            .collect();
        let lane_metric = |out: &mut PromText,
                           name: &str,
                           help: &str,
                           total: u64,
                           field: &dyn Fn(&lfp_query::LaneStats) -> u64| {
            out.header(name, "counter", help);
            for (label, stats) in &lanes {
                out.sample(name, &[("lane", label)], field(stats));
            }
            out.sample(name, &[("lane", "all")], total);
        };
        lane_metric(
            &mut out,
            "lfp_cache_hits_total",
            "Result-cache hits.",
            cache.hits,
            &|l| l.hits,
        );
        lane_metric(
            &mut out,
            "lfp_cache_misses_total",
            "Result-cache misses.",
            cache.misses,
            &|l| l.misses,
        );
        lane_metric(
            &mut out,
            "lfp_cache_evictions_total",
            "Result-cache LRU evictions.",
            cache.evictions,
            &|l| l.evictions,
        );
        out.header(
            "lfp_cache_entries",
            "gauge",
            "Results resident in the cache.",
        );
        out.sample("lfp_cache_entries", &[], cache.entries as u64);

        // ---- daemon-contributed extras ----------------------------
        for (name, value) in self.extra_fields() {
            let metric = format!("lfp_{name}");
            out.header(&metric, "gauge", "Daemon-contributed stat.");
            out.sample(&metric, &[], value);
        }

        out.into_string()
    }

    /// Snapshot the daemon-contributed fields (empty when no
    /// [`StatsSource`] is installed).
    fn extra_fields(&self) -> Vec<(String, u64)> {
        let source = self.extra.lock().expect("stats source lock poisoned");
        source
            .as_ref()
            .map(|source| source.fields())
            .unwrap_or_default()
    }

    /// Render the `slowlog` control result: the top-K-by-latency ring,
    /// slowest first, as a JSON document (durations in microseconds;
    /// `query` is the canonical query object, `stages` the per-stage
    /// breakdown keyed by stage name).
    pub(crate) fn render_slowlog(&self) -> String {
        let mut json = JsonBuilder::object();
        json.integer("capacity", self.slowlog.capacity() as u64);
        json.raw_array(
            "entries",
            self.slowlog.entries().into_iter().map(|entry| {
                let mut row = JsonBuilder::object();
                row.integer("total_us", entry.total_ns / 1_000);
                row.integer("end_ms", entry.end_ns / 1_000_000);
                row.integer("shard", entry.shard);
                row.integer("epoch", entry.epoch);
                row.raw("cached", entry.cached.to_string());
                let mut stages = JsonBuilder::object();
                for stage in Stage::ALL {
                    stages.integer(stage.name(), entry.stages[stage.index()] / 1_000);
                }
                row.raw("stages", stages.finish());
                row.string("explain", &entry.explain);
                let query = if entry.canonical.is_empty() {
                    "null".to_string()
                } else {
                    entry.canonical
                };
                row.raw("query", query);
                row.finish()
            }),
        );
        json.finish()
    }
}

/// A public handle onto the server's observability plane, detachable
/// before [`Server::run`] consumes the server — `vendor-queryd` uses it
/// to dump a final exposition after the serving loop exits.
#[derive(Clone)]
pub struct ObsHandle {
    hub: Arc<StatsHub>,
}

impl ObsHandle {
    /// Render the Prometheus text exposition right now.
    pub fn metrics(&self, engine: &QueryEngine) -> String {
        self.hub.render_metrics(engine)
    }

    /// Render the slow-query log as JSON right now.
    pub fn slowlog_json(&self) -> String {
        self.hub.render_slowlog()
    }
}

/// A readiness-driven query server bound to a TCP address: one
/// acceptor, `loops` shard event loops, a worker pool per shard.
pub struct Server {
    local: SocketAddr,
    config: ServeConfig,
    control: Arc<ControlPlane>,
    shards: Vec<ShardSeed>,
    acceptor: Acceptor,
    accepted: Arc<AtomicU64>,
    workers_per_shard: usize,
    hub: Arc<StatsHub>,
}

impl Server {
    /// Bind the listener (nonblocking) and set up the shard and worker
    /// plumbing, serving through the production passthrough I/O policy
    /// everywhere. Port 0 binds an ephemeral port — read it back via
    /// [`local_addr`](Server::local_addr).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: ServeConfig,
        source: Arc<dyn EngineSource>,
    ) -> io::Result<Server> {
        Server::bind_with_policy_factory(addr, config, source, |_| Box::new(DirectIo))
    }

    /// [`bind`](Server::bind), but with an explicit I/O policy for
    /// **every party that touches a socket**: `factory(slot)` is called
    /// once for [`PolicySlot::Acceptor`] and once for each of the
    /// resolved loops' [`PolicySlot::Shard`]s, and each party owns the
    /// policy it was handed — nothing is shared, so no lock is ever
    /// held across a syscall. This is the chaos entry point — pair it
    /// with [`FaultPlan::for_slot`](crate::policy::FaultPlan::for_slot)
    /// so every slot runs an independent, replayable fault schedule.
    pub fn bind_with_policy_factory<A: ToSocketAddrs, F>(
        addr: A,
        mut config: ServeConfig,
        source: Arc<dyn EngineSource>,
        mut factory: F,
    ) -> io::Result<Server>
    where
        F: FnMut(PolicySlot) -> Box<dyn IoPolicy>,
    {
        let loops = resolve_loops(&config);
        config.loops = loops;
        let workers_per_shard = resolve_workers(&config, loops);

        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;

        let (acceptor_rx, acceptor_tx) = UnixStream::pair()?;
        acceptor_rx.set_nonblocking(true)?;
        acceptor_tx.set_nonblocking(true)?;
        let mut shard_wakes = Vec::with_capacity(loops);
        let mut shard_rxs = Vec::with_capacity(loops);
        let mut shard_txs = Vec::with_capacity(loops);
        for _ in 0..loops {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            shard_wakes.push(tx.try_clone()?);
            shard_rxs.push(rx);
            shard_txs.push(tx);
        }
        let control = Arc::new(ControlPlane {
            stop: AtomicBool::new(false),
            acceptor_wake: acceptor_tx,
            shard_wakes,
        });

        let conn_gauge = Arc::new(AtomicUsize::new(0));
        let accepted = Arc::new(AtomicU64::new(0));
        let publics: Vec<Arc<ShardPublic>> = (0..loops)
            .map(|_| Arc::new(ShardPublic::default()))
            .collect();
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let started_ns = clock.now_ns();
        let slowlog = Arc::new(SlowLog::new(config.slowlog_capacity));
        let obs: Vec<Arc<ShardObs>> = (0..loops)
            .map(|_| Arc::new(ShardObs::new(started_ns)))
            .collect();
        let hub = Arc::new(StatsHub {
            publics: publics.clone(),
            accepted: Arc::clone(&accepted),
            total_workers: workers_per_shard * loops,
            obs: obs.clone(),
            slowlog: Arc::clone(&slowlog),
            clock: Arc::clone(&clock),
            extra: Mutex::new(None),
        });
        let inboxes: Vec<Arc<Mutex<VecDeque<TcpStream>>>> = (0..loops)
            .map(|_| Arc::new(Mutex::new(VecDeque::new())))
            .collect();

        let mut shards = Vec::with_capacity(loops);
        for id in 0..loops {
            shards.push(ShardSeed {
                id,
                config: config.clone(),
                source: Arc::clone(&source),
                shared: Arc::new(Shared::new(shard_txs.remove(0))),
                wake_rx: shard_rxs.remove(0),
                inbox: Arc::clone(&inboxes[id]),
                public: Arc::clone(&publics[id]),
                control: Arc::clone(&control),
                hub: Arc::clone(&hub),
                conn_gauge: Arc::clone(&conn_gauge),
                policy: factory(PolicySlot::Shard(id)),
                workers: workers_per_shard,
                clock: Arc::clone(&clock),
                obs: Arc::clone(&obs[id]),
                slowlog: Arc::clone(&slowlog),
                extension: None,
            });
        }

        let acceptor = Acceptor {
            listener,
            wake_rx: acceptor_rx,
            control: Arc::clone(&control),
            links: inboxes
                .iter()
                .map(|inbox| ShardLink {
                    inbox: Arc::clone(inbox),
                })
                .collect(),
            conn_gauge,
            max_connections: config.max_connections,
            accepted: Arc::clone(&accepted),
            policy: factory(PolicySlot::Acceptor),
        };

        Ok(Server {
            local,
            config,
            control,
            shards,
            acceptor,
            accepted,
            workers_per_shard,
            hub,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// A handle that can shut the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            control: Arc::clone(&self.control),
        }
    }

    /// Install a [`LineExtension`] on every shard's worker pool. Call
    /// before [`run`](Server::run); the extension is probed for every
    /// line the data grammar rejects, on every shard.
    pub fn set_line_extension(&mut self, extension: Arc<dyn LineExtension>) {
        for shard in &mut self.shards {
            shard.extension = Some(Arc::clone(&extension));
        }
    }

    /// Install a [`StatsSource`] whose fields are appended to every
    /// `stats` reply and exposed as gauges in `metrics`. Call before
    /// [`run`](Server::run).
    pub fn set_stats_source(&self, source: Arc<dyn StatsSource>) {
        *self.hub.extra.lock().expect("stats source lock poisoned") = Some(source);
    }

    /// A handle onto the observability plane (metrics exposition and
    /// the slow-query log) that outlives [`run`](Server::run).
    pub fn obs_handle(&self) -> ObsHandle {
        ObsHandle {
            hub: Arc::clone(&self.hub),
        }
    }

    /// Resolved event-loop shard count.
    pub fn loop_count(&self) -> usize {
        self.config.loops
    }

    /// Resolved worker count across every shard.
    pub fn worker_count(&self) -> usize {
        self.workers_per_shard * self.config.loops
    }

    /// Run the server until a `shutdown` control query (or a
    /// [`ServerHandle::shutdown`]) drains it: spawn one thread per
    /// shard, run the acceptor on the calling thread, then join the
    /// shards and merge their reports. Blocks until every shard (and
    /// every worker) has exited.
    pub fn run(self) -> ServeReport {
        let loops = self.config.loops;
        let mut threads = Vec::with_capacity(loops);
        for seed in self.shards {
            let id = seed.id;
            let thread = std::thread::Builder::new()
                .name(format!("lfp-shard-{id}"))
                .spawn(move || seed.run())
                .expect("spawn shard thread");
            threads.push(thread);
        }

        let acceptor_faults = self.acceptor.run();

        let mut merged = ServeReport {
            drained_cleanly: true,
            loops: loops as u64,
            injected_faults: acceptor_faults,
            ..ServeReport::default()
        };
        for thread in threads {
            match thread.join() {
                Ok(report) => {
                    merged.queries += report.queries;
                    merged.control += report.control;
                    merged.completed += report.completed;
                    merged.evicted += report.evicted;
                    merged.iterations += report.iterations;
                    merged.socket_reads += report.socket_reads;
                    merged.bytes_read += report.bytes_read;
                    merged.shed += report.shed;
                    merged.deadline_expired += report.deadline_expired;
                    merged.injected_faults += report.injected_faults;
                    merged.shards_drained += report.shards_drained;
                    merged.drained_cleanly &= report.drained_cleanly;
                }
                Err(_) => merged.drained_cleanly = false,
            }
        }
        merged.accepted = self.accepted.load(Ordering::Relaxed);
        merged
    }
}

/// Resolve `config.loops`: explicit when nonzero, else the machine's
/// parallelism capped at 8.
fn resolve_loops(config: &ServeConfig) -> usize {
    if config.loops > 0 {
        config.loops
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    }
}

/// Resolve the per-shard worker count: explicit when nonzero, else the
/// machine's parallelism split across the shards (at least 1 each,
/// capped at 8).
fn resolve_workers(config: &ServeConfig, loops: usize) -> usize {
    if config.workers > 0 {
        config.workers
    } else {
        (std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            / loops.max(1))
        .clamp(1, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pipe end that fails with a scripted error kind before every
    /// real byte — the signal-storm adversary for the self-pipe paths.
    struct Flaky<T> {
        inner: T,
        /// Error kinds to inject, one per call, before passing through.
        script: Vec<io::ErrorKind>,
    }

    impl<T> Flaky<T> {
        fn new(inner: T, script: Vec<io::ErrorKind>) -> Flaky<T> {
            Flaky { inner, script }
        }
    }

    impl<T: Read> Read for Flaky<T> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.script.pop() {
                Some(kind) => Err(io::Error::from(kind)),
                None => self.inner.read(buf),
            }
        }
    }

    impl<T: Write> Write for Flaky<T> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.script.pop() {
                Some(kind) => Err(io::Error::from(kind)),
                None => self.inner.write(buf),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn drain_wake_pipe_retries_interrupted() {
        let (tx, rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        (&tx).write_all(&[1, 1, 1]).unwrap();
        // Three EINTRs land before the bytes; every byte must still be
        // drained, or the next poll spins on a stale wake.
        let flaky = Flaky::new(&rx, vec![io::ErrorKind::Interrupted; 3]);
        assert_eq!(drain_wake_pipe(flaky), 3);
        // Pipe is now empty: the nonblocking read reports WouldBlock,
        // which ends the drain without error.
        assert_eq!(drain_wake_pipe(&rx), 0);
    }

    #[test]
    fn nudge_wake_pipe_retries_interrupted() {
        let (tx, rx) = UnixStream::pair().unwrap();
        tx.set_nonblocking(true).unwrap();
        rx.set_nonblocking(true).unwrap();
        let flaky = Flaky::new(&tx, vec![io::ErrorKind::Interrupted; 5]);
        nudge_wake_pipe(flaky);
        let mut byte = [0u8; 4];
        let got = (&rx).read(&mut byte).unwrap();
        assert_eq!(got, 1, "the wake byte must survive an EINTR storm");
    }

    #[test]
    fn nudge_wake_pipe_tolerates_full_pipe() {
        let (tx, rx) = UnixStream::pair().unwrap();
        tx.set_nonblocking(true).unwrap();
        // Stuff the pipe until the kernel refuses; the nudge must not
        // loop forever or panic — a pending wake-up is already enough.
        while (&tx).write(&[1u8; 4096]).is_ok() {}
        nudge_wake_pipe(&tx);
        drop(rx);
    }
}
