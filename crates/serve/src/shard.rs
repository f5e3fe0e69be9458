//! One serving shard: an independent event loop with its own poll set,
//! wake pipe, worker pool, fault lane and cache lane.
//!
//! A shard owns every connection the acceptor hands it for life — the
//! connection's decoder, pipeline sequencing, write-buffer cap
//! accounting and slow-reader eviction all live on the shard, so no
//! cross-shard lock ever sits on the per-request path. Shards share
//! exactly three things: the engine source (immutable per epoch), the
//! result cache (sharded internally, addressed through a per-shard
//! lane), and the supervisor's control plane (a stop flag plus wake
//! pipes). Everything else — job queue, worker pool, I/O policy,
//! counters — is private, which is what lets N shards saturate N cores
//! without a shared hot lock.
//!
//! The loop decodes every data line itself and answers whatever is
//! already **resident** on the spot: a cache hit on the shard's lane, a
//! `min_epoch` fence refusal, an expired deadline. It fetches the engine
//! first, then reads the line in one pass (`wire::decode_to_key`)
//! straight into the epoch-tagged cache key, a buffer the shard reuses
//! across requests; the probe borrows that key, so a hit builds neither
//! a JSON tree nor a second canonical string. A line the single pass
//! leaves undecided — an escape, an odd number spelling, anything the
//! grammar rejects — goes through the tree decoder, which words every
//! error exactly as `answer_line` does. For a resident answer the
//! hand-off to a worker and back would cost more than the answer, so it
//! never takes one. The worker pool gets only
//! work that can be slow: cache misses (plan, fold, render) and the
//! lines the data grammar rejects (the line extension's `repl_*`
//! stream, typed parse and decode errors). Mixed pipelines stay in
//! order because every reply, inline or pooled, lands in the
//! connection's sequence-keyed reassembly.
//!
//! The split against the old monolith is mechanical: this module is the
//! former `server.rs` event loop minus the listener (connections arrive
//! pre-accepted through an **inbox**, a mutexed queue the acceptor
//! pushes into and nudges the shard's wake pipe about), plus a
//! [`ShardPublic`] snapshot the shard republishes every iteration so
//! the supervisor can aggregate `stats` without torn reads (each
//! shard's contribution is written and read under its own mutex as one
//! consistent unit).

use crate::conn::{CloseReason, Conn, Payload};
use crate::obs::{ReqTrace, ShardObs};
use crate::policy::IoPolicy;
use crate::server::{
    control_of, drain_wake_pipe, nudge_wake_pipe, Control, ControlPlane, EngineSource,
    LineExtension, ServeConfig, ServeReport, StatsHub, SHUTDOWN_ACK,
};
use crate::sys::{PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use lfp_analysis::json::{escape, parse};
use lfp_obs::{Clock, SlowLog, Stage};
use lfp_query::{wire, CacheKey, ExecObs, Query, QueryEngine, Response};
use std::collections::{BTreeMap, VecDeque};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One request the loop could not answer itself, travelling to the
/// shard's worker pool.
pub(crate) struct Job {
    conn: u64,
    seq: u64,
    work: Work,
    /// Clock reading at admission — what the request's deadline is
    /// measured from.
    accepted_ns: u64,
    /// The request's span trace, begun at byte arrival.
    trace: Box<ReqTrace>,
}

/// What a queued job asks of a worker.
enum Work {
    /// A decoded data query whose answer was not resident when the loop
    /// probed the cache.
    Query(Request),
    /// A line the data grammar rejected, with the rejection. The line
    /// extension gets first refusal (the replication stream arrives
    /// this way); a line it declines is answered with the typed error.
    Line { line: String, error: String },
}

/// One data line, decoded once on the loop: the query, its `min_epoch`
/// fencing floor, and — once the loop's cache probe missed — the key it
/// probed under, so the worker need not canonicalise again.
struct Request {
    query: Query,
    min_epoch: Option<u64>,
    key: Option<CacheKey>,
}

impl Request {
    /// Decode one protocol line and write its cache key at `key.epoch`
    /// into `key.text`. The single pass ([`wire::decode_to_key`]) decides
    /// almost every line; a line it leaves undecided is parsed and
    /// decoded through the tree, so the error is the message of the
    /// failure envelope, worded exactly as [`answer_line`]'s.
    ///
    /// [`answer_line`]: crate::server::answer_line
    fn decode(line: &str, key: &mut CacheKey) -> Result<Request, String> {
        if let Some(decoded) = wire::decode_to_key(line, key.epoch, &mut key.text) {
            return Ok(Request {
                query: decoded.query,
                min_epoch: decoded.min_epoch,
                key: None,
            });
        }
        let value = parse(line).map_err(|error| format!("invalid JSON: {error}"))?;
        let query = wire::decode_value(&value)?;
        key.text.clear();
        query.write_canonical(Some(key.epoch), &mut key.text);
        Ok(Request {
            query,
            min_epoch: wire::min_epoch_of(&value),
            key: None,
        })
    }

    /// Epoch fencing, identical to `answer_line`: a `min_epoch` floor
    /// above `engine`'s epoch gets the typed refusal.
    fn fenced_off(&self, engine: &QueryEngine) -> Option<Payload> {
        let want = self.min_epoch?;
        let have = engine.epoch();
        (have < want).then(|| Payload::Owned(wire::stale_epoch_envelope(have, want)))
    }
}

/// The request-deadline check, the same on the loop and in the workers:
/// a request that waited `deadline` or longer between admission and the
/// start of its execution is answered `overloaded` without executing.
fn past_deadline(accepted_ns: u64, started_ns: u64, deadline: Duration) -> bool {
    u128::from(started_ns.saturating_sub(accepted_ns)) >= deadline.as_nanos()
}

/// One executed response travelling back.
pub(crate) struct Completion {
    conn: u64,
    seq: u64,
    payload: Payload,
    /// The request's trace, riding to the flush of the last byte.
    trace: Box<ReqTrace>,
}

pub(crate) struct JobState {
    queue: VecDeque<Job>,
    stop: bool,
}

/// State shared between one shard's loop and its workers.
pub(crate) struct Shared {
    jobs: Mutex<JobState>,
    jobs_ready: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Writer half of the shard's self-pipe; any thread may nudge the
    /// loop.
    wake_tx: UnixStream,
    pub(crate) queries: AtomicU64,
    pub(crate) control: AtomicU64,
    pub(crate) completed: AtomicU64,
    /// Jobs sitting in the queue right now (admission-control gauge:
    /// incremented at push, decremented at claim). The loop sheds
    /// against this plus its own not-yet-pushed batch, so the
    /// watermark holds even though workers drain concurrently.
    queued: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) deadline_expired: AtomicU64,
}

impl Shared {
    pub(crate) fn new(wake_tx: UnixStream) -> Shared {
        Shared {
            jobs: Mutex::new(JobState {
                queue: VecDeque::new(),
                stop: false,
            }),
            jobs_ready: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            wake_tx,
            queries: AtomicU64::new(0),
            control: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
        }
    }

    fn wake(&self) {
        nudge_wake_pipe(&self.wake_tx);
    }
}

/// A consistent, whole-iteration view of one shard, published under one
/// mutex so a `stats` aggregation can never observe half an update —
/// the torn-read-free contract the supervisor's [`StatsHub`] builds on.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardSnapshot {
    pub connections: u64,
    pub queued_jobs: u64,
    pub inflight: u64,
    pub write_buffered_bytes: u64,
    pub adopted: u64,
    pub queries: u64,
    pub control: u64,
    pub completed: u64,
    pub evicted: u64,
    pub shed: u64,
    pub deadline_expired: u64,
    pub injected_faults: u64,
    pub iterations: u64,
    pub draining: bool,
    /// Milliseconds since the server started (satellite of the
    /// observability plane: every `per_shard` stats row carries it).
    pub uptime_ms: u64,
    /// Monotone publication counter: strictly increases across
    /// publishes, so a reader can tell two snapshots apart even when
    /// every other field is unchanged.
    pub snapshot_seq: u64,
}

/// The shard's outward face: the supervisor (and any shard answering a
/// `stats` query) reads the latest snapshot from here.
#[derive(Default)]
pub(crate) struct ShardPublic {
    snapshot: Mutex<ShardSnapshot>,
}

impl ShardPublic {
    pub(crate) fn publish(&self, snapshot: ShardSnapshot) {
        *self.snapshot.lock().expect("shard snapshot poisoned") = snapshot;
    }

    pub(crate) fn read(&self) -> ShardSnapshot {
        *self.snapshot.lock().expect("shard snapshot poisoned")
    }
}

/// Drain state for a shard loop. Entering drain is **idempotent**: the
/// deadline is armed exactly once, by whichever trigger fires first
/// (wire `shutdown`, [`ServerHandle`], a poll failure), and re-entry —
/// which chaos schedules provoke by racing triggers — can never push it
/// back.
///
/// [`ServerHandle`]: crate::server::ServerHandle
#[derive(Debug, Default)]
pub(crate) struct Drain {
    pub(crate) deadline: Option<Instant>,
}

impl Drain {
    /// Whether the loop is draining.
    pub(crate) fn active(&self) -> bool {
        self.deadline.is_some()
    }

    /// Enter drain, arming the deadline only if it is not already set.
    pub(crate) fn begin(&mut self, timeout: Duration) {
        if self.deadline.is_none() {
            self.deadline = Some(Instant::now() + timeout);
        }
    }

    /// Whether the armed deadline has passed (never true before
    /// [`begin`](Drain::begin)).
    pub(crate) fn expired(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// Execute one decoded request as a segmented [`Payload`] — the worker's
/// half of the data path. The fence is checked against `engine`, the
/// engine the worker fetched for this request, and execution goes
/// through [`QueryEngine::execute_lane_obs`], which probes the cache
/// once more before planning — under the loop probe's key when `engine`
/// serves the epoch it was built at, else under a fresh one, so an
/// epoch swap in between never tags the reply or the cache entry with
/// the old epoch. Successful answers keep the
/// cache-resident result bytes shared (flushed later with one gathered
/// write); failures render owned. [`Request::decode`] followed by this
/// is byte-for-byte `answer_line` plus newline framing: the head/tail
/// split is property-tested in `lfp_query::wire`, and the whole
/// rendering is re-checked against `answer_line` below.
///
/// `rt` receives the canonical query (the key execution already built —
/// one canonical string per request), the cache/plan/render sub-stage
/// durations, the planner explain trace and the success flag; the
/// observed path is byte-identical to the unobserved one (tested in
/// `lfp_query::engine`).
fn answer_request_obs(
    request: Request,
    engine: &QueryEngine,
    lane: u64,
    clock: &dyn Clock,
    rt: &mut ReqTrace,
) -> Payload {
    if let Some(refusal) = request.fenced_off(engine) {
        return refusal;
    }
    match engine.execute_lane_obs(&request.query, request.key, lane, clock) {
        Ok((response, obs)) => rendered(response, obs, rt),
        Err(error) => Payload::Owned(wire::error_envelope(&error)),
    }
}

/// The loop's half of the data path: answer a decoded request if that
/// takes no execution — the fence refusal, or the result already
/// resident on `lane` under `key`, the key [`Request::decode`] wrote —
/// and hand a miss back with a copy of that key, for the worker it must
/// go to. The rendering and the trace are exactly
/// [`answer_request_obs`]'s for the same outcome.
fn answer_resident_obs(
    mut request: Request,
    engine: &QueryEngine,
    key: &CacheKey,
    lane: u64,
    clock: &dyn Clock,
    rt: &mut ReqTrace,
) -> Result<Payload, Request> {
    if let Some(refusal) = request.fenced_off(engine) {
        return Ok(refusal);
    }
    match engine.resident_lane_obs(key, lane, clock) {
        Ok((response, obs)) => Ok(rendered(response, obs, rt)),
        Err(key) => {
            request.key = Some(key);
            Err(request)
        }
    }
}

/// The success envelope around a shared result body, with the outcome
/// recorded into `rt`.
fn rendered(response: Response, obs: ExecObs, rt: &mut ReqTrace) -> Payload {
    rt.cached = response.cached;
    rt.explain = obs.explain;
    rt.ok = true;
    rt.trace.add(Stage::CacheLookup, obs.cache_ns);
    rt.trace.add(Stage::Plan, obs.plan_ns);
    rt.trace.add(Stage::Render, obs.render_ns);
    let head = wire::ok_envelope_head(&obs.key, response.cached);
    rt.canonical = obs.key;
    Payload::Rendered {
        head,
        body: response.payload,
    }
}

/// Everything one shard thread needs, bundled at bind time and moved
/// into the thread at run time.
pub(crate) struct ShardSeed {
    pub id: usize,
    pub config: ServeConfig,
    pub source: Arc<dyn EngineSource>,
    pub shared: Arc<Shared>,
    pub wake_rx: UnixStream,
    pub inbox: Arc<Mutex<VecDeque<TcpStream>>>,
    pub public: Arc<ShardPublic>,
    pub control: Arc<ControlPlane>,
    pub hub: Arc<StatsHub>,
    pub conn_gauge: Arc<AtomicUsize>,
    pub policy: Box<dyn IoPolicy>,
    /// Worker threads this shard spawns (already resolved per shard).
    pub workers: usize,
    /// The server's clock (production monotonic; a seam for tests).
    pub clock: Arc<dyn Clock>,
    /// This shard's lock-free recording surface.
    pub obs: Arc<ShardObs>,
    /// The server-wide top-K slow-query log.
    pub slowlog: Arc<SlowLog>,
    /// Optional line extension the workers probe ahead of the data
    /// path (the replication control stream rides here).
    pub extension: Option<Arc<dyn LineExtension>>,
}

impl ShardSeed {
    /// Run the shard to completion: spawn this shard's workers, drive
    /// the event loop until the control plane stops it and the drain
    /// finishes, join the workers, and return the shard's report.
    pub(crate) fn run(mut self) -> ServeReport {
        let mut policy = std::mem::replace(&mut self.policy, Box::new(crate::policy::DirectIo));
        let workers = self.workers;
        let deadline = self.config.request_deadline;
        let retry_hint = self.config.retry_hint_ms;
        let lane = self.id as u64;
        let mut pool = Vec::with_capacity(workers);
        for index in 0..workers {
            let shared = Arc::clone(&self.shared);
            let source = Arc::clone(&self.source);
            let clock = Arc::clone(&self.clock);
            let extension = self.extension.clone();
            let thread = std::thread::Builder::new()
                .name(format!("lfp-serve-{}-{index}", self.id))
                .spawn(move || {
                    worker_loop(shared, source, deadline, retry_hint, lane, clock, extension)
                })
                .expect("spawn worker thread");
            pool.push(thread);
        }

        let report = self.event_loop(policy.as_mut());

        {
            let mut jobs = self.shared.jobs.lock().expect("jobs lock");
            jobs.stop = true;
        }
        self.shared.jobs_ready.notify_all();
        for thread in pool {
            let _ = thread.join();
        }
        report
    }

    fn event_loop(&mut self, policy: &mut dyn IoPolicy) -> ServeReport {
        let config = self.config.clone();
        let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
        let mut next_id = 0u64;
        let mut report = ServeReport::default();
        let mut drain = Drain::default();
        let mut fds: Vec<PollFd> = Vec::new();
        let mut order: Vec<u64> = Vec::new();
        // Scratch for draining flushed traces; its capacity is recycled
        // across connections and iterations.
        let mut flushed_scratch: Vec<Box<ReqTrace>> = Vec::new();
        // The cache key each data line decodes into, reused likewise.
        let mut key = CacheKey {
            epoch: 0,
            text: String::new(),
        };

        loop {
            report.iterations += 1;
            if self.control.stopped() {
                drain.begin(config.drain_timeout);
            }
            let draining = drain.active();

            // ---- interest set -------------------------------------
            fds.clear();
            order.clear();
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            for (&id, conn) in &conns {
                let mut events = 0i16;
                if !draining && conn.wants_read(config.max_inflight) {
                    events |= POLLIN;
                }
                if conn.wants_write() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(conn.fd(), events));
                order.push(id);
            }

            // A touched connection has work queued that no poll event
            // will re-announce (resumed pumping, fresh completions):
            // don't sleep on it. Nor on a drain with nothing left to
            // flush: the exit check below ends it this iteration.
            let timeout = if draining && conns.values().all(Conn::drained) {
                0
            } else if draining {
                20
            } else if conns.values().any(|conn| conn.touched) {
                0
            } else {
                200
            };
            if let Err(error) = policy.poll(&mut fds, timeout) {
                // EBADF and friends mean loop state is corrupt; there
                // is no sane recovery beyond draining out.
                eprintln!("lfp-serve[shard {}]: poll failed: {error}", self.id);
                drain.begin(config.drain_timeout);
            }

            // ---- wake pipe ----------------------------------------
            if fds[0].readable() {
                drain_wake_pipe(&self.wake_rx);
            }
            // A poll failure above may have begun draining; everything
            // from here on must observe it this same iteration.
            let draining = draining || drain.active();

            // One clock read serves this iteration's arrival stamps
            // (adoption and socket reads below).
            let now_ns = self.clock.now_ns();

            // ---- adopt connections from the acceptor --------------
            // Adopted connections enter `touched`, so the zero-timeout
            // re-poll processes their first bytes next iteration —
            // exactly the latency the old in-loop accept had.
            {
                let mut inbox = self.inbox.lock().expect("shard inbox poisoned");
                while let Some(stream) = inbox.pop_front() {
                    report.accepted += 1;
                    let id = next_id;
                    next_id += 1;
                    conns.insert(id, Conn::new(stream, config.max_frame_bytes, now_ns));
                }
            }

            // ---- completions from the pool ------------------------
            let completions =
                std::mem::take(&mut *self.shared.completions.lock().expect("completions lock"));
            for completion in completions {
                // A completion for an already-closed connection is
                // dropped on the floor — its client is gone (but the
                // ledger remembers the executed response).
                if let Some(conn) = conns.get_mut(&completion.conn) {
                    conn.complete_traced(
                        completion.seq,
                        completion.payload,
                        Some(completion.trace),
                    );
                    conn.touched = true;
                    self.shared.completed.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.obs.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }

            // ---- connection work ----------------------------------
            // Only connections with poll events or off-poll activity
            // (`touched`) are processed, so one iteration costs
            // O(active), not O(connections) — the property that keeps
            // throughput flat as idle connections pile up.
            let mut shutdown_requested = false;
            let mut closed: Vec<(u64, CloseReason)> = Vec::new();
            let mut new_jobs: Vec<Job> = Vec::new();
            let mut reserved = ControlRequests::default();
            let mut active: Vec<u64> = Vec::new();

            // Pass 1: read fresh bytes and pump decoded frames into
            // jobs / control responses.
            for (position, &id) in order.iter().enumerate() {
                let readiness = fds[position + 1];
                let conn = conns.get_mut(&id).expect("registered conn exists");
                if !readiness.readable() && !readiness.writable() && !conn.touched {
                    continue;
                }
                conn.touched = false;
                active.push(id);
                // An error/hangup state is reported by poll even when
                // POLLIN wasn't requested; read through the inflight
                // gate in that case, else the dead socket re-arms poll
                // forever while nothing collects its EOF (busy-spin).
                let broken = readiness.revents() & (POLLERR | POLLHUP | POLLNVAL) != 0;
                let may_read = !conn.read_closed
                    && !conn.fatal
                    && (conn.wants_read(config.max_inflight) || broken);
                if !draining && readiness.readable() && may_read {
                    let (calls, bytes) = conn.read_some(id, policy, now_ns);
                    report.socket_reads += calls;
                    report.bytes_read += bytes;
                }
                if !draining {
                    shutdown_requested |= self.pump_frames(
                        id,
                        conn,
                        config.max_inflight,
                        &mut key,
                        &mut reserved,
                        &mut new_jobs,
                    );
                }
            }

            // `stats`, `metrics` and `slowlog` are answered from the
            // supervisor's hub, each rendered once per iteration at
            // most — and only when someone actually asked. Publish this
            // shard's snapshot first so the aggregate includes the
            // request that asked for it.
            if !reserved.stats.is_empty() {
                self.publish(&conns, &report, draining, policy);
                let epoch = self.source.engine().epoch();
                let payload = self.hub.render(epoch, draining);
                for (id, seq) in std::mem::take(&mut reserved.stats) {
                    if let Some(conn) = conns.get_mut(&id) {
                        conn.complete(
                            seq,
                            Payload::Owned(format!("{{\"ok\": true, \"result\": {payload}}}")),
                        );
                    }
                }
            }
            if !reserved.metrics.is_empty() {
                self.publish(&conns, &report, draining, policy);
                let engine = self.source.engine();
                let exposition = self.hub.render_metrics(&engine);
                // The exposition is multi-line text; it travels the
                // line protocol as one JSON-escaped string result.
                let reply = format!("{{\"ok\": true, \"result\": \"{}\"}}", escape(&exposition));
                for (id, seq) in std::mem::take(&mut reserved.metrics) {
                    if let Some(conn) = conns.get_mut(&id) {
                        conn.complete(seq, Payload::Owned(reply.clone()));
                    }
                }
            }
            if !reserved.slowlog.is_empty() {
                let payload = self.hub.render_slowlog();
                let reply = format!("{{\"ok\": true, \"result\": {payload}}}");
                for (id, seq) in std::mem::take(&mut reserved.slowlog) {
                    if let Some(conn) = conns.get_mut(&id) {
                        conn.complete(seq, Payload::Owned(reply.clone()));
                    }
                }
            }

            // Pass 2: move ready responses out, give the socket a
            // chance, then enforce the write cap on what it refused —
            // eviction is for stalled readers, not for bursts the
            // kernel would have absorbed.
            let mut flush_ns = 0u64;
            for &id in &active {
                let conn = conns.get_mut(&id).expect("active conn exists");
                conn.flush_ready();
                if conn.wants_write() {
                    conn.try_write(id, policy);
                }
                // Responses whose last byte just went out: stamp the
                // flush stage and record — the observability plane's
                // single recording site. One clock read covers every
                // flush this iteration.
                if conn.has_flushed() {
                    conn.take_flushed_into(&mut flushed_scratch);
                    if flush_ns == 0 {
                        flush_ns = self.clock.now_ns();
                    }
                    for mut rt in flushed_scratch.drain(..) {
                        rt.trace.stamp(Stage::Flush, flush_ns);
                        if rt.ok {
                            self.obs.record(&self.slowlog, self.id as u64, rt);
                        }
                    }
                }
                if conn.buffered_write_bytes() > config.write_buffer_cap {
                    closed.push((id, CloseReason::Evicted));
                    continue;
                }
                if conn.decoder.pending() > 0 && conn.inflight() < config.max_inflight {
                    // Frames held back by the pipeline bound can move
                    // again: revisit without waiting for a poll event.
                    conn.touched = true;
                }
                if conn.fatal {
                    closed.push((id, CloseReason::Error));
                } else if conn.finished() || (draining && conn.drained()) {
                    closed.push((id, CloseReason::Finished));
                }
            }

            for (id, reason) in closed {
                if reason == CloseReason::Evicted {
                    report.evicted += 1;
                }
                if let Some(conn) = conns.remove(&id) {
                    self.obs
                        .dropped
                        .fetch_add(conn.unflushed_traces(), Ordering::Relaxed);
                }
                policy.closed(id);
                // The global gauge frees an accept slot; wake the
                // acceptor only when it was actually pinned at the cap.
                let before = self.conn_gauge.fetch_sub(1, Ordering::SeqCst);
                if before >= config.max_connections {
                    self.control.wake_acceptor();
                }
            }

            if !new_jobs.is_empty() {
                let single = new_jobs.len() == 1;
                self.shared
                    .queued
                    .fetch_add(new_jobs.len() as u64, Ordering::Relaxed);
                {
                    let mut jobs = self.shared.jobs.lock().expect("jobs lock");
                    jobs.queue.extend(new_jobs);
                }
                if single {
                    self.shared.jobs_ready.notify_one();
                } else {
                    self.shared.jobs_ready.notify_all();
                }
            }

            if shutdown_requested {
                // A wire shutdown stops the *whole server*, not just
                // this shard: flag the control plane (which nudges every
                // sibling shard and the acceptor) and start draining
                // locally this same iteration.
                self.control.request_stop();
                drain.begin(config.drain_timeout);
            }
            // Re-check the stop flag after the poll: a stop that woke
            // this iteration begins the drain now, so an idle shard exits
            // below instead of running one more iteration and sleeping
            // the drain poll. Checked only here, so the frames this
            // iteration read were still admitted, as before.
            if self.control.stopped() {
                drain.begin(config.drain_timeout);
            }

            self.publish(&conns, &report, drain.active(), policy);

            // ---- drain exit ---------------------------------------
            if drain.active() {
                let everything_flushed = conns.values().all(Conn::drained);
                if everything_flushed {
                    report.drained_cleanly = true;
                    break;
                }
                if drain.expired() {
                    report.evicted += conns.len() as u64;
                    break;
                }
            }
        }

        // Release the gauge slots of connections the expired drain
        // abandoned, and publish the final counters. Their undelivered
        // responses enter the dropped ledger like any other close.
        if !conns.is_empty() {
            for conn in conns.values() {
                self.obs
                    .dropped
                    .fetch_add(conn.unflushed_traces(), Ordering::Relaxed);
            }
            self.conn_gauge.fetch_sub(conns.len(), Ordering::SeqCst);
            self.control.wake_acceptor();
        }
        conns.clear();

        report.queries = self.shared.queries.load(Ordering::Relaxed);
        report.control = self.shared.control.load(Ordering::Relaxed);
        report.completed = self.shared.completed.load(Ordering::Relaxed);
        report.shed = self.shared.shed.load(Ordering::Relaxed);
        report.deadline_expired = self.shared.deadline_expired.load(Ordering::Relaxed);
        report.injected_faults = policy.counters().total();
        if report.drained_cleanly {
            report.shards_drained = 1;
        }
        self.publish(&conns, &report, true, policy);
        report
    }

    /// Publish a consistent snapshot of this shard for the supervisor's
    /// aggregation (one mutexed write; see [`ShardPublic`]).
    fn publish(
        &self,
        conns: &BTreeMap<u64, Conn>,
        report: &ServeReport,
        draining: bool,
        policy: &dyn IoPolicy,
    ) {
        let inflight: usize = conns.values().map(Conn::inflight).sum();
        let buffered: usize = conns.values().map(Conn::buffered_write_bytes).sum();
        let queued = self.shared.jobs.lock().expect("jobs lock").queue.len();
        self.public.publish(ShardSnapshot {
            connections: conns.len() as u64,
            queued_jobs: queued as u64,
            inflight: inflight as u64,
            write_buffered_bytes: buffered as u64,
            adopted: report.accepted,
            queries: self.shared.queries.load(Ordering::Relaxed),
            control: self.shared.control.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            evicted: report.evicted,
            shed: self.shared.shed.load(Ordering::Relaxed),
            deadline_expired: self.shared.deadline_expired.load(Ordering::Relaxed),
            injected_faults: policy.counters().total(),
            iterations: report.iterations,
            draining,
            uptime_ms: self.clock.now_ns().saturating_sub(self.obs.started_ns) / 1_000_000,
            snapshot_seq: self.obs.snapshot_seq.fetch_add(1, Ordering::Relaxed) + 1,
        });
    }

    /// Drain decoded frames out of one connection into inline answers,
    /// jobs and control responses, respecting the pipeline bound.
    /// Resident data answers complete here (see
    /// [`answer_inline`](ShardSeed::answer_inline)); `stats`, `metrics`
    /// and `slowlog` requests are only *reserved* (sequence number +
    /// origin) and the loop renders one document for all of each kind
    /// afterwards. `key` is the shard's reused cache-key buffer. Returns
    /// true if a `shutdown` control query was accepted.
    fn pump_frames(
        &self,
        id: u64,
        conn: &mut Conn,
        max_inflight: usize,
        key: &mut CacheKey,
        reserved: &mut ControlRequests,
        new_jobs: &mut Vec<Job>,
    ) -> bool {
        let mut shutdown = false;
        while conn.inflight() < max_inflight {
            let Some(frame) = conn.decoder.next_frame() else {
                break;
            };
            match frame {
                Ok(line) => {
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    if line == "quit" {
                        // End of conversation: anything already
                        // pipelined still gets answered, anything
                        // decoded after the quit does not.
                        conn.read_closed = true;
                        conn.eof_handled = true;
                        conn.decoder = lfp_query::FrameDecoder::with_limit(conn.decoder.limit());
                        break;
                    }
                    match control_of(line) {
                        Some(Control::Stats) => {
                            let seq = conn.assign_seq();
                            self.shared.control.fetch_add(1, Ordering::Relaxed);
                            reserved.stats.push((id, seq));
                        }
                        Some(Control::Metrics) => {
                            let seq = conn.assign_seq();
                            self.shared.control.fetch_add(1, Ordering::Relaxed);
                            reserved.metrics.push((id, seq));
                        }
                        Some(Control::Slowlog) => {
                            let seq = conn.assign_seq();
                            self.shared.control.fetch_add(1, Ordering::Relaxed);
                            reserved.slowlog.push((id, seq));
                        }
                        Some(Control::Shutdown) => {
                            let seq = conn.assign_seq();
                            self.shared.control.fetch_add(1, Ordering::Relaxed);
                            conn.complete(seq, Payload::Owned(SHUTDOWN_ACK.to_string()));
                            shutdown = true;
                        }
                        None => {
                            let seq = conn.assign_seq();
                            // Admission control: shed against this
                            // shard's live queue depth plus this
                            // iteration's not-yet-pushed batch. Only
                            // queued work builds that depth — resident
                            // answers complete inline below — and the
                            // check runs before the parse, so a shed
                            // stays the cheapest reply there is. The
                            // response slot is already assigned, so the
                            // shed reply keeps its place in the
                            // pipeline order.
                            let depth = self.shared.queued.load(Ordering::Relaxed) as usize
                                + new_jobs.len();
                            if depth >= self.config.queue_watermark {
                                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                                conn.complete(
                                    seq,
                                    Payload::Owned(wire::overloaded_envelope(
                                        "queue",
                                        self.config.retry_hint_ms,
                                    )),
                                );
                                continue;
                            }
                            self.shared.queries.fetch_add(1, Ordering::Relaxed);
                            // Begin the request's span trace: from the
                            // arrival of its bytes to this decode is
                            // the `accept` stage. The engine is fetched
                            // for this request alone, as a worker
                            // would, and first: the key is tagged with
                            // its epoch.
                            let mut trace = ReqTrace::begin(conn.arrived_ns);
                            let engine = self.source.engine();
                            key.epoch = engine.epoch();
                            let decoded = Request::decode(line, key);
                            let accepted_ns = self.clock.now_ns();
                            trace.trace.stamp(Stage::Accept, accepted_ns);
                            let work = match decoded {
                                Ok(request) => {
                                    match self.answer_inline(
                                        request,
                                        &engine,
                                        key,
                                        accepted_ns,
                                        &mut trace,
                                    ) {
                                        Ok(payload) => {
                                            conn.complete_traced(seq, payload, Some(trace));
                                            self.shared.completed.fetch_add(1, Ordering::Relaxed);
                                            continue;
                                        }
                                        Err(request) => Work::Query(request),
                                    }
                                }
                                Err(error) => Work::Line {
                                    line: line.to_string(),
                                    error,
                                },
                            };
                            new_jobs.push(Job {
                                conn: id,
                                seq,
                                work,
                                accepted_ns,
                                trace,
                            });
                        }
                    }
                }
                Err(error) => {
                    // Hostile or broken framing: answer once with the
                    // typed error, finish what was already pipelined,
                    // and end the conversation.
                    let seq = conn.assign_seq();
                    conn.complete(
                        seq,
                        Payload::Owned(wire::error_envelope(&error.to_string())),
                    );
                    conn.read_closed = true;
                    conn.eof_handled = true;
                    conn.decoder = lfp_query::FrameDecoder::with_limit(conn.decoder.limit());
                    break;
                }
            }
        }
        // EOF with a partial frame buffered: surface the decoder's
        // end-of-stream verdict exactly once.
        if conn.read_closed && !conn.eof_handled && conn.decoder.pending() == 0 {
            conn.eof_handled = true;
            if let Some(error) = conn.decoder.finish() {
                let seq = conn.assign_seq();
                conn.complete(
                    seq,
                    Payload::Owned(wire::error_envelope(&error.to_string())),
                );
            }
        }
        shutdown
    }

    /// Answer a decoded request on the loop when no execution is
    /// needed: a deadline already past, a fence refusal, or a result
    /// resident under `key` on this shard's cache lane of `engine`.
    /// Hands the request back on a cache miss, carrying a copy of the
    /// key it was probed under.
    fn answer_inline(
        &self,
        request: Request,
        engine: &QueryEngine,
        key: &CacheKey,
        accepted_ns: u64,
        rt: &mut ReqTrace,
    ) -> Result<Payload, Request> {
        // Execution starts at the admission instant — `queue` and
        // `claim` stay zero — so the worker's deadline check fires here
        // only for a zero deadline.
        let payload = if past_deadline(accepted_ns, accepted_ns, self.config.request_deadline) {
            self.shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
            Payload::Owned(wire::overloaded_envelope(
                "deadline",
                self.config.retry_hint_ms,
            ))
        } else {
            rt.epoch = engine.epoch();
            let lane = self.id as u64;
            answer_resident_obs(request, engine, key, lane, self.clock.as_ref(), rt)?
        };
        rt.trace.stamp(Stage::Execute, self.clock.now_ns());
        Ok(payload)
    }
}

/// Control requests reserved during frame pumping, grouped by kind so
/// the loop renders each document at most once per iteration however
/// many connections asked.
#[derive(Default)]
struct ControlRequests {
    stats: Vec<(u64, u64)>,
    metrics: Vec<(u64, u64)>,
    slowlog: Vec<(u64, u64)>,
}

/// Jobs a worker claims per queue lock. Batching amortises the lock,
/// the completion post and the wake pipe over many requests. Only work
/// the loop could not answer itself is queued — cache misses and lines
/// for the extension or a typed error — because for a resident answer
/// the cross-thread round trip costs more than the answer: hits are
/// served on the loop and never reach a batch.
const WORKER_BATCH: usize = 64;

/// One worker: claim a batch, fetch the *current* engine per query,
/// execute (or expire), post the completions in one go, nudge the loop
/// once. `lane` is the owning shard's id — it selects the result-cache
/// lane so each shard's hot set stays on its own cache shards.
fn worker_loop(
    shared: Arc<Shared>,
    source: Arc<dyn EngineSource>,
    deadline: Duration,
    retry_hint_ms: u64,
    lane: u64,
    clock: Arc<dyn Clock>,
    extension: Option<Arc<dyn LineExtension>>,
) {
    let mut batch: Vec<Job> = Vec::with_capacity(WORKER_BATCH);
    let mut finished: Vec<Completion> = Vec::with_capacity(WORKER_BATCH);
    loop {
        batch.clear();
        {
            let mut state = shared.jobs.lock().expect("jobs lock");
            loop {
                if !state.queue.is_empty() {
                    let take = state.queue.len().min(WORKER_BATCH);
                    batch.extend(state.queue.drain(..take));
                    shared.queued.fetch_sub(take as u64, Ordering::Relaxed);
                    break;
                }
                if state.stop {
                    return;
                }
                state = shared.jobs_ready.wait(state).expect("jobs lock");
            }
        }
        finished.clear();
        // One stamp for the whole batch: every job in it left the
        // queue at this moment (the `queue` stage ends here; what a
        // job then waits behind batch-mates is its `claim` stage).
        let claimed_ns = clock.now_ns();
        for job in batch.drain(..) {
            let Job {
                conn,
                seq,
                work,
                accepted_ns,
                mut trace,
            } = job;
            trace.trace.stamp(Stage::Queue, claimed_ns);
            let started_ns = clock.now_ns();
            trace.trace.stamp(Stage::Claim, started_ns);
            // A request the queue held past its deadline is answered
            // `overloaded` without executing: its client has already
            // retried (or walked), and every cycle spent on it delays
            // requests that can still make their deadlines.
            let payload = if past_deadline(accepted_ns, started_ns, deadline) {
                shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
                Payload::Owned(wire::overloaded_envelope("deadline", retry_hint_ms))
            } else {
                match work {
                    Work::Query(request) => {
                        // Per request, not per batch: an epoch swap
                        // since the loop's probe — or mid-batch — is
                        // picked up here, fence included.
                        let engine = source.engine();
                        trace.epoch = engine.epoch();
                        answer_request_obs(request, &engine, lane, clock.as_ref(), &mut trace)
                    }
                    Work::Line { line, error } => Payload::Owned(
                        extension
                            .as_ref()
                            .and_then(|ext| ext.try_answer(&line))
                            .unwrap_or_else(|| wire::error_envelope(&error)),
                    ),
                }
            };
            trace.trace.stamp(Stage::Execute, clock.now_ns());
            finished.push(Completion {
                conn,
                seq,
                payload,
                trace,
            });
        }
        shared
            .completions
            .lock()
            .expect("completions lock")
            .append(&mut finished);
        shared.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wire line a payload flushes as (without the newline).
    fn flatten(payload: Payload) -> String {
        match payload {
            Payload::Owned(s) => s,
            Payload::Rendered { head, body } => format!("{head}{body}}}"),
        }
    }

    #[test]
    fn drain_deadline_arms_once() {
        let mut drain = Drain::default();
        assert!(!drain.active());
        assert!(!drain.expired());
        drain.begin(Duration::from_millis(5));
        let armed = drain.deadline.unwrap();
        // Chaos-induced re-entry (second shutdown, poll failure while
        // already draining) must not push the deadline back.
        drain.begin(Duration::from_secs(3600));
        assert_eq!(drain.deadline.unwrap(), armed);
        std::thread::sleep(Duration::from_millis(10));
        assert!(drain.expired());
    }

    #[test]
    fn zero_deadline_expires_at_admission_and_others_measure_the_wait() {
        assert!(past_deadline(7, 7, Duration::ZERO));
        assert!(!past_deadline(7, 7, Duration::from_nanos(1)));
        assert!(past_deadline(0, 1_000_000, Duration::from_millis(1)));
        assert!(!past_deadline(0, 999_999, Duration::from_millis(1)));
    }

    #[test]
    fn answer_line_payload_matches_scalar_rendering() {
        use crate::server::answer_line;
        let world = Arc::new(lfp_analysis::World::build(lfp_topo::Scale::tiny()));
        let engine = QueryEngine::new(world);
        for line in [
            "{\"query\": \"catalog\"}",
            "{\"query\": \"transitions\"}",
            "{\"query\": \"transitions\"}", // warm: cached=true path
            "not json at all",
            "{\"query\": \"mystery\"}",
            "{\"query\": \"catalog\", \"min_epoch\": 0}", // fence passes at epoch 0
            "{\"query\": \"catalog\", \"min_epoch\": 5}", // fence refuses: stale_epoch
            // Undecided by the single pass, decoded through the tree:
            "{\"query\": \"transitions\", \"min_hops\": 2.0}",
            "{\"qu\\u0065ry\": \"catalog\"}",
            "{\"query\": \"transitions\", \"min_hops\": 1e400}",
        ] {
            // Warm the cache first: both renderings below then take the
            // cached=true path, so the `cached` flag cannot differ by
            // evaluation order (the flag's own rendering is covered by
            // the head/tail property test in `lfp_query::wire`).
            let _ = answer_line(line, &engine);
            let scalar = answer_line(line, &engine);
            let clock = lfp_obs::ManualClock::new(0);
            let mut rt = ReqTrace::begin(0);
            let mut key = CacheKey {
                epoch: engine.epoch(),
                text: String::new(),
            };
            let payload = match Request::decode(line, &mut key) {
                Ok(request) => {
                    // Whichever decoder took the line, the key is the
                    // engine's canonical form of what it decoded.
                    assert_eq!(key, engine.key(&request.query), "line {line}");
                    answer_request_obs(request, &engine, 0, &clock, &mut rt)
                }
                Err(error) => Payload::Owned(wire::error_envelope(&error)),
            };
            let rendered = flatten(payload);
            assert_eq!(scalar, rendered, "line {line}");
            // The loop's inline answer is the same bytes and the same
            // trace outcome, for everything it can answer without
            // executing (every decodable line here is resident by now).
            if let Ok(request) = Request::decode(line, &mut key) {
                let mut inline_rt = ReqTrace::begin(0);
                let Ok(inline) =
                    answer_resident_obs(request, &engine, &key, 0, &clock, &mut inline_rt)
                else {
                    panic!("warmed line {line} is not resident");
                };
                assert_eq!(flatten(inline), scalar, "line {line}");
                assert_eq!(inline_rt.ok, rt.ok, "line {line}");
                assert_eq!(inline_rt.canonical, rt.canonical, "line {line}");
            }
            // The trace context mirrors the outcome: data queries that
            // executed carry their canonical form; failures do not.
            if scalar.contains("\"ok\": true") {
                assert!(rt.ok, "line {line}");
                assert!(!rt.canonical.is_empty(), "line {line}");
            } else {
                assert!(!rt.ok, "line {line}");
            }
        }
    }

    /// The loop probes a miss on one engine, then the engine is swapped
    /// before a worker runs the request: the key the probe built (and
    /// carried in the job) belongs to the old epoch, so the worker must
    /// build a fresh one — the reply echoes the new epoch and the cache
    /// entry lands under the new key, never the old.
    #[test]
    fn a_key_probed_before_an_epoch_swap_is_rebuilt_by_the_worker() {
        use crate::server::answer_line;
        let world = Arc::new(lfp_analysis::World::build(lfp_topo::Scale::tiny()));
        let old = QueryEngine::new(Arc::clone(&world));
        let new = {
            let (snapshot, scan) = world.latest_ripe();
            let targets: Vec<_> = snapshot.router_ips.iter().copied().collect();
            QueryEngine::for_epoch(
                Arc::clone(&world),
                old.corpus_arc(),
                &targets,
                &world.lfp_vendor_map(scan),
                &world.snmp_vendor_map(scan),
                old.cache_handle(),
                old.epoch() + 1,
            )
        };
        let clock = lfp_obs::ManualClock::new(0);
        let line = "{\"query\": \"transitions\", \"min_hops\": 3}";
        let mut key = CacheKey {
            epoch: old.epoch(),
            text: String::new(),
        };
        let request = Request::decode(line, &mut key).unwrap();
        let query = request.query.clone();

        let mut rt = ReqTrace::begin(0);
        let Err(request) = answer_resident_obs(request, &old, &key, 0, &clock, &mut rt) else {
            panic!("a cold cache cannot answer inline");
        };
        assert_eq!(request.key, Some(old.key(&query)));

        let reply = flatten(answer_request_obs(request, &new, 0, &clock, &mut rt));
        assert_eq!(rt.canonical, new.canonical(&query));
        assert!(reply.contains(&new.canonical(&query)), "{reply}");
        assert!(!reply.contains(&old.canonical(&query)), "{reply}");
        // Byte-identical to the new engine answering the line itself
        // (now a hit on the entry the worker inserted).
        let direct = answer_line(line, &new);
        assert_eq!(
            reply.replace("\"cached\": false", "\"cached\": true"),
            direct
        );
        assert!(new.resident_lane_obs(&new.key(&query), 0, &clock).is_ok());
        assert!(old.resident_lane_obs(&old.key(&query), 0, &clock).is_err());
    }
}
