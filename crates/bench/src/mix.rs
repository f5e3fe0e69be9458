//! The client side of the serving stack, shared by everything that
//! talks to `vendor-queryd`.
//!
//! Three layers, smallest first:
//!
//! * [`build_mix`] — the deterministic request mix bootstrapped from
//!   the daemon's `catalog` answer (the repo benchmark borrows it too);
//! * [`Connection`] / [`request`] — a blocking line-protocol client for
//!   bootstrap, control queries and the process-level tests'
//!   one-at-a-time fenced round trips;
//! * [`run_fleet`] — the load generator proper: **one** nonblocking
//!   connection state machine and **one** `poll(2)` loop, which
//!   `query-load` runs in every mode. Request slots move `pending →
//!   outstanding → resolved`; what differs between modes is only how
//!   much failure the [`FleetPlan`] lets a slot survive:
//!
//!   * `retry_budget == 0` is the **plain generator** — a reset, an
//!     EOF, a shed or an error reply resolves the slots it touches as
//!     lost, so a failed connection's whole remainder counts as errors;
//!   * `retry_budget > 0` is the **resilient client** (`--chaos`) — a
//!     typed `overloaded` shed requeues its slot and pauses sending for
//!     a [`Backoff`] window floored at the server's hint, a reset
//!     requeues everything unanswered and reconnects after a backoff,
//!     each requeue spending one retry from the budget the whole fleet
//!     shares;
//!   * `churn_every > 0` adds **planned** reconnects in either mode: a
//!     connection stops refilling every N replies, lets its pipeline
//!     drain, and reopens. Voluntary, so it spends no budget.
//!
//!   `pipeline == 1` makes the same machine a closed-loop client (one
//!   request per round trip), and `threads > 1` splits the fleet over
//!   several drivers of the same loop.

use lfp_analysis::json::JsonValue;
use lfp_net::link::splitmix64;
use lfp_obs::Histogram;
use lfp_query::{wire, FrameDecoder};
use lfp_serve::sys::{poll_fds, PollFd, POLLIN, POLLOUT};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Jittered exponential backoff for `overloaded` sheds and connection
/// resets — the client half of the server's admission-control
/// contract.
///
/// Full-jitter: each retry sleeps `uniform(0, min(cap, base << attempt))`,
/// floored at the server's `retry_ms` hint when one came back (the
/// server knows its own queue; the client must not undercut it — the
/// floor is **sticky** across the failure streak and applies even
/// above `cap_ms`, because the cap bounds the client's own jitter
/// window, not the server's explicit ask). Uniform-over-the-window
/// rather than around-the-midpoint because shed clients are
/// *synchronised* by the shed itself — deterministic delays would
/// march them back in lockstep and re-trigger the watermark. Seeded,
/// so a chaos run's retry timing is reproducible.
#[derive(Debug, Clone)]
pub struct Backoff {
    seed: u64,
    base_ms: u64,
    cap_ms: u64,
    /// Consecutive failures since the last success.
    attempt: u32,
    /// Jitter draws so far (the deterministic randomness clock).
    draws: u64,
    /// Highest server `retry_ms` hint seen this failure streak. A
    /// reset-triggered retry with no hint of its own must not undercut
    /// what the server already asked for.
    hint_floor_ms: u64,
}

impl Backoff {
    /// A backoff starting at `base_ms` and capping at `cap_ms`.
    pub fn new(seed: u64, base_ms: u64, cap_ms: u64) -> Backoff {
        Backoff {
            seed,
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
            attempt: 0,
            draws: 0,
            hint_floor_ms: 0,
        }
    }

    /// Delay before the next retry. `hint_ms` is the server's
    /// `retry_ms` field when the failure was a typed `overloaded`
    /// shed (`None` for resets). Advances the attempt counter. The
    /// largest hint seen since the last success floors every delay in
    /// the streak — including hints above `cap_ms`, which cap only
    /// the jitter window.
    pub fn next_delay(&mut self, hint_ms: Option<u64>) -> Duration {
        self.hint_floor_ms = self.hint_floor_ms.max(hint_ms.unwrap_or(0));
        let window = self
            .base_ms
            .saturating_mul(1u64 << self.attempt.min(20))
            .min(self.cap_ms);
        self.attempt = self.attempt.saturating_add(1);
        self.draws = self.draws.wrapping_add(1);
        let jittered = splitmix64(self.seed ^ self.draws) % window.max(1);
        Duration::from_millis(jittered.max(self.hint_floor_ms))
    }

    /// A success ends the failure streak: the next delay starts from
    /// `base_ms` again and the server-hint floor is forgotten.
    pub fn reset(&mut self) {
        self.attempt = 0;
        self.hint_floor_ms = 0;
    }

    /// Consecutive failures since the last [`reset`](Backoff::reset).
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

/// A connected blocking client: line-buffered reader + writer over one
/// stream.
pub struct Connection {
    /// Buffered read half.
    pub reader: BufReader<TcpStream>,
    /// Buffered write half.
    pub writer: BufWriter<TcpStream>,
}

/// Connect once (nodelay on).
pub fn connect(addr: &str) -> std::io::Result<Connection> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok(Connection {
        reader,
        writer: BufWriter::new(stream),
    })
}

/// Connect, retrying until `timeout` (the daemon may still be building
/// its world).
pub fn connect_with_retry(addr: &str, timeout: Duration) -> Result<Connection, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match connect(addr) {
            Ok(connection) => return Ok(connection),
            Err(error) => {
                if Instant::now() >= deadline {
                    return Err(format!(
                        "cannot connect to {addr} within {timeout:?}: {error}"
                    ));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// One request/response round trip.
pub fn request(connection: &mut Connection, line: &str) -> Result<String, String> {
    writeln!(connection.writer, "{line}")
        .and_then(|()| connection.writer.flush())
        .map_err(|error| format!("send: {error}"))?;
    let mut reply = String::new();
    match connection.reader.read_line(&mut reply) {
        Ok(0) => Err("connection closed".to_string()),
        Ok(_) => Ok(reply.trim_end().to_string()),
        Err(error) => Err(format!("recv: {error}")),
    }
}

/// Build a deterministic request mix from the daemon's catalog: every
/// query kind, cycling through the advertised AS ids, sources, regions
/// and slices. Deterministic so reruns are comparable and so a warm
/// pass covers exactly the timed working set. Returns `None` when the
/// catalog advertised no AS ids at all.
pub fn build_mix(catalog: &JsonValue, distinct: usize) -> Option<Vec<String>> {
    let numbers = |key: &str| -> Vec<u64> {
        catalog
            .get(key)
            .and_then(JsonValue::as_array)
            .map(|items| items.iter().filter_map(JsonValue::as_u64).collect())
            .unwrap_or_default()
    };
    let strings = |key: &str| -> Vec<String> {
        catalog
            .get(key)
            .and_then(JsonValue::as_array)
            .map(|items| {
                items
                    .iter()
                    .filter_map(JsonValue::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    };
    let src_ases = numbers("src_ases");
    let dst_ases = numbers("dst_ases");
    let sources = strings("sources");
    let regions = strings("regions");
    let slices = strings("slices");
    if src_ases.is_empty() || dst_ases.is_empty() {
        return None;
    }

    let pick = |items: &[u64], index: usize| items[index % items.len()];
    let pick_str = |items: &[String], index: usize| items[index % items.len()].clone();
    let mut mix = Vec::with_capacity(distinct);
    for index in 0..distinct.max(1) {
        let line = match index % 6 {
            0 => format!(
                "{{\"query\":\"vendor_mix\",\"as\":{}}}",
                pick(&src_ases, index / 6)
            ),
            1 if !regions.is_empty() => format!(
                "{{\"query\":\"vendor_mix\",\"region\":\"{}\",\"method\":\"{}\"}}",
                pick_str(&regions, index / 6),
                if index % 2 == 0 { "lfp" } else { "snmp" },
            ),
            2 => format!(
                "{{\"query\":\"path_diversity\",\"src_as\":{},\"dst_as\":{}}}",
                pick(&src_ases, index / 6),
                pick(&dst_ases, index / 3),
            ),
            3 if !sources.is_empty() => format!(
                "{{\"query\":\"transitions\",\"source\":\"{}\"}}",
                pick_str(&sources, index / 6)
            ),
            4 if !slices.is_empty() => format!(
                "{{\"query\":\"longest_runs\",\"slice\":\"{}\"}}",
                pick_str(&slices, index / 6)
            ),
            _ => format!(
                "{{\"query\":\"path_diversity\",\"src_as\":{},\"dst_as\":{},\"min_hops\":{}}}",
                pick(&src_ases, index / 2),
                pick(&dst_ases, index / 4),
                2 + index % 4,
            ),
        };
        mix.push(line);
    }
    Some(mix)
}

/// What a fleet run is asked to do (see the module docs for how
/// `retry_budget` and `churn_every` shape the one state machine).
#[derive(Debug, Clone)]
pub struct FleetPlan<'a> {
    /// The daemon's `host:port`.
    pub addr: &'a str,
    /// Request lines; connection *k* starts at cursor `7k` and walks
    /// the mix cyclically, so the fleet interleaves different queries
    /// like real fan-in would.
    pub mix: &'a [String],
    /// Concurrent connections.
    pub connections: usize,
    /// Requests a connection keeps in flight (1 = closed loop).
    pub pipeline: usize,
    /// Request slots per connection.
    pub requests_per_conn: usize,
    /// Planned reconnect every N replies per connection (0 = never).
    pub churn_every: usize,
    /// Requeues the whole fleet may spend on sheds and resets.
    pub retry_budget: u64,
    /// Seeds every connection's [`Backoff`] jitter.
    pub seed: u64,
    /// Driver threads the fleet is split across.
    pub threads: usize,
    /// Wall-clock bound; slots unresolved past it count as lost.
    pub deadline: Duration,
}

/// What a fleet run observed, client-side. Every request slot ends in
/// exactly one of `ok` or `lost`.
#[derive(Debug, Clone, Default)]
pub struct FleetRun {
    /// Slots resolved by an acknowledged success.
    pub ok: u64,
    /// Slots that ended without one — error replies, sheds and resets
    /// the budget could not cover, the deadline's remainder — plus any
    /// reply that matched no outstanding request. The plain
    /// generator's `errors`; the chaos scenario's `lost_acknowledged`.
    pub lost: u64,
    /// Typed `overloaded` replies received.
    pub sheds: u64,
    /// Connections torn down mid-run, by a failure or a planned churn
    /// (each is reopened unless no budget is left to resend with).
    pub reconnects: u64,
    /// Requeues spent from the budget.
    pub retries_used: u64,
    /// Budget left at the end.
    pub retry_budget_remaining: u64,
    /// Wall clock of the whole run.
    pub seconds: f64,
    /// Send-to-reply latency, µs, on the same log-linear grid the
    /// daemon's histograms use — per-thread results merge exactly and
    /// quantiles on both sides are comparable.
    pub latency_us: Histogram,
}

impl FleetRun {
    /// Acknowledged successes per second of wall clock.
    pub fn qps(&self) -> f64 {
        self.ok as f64 / self.seconds.max(1e-9)
    }
}

/// Take one retry from the fleet's shared budget, if any is left.
fn try_spend(budget: &AtomicU64) -> bool {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
            left.checked_sub(1)
        })
        .is_ok()
}

/// A connection's request slots not yet committed to the wire: the
/// untouched rest of its cursor range, then the slots handed back for
/// another try, oldest first — the FIFO order a queue filled with the
/// whole range up front would give, in constant memory however many
/// slots a connection is planned.
struct Pending {
    fresh: Range<usize>,
    requeued: VecDeque<usize>,
}

impl Pending {
    fn pop_front(&mut self) -> Option<usize> {
        self.fresh.next().or_else(|| self.requeued.pop_front())
    }

    fn push_back(&mut self, cursor: usize) {
        self.requeued.push_back(cursor);
    }

    fn len(&self) -> usize {
        self.fresh.len() + self.requeued.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn clear(&mut self) {
        self.fresh.start = self.fresh.end;
        self.requeued.clear();
    }
}

/// One fleet connection: request slots move `pending` → `outstanding`
/// → resolved, and failures the budget covers move them *back*. The
/// connection gives a slot up (as lost) only when the budget cannot
/// pay for another try.
struct FleetConn {
    /// `None` before the first connect, between a failure and its
    /// backed-off reconnect, across a planned churn, and once finished.
    stream: Option<TcpStream>,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    /// Mix cursors not yet committed to the wire.
    pending: Pending,
    /// Mix cursors on the wire awaiting their (in-order) reply.
    outstanding: VecDeque<usize>,
    send_times: VecDeque<Instant>,
    backoff: Backoff,
    /// When to attempt the next connect (stream is `None`).
    reopen_at: Instant,
    /// Overload shed: no new sends before this instant.
    pause_until: Option<Instant>,
    churn_every: usize,
    /// Replies left until the next planned churn point.
    until_churn: usize,
    /// At a churn point: stop refilling, reconnect once drained.
    want_churn: bool,
}

impl FleetConn {
    fn new(index: usize, plan: &FleetPlan, now: Instant) -> FleetConn {
        FleetConn {
            stream: None,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: Pending {
                fresh: index * 7..index * 7 + plan.requests_per_conn,
                requeued: VecDeque::new(),
            },
            outstanding: VecDeque::new(),
            send_times: VecDeque::new(),
            backoff: Backoff::new(splitmix64(plan.seed ^ index as u64), 5, 2_000),
            reopen_at: now,
            pause_until: None,
            churn_every: plan.churn_every,
            // Stagger the first churn point per connection: the whole
            // fleet reconnecting on the same response index would melt
            // the listener backlog into SYN-retransmit stalls and
            // measure TCP retry timers instead of the server.
            until_churn: 1 + index % plan.churn_every.max(1),
            want_churn: false,
        }
    }

    /// Every slot resolved (acknowledged or lost).
    fn finished(&self) -> bool {
        self.pending.is_empty() && self.outstanding.is_empty()
    }

    /// Drop the socket and everything that only meant something on it
    /// (a reconnect of either kind is as good as a planned churn).
    fn close(&mut self) {
        self.stream = None;
        self.decoder = FrameDecoder::new();
        self.out.clear();
        self.out_pos = 0;
        self.send_times.clear();
        self.pause_until = None;
        self.want_churn = false;
    }

    /// The connection failed under us: close, requeue everything
    /// unanswered (one retry each), and schedule the backed-off
    /// reconnect. Slots the budget cannot cover are lost — with no
    /// budget at all that is the connection's whole remainder, since
    /// nothing could ever resend it.
    fn disconnect(&mut self, run: &mut FleetRun, budget: &AtomicU64) {
        run.reconnects += 1;
        self.close();
        while let Some(cursor) = self.outstanding.pop_front() {
            if try_spend(budget) {
                run.retries_used += 1;
                self.pending.push_back(cursor);
            } else {
                run.lost += 1;
            }
        }
        if budget.load(Ordering::Relaxed) == 0 {
            run.lost += self.pending.len() as u64;
            self.pending.clear();
        }
        self.reopen_at = Instant::now() + self.backoff.next_delay(None);
    }

    /// At a churn point with the pipeline drained: a planned teardown,
    /// reopened right after at no cost to the budget. A finished
    /// connection never arms a churn (see `try_read`) and never
    /// reconnects ([`try_reopen`](FleetConn::try_reopen) refuses), so a
    /// churn point landing inside the final pipelined batch cannot
    /// resurrect it as a zombie with nothing left to send.
    fn churn_if_due(&mut self, now: Instant, run: &mut FleetRun) {
        if self.want_churn && self.outstanding.is_empty() && self.out.is_empty() {
            run.reconnects += 1;
            self.close();
            self.reopen_at = now;
        }
    }

    /// Connect if there is work left and the backoff window has
    /// passed. A refused connect is retried after a backoff while the
    /// budget lasts; without budget the remainder is lost.
    fn try_reopen(&mut self, addr: &str, now: Instant, run: &mut FleetRun, budget: &AtomicU64) {
        if self.stream.is_some() || self.finished() || now < self.reopen_at {
            return;
        }
        let opened = TcpStream::connect(addr).and_then(|stream| {
            stream.set_nodelay(true).ok();
            stream.set_nonblocking(true)?;
            Ok(stream)
        });
        match opened {
            Ok(stream) => self.stream = Some(stream),
            Err(_) if budget.load(Ordering::Relaxed) == 0 => {
                run.lost += self.pending.len() as u64;
                self.pending.clear();
            }
            Err(_) => self.reopen_at = now + self.backoff.next_delay(None),
        }
    }

    /// Keep the pipeline topped up from `pending`, with half-depth
    /// hysteresis: refill only once the window has drained to
    /// `depth/2`, then burst back to `depth`. One-request-per-reply
    /// refills would degenerate the whole path into 40-byte segments (a
    /// packet per query, each with its own softirq and wakeup);
    /// bursting keeps requests, reads, executions and replies batched
    /// end to end. Holds off while a shed's pause or a churn is pending.
    fn fill(&mut self, mix: &[String], depth: usize, now: Instant) {
        if self.stream.is_none() || self.want_churn {
            return;
        }
        if let Some(until) = self.pause_until {
            if now < until {
                return;
            }
            self.pause_until = None;
        }
        if self.outstanding.len() > depth / 2 {
            return;
        }
        while self.outstanding.len() < depth {
            let Some(cursor) = self.pending.pop_front() else {
                break;
            };
            self.out
                .extend_from_slice(mix[cursor % mix.len()].as_bytes());
            self.out.push(b'\n');
            self.send_times.push_back(Instant::now());
            self.outstanding.push_back(cursor);
        }
    }

    fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    fn try_write(&mut self, run: &mut FleetRun, budget: &AtomicU64) {
        let Some(stream) = &self.stream else { return };
        while self.out_pos < self.out.len() {
            match (&*stream).write(&self.out[self.out_pos..]) {
                Ok(0) => return self.disconnect(run, budget),
                Ok(n) => self.out_pos += n,
                Err(error) if error.kind() == ErrorKind::WouldBlock => return,
                Err(error) if error.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return self.disconnect(run, budget),
            }
        }
        self.out.clear();
        self.out_pos = 0;
    }

    /// Read and resolve replies, in order: a success resolves its
    /// slot; a typed shed requeues it (pausing sends for a backoff
    /// floored at the server's hint) when the budget allows; any other
    /// reply is an answer the warm-up proved should have succeeded —
    /// lost, not retryable. A reply with no outstanding request, which
    /// a correct server can never produce, counts directly as lost.
    fn try_read(&mut self, run: &mut FleetRun, budget: &AtomicU64) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(stream) = &self.stream else { return };
            match (&*stream).read(&mut chunk) {
                Ok(0) if self.finished() => return self.close(),
                Ok(0) => return self.disconnect(run, budget),
                Ok(n) => self.decoder.feed(&chunk[..n]),
                Err(error) if error.kind() == ErrorKind::WouldBlock => return,
                Err(error) if error.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return self.disconnect(run, budget),
            }
            while let Some(frame) = self.decoder.next_frame() {
                let Ok(reply) = frame else {
                    return self.disconnect(run, budget);
                };
                if let Some(start) = self.send_times.pop_front() {
                    run.latency_us.record(start.elapsed().as_micros() as u64);
                }
                let Some(cursor) = self.outstanding.pop_front() else {
                    run.lost += 1;
                    continue;
                };
                if reply.contains("\"ok\": true") {
                    run.ok += 1;
                    self.backoff.reset();
                } else if let Some(hint) = wire::overload_retry_ms(&reply) {
                    run.sheds += 1;
                    if try_spend(budget) {
                        run.retries_used += 1;
                        self.pending.push_back(cursor);
                        self.pause_until =
                            Some(Instant::now() + self.backoff.next_delay(Some(hint)));
                    } else {
                        run.lost += 1;
                    }
                } else {
                    run.lost += 1;
                }
                if self.churn_every > 0 {
                    self.until_churn -= 1;
                    if self.until_churn == 0 {
                        self.until_churn = self.churn_every;
                        // Only worth a reconnect if something is left
                        // to send on the new connection.
                        self.want_churn = !self.pending.is_empty();
                    }
                }
            }
        }
    }
}

/// The fleet's one poll loop: multiplex `conns` from this thread until
/// every slot is resolved or the deadline expires (the shortfall counts
/// as lost).
fn drive(
    conns: &mut [FleetConn],
    plan: &FleetPlan,
    budget: &AtomicU64,
    hard_deadline: Instant,
) -> FleetRun {
    let mut run = FleetRun::default();
    let mut iterations = 0u64;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut order: Vec<usize> = Vec::new();

    loop {
        iterations += 1;
        let now = Instant::now();
        // Sleep no longer than the nearest reconnect or pause expiry,
        // so a fleet with every socket down still ticks on time.
        let mut wake = now + Duration::from_millis(200);
        let mut unfinished = 0usize;
        fds.clear();
        order.clear();
        // Connect before anything is stamped as sent: a blocking
        // connect that stalls on a full listener backlog (the opening
        // storm) must not be billed to other connections' requests.
        for conn in conns.iter_mut() {
            conn.churn_if_due(now, &mut run);
            conn.try_reopen(plan.addr, now, &mut run, budget);
        }
        for (index, conn) in conns.iter_mut().enumerate() {
            if conn.finished() {
                conn.stream = None;
                continue;
            }
            unfinished += 1;
            conn.fill(plan.mix, plan.pipeline, now);
            match &conn.stream {
                Some(stream) => {
                    let events = if conn.wants_write() {
                        POLLIN | POLLOUT
                    } else {
                        POLLIN
                    };
                    fds.push(PollFd::new(stream.as_raw_fd(), events));
                    order.push(index);
                    wake = wake.min(conn.pause_until.unwrap_or(wake));
                }
                None => wake = wake.min(conn.reopen_at),
            }
        }
        if unfinished == 0 {
            break;
        }
        if now >= hard_deadline {
            eprintln!("warning: deadline expired with {unfinished} connections unfinished");
            for conn in conns.iter() {
                run.lost += (conn.pending.len() + conn.outstanding.len()) as u64;
            }
            break;
        }
        let timeout_ms = wake.saturating_duration_since(now).as_millis() as i32 + 1;
        poll_fds(&mut fds, timeout_ms).expect("poll(2) over the load fleet");
        for (slot, &index) in order.iter().enumerate() {
            let conn = &mut conns[index];
            if fds[slot].writable() && conn.wants_write() {
                conn.try_write(&mut run, budget);
            }
            if fds[slot].readable() {
                conn.try_read(&mut run, budget);
            }
        }
    }
    eprintln!(
        "load loop: {iterations} iterations, {:.1} replies/iteration",
        run.ok as f64 / iterations as f64
    );
    run
}

/// Run a fleet to completion: build the connections, split them over
/// `plan.threads` drivers of the one poll loop, and merge what they
/// observed. Never hangs — `plan.deadline` bounds the run — and never
/// exits the process: failures come back in [`FleetRun::lost`].
pub fn run_fleet(plan: &FleetPlan) -> FleetRun {
    let started = Instant::now();
    let hard_deadline = started + plan.deadline;
    let budget = AtomicU64::new(plan.retry_budget);
    let mut conns: Vec<FleetConn> = (0..plan.connections)
        .map(|index| FleetConn::new(index, plan, started))
        .collect();
    // Contiguous slices, so every connection is driven by exactly one
    // thread and keeps its fleet-wide index.
    let share = conns.len().div_ceil(plan.threads.max(1)).max(1);
    let budget = &budget;
    let mut merged = std::thread::scope(|scope| {
        let drivers: Vec<_> = conns
            .chunks_mut(share)
            .map(|chunk| scope.spawn(move || drive(chunk, plan, budget, hard_deadline)))
            .collect();
        drivers
            .into_iter()
            .map(|driver| driver.join().expect("driver thread panicked"))
            .fold(FleetRun::default(), |mut merged, run| {
                merged.ok += run.ok;
                merged.lost += run.lost;
                merged.sheds += run.sheds;
                merged.reconnects += run.reconnects;
                merged.retries_used += run.retries_used;
                merged.latency_us.merge(&run.latency_us);
                merged
            })
    });
    merged.retry_budget_remaining = budget.load(Ordering::Relaxed);
    merged.seconds = started.elapsed().as_secs_f64();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfp_analysis::json::parse;
    use lfp_query::QueryEngine;
    use lfp_serve::{
        answer_line, DirectIo, EngineSource, FaultPlan, FaultPolicy, IoPolicy, ServeConfig,
        ServeReport, Server, ServerHandle,
    };
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// An in-process daemon on the shared tiny world, every slot
    /// running its lane of `faults` (or straight through), plus the
    /// request mix its catalog advertises.
    struct Daemon {
        addr: String,
        mix: Vec<String>,
        handle: ServerHandle,
        thread: JoinHandle<ServeReport>,
    }

    fn daemon(config: ServeConfig, faults: Option<FaultPlan>) -> Daemon {
        let engine = Arc::new(QueryEngine::new(crate::shared_tiny_world()));
        let catalog = parse(&answer_line("{\"query\":\"catalog\"}", &engine)).expect("catalog");
        let mix = build_mix(catalog.get("result").expect("catalog result"), 24).expect("mix");
        let source: Arc<dyn EngineSource> = Arc::new(move || Arc::clone(&engine));
        let server =
            Server::bind_with_policy_factory("127.0.0.1:0", config, source, |slot| match faults {
                Some(plan) => Box::new(FaultPolicy::new(plan.for_slot(slot))),
                None => Box::new(DirectIo) as Box<dyn IoPolicy>,
            })
            .expect("bind");
        Daemon {
            addr: server.local_addr().to_string(),
            mix,
            handle: server.handle(),
            thread: std::thread::spawn(move || server.run()),
        }
    }

    impl Daemon {
        fn plan(&self) -> FleetPlan<'_> {
            FleetPlan {
                addr: &self.addr,
                mix: &self.mix,
                connections: 4,
                pipeline: 16,
                requests_per_conn: 100,
                churn_every: 0,
                retry_budget: 0,
                seed: 9,
                threads: 1,
                deadline: Duration::from_secs(60),
            }
        }

        fn stop(self) -> ServeReport {
            self.handle.shutdown();
            self.thread.join().expect("server thread exits")
        }
    }

    /// The collision PR 7 found by hand: with 100 slots, a pipeline of
    /// 16 and a churn point every 30 replies (staggered 1..=4 per
    /// connection), churn points land while the last batch is in
    /// flight. A connection resurrected past its last slot could never
    /// fill or finish and would pin the run to its deadline.
    #[test]
    fn churn_inside_the_final_batch_finishes_without_a_zombie() {
        let daemon = daemon(ServeConfig::default(), None);
        for threads in [1, 2] {
            let run = run_fleet(&FleetPlan {
                churn_every: 30,
                requests_per_conn: 91,
                threads,
                ..daemon.plan()
            });
            assert_eq!((run.ok, run.lost), (4 * 91, 0), "{run:?}");
            // 91 slots, first churn at reply 1..=4, then every 30:
            // three planned reconnects per connection, none after the
            // last reply.
            assert_eq!(run.reconnects, 4 * 3, "{run:?}");
            assert_eq!(run.retries_used, 0, "planned churn spent budget");
            assert!(run.seconds < 20.0, "pinned to the deadline: {run:?}");
            assert_eq!(run.latency_us.count(), 4 * 91);
        }
        let report = daemon.stop();
        assert_eq!(report.queries, 2 * 4 * 91);
        assert_eq!(report.accepted, 2 * 4 * 4, "a finished connection reopened");
    }

    /// Without a budget nothing is retried: a server that goes away
    /// mid-run turns every unanswered slot into an error — promptly,
    /// not at the deadline.
    #[test]
    fn plain_mode_counts_a_mid_run_shutdown_as_errors_and_returns() {
        let daemon = daemon(ServeConfig::default(), None);
        let handle = daemon.handle.clone();
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            handle.shutdown();
        });
        let plan = FleetPlan {
            requests_per_conn: 200_000,
            ..daemon.plan()
        };
        let run = run_fleet(&plan);
        stopper.join().expect("stopper");
        assert!(run.ok > 0, "nothing was served before the shutdown");
        assert!(run.lost > 0, "the shutdown cost nothing: {run:?}");
        assert_eq!(run.ok + run.lost, 4 * 200_000, "a slot went unaccounted");
        assert_eq!(run.retries_used, 0);
        assert!(run.seconds < 30.0, "hung until the deadline: {run:?}");
        daemon.stop();
    }

    /// The resilient client against everything at once: seeded resets,
    /// stalls and short I/O on every slot (accept included) plus an
    /// admission watermark far below the fleet's pipeline depth. Every
    /// slot must still end acknowledged, with sheds seen and budget
    /// to spare.
    #[test]
    fn chaos_mode_loses_nothing_under_aggressive_faults_and_sheds() {
        let daemon = daemon(
            ServeConfig {
                workers: 1,
                queue_watermark: 16,
                retry_hint_ms: 2,
                ..ServeConfig::default()
            },
            Some(FaultPlan::aggressive(1337)),
        );
        let run = run_fleet(&FleetPlan {
            connections: 8,
            requests_per_conn: 150,
            retry_budget: 50_000,
            threads: 2,
            ..daemon.plan()
        });
        assert_eq!((run.ok, run.lost), (8 * 150, 0), "{run:?}");
        assert!(run.sheds > 0, "the watermark never shed: {run:?}");
        assert!(run.retry_budget_remaining > 0, "{run:?}");
        assert_eq!(
            run.retry_budget_remaining + run.retries_used,
            50_000,
            "budget accounting drifted: {run:?}"
        );
        let report = daemon.stop();
        assert!(report.injected_faults > 0 && report.shed > 0, "{report:?}");
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let mut a = Backoff::new(11, 10, 500);
        let mut b = Backoff::new(11, 10, 500);
        for attempt in 0..12 {
            let left = a.next_delay(None);
            assert_eq!(left, b.next_delay(None), "attempt {attempt}");
            // Window for attempt n is min(cap, base << n); full jitter
            // stays strictly inside it.
            let window = 10u64.saturating_mul(1 << attempt.min(20)).min(500);
            assert!(left.as_millis() < u128::from(window.max(1)) + 1);
        }
        // Different seeds decorrelate — the whole point of jitter.
        let mut c = Backoff::new(12, 10, 500);
        let same = (0..12).filter(|_| a.next_delay(None) == c.next_delay(None));
        assert!(
            same.count() < 12,
            "seeds 11 and 12 produced identical jitter"
        );
    }

    #[test]
    fn backoff_honours_server_hint_and_reset() {
        let mut backoff = Backoff::new(7, 1, 4);
        // Window is tiny (≤4ms) but the server said 50ms: the hint
        // floors the delay, even though it exceeds cap_ms.
        assert!(backoff.next_delay(Some(50)) >= Duration::from_millis(50));
        assert_eq!(backoff.attempts(), 1);
        // The floor is sticky: a follow-up failure with *no* hint (a
        // reset, say) must still respect what the server asked for —
        // the old behaviour let it retry after ≤4ms.
        assert!(backoff.next_delay(None) >= Duration::from_millis(50));
        // A weaker hint never lowers the established floor…
        assert!(backoff.next_delay(Some(10)) >= Duration::from_millis(50));
        // …and a stronger one raises it.
        assert!(backoff.next_delay(Some(80)) >= Duration::from_millis(80));
        assert_eq!(backoff.attempts(), 4);
        backoff.reset();
        assert_eq!(backoff.attempts(), 0);
        // Success forgets the floor: delays shrink back under the cap.
        assert!(backoff.next_delay(None) < Duration::from_millis(50));
    }
}
