//! The load generator's connection: a closed loop with a fixed window
//! of unanswered requests, over one blocking loopback TCP stream.
//!
//! The benchmark owns its client (it does not borrow `lfp_bench::mix`'s
//! or `query-load`'s): the instrument must not change when the program
//! under test does.

use lfp_query::{wire, QueryEngine, Response};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every `SAMPLE_EVERY`-th reply is kept and byte-compared after the
/// timed section (the correctness gate of the serve workloads).
pub const SAMPLE_EVERY: u64 = 256;

/// What one connection saw.
#[derive(Debug, Default)]
pub struct ConnReport {
    /// Socket write → full reply line read, per request, in send order.
    pub latencies_ns: Vec<u32>,
    /// Replies that began `{"ok": true`.
    pub ok: u64,
    /// Replies that did not.
    pub refused: u64,
    /// `(request index, reply)` for every sampled reply.
    pub samples: Vec<(u64, String)>,
    /// `(replies so far, when)` at the start and after every slice of
    /// replies; see [`ConnReport::slices`].
    pub marks: Vec<(u64, Instant)>,
    /// `(request index, write stamp, reply stamp)` in nanoseconds since
    /// `stamp_origin`, when spans were asked for.
    pub stamps: Vec<(u64, u64, u64)>,
}

/// Fewest replies a slice may hold: enough for ten beyond its p99.
pub const SLICE_MIN: u64 = 1024;

/// Replies per slice of a `count`-request connection: 64 slices, fewer
/// when that would leave a slice under [`SLICE_MIN`].
pub fn slice_of(count: u64) -> u64 {
    (count / 64).max(SLICE_MIN)
}

/// One slice of a connection's replies.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Replies per second over the slice.
    pub rate: f64,
    pub p50_ns: u32,
    pub p99_ns: u32,
}

impl ConnReport {
    /// Rate and latency percentiles of every slice. A short tail slice
    /// is dropped unless it is all there is.
    pub fn slices(&self) -> Vec<Slice> {
        let full = self.marks.get(1).map_or(0, |mark| mark.0 - self.marks[0].0);
        self.marks
            .windows(2)
            .filter(|pair| pair[1].0 - pair[0].0 == full)
            .map(|pair| {
                let (from, to) = (pair[0].0 as usize, pair[1].0 as usize);
                let mut latencies = self.latencies_ns[from..to].to_vec();
                latencies.sort_unstable();
                Slice {
                    rate: (to - from) as f64 / pair[1].1.duration_since(pair[0].1).as_secs_f64(),
                    p50_ns: crate::metrics::percentile(&latencies, 0.5),
                    p99_ns: crate::metrics::percentile(&latencies, 0.99),
                }
            })
            .collect()
    }
}

/// How much one connection sends, and how.
pub struct Plan<'s> {
    /// Requests to send (`u64::MAX` with `until`: as many as fit).
    pub count: u64,
    /// Stop sending once this is set; what is in flight is still
    /// waited for.
    pub until: Option<&'s AtomicBool>,
    /// Unanswered requests kept in flight.
    pub window: usize,
    /// Replies per slice.
    pub slice: u64,
}

/// Drive `count` requests down one connection, keeping up to `window`
/// of them unanswered. `line_of(i)` is the `i`-th request line (no
/// newline). Replies arrive in order (the server reassembles per
/// connection), so the oldest outstanding request owns each reply.
///
/// The window refills with half-depth hysteresis, like `query-load`:
/// only once it has drained to `window / 2` does one write burst it
/// back to `window`. Refilling one request per reply would turn the
/// whole path into a packet, a wakeup and a syscall per query.
pub fn drive<'a>(
    addr: SocketAddr,
    plan: Plan<'_>,
    line_of: &(dyn Fn(u64) -> &'a str + Sync),
    stamp_origin: Option<Instant>,
) -> std::io::Result<ConnReport> {
    let Plan {
        mut count,
        until,
        window,
        slice,
    } = plan;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
    let mut writer = &stream;
    let mut report = ConnReport {
        latencies_ns: Vec::with_capacity(count.min(1 << 20) as usize),
        ..ConnReport::default()
    };
    let mut outgoing: Vec<u8> = Vec::with_capacity(window * 128);
    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(window);
    let mut reply = String::new();
    let (mut sent, mut received) = (0u64, 0u64);
    report.marks.push((0, Instant::now()));
    while received < count {
        if until.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            count = sent;
            if received == count {
                break;
            }
        }
        let batch_start = sent;
        while sent < count
            && (sent - received) < window as u64
            && (sent > batch_start || sent - received <= window as u64 / 2)
        {
            outgoing.extend_from_slice(line_of(sent).as_bytes());
            outgoing.push(b'\n');
            sent += 1;
        }
        if sent > batch_start {
            let now = Instant::now();
            writer.write_all(&outgoing)?;
            outgoing.clear();
            sent_at.extend((batch_start..sent).map(|_| now));
        }
        // Block for one reply, then take whatever else already arrived.
        loop {
            reply.clear();
            if reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("server closed the connection after {received} of {count} replies"),
                ));
            }
            let now = Instant::now();
            let written = sent_at.pop_front().expect("a reply implies a request");
            let latency = now.duration_since(written).as_nanos();
            report
                .latencies_ns
                .push(u32::try_from(latency).unwrap_or(u32::MAX));
            if reply.starts_with("{\"ok\": true") {
                report.ok += 1;
            } else {
                report.refused += 1;
            }
            if received % SAMPLE_EVERY == 0 {
                report
                    .samples
                    .push((received, reply.trim_end().to_string()));
            }
            if let Some(origin) = stamp_origin {
                report.stamps.push((
                    received,
                    written.duration_since(origin).as_nanos() as u64,
                    now.duration_since(origin).as_nanos() as u64,
                ));
            }
            received += 1;
            if received.is_multiple_of(slice) {
                report.marks.push((received, now));
            }
            if received == count || reader.buffer().is_empty() {
                break;
            }
        }
    }
    // Close the tail slice (dropped by `slices` unless it is the only one).
    if report.marks.last().is_some_and(|mark| mark.0 != received) {
        report.marks.push((received, Instant::now()));
    }
    Ok(report)
}

/// One blocking round trip on an already-open connection.
pub fn round_trip(
    reader: &mut BufReader<TcpStream>,
    line: &str,
    reply: &mut String,
) -> std::io::Result<()> {
    let mut stream = reader.get_ref();
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    reply.clear();
    if reader.read_line(reply)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    reply.truncate(reply.trim_end().len());
    Ok(())
}

/// Open a connection for [`round_trip`].
pub fn connect(addr: SocketAddr) -> std::io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(BufReader::new(stream))
}

/// The bytes the server must have sent for `line`, computed off the
/// serving path: cold execution (which never touches the result cache,
/// so checking does not disturb the hit rate) wrapped in the same
/// envelope `answer_line` builds, with the `cached` flag the reply
/// itself carries — cached ≡ cold is the engine's contract, so the flag
/// is the only byte the cache may change.
pub fn expected_reply(engine: &QueryEngine, line: &str, reply: &str) -> Result<String, String> {
    let query = wire::decode(line)?;
    let payload: Arc<str> = Arc::from(engine.execute_uncached(&query)?);
    let cached = reply.starts_with("{\"ok\": true, \"cached\": true");
    Ok(wire::ok_envelope(
        &engine.canonical(&query),
        &Response { payload, cached },
    ))
}
