//! Heap allocations per warm cache hit, pinned.
//!
//! A counting global allocator (std only) wraps the system allocator for
//! this whole test binary. One in-process server (one loop, one worker)
//! on the tiny world warms the load generator's 64-line mix; then a raw
//! `TcpStream` pipelines 4,096 warm requests from prebuilt bytes into a
//! reused read buffer. Every allocation any thread makes in that window
//! — the loop's, the idle worker's and acceptor's, the client's — is
//! charged to the requests, so the count is an upper bound on what one
//! hit costs the serving loop.

use lfp_analysis::json::{parse, JsonValue};
use lfp_query::QueryEngine;
use lfp_serve::{EngineSource, ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) since
/// the binary started, across every thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests in the measured window.
const REQUESTS: usize = 4_096;

/// Requests written per burst; the client reads every reply of a burst
/// before writing the next, so the server's write buffer stays small.
const BURST: usize = 64;

/// The most allocations a warm hit may cost, all threads together:
/// 4.52 measured, rounded up. A hit allocates its frame, its trace box,
/// the trace's copy of its key and its envelope head, plus the `source`
/// string of the one mix line in six that names one; the remainder is
/// loop-iteration bookkeeping, amortised over a burst. Decoding through
/// a `JsonValue` tree and canonicalising with `format!` cost 14.47.
const BUDGET_PER_REQUEST: f64 = 5.0;

/// Send one line, read one reply line.
fn round_trip(reader: &mut BufReader<TcpStream>, line: &str) -> String {
    let stream = reader.get_mut();
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    reply.truncate(reply.trim_end().len());
    reply
}

#[test]
fn a_warm_hit_stays_within_its_allocation_budget() {
    let engine = Arc::new(QueryEngine::new(lfp_bench::shared_tiny_world()));
    let source: Arc<dyn EngineSource> = Arc::new(move || Arc::clone(&engine));
    let config = ServeConfig {
        loops: 1,
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config, source).expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream);
    let catalog = parse(&round_trip(&mut reader, "{\"query\": \"catalog\"}"))
        .ok()
        .and_then(|reply| reply.get("result").cloned())
        .expect("catalog reply carries a result");
    let mix = lfp_bench::mix::build_mix(&catalog, 64).expect("catalog lists ASes");
    // Two passes: the first fills the cache, the second pins the length
    // of every `cached: true` reply the measured window must return.
    let mut reply_bytes = Vec::with_capacity(mix.len());
    for pass in 0..2 {
        for line in &mix {
            let reply = round_trip(&mut reader, line);
            let value = parse(&reply).expect("reply is JSON");
            assert_eq!(value.get("ok").and_then(JsonValue::as_bool), Some(true));
            if pass == 1 {
                assert_eq!(value.get("cached").and_then(JsonValue::as_bool), Some(true));
                reply_bytes.push(reply.len() + 1);
            }
        }
    }
    assert!(
        reader.buffer().is_empty(),
        "no reply is outstanding after the warm passes"
    );
    let mut stream = reader.into_inner();

    // Prebuilt request bytes, with the offset each burst starts at.
    let mut requests = Vec::new();
    let mut burst_starts = vec![0];
    let mut expected_bytes = 0usize;
    for index in 0..REQUESTS {
        let line = &mix[index % mix.len()];
        requests.extend_from_slice(line.as_bytes());
        requests.push(b'\n');
        expected_bytes += reply_bytes[index % mix.len()];
        if (index + 1) % BURST == 0 {
            burst_starts.push(requests.len());
        }
    }
    let mut buffer = vec![0u8; 64 * 1024];

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut received = 0usize;
    for burst in burst_starts.windows(2) {
        stream
            .write_all(&requests[burst[0]..burst[1]])
            .expect("send burst");
        let mut newlines = 0;
        while newlines < BURST {
            let read = stream.read(&mut buffer).expect("read replies");
            assert!(read > 0, "server closed mid-window");
            newlines += buffer[..read].iter().filter(|&&byte| byte == b'\n').count();
            received += read;
        }
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // Every reply was a `cached: true` hit of the pinned length.
    assert_eq!(received, expected_bytes);
    handle.shutdown();
    let report = thread.join().expect("server thread exits");
    assert!(report.drained_cleanly);

    let per_request = allocations as f64 / REQUESTS as f64;
    println!("{allocations} allocations for {REQUESTS} warm hits: {per_request:.2} per request");
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.2} allocations per warm hit, budget {BUDGET_PER_REQUEST}"
    );
}
