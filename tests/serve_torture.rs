//! Torture battery for the readiness-driven serving core.
//!
//! Hostile client schedules against a live `lfp_serve::Server`:
//! concurrent pipelined clients, byte-at-a-time writers, stalled
//! readers, mid-request disconnects, oversized/invalid frames, and the
//! shutdown-drain race. The invariant throughout: **every completed
//! response is byte-identical to direct `QueryEngine` execution** (up
//! to the `cached` flag), and the daemon never wedges or leaks
//! connections.

use lfp::query::{wire, QueryEngine, Response};
use lfp::serve::{answer_line, EngineSource, ServeConfig, ServeReport, Server, ServerHandle};
use lfp::topo::Scale;
use lfp_analysis::json::{parse, JsonValue};
use lfp_analysis::World;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One tiny world / engine shared by every test in the binary (the
/// world build dominates wall-clock; the server under test does not).
fn shared_engine() -> Arc<QueryEngine> {
    static ENGINE: OnceLock<Arc<QueryEngine>> = OnceLock::new();
    Arc::clone(
        ENGINE.get_or_init(|| Arc::new(QueryEngine::new(Arc::new(World::build(Scale::tiny()))))),
    )
}

struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<ServeReport>>,
}

impl TestServer {
    fn start(config: ServeConfig) -> TestServer {
        TestServer::start_on(shared_engine(), config)
    }

    /// [`start`](Self::start) over a given engine — one whose cache
    /// state the test controls.
    fn start_on(engine: Arc<QueryEngine>, config: ServeConfig) -> TestServer {
        let source: Arc<dyn EngineSource> = Arc::new(move || Arc::clone(&engine));
        let server = Server::bind("127.0.0.1:0", config, source).expect("bind ephemeral");
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    /// Drain the server and return its report.
    fn stop(mut self) -> ServeReport {
        self.handle.shutdown();
        self.thread
            .take()
            .expect("server thread present")
            .join()
            .expect("server thread exits")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.shutdown();
            let _ = thread.join();
        }
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
    }

    /// One response line, or `None` on EOF.
    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(error) => panic!("read failed: {error}"),
        }
    }
}

/// A deterministic pipeline mix covering every query kind the engine
/// serves, as raw wire lines.
fn test_mix(engine: &QueryEngine) -> Vec<String> {
    let corpus = engine.corpus();
    let src = corpus.src_as_ids();
    let dst = corpus.dst_as_ids();
    assert!(!src.is_empty() && !dst.is_empty());
    vec![
        "{\"query\": \"catalog\"}".to_string(),
        format!("{{\"query\": \"vendor_mix\", \"as\": {}}}", src[0]),
        "{\"query\": \"vendor_mix\", \"region\": \"EU\", \"method\": \"snmp\"}".to_string(),
        format!(
            "{{\"query\": \"path_diversity\", \"src_as\": {}, \"dst_as\": {}}}",
            src[0], dst[0]
        ),
        "{\"query\": \"transitions\"}".to_string(),
        "{\"query\": \"longest_runs\", \"min_hops\": 2}".to_string(),
    ]
}

/// The two legal envelopes for a request line: cold and cache-hit
/// renderings of the byte-identical payload direct execution produces.
fn expected_envelopes(engine: &QueryEngine, line: &str) -> [String; 2] {
    let query = wire::decode(line).expect("test mix lines decode");
    let payload = engine
        .execute_uncached(&query)
        .expect("test mix lines execute");
    let canonical = engine.canonical(&query);
    let rendered = |cached: bool| {
        wire::ok_envelope(
            &canonical,
            &Response {
                payload: Arc::from(payload.as_str()),
                cached,
            },
        )
    };
    [rendered(false), rendered(true)]
}

fn assert_is_direct_execution(engine: &QueryEngine, line: &str, reply: &str) {
    let [cold, warm] = expected_envelopes(engine, line);
    assert!(
        reply == cold || reply == warm,
        "response diverged from direct execution\n line: {line}\nreply: {reply}\n cold: {cold}"
    );
}

/// Poll the server's `stats` control query until `predicate` holds.
fn wait_for_stats<F: Fn(&JsonValue) -> bool>(client: &mut Client, predicate: F) -> JsonValue {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        client.send(b"{\"query\": \"stats\"}\n");
        let reply = client.read_line().expect("stats reply");
        let value = parse(&reply).expect("stats is valid JSON");
        assert_eq!(value.get("ok").and_then(JsonValue::as_bool), Some(true));
        let result = value.get("result").expect("stats result").clone();
        if predicate(&result) {
            return result;
        }
        assert!(
            Instant::now() < deadline,
            "stats predicate never held; last: {}",
            result.render()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

// ---------------------------------------------------------------------

#[test]
fn concurrent_pipelined_clients_match_direct_execution() {
    let engine = shared_engine();
    let server = TestServer::start(ServeConfig::default());
    let addr = server.addr;
    let mix = test_mix(&engine);

    std::thread::scope(|scope| {
        for worker in 0..6 {
            let mix = &mix;
            let engine = &engine;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for burst in 0..5 {
                    // Pipeline a whole burst before reading anything.
                    let mut lines = Vec::new();
                    let mut wire_burst = Vec::new();
                    for index in 0..8 {
                        let line = &mix[(worker + burst * 3 + index) % mix.len()];
                        lines.push(line.clone());
                        wire_burst.extend_from_slice(line.as_bytes());
                        wire_burst.push(b'\n');
                    }
                    client.send(&wire_burst);
                    for line in &lines {
                        let reply = client.read_line().expect("pipelined reply");
                        assert_is_direct_execution(engine, line, &reply);
                    }
                }
            });
        }
    });

    let report = server.stop();
    assert_eq!(report.queries, 6 * 5 * 8);
    assert!(report.drained_cleanly);
}

#[test]
fn byte_at_a_time_writer_decodes_like_a_burst() {
    let engine = shared_engine();
    let server = TestServer::start(ServeConfig::default());
    let mut client = Client::connect(server.addr);
    let mix = test_mix(&engine);

    let mut stream_bytes = Vec::new();
    for line in &mix {
        stream_bytes.extend_from_slice(line.as_bytes());
        stream_bytes.push(b'\n');
    }
    for (index, byte) in stream_bytes.iter().enumerate() {
        client.send(std::slice::from_ref(byte));
        if index % 24 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    for line in &mix {
        let reply = client.read_line().expect("reply to trickled request");
        assert_is_direct_execution(&engine, line, &reply);
    }
    server.stop();
}

#[test]
fn stalled_readers_are_evicted_while_polite_clients_keep_being_served() {
    let engine = shared_engine();
    // A small write cap so a stalled reader trips eviction as soon as
    // the kernel's socket buffers stop soaking up responses.
    let server = TestServer::start(ServeConfig {
        write_buffer_cap: 2 * 1024,
        max_inflight: 64,
        ..ServeConfig::default()
    });

    // The staller pipelines tens of megabytes worth of responses — far
    // beyond anything loopback socket buffers can absorb (eviction only
    // fires on bytes the kernel *refused*, so the volume must defeat
    // send- and receive-buffer autotuning) — and never reads a single
    // byte. The writer runs on its own thread and tolerates the reset
    // the eviction will cause mid-send.
    let staller = Client::connect(server.addr);
    let mut writer_half = staller.stream.try_clone().expect("clone staller");
    let writer = std::thread::spawn(move || {
        let line: &[u8] = b"{\"query\": \"catalog\"}\n";
        for _ in 0..32_000 {
            if writer_half.write_all(line).is_err() {
                return; // evicted mid-send: exactly what we provoke
            }
        }
    });

    // A polite client on the same server stays fully functional the
    // whole time.
    let mut polite = Client::connect(server.addr);
    for _ in 0..20 {
        for line in test_mix(&engine) {
            polite.send(format!("{line}\n").as_bytes());
            let reply = polite.read_line().expect("polite reply");
            assert_is_direct_execution(&engine, &line, &reply);
        }
    }
    writer.join().expect("staller writer thread");

    // The eviction must land while the staller is still *not reading*.
    // Its 32,000 requests fit in kernel buffers, so the writer can be
    // done long before the server has produced enough unread responses
    // to be refused; draining below without waiting would turn this
    // test into the reader that rescues the staller.
    wait_for_stats(&mut polite, |stats| {
        stats.get("evicted").and_then(JsonValue::as_u64) >= Some(1)
    });

    // The staller's connection must be torn down by the server (EOF or
    // reset) — not kept buffering forever.
    let mut reader = staller.reader;
    let mut sink = vec![0u8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        use std::io::Read;
        match reader.read(&mut sink) {
            Ok(0) => break,  // EOF after whatever had flushed
            Ok(_) => {}      // draining the bytes that made it out
            Err(_) => break, // RST: the other legal face of eviction
        }
        assert!(Instant::now() < deadline, "staller never torn down");
    }

    let report = server.stop();
    assert!(report.evicted >= 1, "staller was never evicted: {report:?}");
}

#[test]
fn mid_request_disconnects_never_wedge_or_leak_connections() {
    let engine = shared_engine();
    let server = TestServer::start(ServeConfig::default());

    for round in 0..30 {
        // Half a frame, then vanish.
        let mut half = Client::connect(server.addr);
        half.send(b"{\"query\": \"catal");
        drop(half);
        // Two full requests and a torn third, then vanish mid-pipeline.
        let mut torn = Client::connect(server.addr);
        torn.send(b"{\"query\": \"catalog\"}\n{\"query\": \"transitions\"}\n{\"query\": \"ven");
        drop(torn);
        // Every few rounds, a zero-byte connection.
        if round % 3 == 0 {
            drop(Client::connect(server.addr));
        }
    }

    // The server reaps them all: eventually only the stats connection
    // remains, and it still answers data queries correctly.
    let mut observer = Client::connect(server.addr);
    wait_for_stats(&mut observer, |stats| {
        stats.get("connections").and_then(JsonValue::as_u64) == Some(1)
    });
    let line = "{\"query\": \"catalog\"}";
    observer.send(format!("{line}\n").as_bytes());
    let reply = observer.read_line().expect("post-torture reply");
    assert_is_direct_execution(&engine, line, &reply);
    server.stop();
}

#[test]
fn hostile_frames_get_typed_errors_then_the_conversation_ends() {
    let server = TestServer::start(ServeConfig {
        max_frame_bytes: 4 * 1024,
        ..ServeConfig::default()
    });

    // Oversized frame → typed error, then EOF.
    let mut client = Client::connect(server.addr);
    let huge = vec![b'x'; 64 * 1024];
    client.send(&huge);
    client.send(b"\n");
    let reply = client.read_line().expect("error envelope");
    assert!(
        reply.contains("\"ok\": false") && reply.contains("exceeds"),
        "{reply}"
    );
    assert_eq!(client.read_line(), None, "connection should close");

    // NUL byte → typed error, then EOF.
    let mut client = Client::connect(server.addr);
    client.send(b"{\"query\": \"cat\0alog\"}\n");
    let reply = client.read_line().expect("error envelope");
    assert!(reply.contains("NUL"), "{reply}");
    assert_eq!(client.read_line(), None);

    // Invalid UTF-8 → typed error, then EOF.
    let mut client = Client::connect(server.addr);
    client.send(b"\xff\xfe\xfd\n");
    let reply = client.read_line().expect("error envelope");
    assert!(reply.contains("UTF-8"), "{reply}");
    assert_eq!(client.read_line(), None);

    // Unterminated frame at EOF → typed error flushed before close.
    let mut client = Client::connect(server.addr);
    client.send(b"{\"query\": \"catalog\"}\n{\"query\": \"half");
    client.stream.shutdown(std::net::Shutdown::Write).unwrap();
    let first = client.read_line().expect("pipelined reply");
    assert!(first.contains("\"ok\": true"), "{first}");
    let second = client.read_line().expect("unterminated error");
    assert!(second.contains("mid-request"), "{second}");
    assert_eq!(client.read_line(), None);

    server.stop();
}

#[test]
fn quit_flushes_already_pipelined_responses_then_closes() {
    let engine = shared_engine();
    let server = TestServer::start(ServeConfig::default());
    let mut client = Client::connect(server.addr);
    let mix = test_mix(&engine);

    let mut burst = Vec::new();
    for line in &mix {
        burst.extend_from_slice(line.as_bytes());
        burst.push(b'\n');
    }
    burst.extend_from_slice(b"quit\n{\"query\": \"catalog\"}\n");
    client.send(&burst);

    for line in &mix {
        let reply = client.read_line().expect("pre-quit reply");
        assert_is_direct_execution(&engine, line, &reply);
    }
    // The request pipelined *after* quit is never answered.
    assert_eq!(client.read_line(), None);
    server.stop();
}

/// The satellite regression: under the old thread-per-connection
/// daemon, `shutdown` acked on its own connection and called
/// `exit(0)`, racing every response still queued on *other*
/// connections. The event loop must drain them: requests accepted
/// before the shutdown always produce complete, correct responses.
#[test]
fn shutdown_drains_queued_responses_on_other_connections() {
    let engine = shared_engine();
    let server = TestServer::start(ServeConfig::default());
    let mix = test_mix(&engine);

    // Connection A pipelines a pile of data queries and reads NOTHING
    // yet — its responses are exactly the "queued on another
    // connection" state the old daemon dropped.
    let mut a = Client::connect(server.addr);
    let pipelined = 12usize;
    let mut burst = Vec::new();
    let mut lines = Vec::new();
    for index in 0..pipelined {
        let line = &mix[index % mix.len()];
        lines.push(line.clone());
        burst.extend_from_slice(line.as_bytes());
        burst.push(b'\n');
    }
    a.send(&burst);

    // Connection B waits until the server has *accepted* all of A's
    // requests (stats counts data queries at assignment), then fires
    // the shutdown. This sequencing provokes the old race
    // deterministically instead of hoping a sleep lands in the window.
    let mut b = Client::connect(server.addr);
    wait_for_stats(&mut b, |stats| {
        stats.get("queries").and_then(JsonValue::as_u64) >= Some(pipelined as u64)
    });
    b.send(b"{\"query\": \"shutdown\"}\n");
    let ack = b.read_line().expect("shutdown ack");
    assert!(ack.contains("shutting down"), "{ack}");

    // A must now receive every one of its responses, byte-identical to
    // direct execution, before the listener goes away.
    for line in &lines {
        let reply = a
            .read_line()
            .unwrap_or_else(|| panic!("response dropped by shutdown for {line}"));
        assert_is_direct_execution(&engine, line, &reply);
    }
    assert_eq!(a.read_line(), None, "clean EOF after the drain");

    let report = server.stop();
    assert!(report.drained_cleanly, "drain aborted: {report:?}");
    assert_eq!(report.queries, pipelined as u64);
}

#[test]
fn stats_reports_epoch_connections_and_counters() {
    let engine = shared_engine();
    let server = TestServer::start(ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr);
    let stats = wait_for_stats(&mut client, |_| true);
    assert_eq!(
        stats.get("epoch").and_then(JsonValue::as_u64),
        Some(engine.epoch())
    );
    assert_eq!(stats.get("workers").and_then(JsonValue::as_u64), Some(3));
    assert_eq!(
        stats.get("connections").and_then(JsonValue::as_u64),
        Some(1)
    );
    assert_eq!(
        stats.get("draining").and_then(JsonValue::as_bool),
        Some(false)
    );

    // Counters move: issue data queries, watch `queries`/`completed`.
    client.send(b"{\"query\": \"catalog\"}\n{\"query\": \"transitions\"}\n");
    client.read_line().expect("catalog reply");
    client.read_line().expect("transitions reply");
    let stats = wait_for_stats(&mut client, |stats| {
        stats.get("completed").and_then(JsonValue::as_u64) >= Some(2)
    });
    assert!(stats.get("queries").and_then(JsonValue::as_u64) >= Some(2));
    server.stop();
}

// ---------------------------------------------------------------------
// Multi-loop rows: the same invariants must hold when the serving core
// is sharded across independent event loops.
// ---------------------------------------------------------------------

#[test]
fn four_loop_pipelined_clients_match_direct_execution() {
    let engine = shared_engine();
    let server = TestServer::start(ServeConfig {
        loops: 4,
        ..ServeConfig::default()
    });
    let addr = server.addr;
    let mix = test_mix(&engine);

    // Eight concurrent clients land two per shard (round-robin by
    // accept order); every reply must still be byte-identical to
    // direct execution, wherever the connection landed.
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let mix = &mix;
            let engine = &engine;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for burst in 0..5 {
                    let mut lines = Vec::new();
                    let mut wire_burst = Vec::new();
                    for index in 0..8 {
                        let line = &mix[(worker + burst * 3 + index) % mix.len()];
                        lines.push(line.clone());
                        wire_burst.extend_from_slice(line.as_bytes());
                        wire_burst.push(b'\n');
                    }
                    client.send(&wire_burst);
                    for line in &lines {
                        let reply = client.read_line().expect("pipelined reply");
                        assert_is_direct_execution(engine, line, &reply);
                    }
                }
            });
        }
    });

    let report = server.stop();
    assert_eq!(report.loops, 4);
    assert_eq!(report.queries, 8 * 5 * 8);
    assert!(report.drained_cleanly);
    assert_eq!(report.shards_drained, 4, "a shard aborted its drain");
}

#[test]
fn stats_aggregates_across_shards_with_a_per_shard_breakdown() {
    let engine = shared_engine();
    let server = TestServer::start(ServeConfig {
        loops: 4,
        workers: 1,
        ..ServeConfig::default()
    });

    // Four clients, one per shard by round-robin; each issues two data
    // queries so every shard's counters move.
    let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(server.addr)).collect();
    for client in &mut clients {
        client.send(b"{\"query\": \"catalog\"}\n{\"query\": \"transitions\"}\n");
        client.read_line().expect("catalog reply");
        client.read_line().expect("transitions reply");
    }

    let stats = wait_for_stats(&mut clients[0], |stats| {
        stats.get("completed").and_then(JsonValue::as_u64) >= Some(8)
    });
    assert_eq!(stats.get("loops").and_then(JsonValue::as_u64), Some(4));
    // 1 worker per shard × 4 shards.
    assert_eq!(stats.get("workers").and_then(JsonValue::as_u64), Some(4));
    assert_eq!(
        stats.get("epoch").and_then(JsonValue::as_u64),
        Some(engine.epoch())
    );
    assert_eq!(
        stats.get("connections").and_then(JsonValue::as_u64),
        Some(4)
    );

    // The per-shard breakdown is present, one row per shard, and its
    // columns sum to the aggregate — the torn-read-free contract: each
    // row is one shard's consistent snapshot.
    let rows = stats
        .get("per_shard")
        .and_then(JsonValue::as_array)
        .expect("per_shard array");
    assert_eq!(rows.len(), 4);
    let column = |name: &str| -> u64 {
        rows.iter()
            .map(|row| row.get(name).and_then(JsonValue::as_u64).unwrap_or(0))
            .sum()
    };
    for (index, row) in rows.iter().enumerate() {
        assert_eq!(
            row.get("shard").and_then(JsonValue::as_u64),
            Some(index as u64)
        );
        // Round-robin spread the 4 clients one per shard, and each
        // issued queries — no shard sat idle.
        assert_eq!(row.get("connections").and_then(JsonValue::as_u64), Some(1));
        assert!(row.get("queries").and_then(JsonValue::as_u64) >= Some(2));
    }
    assert_eq!(
        Some(column("connections")),
        stats.get("connections").and_then(JsonValue::as_u64)
    );
    assert_eq!(
        Some(column("queries")),
        stats.get("queries").and_then(JsonValue::as_u64)
    );
    server.stop();
}

/// The drain-before-exit satellite at four loops: responses queued on
/// connections owned by *every* shard survive a shutdown fired on one
/// of them.
#[test]
fn shutdown_at_four_loops_drains_every_shard() {
    let engine = shared_engine();
    let server = TestServer::start(ServeConfig {
        loops: 4,
        ..ServeConfig::default()
    });
    let mix = test_mix(&engine);

    // One unread pipelined burst per shard (round-robin: the first four
    // connections land on shards 0..3).
    let per_conn = 6usize;
    let mut pipeliners: Vec<(Client, Vec<String>)> = Vec::new();
    for offset in 0..4 {
        let mut client = Client::connect(server.addr);
        let mut burst = Vec::new();
        let mut lines = Vec::new();
        for index in 0..per_conn {
            let line = &mix[(offset + index) % mix.len()];
            lines.push(line.clone());
            burst.extend_from_slice(line.as_bytes());
            burst.push(b'\n');
        }
        client.send(&burst);
        pipeliners.push((client, lines));
    }

    // Fire the shutdown only after every request is admitted somewhere.
    let mut trigger = Client::connect(server.addr);
    wait_for_stats(&mut trigger, |stats| {
        stats.get("queries").and_then(JsonValue::as_u64) >= Some((4 * per_conn) as u64)
    });
    trigger.send(b"{\"query\": \"shutdown\"}\n");
    let ack = trigger.read_line().expect("shutdown ack");
    assert!(ack.contains("shutting down"), "{ack}");

    for (mut client, lines) in pipeliners {
        for line in &lines {
            let reply = client
                .read_line()
                .unwrap_or_else(|| panic!("shutdown dropped a response for {line}"));
            assert_is_direct_execution(&engine, line, &reply);
        }
        assert_eq!(client.read_line(), None, "clean EOF after the drain");
    }

    let report = server.stop();
    assert!(report.drained_cleanly, "drain aborted: {report:?}");
    assert_eq!(report.shards_drained, 4, "some shard did not drain");
    assert_eq!(report.queries, (4 * per_conn) as u64);
}

/// The eviction-isolation satellite: at two loops, a stalled reader
/// evicted on shard A must never stall — or evict — a polite client on
/// shard B. Round-robin placement makes the assignment deterministic:
/// the first connection lands on shard 0, the second on shard 1.
#[test]
fn evicted_reader_on_one_shard_never_stalls_the_other() {
    let engine = shared_engine();
    let server = TestServer::start(ServeConfig {
        loops: 2,
        write_buffer_cap: 2 * 1024,
        max_inflight: 64,
        ..ServeConfig::default()
    });

    // Connection #1 → shard 0: pipelines far more response bytes than
    // the kernel can absorb and never reads.
    let staller = Client::connect(server.addr);
    let mut writer_half = staller.stream.try_clone().expect("clone staller");
    let writer = std::thread::spawn(move || {
        let line: &[u8] = b"{\"query\": \"catalog\"}\n";
        for _ in 0..32_000 {
            if writer_half.write_all(line).is_err() {
                return;
            }
        }
    });

    // Connection #2 → shard 1: stays fully served throughout.
    let mut polite = Client::connect(server.addr);
    for _ in 0..20 {
        for line in test_mix(&engine) {
            polite.send(format!("{line}\n").as_bytes());
            let reply = polite.read_line().expect("polite reply");
            assert_is_direct_execution(&engine, &line, &reply);
        }
    }
    writer.join().expect("staller writer thread");

    // The eviction is attributed to shard 0, and shard 1 evicted
    // nobody: the cap accounting moved with the connection to its
    // shard.
    let stats = wait_for_stats(&mut polite, |stats| {
        stats.get("evicted").and_then(JsonValue::as_u64) >= Some(1)
    });
    let rows = stats
        .get("per_shard")
        .and_then(JsonValue::as_array)
        .expect("per_shard array");
    assert_eq!(rows.len(), 2);
    assert!(
        rows[0].get("evicted").and_then(JsonValue::as_u64) >= Some(1),
        "staller not evicted on its own shard: {}",
        stats.render()
    );
    assert_eq!(
        rows[1].get("evicted").and_then(JsonValue::as_u64),
        Some(0),
        "the polite client's shard evicted someone: {}",
        stats.render()
    );

    let report = server.stop();
    assert!(report.evicted >= 1, "staller was never evicted: {report:?}");
}

// ---------------------------------------------------------------------
// Inline answers: the loop serves resident results itself and queues
// only misses. Replies must not care which path a request took.
// ---------------------------------------------------------------------

/// A fresh engine over the shared world: its own, empty result cache.
fn fresh_engine() -> Arc<QueryEngine> {
    Arc::new(QueryEngine::new(Arc::clone(shared_engine().world())))
}

/// One connection per shard pipelines resident hits interleaved with
/// first-time misses. Each reply must arrive in request order and be
/// byte-identical to `answer_line` on an engine that saw the same
/// requests in the same order — `cached` flag included, so a hit really
/// came from the cache and a miss really executed.
#[test]
fn interleaved_hits_and_misses_reply_in_order_like_answer_line() {
    for loops in [1usize, 4] {
        let engine = fresh_engine();
        let oracle = fresh_engine();
        let server = TestServer::start_on(
            Arc::clone(&engine),
            ServeConfig {
                loops,
                ..ServeConfig::default()
            },
        );
        let addr = server.addr;

        // Round-robin accept order puts connection `c` on shard `c`.
        std::thread::scope(|scope| {
            for conn in 0..loops {
                let oracle = &oracle;
                scope.spawn(move || {
                    let base = conn * 8;
                    let hits: Vec<String> = (base..base + 4)
                        .map(|hops| format!("{{\"query\": \"transitions\", \"min_hops\": {hops}}}"))
                        .collect();
                    let misses: Vec<String> = (base..base + 4)
                        .map(|hops| {
                            format!("{{\"query\": \"longest_runs\", \"min_hops\": {hops}}}")
                        })
                        .collect();
                    let mut client = Client::connect(addr);
                    // Make the hits resident on this connection's shard.
                    for line in &hits {
                        client.send(format!("{line}\n").as_bytes());
                        let reply = client.read_line().expect("warm reply");
                        assert_eq!(reply, answer_line(line, oracle), "[{loops} loops] {line}");
                    }
                    let pipeline: Vec<&String> = hits
                        .iter()
                        .zip(&misses)
                        .flat_map(|(hit, miss)| [hit, miss])
                        .chain(&hits[..2])
                        .collect();
                    let burst: String = pipeline.iter().map(|line| format!("{line}\n")).collect();
                    client.send(burst.as_bytes());
                    for line in pipeline {
                        let reply = client.read_line().expect("pipelined reply");
                        assert_eq!(reply, answer_line(line, oracle), "[{loops} loops] {line}");
                    }
                });
            }
        });

        let report = server.stop();
        assert_eq!(report.queries, (loops * 14) as u64);
        assert_eq!(report.completed, (loops * 14) as u64);
        assert!(report.drained_cleanly);
        // One lookup per request: the six pipelined hits per connection
        // on the loop, the four warm-ups and four misses in the workers.
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            ((loops * 6) as u64, (loops * 8) as u64)
        );
    }
}

/// The fence binds inline answers exactly as it binds executed ones: a
/// resident result asked for with `min_epoch` above the engine's epoch
/// gets the typed `stale_epoch` refusal, and with a passing fence it is
/// the same cache entry the unfenced request filled.
#[test]
fn inline_hits_honour_the_min_epoch_fence_and_share_the_unfenced_entry() {
    let engine = fresh_engine();
    let oracle = fresh_engine();
    let server = TestServer::start_on(Arc::clone(&engine), ServeConfig::default());
    let mut client = Client::connect(server.addr);
    let mut ask = |line: &str| {
        client.send(format!("{line}\n").as_bytes());
        client.read_line().expect("reply")
    };

    let line = "{\"query\": \"longest_runs\", \"min_hops\": 3}";
    assert_eq!(ask(line), answer_line(line, &oracle), "cold fill");
    let refused = ask("{\"query\": \"longest_runs\", \"min_hops\": 3, \"min_epoch\": 1}");
    assert_eq!(refused, wire::stale_epoch_envelope(0, 1));
    let passing = ask("{\"query\": \"longest_runs\", \"min_hops\": 3, \"min_epoch\": 0}");
    let warm = answer_line(line, &oracle);
    assert!(warm.contains("\"cached\": true"), "{warm}");
    assert_eq!(passing, warm, "the fenced hit is the unfenced entry");
    // The refusal never probed the cache; the passing fence hit it.
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

    server.stop();
}

/// Stopping a server whose shards sleep in their idle poll returns at
/// once: the stop wakes the poll, the shard re-checks the flag and exits
/// that same iteration instead of running one more and sleeping the
/// drain poll (which made every idle stop take ≥ 20 ms). An idle
/// connection is open throughout. The fastest of three stops is judged,
/// so one descheduling of a thread on a shared host cannot fail it.
#[test]
fn stopping_an_idle_server_returns_within_five_milliseconds() {
    let mut fastest = Duration::MAX;
    for _ in 0..3 {
        let server = TestServer::start(ServeConfig::default());
        let _idle = Client::connect(server.addr);
        // Long enough for the connection to be adopted and every shard
        // to fall asleep in its 200 ms idle poll.
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        let report = server.stop();
        fastest = fastest.min(start.elapsed());
        assert!(report.drained_cleanly, "{report:?}");
    }
    assert!(
        fastest < Duration::from_millis(5),
        "idle stop took {fastest:?}"
    );
}
