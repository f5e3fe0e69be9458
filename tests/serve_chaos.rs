//! Chaos matrix for the serving core: seeded fault schedules × live
//! pipelined clients.
//!
//! [`FaultPolicy`] sits between the event loop and the kernel (the
//! [`IoPolicy`] seam), injecting short reads/writes, `EINTR`, spurious
//! `EAGAIN`, spurious poll wakeups, mid-stream resets, and stalled-write
//! windows from a seeded schedule. The invariants under test:
//!
//! * **noise never corrupts**: on every connection that survives, every
//!   response is byte-identical to direct `QueryEngine` execution;
//! * **kills never wedge**: resets lose connections, not the server —
//!   reconnecting clients always finish their workload;
//! * **overload is typed**: shed and deadline-expired requests get the
//!   machine-readable `overloaded` envelope with a retry hint, never a
//!   dropped or mangled reply;
//! * the whole schedule replays from its seed, so a failure here is
//!   reproducible by construction.

use lfp::query::{wire, QueryEngine, Response};
use lfp::serve::{
    DirectIo, EngineSource, FaultCounters, FaultPlan, FaultPolicy, IoPolicy, ObsHandle, PolicySlot,
    ServeConfig, ServeReport, Server, ServerHandle,
};
use lfp::topo::Scale;
use lfp_analysis::json::{parse, JsonValue};
use lfp_analysis::World;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// One tiny world / engine shared by every test in the binary.
fn shared_engine() -> Arc<QueryEngine> {
    static ENGINE: OnceLock<Arc<QueryEngine>> = OnceLock::new();
    Arc::clone(
        ENGINE.get_or_init(|| Arc::new(QueryEngine::new(Arc::new(World::build(Scale::tiny()))))),
    )
}

struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    /// Outlives the run: the final exposition after [`stop`](Self::stop).
    obs: ObsHandle,
    thread: Option<JoinHandle<ServeReport>>,
}

impl TestServer {
    /// Serve with `factory` choosing the policy of every slot — the
    /// acceptor's and each shard's; each slot owns what it is handed.
    fn start(
        config: ServeConfig,
        factory: impl FnMut(PolicySlot) -> Box<dyn IoPolicy>,
    ) -> TestServer {
        TestServer::start_on(shared_engine(), config, factory)
    }

    /// [`start`](Self::start) over a given engine — one whose cache
    /// state the test controls.
    fn start_on(
        engine: Arc<QueryEngine>,
        config: ServeConfig,
        factory: impl FnMut(PolicySlot) -> Box<dyn IoPolicy>,
    ) -> TestServer {
        let source: Arc<dyn EngineSource> = Arc::new(move || Arc::clone(&engine));
        let server =
            Server::bind_with_policy_factory("127.0.0.1:0", config, source, factory).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let obs = server.obs_handle();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            handle,
            obs,
            thread: Some(thread),
        }
    }

    /// Chaos at any loop count: every slot runs its own lane of `plan`
    /// (`seed ⊕ shard_id` per shard, the acceptor lane for the acceptor
    /// — the determinism contract in `lfp_serve::policy`).
    fn start_faulted(config: ServeConfig, plan: FaultPlan) -> TestServer {
        TestServer::start(config, move |slot| {
            Box::new(FaultPolicy::new(plan.for_slot(slot)))
        })
    }

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

/// A deterministic pipeline mix covering every query kind.
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
    let query = wire::decode(line).expect("mix lines decode");
    let payload = engine.execute_uncached(&query).expect("mix lines execute");
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

// ---------------------------------------------------------------------
// Matrix row 1–4: noise schedules that never kill a connection. Every
// pipelined client on every schedule must see byte-identical replies.
// ---------------------------------------------------------------------

/// The no-kill rows of the chaos matrix: distinct fault mixes (and a
/// reseeded replay of the first) under which **no** connection dies, so
/// **every** response must arrive byte-identical.
fn noise_schedules() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("light-1", FaultPlan::light(1)),
        ("light-4242", FaultPlan::light(4242)),
        (
            "read-noise",
            FaultPlan {
                short_read: 2,
                eintr: 3,
                eagain: 5,
                ..FaultPlan::quiet(7)
            },
        ),
        (
            "write-noise",
            FaultPlan {
                short_write: 2,
                stall_write: 17,
                stall_ops: 5,
                eintr: 9,
                ..FaultPlan::quiet(11)
            },
        ),
        (
            "wakeup-storm",
            FaultPlan {
                spurious_wakeup: 2,
                eagain: 3,
                ..FaultPlan::quiet(13)
            },
        ),
    ]
}

#[test]
fn noise_matrix_keeps_every_pipelined_reply_byte_identical() {
    let engine = shared_engine();
    let mix = test_mix(&engine);

    for (name, plan) in noise_schedules() {
        let server = TestServer::start_faulted(ServeConfig::default(), plan);
        let addr = server.addr;

        std::thread::scope(|scope| {
            for worker in 0..4 {
                let mix = &mix;
                let engine = &engine;
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).ok();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .expect("read timeout");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    for burst in 0..4 {
                        let mut lines = Vec::new();
                        let mut bytes = Vec::new();
                        for index in 0..6 {
                            let line = &mix[(worker + burst * 2 + index) % mix.len()];
                            lines.push(line.clone());
                            bytes.extend_from_slice(line.as_bytes());
                            bytes.push(b'\n');
                        }
                        (&stream).write_all(&bytes).expect("burst write");
                        for line in &lines {
                            let mut reply = String::new();
                            let n = reader.read_line(&mut reply).expect("reply read");
                            assert!(n > 0, "[{name}] connection died under a no-kill plan");
                            assert_is_direct_execution(engine, line, reply.trim_end());
                        }
                    }
                });
            }
        });

        let report = server.stop();
        assert_eq!(report.queries, 4 * 4 * 6, "[{name}] lost requests");
        assert!(report.drained_cleanly, "[{name}] drain aborted");
        assert!(
            report.injected_faults > 0,
            "[{name}] schedule injected nothing — the row tests nothing"
        );
    }
}

// ---------------------------------------------------------------------
// Matrix row: the noise schedules again, at four loops. Each shard runs
// an independent lane of the same seeded plan; the semantics must be
// unchanged — byte-identical replies, zero lost-acknowledged responses,
// a drain that empties every shard.
// ---------------------------------------------------------------------

#[test]
fn noise_matrix_at_four_loops_keeps_every_reply_byte_identical() {
    let engine = shared_engine();
    let mix = test_mix(&engine);

    for (name, plan) in noise_schedules() {
        let server = TestServer::start_faulted(
            ServeConfig {
                loops: 4,
                ..ServeConfig::default()
            },
            plan,
        );
        let addr = server.addr;

        // Eight clients → two per shard by round-robin accept order.
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let mix = &mix;
                let engine = &engine;
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).ok();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .expect("read timeout");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    for burst in 0..4 {
                        let mut lines = Vec::new();
                        let mut bytes = Vec::new();
                        for index in 0..6 {
                            let line = &mix[(worker + burst * 2 + index) % mix.len()];
                            lines.push(line.clone());
                            bytes.extend_from_slice(line.as_bytes());
                            bytes.push(b'\n');
                        }
                        (&stream).write_all(&bytes).expect("burst write");
                        for line in &lines {
                            let mut reply = String::new();
                            let n = reader.read_line(&mut reply).expect("reply read");
                            assert!(
                                n > 0,
                                "[{name}/4-loop] connection died under a no-kill plan"
                            );
                            assert_is_direct_execution(engine, line, reply.trim_end());
                        }
                    }
                });
            }
        });

        let report = server.stop();
        // Zero lost-acknowledged: every request got its reply above, and
        // the server's own accounting agrees nothing vanished.
        assert_eq!(report.queries, 8 * 4 * 6, "[{name}/4-loop] lost requests");
        assert_eq!(
            report.completed,
            8 * 4 * 6,
            "[{name}/4-loop] a completion never reached its connection"
        );
        assert!(report.drained_cleanly, "[{name}/4-loop] drain aborted");
        assert_eq!(
            report.shards_drained, 4,
            "[{name}/4-loop] a shard did not drain before exit"
        );
        assert!(
            report.injected_faults > 0,
            "[{name}/4-loop] schedule injected nothing — the row tests nothing"
        );
    }
}

// ---------------------------------------------------------------------
// Matrix row: kills. Mid-stream resets may sever connections; clients
// reconnect and re-issue. Nothing may wedge, and every reply that does
// arrive over a surviving connection is byte-identical.
// ---------------------------------------------------------------------

#[test]
fn aggressive_resets_lose_connections_not_correctness() {
    let engine = shared_engine();
    let mix = test_mix(&engine);
    let server = TestServer::start_faulted(ServeConfig::default(), FaultPlan::aggressive(33));
    let addr = server.addr;

    std::thread::scope(|scope| {
        for worker in 0..4 {
            let mix = &mix;
            let engine = &engine;
            scope.spawn(move || {
                // The workload: 24 requests that must each eventually be
                // answered correctly, across however many connections
                // the resets force.
                let todo: Vec<&String> = (0..24)
                    .map(|index| &mix[(worker + index) % mix.len()])
                    .collect();
                let mut answered = 0usize;
                let mut reconnects = 0usize;
                while answered < todo.len() {
                    assert!(
                        reconnects < 500,
                        "retry budget exhausted: {answered}/{} answered",
                        todo.len()
                    );
                    let Ok(stream) = TcpStream::connect(addr) else {
                        reconnects += 1;
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    };
                    stream.set_nodelay(true).ok();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .expect("read timeout");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    // Pipeline the whole remainder, then read until the
                    // connection dies or the remainder is answered.
                    let mut bytes = Vec::new();
                    for line in &todo[answered..] {
                        bytes.extend_from_slice(line.as_bytes());
                        bytes.push(b'\n');
                    }
                    if (&stream).write_all(&bytes).is_err() {
                        reconnects += 1;
                        continue; // reset mid-send: reconnect, re-issue
                    }
                    while answered < todo.len() {
                        let mut reply = String::new();
                        match reader.read_line(&mut reply) {
                            // A complete frame is sacred: byte-identical
                            // or the server corrupted data under chaos.
                            Ok(n) if n > 0 && reply.ends_with('\n') => {
                                assert_is_direct_execution(
                                    engine,
                                    todo[answered],
                                    reply.trim_end(),
                                );
                                answered += 1;
                            }
                            // EOF or a torn tail: the reset landed
                            // mid-reply. The unacknowledged remainder is
                            // re-issued on a fresh connection.
                            Ok(_) => break,
                            Err(_) => break,
                        }
                    }
                    reconnects += 1;
                }
            });
        }
    });

    let report = server.stop();
    assert!(
        report.injected_faults > 0,
        "aggressive plan injected nothing"
    );
    // Every re-issued request was admitted afresh, so the server saw at
    // least the workload total.
    assert!(report.queries >= 4 * 24, "requests lost: {report:?}");
}

// ---------------------------------------------------------------------
// Matrix row: overload. A one-worker server with a tiny admission
// watermark sheds pipelined bursts with the typed `overloaded` error —
// every request still gets exactly one reply, in order. Only queued work
// fills the watermark (a resident answer is served on the loop), so the
// burst is of distinct queries on an engine whose cache is still empty.
// ---------------------------------------------------------------------

#[test]
fn watermark_sheds_bursts_with_typed_overloaded_errors() {
    let engine = Arc::new(QueryEngine::new(Arc::clone(shared_engine().world())));
    let server = TestServer::start_on(
        Arc::clone(&engine),
        ServeConfig {
            workers: 1,
            queue_watermark: 1,
            retry_hint_ms: 7,
            ..ServeConfig::default()
        },
        |_| Box::new(DirectIo),
    );

    let stream = TcpStream::connect(server.addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // One 32-request burst in a single write: the pump admits at most
    // the watermark's worth and sheds the rest of the batch.
    let burst = 32usize;
    let lines: Vec<String> = (0..burst)
        .map(|hops| format!("{{\"query\": \"longest_runs\", \"min_hops\": {hops}}}"))
        .collect();
    let mut bytes = Vec::new();
    for line in &lines {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    (&stream).write_all(&bytes).expect("burst write");

    let mut served = 0usize;
    let mut shed = 0usize;
    for line in &lines {
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).expect("reply") > 0);
        let reply = reply.trim_end();
        match wire::overload_retry_ms(reply) {
            Some(hint) => {
                assert_eq!(hint, 7, "shed reply must carry the configured hint");
                assert!(reply.contains("\"error\": \"overloaded\""), "{reply}");
                shed += 1;
            }
            None => {
                assert_is_direct_execution(&engine, line, reply);
                served += 1;
            }
        }
    }
    assert!(served >= 1, "watermark shed the entire burst");
    assert!(shed >= 1, "a 32-deep burst over watermark 1 never shed");

    // The shed counter is observable over the wire, not just in the
    // exit report.
    (&stream)
        .write_all(b"{\"query\": \"stats\"}\n")
        .expect("stats");
    let mut stats_reply = String::new();
    reader.read_line(&mut stats_reply).expect("stats reply");
    let stats = parse(stats_reply.trim_end()).expect("stats JSON");
    let result = stats.get("result").expect("stats result");
    assert_eq!(
        result.get("shed").and_then(JsonValue::as_u64),
        Some(shed as u64)
    );

    let report = server.stop();
    assert_eq!(report.shed, shed as u64);
    assert_eq!(report.queries, served as u64);
}

// ---------------------------------------------------------------------
// Matrix row: deadlines. With a zero request deadline every admitted
// job expires before its worker reaches it — the reply is the typed
// `overloaded` envelope with reason `deadline`, never silence.
// ---------------------------------------------------------------------

#[test]
fn expired_deadlines_answer_typed_overloaded_not_silence() {
    let server = TestServer::start(
        ServeConfig {
            request_deadline: Duration::from_millis(0),
            retry_hint_ms: 9,
            ..ServeConfig::default()
        },
        |_| Box::new(DirectIo),
    );

    let stream = TcpStream::connect(server.addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    for _ in 0..4 {
        (&stream)
            .write_all(b"{\"query\": \"catalog\"}\n")
            .expect("send");
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).expect("reply") > 0);
        let reply = reply.trim_end();
        assert_eq!(wire::overload_retry_ms(reply), Some(9), "{reply}");
        assert!(reply.contains("deadline"), "{reply}");
    }

    // Control queries bypass the worker queue: stats still answers.
    (&stream)
        .write_all(b"{\"query\": \"stats\"}\n")
        .expect("stats");
    let mut stats_reply = String::new();
    reader.read_line(&mut stats_reply).expect("stats reply");
    let stats = parse(stats_reply.trim_end()).expect("stats JSON");
    assert_eq!(stats.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        stats
            .get("result")
            .and_then(|result| result.get("deadline_expired"))
            .and_then(JsonValue::as_u64),
        Some(4)
    );

    let report = server.stop();
    assert_eq!(report.deadline_expired, 4);
}

// ---------------------------------------------------------------------
// Matrix row: accept-path EINTR. A policy that interrupts every other
// accept call — the loop's `Interrupted => continue` arm must retry so
// no connection is ever lost to a signal.
// ---------------------------------------------------------------------

/// Interrupts every odd-numbered accept call; everything else passes
/// straight through.
struct AcceptInterrupter {
    accepts: u64,
    injected: u64,
}

impl AcceptInterrupter {
    /// A policy factory: the interrupter owns the acceptor slot, every
    /// shard passes straight through.
    fn in_acceptor_slot(slot: PolicySlot) -> Box<dyn IoPolicy> {
        match slot {
            PolicySlot::Acceptor => Box::new(AcceptInterrupter {
                accepts: 0,
                injected: 0,
            }),
            PolicySlot::Shard(_) => Box::new(DirectIo),
        }
    }
}

impl IoPolicy for AcceptInterrupter {
    fn read(&mut self, conn: u64, stream: &TcpStream, buf: &mut [u8]) -> io::Result<usize> {
        DirectIo.read(conn, stream, buf)
    }

    fn write(&mut self, conn: u64, stream: &TcpStream, buf: &[u8]) -> io::Result<usize> {
        DirectIo.write(conn, stream, buf)
    }

    fn accept(&mut self, listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
        self.accepts += 1;
        if self.accepts % 2 == 1 {
            self.injected += 1;
            return Err(io::Error::from(io::ErrorKind::Interrupted));
        }
        listener.accept()
    }

    fn poll(&mut self, fds: &mut [lfp::serve::sys::PollFd], timeout_ms: i32) -> io::Result<usize> {
        DirectIo.poll(fds, timeout_ms)
    }

    fn counters(&self) -> FaultCounters {
        FaultCounters {
            eintr: self.injected,
            ..FaultCounters::default()
        }
    }
}

#[test]
fn interrupted_accepts_are_retried_never_dropped() {
    let engine = shared_engine();
    let server = TestServer::start(ServeConfig::default(), AcceptInterrupter::in_acceptor_slot);

    // Every one of these sequential connections hits at least one
    // injected EINTR on the accept path (every other call interrupts,
    // and each accepted connection consumes exactly one successful
    // call), yet all of them must be served.
    let line = "{\"query\": \"transitions\"}";
    for _ in 0..12 {
        let stream = TcpStream::connect(server.addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        (&stream)
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).expect("reply") > 0);
        assert_is_direct_execution(&engine, line, reply.trim_end());
    }

    let report = server.stop();
    assert_eq!(report.accepted, 12);
    assert!(
        report.injected_faults >= 12,
        "every connection should have cost one interrupted accept: {report:?}"
    );
}

// ---------------------------------------------------------------------
// Matrix row: the acceptor's faults are counted. At four loops the
// acceptor interrupts accepts while every shard runs its own noise
// lane; the exit report must carry the acceptor's injections *on top
// of* the shard lanes', and every reply stays byte-identical.
// ---------------------------------------------------------------------

#[test]
fn acceptor_faults_are_reported_alongside_shard_lanes_at_four_loops() {
    let engine = shared_engine();
    let mix = test_mix(&engine);
    let plan = FaultPlan::light(606);
    let server = TestServer::start(
        ServeConfig {
            loops: 4,
            ..ServeConfig::default()
        },
        move |slot| match slot {
            PolicySlot::Acceptor => AcceptInterrupter::in_acceptor_slot(slot),
            shard => Box::new(FaultPolicy::new(plan.for_slot(shard))),
        },
    );
    let addr = server.addr;

    // Eight clients → two per shard by round-robin accept order.
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let mix = &mix;
            let engine = &engine;
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).ok();
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let lines: Vec<&String> = (0..6).map(|i| &mix[(worker + i) % mix.len()]).collect();
                let mut bytes = Vec::new();
                for line in &lines {
                    bytes.extend_from_slice(line.as_bytes());
                    bytes.push(b'\n');
                }
                (&stream).write_all(&bytes).expect("burst write");
                for line in lines {
                    let mut reply = String::new();
                    let n = reader.read_line(&mut reply).expect("reply read");
                    assert!(n > 0, "connection died under a no-kill plan");
                    assert_is_direct_execution(engine, line, reply.trim_end());
                }
            });
        }
    });

    let obs = server.obs.clone();
    let report = server.stop();
    assert_eq!(report.accepted, 8);
    assert_eq!(report.queries, 8 * 6);
    assert_eq!(report.shards_drained, 4);
    // Each shard's last act is to publish its final counters, so the
    // post-run exposition holds exactly what the shard lanes injected;
    // the acceptor (one interrupted accept per connection, at least)
    // is the rest of the merged total.
    let shard_lanes = metric(
        &obs.metrics(&engine),
        "lfp_injected_faults_total",
        "shard=\"all\"",
    )
    .expect("injected-faults family");
    assert!(shard_lanes > 0, "the shard lanes injected nothing");
    assert!(
        report.injected_faults >= shard_lanes + report.accepted,
        "acceptor faults missing from the merged report: {report:?}, shard lanes {shard_lanes}"
    );
}

// ---------------------------------------------------------------------
// Matrix rows: the observability plane under chaos. Tracing is always
// on, so every row above already ran traced; these rows close the loop
// over the wire — after the workload quiesces, the daemon's exposition
// must reconcile exactly with what the clients acknowledged, and the
// injected-fault counters must surface in the scrape.
// ---------------------------------------------------------------------

/// One sample value out of a Prometheus text exposition. `labels` is
/// the rendered label block without braces (`shard="all"`), or empty
/// for an unlabelled sample.
fn metric(exposition: &str, name: &str, labels: &str) -> Option<u64> {
    let needle = if labels.is_empty() {
        format!("{name} ")
    } else {
        format!("{name}{{{labels}}} ")
    };
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(&needle)?.trim().parse().ok())
}

/// One control round trip on a fresh connection, parsed.
fn control_roundtrip(addr: SocketAddr, line: &str) -> JsonValue {
    let stream = TcpStream::connect(addr).expect("control connect");
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (&stream)
        .write_all(format!("{line}\n").as_bytes())
        .expect("control send");
    let mut reply = String::new();
    assert!(reader.read_line(&mut reply).expect("control reply") > 0);
    parse(reply.trim_end()).expect("control reply is JSON")
}

#[test]
fn metrics_reconcile_exactly_with_acknowledged_replies_under_noise() {
    let engine = shared_engine();
    let mix = test_mix(&engine);
    // Every fault class except kills, cranked. No connection may die,
    // so the client-side acknowledged count is exact — the number the
    // exposition's response ledger must hit.
    let plan = FaultPlan {
        short_read: 2,
        short_write: 2,
        eintr: 3,
        eagain: 4,
        spurious_wakeup: 3,
        stall_write: 13,
        stall_ops: 4,
        ..FaultPlan::quiet(21)
    };
    let server = TestServer::start_faulted(
        ServeConfig {
            slowlog_capacity: 8,
            ..ServeConfig::default()
        },
        plan,
    );
    let addr = server.addr;

    std::thread::scope(|scope| {
        for worker in 0..4 {
            let mix = &mix;
            let engine = &engine;
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).ok();
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                for burst in 0..4 {
                    let mut lines = Vec::new();
                    let mut bytes = Vec::new();
                    for index in 0..6 {
                        let line = &mix[(worker + burst * 2 + index) % mix.len()];
                        lines.push(line.clone());
                        bytes.extend_from_slice(line.as_bytes());
                        bytes.push(b'\n');
                    }
                    (&stream).write_all(&bytes).expect("burst write");
                    for line in &lines {
                        let mut reply = String::new();
                        let n = reader.read_line(&mut reply).expect("reply read");
                        assert!(n > 0, "connection died under a no-kill plan");
                        assert_is_direct_execution(engine, line, reply.trim_end());
                    }
                }
            });
        }
    });
    // 4 workers × 4 bursts × 6 requests, every single one acknowledged
    // with a byte-identical success above.
    let acknowledged = 4 * 4 * 6u64;

    // The workload has quiesced (every reply was read, so every flush
    // was recorded); scrape over the wire like an operator would.
    let reply = control_roundtrip(addr, "{\"query\": \"metrics\"}");
    assert_eq!(reply.get("ok").and_then(JsonValue::as_bool), Some(true));
    let exposition = reply
        .get("result")
        .and_then(JsonValue::as_str)
        .expect("metrics result is the escaped exposition text")
        .to_string();

    // The headline reconciliation: the response ledger equals the
    // client-side acknowledged count exactly — as a counter, as the
    // request histogram's count, and as its +Inf bucket.
    assert_eq!(
        metric(&exposition, "lfp_responses_total", "shard=\"all\""),
        Some(acknowledged),
        "exposition:\n{exposition}"
    );
    assert_eq!(
        metric(
            &exposition,
            "lfp_request_duration_us_count",
            "shard=\"all\""
        ),
        Some(acknowledged)
    );
    assert_eq!(
        metric(
            &exposition,
            "lfp_request_duration_us_bucket",
            "shard=\"all\",le=\"+Inf\""
        ),
        Some(acknowledged)
    );
    // Every stage histogram counts every response — stages a request
    // never entered surface as zero-valued samples, not gaps.
    for stage in [
        "accept",
        "queue",
        "claim",
        "execute",
        "plan",
        "cache_lookup",
        "render",
        "flush",
    ] {
        assert_eq!(
            metric(
                &exposition,
                "lfp_stage_duration_us_count",
                &format!("stage=\"{stage}\",shard=\"all\"")
            ),
            Some(acknowledged),
            "stage {stage} lost samples"
        );
    }
    assert_eq!(
        metric(&exposition, "lfp_queries_total", "shard=\"all\""),
        Some(acknowledged)
    );
    assert_eq!(
        metric(&exposition, "lfp_responses_dropped_total", "shard=\"all\""),
        Some(0)
    );
    // The chaos schedule itself is visible in the same scrape.
    assert!(
        metric(&exposition, "lfp_injected_faults_total", "shard=\"all\"").unwrap_or(0) > 0,
        "noise plan injected nothing"
    );

    // The slow-query log: full to its configured capacity, slowest
    // first, each entry carrying the per-stage breakdown.
    let reply = control_roundtrip(addr, "{\"query\": \"slowlog\"}");
    assert_eq!(reply.get("ok").and_then(JsonValue::as_bool), Some(true));
    let result = reply.get("result").expect("slowlog result");
    assert_eq!(result.get("capacity").and_then(JsonValue::as_u64), Some(8));
    let entries = result
        .get("entries")
        .and_then(JsonValue::as_array)
        .expect("slowlog entries");
    assert_eq!(entries.len(), 8, "96 requests must fill a capacity-8 log");
    let totals: Vec<u64> = entries
        .iter()
        .map(|e| {
            e.get("total_us")
                .and_then(JsonValue::as_u64)
                .expect("total_us")
        })
        .collect();
    assert!(
        totals.windows(2).all(|w| w[0] >= w[1]),
        "slowlog not sorted slowest-first: {totals:?}"
    );
    for entry in entries {
        let stages = entry.get("stages").expect("stages breakdown");
        for stage in ["accept", "queue", "claim", "execute", "flush"] {
            assert!(stages.get(stage).is_some(), "missing stage {stage}");
        }
        assert!(entry.get("query").is_some());
    }

    let report = server.stop();
    assert_eq!(report.queries, acknowledged);
}

#[test]
fn aggressive_chaos_surfaces_fault_counters_and_never_overcounts() {
    let engine = shared_engine();
    let mix = test_mix(&engine);
    let server = TestServer::start_faulted(ServeConfig::default(), FaultPlan::aggressive(77));
    let addr = server.addr;

    // The resilient-client workload from the reset row, counting the
    // acknowledged successes client-side.
    let acknowledged: u64 = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..2 {
            let mix = &mix;
            let engine = &engine;
            handles.push(scope.spawn(move || {
                let todo: Vec<&String> = (0..12)
                    .map(|index| &mix[(worker + index) % mix.len()])
                    .collect();
                let mut answered = 0usize;
                let mut reconnects = 0usize;
                while answered < todo.len() {
                    assert!(reconnects < 500, "retry budget exhausted");
                    let Ok(stream) = TcpStream::connect(addr) else {
                        reconnects += 1;
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    };
                    stream.set_nodelay(true).ok();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .expect("read timeout");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut bytes = Vec::new();
                    for line in &todo[answered..] {
                        bytes.extend_from_slice(line.as_bytes());
                        bytes.push(b'\n');
                    }
                    if (&stream).write_all(&bytes).is_err() {
                        reconnects += 1;
                        continue;
                    }
                    while answered < todo.len() {
                        let mut reply = String::new();
                        match reader.read_line(&mut reply) {
                            Ok(n) if n > 0 && reply.ends_with('\n') => {
                                assert_is_direct_execution(
                                    engine,
                                    todo[answered],
                                    reply.trim_end(),
                                );
                                answered += 1;
                            }
                            Ok(_) => break,
                            Err(_) => break,
                        }
                    }
                    reconnects += 1;
                }
                answered as u64
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    });

    // Scrape with retries: the aggressive policy can reset the scrape
    // connection too.
    let exposition = {
        let mut found = None;
        for _attempt in 0..200 {
            let Ok(stream) = TcpStream::connect(addr) else {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            };
            stream.set_nodelay(true).ok();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            let mut reader = BufReader::new(match stream.try_clone() {
                Ok(clone) => clone,
                Err(_) => continue,
            });
            if (&stream).write_all(b"{\"query\": \"metrics\"}\n").is_err() {
                continue;
            }
            let mut reply = String::new();
            match reader.read_line(&mut reply) {
                Ok(n) if n > 0 && reply.ends_with('\n') => {
                    if let Ok(value) = parse(reply.trim_end()) {
                        if let Some(text) = value.get("result").and_then(JsonValue::as_str) {
                            found = Some(text.to_string());
                            break;
                        }
                    }
                }
                _ => continue,
            }
        }
        found.expect("metrics scrape never survived the aggressive schedule")
    };

    let responses =
        metric(&exposition, "lfp_responses_total", "shard=\"all\"").expect("responses_total");
    let histogram_count = metric(
        &exposition,
        "lfp_request_duration_us_count",
        "shard=\"all\"",
    )
    .expect("request histogram count");
    // Internal consistency is unconditional: the counter and the
    // histogram come from the same snapshot.
    assert_eq!(responses, histogram_count);
    // Every acknowledged reply was flushed, so the ledger can lag a
    // torn connection but never undercount the acknowledged set.
    assert!(
        responses >= acknowledged,
        "ledger {responses} < acknowledged {acknowledged}"
    );
    assert!(
        metric(&exposition, "lfp_injected_faults_total", "shard=\"all\"").unwrap_or(0) > 0,
        "aggressive plan injected nothing:\n{exposition}"
    );

    let report = server.stop();
    assert!(report.injected_faults > 0);
}
