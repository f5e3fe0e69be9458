//! The serving side of the benchmark: the in-process server under test,
//! the two-connection closed-loop load, and the `serve-warm` /
//! `serve-cold` workloads built from them.
//!
//! Sizing is fixed for every workload: the server runs one event loop
//! and one worker, the engine keeps the shipped cache geometry (16
//! shards, 4096 entries), and load comes from [`CONNECTIONS`] client
//! threads each keeping [`WINDOW`] requests unanswered. All traffic is
//! loopback.

use crate::client::{self, ConnReport, Plan, Slice};
use crate::metrics::{
    highest_supported_percentile, median, peak_rss_mib, percentile, quartile, samples_beyond,
    Outcome,
};
use crate::span::Tracer;
use crate::{Config, Workload};
use lfp_analysis::json::{parse, JsonValue};
use lfp_analysis::path_corpus::PathCorpus;
use lfp_analysis::World;
use lfp_net::link::splitmix64;
use lfp_obs::AtomicHistogram;
use lfp_query::{select_rows, wire, CacheStats, FrameDecoder, Query, QueryEngine};
use lfp_serve::{
    answer_line, EngineSource, LineExtension, ObsHandle, ServeConfig, ServeReport, Server,
    ServerHandle,
};
use lfp_topo::Scale;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// Client threads, one connection each.
pub const CONNECTIONS: usize = 2;
/// Unanswered requests each connection keeps in flight.
pub const WINDOW: usize = 16;
/// Distinct queries of the warm mix: far below the 4096-entry cache.
pub const WARM_DISTINCT: usize = 64;
/// Distinct queries of the cold mix: twice the 4096-entry cache.
pub const COLD_DISTINCT: usize = 8192;
pub const CATALOG: &str = "{\"query\":\"catalog\"}";

/// The two vCPUs are split: the server's threads (and, on `epochs`, the
/// compactor and the reader beside them) run on one, whatever drives
/// load or ingest on the other. Left to the scheduler, where the four
/// or five busy threads land is decided once per run and the same code
/// measures 20–40 % apart from one run to the next; pinned, ten runs of
/// `epochs` spread under 1 %.
pub const SERVING_CPU: u64 = 1 << 1;
pub const LOAD_CPU: u64 = 1 << 0;
pub const ANY_CPU: u64 = SERVING_CPU | LOAD_CPU;

/// Restrict the calling thread — and every thread it spawns from now
/// on — to the CPUs in `mask`. Best effort: where the call is refused
/// (fewer CPUs, a cpuset) the threads stay where the scheduler puts
/// them.
pub fn run_on(mask: u64) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `mask` outlives the call, `cpusetsize` is its size in
    // bytes, pid 0 names the calling thread, and the kernel only reads
    // the mask.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
    }
}

/// The server under test, running on its own threads.
pub struct Served {
    pub addr: SocketAddr,
    pub obs: ObsHandle,
    /// `Server::bind` wall clock.
    pub bind_s: f64,
    handle: ServerHandle,
    thread: JoinHandle<ServeReport>,
}

impl Served {
    pub fn start(
        source: Arc<dyn EngineSource>,
        extension: Option<Arc<dyn LineExtension>>,
    ) -> Served {
        let config = ServeConfig {
            loops: 1,
            workers: 1,
            ..ServeConfig::default()
        };
        run_on(SERVING_CPU);
        let start = Instant::now();
        let mut server = Server::bind("127.0.0.1:0", config, source).expect("bind loopback");
        let bind_s = start.elapsed().as_secs_f64();
        if let Some(extension) = extension {
            server.set_line_extension(extension);
        }
        let served = Served {
            addr: server.local_addr(),
            obs: server.obs_handle(),
            bind_s,
            handle: server.handle(),
            thread: std::thread::spawn(move || server.run()),
        };
        run_on(ANY_CPU);
        served
    }

    /// Drain and join; returns the server's own report and how long
    /// `shutdown` → `run()` returning took. A server that did not drain
    /// cleanly, or that shed or evicted anything, fails the run.
    pub fn stop(self, outcome: &mut Outcome) -> (ServeReport, f64) {
        let start = Instant::now();
        self.handle.shutdown();
        let report = self.thread.join().expect("server thread panicked");
        let drain_s = start.elapsed().as_secs_f64();
        outcome.check(report.drained_cleanly, || {
            "server did not drain cleanly".to_string()
        });
        outcome.check(
            report.shed + report.deadline_expired + report.evicted == 0,
            || format!("server shed or evicted work: {report:?}"),
        );
        (report, drain_s)
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates over splitmix64).
pub fn permutation(seed: u64, n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut state = seed ^ 0x6c66_702d_6265_6e63;
    for i in (1..n).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

fn catalog_strings(catalog: &JsonValue, key: &str) -> Vec<String> {
    catalog
        .get(key)
        .and_then(JsonValue::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|item| item.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

/// The cold mix: `distinct` scan-heavy queries drawn by `seed` from the
/// cross product of kind × source × slice × hop range (`transitions`
/// and `longest_runs` walk every selected row; an eighth of the pool is
/// `path_diversity` narrowed to an AS pair by the same filters). The
/// pool is larger than `distinct`, so different seeds draw different
/// sets; the same seed always draws the same one.
pub fn cold_mix(catalog: &JsonValue, seed: u64, distinct: usize) -> Vec<String> {
    let numbers = |key: &str| -> Vec<u64> {
        catalog
            .get(key)
            .and_then(JsonValue::as_array)
            .map(|items| items.iter().filter_map(JsonValue::as_u64).collect())
            .unwrap_or_default()
    };
    let mut sources: Vec<Option<String>> = vec![None];
    sources.extend(catalog_strings(catalog, "sources").into_iter().map(Some));
    let mut slices: Vec<Option<String>> = vec![None];
    slices.extend(catalog_strings(catalog, "slices").into_iter().map(Some));
    let (src_ases, dst_ases) = (numbers("src_ases"), numbers("dst_ases"));

    let mut filters: Vec<String> = Vec::new();
    for source in &sources {
        for slice in &slices {
            for min_hops in 0..=10u16 {
                for max_hops in (min_hops.max(4)..=24).step_by(1) {
                    let mut fields = String::new();
                    if let Some(source) = source {
                        fields.push_str(&format!(",\"source\":\"{source}\""));
                    }
                    if min_hops > 0 {
                        fields.push_str(&format!(",\"min_hops\":{min_hops}"));
                    }
                    if max_hops < 24 {
                        fields.push_str(&format!(",\"max_hops\":{max_hops}"));
                    }
                    if let Some(slice) = slice {
                        fields.push_str(&format!(",\"slice\":\"{slice}\""));
                    }
                    filters.push(fields);
                }
            }
        }
    }
    let mut pool: Vec<String> = Vec::with_capacity(filters.len() * 2 + filters.len() / 4);
    for (index, fields) in filters.iter().enumerate() {
        pool.push(format!("{{\"query\":\"transitions\"{fields}}}"));
        pool.push(format!("{{\"query\":\"longest_runs\"{fields}}}"));
        if index % 4 == 0 && !src_ases.is_empty() && !dst_ases.is_empty() {
            let src = src_ases[(index / 4) % src_ases.len()];
            let dst = dst_ases[(index / 4 / src_ases.len()) % dst_ases.len()];
            pool.push(format!(
                "{{\"query\":\"path_diversity\",\"src_as\":{src},\"dst_as\":{dst}{fields}}}"
            ));
        }
    }
    assert!(
        pool.len() >= distinct,
        "cold pool of {} cannot supply {distinct} distinct queries",
        pool.len()
    );
    permutation(seed, pool.len())
        .into_iter()
        .take(distinct)
        .map(|index| std::mem::take(&mut pool[index as usize]))
        .collect()
}

/// Ask for the catalog, build the 64-query default mix from it and ask
/// every one of its queries once. Lazy set-up (first plan, first
/// render, socket buffers) ends here; for a warm mix this is also the
/// pass that fills the cache. Returns the catalog and the mix.
pub fn warm_up(
    connection: &mut std::io::BufReader<std::net::TcpStream>,
) -> (JsonValue, Vec<String>) {
    let mut reply = String::new();
    client::round_trip(connection, CATALOG, &mut reply).expect("catalog round trip");
    let catalog = parse(&reply)
        .ok()
        .and_then(|value| value.get("result").cloned())
        .expect("catalog reply carries a result");
    let warm = lfp_bench::mix::build_mix(&catalog, WARM_DISTINCT).expect("catalog lists ASes");
    for line in &warm {
        client::round_trip(connection, line, &mut reply).expect("warm pass");
        assert!(
            reply.starts_with("{\"ok\": true"),
            "warm pass refused: {reply}"
        );
    }
    (catalog, warm)
}

/// What a serve workload runs on.
pub struct ServeSpec {
    pub scale: Scale,
    /// Cold mixes bypass the cache; warm mixes live in it.
    pub cold: bool,
    pub distinct: usize,
    pub requests_per_conn: u64,
    /// Set-ups per run (the median is reported).
    pub setups: usize,
}

impl ServeSpec {
    pub fn of(config: &Config) -> ServeSpec {
        let cold = config.workload == Workload::ServeCold;
        if config.quick {
            return ServeSpec {
                scale: Scale::tiny(),
                cold,
                distinct: if cold { 2400 } else { WARM_DISTINCT },
                requests_per_conn: if cold { 600 } else { 4000 },
                setups: 1,
            };
        }
        if cold {
            ServeSpec {
                scale: Scale::path_stress(),
                cold,
                distinct: COLD_DISTINCT,
                requests_per_conn: config.scaled(12_288),
                setups: 5,
            }
        } else {
            ServeSpec {
                scale: Scale::query_stress(),
                cold,
                distinct: WARM_DISTINCT,
                requests_per_conn: config.scaled(1_000_000),
                setups: 9,
            }
        }
    }
}

/// One node ready to take load: engine, server, request mix.
pub struct Node {
    pub engine: Arc<QueryEngine>,
    pub served: Served,
    /// The 64-query default mix, in catalog order.
    pub warm: Vec<String>,
    /// The distinct request lines of this run, in seeded order.
    pub mix: Mix,
}

/// A run's distinct request lines and the walk the connections take
/// over them.
pub struct Mix(pub Vec<String>);

impl Mix {
    /// Request `index` of connection `conn`: the connections interleave
    /// one cyclic walk over the mix, so a key recurs only after every
    /// other key was asked for.
    pub fn line(&self, conn: usize, index: u64) -> &str {
        let position = index as usize * CONNECTIONS + conn;
        &self.0[position % self.0.len()]
    }

    /// [`line`](Mix::line) for the stretch of the walk that starts at
    /// request `first` of every connection.
    pub fn stretch<'a>(&'a self, first: u64) -> impl Fn(usize, u64) -> &'a str + Sync + 'a {
        move |conn, index| self.line(conn, first + index)
    }
}

/// What building a node's corpus and engine took.
pub struct BuildTimes {
    pub corpus_build_s: f64,
    pub engine_build_s: f64,
}

impl Node {
    /// Build the world at `scale`, then [`serve`] it.
    ///
    /// [`serve`]: Node::serve
    pub fn start(spec: &ServeSpec, seed: u64) -> (Node, BuildTimes) {
        let world = World::build(spec.scale);
        let corpus_start = Instant::now();
        let corpus = PathCorpus::build_with_shards(&world, lfp_net::ScanConfig::default().shards);
        let corpus_build_s = corpus_start.elapsed().as_secs_f64();
        world.seed_path_corpus(Arc::new(corpus), corpus_build_s);
        let world = Arc::new(world);
        let engine_start = Instant::now();
        let engine = Arc::new(QueryEngine::new(Arc::clone(&world)));
        let engine_build_s = engine_start.elapsed().as_secs_f64();
        let times = BuildTimes {
            corpus_build_s,
            engine_build_s,
        };
        (Node::serve(engine, spec, seed), times)
    }

    /// Stand the server up over a built world's engine, bootstrap
    /// the mix from the server's own `catalog` answer, and ask every
    /// warm query once.
    pub fn serve(engine: Arc<QueryEngine>, spec: &ServeSpec, seed: u64) -> Node {
        let source_engine = Arc::clone(&engine);
        let source: Arc<dyn EngineSource> = Arc::new(move || Arc::clone(&source_engine));
        let served = Served::start(source, None);

        let mut connection = client::connect(served.addr).expect("connect to own server");
        let (catalog, warm) = warm_up(&mut connection);
        let mix = if spec.cold {
            cold_mix(&catalog, seed, spec.distinct)
        } else {
            permutation(seed, warm.len())
                .into_iter()
                .map(|index| warm[index as usize].clone())
                .collect()
        };
        Node {
            engine,
            served,
            warm,
            mix: Mix(mix),
        }
    }
}

/// What the two connections saw together.
pub struct LoadResult {
    pub wall_s: f64,
    pub reports: Vec<ConnReport>,
    /// Result-cache hit rate over the section.
    pub hit_rate: f64,
}

impl LoadResult {
    pub fn ok(&self) -> u64 {
        self.reports.iter().map(|report| report.ok).sum()
    }

    pub fn requests(&self) -> u64 {
        self.reports
            .iter()
            .map(|report| report.ok + report.refused)
            .sum()
    }
}

/// Run `per_conn` requests down each of [`CONNECTIONS`] connections,
/// started together; wall clock is first start → last reply.
pub fn run_load<'a>(
    addr: SocketAddr,
    engine: &QueryEngine,
    per_conn: u64,
    line_of: &(dyn Fn(usize, u64) -> &'a str + Sync),
    stamp_origin: Option<Instant>,
) -> LoadResult {
    let before = engine.cache_stats();
    let barrier = Barrier::new(CONNECTIONS + 1);
    run_on(LOAD_CPU);
    let (reports, wall_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let plan = Plan {
                        count: per_conn,
                        until: None,
                        window: WINDOW,
                        slice: client::slice_of(per_conn),
                    };
                    client::drive(addr, plan, &|index| line_of(conn, index), stamp_origin)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let reports: Vec<ConnReport> = handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .expect("client thread panicked")
                    .expect("client connection failed")
            })
            .collect();
        (reports, start.elapsed().as_secs_f64())
    });
    run_on(ANY_CPU);
    LoadResult {
        wall_s,
        reports,
        hit_rate: hit_rate_between(&before, &engine.cache_stats()),
    }
}

/// Result-cache hit rate of the lookups between two readings.
pub fn hit_rate_between(before: &CacheStats, after: &CacheStats) -> f64 {
    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses);
    hits as f64 / lookups.max(1) as f64
}

/// Throughput and latency percentiles of a load section, with the
/// failures counted and the percentile rule enforced. Returns the
/// sustained rate in replies per second.
pub fn report_load(outcome: &mut Outcome, load: &LoadResult, quick: bool) -> f64 {
    let requests = load.requests();
    outcome.attempted += requests;
    outcome.failed += requests - load.ok();
    // Every connection's replies are cut into slices; a slice has its
    // own rate, p50 and p99, and the metric is the quartile of the
    // slices on the fast side (see README.md, "Why quartiles of
    // slices"). The plain figures over the whole section are printed
    // beside them.
    let slices: Vec<Vec<Slice>> = load.reports.iter().map(ConnReport::slices).collect();
    let sustained: f64 = slices
        .iter()
        .map(|conn| quartile(conn.iter().map(|slice| slice.rate), 0.75))
        .sum();
    let pooled = || slices.iter().flatten();
    let p50_us = quartile(pooled().map(|slice| f64::from(slice.p50_ns)), 0.25) / 1e3;
    let p99_us = quartile(pooled().map(|slice| f64::from(slice.p99_ns)), 0.25) / 1e3;
    outcome.set("throughput_qps", sustained);
    outcome.set("latency_p50_us", p50_us);
    outcome.set("client.latency_p99_us", p99_us);
    let mut latencies: Vec<u32> = load
        .reports
        .iter()
        .flat_map(|report| report.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let per_slice = load.reports[0].marks.get(1).map_or(0, |mark| mark.0) as usize;
    outcome.note(format!(
        "latency_p99_us {p99_us:.1} (fast-side quartile of the slices' p99). Over the whole \
         section: {:.0} replies/s, p50 {:.1} us, p99 {:.1} us; {} slices of {per_slice} replies",
        load.ok() as f64 / load.wall_s,
        f64::from(percentile(&latencies, 0.5)) / 1e3,
        f64::from(percentile(&latencies, 0.99)) / 1e3,
        pooled().count(),
    ));
    let beyond = samples_beyond(per_slice, 0.99);
    outcome.guard(quick || beyond >= 10, || {
        format!("latency_p99_us has only {beyond} samples beyond it in a slice")
    });
    let top = highest_supported_percentile(latencies.len()).unwrap_or(0.5);
    outcome.note(format!(
        "latency: {} samples, {beyond} beyond p99 in every slice; highest percentile the whole \
         section supports p{} = {:.1} us",
        latencies.len(),
        (top * 1e5).round() / 1e3,
        f64::from(percentile(&latencies, top)) / 1e3,
    ));
    sustained
}

/// Byte-compare every sampled reply with what the engine must answer.
pub fn verify_samples<'a>(
    outcome: &mut Outcome,
    engine: &QueryEngine,
    load: &LoadResult,
    line_of: &dyn Fn(usize, u64) -> &'a str,
) {
    let mut compared = 0u64;
    for (conn, report) in load.reports.iter().enumerate() {
        for (index, reply) in &report.samples {
            let line = line_of(conn, *index);
            let expected = client::expected_reply(engine, line, reply);
            compared += 1;
            outcome.check(expected.as_deref() == Ok(reply.as_str()), || {
                format!("reply {index} on connection {conn} differs for {line}")
            });
        }
    }
    outcome.note(format!(
        "correctness: {compared} replies (1 in {}) byte-compared with cold execution",
        client::SAMPLE_EVERY
    ));
}

/// The untraced `serve-warm` / `serve-cold` run.
pub fn run(config: &Config) -> Outcome {
    let spec = ServeSpec::of(config);
    let mut outcome = Outcome::default();

    // Set up several times; the last node takes the load.
    let mut setup_samples = Vec::with_capacity(spec.setups);
    let mut node = None;
    for rep in 0..spec.setups {
        if let Some(Node { served, .. }) = node.take() {
            served.stop(&mut outcome);
        }
        let start = if rep == 0 {
            config.process_start
        } else {
            Instant::now()
        };
        let (fresh, _) = Node::start(&spec, config.seed);
        setup_samples.push(start.elapsed().as_secs_f64());
        node = Some(fresh);
    }
    let node = node.expect("at least one set-up");
    outcome.set("setup_s", median(&setup_samples));

    let line_of = node.mix.stretch(0);
    let load = run_load(
        node.served.addr,
        &node.engine,
        spec.requests_per_conn,
        &line_of,
        None,
    );
    let sustained = report_load(&mut outcome, &load, config.quick);
    // The fixed work at the sustained pace; the wall clock it really
    // took (stalls of the machine included) is in the notes.
    outcome.set("timed_s", load.requests() as f64 / sustained);
    outcome.note(format!("timed section: {:.3}s of wall clock", load.wall_s));
    verify_samples(&mut outcome, &node.engine, &load, &line_of);
    guard_hit_rate(&mut outcome, spec.cold, load.hit_rate);

    node.served.stop(&mut outcome);
    outcome.set("peak_rss_mb", peak_rss_mib());
    outcome
}

/// The workload is only what it claims to be while the cache behaves as
/// designed: a warm mix must hit, a cold mix must miss.
fn guard_hit_rate(outcome: &mut Outcome, cold: bool, hit_rate: f64) {
    outcome.note(format!(
        "result-cache hit rate over the timed section: {hit_rate:.5}"
    ));
    if cold {
        outcome.guard(hit_rate <= 0.01, || {
            format!("cold mix hit the cache: hit rate {hit_rate:.4} > 0.01")
        });
    } else {
        outcome.guard(hit_rate >= 0.999, || {
            format!("warm mix missed the cache: hit rate {hit_rate:.4} < 0.999")
        });
    }
}

/// Frames per replay chunk: one span covers this many calls, so the
/// span's own two clock reads stay far below what it measures.
const REPLAY_CHUNK: usize = 16;

/// Replay the request stream in process, one span per layer per chunk:
/// frame decode → wire decode → canonical → execute → envelope.
fn replay(tracer: &mut Tracer, node: &Node, cold: bool, per_conn: u64) -> f64 {
    let lines: Vec<&str> = (per_conn..2 * per_conn)
        .flat_map(|index| (0..CONNECTIONS).map(move |conn| (conn, index)))
        .map(|(conn, index)| node.mix.line(conn, index))
        .collect();
    let engine = &node.engine;
    let mut decoder = FrameDecoder::new();
    let mut rows = 0usize;
    let mut planned = 0usize;
    for (chunk_index, chunk) in lines.chunks(REPLAY_CHUNK).enumerate() {
        let tag = chunk_index as u64;
        let mut bytes = Vec::with_capacity(chunk.len() * 96);
        for line in chunk {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        let (frames, _) = tracer.span("query.frame_decode", tag, |_| {
            decoder.feed(&bytes);
            std::iter::from_fn(|| decoder.next_frame())
                .map(|frame| frame.expect("valid frame"))
                .collect::<Vec<String>>()
        });
        let (queries, _) = tracer.span("query.wire_decode", tag, |_| {
            frames
                .iter()
                .map(|frame| wire::decode(frame).expect("valid query"))
                .collect::<Vec<Query>>()
        });
        let (canonicals, _) = tracer.span("query.canonical", tag, |_| {
            queries
                .iter()
                .map(|query| engine.canonical(query))
                .collect::<Vec<String>>()
        });
        let responses = if cold {
            let (plans, _) = tracer.span("query.plan", tag, |_| {
                queries
                    .iter()
                    .filter_map(|query| match query {
                        Query::PathDiversity { selection }
                        | Query::Transitions { selection }
                        | Query::LongestRuns { selection } => {
                            Some(select_rows(engine.corpus(), selection).expect("known source"))
                        }
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            });
            planned += plans.len();
            rows += plans.iter().map(|plan| plan.rows.len()).sum::<usize>();
            tracer
                .span("query.exec_cold", tag, |_| {
                    queries
                        .iter()
                        .map(|query| lfp_query::Response {
                            payload: engine
                                .execute_uncached(query)
                                .expect("cold execution")
                                .into(),
                            cached: false,
                        })
                        .collect::<Vec<_>>()
                })
                .0
        } else {
            tracer
                .span("query.cache_hit", tag, |_| {
                    queries
                        .iter()
                        .map(|query| engine.execute_lane(query, 0).expect("resident key"))
                        .collect::<Vec<_>>()
                })
                .0
        };
        tracer.span("query.envelope", tag, |_| {
            for (canonical, response) in canonicals.iter().zip(&responses) {
                black_box(wire::ok_envelope(canonical, response));
            }
        });
    }
    if planned == 0 {
        0.0
    } else {
        rows as f64 / planned as f64
    }
}

/// Mean of one `lfp_stage_duration_us` / `lfp_request_duration_us`
/// histogram in the exposition (`shard="all"`), in microseconds.
fn exposition_mean_us(exposition: &str, family: &str, stage: Option<&str>) -> f64 {
    let labels = match stage {
        Some(stage) => format!("{{stage=\"{stage}\",shard=\"all\"}}"),
        None => "{shard=\"all\"}".to_string(),
    };
    let value_of = |suffix: &str| -> f64 {
        let prefix = format!("{family}_{suffix}{labels} ");
        exposition
            .lines()
            .find_map(|line| line.strip_prefix(prefix.as_str()))
            .and_then(|value| value.trim().parse().ok())
            .unwrap_or(0.0)
    };
    let count = value_of("count");
    if count == 0.0 {
        0.0
    } else {
        value_of("sum") / count
    }
}

/// The serve-side probes every traced run that owns a server shares:
/// `answer_line`, window-1 round trips, the obs primitives, and one
/// scrape of the server's own exposition.
pub fn probe_serving(
    outcome: &mut Outcome,
    tracer: &mut Tracer,
    addr: SocketAddr,
    obs: &ObsHandle,
    engine: &QueryEngine,
    warm: &[String],
    round_trips: u64,
) {
    let passes = 200usize;
    let (_, seconds) = tracer.span("serve.answer_line", 0, |_| {
        for _ in 0..passes {
            for line in warm {
                black_box(answer_line(line, engine));
            }
        }
    });
    let answer_line_ns = seconds * 1e9 / (passes * warm.len()) as f64;
    outcome.set("serve.answer_line_ns", answer_line_ns);

    let mut connection = client::connect(addr).expect("connect for round trips");
    let mut reply = String::new();
    for line in warm {
        client::round_trip(&mut connection, line, &mut reply).expect("round trip");
    }
    let (_, seconds) = tracer.span("serve.rtt", 0, |_| {
        for index in 0..round_trips {
            let line = &warm[index as usize % warm.len()];
            client::round_trip(&mut connection, line, &mut reply).expect("round trip");
        }
    });
    let rtt_us = seconds * 1e6 / round_trips as f64;
    outcome.set("serve.rtt_us", rtt_us);
    outcome.set("serve.overhead_us", rtt_us - answer_line_ns / 1e3);

    let histogram = AtomicHistogram::new();
    let records = 1_000_000u64;
    let (_, seconds) = tracer.span("obs.hist_record", 0, |_| {
        for value in 0..records {
            histogram.record(black_box(value & 0xfff));
        }
    });
    black_box(histogram.snapshot());
    outcome.set("obs.hist_record_ns", seconds * 1e9 / records as f64);

    let scrapes = 20usize;
    let (exposition, seconds) = tracer.span("obs.metrics_render", 0, |_| {
        let mut last = String::new();
        for _ in 0..scrapes {
            last = obs.metrics(engine);
        }
        last
    });
    outcome.set("obs.metrics_render_us", seconds * 1e6 / scrapes as f64);

    let family = "lfp_stage_duration_us";
    let mut top_level = 0.0;
    for (stage, name) in [
        ("accept", "serve.stage.accept_us"),
        ("queue", "serve.stage.queue_us"),
        ("claim", "serve.stage.claim_us"),
        ("execute", "serve.stage.execute_us"),
        ("plan", "serve.stage.plan_us"),
        ("cache_lookup", "serve.stage.cache_lookup_us"),
        ("render", "serve.stage.render_us"),
        ("flush", "serve.stage.flush_us"),
    ] {
        let mean = exposition_mean_us(&exposition, family, Some(stage));
        outcome.set(name, mean);
        if !matches!(stage, "plan" | "cache_lookup" | "render") {
            top_level += mean;
        }
    }
    let request = exposition_mean_us(&exposition, "lfp_request_duration_us", None);
    if request > 0.0 {
        outcome.set("serve.stage_residual_share", 1.0 - top_level / request);
    }
}

/// `serve.replies_per_iteration`, `serve.bytes_per_read`, drain time.
pub fn report_server(outcome: &mut Outcome, served: Served) {
    outcome.set("serve.bind_ms", served.bind_s * 1e3);
    let (report, drain_s) = served.stop(outcome);
    outcome.set("serve.drain_ms", drain_s * 1e3);
    if report.iterations > 0 {
        outcome.set(
            "serve.replies_per_iteration",
            report.completed as f64 / report.iterations as f64,
        );
    }
    if report.socket_reads > 0 {
        outcome.set(
            "serve.bytes_per_read",
            report.bytes_read as f64 / report.socket_reads as f64,
        );
    }
}

/// The traced `serve-warm` / `serve-cold` run: a tenth of the count,
/// once without and once with a span per request, then the same request
/// stream replayed in process layer by layer.
pub fn run_traced(config: &Config, tracer: &mut Tracer) -> Outcome {
    let spec = ServeSpec::of(config);
    let mut outcome = Outcome::default();
    let per_conn = (spec.requests_per_conn / 10).max(500);

    let ((node, times), _) = tracer.span("setup", 0, |_| Node::start(&spec, config.seed));
    outcome.set("analysis.corpus_build_s", times.corpus_build_s);
    outcome.set(
        "analysis.corpus_paths_per_s",
        node.engine.corpus().len() as f64 / times.corpus_build_s,
    );
    outcome.set("query.engine_build_ms", times.engine_build_s * 1e3);

    // Three passes walk consecutive stretches of the cyclic mix (so a
    // cold mix stays cold): untraced, traced, untraced. The traced pass
    // is compared with the mean of its two neighbours, which cancels
    // whatever drifts over the seconds the passes take.
    let line_of = node.mix.stretch(per_conn);
    let addr = node.served.addr;
    let before = run_load(addr, &node.engine, per_conn, &node.mix.stretch(0), None);
    let origin = Instant::now();
    let base_ns = tracer.now_ns();
    let (traced, _) = tracer.span("client.load", 0, |_| {
        run_load(addr, &node.engine, per_conn, &line_of, Some(origin))
    });
    let after = run_load(
        addr,
        &node.engine,
        per_conn,
        &node.mix.stretch(2 * per_conn),
        None,
    );
    tracer.span("client.requests", 0, |tracer| {
        for (conn, report) in traced.reports.iter().enumerate() {
            for &(index, written, replied) in &report.stamps {
                let tag = index * CONNECTIONS as u64 + conn as u64;
                tracer.record("client.request", tag, base_ns + written, base_ns + replied);
            }
        }
    });
    for load in [&before, &after] {
        outcome.attempted += load.requests();
        outcome.failed += load.requests() - load.ok();
    }
    report_load(&mut outcome, &traced, config.quick);
    verify_samples(&mut outcome, &node.engine, &traced, &line_of);
    guard_hit_rate(&mut outcome, spec.cold, traced.hit_rate);
    outcome.set("query.cache_hit_rate", traced.hit_rate);
    let untraced_s = (before.wall_s + after.wall_s) / 2.0;
    outcome.set(
        "trace_overhead_share",
        (traced.wall_s - untraced_s) / untraced_s,
    );

    let (rows_per_result, _) = tracer.span("replay", 0, |tracer| {
        replay(tracer, &node, spec.cold, per_conn)
    });
    let per_call = |tracer: &Tracer, name: &str| tracer.mean(name) / REPLAY_CHUNK as f64;
    outcome.set(
        "query.frame_decode_ns",
        per_call(tracer, "query.frame_decode") * 1e9,
    );
    outcome.set(
        "query.wire_decode_ns",
        per_call(tracer, "query.wire_decode") * 1e9,
    );
    outcome.set(
        "query.canonical_ns",
        per_call(tracer, "query.canonical") * 1e9,
    );
    outcome.set(
        "query.envelope_ns",
        per_call(tracer, "query.envelope") * 1e9,
    );
    if spec.cold {
        let plan_us = per_call(tracer, "query.plan") * 1e6;
        let exec_us = per_call(tracer, "query.exec_cold") * 1e6;
        outcome.set("query.plan_us", plan_us);
        outcome.set("query.exec_cold_us", exec_us);
        outcome.set("query.render_us", exec_us - plan_us);
        outcome.set("query.rows_per_result", rows_per_result);
    } else {
        outcome.set(
            "query.cache_hit_ns",
            per_call(tracer, "query.cache_hit") * 1e9,
        );
    }

    let round_trips = if config.quick { 500 } else { 10_000 };
    probe_serving(
        &mut outcome,
        tracer,
        addr,
        &node.served.obs,
        &node.engine,
        &node.warm,
        round_trips,
    );
    report_server(&mut outcome, node.served);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_catalog() -> JsonValue {
        let world = lfp_bench::shared_tiny_world();
        let engine = QueryEngine::new(world);
        parse(&engine.execute_uncached(&Query::Catalog).unwrap()).unwrap()
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(7, 64);
        assert_eq!(a, permutation(7, 64), "same seed, same order");
        assert_ne!(a, permutation(8, 64), "another seed, another order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn cold_mix_is_distinct_valid_and_seeded() {
        let catalog = tiny_catalog();
        let mix = cold_mix(&catalog, 3, 2000);
        assert_eq!(mix, cold_mix(&catalog, 3, 2000), "same seed, same stream");
        assert_ne!(mix, cold_mix(&catalog, 4, 2000));
        let mut canonicals: Vec<String> = mix
            .iter()
            .map(|line| wire::decode(line).expect("every line decodes").canonical())
            .collect();
        canonicals.sort();
        canonicals.dedup();
        assert_eq!(canonicals.len(), 2000, "no two lines share a cache key");
    }

    #[test]
    fn exposition_means_are_read_by_label() {
        let text = "lfp_stage_duration_us_sum{stage=\"queue\",shard=\"0\"} 10\n\
                    lfp_stage_duration_us_sum{stage=\"queue\",shard=\"all\"} 30\n\
                    lfp_stage_duration_us_count{stage=\"queue\",shard=\"all\"} 4\n\
                    lfp_request_duration_us_sum{shard=\"all\"} 100\n\
                    lfp_request_duration_us_count{shard=\"all\"} 10\n";
        assert_eq!(
            exposition_mean_us(text, "lfp_stage_duration_us", Some("queue")),
            7.5
        );
        assert_eq!(
            exposition_mean_us(text, "lfp_request_duration_us", None),
            10.0
        );
        assert_eq!(
            exposition_mean_us(text, "lfp_stage_duration_us", Some("flush")),
            0.0
        );
    }
}
