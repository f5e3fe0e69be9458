//! query-load — the load generator and scenario driver for `vendor-queryd`.
//!
//! ```text
//! query-load [--addr 127.0.0.1:7377] [--connections 512] [--pipeline 16]
//!            [--requests-per-conn 200] [--churn-every 0] [--distinct 64]
//!            [--wait-secs 30] [--deadline-secs 180] [--threads 1]
//!            [--phase serve] [--scaling-loops N]
//!            [--bench-json BENCH_campaign.json] [--shutdown]
//! ```
//!
//! Connects to a running daemon (retrying until `--wait-secs`, so it
//! can start in parallel with the daemon's world build), bootstraps a
//! deterministic query mix from the daemon's `catalog` answer, warms
//! the result cache with one pass over the distinct queries, then runs
//! one fleet of `--connections` nonblocking connections through the
//! single client state machine in [`lfp_bench::mix`] — each keeping
//! `--pipeline` requests in flight without waiting for answers,
//! optionally tearing the connection down and reconnecting every
//! `--churn-every` responses. `--pipeline 1` is the closed-loop client
//! (one request per round trip — latency under polite load); the
//! default is the hostile schedule the event-loop daemon exists for.
//! Connections are multiplexed over the same `poll(2)` layer the server
//! uses (`lfp_serve::sys`) from `--threads N` driver threads (default
//! one — cheap at 512+ sockets; raise it when one generator core
//! cannot saturate a multi-loop daemon).
//!
//! Results land in `BENCH_campaign.json` under `--phase` (default
//! `serve`; CI's smoke steps write `query_engine`): `queries`,
//! `errors`, `reconnects`, `qps`, client-side `latency_us` quantiles,
//! and `phases_seconds.<phase>` when the artefact already carries
//! campaign timings.
//!
//! `--scaling-loops N` tags the run as one cell of the **serve scaling
//! sweep** (the daemon is expected to be running with `--loops N`): the
//! run additionally merges a `loops{N}_conns{C}` cell into the
//! `serve_scaling` phase, and once both the `loops1_conns512` and
//! `loops4_conns512` cells are present the phase records
//! `speedup_4loops_512` — the multi-loop scaling ratio CI asserts on
//! when the phase's `cores` (the machine's parallelism) is at least 4.
//!
//! `--cluster` switches to the **replication scenario**: `--addr` is a
//! primary running with `--serve-replicas`, each `--follower ADDR` a
//! follower of it, and each `--ingest-delta FILE` a delta the primary
//! is told to ingest (`repl_ingest`) partway through the run — so
//! epochs advance *while* every node is being queried. The driver
//! maintains one global `min_epoch` floor (the highest epoch any reply
//! echoed) and splices it into every request: a correct node either
//! answers at ≥ the floor or refuses with the typed `stale_epoch`
//! envelope (counted, retried until the follower catches up). An `ok`
//! reply *below* the floor is a **stale answer** — the invariant
//! violation the `replication` phase records and CI asserts is zero.
//! After the rounds the driver waits for every follower to converge on
//! the primary's epoch, then replays a sample of the mix against every
//! node twice and requires the warm replies to be **byte-identical**
//! across replicas at equal epochs. Exit is nonzero on any stale
//! answer, any mismatched reply, or a follower that never converged.
//!
//! `--store-compaction` needs no daemon at all: it builds a world,
//! measures `--epochs` fresh snapshot deltas, ingests them one at a
//! time into a store persisted as a **segmented epoch log** with the
//! background compactor armed at `--compact-after`, and hammers the
//! engine from a query thread the whole time — then replays the same
//! deltas against a monolithic-file store. The `store_compaction`
//! phase records per-epoch save times for both disciplines (segmented
//! must be O(delta), i.e. faster), the compactor's counters, and the
//! query errors observed while segments were being folded (CI asserts
//! zero).
//!
//! `--chaos` runs the same fleet as a **resilient client**: the daemon
//! is expected to be running under a fault-injecting I/O policy and/or
//! an admission-control watermark (`vendor-queryd --fault-profile
//! aggressive --queue-watermark N`), and the fleet gets a shared
//! `--retry-budget` — every connection retries `overloaded` sheds and
//! connection resets with seeded, jittered exponential backoff
//! ([`lfp_bench::mix::Backoff`]) instead of counting them as errors.
//! The run records a `chaos` phase whose `lost_acknowledged` field CI
//! asserts is **zero**: every request slot ends in an acknowledged
//! success, no received reply goes unattributed, and the retry budget
//! is not exhausted — the client-observable statement of "graceful
//! degradation". `--churn-every` and `--threads` apply here too
//! (planned churn spends no budget).

use lfp_analysis::json::{parse, JsonBuilder, JsonValue};
use lfp_analysis::World;
use lfp_bench::mix::{
    build_mix, connect, connect_with_retry, request, run_fleet, Connection, FleetPlan, FleetRun,
};
use lfp_bench::{measure_deltas, merge_bench_phase, read_bench_phase};
use lfp_obs::Histogram;
use lfp_query::wire;
use lfp_serve::answer_line;
use lfp_store::{CompactionPolicy, Compactor, Store};
use lfp_topo::Scale;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut addr = "127.0.0.1:7377".to_string();
    let mut connections = 512usize;
    let mut pipeline = 16usize;
    let mut requests_per_conn = 200usize;
    let mut churn_every = 0usize;
    let mut distinct = 64usize;
    let mut wait_secs = 30u64;
    let mut deadline_secs = 180u64;
    let mut phase_name: Option<String> = None;
    let mut bench_json = "BENCH_campaign.json".to_string();
    let mut shutdown = false;
    let mut chaos = false;
    let mut seed = 1u64;
    let mut retry_budget = 100_000u64;
    let mut threads = 1usize;
    let mut scaling_loops: Option<u64> = None;
    let mut cluster = false;
    let mut followers: Vec<String> = Vec::new();
    let mut ingest_deltas: Vec<String> = Vec::new();
    let mut rounds = 60usize;
    let mut store_compaction = false;
    let mut epochs = 20usize;
    let mut compact_after = 5usize;
    let mut scale_name = "tiny".to_string();

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                addr = args
                    .next()
                    .unwrap_or_else(|| usage("--addr needs host:port"))
            }
            "--connections" => connections = parse_number(args.next(), "--connections"),
            "--pipeline" => pipeline = parse_number(args.next(), "--pipeline"),
            "--requests-per-conn" => {
                requests_per_conn = parse_number(args.next(), "--requests-per-conn")
            }
            "--churn-every" => churn_every = parse_number(args.next(), "--churn-every"),
            "--distinct" => distinct = parse_number(args.next(), "--distinct"),
            "--wait-secs" => wait_secs = parse_number(args.next(), "--wait-secs"),
            "--deadline-secs" => deadline_secs = parse_number(args.next(), "--deadline-secs"),
            "--phase" => {
                phase_name = Some(args.next().unwrap_or_else(|| usage("--phase needs a name")))
            }
            "--bench-json" => {
                bench_json = args
                    .next()
                    .unwrap_or_else(|| usage("--bench-json needs a path"))
            }
            "--threads" => threads = parse_number(args.next(), "--threads"),
            "--scaling-loops" => scaling_loops = Some(parse_number(args.next(), "--scaling-loops")),
            "--shutdown" => shutdown = true,
            "--chaos" => chaos = true,
            "--cluster" => cluster = true,
            "--follower" => followers.push(
                args.next()
                    .unwrap_or_else(|| usage("--follower needs host:port")),
            ),
            "--ingest-delta" => ingest_deltas.push(
                args.next()
                    .unwrap_or_else(|| usage("--ingest-delta needs a file path")),
            ),
            "--rounds" => rounds = parse_number(args.next(), "--rounds"),
            "--seed" => seed = parse_number(args.next(), "--seed"),
            "--retry-budget" => retry_budget = parse_number(args.next(), "--retry-budget"),
            "--store-compaction" => store_compaction = true,
            "--epochs" => epochs = parse_number(args.next(), "--epochs"),
            "--compact-after" => compact_after = parse_number(args.next(), "--compact-after"),
            "--scale" => scale_name = args.next().unwrap_or_else(|| usage("--scale needs a name")),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    let connections = connections.max(1);
    let pipeline = pipeline.max(1);
    let requests_per_conn = requests_per_conn.max(1);
    let threads = threads.max(1);
    let phase_name = phase_name.unwrap_or_else(|| {
        if cluster {
            "replication".to_string()
        } else if chaos {
            "chaos".to_string()
        } else if store_compaction {
            "store_compaction".to_string()
        } else {
            "serve".to_string()
        }
    });

    if store_compaction {
        let code = store_compaction_drive(
            &scale_name,
            epochs.max(1),
            compact_after.max(1),
            &bench_json,
            &phase_name,
        );
        std::process::exit(code);
    }

    if cluster {
        let code = cluster_drive(
            &addr,
            &followers,
            &ingest_deltas,
            rounds.max(1),
            distinct,
            wait_secs,
            Duration::from_secs(deadline_secs),
            &bench_json,
            &phase_name,
            shutdown,
        );
        std::process::exit(code);
    }

    // -- bootstrap: wait for the daemon, fetch the catalog, warm ------
    // Under chaos the daemon is injecting faults on every connection,
    // so the bootstrap itself must already tolerate resets: retry the
    // whole connect-and-ask sequence instead of dying on the first cut.
    let deadline = Instant::now() + Duration::from_secs(wait_secs);
    let mut probe;
    let catalog = loop {
        probe = connect_with_retry(&addr, Duration::from_secs(wait_secs))
            .unwrap_or_else(|error| fail(&error));
        match request(&mut probe, "{\"query\":\"catalog\"}") {
            Ok(reply) => break reply,
            Err(error) if chaos && Instant::now() < deadline => {
                eprintln!("catalog attempt failed ({error}); retrying");
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(error) => fail(&format!("catalog query failed: {error}")),
        }
    };
    let catalog =
        parse(&catalog).unwrap_or_else(|error| fail(&format!("bad catalog JSON: {error}")));
    if catalog.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        fail(&format!("catalog refused: {}", catalog.render()));
    }
    let result = catalog.get("result").unwrap_or(&JsonValue::Null);
    let mix = build_mix(result, distinct)
        .unwrap_or_else(|| fail("catalog advertised no AS ids to query"));
    let mut warm_errors = 0usize;
    for line in &mix {
        match request(&mut probe, line) {
            Ok(reply) if reply.contains("\"ok\": true") => {}
            _ => warm_errors += 1,
        }
    }
    if warm_errors > 0 && !chaos {
        eprintln!("warning: {warm_errors} queries failed during warm-up");
    }
    // The bootstrap replies (catalog + warm-up) were acknowledged by
    // this client too: a reconciliation against the daemon's response
    // ledger must count them alongside the timed run.
    let bootstrap_acked = 1 + (mix.len() - warm_errors) as u64;
    eprintln!(
        "driving {addr}: {connections} connections × {requests_per_conn} requests, \
         pipeline {pipeline}, churn every {churn_every}, {} distinct queries{}",
        mix.len(),
        if chaos { ", chaos mode" } else { "" },
    );

    let total = (connections * requests_per_conn) as u64;
    let run = run_fleet(&FleetPlan {
        addr: &addr,
        mix: &mix,
        connections,
        pipeline,
        requests_per_conn,
        churn_every,
        retry_budget: if chaos { retry_budget } else { 0 },
        seed,
        threads,
        deadline: Duration::from_secs(deadline_secs),
    });
    let qps = run.qps();
    let exit_code = if chaos {
        println!(
            "{phase_name}: {}/{total} acknowledged in {:.2}s → {qps:.0} q/s \
             ({} sheds retried, {} reconnects, {} retries used of {retry_budget}, \
             {} lost acknowledged)",
            run.ok, run.seconds, run.sheds, run.reconnects, run.retries_used, run.lost
        );
        // The daemon's own accounting closes the loop: nonzero
        // injected-fault and shed counters prove the run actually
        // exercised the chaos path rather than sailing through.
        let stats = probe_stats(&addr);
        write_chaos_phase(
            &bench_json,
            &phase_name,
            connections,
            pipeline,
            &run,
            retry_budget,
            stats.as_ref(),
        );
        (run.lost > 0 || run.retry_budget_remaining == 0) as i32
    } else {
        let (p50, p90, p99, p999, max) = (
            run.latency_us.quantile(0.50),
            run.latency_us.quantile(0.90),
            run.latency_us.quantile(0.99),
            run.latency_us.quantile(0.999),
            run.latency_us.max(),
        );
        println!(
            "{phase_name}: {}/{total} pipelined queries acknowledged in {:.2}s → {qps:.0} q/s \
             (p50 {p50}µs, p90 {p90}µs, p99 {p99}µs, p999 {p999}µs, max {max}µs, \
             {} reconnects, {} errors)",
            run.ok, run.seconds, run.reconnects, run.lost
        );
        write_phase(
            &bench_json,
            &phase_name,
            connections,
            pipeline,
            &run,
            bootstrap_acked,
        );
        if let Some(loops) = scaling_loops {
            write_scaling_cell(&bench_json, loops, connections, &run);
        }
        (run.lost > 0) as i32
    };

    if shutdown {
        send_shutdown(&addr);
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}

/// A fresh blocking connection whose reads give up after five seconds,
/// so a reply an injected reset killed cannot hang the run.
fn connect_bounded(addr: &str) -> std::io::Result<Connection> {
    let connection = connect(addr)?;
    connection
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))?;
    Ok(connection)
}

/// Ask the daemon for its `stats` control answer, tolerating injected
/// resets on the probe connection itself (bounded retries).
fn probe_stats(addr: &str) -> Option<JsonValue> {
    for _attempt in 0..20 {
        let reply = connect_bounded(addr)
            .map_err(|error| error.to_string())
            .and_then(|mut connection| request(&mut connection, "{\"query\":\"stats\"}"));
        if let Some(value) = reply.ok().and_then(|reply| parse(&reply).ok()) {
            if value.get("ok").and_then(JsonValue::as_bool) == Some(true) {
                return value.get("result").cloned();
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("warning: could not fetch stats from {addr}");
    None
}

/// Send the shutdown control query. A chaos daemon may reset any
/// connection, this one included, so retry over fresh connections
/// until the acknowledgement (or the drain refusing new connections)
/// confirms the daemon got it.
fn send_shutdown(addr: &str) {
    for _attempt in 0..20 {
        let Ok(mut connection) = connect_bounded(addr) else {
            // Refusing connections: the daemon is already draining.
            eprintln!("sent shutdown");
            return;
        };
        if request(&mut connection, "{\"query\":\"shutdown\"}")
            .is_ok_and(|reply| reply.contains("shutting down"))
        {
            eprintln!("sent shutdown");
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("warning: shutdown acknowledgement never arrived");
}

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: query-load [--addr HOST:PORT] [--connections N] [--pipeline N] \
         [--requests-per-conn N] [--churn-every N] [--distinct N] [--wait-secs N] \
         [--deadline-secs N] [--threads N] [--phase NAME] [--scaling-loops N] \
         [--bench-json PATH] [--shutdown] [--chaos] [--seed N] [--retry-budget N] \
         [--cluster] [--follower HOST:PORT]... [--ingest-delta FILE]... [--rounds N] \
         [--store-compaction] [--epochs N] [--compact-after N] [--scale NAME]"
    );
    std::process::exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("query-load: {message}");
    std::process::exit(1);
}

fn parse_number<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    value
        .and_then(|text| text.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a number")))
}

// ---------------------------------------------------------------------
// The segmented-store scenario (`--store-compaction`)
// ---------------------------------------------------------------------

/// Drive the segmented epoch log end to end, no daemon involved: build
/// a world, measure `epochs` fresh snapshot deltas, then ingest them
/// one at a time into a store persisted as a segmented log (background
/// compactor armed at `--compact-after`) while a query thread hammers
/// the engine the whole time. A second pass replays the identical
/// deltas against a monolithic-file store as the baseline. The phase
/// records per-epoch save times for both disciplines (the O(delta)
/// claim CI asserts on), the compactor's counters, and the number of
/// query errors observed while segments were being folded (must be 0).
fn store_compaction_drive(
    scale_name: &str,
    epochs: usize,
    compact_after: usize,
    bench_json: &str,
    phase_name: &str,
) -> i32 {
    let scale = Scale::by_name(scale_name)
        .unwrap_or_else(|| fail(&format!("unknown scale '{scale_name}'")));
    eprintln!("building world at scale '{scale_name}' and measuring {epochs} delta campaigns…");
    let world = Arc::new(World::build(scale));
    let deltas = measure_deltas(&world, epochs);

    let root = std::env::temp_dir().join(format!("query-load-compaction-{}", std::process::id()));
    let seg_dir = root.join("segmented");
    let mono_file = root.join("store.lfp");
    if let Err(error) = std::fs::create_dir_all(&root) {
        fail(&format!(
            "cannot create scratch dir {}: {error}",
            root.display()
        ));
    }

    // -- segmented pass: ingest + per-epoch sealed segments, compactor
    //    folding in the background, queries running throughout --------
    let store = Arc::new(Store::from_world(Arc::clone(&world)));
    if let Err(error) = store.save_segmented(&seg_dir) {
        fail(&format!("base save failed: {error}"));
    }
    let mut compactor = Compactor::spawn(
        Arc::clone(&store),
        CompactionPolicy::after_segments(compact_after),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let query_errors = Arc::new(AtomicU64::new(0));
    let queries_answered = Arc::new(AtomicU64::new(0));
    let query_thread = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let errors = Arc::clone(&query_errors);
        let answered = Arc::clone(&queries_answered);
        // The same lines a live daemon would serve: bootstrap the mix
        // from the engine's own catalog answer.
        let catalog = answer_line("{\"query\":\"catalog\"}", &store.engine());
        let catalog = parse(&catalog).unwrap_or_else(|e| fail(&format!("bad catalog: {e:?}")));
        let mix = build_mix(catalog.get("result").unwrap_or(&JsonValue::Null), 32)
            .unwrap_or_else(|| fail("catalog advertised no AS ids"));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for line in &mix {
                    let reply = answer_line(line, &store.engine());
                    if reply.contains("\"ok\": true") {
                        answered.fetch_add(1, Ordering::Relaxed);
                    } else {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        })
    };

    let run_start = Instant::now();
    let mut seg_save_ms: Vec<f64> = Vec::with_capacity(epochs);
    let mut seg_save_bytes: Vec<u64> = Vec::with_capacity(epochs);
    for delta in &deltas {
        if let Err(error) = store.ingest(delta.clone()) {
            fail(&format!("segmented ingest failed: {error}"));
        }
        let save_start = Instant::now();
        match store.save_segmented(&seg_dir) {
            Ok(report) => {
                // The bytes a crash would make this save redo: the
                // sealed segments, plus the base only when it was
                // actually rewritten.
                seg_save_bytes.push(
                    report.segment_bytes
                        + if report.base_rewritten {
                            report.base_bytes
                        } else {
                            0
                        },
                );
            }
            Err(error) => fail(&format!("segmented save failed: {error}")),
        }
        seg_save_ms.push(save_start.elapsed().as_secs_f64() * 1e3);
        compactor.nudge();
    }
    // Let the compactor catch up with the tail of the run before the
    // counters are read (bounded wait; folds at tiny scale are fast).
    let settle = Instant::now();
    while settle.elapsed() < Duration::from_secs(30) {
        match store.log_status() {
            Some(status) if status.segments > compact_after => {
                compactor.nudge();
                std::thread::sleep(Duration::from_millis(50));
            }
            _ => break,
        }
    }
    stop.store(true, Ordering::Relaxed);
    let _ = query_thread.join();
    let stats = compactor.stats();
    compactor.shutdown();
    let status = store.log_status();
    let seconds = run_start.elapsed().as_secs_f64();

    // -- monolithic baseline: identical deltas, full-file rewrite per
    //    epoch ---------------------------------------------------------
    let mono = Store::from_world(Arc::clone(&world));
    if let Err(error) = mono.save(&mono_file) {
        fail(&format!("monolithic save failed: {error}"));
    }
    let mut mono_save_ms: Vec<f64> = Vec::with_capacity(epochs);
    let mut mono_save_bytes: Vec<u64> = Vec::with_capacity(epochs);
    for delta in &deltas {
        if let Err(error) = mono.ingest(delta.clone()) {
            fail(&format!("monolithic ingest failed: {error}"));
        }
        let save_start = Instant::now();
        match mono.save(&mono_file) {
            Ok(report) => mono_save_bytes.push(report.bytes),
            Err(error) => fail(&format!("monolithic save failed: {error}")),
        }
        mono_save_ms.push(save_start.elapsed().as_secs_f64() * 1e3);
    }

    let mean = |samples: &[f64]| samples.iter().sum::<f64>() / samples.len().max(1) as f64;
    let max = |samples: &[f64]| samples.iter().cloned().fold(0.0f64, f64::max);
    let mean_bytes =
        |samples: &[u64]| samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64;
    let seg_mean = mean(&seg_save_ms);
    let mono_mean = mean(&mono_save_ms);
    // The O(delta) claim: a segmented save writes the delta, a
    // monolithic save rewrites the world. Bytes are the robust
    // comparison — per-epoch wall time at tiny scales is fsync-bound.
    let seg_bytes = mean_bytes(&seg_save_bytes);
    let mono_bytes = mean_bytes(&mono_save_bytes);
    let errors = query_errors.load(Ordering::Relaxed);
    let answered = queries_answered.load(Ordering::Relaxed);
    println!(
        "{phase_name}: {epochs} epochs at scale '{scale_name}' — per-epoch save writes \
         {seg_bytes:.0} bytes segmented vs {mono_bytes:.0} monolithic ({:.1}× less), \
         mean {seg_mean:.2}ms vs {mono_mean:.2}ms, {} compaction run(s) folded {} \
         segment(s), {answered} queries answered concurrently with {errors} error(s)",
        mono_bytes / seg_bytes.max(1.0),
        stats.runs,
        stats.segments_folded,
    );

    let mut phase = JsonBuilder::object();
    phase.string("scale", scale_name);
    phase.integer("epochs", epochs as u64);
    phase.integer("compact_after", compact_after as u64);
    phase.raw("segmented_save_bytes_mean", format!("{seg_bytes:.1}"));
    phase.raw("monolithic_save_bytes_mean", format!("{mono_bytes:.1}"));
    phase.raw(
        "save_bytes_ratio",
        format!("{:.4}", mono_bytes / seg_bytes.max(1.0)),
    );
    phase.raw("segmented_save_ms_mean", format!("{seg_mean:.4}"));
    phase.raw("segmented_save_ms_max", format!("{:.4}", max(&seg_save_ms)));
    phase.raw("monolithic_save_ms_mean", format!("{mono_mean:.4}"));
    phase.raw(
        "monolithic_save_ms_max",
        format!("{:.4}", max(&mono_save_ms)),
    );
    phase.integer("compactions", stats.runs);
    phase.integer("segments_folded", stats.segments_folded);
    phase.integer("compaction_errors", stats.errors);
    phase.integer("queries_during_run", answered);
    phase.integer("query_errors_during_compaction", errors);
    if let Some(status) = status {
        phase.integer("final_segments", status.segments as u64);
        phase.integer("final_segment_bytes", status.segment_bytes);
        phase.integer("final_base_bytes", status.base_bytes);
        phase.integer("covered_epoch", status.covered);
    }
    let phase = parse(&phase.finish()).expect("phase JSON is valid");
    merge_bench_phase(bench_json, phase_name, phase, Some(seconds));
    eprintln!("phase '{phase_name}' merged into {bench_json}");

    let _ = std::fs::remove_dir_all(&root);
    (errors > 0 || stats.errors > 0 || stats.runs == 0) as i32
}

// ---------------------------------------------------------------------
// The replication scenario (`--cluster`)
// ---------------------------------------------------------------------

/// What the cluster run observed. `stale_answers` is the invariant:
/// an `ok` reply whose echoed epoch is below the `min_epoch` floor the
/// request carried — data a fenced request must never receive.
struct ClusterRun {
    queries: u64,
    /// Correct fencing refusals (retried until the node caught up).
    typed_stales: u64,
    /// Fencing violations: `ok` below the requested floor. Must be 0.
    stale_answers: u64,
    errors: u64,
    ingests_sent: u64,
    /// Followers whose epoch reached the primary's before the deadline.
    followers_converged: u64,
    /// Warm replies compared byte-for-byte across replicas.
    replies_compared: u64,
    /// Comparisons that differed. Must be 0.
    mismatched_replies: u64,
    final_epoch: u64,
    seconds: f64,
}

/// Splice the fencing floor into a compact mix line (`{...}` →
/// `{..., "min_epoch": N}`). `min_epoch` is not part of the canonical
/// echo, so fenced and unfenced forms of the same query produce
/// byte-identical replies.
fn splice_min_epoch(line: &str, floor: u64) -> String {
    let body = line
        .trim_end()
        .strip_suffix('}')
        .unwrap_or_else(|| fail("mix line is not a JSON object"));
    format!("{body},\"min_epoch\":{floor}}}")
}

/// The epoch a node is serving at, read from the canonical echo of a
/// trivial query (works on primaries and followers alike — no
/// replication queries involved).
fn node_epoch(conn: &mut Connection) -> Result<u64, String> {
    let reply = request(conn, "{\"query\":\"catalog\"}")?;
    let value = parse(&reply).map_err(|error| format!("bad reply JSON: {error:?}"))?;
    value
        .get("query")
        .and_then(|echo| echo.get("epoch"))
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("reply carries no epoch echo: {reply}"))
}

/// Drive one primary + N followers with mid-run ingest churn, fencing
/// every request with the highest epoch any reply has echoed. See the
/// module docs for the invariants; returns the process exit code.
#[allow(clippy::too_many_arguments)]
fn cluster_drive(
    primary: &str,
    followers: &[String],
    deltas: &[String],
    rounds: usize,
    distinct: usize,
    wait_secs: u64,
    deadline: Duration,
    bench_json: &str,
    phase_name: &str,
    shutdown: bool,
) -> i32 {
    let started = Instant::now();
    let hard_deadline = started + deadline;
    let wait = Duration::from_secs(wait_secs);

    let mut names: Vec<String> = Vec::with_capacity(1 + followers.len());
    names.push(primary.to_string());
    names.extend(followers.iter().cloned());
    let mut nodes: Vec<Connection> = names
        .iter()
        .map(|addr| connect_with_retry(addr, wait).unwrap_or_else(|error| fail(&error)))
        .collect();
    eprintln!(
        "cluster: primary {primary} + {} follower(s), {rounds} rounds, {} delta(s) to ingest",
        followers.len(),
        deltas.len()
    );

    let catalog = request(&mut nodes[0], "{\"query\":\"catalog\"}")
        .unwrap_or_else(|error| fail(&format!("catalog query failed: {error}")));
    let catalog =
        parse(&catalog).unwrap_or_else(|error| fail(&format!("bad catalog JSON: {error:?}")));
    if catalog.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        fail(&format!("catalog refused: {}", catalog.render()));
    }
    let mix = build_mix(catalog.get("result").unwrap_or(&JsonValue::Null), distinct)
        .unwrap_or_else(|| fail("catalog advertised no AS ids to query"));

    let mut run = ClusterRun {
        queries: 0,
        typed_stales: 0,
        stale_answers: 0,
        errors: 0,
        ingests_sent: 0,
        followers_converged: 0,
        replies_compared: 0,
        mismatched_replies: 0,
        final_epoch: 0,
        seconds: 0.0,
    };
    // The global fencing floor: the highest epoch any reply echoed.
    // Seed it from the primary so round 0 is already fenced.
    let mut floor = node_epoch(&mut nodes[0]).unwrap_or_else(|error| fail(&error));

    // Spread the ingests over the run: delta k lands at round
    // rounds·(k+1)/(deltas+1), so epochs advance mid-run, not at the
    // edges.
    let ingest_round = |k: usize| -> usize { rounds * (k + 1) / (deltas.len() + 1) };

    for round in 0..rounds {
        while run.ingests_sent < deltas.len() as u64
            && round >= ingest_round(run.ingests_sent as usize)
        {
            let delta = &deltas[run.ingests_sent as usize];
            let line = format!(
                "{{\"query\": \"repl_ingest\", \"path\": \"{}\"}}",
                lfp_analysis::json::escape(delta)
            );
            let reply = request(&mut nodes[0], &line)
                .unwrap_or_else(|error| fail(&format!("repl_ingest failed: {error}")));
            let value = parse(&reply)
                .unwrap_or_else(|error| fail(&format!("bad repl_ingest reply: {error:?}")));
            if value.get("ok").and_then(JsonValue::as_bool) != Some(true) {
                fail(&format!("primary refused repl_ingest: {reply}"));
            }
            let epoch = value
                .get("result")
                .and_then(|result| result.get("epoch"))
                .and_then(JsonValue::as_u64)
                .unwrap_or(floor);
            floor = floor.max(epoch);
            run.ingests_sent += 1;
            eprintln!("round {round}: primary ingested {delta} → epoch {epoch} (floor {floor})");
        }

        for node in 0..nodes.len() {
            let line = &mix[(round * 7 + node * 3) % mix.len()];
            let fenced = splice_min_epoch(line, floor);
            loop {
                if Instant::now() >= hard_deadline {
                    eprintln!("warning: cluster deadline expired mid-round {round}");
                    run.errors += 1;
                    break;
                }
                let reply = match request(&mut nodes[node], &fenced) {
                    Ok(reply) => reply,
                    Err(error) => {
                        eprintln!("{}: request failed: {error}", names[node]);
                        run.errors += 1;
                        break;
                    }
                };
                if let Some((have, want)) = wire::stale_epoch_of(&reply) {
                    // Correct fencing: the node admits it is behind
                    // rather than serving old data. Wait it out.
                    run.typed_stales += 1;
                    debug_assert!(have < want);
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
                let value = match parse(&reply) {
                    Ok(value) => value,
                    Err(error) => {
                        eprintln!("{}: unparseable reply: {error:?}", names[node]);
                        run.errors += 1;
                        break;
                    }
                };
                if value.get("ok").and_then(JsonValue::as_bool) == Some(true) {
                    let epoch = value
                        .get("query")
                        .and_then(|echo| echo.get("epoch"))
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0);
                    if epoch < floor {
                        // The violation: an `ok` answer below the
                        // fence the request carried.
                        eprintln!(
                            "STALE ANSWER from {}: epoch {epoch} under floor {floor}",
                            names[node]
                        );
                        run.stale_answers += 1;
                    }
                    floor = floor.max(epoch);
                    run.queries += 1;
                } else {
                    eprintln!("{}: error reply: {reply}", names[node]);
                    run.errors += 1;
                }
                break;
            }
        }
    }

    // -- convergence: every follower must reach the primary's epoch --
    let target = node_epoch(&mut nodes[0]).unwrap_or_else(|error| fail(&error));
    run.final_epoch = target;
    for (index, follower) in followers.iter().enumerate() {
        let node = index + 1;
        loop {
            match node_epoch(&mut nodes[node]) {
                Ok(epoch) if epoch >= target => {
                    run.followers_converged += 1;
                    break;
                }
                Ok(_) => {}
                Err(error) => eprintln!("{follower}: epoch probe failed: {error}"),
            }
            if Instant::now() >= hard_deadline {
                eprintln!("warning: {follower} never converged to epoch {target}");
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    // -- byte-identity: warm replies must match across replicas ------
    // Two requests per node per line: the second is a cache hit
    // (`"cached": true`) everywhere, so at equal epochs the full reply
    // line — envelope, canonical echo, rendered result — must be
    // byte-identical across the cluster.
    if run.followers_converged == followers.len() as u64 {
        for line in mix.iter().take(16) {
            let fenced = splice_min_epoch(line, target);
            let mut reference: Option<String> = None;
            for (node, name) in names.iter().enumerate() {
                let warm = request(&mut nodes[node], &fenced)
                    .and_then(|_| request(&mut nodes[node], &fenced));
                let warm = match warm {
                    Ok(reply) => reply,
                    Err(error) => {
                        eprintln!("{name}: identity probe failed: {error}");
                        run.errors += 1;
                        continue;
                    }
                };
                match &reference {
                    None => reference = Some(warm),
                    Some(expected) => {
                        run.replies_compared += 1;
                        if &warm != expected {
                            eprintln!(
                                "REPLY MISMATCH on {name} for {line}:\n  primary:  {expected}\n  replica:  {warm}"
                            );
                            run.mismatched_replies += 1;
                        }
                    }
                }
            }
        }
    } else {
        eprintln!("skipping byte-identity sweep: cluster did not converge");
    }

    run.seconds = started.elapsed().as_secs_f64();
    println!(
        "{phase_name}: {} fenced queries over {} node(s) in {:.2}s — {} typed stales honoured, \
         {} stale answers, {} ingests, {}/{} followers converged, \
         {} identical warm replies, {} mismatched",
        run.queries,
        names.len(),
        run.seconds,
        run.typed_stales,
        run.stale_answers,
        run.ingests_sent,
        run.followers_converged,
        followers.len(),
        run.replies_compared - run.mismatched_replies,
        run.mismatched_replies,
    );
    write_replication_phase(bench_json, phase_name, followers.len(), &run);

    if shutdown {
        // Followers first, then the primary (each is its own process).
        for node in (0..nodes.len()).rev() {
            let _ = request(&mut nodes[node], "{\"query\":\"shutdown\"}");
        }
        eprintln!("sent shutdown to all {} nodes", nodes.len());
    }

    (run.stale_answers > 0
        || run.mismatched_replies > 0
        || run.followers_converged < followers.len() as u64
        || run.errors > 0) as i32
}

/// Write the `replication` phase: the fencing and convergence ledger
/// CI asserts on (`stale_answers == 0`, `mismatched_replies == 0`,
/// `followers_converged == follower count`).
fn write_replication_phase(path: &str, phase_name: &str, followers: usize, run: &ClusterRun) {
    let mut phase = JsonBuilder::object();
    phase.integer("followers", followers as u64);
    phase.integer("queries", run.queries);
    phase.integer("typed_stales", run.typed_stales);
    phase.integer("stale_answers", run.stale_answers);
    phase.integer("errors", run.errors);
    phase.integer("ingests_sent", run.ingests_sent);
    phase.integer("followers_converged", run.followers_converged);
    phase.integer("replies_compared", run.replies_compared);
    phase.integer("mismatched_replies", run.mismatched_replies);
    phase.integer("final_epoch", run.final_epoch);
    phase.number("seconds", run.seconds);
    let phase = parse(&phase.finish()).expect("phase JSON is valid");
    merge_bench_phase(path, phase_name, phase, Some(run.seconds));
    eprintln!("wrote {phase_name} phase to {path}");
}

/// Render the client-side latency quantiles for a bench phase.
fn latency_json(latency_us: &Histogram) -> String {
    let mut latency = JsonBuilder::object();
    latency.integer("p50", latency_us.quantile(0.50));
    latency.integer("p90", latency_us.quantile(0.90));
    latency.integer("p99", latency_us.quantile(0.99));
    latency.integer("p999", latency_us.quantile(0.999));
    latency.integer("max", latency_us.max());
    latency.finish()
}

/// Write the `chaos` phase: client-observed accounting plus the
/// daemon's own fault/shed counters from a post-run `stats` probe.
fn write_chaos_phase(
    path: &str,
    phase_name: &str,
    connections: usize,
    pipeline: usize,
    run: &FleetRun,
    retry_budget: u64,
    stats: Option<&JsonValue>,
) {
    let stat = |key: &str| -> u64 {
        stats
            .and_then(|value| value.get(key))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    let latency = latency_json(&run.latency_us);
    let mut phase = JsonBuilder::object();
    phase.integer("connections", connections as u64);
    phase.integer("pipeline", pipeline as u64);
    phase.integer("acknowledged", run.ok);
    phase.integer("lost_acknowledged", run.lost);
    phase.integer("sheds_observed", run.sheds);
    phase.integer("reconnects", run.reconnects);
    phase.integer("retries_used", run.retries_used);
    phase.integer("retry_budget", retry_budget);
    phase.integer("retry_budget_remaining", run.retry_budget_remaining);
    phase.integer("injected_faults", stat("injected_faults"));
    phase.integer("shed", stat("shed"));
    phase.integer("deadline_expired", stat("deadline_expired"));
    phase.number("seconds", run.seconds);
    phase.number("qps", run.qps());
    phase.raw("latency_us", latency);
    let phase = parse(&phase.finish()).expect("phase JSON is valid");
    merge_bench_phase(path, phase_name, phase, Some(run.seconds));
    eprintln!("wrote {phase_name} phase to {path}");
}

/// Merge one cell of the serve scaling sweep into the `serve_scaling`
/// phase: cells accumulate across runs under `loops{N}_conns{C}` keys,
/// and once the 1-loop and 4-loop cells at 512 connections are both
/// present the phase records `speedup_4loops_512` — the scaling ratio
/// CI asserts on — beside `cores`, the parallelism it was measured on.
fn write_scaling_cell(path: &str, loops: u64, connections: usize, run: &FleetRun) {
    let key = format!("loops{loops}_conns{connections}");
    let mut cell = JsonBuilder::object();
    cell.integer("loops", loops);
    cell.integer("connections", connections as u64);
    cell.integer("queries", run.ok);
    cell.integer("errors", run.lost);
    cell.number("seconds", run.seconds);
    cell.number("qps", run.qps());

    // Carry every other cell of the grid over from earlier runs.
    let mut grid: Vec<(String, String)> = Vec::new();
    if let Some(previous) = read_bench_phase(path, "serve_scaling") {
        if let Some(entries) = previous.as_object() {
            for (name, value) in entries {
                if name.starts_with("loops") && name != &key {
                    grid.push((name.clone(), value.render()));
                }
            }
        }
    }
    grid.push((key, cell.finish()));
    grid.sort();

    let qps_of = |name: &str| -> Option<f64> {
        let (_, raw) = grid.iter().find(|(cell_name, _)| cell_name == name)?;
        parse(raw).ok()?.get("qps").and_then(JsonValue::as_f64)
    };
    let speedup = match (qps_of("loops1_conns512"), qps_of("loops4_conns512")) {
        (Some(single), Some(quad)) => Some(quad / single.max(1e-9)),
        _ => None,
    };

    let mut phase = JsonBuilder::object();
    for (name, raw) in grid {
        phase.raw(&name, raw);
    }
    if let Some(speedup) = speedup {
        phase.number("speedup_4loops_512", speedup);
    }
    // A 4-loop speedup needs 4 cores to show: readers of the grid judge
    // it only where `cores >= 4`.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    phase.integer("cores", cores as u64);
    let phase = parse(&phase.finish()).expect("phase JSON is valid");
    merge_bench_phase(path, "serve_scaling", phase, Some(run.seconds));
    eprintln!("merged serve_scaling cell loops{loops}_conns{connections} into {path}");
}

/// Insert/replace the plain generator's phase in the bench artefact.
fn write_phase(
    path: &str,
    phase_name: &str,
    connections: usize,
    pipeline: usize,
    run: &FleetRun,
    bootstrap_acked: u64,
) {
    let mut phase = JsonBuilder::object();
    phase.integer("connections", connections as u64);
    phase.integer("pipeline", pipeline as u64);
    phase.integer("queries", run.ok);
    // Every successful data reply this process read, bootstrap
    // included — the exact number `lfp_responses_total` must show.
    phase.integer("acknowledged_total", run.ok + bootstrap_acked);
    phase.integer("errors", run.lost);
    phase.integer("reconnects", run.reconnects);
    phase.number("seconds", run.seconds);
    phase.number("qps", run.qps());
    phase.raw("latency_us", latency_json(&run.latency_us));
    let phase = parse(&phase.finish()).expect("phase JSON is valid");
    merge_bench_phase(path, phase_name, phase, Some(run.seconds));
    eprintln!("wrote {phase_name} phase to {path}");
}
