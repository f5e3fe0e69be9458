//! query-load — the load client for `vendor-queryd`.
//!
//! ```text
//! query-load [--addr 127.0.0.1:7377] [--connections 512] [--pipeline 16]
//!            [--requests-per-conn 200] [--churn-every 0] [--distinct 64]
//!            [--wait-secs 30] [--deadline-secs 180] [--threads 1]
//!            [--chaos] [--seed 1] [--retry-budget 100000] [--shutdown]
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
//! `--chaos` runs the same fleet as a **resilient client** against a
//! daemon under a fault-injecting I/O policy and/or an admission
//! watermark (`vendor-queryd --fault-profile aggressive
//! --queue-watermark N`): the fleet gets a shared `--retry-budget`, and
//! every connection retries `overloaded` sheds and connection resets
//! with seeded, jittered exponential backoff
//! ([`lfp_bench::mix::Backoff`]) instead of counting them as errors.
//! Planned churn spends no budget.
//!
//! The run prints one summary line — acknowledged replies, q/s,
//! client-side latency quantiles, reconnects, sheds, retries and lost
//! replies — and exits 1 if any reply was lost or, under `--chaos`, the
//! retry budget ran dry. Throughput and latency are measured by the repo
//! benchmark (`lfp-benchmark`); this binary is for driving a daemon by
//! hand.

use lfp_analysis::json::{parse, JsonValue};
use lfp_bench::mix::{build_mix, connect, connect_with_retry, request, run_fleet, FleetPlan};
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
    let mut shutdown = false;
    let mut chaos = false;
    let mut seed = 1u64;
    let mut retry_budget = 100_000u64;
    let mut threads = 1usize;

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
            "--threads" => threads = parse_number(args.next(), "--threads"),
            "--shutdown" => shutdown = true,
            "--chaos" => chaos = true,
            "--seed" => seed = parse_number(args.next(), "--seed"),
            "--retry-budget" => retry_budget = parse_number(args.next(), "--retry-budget"),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    let connections = connections.max(1);
    let pipeline = pipeline.max(1);
    let requests_per_conn = requests_per_conn.max(1);
    let threads = threads.max(1);

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
    let latency = &run.latency_us;
    println!(
        "{}/{total} acknowledged in {:.2}s → {:.0} q/s (p50 {}µs, p90 {}µs, p99 {}µs, \
         p999 {}µs, max {}µs; {} reconnects, {} sheds, {} retries used, {} budget left, \
         {} lost)",
        run.ok,
        run.seconds,
        run.qps(),
        latency.quantile(0.50),
        latency.quantile(0.90),
        latency.quantile(0.99),
        latency.quantile(0.999),
        latency.max(),
        run.reconnects,
        run.sheds,
        run.retries_used,
        run.retry_budget_remaining,
        run.lost,
    );

    if shutdown {
        send_shutdown(&addr);
    }
    if run.lost > 0 || (chaos && run.retry_budget_remaining == 0) {
        std::process::exit(1);
    }
}

/// Send the shutdown control query. A chaos daemon may reset any
/// connection, this one included, so retry over fresh connections —
/// each read bounded at five seconds, so a reply an injected reset
/// killed cannot hang — until the acknowledgement (or the drain
/// refusing new connections) confirms the daemon got it.
fn send_shutdown(addr: &str) {
    for _attempt in 0..20 {
        let Ok(mut connection) = connect(addr) else {
            // Refusing connections: the daemon is already draining.
            eprintln!("sent shutdown");
            return;
        };
        let bounded = connection
            .reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(5)));
        if bounded.is_ok()
            && request(&mut connection, "{\"query\":\"shutdown\"}")
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
         [--deadline-secs N] [--threads N] [--chaos] [--seed N] [--retry-budget N] \
         [--shutdown]"
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
