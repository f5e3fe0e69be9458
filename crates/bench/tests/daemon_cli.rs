//! Process-level test of the command-line surface at `--scale tiny`:
//! `store-tool`, `vendor-queryd` and `experiments` as real processes,
//! the daemon over real sockets.
//!
//! * `store-tool deltas` writes one `.delta` file per snapshot, and
//!   `store-tool inspect` reads back the store the daemon persisted;
//! * `vendor-queryd --store` builds and saves on the first start, then
//!   cold-starts from the store and folds `--ingest` deltas in as epochs
//!   before it reports ready;
//! * 512 pipelined connections with reconnect churn lose no reply;
//! * the wire-level `metrics` ledger equals the replies this client
//!   acknowledged, the `slowlog` is bounded and sorted slowest first,
//!   and `--metrics-dump` prints the exposition after the drain;
//! * `experiments` prints the same reports serial or parallel and
//!   writes no file; `--help` prints the usage and an unknown flag exits
//!   2, both without building a world.

mod common;

use common::{Daemon, Scratch};
use lfp_analysis::json::{parse, JsonValue};
use lfp_bench::mix::{build_mix, connect_with_retry, request, run_fleet, FleetPlan};
use std::path::Path;
use std::process::{Command, Output};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);

/// Run one of the package's binaries to completion in `cwd`.
fn run(binary: &str, args: &[&str], cwd: &Path) -> Output {
    let output = Command::new(binary)
        .args(args)
        .current_dir(cwd)
        .output()
        .unwrap_or_else(|error| panic!("spawn {binary}: {error}"));
    assert!(
        output.status.success(),
        "{binary} {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// One control query on a fresh connection; returns its `result`.
fn control(addr: &str, line: &str) -> JsonValue {
    let mut conn = connect_with_retry(addr, WAIT).expect("connect for control query");
    let reply = request(&mut conn, line).expect("control reply");
    let reply = parse(&reply).expect("control reply is JSON");
    assert_eq!(reply.get("ok").and_then(JsonValue::as_bool), Some(true));
    reply.get("result").cloned().expect("control result")
}

/// The value of one exposition sample, named with its labels.
fn metric(exposition: &str, sample: &str) -> Option<u64> {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(sample)?.strip_prefix(' ')?.parse().ok())
}

const RESPONSES: &str = "lfp_responses_total{shard=\"all\"}";

#[test]
fn daemon_persists_ingests_serves_and_reconciles_its_ledger() {
    let scratch = Scratch::new("daemon-cli");
    let deltas = scratch.path("deltas");
    let store = scratch.path("world.lfps");
    let deltas_arg = deltas.to_str().expect("utf-8 path");
    let store_arg = store.to_str().expect("utf-8 path");
    let store_tool = env!("CARGO_BIN_EXE_store-tool");

    // -- two snapshot deltas beyond the tiny base campaign -----------
    run(
        store_tool,
        &[
            "deltas", "--scale", "tiny", "--count", "2", "--out", deltas_arg,
        ],
        scratch.dir(),
    );
    let written = std::fs::read_dir(&deltas)
        .expect("deltas dir")
        .filter(|entry| {
            entry
                .as_ref()
                .is_ok_and(|entry| entry.path().extension().is_some_and(|ext| ext == "delta"))
        })
        .count();
    assert_eq!(written, 2, "store-tool deltas --count 2");

    // -- first start builds and saves; the restart loads and ingests --
    let first = Daemon::spawn(&["--scale", "tiny", "--store", store_arg, "--port", "0"]);
    assert!(first.ready.contains("epoch 0"), "{}", first.ready);
    assert!(store.is_file(), "first start saved no store");
    first.shutdown();
    let daemon = Daemon::spawn(&[
        "--scale",
        "tiny",
        "--store",
        store_arg,
        "--ingest",
        deltas_arg,
        "--slowlog-size",
        "8",
        "--metrics-dump",
        "--port",
        "0",
    ]);
    assert!(daemon.ready.contains("epoch 2"), "{}", daemon.ready);

    // The ingest was re-persisted before the listener opened.
    let inspect = run(
        store_tool,
        &["inspect", "--store", store_arg],
        scratch.dir(),
    );
    let inspect = String::from_utf8_lossy(&inspect.stdout);
    assert!(inspect.contains("epoch 2"), "{inspect}");

    // -- bootstrap, then 512 pipelined connections with churn --------
    let mut conn = connect_with_retry(&daemon.addr, WAIT).expect("connect");
    let catalog = request(&mut conn, "{\"query\":\"catalog\"}").expect("catalog");
    let catalog = parse(&catalog).expect("catalog parses");
    let mix = build_mix(catalog.get("result").expect("catalog result"), 64)
        .expect("catalog advertises AS ids");
    for line in &mix {
        let reply = request(&mut conn, line).expect("warm-up reply");
        assert!(reply.contains("\"ok\": true"), "{line} → {reply}");
    }
    drop(conn);
    let bootstrap = 1 + mix.len() as u64;

    // Small per connection so a debug build stays quick; the fd budget
    // (512 client sockets here, 512 in the daemon) is the point.
    let run = run_fleet(&FleetPlan {
        addr: &daemon.addr,
        mix: &mix,
        connections: 512,
        pipeline: 16,
        requests_per_conn: 40,
        churn_every: 16,
        retry_budget: 0,
        seed: 1,
        threads: 2,
        deadline: Duration::from_secs(120),
    });
    assert_eq!((run.ok, run.lost), (512 * 40, 0), "{run:?}");
    assert!(run.reconnects > 0, "churn never reconnected: {run:?}");
    let acknowledged = bootstrap + run.ok;

    // -- the daemon's ledger, scraped over the wire ------------------
    let exposition = control(&daemon.addr, "{\"query\": \"metrics\"}");
    let exposition = exposition.as_str().expect("exposition text");
    assert_eq!(
        metric(exposition, RESPONSES),
        Some(acknowledged),
        "{exposition}"
    );

    let slowlog = control(&daemon.addr, "{\"query\": \"slowlog\"}");
    assert_eq!(slowlog.get("capacity").and_then(JsonValue::as_u64), Some(8));
    let totals: Vec<u64> = slowlog
        .get("entries")
        .and_then(JsonValue::as_array)
        .expect("slowlog entries")
        .iter()
        .map(|entry| {
            entry
                .get("total_us")
                .and_then(JsonValue::as_u64)
                .expect("total_us")
        })
        .collect();
    assert!(
        !totals.is_empty() && totals.len() <= 8,
        "slowlog size {}",
        totals.len()
    );
    assert!(
        totals.windows(2).all(|pair| pair[0] >= pair[1]),
        "slowlog not sorted slowest first: {totals:?}"
    );

    // -- the drained daemon's final exposition -----------------------
    let dump = daemon.shutdown();
    assert_eq!(metric(&dump, RESPONSES), Some(acknowledged), "{dump}");
}

#[test]
fn experiments_print_identical_reports_serial_or_parallel_and_write_no_file() {
    let scratch = Scratch::new("experiments-cli");
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let parallel = run(experiments, &["--scale", "tiny", "table3"], scratch.dir());
    let serial = run(
        experiments,
        &["--scale", "tiny", "--serial", "table3"],
        scratch.dir(),
    );
    assert!(!parallel.stdout.is_empty(), "no report printed");
    assert_eq!(
        String::from_utf8_lossy(&parallel.stdout),
        String::from_utf8_lossy(&serial.stdout),
        "serial and parallel reports differ"
    );
    let left: Vec<_> = std::fs::read_dir(scratch.dir())
        .expect("scratch dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    assert!(left.is_empty(), "experiments wrote {left:?}");
}

#[test]
fn experiments_help_prints_usage_and_an_unknown_flag_exits_2_before_any_build() {
    let scratch = Scratch::new("experiments-flags");
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let help = run(experiments, &["--help"], scratch.dir());
    let usage = String::from_utf8_lossy(&help.stdout);
    assert!(usage.starts_with("usage: experiments"), "{usage}");
    assert!(help.stderr.is_empty(), "--help built a world");

    let bogus = Command::new(experiments)
        .args(["--scale", "tiny", "--bogus"])
        .current_dir(scratch.dir())
        .output()
        .expect("spawn experiments");
    assert_eq!(bogus.status.code(), Some(2));
    assert!(bogus.stdout.is_empty(), "an unknown flag printed a report");
    let stderr = String::from_utf8_lossy(&bogus.stderr);
    assert!(stderr.contains("unknown flag '--bogus'"), "{stderr}");
    assert!(!stderr.contains("building world"), "{stderr}");
}
