//! Process-level replication test: one primary + two followers, real
//! `vendor-queryd` binaries over real sockets, with a follower killed
//! and restarted mid-ingest.
//!
//! The acceptance invariants of the replication plane, end to end:
//!
//! * a follower bootstraps from the primary's shipped snapshot, then
//!   tracks epochs through shipped deltas;
//! * a fenced query (`min_epoch`) is **never** answered `ok` below its
//!   floor — the node either answers at ≥ the floor or refuses with
//!   the typed `stale_epoch` envelope until it has caught up;
//! * a follower killed mid-run restarts from its persisted store,
//!   resyncs the epochs it missed, and converges;
//! * at equal epochs, warm replies are byte-identical across replicas.

mod common;

use common::{Daemon, Scratch};
use lfp_analysis::json::{parse, JsonValue};
use lfp_bench::measure_deltas;
use lfp_bench::mix::{build_mix, connect_with_retry, request, Connection};
use lfp_query::wire;
use lfp_store::Store;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(30);

fn fenced(line: &str, floor: u64) -> String {
    let body = line.trim_end().strip_suffix('}').expect("JSON object line");
    format!("{body},\"min_epoch\":{floor}}}")
}

/// The epoch a node serves at, from the canonical echo.
fn epoch_of(conn: &mut Connection) -> u64 {
    let reply = request(conn, "{\"query\":\"catalog\"}").expect("epoch probe");
    parse(&reply)
        .expect("reply parses")
        .get("query")
        .and_then(|echo| echo.get("epoch"))
        .and_then(JsonValue::as_u64)
        .expect("reply echoes its epoch")
}

/// Fenced request against one node: returns the `ok` reply, asserting
/// the fencing contract — any `ok` must be at ≥ `floor`, anything else
/// must be the typed `stale_epoch` refusal (retried until caught up).
fn fenced_request(conn: &mut Connection, line: &str, floor: u64, who: &str) -> String {
    let fenced_line = fenced(line, floor);
    let deadline = Instant::now() + WAIT;
    loop {
        let reply = request(conn, &fenced_line).expect("fenced request");
        if let Some((have, want)) = wire::stale_epoch_of(&reply) {
            assert!(have < want, "{who}: nonsensical stale_epoch {have}/{want}");
            assert!(
                Instant::now() < deadline,
                "{who}: still stale_epoch ({have} < {want}) after {WAIT:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        let value = parse(&reply).expect("reply parses");
        assert_eq!(
            value.get("ok").and_then(JsonValue::as_bool),
            Some(true),
            "{who}: fenced request failed: {reply}"
        );
        let epoch = value
            .get("query")
            .and_then(|echo| echo.get("epoch"))
            .and_then(JsonValue::as_u64)
            .expect("ok reply echoes its epoch");
        assert!(
            epoch >= floor,
            "{who}: STALE ANSWER — ok at epoch {epoch} under fence {floor}: {reply}"
        );
        return reply;
    }
}

fn wait_for_epoch(addr: &str, target: u64, who: &str) -> Connection {
    let deadline = Instant::now() + WAIT;
    loop {
        if let Ok(mut conn) = connect_with_retry(addr, Duration::from_secs(2)) {
            if epoch_of(&mut conn) >= target {
                return conn;
            }
        }
        assert!(
            Instant::now() < deadline,
            "{who} never converged to epoch {target}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn cluster_survives_follower_kill_and_serves_identical_epochs() {
    let scratch = Scratch::new("repl-cluster");

    // -- fixture: a tiny store plus two delta files to churn with ---
    let world = lfp_bench::shared_tiny_world();
    let deltas = measure_deltas(&world, 2);
    let delta_paths: Vec<PathBuf> = deltas
        .iter()
        .enumerate()
        .map(|(index, delta)| {
            let path = scratch.path(&format!("{:02}.delta", index + 1));
            std::fs::write(&path, delta.to_bytes()).expect("write delta file");
            path
        })
        .collect();
    let primary_store = scratch.path("primary.lfps");
    Store::from_world(world)
        .save(&primary_store)
        .expect("seed primary store");
    let store_arg = |path: &Path| path.to_str().expect("utf-8 path").to_string();

    // -- the cluster: primary + two followers ------------------------
    let primary = Daemon::spawn(&[
        "--store",
        &store_arg(&primary_store),
        "--port",
        "0",
        "--serve-replicas",
    ]);
    let f1_store = store_arg(&scratch.path("follower1.lfps"));
    let f2_store = store_arg(&scratch.path("follower2.lfps"));
    let follower1 = Daemon::spawn(&[
        "--follow",
        &primary.addr,
        "--store",
        &f1_store,
        "--port",
        "0",
    ]);
    let follower2 = Daemon::spawn(&[
        "--follow",
        &primary.addr,
        "--store",
        &f2_store,
        "--port",
        "0",
    ]);

    let mut p = connect_with_retry(&primary.addr, WAIT).expect("connect primary");
    let mut c1 = connect_with_retry(&follower1.addr, WAIT).expect("connect follower 1");
    let mut c2 = connect_with_retry(&follower2.addr, WAIT).expect("connect follower 2");

    // Build the query mix from the primary's catalog.
    let catalog = request(&mut p, "{\"query\":\"catalog\"}").expect("catalog");
    let catalog = parse(&catalog).expect("catalog parses");
    assert_eq!(catalog.get("ok").and_then(JsonValue::as_bool), Some(true));
    let mix = build_mix(catalog.get("result").expect("catalog result"), 16)
        .expect("catalog advertises AS ids");

    // Followers bootstrapped from the shipped snapshot serve epoch 0.
    assert_eq!(epoch_of(&mut c1), 0);
    assert_eq!(epoch_of(&mut c2), 0);

    // -- epoch 1: ingest on the primary, fence the followers ---------
    let ingest = format!(
        "{{\"query\": \"repl_ingest\", \"path\": \"{}\"}}",
        delta_paths[0].display()
    );
    let reply = request(&mut p, &ingest).expect("repl_ingest");
    assert!(reply.contains("\"ok\": true"), "ingest refused: {reply}");
    let floor = 1u64;
    for (conn, who) in [(&mut c1, "follower1"), (&mut c2, "follower2")] {
        for line in mix.iter().take(4) {
            fenced_request(conn, line, floor, who);
        }
    }

    // -- kill follower 2 mid-run, advance the world without it -------
    drop(c2);
    drop(follower2);
    let ingest = format!(
        "{{\"query\": \"repl_ingest\", \"path\": \"{}\"}}",
        delta_paths[1].display()
    );
    let reply = request(&mut p, &ingest).expect("repl_ingest 2");
    assert!(reply.contains("\"ok\": true"), "ingest refused: {reply}");
    assert_eq!(epoch_of(&mut p), 2);

    // Follower 1 (still alive) must reach epoch 2 behind the fence.
    for line in mix.iter().take(4) {
        fenced_request(&mut c1, line, 2, "follower1");
    }

    // -- restart follower 2: persisted store + resync ----------------
    let follower2 = Daemon::spawn(&[
        "--follow",
        &primary.addr,
        "--store",
        &f2_store,
        "--port",
        "0",
    ]);
    let mut c2 = wait_for_epoch(&follower2.addr, 2, "restarted follower2");
    for line in mix.iter().take(4) {
        fenced_request(&mut c2, line, 2, "restarted follower2");
    }

    // -- byte-identity at equal epochs -------------------------------
    // Second request per node is the warm (cached) one; at equal
    // epochs the whole reply line must match across the cluster.
    for line in mix.iter().take(8) {
        let warm = |conn: &mut Connection, who: &str| {
            fenced_request(conn, line, 2, who);
            fenced_request(conn, line, 2, who)
        };
        let expected = warm(&mut p, "primary");
        assert_eq!(warm(&mut c1, "follower1"), expected, "follower1 diverged");
        assert_eq!(warm(&mut c2, "follower2"), expected, "follower2 diverged");
    }

    // -- replica ≡ primary in the persisted stores --------------------
    // Followers persist every epoch they apply; wait for the last save
    // to land before stopping them.
    for path in [&f1_store, &f2_store] {
        wait_for_persisted(Path::new(path), 2);
    }
    drop(p);
    drop(c1);
    drop(c2);
    follower1.shutdown();
    follower2.shutdown();
    primary.shutdown();

    // Reloaded, all three stores hold equal corpora. `repl_ingest` does
    // not persist the primary, so its state is its store file plus the
    // same delta files, ingested the way `repl_ingest` ingests them.
    let primary_state = load_store(&primary_store);
    for path in &delta_paths {
        lfp_store::ingest_path(&primary_state, path).expect("replay the primary's ingests");
    }
    for path in [&f1_store, &f2_store] {
        let replica = load_store(Path::new(path));
        assert_eq!(replica.epoch(), primary_state.epoch(), "{path}");
        assert_eq!(
            replica.engine().corpus(),
            primary_state.engine().corpus(),
            "{path}: persisted corpus diverged from the primary's"
        );
    }
}

fn load_store(path: &Path) -> Store {
    Store::load(path).expect("persisted store loads").0
}

/// Poll a follower's store file until it reloads at `epoch`.
fn wait_for_persisted(path: &Path, epoch: u64) {
    let deadline = Instant::now() + WAIT;
    while !Store::load(path).is_ok_and(|(store, _)| store.epoch() >= epoch) {
        assert!(
            Instant::now() < deadline,
            "{} never persisted epoch {epoch}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
