//! vendor-queryd — serve vendor-intelligence queries over TCP.
//!
//! ```text
//! vendor-queryd [--scale tiny|small|paper|path-stress|query-stress|ingest-stress]
//!               [--addr 127.0.0.1] [--port 7377]
//!               [--loops N] [--workers N] [--max-connections N] [--max-inflight N]
//!               [--write-buffer-cap BYTES] [--drain-timeout-ms N]
//!               [--queue-watermark N] [--request-deadline-ms N]
//!               [--retry-hint-ms N]
//!               [--fault-seed N] [--fault-profile quiet|light|aggressive]
//!               [--cache-shards N] [--cache-capacity N]
//!               [--slowlog-size N] [--metrics-dump]
//!               [--store PATH] [--ingest DIR] [--compact-after N]
//!               [--follow ADDR] [--serve-replicas]
//! ```
//!
//! ## Replication
//!
//! `--serve-replicas` makes this daemon a replication **primary**: the
//! `repl_status` / `repl_snapshot` / `repl_delta` / `repl_ingest`
//! queries (see `lfp_store::repl`) are answered on the ordinary
//! serving port, ahead of the data path. `--follow ADDR` makes it a
//! **follower** of the primary at `ADDR`: on start it loads its local
//! `--store` (then catches up via shipped deltas) or, lacking one,
//! pulls the primary's full snapshot — resumably, through a `.sync`
//! scratch file whose progress survives a mid-sync kill; then a
//! background poller applies each new epoch through the same
//! `Store::ingest` path local ingest uses, persisting after every
//! applied delta when `--store` is set. Followers answer every data
//! query themselves and enforce `min_epoch` fencing: a request whose
//! floor is above the follower's applied epoch gets the typed
//! `stale_epoch` refusal, never old data.
//!
//! ## Overload and chaos
//!
//! `--queue-watermark N` sheds data queries with the typed
//! `overloaded` wire error once N decoded requests are queued for the
//! worker pool; `--request-deadline-ms` expires queued requests the
//! same way; `--retry-hint-ms` sets the `retry_ms` hint clients back
//! off by. `--fault-seed`/`--fault-profile` put the deterministic
//! [`FaultPolicy`](lfp_serve::FaultPolicy) between the event loop and
//! the kernel — the daemon then injects short reads/writes, `EINTR`,
//! spurious wakeups, resets and write stalls against itself, which is
//! what `query-load --chaos` is built to survive. Each shard runs an
//! **independent lane** of the seeded schedule (`seed ⊕ shard_id`) and
//! the acceptor runs one more for `accept` (see the determinism
//! contract in `lfp_serve::policy`), so multi-loop chaos runs stay
//! replayable.
//!
//! Serves the line protocol (see `lfp_query::wire`): one JSON query per
//! line in, one JSON result per line out. The daemon runs on the
//! **sharded readiness-driven core** from `lfp-serve` — an acceptor
//! distributing connections round-robin across `--loops N` independent
//! event loops (default 1; `0` sizes from the machine), each
//! multiplexing its connections over `poll(2)` with its own worker
//! pool, pipelining and per-connection backpressure, slow-reader
//! eviction, and a graceful drain on shutdown. `--port 0` binds an
//! ephemeral port; the `listening on` line printed to stdout carries
//! the actual address.
//!
//! ## Control queries and observability
//!
//! Beyond the query grammar: `{"query": "stats"}` reports connections,
//! queue depths and the serving epoch;
//! `{"query": "metrics"}` returns the Prometheus text exposition
//! (JSON-escaped in the reply envelope); `{"query": "slowlog"}` dumps
//! the top-K-by-latency slow-query log (`--slowlog-size N` sets K,
//! default 64, 0 disables); `{"query": "shutdown"}` acknowledges,
//! **drains every accepted request on every connection**, then exits;
//! an EOF or `quit` line ends one connection (after its pipelined
//! responses flush). `--metrics-dump` prints the final exposition to
//! stdout after the drain, once every counter has quiesced.
//!
//! ## Persistence and ingestion
//!
//! Without `--store`, the daemon measures a fresh `World` at the
//! requested scale on every start. With `--store PATH`:
//!
//! * if `PATH` exists, the daemon **cold-starts from the store** — the
//!   deterministic Internet regenerates, everything measured or
//!   classified loads from disk, and serving resumes at the persisted
//!   epoch (an order of magnitude faster than a rebuild);
//! * otherwise the daemon builds the world once and **saves the store**
//!   to `PATH` for the next start.
//!
//! `--ingest DIR` then folds every `*.delta` file in `DIR` (sorted by
//! file name; written by `store-tool deltas`) into the serving state as
//! one epoch per snapshot before the listener opens, and re-persists the
//! store when `--store` is set. The readiness line reports the epoch
//! serving starts at.
//!
//! ## Segmented store and background compaction
//!
//! When `--store` points at a **directory** (or `--compact-after N` is
//! given), persistence uses the segmented epoch log
//! (`lfp_store::segment`): the base snapshot is written once and each
//! ingested epoch seals one O(delta) segment file, with the `MANIFEST`
//! rename as the atomic publish point. `--compact-after N` arms the
//! background compactor: once more than N segments are published it
//! folds them into a fresh sealed base, off the serving threads —
//! queries and replication keep flowing during a fold. The compactor's
//! counters ride the `stats` reply (`compactions`,
//! `compaction_segments_folded`, `compaction_errors`,
//! `compaction_last_us`) and the `metrics` exposition (as `lfp_*`
//! gauges). Followers with a segmented `--store` persist **per applied
//! epoch** — one segment file per delta instead of rewriting the world
//! after every poll.

use lfp_analysis::World;
use lfp_serve::{DirectIo, EngineSource, FaultPlan, FaultPolicy, IoPolicy, ServeConfig, Server};
use lfp_store::{
    follow_once, follow_once_persistent, CompactionPolicy, Compactor, ReplClient, ReplSource,
    SnapshotDelta, Store,
};
use lfp_topo::Scale;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut scale = Scale::query_stress();
    let mut scale_name = "query-stress".to_string();
    let mut addr = "127.0.0.1".to_string();
    let mut port = 7377u16;
    let mut cache_shards = 16usize;
    let mut cache_capacity = 4096usize;
    let mut store_path: Option<String> = None;
    let mut ingest_dir: Option<String> = None;
    let mut follow_addr: Option<String> = None;
    let mut serve_replicas = false;
    let mut compact_after: Option<usize> = None;
    let mut config = ServeConfig::default();
    let mut fault_seed = 0u64;
    let mut fault_profile: Option<String> = None;
    let mut metrics_dump = false;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().unwrap_or_default();
                scale = Scale::by_name(&value).unwrap_or_else(|| {
                    eprintln!(
                        "unknown scale '{value}' \
                         (tiny|small|paper|path-stress|query-stress|ingest-stress)"
                    );
                    std::process::exit(2);
                });
                scale_name = value;
            }
            "--addr" => addr = args.next().unwrap_or_else(|| usage("--addr needs a host")),
            "--port" => port = parse_number(args.next(), "--port"),
            "--loops" => config.loops = parse_number(args.next(), "--loops"),
            "--workers" => config.workers = parse_number(args.next(), "--workers"),
            "--max-connections" => {
                config.max_connections = parse_number(args.next(), "--max-connections")
            }
            "--max-inflight" => config.max_inflight = parse_number(args.next(), "--max-inflight"),
            "--write-buffer-cap" => {
                config.write_buffer_cap = parse_number(args.next(), "--write-buffer-cap")
            }
            "--drain-timeout-ms" => {
                config.drain_timeout =
                    Duration::from_millis(parse_number(args.next(), "--drain-timeout-ms"));
            }
            "--queue-watermark" => {
                config.queue_watermark = parse_number(args.next(), "--queue-watermark")
            }
            "--request-deadline-ms" => {
                config.request_deadline =
                    Duration::from_millis(parse_number(args.next(), "--request-deadline-ms"));
            }
            "--retry-hint-ms" => {
                config.retry_hint_ms = parse_number(args.next(), "--retry-hint-ms")
            }
            "--fault-seed" => fault_seed = parse_number(args.next(), "--fault-seed"),
            "--fault-profile" => {
                fault_profile = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--fault-profile needs a name")),
                );
            }
            "--slowlog-size" => {
                config.slowlog_capacity = parse_number(args.next(), "--slowlog-size")
            }
            "--metrics-dump" => metrics_dump = true,
            "--cache-shards" => cache_shards = parse_number(args.next(), "--cache-shards"),
            "--cache-capacity" => cache_capacity = parse_number(args.next(), "--cache-capacity"),
            "--store" => {
                store_path = Some(args.next().unwrap_or_else(|| usage("--store needs a path")))
            }
            "--ingest" => {
                ingest_dir = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--ingest needs a directory")),
                )
            }
            "--follow" => {
                follow_addr = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--follow needs a primary host:port")),
                )
            }
            "--compact-after" => compact_after = Some(parse_number(args.next(), "--compact-after")),
            "--serve-replicas" => serve_replicas = true,
            other => usage(&format!("unknown argument '{other}'")),
        }
    }

    // A directory store (or any store with a compaction knob) uses the
    // segmented epoch log; a plain file keeps the monolithic format.
    let segmented = compact_after.is_some()
        || store_path
            .as_deref()
            .is_some_and(|path| Path::new(path).is_dir());

    let store = match follow_addr.as_deref() {
        Some(primary) => Arc::new(open_follower_store(
            primary,
            store_path.as_deref(),
            segmented,
            cache_shards,
            cache_capacity,
        )),
        None => Arc::new(open_store(
            scale,
            &scale_name,
            store_path.as_deref(),
            segmented,
            cache_shards,
            cache_capacity,
        )),
    };

    if let Some(dir) = ingest_dir.as_deref() {
        if follow_addr.is_some() {
            eprintln!("warning: --ingest is ignored with --follow (the primary ingests)");
        } else {
            ingest_directory(&store, dir);
            if let Some(path) = store_path.as_deref() {
                match persist_store(&store, path, segmented) {
                    Ok((bytes, seconds)) => eprintln!(
                        "re-persisted store after ingest ({bytes} bytes in {seconds:.3}s)"
                    ),
                    Err(error) => eprintln!("warning: could not re-persist store: {error}"),
                }
            }
        }
    }

    let compactor = compact_after.map(|limit| {
        let handle = Arc::new(Compactor::spawn(
            Arc::clone(&store),
            CompactionPolicy::after_segments(limit),
        ));
        eprintln!("background compactor armed: fold after {limit} segments");
        handle.nudge();
        handle
    });

    if let Some(primary) = follow_addr.clone() {
        spawn_follower_poller(
            primary,
            Arc::clone(&store),
            store_path.clone(),
            segmented,
            compactor.clone(),
        );
    }
    let repl = serve_replicas.then(|| Arc::new(ReplSource::new(Arc::clone(&store))));

    let fault_plan = fault_profile.as_deref().map(|name| {
        let plan = FaultPlan::by_name(name, fault_seed)
            .unwrap_or_else(|| usage("--fault-profile must be quiet, light or aggressive"));
        eprintln!(
            "fault injection armed: profile {name}, seed {fault_seed} \
             (lane seed ⊕ shard per loop, plus the acceptor's lane)"
        );
        plan
    });
    serve_event_loop(
        &addr,
        port,
        &scale_name,
        config,
        store,
        fault_plan,
        metrics_dump,
        repl,
        compactor,
    );
}

/// Persist `store` to `path` in its configured format: segmented log
/// directory (O(delta) per epoch after the first save) or monolithic
/// file. Returns `(bytes_written, seconds)`.
fn persist_store(store: &Store, path: &str, segmented: bool) -> Result<(u64, f64), String> {
    if segmented {
        let report = store
            .save_segmented(Path::new(path))
            .map_err(|error| error.to_string())?;
        let bytes = if report.base_rewritten {
            report.base_bytes + report.segment_bytes
        } else {
            report.segment_bytes
        };
        Ok((bytes, report.seconds))
    } else {
        let report = store
            .save(Path::new(path))
            .map_err(|error| error.to_string())?;
        Ok((report.bytes, report.seconds))
    }
}

/// Bridges the compactor's counters into the serving core's `stats` /
/// `metrics` renders.
struct CompactionStats(Arc<Compactor>);

impl lfp_serve::StatsSource for CompactionStats {
    fn fields(&self) -> Vec<(String, u64)> {
        let stats = self.0.stats();
        vec![
            ("compactions".to_string(), stats.runs),
            (
                "compaction_segments_folded".to_string(),
                stats.segments_folded,
            ),
            ("compaction_errors".to_string(), stats.errors),
            ("compaction_last_us".to_string(), stats.last_run_us),
        ]
    }
}

/// Bridges the store's replication answerer into the serving core's
/// worker-side extension seam.
struct ReplExtension(Arc<ReplSource>);

impl lfp_serve::LineExtension for ReplExtension {
    fn try_answer(&self, line: &str) -> Option<String> {
        self.0.answer(line)
    }
}

/// The serving core: the sharded `lfp-serve` readiness loops. Every
/// slot gets its own fault lane when a plan is armed (`seed ⊕ shard_id`
/// per shard, the acceptor's lane for `accept`), so a multi-loop chaos
/// run is exactly as replayable as a single-loop one.
#[allow(clippy::too_many_arguments)]
fn serve_event_loop(
    addr: &str,
    port: u16,
    scale_name: &str,
    config: ServeConfig,
    store: Arc<Store>,
    fault_plan: Option<FaultPlan>,
    metrics_dump: bool,
    repl: Option<Arc<ReplSource>>,
    compactor: Option<Arc<Compactor>>,
) {
    let engine_store = Arc::clone(&store);
    let source: Arc<dyn EngineSource> = Arc::new(move || engine_store.engine());
    let mut server =
        Server::bind_with_policy_factory((addr, port), config, source, |slot| match fault_plan {
            Some(plan) => Box::new(FaultPolicy::new(plan.for_slot(slot))),
            None => Box::new(DirectIo) as Box<dyn IoPolicy>,
        })
        .unwrap_or_else(|error| {
            eprintln!("cannot bind {addr}:{port}: {error}");
            std::process::exit(1);
        });
    if let Some(repl) = repl {
        server.set_line_extension(Arc::new(ReplExtension(repl)));
        eprintln!("replication primary: serving repl_* queries");
    }
    if let Some(compactor) = compactor.as_ref() {
        server.set_stats_source(Arc::new(CompactionStats(Arc::clone(compactor))));
    }
    // The readiness line clients and tests wait for — keep it stable.
    println!(
        "vendor-queryd listening on {} (scale {scale_name}, {} paths, epoch {}, \
         event loop, {} loops, {} workers)",
        server.local_addr(),
        store.engine().corpus().len(),
        store.epoch(),
        server.loop_count(),
        server.worker_count(),
    );
    std::io::stdout().flush().ok();

    let obs = server.obs_handle();
    let report = server.run();
    if metrics_dump {
        // The drained daemon's final exposition: every counter has
        // quiesced, so this is the scrape to reconcile against.
        print!("{}", obs.metrics(&store.engine()));
        std::io::stdout().flush().ok();
    }
    if let Some(compactor) = compactor {
        let stats = compactor.stats();
        eprintln!(
            "compactor: {} fold(s), {} segment(s) folded, {} error(s)",
            stats.runs, stats.segments_folded, stats.errors
        );
        // Drop joins the thread; no fold is cut off mid-publish.
    }
    let stats = store.engine().cache_stats();
    eprintln!(
        "drained and stopped at epoch {}: {} connections, {} queries, {} control, \
         {} evicted, {} shed, {} deadline-expired, {} injected faults, \
         {}/{} shards drained, drained_cleanly={} ({} loop iterations, \
         {} reads / {} bytes in, {} cache entries, {} hits / {} misses)",
        store.epoch(),
        report.accepted,
        report.queries,
        report.control,
        report.evicted,
        report.shed,
        report.deadline_expired,
        report.injected_faults,
        report.shards_drained,
        report.loops,
        report.drained_cleanly,
        report.iterations,
        report.socket_reads,
        report.bytes_read,
        stats.entries,
        stats.hits,
        stats.misses,
    );
}

/// How often a follower polls its primary for new deltas.
const FOLLOW_POLL: Duration = Duration::from_millis(150);

/// Open a **follower**'s serving store. A usable local `--store` wins
/// (cold start, then delta catch-up closes the gap); otherwise the
/// primary's full snapshot is pulled resumably through a `.sync`
/// scratch file and validated by the store format's section checksums
/// before anything trusts it.
fn open_follower_store(
    primary: &str,
    store_path: Option<&str>,
    segmented: bool,
    cache_shards: usize,
    cache_capacity: usize,
) -> Store {
    let mut client = ReplClient::new(primary);
    if let Some(path) = store_path {
        if Path::new(path).exists() {
            match Store::load_with_cache(Path::new(path), cache_shards, cache_capacity) {
                Ok((store, report)) => {
                    eprintln!(
                        "follower cold start from {path} in {:.3}s (epoch {})",
                        report.seconds, report.epoch
                    );
                    match follow_once(&mut client, &store) {
                        Ok(0) => {}
                        Ok(applied) => {
                            eprintln!("caught up {applied} epoch(s) → epoch {}", store.epoch());
                            if let Err(error) = persist_store(&store, path, segmented) {
                                eprintln!("warning: could not persist catch-up: {error}");
                            }
                        }
                        Err(error) => eprintln!(
                            "warning: initial catch-up failed ({error}); the poller will retry"
                        ),
                    }
                    return store;
                }
                Err(error) => {
                    eprintln!("local store {path} unusable ({error}); full resync from {primary}")
                }
            }
        }
    }
    let scratch = match store_path {
        Some(path) => PathBuf::from(format!("{path}.sync")),
        None => {
            std::env::temp_dir().join(format!("vendor-queryd-follow-{}.sync", std::process::id()))
        }
    };
    for attempt in 1..=5u32 {
        let bytes = match client.sync_snapshot(&scratch) {
            Ok(bytes) => bytes,
            Err(error) => {
                eprintln!("snapshot sync from {primary} failed ({error}), attempt {attempt}/5");
                std::thread::sleep(Duration::from_millis(300 * u64::from(attempt)));
                continue;
            }
        };
        match Store::from_bytes_with_cache(&bytes, cache_shards, cache_capacity) {
            Ok(store) => {
                let _ = std::fs::remove_file(&scratch);
                eprintln!(
                    "follower synced {} bytes from {primary} (epoch {})",
                    bytes.len(),
                    store.epoch()
                );
                if let Some(path) = store_path {
                    match persist_store(&store, path, segmented) {
                        Ok((bytes, _)) => eprintln!("persisted synced store ({bytes} bytes)"),
                        Err(error) => eprintln!("warning: could not persist sync: {error}"),
                    }
                }
                return store;
            }
            Err(error) => {
                // The checksums caught a torn transfer: drop the
                // partial and pull again from scratch.
                eprintln!("synced snapshot failed validation ({error}); restarting sync");
                let _ = std::fs::remove_file(&scratch);
            }
        }
    }
    eprintln!("cannot sync from primary {primary} after 5 attempts");
    std::process::exit(1);
}

/// The follower's replication loop: poll the primary, apply every new
/// delta through `Store::ingest` (atomic engine swap per epoch), and
/// re-persist after advancing so a kill at any point restarts from the
/// last fully-applied epoch. Segmented persistence seals one segment
/// per applied epoch (O(delta) per poll instead of a full rewrite);
/// the background compactor, when armed, is nudged after every batch.
fn spawn_follower_poller(
    primary: String,
    store: Arc<Store>,
    persist: Option<String>,
    segmented: bool,
    compactor: Option<Arc<Compactor>>,
) {
    std::thread::spawn(move || {
        let mut client = ReplClient::new(&primary);
        loop {
            let advanced = match persist.as_deref() {
                Some(path) if segmented => {
                    follow_once_persistent(&mut client, &store, Path::new(path))
                }
                _ => follow_once(&mut client, &store),
            };
            match advanced {
                Ok(0) => {}
                Ok(applied) => {
                    eprintln!(
                        "follower applied {applied} delta(s) → epoch {}",
                        store.epoch()
                    );
                    if !segmented {
                        if let Some(path) = persist.as_deref() {
                            if let Err(error) = store.save(Path::new(path)) {
                                eprintln!("warning: follower could not persist: {error}");
                            }
                        }
                    }
                    if let Some(handle) = compactor.as_deref() {
                        handle.nudge();
                    }
                }
                Err(error) => {
                    eprintln!("follower poll of {primary} failed: {error}");
                    std::thread::sleep(Duration::from_millis(500));
                }
            }
            std::thread::sleep(FOLLOW_POLL);
        }
    });
}

/// Open the serving store: load from `--store` when the file exists,
/// else build (and persist, when `--store` was given).
fn open_store(
    scale: Scale,
    scale_name: &str,
    store_path: Option<&str>,
    segmented: bool,
    cache_shards: usize,
    cache_capacity: usize,
) -> Store {
    if let Some(path) = store_path {
        if Path::new(path).exists() {
            eprintln!("loading store from {path}…");
            let (store, report) =
                Store::load_with_cache(Path::new(path), cache_shards, cache_capacity)
                    .unwrap_or_else(|error| {
                        eprintln!("cannot load store {path}: {error}");
                        std::process::exit(1);
                    });
            if store.world().scale != scale {
                eprintln!(
                    "warning: store was built at a different scale; serving the stored campaign"
                );
            }
            eprintln!(
                "cold start from store in {:.3}s ({} bytes, epoch {}, {} paths)",
                report.seconds,
                report.bytes,
                report.epoch,
                store.engine().corpus().len(),
            );
            return store;
        }
    }

    eprintln!(
        "building world at scale '{scale_name}' (~{} routers)…",
        scale.approx_routers()
    );
    let build_start = Instant::now();
    let world = Arc::new(World::build(scale));
    let store = Store::from_world_with_cache(world, cache_shards, cache_capacity);
    let rebuild_seconds = build_start.elapsed().as_secs_f64();
    eprintln!(
        "world + engine ready in {rebuild_seconds:.1}s ({} paths, {} sequences)",
        store.engine().corpus().len(),
        store.engine().corpus().distinct_sequences(),
    );
    if let Some(path) = store_path {
        match persist_store(&store, path, segmented) {
            Ok((saved, seconds)) => {
                eprintln!("saved store to {path} ({saved} bytes in {seconds:.3}s)")
            }
            Err(error) => eprintln!("warning: could not save store to {path}: {error}"),
        }
    }
    store
}

/// Ingest every `*.delta` file in a directory, sorted by file name, one
/// epoch per snapshot.
fn ingest_directory(store: &Store, dir: &str) {
    let mut paths: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|entry| entry.ok())
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "delta"))
            .collect(),
        Err(error) => {
            eprintln!("cannot read ingest directory {dir}: {error}");
            std::process::exit(1);
        }
    };
    paths.sort();
    if paths.is_empty() {
        eprintln!("warning: no *.delta files in {dir}");
        return;
    }
    for path in paths {
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(error) => {
                eprintln!("cannot read {}: {error}", path.display());
                std::process::exit(1);
            }
        };
        let delta = match SnapshotDelta::from_bytes(&bytes) {
            Ok(delta) => delta,
            Err(error) => {
                eprintln!("cannot decode {}: {error}", path.display());
                std::process::exit(1);
            }
        };
        match store.ingest(delta) {
            Ok(report) => eprintln!(
                "ingested {} → epoch {} (+{} paths in {:.3}s)",
                report.sources.join(", "),
                report.epoch,
                report.new_paths,
                report.seconds,
            ),
            Err(error) => {
                eprintln!("ingest of {} failed: {error}", path.display());
                std::process::exit(1);
            }
        }
    }
}

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: vendor-queryd [--scale NAME] [--addr HOST] [--port N] \
         [--loops N] [--workers N] [--max-connections N] [--max-inflight N] \
         [--write-buffer-cap BYTES] [--drain-timeout-ms N] \
         [--queue-watermark N] [--request-deadline-ms N] [--retry-hint-ms N] \
         [--fault-seed N] [--fault-profile quiet|light|aggressive] \
         [--cache-shards N] [--cache-capacity N] \
         [--slowlog-size N] [--metrics-dump] \
         [--store PATH] [--ingest DIR] [--compact-after N] \
         [--follow ADDR] [--serve-replicas]"
    );
    std::process::exit(2);
}

fn parse_number<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    value
        .and_then(|text| text.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a number")))
}
