//! `epochs`: the write side, and reads beside writes.
//!
//! A primary (`Store` + `Server` with the replication line extension +
//! the background compactor — the daemon's wiring) and a follower
//! (second `Store`, bootstrapped over the socket). The driver thread
//! hands pre-measured snapshot deltas to the primary one at a time and
//! waits until each is queryable on the follower; a reader thread asks
//! the primary the warm mix over one connection, window 1, for the
//! whole run. All disk I/O hits the page cache.

use crate::client;
use crate::metrics::{fastest, median, peak_rss_mib, percentile, samples_beyond, Outcome};
use crate::serve::{self, Served};
use crate::span::Tracer;
use crate::{scratch_dir, Config};
use lfp_analysis::path_corpus::NewPathSource;
use lfp_analysis::World;
use lfp_query::QueryEngine;
use lfp_serve::{answer_line, EngineSource, LineExtension};
use lfp_stack::vendor::Vendor;
use lfp_store::repl::b64;
use lfp_store::{
    follow_once_persistent, CompactionPolicy, Compactor, ReplClient, ReplSource, SnapshotDelta,
    Store, REPL_CHUNK,
};
use lfp_topo::Scale;
use std::collections::HashMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Reader replies per slice: several epochs' worth, so every slice
/// holds both the bursts of ingest and the lulls between them.
const READER_SLICE: u64 = 32 * client::SLICE_MIN;

/// Segments the primary's log may hold before the compactor folds it.
const COMPACT_AFTER: usize = 8;

struct ReplExtension(Arc<ReplSource>);

impl LineExtension for ReplExtension {
    fn try_answer(&self, line: &str) -> Option<String> {
        self.0.answer(line)
    }
}

/// Primary, follower and everything between them, ready for epoch 1.
struct Cluster {
    world: Arc<World>,
    primary: Arc<Store>,
    repl: Arc<ReplSource>,
    served: Served,
    compactor: Compactor,
    follower: Store,
    client: ReplClient,
    primary_dir: PathBuf,
    follower_dir: PathBuf,
    /// One more delta than the run ingests (the probes use the spare).
    deltas: Vec<SnapshotDelta>,
    warm: Vec<String>,
    bootstrap_s: f64,
}

fn epoch_count(config: &Config) -> usize {
    if config.quick {
        12
    } else {
        config.scaled(150) as usize
    }
}

impl Cluster {
    fn start(config: &Config) -> Cluster {
        let scale = if config.quick {
            Scale::tiny()
        } else {
            Scale::ingest_stress()
        };
        let world = Arc::new(World::build(scale));
        let deltas = lfp_bench::measure_deltas(&world, epoch_count(config) + 1);

        let primary_dir = scratch_dir(config, "primary");
        let follower_dir = scratch_dir(config, "follower");
        let primary = Arc::new(Store::from_world(Arc::clone(&world)));
        primary
            .save_segmented(&primary_dir)
            .expect("seal the primary's base");
        let repl = Arc::new(ReplSource::new(Arc::clone(&primary)));
        let source_store = Arc::clone(&primary);
        let source: Arc<dyn EngineSource> = Arc::new(move || source_store.engine());
        let served = Served::start(source, Some(Arc::new(ReplExtension(Arc::clone(&repl)))));
        // The compactor shares the serving side's vCPU, the reader too.
        serve::run_on(serve::SERVING_CPU);
        let compactor = Compactor::spawn(
            Arc::clone(&primary),
            CompactionPolicy::after_segments(COMPACT_AFTER),
        );
        serve::run_on(serve::ANY_CPU);

        let bootstrap_start = Instant::now();
        let mut client = ReplClient::new(served.addr.to_string());
        let scratch = follower_dir.with_extension("sync");
        let image = client.sync_snapshot(&scratch).expect("snapshot sync");
        let follower = Store::from_bytes(&image).expect("synced snapshot decodes");
        let bootstrap_s = bootstrap_start.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&scratch);
        follower
            .save_segmented(&follower_dir)
            .expect("seal the follower's base");

        let mut connection = client::connect(served.addr).expect("connect to the primary");
        let (_, warm) = serve::warm_up(&mut connection);
        Cluster {
            world,
            primary,
            repl,
            served,
            compactor,
            follower,
            client,
            primary_dir,
            follower_dir,
            deltas,
            warm,
            bootstrap_s,
        }
    }
}

/// `line` with a `min_epoch` fence appended.
fn fenced(line: &str, epoch: u64) -> String {
    format!("{},\"min_epoch\":{epoch}}}", &line[..line.len() - 1])
}

/// What the driver loop measured.
#[derive(Default)]
struct Driven {
    wall_s: f64,
    /// Delta handed to `primary.ingest` → fenced query `ok` on the
    /// follower, per epoch, in milliseconds.
    visible_ms: Vec<f64>,
    /// Per-epoch milliseconds of the epochs driven without spans / with.
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    segment_bytes: u64,
    /// Base bytes the compactor rewrote, and how long its folds took.
    rewritten_bytes: u64,
    compact_ms: f64,
}

/// Run `body` inside a span when this epoch is traced, bare otherwise.
fn stepped<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    epoch: u64,
    body: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, epoch, |_| body()).0,
        None => body(),
    }
}

/// Ingest `deltas` one epoch at a time. With a tracer, odd epochs run
/// the follower's step through the public pieces of
/// `follow_once_persistent`, one span each; even epochs call it whole,
/// so both kinds see the same corpus growth.
fn drive(
    outcome: &mut Outcome,
    cluster: &mut Cluster,
    deltas: Vec<SnapshotDelta>,
    mut tracer: Option<&mut Tracer>,
) -> Driven {
    let mut driven = Driven::default();
    let mut folds_seen = 0u64;
    let mut segments_before = 0usize;
    let start = Instant::now();
    for (index, delta) in deltas.into_iter().enumerate() {
        let epoch = index as u64 + 1;
        let probe = fenced(&cluster.warm[index % cluster.warm.len()], epoch);
        let mut spans = tracer.as_deref_mut().filter(|_| index % 2 == 1);
        let epoch_start = Instant::now();
        stepped(&mut spans, "store.ingest", epoch, || {
            cluster.primary.ingest(delta).expect("primary ingest")
        });
        let sealed = stepped(&mut spans, "store.seal", epoch, || {
            cluster
                .primary
                .save_segmented(&cluster.primary_dir)
                .expect("primary seal")
        });
        driven.segment_bytes += sealed.segment_bytes;
        cluster.compactor.nudge();
        let early = answer_line(&probe, &cluster.follower.engine());
        outcome.check(!early.starts_with("{\"ok\": true"), || {
            format!("follower answered ok below fence {epoch}")
        });
        let advanced = if spans.is_none() {
            follow_once_persistent(
                &mut cluster.client,
                &cluster.follower,
                &cluster.follower_dir,
            )
            .expect("follower step")
        } else {
            let fetched = stepped(&mut spans, "store.repl_fetch", epoch, || {
                cluster
                    .client
                    .fetch_delta(cluster.follower.epoch())
                    .expect("delta fetch")
            });
            let (shipped, bytes) = fetched.expect("the primary is one epoch ahead");
            stepped(&mut spans, "store.repl_apply", epoch, || {
                let delta = SnapshotDelta::from_bytes(&bytes).expect("delta decodes");
                cluster.follower.ingest(delta).expect("follower ingest");
                cluster
                    .follower
                    .save_segmented(&cluster.follower_dir)
                    .expect("follower seal");
            });
            u64::from(shipped == epoch)
        };
        let reply = answer_line(&probe, &cluster.follower.engine());
        let epoch_ms = epoch_start.elapsed().as_secs_f64() * 1e3;
        driven.visible_ms.push(epoch_ms);
        if spans.is_some() {
            driven.traced_ms.push(epoch_ms);
        } else {
            driven.untraced_ms.push(epoch_ms);
        }
        outcome.check(reply.starts_with("{\"ok\": true"), || {
            format!("fenced query at epoch {epoch} refused on the follower: {reply}")
        });
        let (have_primary, have_follower) = (cluster.primary.epoch(), cluster.follower.epoch());
        outcome.guard(
            advanced == 1 && have_primary == epoch && have_follower == epoch,
            || {
                format!(
                    "epoch {epoch}: follower advanced {advanced}, primary at {have_primary}, \
                     follower at {have_follower}"
                )
            },
        );
        // The compactor runs beside the loop; what it rewrote shows in
        // the log's shape and its own counters.
        let stats = cluster.compactor.stats();
        if stats.runs > folds_seen {
            folds_seen = stats.runs;
            driven.compact_ms += stats.last_run_us as f64 / 1e3;
        }
        if let Some(status) = cluster.primary.log_status() {
            if status.segments < segments_before {
                driven.rewritten_bytes += status.base_bytes;
            }
            segments_before = status.segments;
        }
    }
    driven.wall_s = start.elapsed().as_secs_f64();
    driven
}

/// Drive every epoch with the reader alongside; returns both sides.
fn run_epochs(
    outcome: &mut Outcome,
    cluster: &mut Cluster,
    tracer: Option<&mut Tracer>,
) -> (Driven, serve::LoadResult) {
    let mut deltas = std::mem::take(&mut cluster.deltas);
    let spare = deltas.pop().expect("one spare delta");
    let addr = cluster.served.addr;
    let warm = cluster.warm.clone();
    let before = cluster.primary.engine().cache_stats();
    let stop = AtomicBool::new(false);
    let (driven, reader) = std::thread::scope(|scope| {
        serve::run_on(serve::SERVING_CPU);
        let reader = scope.spawn(|| {
            let line_of = |index: u64| warm[index as usize % warm.len()].as_str();
            let plan = client::Plan {
                count: u64::MAX,
                until: Some(&stop),
                window: serve::WINDOW,
                slice: READER_SLICE,
            };
            client::drive(addr, plan, &line_of, None).expect("reader connection failed")
        });
        serve::run_on(serve::LOAD_CPU);
        let driven = drive(outcome, cluster, deltas, tracer);
        serve::run_on(serve::ANY_CPU);
        stop.store(true, Ordering::Relaxed);
        (driven, reader.join().expect("reader thread panicked"))
    });
    cluster.deltas = vec![spare];
    let load = serve::LoadResult {
        wall_s: driven.wall_s,
        reports: vec![reader],
        hit_rate: serve::hit_rate_between(&before, &cluster.primary.engine().cache_stats()),
    };
    (driven, load)
}

/// Quiesce the cluster, check what must hold at the final epoch, and
/// time the cold start from the primary's log.
fn settle(outcome: &mut Outcome, config: &Config, cluster: &mut Cluster, driven: &Driven) {
    cluster.compactor.shutdown();
    let stats = cluster.compactor.stats();
    outcome.check(stats.errors == 0, || {
        format!("{} compaction(s) failed", stats.errors)
    });

    // Follower ≡ primary on the whole mix at the final epoch.
    let (primary, follower) = (cluster.primary.engine(), cluster.follower.engine());
    for line in &cluster.warm {
        let reply = answer_line(line, &follower);
        let expected = client::expected_reply(&primary, line, &reply);
        outcome.check(expected.as_deref() == Ok(reply.as_str()), || {
            format!("follower and primary disagree on {line}")
        });
    }

    // `bytes_per_epoch` is a count: it must repeat exactly, run to run.
    let epochs = driven.visible_ms.len() as u64;
    let ledger = crate::out_dir().join(format!(
        "bytes_per_epoch-{}-{epochs}.txt",
        if config.quick { "quick" } else { "full" }
    ));
    let bytes = driven.segment_bytes.to_string();
    match std::fs::read_to_string(&ledger) {
        Ok(first) => outcome.check(first.trim() == bytes, || {
            format!(
                "sealed {bytes} segment bytes over {epochs} epochs; the first run sealed {}",
                first.trim()
            )
        }),
        Err(_) => std::fs::write(&ledger, &bytes).expect("record the first run's segment bytes"),
    }

    let reps = if config.quick { 1 } else { 3 };
    let seconds = coldstart(outcome, &cluster.primary_dir, &primary, reps);
    outcome.set("client.coldstart_s", seconds);
    outcome.note(format!(
        "coldstart_s {seconds:.3} (fastest of {reps}: Store::load of the final log, first catalog reply)"
    ));
}

/// `Store::load(dir)` → first `catalog` reply, `reps` times; the
/// fastest in seconds. Every loaded store must answer like
/// the live engine.
fn coldstart(outcome: &mut Outcome, dir: &Path, live: &QueryEngine, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let (store, _) = Store::load(dir).expect("load the store just saved");
            let reply = answer_line(serve::CATALOG, &store.engine());
            let seconds = start.elapsed().as_secs_f64();
            let expected = client::expected_reply(live, serve::CATALOG, &reply);
            outcome.check(expected.as_deref() == Ok(reply.as_str()), || {
                "loaded store's catalog differs from the live engine's".to_string()
            });
            seconds
        })
        .collect();
    fastest(&samples)
}

fn visible_percentiles(outcome: &mut Outcome, config: &Config, driven: &Driven) -> (f64, f64) {
    let mut sorted = driven.visible_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let beyond = samples_beyond(sorted.len(), 0.9);
    outcome.guard(config.quick || beyond >= 10, || {
        format!("epoch_visible_p90_ms has only {beyond} samples beyond it")
    });
    let (p50, p90) = (percentile(&sorted, 0.5), percentile(&sorted, 0.9));
    outcome.note(format!(
        "epoch_visible_ms p50 {p50:.2}, p90 {p90:.2} over {} epochs ({beyond} beyond p90); \
         bytes_per_epoch {:.1}",
        sorted.len(),
        driven.segment_bytes as f64 / sorted.len() as f64
    ));
    (p50, p90)
}

pub fn run(config: &Config) -> Outcome {
    let mut outcome = Outcome::default();
    let mut cluster = Cluster::start(config);
    outcome.set("setup_s", config.process_start.elapsed().as_secs_f64());

    let (driven, load) = run_epochs(&mut outcome, &mut cluster, None);
    outcome.attempted += driven.visible_ms.len() as u64;
    outcome.set("timed_s", driven.wall_s);
    serve::report_load(&mut outcome, &load, config.quick);
    visible_percentiles(&mut outcome, config, &driven);

    settle(&mut outcome, config, &mut cluster, &driven);
    cluster.served.stop(&mut outcome);
    outcome.set("peak_rss_mb", peak_rss_mib());
    outcome
}

/// `PathCorpus::extended_with` for one delta on top of `store`'s
/// current corpus, through the public calls `Store::ingest` makes.
fn extend_ms(tracer: &mut Tracer, world: &World, store: &Store, delta: &SnapshotDelta) -> f64 {
    let lfp: HashMap<Ipv4Addr, Vendor> = delta
        .targets
        .iter()
        .zip(&delta.vectors)
        .filter_map(|(&ip, vector)| Some((ip, world.set.classify(vector).unique_vendor()?)))
        .collect();
    let snmp: HashMap<Ipv4Addr, Vendor> = delta
        .targets
        .iter()
        .zip(&delta.labels)
        .filter_map(|(&ip, label)| Some((ip, (*label)?)))
        .collect();
    let addition = NewPathSource {
        name: delta.name.clone(),
        traces: &delta.traces,
        lfp: &lfp,
        snmp: &snmp,
        is_ripe_snapshot: true,
    };
    let corpus = store.engine().corpus_arc();
    let (_, seconds) = tracer.span("analysis.corpus_extend", store.epoch(), |_| {
        black_box(
            corpus
                .extended_with(
                    &world.internet,
                    &[addition],
                    lfp_net::ScanConfig::default().shards,
                )
                .expect("fresh source name"),
        )
    });
    seconds * 1e3
}

/// Codec, persistence and replication calls timed alone at the final
/// epoch, outside the driver loop.
fn probe_store(outcome: &mut Outcome, tracer: &mut Tracer, config: &Config, cluster: &Cluster) {
    let primary = &cluster.primary;
    let (image, seconds) = tracer.span("store.encode", 0, |_| primary.to_bytes());
    outcome.set("store.encode_ms", seconds * 1e3);
    outcome.set("store.image_bytes", image.len() as f64);
    let (_, seconds) = tracer.span("store.decode", 0, |_| {
        black_box(Store::from_bytes(&image).expect("own image decodes"))
    });
    outcome.set("store.decode_ms", seconds * 1e3);

    let spare = &cluster.deltas[0];
    let rounds = 20usize;
    let (encoded, seconds) = tracer.span("store.delta_encode", 0, |_| {
        (0..rounds).map(|_| spare.to_bytes()).next_back().unwrap()
    });
    outcome.set("store.delta_encode_us", seconds * 1e6 / rounds as f64);
    outcome.set("store.delta_bytes", encoded.len() as f64);
    let (_, seconds) = tracer.span("store.delta_decode", 0, |_| {
        for _ in 0..rounds {
            black_box(SnapshotDelta::from_bytes(&encoded).expect("own delta decodes"));
        }
    });
    outcome.set("store.delta_decode_us", seconds * 1e6 / rounds as f64);

    let file = scratch_dir(config, "mono.lfps");
    let (saved, seconds) = tracer.span("store.save_mono", primary.epoch(), |_| {
        primary.save(&file).expect("monolithic save")
    });
    outcome.set("store.save_mono_ms", seconds * 1e3);
    outcome.set("store.save_mono_bytes", saved.bytes as f64);

    let (_, seconds) = tracer.span("store.load", 0, |_| {
        black_box(Store::load(&cluster.primary_dir).expect("load the primary's log"))
    });
    outcome.set("store.load_s", seconds);

    let line = format!(
        "{{\"query\": \"repl_delta\", \"have\": {}, \"offset\": 0}}",
        primary.epoch() - 1
    );
    let rounds = 50usize;
    let (_, seconds) = tracer.span("store.repl_chunk", 0, |_| {
        for _ in 0..rounds {
            black_box(cluster.repl.answer(&line).expect("a replication line"));
        }
    });
    outcome.set("store.repl_chunk_us", seconds * 1e6 / rounds as f64);

    let chunk = &image[..REPL_CHUNK.min(image.len())];
    let rounds = 200usize;
    let (_, seconds) = tracer.span("store.b64", 0, |_| {
        for _ in 0..rounds {
            black_box(b64::decode(&b64::encode(black_box(chunk))).expect("own base64"));
        }
    });
    outcome.set(
        "store.b64_mb_per_s",
        (rounds * chunk.len()) as f64 / 1e6 / seconds,
    );
}

/// The traced run: the same epochs, every second one span by span.
pub fn run_traced(config: &Config, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let (mut cluster, _) = tracer.span("setup", 0, |_| Cluster::start(config));
    outcome.set("store.repl_bootstrap_s", cluster.bootstrap_s);
    let world = Arc::clone(&cluster.world);
    let first = extend_ms(tracer, &world, &cluster.primary, &cluster.deltas[0]);
    outcome.set("analysis.corpus_extend_first_ms", first);

    // What the deltas weigh on the wire, off the clock: the denominator
    // of write amplification.
    let delta_bytes: u64 = cluster.deltas[..cluster.deltas.len() - 1]
        .iter()
        .map(|delta| delta.to_bytes().len() as u64)
        .sum();
    let (driven, load) = run_epochs(&mut outcome, &mut cluster, Some(tracer));
    let epochs = driven.visible_ms.len();
    outcome.attempted += epochs as u64;
    serve::report_load(&mut outcome, &load, config.quick);
    let (p50, p90) = visible_percentiles(&mut outcome, config, &driven);
    outcome.set("client.epoch_visible_ms", p50);
    outcome.set("client.epoch_visible_p90_ms", p90);
    outcome.set(
        "client.bytes_per_epoch",
        driven.segment_bytes as f64 / epochs as f64,
    );
    outcome.set("query.cache_hit_rate", load.hit_rate);
    let (untraced_ms, traced_ms) = (median(&driven.untraced_ms), median(&driven.traced_ms));
    outcome.set(
        "trace_overhead_share",
        (traced_ms - untraced_ms) / untraced_ms,
    );
    for (name, span) in [
        ("store.ingest_ms", "store.ingest"),
        ("store.seal_ms", "store.seal"),
        ("store.repl_fetch_ms", "store.repl_fetch"),
        ("store.repl_apply_ms", "store.repl_apply"),
    ] {
        outcome.set(name, tracer.mean(span) * 1e3);
    }

    settle(&mut outcome, config, &mut cluster, &driven);
    let stats = cluster.compactor.stats();
    outcome.set("store.compactions", stats.runs as f64);
    outcome.set("store.compact_ms", driven.compact_ms);
    outcome.set(
        "store.write_amp",
        (driven.segment_bytes + driven.rewritten_bytes) as f64 / delta_bytes.max(1) as f64,
    );

    let last = extend_ms(tracer, &world, &cluster.primary, &cluster.deltas[0]);
    outcome.set("analysis.corpus_extend_ms", last);
    probe_store(&mut outcome, tracer, config, &cluster);
    let round_trips = if config.quick { 500 } else { 10_000 };
    serve::probe_serving(
        &mut outcome,
        tracer,
        cluster.served.addr,
        &cluster.served.obs,
        &cluster.primary.engine(),
        &cluster.warm,
        round_trips,
    );
    serve::report_server(&mut outcome, cluster.served);
    outcome
}
