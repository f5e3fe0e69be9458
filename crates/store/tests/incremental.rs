//! Incremental-equals-batch: folding snapshot deltas in one at a time
//! must land on exactly the state one batched fold produces — same
//! epoch, same corpus, byte-identical responses across the full catalog
//! mix — and cache entries from an old epoch are never served after a
//! swap. The persisted form round-trips the epochs too, and an epoch
//! swapping in *while clients are mid-pipeline* on the live serving
//! loop never produces a torn or stale-epoch response.

mod util;

use lfp_analysis::path_corpus::NewPathSource;
use lfp_query::{wire, Query, QueryEngine, Response};
use lfp_serve::{EngineSource, ServeConfig, Server};
use lfp_stack::vendor::Vendor;
use lfp_store::{Store, StoreError};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn one_at_a_time_equals_all_at_once_byte_for_byte() {
    let world = util::shared_tiny_world();
    let deltas = util::measure_deltas(&world, 2);
    assert_eq!(deltas.len(), 2);
    for delta in &deltas {
        assert!(!delta.traces.is_empty(), "{} has no traces", delta.name);
        assert!(!delta.targets.is_empty(), "{} has no targets", delta.name);
    }

    let incremental = Store::from_world(Arc::clone(&world));
    for delta in deltas.clone() {
        let before = incremental.epoch();
        let report = incremental.ingest(delta).expect("ingest succeeds");
        assert_eq!(report.epoch, before + 1, "epoch counts snapshots");
        assert!(report.new_paths > 0, "epoch added no paths");
    }

    let batch = Store::from_world(Arc::clone(&world));
    let report = batch.ingest_many(deltas.clone()).expect("batch ingest");
    assert_eq!(report.epoch, 2);
    assert_eq!(report.sources.len(), 2);

    // Identical corpora (column-by-column PartialEq, indexes included)…
    assert_eq!(
        incremental.engine().corpus(),
        batch.engine().corpus(),
        "incremental and batch corpora diverged"
    );
    // …and byte-identical responses, epoch-tagged echoes included.
    assert_eq!(
        util::mix_responses(&incremental),
        util::mix_responses(&batch)
    );
}

#[test]
fn reusing_the_spare_corpus_equals_copying_it() {
    let world = util::shared_tiny_world();
    let deltas = util::measure_deltas(&world, 12);

    // The spare is the corpus two epochs back. `free` ingests with
    // nothing else holding an engine, so from epoch 3 on (epoch 2's
    // spare is the world's own corpus) every ingest extends in place.
    // `held` keeps the engines of epochs 4–9 alive, so the ingests of
    // epochs 6–11 find their spare in use and extend a copy.
    let free = Store::from_world(Arc::clone(&world));
    let held = Store::from_world(Arc::clone(&world));
    let mut pinned = Vec::new();
    for (index, delta) in deltas.iter().enumerate() {
        let epoch = index + 1;
        let report = free.ingest(delta.clone()).expect("ingest");
        assert_eq!(report.in_place, epoch >= 3, "free store, epoch {epoch}");
        let report = held.ingest(delta.clone()).expect("ingest");
        let copied = epoch < 3 || (6..=11).contains(&epoch);
        assert_eq!(report.in_place, !copied, "held store, epoch {epoch}");
        if (4..=9).contains(&epoch) {
            pinned.push(held.engine());
        }
    }
    drop(pinned);

    // Reused or copied, the corpora are equal, and equal to a chain of
    // copying extensions.
    assert_eq!(free.engine().corpus(), held.engine().corpus());
    let shards = lfp_net::ScanConfig::default().shards;
    let mut chained = world.path_corpus().clone();
    for delta in &deltas {
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
        chained = chained
            .extended_with(&world.internet, &[addition], shards)
            .expect("fresh source");
    }
    assert_eq!(&chained, free.engine().corpus());

    // …and every catalog answer is byte-identical.
    assert_eq!(util::mix_responses(&free), util::mix_responses(&held));
}

#[test]
fn ingested_snapshots_are_queryable_and_advance_the_catalog() {
    let world = util::shared_tiny_world();
    let deltas = util::measure_deltas(&world, 1);
    let delta_name = deltas[0].name.clone();
    let store = Store::from_world(Arc::clone(&world));
    let base_paths = store.engine().corpus().len();

    store.ingest(deltas.into_iter().next().unwrap()).unwrap();
    let engine = store.engine();
    assert_eq!(engine.epoch(), 1);
    let corpus = engine.corpus();
    assert!(corpus.len() > base_paths);
    // The new snapshot registered as a source and became the latest
    // RIPE-style source.
    let source = corpus.source_id(&delta_name).expect("delta source exists");
    assert_eq!(corpus.latest_ripe_source(), source);
    assert!(!corpus.rows_of_source(source).is_empty());
    // It is addressable through the query layer.
    let response = engine
        .execute(&Query::Transitions {
            selection: lfp_query::Selection {
                source: Some(delta_name),
                ..lfp_query::Selection::default()
            },
        })
        .unwrap();
    assert!(response.payload.contains("\"paths\""));
}

#[test]
fn old_epoch_cache_entries_are_never_served_after_a_swap() {
    let world = util::shared_tiny_world();
    let deltas = util::measure_deltas(&world, 1);
    let store = Store::from_world(Arc::clone(&world));

    let query = Query::Catalog;
    let engine_before = store.engine();
    let cold = engine_before.execute(&query).unwrap();
    assert!(!cold.cached);
    let warm = engine_before.execute(&query).unwrap();
    assert!(warm.cached, "second execution hits the epoch-0 cache");
    assert_eq!(cold.payload, warm.payload);

    store.ingest(deltas.into_iter().next().unwrap()).unwrap();
    let engine_after = store.engine();
    // Same shared cache object…
    assert_eq!(engine_after.cache_stats().entries, {
        let stats = engine_before.cache_stats();
        stats.entries
    });
    // …but the first post-swap execution must MISS (epoch-tagged key)
    // and render fresh bytes that reflect the new epoch.
    let fresh = engine_after.execute(&query).unwrap();
    assert!(!fresh.cached, "old-epoch entry served after the swap");
    assert_ne!(fresh.payload, cold.payload);
    assert!(fresh.payload.contains("\"epoch\": 1") || fresh.payload.contains("\"epoch\":1"));
    // The old engine handle keeps serving its own epoch consistently
    // (in-flight connections during a swap).
    let stale = engine_before.execute(&query).unwrap();
    assert!(stale.cached);
    assert_eq!(stale.payload, cold.payload);
}

#[test]
fn epochs_survive_persistence() {
    let world = util::shared_tiny_world();
    let deltas = util::measure_deltas(&world, 2);
    let store = Store::from_world(Arc::clone(&world));
    store.ingest_many(deltas).unwrap();

    let bytes = store.to_bytes();
    let reopened = Store::from_bytes(&bytes).expect("epoch store decodes");
    assert_eq!(reopened.epoch(), 2);
    assert_eq!(reopened.to_bytes(), bytes, "epoch re-encode diverged");
    assert_eq!(
        store.engine().corpus(),
        reopened.engine().corpus(),
        "persisted epoch corpus diverged"
    );
    assert_eq!(util::mix_responses(&store), util::mix_responses(&reopened));
}

/// The serving-loop face of the swap guarantee: clients pipelining
/// against a live `lfp-serve` event loop while `Store::ingest` swaps
/// the engine underneath them must only ever see responses that are
/// byte-identical to a *single* epoch's direct execution — echo tag,
/// payload and all. A torn response (old-epoch payload under a
/// new-epoch echo, or vice versa) or a stale answer re-served across
/// the swap would fail the exact-bytes comparison.
#[test]
fn epoch_swap_mid_pipeline_is_never_torn_or_stale() {
    let world = util::shared_tiny_world();
    let deltas = util::measure_deltas(&world, 1);
    let store = Arc::new(Store::from_world(Arc::clone(&world)));

    let engine_store = Arc::clone(&store);
    let source: Arc<dyn EngineSource> = Arc::new(move || engine_store.engine());
    let server =
        Server::bind("127.0.0.1:0", ServeConfig::default(), source).expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // Epoch handles captured on either side of the swap: the oracles
    // every observed response must match exactly.
    let engine_epoch0 = store.engine();

    let mix = [
        "{\"query\": \"catalog\"}".to_string(),
        "{\"query\": \"transitions\"}".to_string(),
        "{\"query\": \"path_diversity\", \"src_as\": 0, \"dst_as\": 0}".to_string(),
        "{\"query\": \"longest_runs\", \"min_hops\": 1}".to_string(),
    ];
    // path_diversity needs real AS ids; rewrite slot 2 from the corpus.
    let (src, dst) = {
        let corpus = engine_epoch0.corpus();
        (corpus.src_as_ids()[0], corpus.dst_as_ids()[0])
    };
    let mix = {
        let mut mix = mix;
        mix[2] = format!("{{\"query\": \"path_diversity\", \"src_as\": {src}, \"dst_as\": {dst}}}");
        mix
    };

    // One client pipelines bursts nonstop while the main thread
    // ingests; it collects every (request, reply) pair it completes and
    // publishes a completed-burst counter so the main thread can
    // sequence the swap deterministically (no sleeps to race against).
    let stop = Arc::new(AtomicBool::new(false));
    let bursts_done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let client_stop = Arc::clone(&stop);
    let client_bursts = Arc::clone(&bursts_done);
    let client_mix = mix.clone();
    let client = std::thread::spawn(move || {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut observed: Vec<(String, String)> = Vec::new();
        let mut cursor = 0usize;
        while !client_stop.load(Ordering::SeqCst) {
            let mut burst = Vec::new();
            let mut lines = Vec::new();
            for _ in 0..8 {
                let line = &client_mix[cursor % client_mix.len()];
                cursor += 1;
                lines.push(line.clone());
                burst.extend_from_slice(line.as_bytes());
                burst.push(b'\n');
            }
            writer.write_all(&burst).expect("pipeline burst");
            for line in lines {
                let mut reply = String::new();
                assert!(
                    reader.read_line(&mut reply).expect("read reply") > 0,
                    "server closed mid-pipeline"
                );
                observed.push((line, reply.trim_end().to_string()));
            }
            client_bursts.fetch_add(1, Ordering::SeqCst);
        }
        observed
    });
    let wait_for_bursts = |target: usize| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while bursts_done.load(Ordering::SeqCst) < target {
            assert!(
                std::time::Instant::now() < deadline,
                "client never completed {target} bursts"
            );
            std::thread::yield_now();
        }
    };

    // Guarantee completed epoch-0 traffic, swap the epoch underneath
    // the pipeline, then guarantee completed post-swap traffic. The
    // full mix covers both epochs by construction, not by timing luck.
    wait_for_bursts(2);
    store
        .ingest(deltas.into_iter().next().unwrap())
        .expect("ingest succeeds");
    let engine_epoch1 = store.engine();
    assert_eq!(engine_epoch1.epoch(), 1);
    wait_for_bursts(bursts_done.load(Ordering::SeqCst) + 2);
    stop.store(true, Ordering::SeqCst);
    let observed = client.join().expect("client thread");

    handle.shutdown();
    let report = server_thread.join().expect("server thread");
    assert!(report.drained_cleanly);

    // Every reply must be one epoch's exact rendering — nothing torn,
    // nothing mixed, nothing stale.
    let render = |engine: &QueryEngine, line: &str, cached: bool| {
        let query = wire::decode(line).expect("mix decodes");
        let payload = engine.execute_uncached(&query).expect("mix executes");
        wire::ok_envelope(
            &engine.canonical(&query),
            &Response {
                payload: Arc::from(payload.as_str()),
                cached,
            },
        )
    };
    let mut saw = [false, false];
    assert!(!observed.is_empty());
    for (line, reply) in &observed {
        let epoch0_cold = render(&engine_epoch0, line, false);
        let epoch0_warm = render(&engine_epoch0, line, true);
        let epoch1_cold = render(&engine_epoch1, line, false);
        let epoch1_warm = render(&engine_epoch1, line, true);
        if *reply == epoch0_cold || *reply == epoch0_warm {
            saw[0] = true;
        } else if *reply == epoch1_cold || *reply == epoch1_warm {
            saw[1] = true;
        } else {
            panic!(
                "torn or stale response for {line}\n got: {reply}\n e0: {epoch0_cold}\n e1: {epoch1_cold}"
            );
        }
    }
    // The schedule spans the swap: both epochs must have answered.
    assert!(saw[0], "no epoch-0 responses observed before the swap");
    assert!(saw[1], "no epoch-1 responses observed after the swap");
}

#[test]
fn ingest_rejects_duplicates_and_misalignment() {
    let world = util::shared_tiny_world();
    let deltas = util::measure_deltas(&world, 1);
    let store = Store::from_world(Arc::clone(&world));

    // A source name that already exists (the base snapshot's).
    let mut duplicate = deltas[0].clone();
    duplicate.name = "RIPE-1".to_string();
    assert!(matches!(
        store.ingest(duplicate).unwrap_err(),
        StoreError::Ingest(_)
    ));

    // Two same-named deltas inside ONE batch (e.g. a duplicated .delta
    // file): must be rejected up front, not folded into a corpus whose
    // persisted form could never load again.
    assert!(matches!(
        store
            .ingest_many(vec![deltas[0].clone(), deltas[0].clone()])
            .unwrap_err(),
        StoreError::Ingest(_)
    ));

    // Misaligned scan columns.
    let mut misaligned = deltas[0].clone();
    misaligned.vectors.pop();
    assert!(matches!(
        store.ingest(misaligned).unwrap_err(),
        StoreError::Ingest(_)
    ));

    // An empty batch.
    assert!(matches!(
        store.ingest_many(Vec::new()).unwrap_err(),
        StoreError::Ingest(_)
    ));

    // Nothing above may have advanced the epoch.
    assert_eq!(store.epoch(), 0);

    // The same delta cannot be ingested twice (its source now exists).
    let delta = deltas.into_iter().next().unwrap();
    store.ingest(delta.clone()).unwrap();
    assert!(matches!(
        store.ingest(delta).unwrap_err(),
        StoreError::Ingest(_)
    ));
    assert_eq!(store.epoch(), 1);
}
