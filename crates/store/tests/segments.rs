//! Segmented epoch-log battery: the tentpole contract is that a store
//! persisted as base + per-epoch sealed segments reloads **byte
//! identically** to the same store persisted as one monolithic file —
//! across every query in the catalog mix — while per-epoch saves write
//! only the delta and background compaction folds the log without a
//! single query error.

mod util;

use lfp_store::{
    compact_if_due, CompactionPolicy, Compactor, LogFaults, Manifest, ReplSource, SnapshotDelta,
    Store, StoreError, DELTA_CACHE_CAP, MANIFEST_FILE,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A scratch directory unique to this test; cleaned up on drop.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "lfp-segments-{tag}-{}-{unique}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch { dir }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn segmented_load_is_byte_identical_to_monolithic_across_the_catalog() {
    let world = util::shared_tiny_world();
    let store = Store::from_world(world.clone());
    let scratch = Scratch::new("identity");
    let seg_dir = scratch.path("log");
    let mono = scratch.path("store.lfps");

    // Base save before any ingest: one full snapshot, zero segments.
    let report = store.save_segmented(&seg_dir).expect("base save");
    assert!(report.base_rewritten);
    assert_eq!(report.segments_written, 0);
    assert!(seg_dir.join(MANIFEST_FILE).is_file());

    // Each ingest seals exactly one new segment — never a base rewrite.
    let deltas = util::measure_deltas(&world, 2);
    let mut last_save_bytes = 0;
    for (index, delta) in deltas.into_iter().enumerate() {
        store.ingest(delta).expect("ingest");
        let report = store.save_segmented(&seg_dir).expect("per-epoch save");
        assert!(
            !report.base_rewritten,
            "epoch {} rewrote the base",
            index + 1
        );
        assert_eq!(report.segments_written, 1);
        assert_eq!(report.epoch, index as u64 + 1);
        last_save_bytes = report.segment_bytes;
    }
    // Idempotent save at a covered epoch seals nothing.
    let idle = store.save_segmented(&seg_dir).expect("idempotent save");
    assert_eq!(idle.segments_written, 0);
    assert!(!idle.base_rewritten);

    // The O(delta) claim: the epoch-2 segmented save wrote one delta's
    // segment, a monolithic save of the same epoch rewrites the world.
    let mono_report = store.save(&mono).expect("monolithic save");
    assert!(
        last_save_bytes < mono_report.bytes,
        "segmented save wrote {last_save_bytes} bytes, monolithic {}",
        mono_report.bytes
    );
    let expected = util::mix_responses(&store);

    // `Store::load` dispatches on the path shape: directory → segment
    // replay, file → monolithic decode. Same epoch, same bytes out.
    let (from_log, log_report) = Store::load(&seg_dir).expect("segmented load");
    let (from_file, _) = Store::load(&mono).expect("monolithic load");
    assert_eq!(from_log.epoch(), 2);
    assert_eq!(from_file.epoch(), 2);
    assert_eq!(util::mix_responses(&from_log), expected);
    assert_eq!(util::mix_responses(&from_file), expected);
    assert!(log_report.bytes > 0);
}

#[test]
fn delta_segments_serve_identical_bytes_from_log_files_and_ram() {
    let world = util::shared_tiny_world();
    let store = Store::from_world(world.clone());
    let scratch = Scratch::new("deltas");
    let seg_dir = scratch.path("log");

    let deltas = util::measure_deltas(&world, 2);
    let expected: Vec<Vec<u8>> = deltas.iter().map(|delta| delta.to_bytes()).collect();
    // Before any log is attached the store serves deltas from its RAM
    // history.
    for (index, delta) in deltas.into_iter().enumerate() {
        store.ingest(delta).expect("ingest");
        assert_eq!(
            store.delta_segment(index as u64 + 1).as_deref(),
            Some(&expected[index][..]),
            "RAM delta {index}"
        );
    }
    // After a segmented save the same epochs answer from the sealed
    // files — byte-for-byte what the RAM path returned.
    store.save_segmented(&seg_dir).expect("segmented save");
    for (index, bytes) in expected.iter().enumerate() {
        assert_eq!(
            store.delta_segment(index as u64 + 1).as_deref(),
            Some(&bytes[..]),
            "log delta {index}"
        );
    }
    // A *reloaded* store serves replication deltas straight from the
    // log it was opened from.
    let (reopened, _) = Store::load(&seg_dir).expect("segmented load");
    for (index, bytes) in expected.iter().enumerate() {
        assert_eq!(
            reopened.delta_segment(index as u64 + 1).as_deref(),
            Some(&bytes[..]),
            "reloaded delta {index}"
        );
    }
}

#[test]
fn compaction_folds_the_log_and_preserves_every_response() {
    let world = util::shared_tiny_world();
    let store = Arc::new(Store::from_world(world.clone()));
    let scratch = Scratch::new("fold");
    let seg_dir = scratch.path("log");

    store.save_segmented(&seg_dir).expect("base save");
    for delta in util::measure_deltas(&world, 3) {
        store.ingest(delta).expect("ingest");
        store.save_segmented(&seg_dir).expect("per-epoch save");
    }
    let before = store.log_status().expect("log attached");
    assert_eq!(before.segments, 3);
    assert_eq!(before.covered, 3);
    let expected = util::mix_responses(&store);

    // Queries keep flowing while the fold runs (the compactor must
    // never block the read path); every one of them must succeed.
    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicU64::new(0));
    let reader = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let errors = Arc::clone(&errors);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let engine = store.engine();
                for query in util::catalog_mix(&engine) {
                    if engine.execute_uncached(&query).is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        })
    };

    let report = store
        .compact_log()
        .expect("compaction succeeds")
        .expect("there was something to fold");
    assert_eq!(report.epoch, 3);
    assert_eq!(report.folded, 3);
    stop.store(true, Ordering::Relaxed);
    reader.join().expect("reader thread");
    assert_eq!(errors.load(Ordering::Relaxed), 0, "queries failed mid-fold");

    let after = store.log_status().expect("log still attached");
    assert_eq!(after.segments, 0, "fold left trailing segments");
    assert_eq!(after.covered, 3);
    // Folding again is a no-op, not an error.
    assert!(store.compact_log().expect("idempotent fold").is_none());

    // The folded log reloads byte-identically, and keeps accepting
    // incremental saves from there.
    let (reopened, _) = Store::load(&seg_dir).expect("load folded log");
    assert_eq!(reopened.epoch(), 3);
    assert_eq!(util::mix_responses(&reopened), expected);
}

/// A fault shim that, when the fold starts writing its new base, ingests
/// one more delta and seals it — on the fold's own thread, so either
/// call would deadlock if the fold held the epochs or the log lock
/// across the write. It records whether the fold's temp file survived
/// the save's prune.
struct IngestMidFold<'a> {
    store: &'a Store,
    dir: PathBuf,
    delta: Option<SnapshotDelta>,
    temp_survived: Option<bool>,
}

impl LogFaults for IngestMidFold<'_> {
    fn on_chunk(&mut self, file: &str, _offset: usize, _len: usize) -> Result<(), StoreError> {
        if file.starts_with("base-") {
            if let Some(delta) = self.delta.take() {
                self.store.ingest(delta)?;
                self.store.save_segmented(&self.dir)?;
                self.temp_survived = Some(self.dir.join(format!("{file}.tmp")).is_file());
            }
        }
        Ok(())
    }
}

#[test]
fn ingest_and_save_complete_while_a_fold_writes_its_base() {
    let world = util::shared_tiny_world();
    let store = Store::from_world(world.clone());
    let scratch = Scratch::new("interleave");
    let dir = scratch.path("log");

    store.save_segmented(&dir).expect("base save");
    let mut deltas = util::measure_deltas(&world, 4);
    let late = deltas.pop().expect("four deltas");
    for delta in deltas {
        store.ingest(delta).expect("ingest");
        store.save_segmented(&dir).expect("per-epoch save");
    }

    let mut shim = IngestMidFold {
        store: &store,
        dir: dir.clone(),
        delta: Some(late),
        temp_survived: None,
    };
    let report = store
        .compact_log_with(&mut shim)
        .expect("fold completes")
        .expect("there was something to fold");
    assert_eq!(
        shim.temp_survived,
        Some(true),
        "the save swept the fold's temp"
    );
    assert_eq!((report.epoch, report.folded), (3, 3));
    assert_eq!(store.epoch(), 4);

    // The published manifest is the fold's base plus the segment the
    // mid-fold save sealed — in memory and on disk alike.
    let status = store.log_status().expect("log attached");
    assert_eq!((status.segments, status.covered), (1, 4));
    let published =
        Manifest::from_bytes(&std::fs::read(dir.join(MANIFEST_FILE)).expect("read manifest"))
            .expect("manifest parses");
    assert_eq!(published.base.epoch, 3);
    let carried: Vec<u64> = published.segments.iter().map(|meta| meta.epoch).collect();
    assert_eq!(carried, [4]);

    // The log reloads byte-identically across the catalog.
    let expected = util::mix_responses(&store);
    let (reopened, _) = Store::load(&dir).expect("load the interleaved log");
    assert_eq!(reopened.epoch(), 4);
    assert_eq!(util::mix_responses(&reopened), expected);
}

#[test]
fn background_compactor_honours_policy_and_counts_its_work() {
    let world = util::shared_tiny_world();
    let store = Arc::new(Store::from_world(world.clone()));
    let scratch = Scratch::new("daemon");
    let seg_dir = scratch.path("log");

    store.save_segmented(&seg_dir).expect("base save");
    let policy = CompactionPolicy::after_segments(2);
    // Below the threshold nothing is due.
    store
        .ingest(util::measure_deltas(&world, 1).remove(0))
        .expect("ingest");
    store.save_segmented(&seg_dir).expect("save");
    assert!(!policy.due(&store.log_status().expect("status")));
    assert!(!compact_if_due(&store, policy).expect("not due"));

    // Push past the threshold; the background thread folds on a nudge.
    for delta in util::measure_deltas(&world, 3).into_iter().skip(1) {
        store.ingest(delta).expect("ingest");
        store.save_segmented(&seg_dir).expect("save");
    }
    assert!(policy.due(&store.log_status().expect("status")));
    let mut compactor = Compactor::spawn(Arc::clone(&store), policy);
    compactor.nudge();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while store.log_status().expect("status").segments > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "compactor never folded"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let stats = compactor.stats();
    assert!(stats.runs >= 1);
    assert!(stats.segments_folded >= 3);
    assert_eq!(stats.errors, 0);
    compactor.shutdown();
    // Shutdown is idempotent and the counters survive it.
    compactor.shutdown();
    assert_eq!(compactor.stats().runs, stats.runs);
}

#[test]
fn repl_source_delta_cache_stays_bounded_with_a_log_attached() {
    let world = util::shared_tiny_world();
    let store = Arc::new(Store::from_world(world.clone()));
    let scratch = Scratch::new("cache");
    store
        .save_segmented(&scratch.path("log"))
        .expect("base save");
    for delta in util::measure_deltas(&world, 3) {
        store.ingest(delta).expect("ingest");
        store.save_segmented(&scratch.path("log")).expect("save");
    }

    let source = ReplSource::new(Arc::clone(&store));
    // Pull every epoch's delta several times over: the source answers
    // from the sealed log files and its RAM cache never exceeds the
    // cap, however many epochs a long campaign accumulates.
    for _ in 0..4 {
        for have in 0..3u64 {
            let line = format!(r#"{{"query": "repl_delta", "have": {have}, "offset": 0}}"#);
            let reply = source.answer(&line).expect("delta answered");
            assert!(reply.contains("\"ok\": true"), "{reply}");
        }
    }
    assert!(source.cached_deltas() <= DELTA_CACHE_CAP);
}
