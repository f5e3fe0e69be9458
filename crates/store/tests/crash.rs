//! Crash-injection battery for durable saves.
//!
//! The [`LogFaults`] seam lets a test kill a save at precisely the
//! points a real crash can land: before any chunk write (leaving the
//! temp file truncated at a recorded boundary) or just before a
//! rename seals the file (temp complete, target untouched). One seam
//! covers both persistence disciplines — the monolithic
//! [`Store::save`] image is a single sealed file whose own seal is the
//! publish point; a segmented log seals several files and publishes at
//! the `MANIFEST` seal. The property under test is the store's
//! durability contract: **after a crash at any boundary, `Store::load`
//! reopens the last successfully published epoch, byte-identically** —
//! never a torn file, never an error.

mod util;

use lfp_store::{LogFaults, Store, StoreError, MANIFEST_FILE, SAVE_CHUNK};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch directory unique to this test run; cleaned up on drop.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("lfp-crash-{tag}-{}-{unique}", std::process::id()));
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

/// One write event a save or compaction crossed, in order.
#[derive(Debug, Clone, PartialEq)]
enum LogEvent {
    /// `(file, offset, len)` of a chunk write into `<file>.tmp`.
    Chunk(String, usize, usize),
    /// The fsync + rename boundary sealing `file`.
    Seal(String),
}

/// Records every event a save or compaction crosses without
/// interfering — the map of crash points the injection loops then
/// enumerate.
#[derive(Default)]
struct LogRecorder {
    events: Vec<LogEvent>,
}

impl LogRecorder {
    /// `(offset, len)` of every chunk write, in order.
    fn chunks(&self) -> Vec<(usize, usize)> {
        self.events
            .iter()
            .filter_map(|event| match event {
                LogEvent::Chunk(_, offset, len) => Some((*offset, *len)),
                LogEvent::Seal(_) => None,
            })
            .collect()
    }
}

impl LogFaults for LogRecorder {
    fn on_chunk(&mut self, file: &str, offset: usize, len: usize) -> Result<(), StoreError> {
        self.events
            .push(LogEvent::Chunk(file.to_string(), offset, len));
        Ok(())
    }

    fn on_seal(&mut self, file: &str) -> Result<(), StoreError> {
        self.events.push(LogEvent::Seal(file.to_string()));
        Ok(())
    }
}

/// Kills the operation just before event number `at` (in the order the
/// recorder observed them).
struct LogCrashAt {
    at: usize,
    seen: usize,
}

impl LogCrashAt {
    fn event(at: usize) -> LogCrashAt {
        LogCrashAt { at, seen: 0 }
    }

    fn tick(&mut self) -> Result<(), StoreError> {
        if self.seen == self.at {
            return Err(StoreError::Io("injected log crash".to_string()));
        }
        self.seen += 1;
        Ok(())
    }
}

impl LogFaults for LogCrashAt {
    fn on_chunk(&mut self, _file: &str, _offset: usize, _len: usize) -> Result<(), StoreError> {
        self.tick()
    }

    fn on_seal(&mut self, _file: &str) -> Result<(), StoreError> {
        self.tick()
    }
}

/// Load the store at `path` and return (epoch, full catalog responses).
fn loaded_state(path: &Path) -> (u64, Vec<(String, String)>) {
    let (store, _report) = Store::load(path).expect("store loads after crash");
    (store.epoch(), util::mix_responses(&store))
}

#[test]
fn save_records_stable_chunk_boundaries() {
    let store = Store::from_world(util::shared_tiny_world());
    let scratch = Scratch::new("boundaries");
    let path = scratch.path("world.lfps");

    let mut recorder = LogRecorder::default();
    let report = store.save_with(&path, &mut recorder).expect("clean save");

    // The boundaries tile the byte stream exactly: contiguous, starting
    // at 0, summing to the store size, every chunk ≤ SAVE_CHUNK — and
    // exactly one seal, the publish, after the last of them.
    let chunks = recorder.chunks();
    assert!(!chunks.is_empty());
    assert_eq!(recorder.events.len(), chunks.len() + 1);
    assert_eq!(
        recorder.events.last(),
        Some(&LogEvent::Seal("world.lfps".to_string()))
    );
    let mut expected_offset = 0usize;
    for &(offset, len) in &chunks {
        assert_eq!(offset, expected_offset, "chunk boundaries not contiguous");
        assert!(len > 0 && len <= SAVE_CHUNK);
        expected_offset += len;
    }
    assert_eq!(expected_offset as u64, report.bytes);
    assert!(
        chunks.len() >= 2,
        "store too small to cross a chunk boundary — the crash matrix \
         would only test the empty-file case"
    );

    // Recording perturbed nothing: the published file is the store.
    let (epoch, _) = loaded_state(&path);
    assert_eq!(epoch, 0);
}

#[test]
fn crash_at_every_write_boundary_recovers_last_good_epoch() {
    let world = util::shared_tiny_world();
    let store = Store::from_world(world.clone());
    let scratch = Scratch::new("matrix");
    let path = scratch.path("world.lfps");

    // Publish epoch 0 — the "last good" state every crash must preserve.
    store.save(&path).expect("baseline save");
    let baseline = loaded_state(&path);
    assert_eq!(baseline.0, 0);

    // Advance to epoch 1, so the crashing saves carry genuinely new
    // bytes the crash must *not* publish partially.
    let deltas = util::measure_deltas(&world, 1);
    store
        .ingest(deltas.into_iter().next().unwrap())
        .expect("ingest");
    assert_eq!(store.epoch(), 1);

    // Map the crash points of the epoch-1 image (against a scratch
    // path, so the real one still holds epoch 0).
    let mut recorder = LogRecorder::default();
    let probe = store
        .save_with(&scratch.path("probe.lfps"), &mut recorder)
        .expect("probe save");
    let chunks = recorder.chunks();

    // Crash before every chunk write, including chunk 0 (empty temp),
    // and — the last event — after the temp file is complete but before
    // the rename: the new epoch is on disk yet *unpublished*.
    for at in 0..recorder.events.len() {
        let error = store
            .save_with(&path, &mut LogCrashAt::event(at))
            .expect_err("injected crash must surface");
        assert!(matches!(error, StoreError::Io(_)));

        // The temp file is truncated at exactly the recorded boundary
        // (whole, at the publish crash)…
        let tmp_len = std::fs::metadata(path.with_extension("lfps.tmp"))
            .expect("crashed save leaves its temp file")
            .len();
        let expected = chunks
            .get(at)
            .map_or(probe.bytes, |&(offset, _)| offset as u64);
        assert_eq!(tmp_len, expected, "crash point {at}");

        // …and the published path still loads as epoch 0, responding
        // byte-identically to the pre-crash baseline.
        assert_eq!(loaded_state(&path), baseline, "crash point {at}");
    }

    // A clean save after any number of crashes publishes epoch 1.
    store.save(&path).expect("post-crash save");
    let (epoch, responses) = loaded_state(&path);
    assert_eq!(epoch, 1);
    assert_ne!(responses, baseline.1, "epoch 1 must answer differently");
    assert_eq!(responses, util::mix_responses(&store));
}

#[test]
fn follower_crash_at_every_boundary_recovers_and_resyncs() {
    let world = util::shared_tiny_world();
    let primary = Store::from_world(world.clone());
    let scratch = Scratch::new("follower");
    let follower_path = scratch.path("follower.lfps");

    // The follower starts as a synced replica of the primary's base
    // snapshot, published durably at epoch 0.
    let follower = Store::from_bytes(&primary.to_bytes()).expect("snapshot sync");
    follower.save(&follower_path).expect("baseline persist");
    let baseline = loaded_state(&follower_path);
    assert_eq!(baseline.0, 0);

    // The primary ingests one snapshot; the replication log's segment
    // for epoch 1 is exactly what `repl_delta` would ship.
    let delta = util::measure_deltas(&world, 1).into_iter().next().unwrap();
    primary.ingest(delta).expect("primary ingest");
    let shipped = primary.delta_segment(1).expect("epoch 1 is in the log");

    // Applying the shipped segment is the follower's ingest path.
    let apply = |store: &Store| {
        let delta =
            lfp_store::SnapshotDelta::from_bytes(&shipped).expect("shipped segment decodes");
        store.ingest(delta).expect("apply shipped delta");
    };
    apply(&follower);
    assert_eq!(follower.epoch(), 1);
    // Replication's core claim: at equal epochs the follower answers
    // byte-identically to the primary.
    let converged = util::mix_responses(&follower);
    assert_eq!(converged, util::mix_responses(&primary));

    // Map the write boundaries of the follower's epoch-1 image.
    let mut recorder = LogRecorder::default();
    follower
        .save_with(&scratch.path("probe.lfps"), &mut recorder)
        .expect("probe save");
    assert!(matches!(recorder.events.last(), Some(LogEvent::Seal(_))));

    // Kill the follower's post-apply persist before every chunk write
    // and before the publish rename (the last event): the published
    // file must still be the *fully-applied* epoch 0 every time — a
    // torn epoch may never become loadable, let alone servable.
    for at in 0..recorder.events.len() {
        let error = follower
            .save_with(&follower_path, &mut LogCrashAt::event(at))
            .expect_err("injected crash must surface");
        assert!(matches!(error, StoreError::Io(_)));
        assert_eq!(loaded_state(&follower_path), baseline, "crash point {at}");
    }

    // Restart after the crashes: the reloaded follower is at the last
    // fully-applied epoch and resyncs by re-fetching the same shipped
    // segment — landing byte-identical to the never-crashed replica.
    let (restarted, _) = Store::load(&follower_path).expect("follower restart");
    assert_eq!(restarted.epoch(), 0, "recovered to the last applied epoch");
    apply(&restarted);
    assert_eq!(restarted.epoch(), 1);
    assert_eq!(util::mix_responses(&restarted), converged);
    restarted.save(&follower_path).expect("clean persist");
    let (epoch, responses) = loaded_state(&follower_path);
    assert_eq!(epoch, 1);
    assert_eq!(responses, converged);
}

// ---------------------------------------------------------------------
// The segmented epoch log: the same seam, but with more places to die
// — inside a segment file, at a segment's seal, inside the manifest,
// and at the manifest swap itself (the single publish point).
// ---------------------------------------------------------------------

#[test]
fn segmented_crash_at_every_boundary_recovers_last_sealed_epoch() {
    let world = util::shared_tiny_world();
    let store = Store::from_world(world.clone());
    let scratch = Scratch::new("segmatrix");
    let dir = scratch.path("log");

    // Publish the epoch-0 base — the "last sealed" state every crashed
    // segment save must preserve.
    store.save_segmented(&dir).expect("baseline save");
    let baseline = loaded_state(&dir);
    assert_eq!(baseline.0, 0);

    // Advance to epoch 1 and map the incremental save's write events
    // against a disposable copy of the published log (same manifest,
    // same base ⇒ identical event sequence).
    let delta = util::measure_deltas(&world, 1).into_iter().next().unwrap();
    store.ingest(delta).expect("ingest");
    let probe = scratch.path("probe-log");
    std::fs::create_dir_all(&probe).expect("probe dir");
    for entry in std::fs::read_dir(&dir).expect("read log dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), probe.join(entry.file_name())).expect("copy log file");
    }
    let mut recorder = LogRecorder::default();
    store
        .save_segmented_with(&probe, &mut recorder)
        .expect("probe save");
    // The map must cover both files and both seals: segment chunks,
    // the segment's seal, manifest chunks, the manifest's seal (the
    // publish itself is the very last event).
    assert!(recorder.events.len() >= 4, "{:?}", recorder.events);
    assert!(matches!(recorder.events.last(), Some(LogEvent::Seal(file)) if file == MANIFEST_FILE));
    assert!(recorder
        .events
        .iter()
        .any(|event| matches!(event, LogEvent::Seal(file) if file != MANIFEST_FILE)));

    // Kill the save at every recorded boundary. Whatever died — a
    // half-written segment, a sealed-but-unpublished segment, a torn
    // manifest temp — the published log must still load as epoch 0,
    // byte-identically to the pre-crash baseline.
    for at in 0..recorder.events.len() {
        let error = store
            .save_segmented_with(&dir, &mut LogCrashAt::event(at))
            .expect_err("injected crash must surface");
        assert!(matches!(error, StoreError::Io(_)), "crash point {at}");
        assert_eq!(loaded_state(&dir), baseline, "crash point {at}");
    }

    // A clean save after the whole matrix publishes epoch 1 exactly.
    store.save_segmented(&dir).expect("post-crash save");
    let (epoch, responses) = loaded_state(&dir);
    assert_eq!(epoch, 1);
    assert_ne!(responses, baseline.1, "epoch 1 must answer differently");
    assert_eq!(responses, util::mix_responses(&store));
}

#[test]
fn compaction_crash_at_every_boundary_preserves_the_published_log() {
    let world = util::shared_tiny_world();
    let store = Store::from_world(world.clone());
    let scratch = Scratch::new("foldmatrix");
    let dir = scratch.path("log");

    // Three sealed segments on top of the epoch-0 base.
    store.save_segmented(&dir).expect("base save");
    for delta in util::measure_deltas(&world, 3) {
        store.ingest(delta).expect("ingest");
        store.save_segmented(&dir).expect("per-epoch save");
    }
    let before = loaded_state(&dir);
    assert_eq!(before.0, 3);

    // Map the fold's write events (new base chunks, its seal, manifest
    // chunks, manifest seal) against a disposable copy of the log.
    let probe = scratch.path("probe-log");
    std::fs::create_dir_all(&probe).expect("probe dir");
    for entry in std::fs::read_dir(&dir).expect("read log dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), probe.join(entry.file_name())).expect("copy log file");
    }
    let probe_store = Store::load(&probe)
        .map(|(store, _)| store)
        .expect("probe load");
    let mut recorder = LogRecorder::default();
    probe_store
        .compact_log_with(&mut recorder)
        .expect("probe fold")
        .expect("probe had segments to fold");
    assert!(matches!(recorder.events.last(), Some(LogEvent::Seal(file)) if file == MANIFEST_FILE));

    // Kill the fold at every boundary: the published manifest still
    // lists the old base + segments, all of which the crashed fold must
    // leave untouched — so every load sees epoch 3, byte-identically.
    for at in 0..recorder.events.len() {
        let error = store
            .compact_log_with(&mut LogCrashAt::event(at))
            .expect_err("injected crash must surface");
        assert!(matches!(error, StoreError::Io(_)), "crash point {at}");
        assert_eq!(loaded_state(&dir), before, "crash point {at}");
        // The log still accepts incremental saves after a failed fold.
        let report = store.save_segmented(&dir).expect("save after crashed fold");
        assert_eq!(report.segments_written, 0, "crash point {at}");
    }

    // A clean fold publishes the single-base manifest; the log answers
    // exactly as before and the swept segments are gone.
    let report = store
        .compact_log()
        .expect("clean fold")
        .expect("segments still pending");
    assert_eq!(report.epoch, 3);
    assert_eq!(report.folded, 3);
    assert_eq!(loaded_state(&dir), before);
    let status = store.log_status().expect("log attached");
    assert_eq!(status.segments, 0);
}

#[test]
fn follower_with_segmented_log_recovers_and_resyncs_after_crashes() {
    let world = util::shared_tiny_world();
    let primary = Store::from_world(world.clone());
    let scratch = Scratch::new("segfollower");
    let dir = scratch.path("follower-log");

    // The follower replicates the base snapshot and persists it as a
    // segmented log.
    let follower = Store::from_bytes(&primary.to_bytes()).expect("snapshot sync");
    follower.save_segmented(&dir).expect("baseline persist");
    let baseline = loaded_state(&dir);
    assert_eq!(baseline.0, 0);

    // The primary moves on; the shipped delta is the follower's apply.
    let delta = util::measure_deltas(&world, 1).into_iter().next().unwrap();
    primary.ingest(delta).expect("primary ingest");
    let shipped = primary.delta_segment(1).expect("epoch 1 in the log");
    let apply = |store: &Store| {
        let delta =
            lfp_store::SnapshotDelta::from_bytes(&shipped).expect("shipped segment decodes");
        store.ingest(delta).expect("apply shipped delta");
    };
    apply(&follower);
    let converged = util::mix_responses(&follower);
    assert_eq!(converged, util::mix_responses(&primary));

    // Map the post-apply persist, then kill it at every boundary: the
    // published log must stay at the last fully-applied epoch.
    let probe = scratch.path("probe-log");
    std::fs::create_dir_all(&probe).expect("probe dir");
    for entry in std::fs::read_dir(&dir).expect("read log dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), probe.join(entry.file_name())).expect("copy log file");
    }
    let mut recorder = LogRecorder::default();
    follower
        .save_segmented_with(&probe, &mut recorder)
        .expect("probe save");
    for at in 0..recorder.events.len() {
        let error = follower
            .save_segmented_with(&dir, &mut LogCrashAt::event(at))
            .expect_err("injected crash must surface");
        assert!(matches!(error, StoreError::Io(_)), "crash point {at}");
        assert_eq!(loaded_state(&dir), baseline, "crash point {at}");
    }

    // Restart from the crashed log: epoch 0, resync by re-applying the
    // same shipped segment, persist cleanly — byte-identical to the
    // never-crashed replica.
    let (restarted, _) = Store::load(&dir).expect("follower restart");
    assert_eq!(restarted.epoch(), 0, "recovered to the last applied epoch");
    apply(&restarted);
    assert_eq!(util::mix_responses(&restarted), converged);
    restarted.save_segmented(&dir).expect("clean persist");
    let (epoch, responses) = loaded_state(&dir);
    assert_eq!(epoch, 1);
    assert_eq!(responses, converged);
}

#[test]
fn save_survives_bare_filename_paths() {
    // `path.parent()` is empty for a bare filename; the directory
    // fsync must fall back to "." instead of failing the save.
    let store = Store::from_world(util::shared_tiny_world());
    let scratch = Scratch::new("bare");
    let previous = std::env::current_dir().expect("cwd");
    std::env::set_current_dir(&scratch.dir).expect("enter scratch");
    let result = store.save(Path::new("bare.lfps"));
    let loaded = Store::load(Path::new("bare.lfps")).map(|(store, _)| store.epoch());
    std::env::set_current_dir(previous).expect("restore cwd");
    result.expect("bare-filename save");
    assert_eq!(loaded.expect("bare-filename load"), 0);
}
