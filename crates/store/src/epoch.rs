//! The live store: a served world plus epoch-based incremental
//! ingestion.
//!
//! A [`Store`] owns an immutable base [`World`], a shared result cache,
//! and the *current* [`QueryEngine`] behind an `RwLock<Arc<…>>`. Each
//! [`Store::ingest`] call:
//!
//! 1. classifies **only the new snapshot's** scan vectors against the
//!    world's frozen signature set (fanning out through
//!    [`lfp_net::scanner::scan`], the same determinism contract every
//!    other classification pass in the repo rides),
//! 2. encodes the new traces into corpus rows ([`PathCorpus::encode`])
//!    — steps 1 and 2 read no epoch state and run before the epochs
//!    lock is taken —, then folds the rows into the next epoch's corpus
//!    without copying the live one: the store keeps the corpus the
//!    previous engine served as a spare, one epoch behind. Once nothing
//!    else holds it, the ingest re-interns the previous delta's
//!    already-encoded rows into it ([`PathCorpus::catch_up`]) and then
//!    appends the new ones ([`PathCorpus::append_encoded`]), so an epoch
//!    costs O(delta). While a reader still holds the spare, it appends
//!    to a copy instead,
//! 3. builds a new engine at `epoch + k` sharing the result cache, and
//! 4. atomically swaps it in. In-flight requests finish against the old
//!    engine's `Arc`; the epoch-tagged cache keys guarantee no answer
//!    rendered at an old epoch is ever served at a new one.
//!
//! A replication follower skips steps 1 and 2's computing:
//! [`Store::apply_segment`] takes the vendor map and rows a primary
//! shipped with the epoch's segment file and runs the same fold, build
//! and swap.
//!
//! Encodes (a save, a replication snapshot, a compaction fold) take a
//! [`Snapshot`] under the epochs lock — the epoch, the corpus columns
//! and `Arc`s of the ingested epochs — and encode it with no lock held.
//!
//! The signature set is frozen at the base build: epochs extend the
//! *path corpus* and move the vendor-mix aggregates to the newest
//! snapshot, exactly like a production classifier serving between
//! retrainings. Because the epoch id counts ingested snapshots (not
//! ingest calls), folding k snapshots one at a time and folding them in
//! one call land on identical state — a regression test holds the two
//! paths byte-identical across the full query catalog.

use crate::codec::{
    decode_campaign, decode_parsed_campaign, decode_shipped, delta_file, encode_apply,
    encode_campaign, CampaignRefs, SnapshotDelta, StoredCampaign,
};
use crate::error::StoreError;
use crate::format::{Sealed, MAGIC};
use crate::segment::{
    base_file_name, encode_segment, segment_file_name, write_sealed, DurableLog, EpochLog,
    LogFaults, Manifest, SegmentMeta,
};
use lfp_analysis::path_corpus::{CorpusParts, EncodedSource, NewPathSource, PathCorpus};
use lfp_analysis::World;
use lfp_core::signature::SignatureSet;
use lfp_core::FeatureVector;
use lfp_net::link::splitmix64;
use lfp_net::scanner::{scan, ScanConfig};
use lfp_query::QueryEngine;
use lfp_stack::vendor::Vendor;
use lfp_topo::Internet;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Default cache geometry, matching `QueryEngine::new`.
const DEFAULT_CACHE_SHARDS: usize = 16;
const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// One ingested epoch, retained so the store can be re-persisted;
/// `Arc`-shared with encodes running outside the epochs lock. The delta
/// is kept encoded: every save copies these bytes rather than encoding
/// the epoch again, and they are smaller than the decoded delta.
struct IngestedEpoch {
    /// [`SnapshotDelta::encode_body`] of the ingested delta.
    body: Vec<u8>,
    lfp: HashMap<Ipv4Addr, Vendor>,
}

/// What the epochs lock guards.
#[derive(Default)]
struct History {
    /// Every ingested epoch, in order.
    epochs: Vec<Arc<IngestedEpoch>>,
    /// The corpus the previous engine served, one epoch behind the live
    /// one: the next ingest extends it in place when nothing else holds
    /// it.
    spare: Option<Arc<PathCorpus>>,
}

/// One of the latest epochs, kept beside the history under a lock of
/// its own, so that a replication primary ships it without waiting for
/// the epochs lock (a compaction holds that while it copies the corpus).
struct RecentEpoch {
    epoch: u64,
    ingested: Arc<IngestedEpoch>,
    /// Its segment file, once a segmented save sealed it or a primary
    /// shipped it: a save writes a shipped file instead of encoding the
    /// epoch again, and a primary ships a sealed one without reading it
    /// back.
    segment: Option<Arc<Sealed>>,
}

/// How many of the latest epochs a store keeps as [`RecentEpoch`]s. An
/// older epoch ships from the history, its segment file read back from
/// the log or encoded again to the same bytes.
const RECENT_KEPT: usize = 8;

/// One epoch ready to commit, wherever its products came from.
struct PreparedEpoch {
    delta: SnapshotDelta,
    /// Its unique-LFP vendor map.
    lfp: HashMap<Ipv4Addr, Vendor>,
    /// [`SnapshotDelta::encode_body`] of `delta`.
    body: Vec<u8>,
    /// The sealed segment file and the epoch it seals, when a primary
    /// shipped them.
    shipped: Option<(u64, Sealed)>,
}

/// Epochs ready to commit, with their corpus rows index-aligned.
struct Prepared {
    epochs: Vec<PreparedEpoch>,
    sources: Vec<EncodedSource>,
}

/// Everything an encode of the store needs, taken under the epochs lock
/// and encoded with none held. It holds no engine and no corpus `Arc`,
/// so a long encode never keeps the spare corpus from being reused.
struct Snapshot {
    epoch: u64,
    corpus: CorpusParts,
    epochs: Vec<Arc<IngestedEpoch>>,
}

/// What a load cost (the benchmark's `store.load_s`).
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Wall-clock seconds from bytes to a serving engine.
    pub seconds: f64,
    /// Store size in bytes.
    pub bytes: u64,
    /// Epoch the store resumed at.
    pub epoch: u64,
}

/// What a save cost.
#[derive(Debug, Clone, Copy)]
pub struct SaveReport {
    /// Wall-clock seconds from engine state to bytes on disk.
    pub seconds: f64,
    /// Store size in bytes.
    pub bytes: u64,
}

/// What one ingest did.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Epoch after the swap.
    pub epoch: u64,
    /// Paths added across the ingested snapshots.
    pub new_paths: usize,
    /// Names of the ingested snapshot sources.
    pub sources: Vec<String>,
    /// Whether the corpus was extended in place (the spare corpus was
    /// free) rather than copied first.
    pub in_place: bool,
    /// Wall-clock seconds for classify + fold + swap.
    pub seconds: f64,
}

/// What a segmented save cost — and, crucially, how much of the world
/// it did *not* rewrite. After the first save into a directory,
/// `segments_written` is the number of epochs persisted (each O(delta))
/// and `base_rewritten` stays false: per-epoch save cost scales with
/// the delta, not the world.
#[derive(Debug, Clone, Copy)]
pub struct SegmentedSaveReport {
    /// Wall-clock seconds for the whole save.
    pub seconds: f64,
    /// Epoch the manifest covers after the save.
    pub epoch: u64,
    /// Segment files sealed by this save.
    pub segments_written: usize,
    /// Bytes written into those segment files.
    pub segment_bytes: u64,
    /// Whether the full base snapshot had to be (re)written.
    pub base_rewritten: bool,
    /// Size of the (possibly reused) base file.
    pub base_bytes: u64,
    /// Segments listed in the published manifest.
    pub segments_total: usize,
}

/// What one log compaction did.
#[derive(Debug, Clone, Copy)]
pub struct CompactReport {
    /// Wall-clock seconds for encode + seal + publish.
    pub seconds: f64,
    /// Epoch the new sealed base was encoded at.
    pub epoch: u64,
    /// Segment files folded into the new base.
    pub folded: usize,
    /// Size of the new base file.
    pub base_bytes: u64,
}

/// The attached log's published shape (what a compaction policy reads).
#[derive(Debug, Clone, Copy)]
pub struct LogStatus {
    /// Segment files in the published manifest.
    pub segments: usize,
    /// Total bytes across those segment files.
    pub segment_bytes: u64,
    /// Size of the sealed base file.
    pub base_bytes: u64,
    /// Highest epoch the manifest covers.
    pub covered: u64,
}

/// A persistent, restartable, incrementally-updatable serving store.
pub struct Store {
    world: Arc<World>,
    engine: RwLock<Arc<QueryEngine>>,
    /// The epochs lock: serialises ingests, and pins the state a save
    /// or snapshot reads.
    history: Mutex<History>,
    /// The segmented log this store persists into, once one is attached
    /// by [`Store::save_segmented`] or a segmented load. Lock order:
    /// `history` before `log`, always; neither is held across an encode
    /// or a compaction's base write.
    log: Mutex<Option<EpochLog>>,
    /// The latest epochs, newest last. Lock order: `history` before
    /// `recent`; `recent` is never held across I/O or an encode.
    recent: Mutex<Vec<RecentEpoch>>,
    /// The last fold's file buffer, handed to the next fold so that
    /// its pages are already mapped.
    fold_buffer: Mutex<Vec<u8>>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("epoch", &self.epoch())
            .field("paths", &self.engine().corpus().len())
            .finish()
    }
}

impl Store {
    /// Wrap a freshly built world at epoch 0 with default cache
    /// geometry.
    pub fn from_world(world: Arc<World>) -> Store {
        Self::from_world_with_cache(world, DEFAULT_CACHE_SHARDS, DEFAULT_CACHE_CAPACITY)
    }

    /// Wrap a freshly built world at epoch 0 with explicit cache
    /// geometry.
    pub fn from_world_with_cache(world: Arc<World>, shards: usize, capacity: usize) -> Store {
        let engine = QueryEngine::with_cache(Arc::clone(&world), shards, capacity);
        Store {
            world,
            engine: RwLock::new(Arc::new(engine)),
            history: Mutex::new(History::default()),
            log: Mutex::new(None),
            recent: Mutex::default(),
            fold_buffer: Mutex::default(),
        }
    }

    /// The current serving engine. Connection handlers fetch this per
    /// request; an ingest swapping epochs never invalidates a handle
    /// already taken (the old engine stays alive until its last `Arc`
    /// drops).
    pub fn engine(&self) -> Arc<QueryEngine> {
        Arc::clone(&self.engine.read().expect("engine lock poisoned"))
    }

    /// The base world (shared by every epoch).
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// Current serving epoch (number of ingested snapshots).
    pub fn epoch(&self) -> u64 {
        self.engine().epoch()
    }

    /// Fold one snapshot delta into the next epoch.
    pub fn ingest(&self, delta: SnapshotDelta) -> Result<IngestReport, StoreError> {
        self.ingest_many(vec![delta])
    }

    /// Fold several snapshot deltas in one step: one corpus extension,
    /// one engine swap, epoch advanced by the number of snapshots. State
    /// after `ingest_many([a, b])` equals `ingest(a); ingest(b)` —
    /// byte-identically, across every query.
    pub fn ingest_many(&self, deltas: Vec<SnapshotDelta>) -> Result<IngestReport, StoreError> {
        if deltas.is_empty() {
            return Err(StoreError::Ingest("no deltas to ingest".to_string()));
        }
        let start = Instant::now();
        let prepared = self.prepare(deltas)?;
        self.commit(prepared, start)
    }

    /// Apply one epoch exactly as a replication primary shipped it: its
    /// sealed segment file (`segment.checksum` is the whole-file FNV the
    /// primary recorded) and its apply section ([`EpochApply`]). Nothing
    /// is classified or encoded: the shipped vendor map and rows go
    /// through the same commit as a local ingest, the delta body is kept
    /// as it arrived, and the next [`Store::save_segmented`] seals the
    /// shipped file itself. Hostile or torn input is a typed error,
    /// and the store is then unchanged; so is a segment that does not
    /// seal this store's next epoch.
    ///
    /// [`EpochApply`]: crate::codec::EpochApply
    pub fn apply_segment(&self, segment: Sealed, apply: &[u8]) -> Result<IngestReport, StoreError> {
        let start = Instant::now();
        let shipped = decode_shipped(&segment, apply)?;
        let source = EncodedSource {
            name: shipped.delta.name.clone(),
            is_ripe_snapshot: true,
            rows: shipped.apply.rows,
        };
        let epoch = PreparedEpoch {
            delta: shipped.delta,
            lfp: shipped.apply.lfp,
            body: shipped.body,
            shipped: Some((shipped.epoch, segment)),
        };
        let prepared = Prepared {
            epochs: vec![epoch],
            sources: vec![source],
        };
        self.commit(prepared, start)
    }

    /// Everything that ingesting `deltas` computes from them alone:
    /// validation, classification of each scan, the corpus rows of each
    /// snapshot and the encoded bodies. Reads no epoch state, so it runs
    /// before the epochs lock is taken.
    fn prepare(&self, deltas: Vec<SnapshotDelta>) -> Result<Prepared, StoreError> {
        for delta in &deltas {
            delta.validate()?;
        }
        let lfp_maps: Vec<HashMap<Ipv4Addr, Vendor>> = deltas
            .iter()
            .map(|delta| classify_population(&self.world.set, &delta.targets, &delta.vectors))
            .collect();
        let snmp_maps: Vec<HashMap<Ipv4Addr, Vendor>> = deltas.iter().map(snmp_map).collect();
        let additions: Vec<NewPathSource<'_>> = deltas
            .iter()
            .zip(&lfp_maps)
            .zip(&snmp_maps)
            .map(|((delta, lfp), snmp)| NewPathSource {
                name: delta.name.clone(),
                traces: &delta.traces,
                lfp,
                snmp,
                is_ripe_snapshot: true,
            })
            .collect();
        let sources = PathCorpus::encode(
            &self.world.internet,
            &additions,
            ScanConfig::default().shards,
        );
        drop(additions);
        let epochs = deltas
            .into_iter()
            .zip(lfp_maps)
            .map(|(delta, lfp)| PreparedEpoch {
                body: delta.encode_body(),
                delta,
                lfp,
                shipped: None,
            })
            .collect();
        Ok(Prepared { epochs, sources })
    }

    /// Fold prepared epochs into the next epoch: one corpus extension,
    /// one engine swap, the epoch advanced by the number of epochs. The
    /// one commit path, whether this store computed the epochs or a
    /// primary shipped them.
    fn commit(&self, prepared: Prepared, start: Instant) -> Result<IngestReport, StoreError> {
        let Prepared { epochs, sources } = prepared;
        // The epochs lock serialises ingests; readers keep serving.
        let mut history = self.history.lock().expect("epoch lock poisoned");
        let engine = self.engine();
        for (offset, prepared) in epochs.iter().enumerate() {
            let next = engine.epoch() + offset as u64 + 1;
            if let Some((epoch, _)) = prepared.shipped.as_ref().filter(|(at, _)| *at != next) {
                return Err(StoreError::Replication(format!(
                    "shipped segment seals epoch {epoch}, but this store's next epoch is {next}"
                )));
            }
        }
        let live = engine.corpus_arc();
        let (extended, in_place) = next_corpus(history.spare.take(), &live, &sources)?;
        let new_paths = extended.len() - live.len();

        let epoch = engine.epoch() + epochs.len() as u64;
        let last = epochs.last().expect("at least one epoch");
        let next = QueryEngine::for_epoch(
            Arc::clone(&self.world),
            extended,
            &last.delta.targets,
            &last.lfp,
            &snmp_map(&last.delta),
            engine.cache_handle(),
            epoch,
        );
        *self.engine.write().expect("engine lock poisoned") = Arc::new(next);
        history.spare = Some(live);
        let mut recent = self.recent.lock().expect("recent epochs lock poisoned");
        for (at, prepared) in (engine.epoch() + 1..).zip(epochs) {
            let ingested = Arc::new(IngestedEpoch {
                body: prepared.body,
                lfp: prepared.lfp,
            });
            history.epochs.push(Arc::clone(&ingested));
            if recent.len() >= RECENT_KEPT {
                recent.remove(0);
            }
            recent.push(RecentEpoch {
                epoch: at,
                ingested,
                segment: prepared.shipped.map(|(_, sealed)| Arc::new(sealed)),
            });
        }
        Ok(IngestReport {
            epoch,
            new_paths,
            in_place,
            sources: sources.into_iter().map(|source| source.name).collect(),
            seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// Serialize the current state (base campaign + every ingested
    /// epoch) to store-file bytes. Only the corpus columns are copied,
    /// under the epochs lock; the encode borrows everything else and
    /// runs with no lock held.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode(&self.snapshot(), Vec::new()).bytes
    }

    /// [`to_bytes`](Store::to_bytes) plus the epoch those bytes
    /// describe, taken in the same snapshot — the pair a replication
    /// primary hands out, guaranteed internally consistent even if an
    /// ingest lands the instant the lock drops.
    pub fn snapshot_segment(&self) -> (u64, Vec<u8>) {
        let snapshot = self.snapshot();
        (snapshot.epoch, self.encode(&snapshot, Vec::new()).bytes)
    }

    /// The replication log: the serialized delta that produced `epoch`
    /// (epochs are 1-based; the base world is epoch 0 and has no
    /// delta), or `None` when this store never ingested that epoch.
    /// The bytes are exactly what [`SnapshotDelta::to_bytes`] wrote —
    /// sectioned and checksummed, so a follower validates them with
    /// [`SnapshotDelta::from_bytes`] before applying.
    ///
    /// Served **from the attached segment log first**: a primary with a
    /// segmented store reads the sealed `.seg` file instead of
    /// re-encoding from RAM, and the disk path uses `try_lock` so a
    /// compaction holding the log never stalls a follower — contention
    /// just falls back to the in-memory encode.
    pub fn delta_segment(&self, epoch: u64) -> Option<Vec<u8>> {
        let index = usize::try_from(epoch.checked_sub(1)?).ok()?;
        if let Some(bytes) = self.read_from_log(epoch, EpochLog::read_segment) {
            return Some(bytes);
        }
        let history = self.history.lock().expect("epoch lock poisoned");
        history
            .epochs
            .get(index)
            .map(|entry| delta_file(&entry.body))
    }

    /// Epoch `epoch` as a replication primary ships it (`None` when this
    /// store never ingested it): the sealed segment file — the attached
    /// log's, as stored, when the manifest lists it, else encoded from
    /// the history to the bytes a segmented save would seal — and the
    /// apply section ([`EpochApply`]) holding the epoch's vendor map and
    /// the corpus rows of its source.
    ///
    /// [`EpochApply`]: crate::codec::EpochApply
    pub fn shipped_segment(&self, epoch: u64) -> Option<(Sealed, Vec<u8>)> {
        let index = usize::try_from(epoch.checked_sub(1)?).ok()?;
        let (entry, kept) = match self.recent(epoch) {
            Some(recent) => recent,
            None => {
                let history = self.history.lock().expect("epoch lock poisoned");
                (Arc::clone(history.epochs.get(index)?), None)
            }
        };
        // An ingest publishes its engine before it records its epochs,
        // so this engine holds epoch `epoch`; and any one engine's
        // corpus holds one source per ingested epoch past the base ones.
        let engine = self.engine();
        let corpus = engine.corpus();
        let source = corpus.sources().len() - engine.epoch() as usize + index;
        let apply = encode_apply(
            epoch,
            &corpus.sources()[source],
            &entry.lfp,
            &corpus.source_rows(source),
        );
        let segment = match kept {
            Some(sealed) => Sealed::clone(&sealed),
            None => self
                .read_from_log(epoch, EpochLog::read_sealed)
                .unwrap_or_else(|| encode_segment(epoch, &delta_file(&entry.body))),
        };
        Some((segment, apply))
    }

    /// Epoch `epoch`, if it is one of the kept latest: its ingested
    /// state and, once there is one, its segment file.
    fn recent(&self, epoch: u64) -> Option<(Arc<IngestedEpoch>, Option<Arc<Sealed>>)> {
        let recent = self.recent.lock().expect("recent epochs lock poisoned");
        let kept = recent.iter().find(|kept| kept.epoch == epoch)?;
        Some((Arc::clone(&kept.ingested), kept.segment.clone()))
    }

    /// `read` epoch `epoch`'s sealed segment file out of the attached
    /// log, if the manifest lists one and it verifies. The log is only
    /// tried, never waited for: a compaction holding it sends the caller
    /// to the history instead.
    fn read_from_log<T>(
        &self,
        epoch: u64,
        read: impl FnOnce(&EpochLog, &SegmentMeta) -> Result<T, StoreError>,
    ) -> Option<T> {
        let guard = self.log.try_lock().ok()?;
        let log = guard.as_ref()?;
        let meta = log
            .manifest()?
            .segments
            .iter()
            .find(|meta| meta.epoch == epoch)?;
        read(log, meta).ok()
    }

    /// What an encode needs, taken under the epochs lock.
    fn snapshot(&self) -> Snapshot {
        self.snapshot_locked(&self.history.lock().expect("epoch lock poisoned"))
    }

    /// [`snapshot`](Store::snapshot) for a caller already holding the
    /// epochs lock: the engine cannot be swapped out from under it,
    /// because `ingest_many` publishes a new engine only while holding
    /// that same lock.
    fn snapshot_locked(&self, history: &History) -> Snapshot {
        let engine = self.engine();
        Snapshot {
            epoch: engine.epoch(),
            corpus: engine.corpus().to_parts(),
            epochs: history.epochs.clone(),
        }
    }

    /// Encode a snapshot as a sealed store file into `buffer`; takes no
    /// lock.
    fn encode(&self, snapshot: &Snapshot, buffer: Vec<u8>) -> Sealed {
        let world = &self.world;
        // The per-dataset maps are memoised `Arc`s; hold them so the
        // encode below can borrow plain references.
        let base_maps: Vec<Arc<HashMap<Ipv4Addr, Vendor>>> = world
            .all_scans()
            .map(|scan| world.lfp_vendor_map(scan))
            .collect();
        let lfp_maps: Vec<&HashMap<Ipv4Addr, Vendor>> = base_maps
            .iter()
            .map(Arc::as_ref)
            .chain(snapshot.epochs.iter().map(|epoch| &epoch.lfp))
            .collect();
        let campaign = CampaignRefs {
            scale: world.scale,
            epoch: snapshot.epoch,
            ripe: &world.ripe,
            itdk: &world.itdk,
            scans: world.all_scans().collect(),
            lfp_maps,
            corpus: &snapshot.corpus,
            deltas: snapshot
                .epochs
                .iter()
                .map(|epoch| epoch.body.as_slice())
                .collect(),
        };
        encode_campaign(&campaign, buffer)
    }

    /// Persist to a file, crash-durably, through the one sealed-write
    /// sequence every durable file uses ([`crate::segment`]):
    /// write-to-temp, `fsync` the temp file, rename over `path`, then
    /// `fsync` the parent directory. The rename is the atomic publish
    /// point — before it, `path` still holds the previous epoch; after
    /// it (and the directory fsync), the new bytes survive power loss.
    /// A crash at *any* step leaves `path` as the last successfully
    /// published store, which [`Store::load`] reopens untouched — the
    /// property the crash-injection tests drive through [`LogFaults`].
    pub fn save(&self, path: &Path) -> Result<SaveReport, StoreError> {
        self.save_with(path, &mut DurableLog)
    }

    /// [`save`](Store::save) through an explicit [`LogFaults`] shim.
    /// Production passes [`DurableLog`] (a no-op); crash tests pass
    /// recorders and boundary-triggered failers.
    pub fn save_with(
        &self,
        path: &Path,
        faults: &mut dyn LogFaults,
    ) -> Result<SaveReport, StoreError> {
        let start = Instant::now();
        let bytes = self.to_bytes();
        write_sealed(path, &bytes, faults)?;
        Ok(SaveReport {
            seconds: start.elapsed().as_secs_f64(),
            bytes: bytes.len() as u64,
        })
    }

    /// Persist into a **segmented epoch log** at `dir`: the full base
    /// snapshot is written once, then each save seals one segment file
    /// per epoch ingested since — O(delta) per epoch, not O(world).
    /// The manifest rename is the single atomic publish point, with
    /// the same fsync-before-rename discipline as [`Store::save`]; a
    /// crash mid-save leaves the previous manifest (and every file it
    /// lists) fully intact. Attaches the log, so
    /// [`Store::delta_segment`] starts serving replication deltas from
    /// the sealed files.
    pub fn save_segmented(&self, dir: &Path) -> Result<SegmentedSaveReport, StoreError> {
        self.save_segmented_with(dir, &mut DurableLog)
    }

    /// [`save_segmented`](Store::save_segmented) through an explicit
    /// [`LogFaults`] shim for the crash matrices.
    pub fn save_segmented_with(
        &self,
        dir: &Path,
        faults: &mut dyn LogFaults,
    ) -> Result<SegmentedSaveReport, StoreError> {
        let start = Instant::now();
        // The epochs lock pins the state being persisted and orders
        // this save against compaction publishes (lock order: epochs,
        // then log). Queries never touch either lock; a compaction
        // holds neither while it writes its base.
        let history = self.history.lock().expect("epoch lock poisoned");
        let mut log_guard = self.log.lock().expect("log lock poisoned");
        if log_guard.as_ref().is_none_or(|log| log.dir() != dir) {
            *log_guard = Some(EpochLog::create(dir)?);
        }
        let log = log_guard.as_mut().expect("log just attached");
        let epoch = self.engine().epoch();

        // A published manifest is reusable when it describes a prefix
        // of our history and its base file is still present — then
        // this save only seals the segments it is missing.
        let usable = log
            .manifest()
            .filter(|manifest| {
                manifest.base.epoch <= epoch
                    && manifest.covered() <= epoch
                    && log.dir().join(&manifest.base.file).is_file()
            })
            .cloned();

        let mut report = SegmentedSaveReport {
            seconds: 0.0,
            epoch,
            segments_written: 0,
            segment_bytes: 0,
            base_rewritten: false,
            base_bytes: 0,
            segments_total: 0,
        };
        let manifest = match usable {
            Some(mut manifest) => {
                report.base_bytes = manifest.base.bytes;
                for target in manifest.covered() + 1..=epoch {
                    let sealed = match self.recent(target).and_then(|(_, segment)| segment) {
                        Some(sealed) => sealed,
                        None => {
                            let index = usize::try_from(target - 1).expect("epoch fits usize");
                            let entry = history.epochs.get(index).ok_or_else(|| {
                                StoreError::Log(format!(
                                    "epoch {target} is not in this store's history"
                                ))
                            })?;
                            let sealed = Arc::new(encode_segment(target, &delta_file(&entry.body)));
                            let mut recent =
                                self.recent.lock().expect("recent epochs lock poisoned");
                            if let Some(kept) = recent.iter_mut().find(|kept| kept.epoch == target)
                            {
                                kept.segment = Some(Arc::clone(&sealed));
                            }
                            sealed
                        }
                    };
                    let name = segment_file_name(target);
                    log.write_sealed(&name, &sealed.bytes, faults)?;
                    manifest
                        .segments
                        .push(SegmentMeta::sealed(target, name, &sealed));
                    report.segments_written += 1;
                    report.segment_bytes += sealed.bytes.len() as u64;
                }
                manifest
            }
            None => {
                let sealed = self.encode(&self.snapshot_locked(&history), Vec::new());
                let name = base_file_name(epoch);
                log.write_sealed(&name, &sealed.bytes, faults)?;
                report.base_rewritten = true;
                report.base_bytes = sealed.bytes.len() as u64;
                Manifest {
                    base: SegmentMeta::sealed(epoch, name, &sealed),
                    segments: Vec::new(),
                }
            }
        };
        report.segments_total = manifest.segments.len();
        if report.segments_written == 0 && !report.base_rewritten {
            // Idempotent save at an already-covered epoch: nothing to
            // seal, nothing to publish.
            report.seconds = start.elapsed().as_secs_f64();
            return Ok(report);
        }
        log.publish(manifest, faults)?;
        log.prune();
        report.seconds = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Fold the attached log into a single freshly-sealed base at the
    /// current epoch, then publish a manifest listing it (plus any
    /// segments saved past it meanwhile) and remove the folded files.
    /// Returns `Ok(None)` when there is nothing to
    /// fold (no log attached, no manifest published, or the base is
    /// already at the live epoch with no trailing segments).
    ///
    /// What is locked, and when:
    /// - the epochs lock, only while the fold takes its snapshot
    ///   (the epoch, the corpus columns, `Arc`s of the ingested epochs);
    /// - the log lock, briefly before that, to check there is something
    ///   to fold and reserve the new base's name, which
    ///   [`EpochLog::prune`] then spares;
    /// - nothing while the snapshot is encoded and the base (whose name
    ///   is unique per epoch) is written and fsynced;
    /// - the log lock again to publish the manifest; the superseded
    ///   base and folded segments are removed after it is released.
    ///
    /// So ingest, saves, queries and replication all proceed mid-fold.
    /// A save that lands segments in that window is preserved: its
    /// segments past the fold point are carried into the new manifest.
    /// At most one fold is in flight; a second returns `Ok(None)`.
    pub fn compact_log(&self) -> Result<Option<CompactReport>, StoreError> {
        self.compact_log_with(&mut DurableLog)
    }

    /// [`compact_log`](Store::compact_log) through an explicit
    /// [`LogFaults`] shim for the crash matrices.
    pub fn compact_log_with(
        &self,
        faults: &mut dyn LogFaults,
    ) -> Result<Option<CompactReport>, StoreError> {
        self.fold_log(faults, |_| {})
    }

    /// The fold behind [`compact_log_with`](Store::compact_log_with).
    /// `published` gets the number of folded segments right after the new
    /// manifest is published, with the log lock still held: whoever sees
    /// the folded manifest through [`Store::log_status`] (which takes that
    /// lock) also sees what `published` recorded.
    pub(crate) fn fold_log(
        &self,
        faults: &mut dyn LogFaults,
        published: impl FnOnce(usize),
    ) -> Result<Option<CompactReport>, StoreError> {
        let start = Instant::now();
        let (snapshot, dir, name) = {
            let history = self.history.lock().expect("epoch lock poisoned");
            let epoch = self.engine().epoch();
            let (dir, name) = {
                let mut log_guard = self.log.lock().expect("log lock poisoned");
                let Some(log) = log_guard.as_mut() else {
                    return Ok(None);
                };
                if log
                    .manifest()
                    .is_none_or(|manifest| manifest.base.epoch >= epoch)
                {
                    return Ok(None);
                }
                let name = base_file_name(epoch);
                if !log.reserve(&name) {
                    return Ok(None);
                }
                (log.dir().to_path_buf(), name)
            };
            (self.snapshot_locked(&history), dir, name)
        };
        let epoch = snapshot.epoch;
        let buffer = std::mem::take(&mut *self.fold_buffer.lock().expect("buffer lock poisoned"));
        let sealed = self.encode(&snapshot, buffer);
        drop(snapshot);
        let written = write_sealed(&dir.join(&name), &sealed.bytes, faults);
        let base = SegmentMeta::sealed(epoch, name, &sealed);
        *self.fold_buffer.lock().expect("buffer lock poisoned") = sealed.bytes;

        let mut log_guard = self.log.lock().expect("log lock poisoned");
        let Some(log) = log_guard.as_mut().filter(|log| log.dir() == dir) else {
            // A save moved the store to another log mid-fold.
            return written.map(|()| None);
        };
        log.release();
        written?;
        let Some(current) = log
            .manifest()
            .filter(|current| current.base.epoch < epoch)
            .cloned()
        else {
            return Ok(None);
        };
        let (folded, carried): (Vec<SegmentMeta>, Vec<SegmentMeta>) = current
            .segments
            .into_iter()
            .partition(|meta| meta.epoch <= epoch);
        let base_bytes = base.bytes;
        log.publish(
            Manifest {
                base,
                segments: carried,
            },
            faults,
        )?;
        published(folded.len());
        drop(log_guard);
        // What the fold superseded can go without the lock: epochs only
        // grow, so no later save or fold writes these names again. Any
        // other orphan waits for the next save's prune.
        for meta in std::iter::once(&current.base).chain(&folded) {
            let _ = std::fs::remove_file(dir.join(&meta.file));
        }
        Ok(Some(CompactReport {
            seconds: start.elapsed().as_secs_f64(),
            epoch,
            folded: folded.len(),
            base_bytes,
        }))
    }

    /// The attached log's published shape, or `None` when no log is
    /// attached (or no manifest has been published yet). Read from the
    /// log's in-memory manifest: no disk access.
    pub fn log_status(&self) -> Option<LogStatus> {
        let guard = self.log.lock().expect("log lock poisoned");
        let manifest = guard.as_ref()?.manifest()?;
        Some(LogStatus {
            segments: manifest.segments.len(),
            segment_bytes: manifest.segment_bytes(),
            base_bytes: manifest.base.bytes,
            covered: manifest.covered(),
        })
    }

    /// Reopen a store from bytes with default cache geometry.
    pub fn from_bytes(bytes: &[u8]) -> Result<Store, StoreError> {
        Self::from_bytes_with_cache(bytes, DEFAULT_CACHE_SHARDS, DEFAULT_CACHE_CAPACITY)
    }

    /// Reopen a store from bytes: regenerate the (cheap, deterministic)
    /// Internet from the stored scale, assemble the world from the
    /// stored datasets, seed every classification product from the
    /// store, and resume serving at the stored epoch — **zero targets
    /// re-classified, zero traces re-encoded**.
    pub fn from_bytes_with_cache(
        bytes: &[u8],
        shards: usize,
        capacity: usize,
    ) -> Result<Store, StoreError> {
        Self::from_campaign(decode_campaign(bytes)?, shards, capacity)
    }

    /// Assemble a serving store from a decoded campaign.
    fn from_campaign(
        campaign: StoredCampaign,
        shards: usize,
        capacity: usize,
    ) -> Result<Store, StoreError> {
        let StoredCampaign {
            scale,
            epoch,
            ripe,
            itdk,
            mut scans,
            lfp_maps,
            corpus,
            mut deltas,
            delta_bodies,
        } = campaign;
        let internet = Internet::generate(scale);
        let itdk_scan = scans.pop().expect("decode guarantees snapshots + ITDK");
        let world = World::assemble(scale, internet, ripe, itdk, scans, itdk_scan);
        let base_slots = world.ripe_scans.len() + 1;
        let mut lfp_maps = lfp_maps.into_iter();
        for slot in 0..base_slots {
            let map = lfp_maps.next().expect("decode validated map count");
            world.seed_lfp_vendor_map(slot, Arc::new(map));
        }
        let corpus = Arc::new(PathCorpus::from_parts(corpus).map_err(StoreError::Corrupt)?);
        if corpus.sources().len() != base_slots + deltas.len() {
            return Err(StoreError::Corrupt(format!(
                "corpus holds {} sources, campaign implies {}",
                corpus.sources().len(),
                base_slots + deltas.len()
            )));
        }
        world.seed_path_corpus(Arc::clone(&corpus), 0.0);
        let world = Arc::new(world);

        let epochs: Vec<Arc<IngestedEpoch>> = delta_bodies
            .into_iter()
            .zip(lfp_maps)
            .map(|(body, lfp)| Arc::new(IngestedEpoch { body, lfp }))
            .collect();
        let engine = match (deltas.pop(), epochs.last()) {
            (Some(delta), Some(last)) => QueryEngine::for_epoch(
                Arc::clone(&world),
                corpus,
                &delta.targets,
                &last.lfp,
                &snmp_map(&delta),
                Arc::new(lfp_query::ShardedLru::new(shards, capacity)),
                epoch,
            ),
            _ => QueryEngine::with_cache(Arc::clone(&world), shards, capacity),
        };
        Ok(Store {
            world,
            engine: RwLock::new(Arc::new(engine)),
            history: Mutex::new(History {
                epochs,
                spare: None,
            }),
            log: Mutex::new(None),
            recent: Mutex::default(),
            fold_buffer: Mutex::default(),
        })
    }

    /// Reopen a store file with default cache geometry.
    pub fn load(path: &Path) -> Result<(Store, LoadReport), StoreError> {
        Self::load_with_cache(path, DEFAULT_CACHE_SHARDS, DEFAULT_CACHE_CAPACITY)
    }

    /// Reopen a store file with explicit cache geometry, reporting the
    /// cold-start cost. When `path` is a directory it is opened as a
    /// segmented epoch log: the sealed base is decoded, then every
    /// manifest-listed segment replays through [`Store::ingest`] — the
    /// same deterministic classify-and-fold a follower applies, so the
    /// result is byte-identical to loading a monolithic save of the
    /// same epochs.
    pub fn load_with_cache(
        path: &Path,
        shards: usize,
        capacity: usize,
    ) -> Result<(Store, LoadReport), StoreError> {
        if path.is_dir() {
            return Self::load_segmented_with_cache(path, shards, capacity);
        }
        let start = Instant::now();
        let bytes = std::fs::read(path)?;
        let store = Self::from_bytes_with_cache(&bytes, shards, capacity)?;
        let report = LoadReport {
            seconds: start.elapsed().as_secs_f64(),
            bytes: bytes.len() as u64,
            epoch: store.epoch(),
        };
        Ok((store, report))
    }

    /// Reopen a segmented log directory: verified base, verified
    /// segments, ingest replay, log attachment. Each file is checked
    /// against both its manifest checksum and its section checksums in
    /// one pass.
    fn load_segmented_with_cache(
        dir: &Path,
        shards: usize,
        capacity: usize,
    ) -> Result<(Store, LoadReport), StoreError> {
        let start = Instant::now();
        let log = EpochLog::open(dir)?;
        let Some(manifest) = log.manifest().cloned() else {
            return Err(StoreError::Log(format!(
                "no manifest published in {}",
                dir.display()
            )));
        };
        let store = {
            let bytes = log.read_listed(&manifest.base)?;
            let file = EpochLog::verify(&manifest.base, &bytes, MAGIC)?;
            Self::from_campaign(decode_parsed_campaign(&file)?, shards, capacity)?
        };
        if store.epoch() != manifest.base.epoch {
            return Err(StoreError::Log(format!(
                "base {} resumed at epoch {} but the manifest seals it at {}",
                manifest.base.file,
                store.epoch(),
                manifest.base.epoch
            )));
        }
        let mut total = manifest.base.bytes;
        for meta in &manifest.segments {
            let delta = SnapshotDelta::from_bytes(&log.read_segment(meta)?)?;
            total += meta.bytes;
            let report = store.ingest(delta)?;
            if report.epoch != meta.epoch {
                return Err(StoreError::Log(format!(
                    "segment {} replayed to epoch {} instead of {}",
                    meta.file, report.epoch, meta.epoch
                )));
            }
        }
        let report = LoadReport {
            seconds: start.elapsed().as_secs_f64(),
            bytes: total,
            epoch: store.epoch(),
        };
        *store.log.lock().expect("log lock poisoned") = Some(log);
        Ok((store, report))
    }
}

/// The next epoch's corpus: `spare` caught up to `live` and extended in
/// place when nothing else holds it (O(delta)), else a copy of `live`,
/// extended. The flag says which.
fn next_corpus(
    spare: Option<Arc<PathCorpus>>,
    live: &PathCorpus,
    sources: &[EncodedSource],
) -> Result<(Arc<PathCorpus>, bool), StoreError> {
    if let Some(mut spare) = spare {
        if let Some(corpus) = Arc::get_mut(&mut spare) {
            if corpus.catch_up(live).is_ok() {
                corpus.append_encoded(sources).map_err(StoreError::Ingest)?;
                return Ok((spare, true));
            }
        }
    }
    let mut copy = live.clone();
    copy.append_encoded(sources).map_err(StoreError::Ingest)?;
    Ok((Arc::new(copy), false))
}

/// Classify one snapshot population against the frozen signature set,
/// fanned out through the zmap-style scanner (pure per-target work, so
/// any shard count yields identical results).
fn classify_population(
    set: &SignatureSet,
    targets: &[Ipv4Addr],
    vectors: &[FeatureVector],
) -> HashMap<Ipv4Addr, Vendor> {
    let items: Vec<(Ipv4Addr, &FeatureVector)> =
        targets.iter().copied().zip(vectors.iter()).collect();
    let config = ScanConfig {
        shards: ScanConfig::default().shards,
        pacing: 0.0,
    };
    let verdicts = scan(
        &items,
        config,
        |(ip, _)| splitmix64(u64::from(u32::from(*ip))),
        |(_, vector), _ctx| set.classify(vector).unique_vendor(),
    );
    items
        .into_iter()
        .zip(verdicts)
        .filter_map(|((ip, _), verdict)| verdict.map(|vendor| (ip, vendor)))
        .collect()
}

/// ip → vendor for a delta's SNMPv3 labels.
fn snmp_map(delta: &SnapshotDelta) -> HashMap<Ipv4Addr, Vendor> {
    delta
        .targets
        .iter()
        .zip(&delta.labels)
        .filter_map(|(&ip, &label)| label.map(|vendor| (ip, vendor)))
        .collect()
}
