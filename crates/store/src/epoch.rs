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
//! 2. folds the new traces into an *extended copy* of the serving
//!    corpus ([`PathCorpus::extended_with`]) — existing rows, interned
//!    sequences and indexes are reused, never recomputed,
//! 3. builds a new engine at `epoch + k` sharing the result cache, and
//! 4. atomically swaps it in. In-flight requests finish against the old
//!    engine's `Arc`; the epoch-tagged cache keys guarantee no answer
//!    rendered at an old epoch is ever served at a new one.
//!
//! The signature set is frozen at the base build: epochs extend the
//! *path corpus* and move the vendor-mix aggregates to the newest
//! snapshot, exactly like a production classifier serving between
//! retrainings. Because the epoch id counts ingested snapshots (not
//! ingest calls), folding k snapshots one at a time and folding them in
//! one call land on identical state — a regression test holds the two
//! paths byte-identical across the full query catalog.

use crate::codec::{decode_campaign, encode_campaign, CampaignRefs, SnapshotDelta, StoredCampaign};
use crate::error::StoreError;
use crate::segment::{
    base_file_name, decode_segment, encode_segment, segment_file_name, write_sealed, DurableLog,
    EpochLog, LogFaults, Manifest, SegmentMeta,
};
use lfp_analysis::path_corpus::NewPathSource;
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

/// One ingested epoch, retained so the store can be re-persisted.
struct IngestedEpoch {
    delta: SnapshotDelta,
    lfp: Arc<HashMap<Ipv4Addr, Vendor>>,
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
    epochs: Mutex<Vec<IngestedEpoch>>,
    /// The segmented log this store persists into, once one is attached
    /// by [`Store::save_segmented`] or a segmented load. Lock order:
    /// `epochs` before `log`, always.
    log: Mutex<Option<EpochLog>>,
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
            epochs: Mutex::new(Vec::new()),
            log: Mutex::new(None),
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
        // The epochs lock serialises ingests; readers keep serving.
        let mut epochs = self.epochs.lock().expect("epoch lock poisoned");
        let engine = self.engine();

        for delta in &deltas {
            delta.validate()?;
        }
        let prepared: Vec<IngestedEpoch> = deltas
            .into_iter()
            .map(|delta| {
                let lfp = classify_population(&self.world.set, &delta.targets, &delta.vectors);
                IngestedEpoch {
                    delta,
                    lfp: Arc::new(lfp),
                }
            })
            .collect();

        let snmp_maps: Vec<HashMap<Ipv4Addr, Vendor>> = prepared
            .iter()
            .map(|epoch| snmp_map(&epoch.delta))
            .collect();
        let additions: Vec<NewPathSource<'_>> = prepared
            .iter()
            .zip(&snmp_maps)
            .map(|(epoch, snmp)| NewPathSource {
                name: epoch.delta.name.clone(),
                traces: &epoch.delta.traces,
                lfp: &epoch.lfp,
                snmp,
                is_ripe_snapshot: true,
            })
            .collect();
        let base = engine.corpus_arc();
        let extended = base
            .extended_with(
                &self.world.internet,
                &additions,
                ScanConfig::default().shards,
            )
            .map_err(StoreError::Ingest)?;
        let new_paths = extended.len() - base.len();

        let epoch = engine.epoch() + prepared.len() as u64;
        let last = prepared.last().expect("at least one delta");
        let next = QueryEngine::for_epoch(
            Arc::clone(&self.world),
            Arc::new(extended),
            &last.delta.targets,
            &last.lfp,
            snmp_maps.last().expect("at least one delta"),
            engine.cache_handle(),
            epoch,
        );
        let sources = prepared
            .iter()
            .map(|epoch| epoch.delta.name.clone())
            .collect();
        *self.engine.write().expect("engine lock poisoned") = Arc::new(next);
        epochs.extend(prepared);
        Ok(IngestReport {
            epoch,
            new_paths,
            sources,
            seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// Serialize the current state (base campaign + every ingested
    /// epoch) to store-file bytes. Everything borrows from the live
    /// state — no deep copies of snapshots, observations or deltas;
    /// only the corpus columns are dumped into an owned `CorpusParts`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let epochs = self.epochs.lock().expect("epoch lock poisoned");
        self.encode_locked(&epochs)
    }

    /// [`to_bytes`](Store::to_bytes) plus the epoch those bytes
    /// describe, read under the same lock — the pair a replication
    /// primary hands out, guaranteed internally consistent even if an
    /// ingest lands the instant the lock drops.
    pub fn snapshot_segment(&self) -> (u64, Vec<u8>) {
        let epochs = self.epochs.lock().expect("epoch lock poisoned");
        (self.engine().epoch(), self.encode_locked(&epochs))
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
        if let Some(bytes) = self.delta_from_log(epoch) {
            return Some(bytes);
        }
        let epochs = self.epochs.lock().expect("epoch lock poisoned");
        epochs.get(index).map(|entry| entry.delta.to_bytes())
    }

    /// Read epoch `epoch`'s delta bytes out of the attached log's
    /// sealed segment file, if there is one and it verifies.
    fn delta_from_log(&self, epoch: u64) -> Option<Vec<u8>> {
        let guard = self.log.try_lock().ok()?;
        let log = guard.as_ref()?;
        let manifest = log.read_manifest().ok()?;
        let meta = manifest.segments.iter().find(|meta| meta.epoch == epoch)?;
        let sealed = log.read_verified(meta).ok()?;
        let (sealed_epoch, delta) = decode_segment(&sealed).ok()?;
        (sealed_epoch == epoch).then_some(delta)
    }

    fn encode_locked(&self, epochs: &[IngestedEpoch]) -> Vec<u8> {
        // The caller holds the epochs lock, so the engine cannot be
        // swapped out from under the encode: `ingest_many` publishes a
        // new engine only while holding that same lock.
        let engine = self.engine();
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
            .chain(epochs.iter().map(|epoch| epoch.lfp.as_ref()))
            .collect();
        let corpus = engine.corpus().to_parts();
        let campaign = CampaignRefs {
            scale: world.scale,
            epoch: engine.epoch(),
            ripe: &world.ripe,
            itdk: &world.itdk,
            scans: world.all_scans().collect(),
            lfp_maps,
            corpus: &corpus,
            deltas: epochs.iter().map(|epoch| &epoch.delta).collect(),
        };
        encode_campaign(&campaign)
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
        // then log). Queries never touch either lock.
        let epochs = self.epochs.lock().expect("epoch lock poisoned");
        let mut log_guard = self.log.lock().expect("log lock poisoned");
        if log_guard.as_ref().is_none_or(|log| log.dir() != dir) {
            *log_guard = Some(EpochLog::create(dir)?);
        }
        let log = log_guard.as_ref().expect("log just attached");
        let epoch = self.engine().epoch();

        // A published manifest is reusable when it describes a prefix
        // of our history and its base file is still present — then
        // this save only seals the segments it is missing.
        let existing = log
            .has_manifest()
            .then(|| log.read_manifest().ok())
            .flatten();
        let usable = existing.filter(|manifest| {
            manifest.base.epoch <= epoch
                && manifest.covered() <= epoch
                && log.dir().join(&manifest.base.file).is_file()
        });

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
                    let index = usize::try_from(target - 1).expect("epoch fits usize");
                    let entry = epochs.get(index).ok_or_else(|| {
                        StoreError::Log(format!("epoch {target} is not in this store's history"))
                    })?;
                    let sealed = encode_segment(target, &entry.delta.to_bytes());
                    let name = segment_file_name(target);
                    log.write_sealed(&name, &sealed, faults)?;
                    manifest
                        .segments
                        .push(SegmentMeta::describing(target, name, &sealed));
                    report.segments_written += 1;
                    report.segment_bytes += sealed.len() as u64;
                }
                manifest
            }
            None => {
                let bytes = self.encode_locked(&epochs);
                let name = base_file_name(epoch);
                log.write_sealed(&name, &bytes, faults)?;
                report.base_rewritten = true;
                report.base_bytes = bytes.len() as u64;
                Manifest {
                    base: SegmentMeta::describing(epoch, name, &bytes),
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
        log.publish(&manifest, faults)?;
        log.prune(&manifest);
        report.seconds = start.elapsed().as_secs_f64();
        Ok(report)
    }

    /// Fold the attached log into a single freshly-sealed base at the
    /// current epoch, then publish a segment-free manifest and sweep
    /// the folded files. Returns `Ok(None)` when there is nothing to
    /// fold (no log attached, no manifest published, or the base is
    /// already at the live epoch with no trailing segments).
    ///
    /// Concurrency contract: the fold is encoded under the ingest lock
    /// (the same hold a monolithic [`Store::to_bytes`] takes), but the
    /// disk writes and the manifest swap happen **after** that lock is
    /// released — ingest, queries and replication all proceed while
    /// the new base is being sealed. A save that lands segments in
    /// that window is preserved: its segments past the fold point are
    /// carried into the new manifest.
    pub fn compact_log(&self) -> Result<Option<CompactReport>, StoreError> {
        self.compact_log_with(&mut DurableLog)
    }

    /// [`compact_log`](Store::compact_log) through an explicit
    /// [`LogFaults`] shim for the crash matrices.
    pub fn compact_log_with(
        &self,
        faults: &mut dyn LogFaults,
    ) -> Result<Option<CompactReport>, StoreError> {
        let start = Instant::now();
        let (epoch, bytes) = {
            let epochs = self.epochs.lock().expect("epoch lock poisoned");
            {
                let log_guard = self.log.lock().expect("log lock poisoned");
                let Some(log) = log_guard.as_ref() else {
                    return Ok(None);
                };
                let Ok(manifest) = log.read_manifest() else {
                    return Ok(None);
                };
                if manifest.segments.is_empty() && manifest.base.epoch == self.engine().epoch() {
                    return Ok(None);
                }
            }
            (self.engine().epoch(), self.encode_locked(&epochs))
        };
        let log_guard = self.log.lock().expect("log lock poisoned");
        let Some(log) = log_guard.as_ref() else {
            return Ok(None);
        };
        let current = log.read_manifest()?;
        if current.base.epoch >= epoch {
            // A concurrent fold got further than our encode; keep it.
            return Ok(None);
        }
        let name = base_file_name(epoch);
        log.write_sealed(&name, &bytes, faults)?;
        let folded = current
            .segments
            .iter()
            .filter(|meta| meta.epoch <= epoch)
            .count();
        let carried: Vec<SegmentMeta> = current
            .segments
            .iter()
            .filter(|meta| meta.epoch > epoch)
            .cloned()
            .collect();
        let manifest = Manifest {
            base: SegmentMeta::describing(epoch, name, &bytes),
            segments: carried,
        };
        log.publish(&manifest, faults)?;
        log.prune(&manifest);
        Ok(Some(CompactReport {
            seconds: start.elapsed().as_secs_f64(),
            epoch,
            folded,
            base_bytes: bytes.len() as u64,
        }))
    }

    /// The attached log's published shape, or `None` when no log is
    /// attached (or no manifest has been published yet).
    pub fn log_status(&self) -> Option<LogStatus> {
        let guard = self.log.lock().expect("log lock poisoned");
        let log = guard.as_ref()?;
        let manifest = log.read_manifest().ok()?;
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
        let campaign = decode_campaign(bytes)?;
        let StoredCampaign {
            scale,
            epoch,
            ripe,
            itdk,
            mut scans,
            lfp_maps,
            corpus,
            deltas,
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
        let corpus = Arc::new(
            lfp_analysis::path_corpus::PathCorpus::from_parts(corpus)
                .map_err(StoreError::Corrupt)?,
        );
        if corpus.sources().len() != base_slots + deltas.len() {
            return Err(StoreError::Corrupt(format!(
                "corpus holds {} sources, campaign implies {}",
                corpus.sources().len(),
                base_slots + deltas.len()
            )));
        }
        world.seed_path_corpus(Arc::clone(&corpus), 0.0);
        let world = Arc::new(world);

        let epochs: Vec<IngestedEpoch> = deltas
            .into_iter()
            .zip(lfp_maps)
            .map(|(delta, lfp)| IngestedEpoch {
                delta,
                lfp: Arc::new(lfp),
            })
            .collect();
        let engine = match epochs.last() {
            None => QueryEngine::with_cache(Arc::clone(&world), shards, capacity),
            Some(last) => {
                let snmp = snmp_map(&last.delta);
                QueryEngine::for_epoch(
                    Arc::clone(&world),
                    corpus,
                    &last.delta.targets,
                    &last.lfp,
                    &snmp,
                    Arc::new(lfp_query::ShardedLru::new(shards, capacity)),
                    epoch,
                )
            }
        };
        Ok(Store {
            world,
            engine: RwLock::new(Arc::new(engine)),
            epochs: Mutex::new(epochs),
            log: Mutex::new(None),
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
    /// segments, ingest replay, log attachment.
    fn load_segmented_with_cache(
        dir: &Path,
        shards: usize,
        capacity: usize,
    ) -> Result<(Store, LoadReport), StoreError> {
        let start = Instant::now();
        let log = EpochLog::open(dir)?;
        if !log.has_manifest() {
            return Err(StoreError::Log(format!(
                "no manifest published in {}",
                dir.display()
            )));
        }
        let manifest = log.read_manifest()?;
        let base_bytes = log.read_verified(&manifest.base)?;
        let store = Self::from_bytes_with_cache(&base_bytes, shards, capacity)?;
        if store.epoch() != manifest.base.epoch {
            return Err(StoreError::Log(format!(
                "base {} resumed at epoch {} but the manifest seals it at {}",
                manifest.base.file,
                store.epoch(),
                manifest.base.epoch
            )));
        }
        let mut total = base_bytes.len() as u64;
        for meta in &manifest.segments {
            let sealed = log.read_verified(meta)?;
            total += sealed.len() as u64;
            let (epoch, delta) = decode_segment(&sealed)?;
            if epoch != meta.epoch {
                return Err(StoreError::Log(format!(
                    "{} seals epoch {epoch} but the manifest lists it as {}",
                    meta.file, meta.epoch
                )));
            }
            let delta = SnapshotDelta::from_bytes(&delta)?;
            let report = store.ingest(delta)?;
            if report.epoch != epoch {
                return Err(StoreError::Log(format!(
                    "segment {} replayed to epoch {} instead of {epoch}",
                    meta.file, report.epoch
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
