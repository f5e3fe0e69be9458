//! The scenario builder: one `World` = one fully measured Internet.
//!
//! Building a [`World`] performs the entire study once at a given scale:
//! generate the Internet, collect the five RIPE-style snapshots and the
//! ITDK-style dataset, scan all six target populations with the LFP
//! schedule, label via SNMPv3, and finalise the union signature set.
//! Every experiment then reads from this shared state, exactly as the
//! paper's analyses all consume the same measurement campaign.
//!
//! ## Parallelism and determinism
//!
//! Collection and scanning dominate the campaign wall-clock, and both
//! decompose into per-dataset units. Each unit runs against its own
//! [`lfp_net::Network::fork`] — a private copy of every device's mutable
//! state (IPID counters and RNG, 88 bytes a device; the fixed device
//! table is shared, not copied) — so no unit observes another's
//! IPID-counter history. That makes the units order-independent.
//! [`World::build`] runs them on the bounded [`lfp_net::fan_out`] queue: collection takes the ITDK sweep first as
//! the longest unit, then the snapshots, with at most one worker per core
//! and so at most `cores` forks alive. [`World::build_serial`] is the same
//! queue with one worker and single-shard scans, and both produce
//! bit-identical worlds (asserted by `tests/determinism.rs`, which also
//! pins a tiny world's digests).
//!
//! ## Memory
//!
//! At paper scale a built world holds about 206 MiB of live heap.
//!
//! - Routing state: the topology memoises one route table per
//!   destination AS, at 3 bytes per AS (34 MiB for the 2,283 tables a
//!   build leaves). The §6.3 avoidance study's tables, with one AS
//!   excluded, are computed per call and dropped.
//! - Forks: one costs 6.4 MiB (76,526 devices × 88 bytes of mutable
//!   state); at most `cores` collection forks and one scan fork per
//!   dataset are alive at once.
//!
//! The route memo grows with destinations × ASes: doubling the AS count
//! takes the build's peak RSS 2.2×.
//!
//! ## The campaign cache
//!
//! The ~30 experiment generators repeatedly need the same three derived
//! maps per dataset (full classification, unique-LFP vendors, SNMPv3
//! vendors). A [`World`] memoises them behind `OnceLock`s, so the first
//! experiment to ask pays the classification cost and the rest share the
//! result — which is what makes `run_all_parallel` scale.

use crate::path_corpus::PathCorpus;
use lfp_core::pipeline::{scan_dataset, DatasetScan};
use lfp_core::signature::{Classification, SignatureDb, SignatureSet};
use lfp_net::{cores, fan_out, Network};
use lfp_stack::vendor::Vendor;
use lfp_topo::datasets::{
    build_itdk_on, measure_ripe_snapshot, plan_ripe_snapshots, ItdkDataset, RipeSnapshot,
};
use lfp_topo::{Internet, Scale};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Wall-clock seconds spent in each phase of one campaign build.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignTimings {
    /// Internet generation (topology, vendors, devices).
    pub generate: f64,
    /// Dataset collection: RIPE-style traceroute snapshots + ITDK sweep.
    pub collect: f64,
    /// LFP scans of all six target populations.
    pub scan: f64,
    /// Union signature database merge + finalisation.
    pub finalize: f64,
    /// Warming the campaign cache: classification of every dataset.
    pub classify: f64,
    /// Building the path corpus (classify + intern + index every trace).
    pub path_corpus: f64,
}

impl CampaignTimings {
    /// Total build time across phases.
    pub fn total(&self) -> f64 {
        self.generate + self.collect + self.scan + self.finalize + self.classify + self.path_corpus
    }
}

/// One collection unit's dataset.
enum Collected {
    Itdk(ItdkDataset),
    Snapshot(RipeSnapshot),
}

/// Per-dataset memoised derived maps (see the module docs).
#[derive(Debug, Default)]
struct ScanCache {
    classification: OnceLock<Arc<HashMap<Ipv4Addr, Classification>>>,
    lfp_vendors: OnceLock<Arc<HashMap<Ipv4Addr, Vendor>>>,
    snmp_vendors: OnceLock<Arc<HashMap<Ipv4Addr, Vendor>>>,
}

/// A fully measured synthetic Internet.
pub struct World {
    /// Sizing used.
    pub scale: Scale,
    /// The Internet (ground truth + live network).
    pub internet: Internet,
    /// RIPE-style snapshots (RIPE-1 … RIPE-n).
    pub ripe: Vec<RipeSnapshot>,
    /// The ITDK-style dataset.
    pub itdk: ItdkDataset,
    /// LFP scans of each RIPE snapshot, index-aligned with `ripe`.
    pub ripe_scans: Vec<DatasetScan>,
    /// LFP scan of the ITDK target set.
    pub itdk_scan: DatasetScan,
    /// Union signature database over all labelled data.
    pub union_db: SignatureDb,
    /// Finalised signature set at the scale's occurrence threshold.
    pub set: SignatureSet,
    /// Memoised per-dataset classification maps, index-aligned with
    /// `ripe_scans` plus one trailing slot for `itdk_scan`.
    cache: Vec<ScanCache>,
    /// Memoised path corpus and its build wall-clock. Behind an `Arc` so
    /// serving layers can hold (and epoch-extend) the corpus without
    /// borrowing the world.
    path_corpus: OnceLock<(Arc<PathCorpus>, f64)>,
}

impl World {
    /// Run the full campaign at the given scale, fanning dataset
    /// collection and scanning out across all available cores. Derived
    /// classification maps stay lazy (first use computes, the cache
    /// shares); use [`World::build_instrumented`] to pre-warm them.
    pub fn build(scale: Scale) -> World {
        Self::build_with(scale, true, false).0
    }

    /// Run the full campaign strictly sequentially with single-shard
    /// scans — the reference path parallel builds are verified against,
    /// and the baseline the bench harness compares to.
    pub fn build_serial(scale: Scale) -> World {
        Self::build_with(scale, false, false).0
    }

    /// Build with per-phase wall-clock timings (the bench harness's
    /// entry point). `parallel` runs the units on every core, otherwise
    /// on one worker with single-shard scans; `warm` additionally
    /// classifies every dataset up front (the `classify` phase) — worth
    /// it before a full registry run, wasted before a single experiment.
    pub fn build_instrumented(
        scale: Scale,
        parallel: bool,
        warm: bool,
    ) -> (World, CampaignTimings) {
        Self::build_with(scale, parallel, warm)
    }

    fn build_with(scale: Scale, parallel: bool, warm: bool) -> (World, CampaignTimings) {
        let workers = if parallel { cores() } else { 1 };
        let mut timings = CampaignTimings::default();

        let phase_start = Instant::now();
        let internet = Internet::generate(scale);
        timings.generate = phase_start.elapsed().as_secs_f64();

        // Collection: the ITDK sweep (the longest unit) is queued first,
        // then every snapshot. Each unit forks the network when it starts,
        // so at most `workers` forks are alive.
        let phase_start = Instant::now();
        let plans = plan_ripe_snapshots(&internet);
        let mut itdk = None;
        let mut ripe = Vec::with_capacity(plans.len());
        for unit in fan_out(workers, plans.len() + 1, |index| {
            let fork = internet.network().fork();
            match index.checked_sub(1) {
                None => Collected::Itdk(build_itdk_on(&internet, &fork)),
                Some(plan) => {
                    Collected::Snapshot(measure_ripe_snapshot(&internet, &fork, &plans[plan]))
                }
            }
        }) {
            match unit {
                Collected::Itdk(dataset) => itdk = Some(dataset),
                Collected::Snapshot(snapshot) => ripe.push(snapshot),
            }
        }
        let itdk = itdk.expect("the ITDK sweep is queued");
        timings.collect = phase_start.elapsed().as_secs_f64();

        // Scanning: one forked network per dataset, all datasets at once;
        // each scan is further sharded internally by the zmap-style
        // scanner. In parallel mode the shard budget is split across the
        // concurrent scans (with 2× headroom so the phase tail, when only
        // the largest dataset is left, still spreads over the cores)
        // instead of spawning datasets × cores threads. The forks are
        // made here, on the calling thread: the memory they free is then
        // reused by this thread's next allocations (the corpus build)
        // instead of idling in worker threads' allocator arenas. With
        // forks that copy only device state, making them on the workers
        // still measured +22 MiB of `campaign-paper` peak RSS (median of
        // 6 pairs, 288 → 310 MiB; worse in 6 of 6).
        let dataset_count = ripe.len() + 1;
        let (scan_workers, shards) = if parallel {
            (dataset_count, (workers * 2).div_ceil(dataset_count).max(1))
        } else {
            (1, 1)
        };
        let phase_start = Instant::now();
        let scan_jobs: Vec<(&str, Vec<Ipv4Addr>)> = ripe
            .iter()
            .map(|snapshot| {
                (
                    snapshot.name.as_str(),
                    snapshot.router_ips.iter().copied().collect(),
                )
            })
            .chain([(
                itdk.name.as_str(),
                itdk.router_ips.iter().copied().collect(),
            )])
            .collect();
        let forks: Vec<Network> = scan_jobs
            .iter()
            .map(|_| internet.network().fork())
            .collect();
        let mut scans = fan_out(scan_workers, scan_jobs.len(), |index| {
            let (name, targets) = &scan_jobs[index];
            scan_dataset(&forks[index], name, targets, shards)
        });
        drop(forks);
        let itdk_scan = scans.pop().expect("ITDK scan present");
        let ripe_scans = scans;
        timings.scan = phase_start.elapsed().as_secs_f64();

        // Finalisation: union the labelled databases, build the classifier.
        let phase_start = Instant::now();
        let world = World::assemble(scale, internet, ripe, itdk, ripe_scans, itdk_scan);
        timings.finalize = phase_start.elapsed().as_secs_f64();

        // Classification: optionally warm the campaign cache for every
        // dataset so experiments start from shared, fully-classified
        // state, then build the path corpus on top of it. The serial
        // reference path builds single-shard, so the `path_corpus` phase
        // participates in the serial-vs-parallel speedup comparison.
        if warm {
            let phase_start = Instant::now();
            world.warm_cache(workers);
            timings.classify = phase_start.elapsed().as_secs_f64();
            let shards = if parallel {
                lfp_net::ScanConfig::default().shards
            } else {
                std::num::NonZeroUsize::new(1).expect("1 is non-zero")
            };
            world.path_corpus_with_shards(shards);
            timings.path_corpus = world.path_corpus_seconds();
        }

        (world, timings)
    }

    /// Assemble a world from already-measured parts: union the labelled
    /// signature databases, finalise the classifier at the scale's
    /// threshold, and allocate fresh (empty) per-dataset cache slots.
    ///
    /// This is the tail of every build — and the constructor `lfp-store`
    /// uses when loading a persisted campaign: finalisation is a cheap,
    /// order-independent fold over the labelled rows, so a loaded world's
    /// classifier equals the originally-built one without re-classifying
    /// a single target.
    pub fn assemble(
        scale: Scale,
        internet: Internet,
        ripe: Vec<RipeSnapshot>,
        itdk: ItdkDataset,
        ripe_scans: Vec<DatasetScan>,
        itdk_scan: DatasetScan,
    ) -> World {
        let mut union_db = SignatureDb::new();
        for scan in &ripe_scans {
            union_db.merge(&scan.signature_db());
        }
        union_db.merge(&itdk_scan.signature_db());
        let set = union_db.finalize(scale.occurrence_threshold);
        let cache = (0..=ripe_scans.len())
            .map(|_| ScanCache::default())
            .collect();
        World {
            scale,
            internet,
            ripe,
            itdk,
            ripe_scans,
            itdk_scan,
            union_db,
            set,
            cache,
            path_corpus: OnceLock::new(),
        }
    }

    /// Seed the memoised unique-LFP vendor map of one dataset slot
    /// (`0..ripe_scans.len()` for the snapshots, `ripe_scans.len()` for
    /// ITDK) with an already-computed map — the store's way of restoring
    /// classification results without re-running the classifier. Returns
    /// `false` if the slot does not exist or was already populated.
    pub fn seed_lfp_vendor_map(&self, slot: usize, map: Arc<HashMap<Ipv4Addr, Vendor>>) -> bool {
        match self.cache.get(slot) {
            Some(entry) => entry.lfp_vendors.set(map).is_ok(),
            None => false,
        }
    }

    /// Seed the memoised path corpus with an already-built one (the
    /// store's way of restoring it without re-classifying any trace).
    /// Returns `false` if a corpus was already built or seeded.
    pub fn seed_path_corpus(&self, corpus: Arc<PathCorpus>, seconds: f64) -> bool {
        self.path_corpus.set((corpus, seconds)).is_ok()
    }

    /// Populate every per-dataset cache slot (idempotent).
    fn warm_cache(&self, workers: usize) {
        let scans: Vec<&DatasetScan> = self.all_scans().collect();
        fan_out(workers, scans.len(), |index| {
            let _ = self.classification_map(scans[index]);
            let _ = self.lfp_vendor_map(scans[index]);
            let _ = self.snmp_vendor_map(scans[index]);
        });
    }

    /// Every dataset scan, RIPE snapshots first, then ITDK.
    pub fn all_scans(&self) -> impl Iterator<Item = &DatasetScan> {
        self.ripe_scans.iter().chain([&self.itdk_scan])
    }

    /// The path corpus over every trace this world holds (all RIPE
    /// snapshots plus derived ITDK paths). Built once on first use with
    /// the default shard budget; everyone after shares the result — the
    /// path analogue of the classification cache.
    pub fn path_corpus(&self) -> &PathCorpus {
        self.path_corpus_with_shards(lfp_net::ScanConfig::default().shards)
    }

    /// The memoised path corpus, built with an explicit shard count if it
    /// does not exist yet (shard count never changes the result, only the
    /// build wall-clock — which `path_corpus_seconds` reports).
    pub fn path_corpus_with_shards(&self, shards: std::num::NonZeroUsize) -> &PathCorpus {
        let (corpus, _) = self.path_corpus.get_or_init(|| {
            let start = Instant::now();
            let corpus = PathCorpus::build_with_shards(self, shards);
            (Arc::new(corpus), start.elapsed().as_secs_f64())
        });
        corpus
    }

    /// A shared handle to the memoised corpus (built on first use) —
    /// what the serving layer holds so epoch swaps never borrow the
    /// world.
    pub fn path_corpus_arc(&self) -> Arc<PathCorpus> {
        let _ = self.path_corpus();
        let (corpus, _) = self.path_corpus.get().expect("corpus just built");
        Arc::clone(corpus)
    }

    /// Wall-clock seconds the corpus build took (0 when not yet built) —
    /// the `path_corpus` entry of [`CampaignTimings`].
    pub fn path_corpus_seconds(&self) -> f64 {
        self.path_corpus
            .get()
            .map(|(_, seconds)| *seconds)
            .unwrap_or(0.0)
    }

    /// The cache slot for one of this world's scans, if `scan` is one.
    ///
    /// RIPE slots are matched by identity *and* bounded to the slots
    /// allocated at build time: if a caller has appended to the public
    /// `ripe_scans` after the build, the extra scans classify uncached
    /// rather than aliasing the ITDK slot.
    fn cache_slot(&self, scan: &DatasetScan) -> Option<&ScanCache> {
        if std::ptr::eq(scan, &self.itdk_scan) {
            return self.cache.last();
        }
        self.ripe_scans
            .iter()
            .position(|candidate| std::ptr::eq(candidate, scan))
            .filter(|index| index + 1 < self.cache.len())
            .map(|index| &self.cache[index])
    }

    /// The most recent RIPE snapshot and its scan (the paper's RIPE-5,
    /// used for IP- and path-level analyses).
    pub fn latest_ripe(&self) -> (&RipeSnapshot, &DatasetScan) {
        (
            self.ripe.last().expect("at least one snapshot"),
            self.ripe_scans.last().expect("at least one scan"),
        )
    }

    /// Classify every target of a scan; returns ip → classification.
    ///
    /// Memoised per dataset: the first caller computes, everyone after
    /// shares the `Arc`. Scans not belonging to this world classify
    /// uncached.
    pub fn classification_map(&self, scan: &DatasetScan) -> Arc<HashMap<Ipv4Addr, Classification>> {
        let compute = || {
            Arc::new(
                scan.targets
                    .iter()
                    .zip(&scan.vectors)
                    .map(|(&ip, vector)| (ip, self.set.classify(vector)))
                    .collect::<HashMap<_, _>>(),
            )
        };
        match self.cache_slot(scan) {
            Some(slot) => Arc::clone(slot.classification.get_or_init(compute)),
            None => compute(),
        }
    }

    /// ip → vendor for unique (full or partial) LFP matches.
    ///
    /// Memoised per dataset; derived from the cached classification map,
    /// so the signature index is consulted once per dataset, not once per
    /// experiment.
    pub fn lfp_vendor_map(&self, scan: &DatasetScan) -> Arc<HashMap<Ipv4Addr, Vendor>> {
        let compute = || {
            let classifications = self.classification_map(scan);
            Arc::new(
                classifications
                    .iter()
                    .filter_map(|(&ip, classification)| {
                        classification.unique_vendor().map(|vendor| (ip, vendor))
                    })
                    .collect::<HashMap<_, _>>(),
            )
        };
        match self.cache_slot(scan) {
            Some(slot) => Arc::clone(slot.lfp_vendors.get_or_init(compute)),
            None => compute(),
        }
    }

    /// ip → vendor for SNMPv3 labels (the baseline technique). Memoised
    /// per dataset.
    pub fn snmp_vendor_map(&self, scan: &DatasetScan) -> Arc<HashMap<Ipv4Addr, Vendor>> {
        let compute = || {
            Arc::new(
                scan.targets
                    .iter()
                    .zip(&scan.labels)
                    .filter_map(|(&ip, label)| label.map(|vendor| (ip, vendor)))
                    .collect::<HashMap<_, _>>(),
            )
        };
        match self.cache_slot(scan) {
            Some(slot) => Arc::clone(slot.snmp_vendors.get_or_init(compute)),
            None => compute(),
        }
    }

    /// All labelled (vector, vendor) pairs across every dataset — the
    /// evaluation corpus for Table 8 and the ablations.
    pub fn labeled_corpus(&self) -> Vec<(lfp_core::FeatureVector, Vendor)> {
        let mut corpus = Vec::new();
        for scan in self.all_scans() {
            for (vector, label) in scan.vectors.iter().zip(&scan.labels) {
                if let Some(vendor) = label {
                    corpus.push((*vector, *vendor));
                }
            }
        }
        corpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_world_builds_and_is_coherent() {
        let world = World::build(Scale::tiny());
        assert_eq!(world.ripe.len(), world.ripe_scans.len());
        assert!(world.set.unique_count() > 0, "no unique signatures");
        let (_, scan) = world.latest_ripe();
        let lfp = world.lfp_vendor_map(scan);
        let snmp = world.snmp_vendor_map(scan);
        assert!(!lfp.is_empty());
        assert!(!snmp.is_empty());
        // LFP coverage exceeds SNMPv3-only coverage (the headline claim).
        assert!(
            lfp.len() > snmp.len() / 2,
            "LFP found {} vs SNMP {}",
            lfp.len(),
            snmp.len()
        );
        // Unique classifications are accurate against ground truth.
        let mut correct = 0usize;
        let mut wrong = 0usize;
        for (&ip, &vendor) in lfp.iter() {
            let truth = world.internet.truth_of(ip).unwrap().vendor;
            if truth == vendor {
                correct += 1;
            } else {
                wrong += 1;
            }
        }
        let accuracy = correct as f64 / (correct + wrong).max(1) as f64;
        assert!(accuracy > 0.9, "accuracy {accuracy}");
    }

    #[test]
    fn derived_maps_are_memoised_per_dataset() {
        let world = World::build(Scale::tiny());
        let (_, scan) = world.latest_ripe();
        let first = world.lfp_vendor_map(scan);
        let second = world.lfp_vendor_map(scan);
        assert!(Arc::ptr_eq(&first, &second), "same Arc on repeat calls");
        let classification_a = world.classification_map(scan);
        let classification_b = world.classification_map(scan);
        assert!(Arc::ptr_eq(&classification_a, &classification_b));
        let itdk_map = world.lfp_vendor_map(&world.itdk_scan);
        assert!(
            !Arc::ptr_eq(&first, &itdk_map),
            "distinct datasets get distinct cache slots"
        );
    }

    #[test]
    fn foreign_scans_classify_uncached() {
        let world = World::build(Scale::tiny());
        let internet = Internet::generate(Scale::tiny());
        let targets = internet.all_interfaces();
        let foreign = scan_dataset(internet.network(), "foreign", &targets, 2);
        let a = world.classification_map(&foreign);
        let b = world.classification_map(&foreign);
        assert_eq!(a.len(), b.len());
        assert!(!Arc::ptr_eq(&a, &b), "foreign scans must not be cached");
    }

    #[test]
    fn instrumented_build_reports_every_phase() {
        let (world, timings) = World::build_instrumented(Scale::tiny(), true, true);
        assert!(timings.generate > 0.0);
        assert!(timings.collect > 0.0);
        assert!(timings.scan > 0.0);
        assert!(timings.finalize >= 0.0);
        assert!(timings.classify >= 0.0);
        assert!(timings.path_corpus > 0.0, "warm builds report the corpus");
        assert!(timings.total() >= timings.scan);
        assert!(!world.ripe_scans.is_empty());
        assert!(world.path_corpus_seconds() > 0.0);
    }

    #[test]
    fn path_corpus_is_memoised() {
        let world = World::build(Scale::tiny());
        assert_eq!(world.path_corpus_seconds(), 0.0, "lazy until first use");
        let first = world.path_corpus() as *const _;
        let second = world.path_corpus() as *const _;
        assert_eq!(first, second, "same corpus on repeat calls");
        assert!(world.path_corpus_seconds() > 0.0);
    }
}
