//! # lfp-store — persistent world store + epoch-based ingestion
//!
//! `vendor-queryd` used to rebuild its entire `World` + `PathCorpus`
//! from scratch on every start, which made restarts cost a full
//! measurement campaign and made new snapshots impossible to absorb
//! without one. This crate closes both gaps:
//!
//! * [`format`] — the on-disk container: a versioned, checksummed
//!   sequence of length-prefixed sections; decoding is fully defensive
//!   (typed [`StoreError`]s, never a panic, never an unbounded
//!   allocation),
//! * [`codec`] — the domain encoding: snapshots, raw scan observations,
//!   feature vectors, labels, per-dataset vendor maps (the products of
//!   classification), and the dumped path corpus columns + arenas,
//! * [`Store`] — the live serving store: load/save (`zero
//!   re-classification` on load — only the deterministic Internet
//!   generation re-runs), and [`Store::ingest`] — epoch-based
//!   incremental ingestion that classifies *only* the new snapshot,
//!   folds it into the corpus in O(delta), and atomically swaps a new
//!   epoch-tagged [`QueryEngine`](lfp_query::QueryEngine) under the
//!   running daemon,
//! * [`repl`] — primary/follower replication: a primary ships its
//!   snapshot, then each epoch as one `repl_segment` reply — its sealed
//!   segment file as stored plus an apply section ([`EpochApply`]: the
//!   vendor map and corpus rows the primary computed) — over the
//!   ordinary serving port. Followers commit it with
//!   [`Store::apply_segment`], the commit [`Store::ingest`] makes,
//!   without classifying or encoding anything again, seal the same
//!   segment bytes, and answer with byte-identical replies at equal
//!   epochs, while `min_epoch` fencing turns the epoch echo into a
//!   contract,
//! * [`segment`] — the **segmented epoch log**: one sealed, checksummed
//!   file per ingested epoch plus a manifest whose rename is the single
//!   atomic publish point; [`Store::save_segmented`] makes per-epoch
//!   persistence O(delta) instead of O(world), and
//!   [`Store::load`](Store::load) replays base + segments through the
//!   ingest path for byte-identical resumption,
//! * [`compact`] — the background [`Compactor`]: folds segments into a
//!   fresh sealed base when the [`CompactionPolicy`] (segment count or
//!   segment-bytes/base-bytes ratio) says so, off the serving threads.
//!
//! ```no_run
//! use lfp_analysis::World;
//! use lfp_store::Store;
//! use lfp_topo::Scale;
//! use std::path::Path;
//! use std::sync::Arc;
//!
//! let store = Store::from_world(Arc::new(World::build(Scale::tiny())));
//! store.save(Path::new("world.lfps"))?;
//! let (reopened, report) = Store::load(Path::new("world.lfps"))?;
//! println!("cold start in {:.3}s at epoch {}", report.seconds, report.epoch);
//! # Ok::<(), lfp_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod compact;
mod epoch;
pub mod error;
pub mod format;
pub mod repl;
pub mod segment;

pub use codec::{EpochApply, SnapshotDelta, StoredCampaign};
pub use compact::{compact_if_due, CompactionPolicy, Compactor, CompactorStats};
pub use epoch::{
    CompactReport, IngestReport, LoadReport, LogStatus, SaveReport, SegmentedSaveReport, Store,
};
pub use error::StoreError;
pub use repl::{
    follow_once, follow_once_persistent, ingest_path, PrimaryStatus, ReplClient, ReplSource,
    ShippedSegment, DELTA_CACHE_CAP, REPL_CHUNK,
};
pub use segment::{
    DurableLog, EpochLog, LogFaults, Manifest, SegmentMeta, MANIFEST_FILE, SAVE_CHUNK,
};
