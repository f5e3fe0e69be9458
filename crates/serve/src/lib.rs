//! # lfp-serve — the sharded, readiness-driven serving core
//!
//! `vendor-queryd` began as a thread-per-connection daemon: fine for a
//! handful of analysts, hopeless for the bursty, pipelined fan-in the
//! path-level analyses attract once they are a *service*. A thread per
//! socket means a stack per idle client, a scheduler fight per burst,
//! and no way to bound what a slow reader costs. This crate rebuilds
//! the serving half of the stack around **readiness**, layered so it
//! saturates every core:
//!
//! * [`sys`] — thin `poll(2)` / `writev(2)` wrappers (the workspace's
//!   only `unsafe`, two FFI calls; std-only rule intact — no new
//!   dependencies),
//! * [`policy`] — the [`IoPolicy`] seam between the loops and the
//!   kernel: [`DirectIo`] passes through at zero cost in production,
//!   [`FaultPolicy`] injects a seeded, schedule-driven stream of
//!   short I/O, `EINTR`/`EAGAIN`, spurious wakeups, resets and write
//!   stalls for reproducible chaos testing — with an independent,
//!   replayable **lane** per shard and one for the acceptor
//!   ([`FaultPlan::for_slot`]); every party owns its policy outright,
//! * `conn` *(internal)* — per-connection state machines: an
//!   incremental [`FrameDecoder`](lfp_query::FrameDecoder) accumulating
//!   partial frames, sequence-numbered pipelining, in-order response
//!   reassembly as zero-copy segment queues (cache-resident result
//!   bytes flush through gathered writes, never copied), bounded write
//!   buffers with slow-client eviction,
//! * `accept` *(internal)* — the acceptor loop: accept, configure,
//!   hand each stream to a shard round-robin by accept order,
//! * `shard` *(internal)* — one independent event loop per shard: its
//!   own poll set, wake pipe, worker pool, fault lane and result-cache
//!   lane; decode, answer cache-resident results inline, reassemble +
//!   write for exactly the connections it owns, with the pool left to
//!   cache misses and extension lines,
//! * [`server`] — [`Server`]: the thin supervisor that binds the
//!   listener, spawns `loops` shards, runs the acceptor, fans out
//!   shutdown/drain through one control plane, and merges per-shard
//!   counters into the final report and the `stats` reply (with a
//!   `per_shard` breakdown). Loops and workers answer every query
//!   against the engine fetched per request from an [`EngineSource`] —
//!   so store epoch swaps land mid-pipeline without torn responses.
//!
//! Graceful shutdown is a first-class state: the `shutdown` control
//! query (on any shard) stops accepting and reading everywhere,
//! *drains every accepted request on every connection of every shard*
//! through the pools and out the sockets, then closes the listener. A
//! `stats` control query reports aggregate connections, queue depths
//! and the serving epoch, plus one row per shard.
//!
//! ```no_run
//! use lfp_analysis::World;
//! use lfp_query::QueryEngine;
//! use lfp_serve::{EngineSource, ServeConfig, Server};
//! use lfp_topo::Scale;
//! use std::sync::Arc;
//!
//! let engine = Arc::new(QueryEngine::new(Arc::new(World::build(Scale::tiny()))));
//! let source: Arc<dyn EngineSource> = Arc::new(move || Arc::clone(&engine));
//! let config = ServeConfig { loops: 4, ..ServeConfig::default() };
//! let server = Server::bind("127.0.0.1:0", config, source)?;
//! println!("listening on {}", server.local_addr());
//! server.run(); // blocks until a shutdown control query drains it
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub(crate) mod accept;
pub(crate) mod conn;
pub(crate) mod obs;
pub mod policy;
pub mod server;
pub(crate) mod shard;
pub mod sys;

pub use policy::{DirectIo, FaultCounters, FaultPlan, FaultPolicy, IoPolicy, PolicySlot};
pub use server::{
    answer_line, EngineSource, LineExtension, ObsHandle, ServeConfig, ServeReport, Server,
    ServerHandle, StatsSource,
};
