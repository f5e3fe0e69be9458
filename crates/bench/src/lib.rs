//! # lfp-bench — benches and the experiments harness
//!
//! Three consumers share this crate:
//!
//! * the `experiments` binary (`cargo run -p lfp-bench --release --bin
//!   experiments -- all`) regenerates every paper table and figure from a
//!   freshly measured [`lfp_analysis::World`],
//! * the serving binaries — `vendor-queryd`, `store-tool` and the load
//!   client `query-load`, whose catalog-bootstrapped request mix and one
//!   client state machine live in [`mix`] — and
//! * the Criterion benches (`cargo bench`) time the packet codecs, the
//!   fingerprinting hot paths, the simulator, and each experiment.
//!
//! The yardstick for end-to-end and per-layer performance is the repo
//! benchmark (`BENCHMARK.json`, the `lfp-benchmark` package), which
//! builds on [`shared_tiny_world`], [`measure_deltas`] and
//! [`mix::build_mix`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mix;

use lfp_analysis::World;
use lfp_core::pipeline::scan_dataset;
use lfp_net::{cores, fan_out};
use lfp_store::SnapshotDelta;
use lfp_topo::datasets::{measure_ripe_snapshot, plan_ripe_snapshots_extended};
use lfp_topo::Scale;
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock};

/// A lazily built tiny world shared by benches (building a world is
/// expensive; timing individual experiments should not re-measure it).
/// Shared ownership so serving-layer benches can hand it to a
/// `QueryEngine` directly.
pub fn shared_tiny_world() -> Arc<World> {
    static WORLD: OnceLock<Arc<World>> = OnceLock::new();
    Arc::clone(WORLD.get_or_init(|| Arc::new(World::build(Scale::tiny()))))
}

/// Measure `count` snapshot deltas beyond a world's base campaign by
/// continuing the planning churn chain, and scan each delta's router
/// population — the exact flow `store-tool deltas` ships to disk. The
/// benchmark's `epochs` workload and the process-level tests ingest
/// these, so a benched epoch is byte-for-byte the epoch a longer
/// measurement campaign would have produced next.
///
/// Each delta measures and scans its own forks, so the deltas commute:
/// they fan out over the cores a batch of `cores` at a time, in plan
/// order. The long-lived copy of each delta is built on the calling
/// thread, so the workers' allocator arenas hold only measurement garbage
/// the allocator can return; built on the workers, live deltas pinned it
/// and raised `epochs` peak RSS by 9 %.
pub fn measure_deltas(world: &World, count: usize) -> Vec<SnapshotDelta> {
    let internet = &world.internet;
    let base = internet.scale.snapshots;
    let plans = plan_ripe_snapshots_extended(internet, base + count);
    let workers = cores();
    let mut deltas = Vec::with_capacity(count);
    for batch in plans[base..].chunks(workers) {
        let measured = fan_out(workers, batch.len(), |index| {
            let snapshot =
                measure_ripe_snapshot(internet, &internet.network().fork(), &batch[index]);
            let targets: Vec<Ipv4Addr> = snapshot.router_ips.iter().copied().collect();
            let scan = scan_dataset(&internet.network().fork(), &snapshot.name, &targets, 1);
            (snapshot, scan)
        });
        deltas.extend(
            measured
                .iter()
                .map(|(snapshot, scan)| SnapshotDelta::from_measurement(snapshot, scan)),
        );
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_world_is_cached() {
        let a = shared_tiny_world();
        let b = shared_tiny_world();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
