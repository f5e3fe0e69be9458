//! # lfp-bench — benches and the experiments harness
//!
//! Three consumers share this crate:
//!
//! * the `experiments` binary (`cargo run -p lfp-bench --release --bin
//!   experiments -- all`) regenerates every paper table and figure from a
//!   freshly measured [`lfp_analysis::World`],
//! * the serving binaries — `vendor-queryd` plus its load generator
//!   and scenario driver `query-load`, whose catalog-bootstrapped
//!   request mix and one client state machine live in [`mix`] — and
//! * the Criterion benches (`cargo bench`) time the packet codecs, the
//!   fingerprinting hot paths, the simulator, and each experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mix;

use lfp_analysis::json::{parse, JsonBuilder, JsonValue};
use lfp_analysis::World;
use lfp_core::pipeline::scan_dataset;
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

/// A lazily built small world for scaling benches.
pub fn shared_small_world() -> Arc<World> {
    static WORLD: OnceLock<Arc<World>> = OnceLock::new();
    Arc::clone(WORLD.get_or_init(|| Arc::new(World::build(Scale::small()))))
}

/// Measure `count` snapshot deltas beyond a world's base campaign by
/// continuing the planning churn chain, and scan each delta's router
/// population — the exact flow `store-tool deltas` ships to disk. The
/// `store_compaction` bench and the store test battery both ingest
/// these, so a benched epoch is byte-for-byte the epoch a longer
/// measurement campaign would have produced next.
pub fn measure_deltas(world: &World, count: usize) -> Vec<SnapshotDelta> {
    let internet = &world.internet;
    let base = internet.scale.snapshots;
    let plans = plan_ripe_snapshots_extended(internet, base + count);
    plans[base..]
        .iter()
        .map(|plan| {
            let snapshot = measure_ripe_snapshot(internet, &internet.network().fork(), plan);
            let targets: Vec<Ipv4Addr> = snapshot.router_ips.iter().copied().collect();
            let scan = scan_dataset(&internet.network().fork(), &snapshot.name, &targets, 4);
            SnapshotDelta::from_measurement(&snapshot, &scan)
        })
        .collect()
}

/// Insert/replace one named phase object in `BENCH_campaign.json`,
/// preserving every other top-level field (the `experiments`,
/// `query-load` and `vendor-queryd` binaries all write into the same
/// artefact). When `seconds` is given, `phases_seconds.<name>` is
/// mirrored so the phase lines up with the campaign timings.
pub fn merge_bench_phase(path: &str, name: &str, phase: JsonValue, seconds: Option<f64>) {
    let mut document = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| parse(&text).ok())
        .unwrap_or_else(|| {
            let mut fresh = JsonBuilder::object();
            fresh.string("artifact", "BENCH_campaign");
            parse(&fresh.finish()).expect("fresh JSON is valid")
        });
    if document.set(name, phase.clone()).is_none() {
        eprintln!("warning: {path} is not a JSON object; rewriting it");
        let mut fresh = JsonBuilder::object();
        fresh.string("artifact", "BENCH_campaign");
        document = parse(&fresh.finish()).expect("fresh JSON is valid");
        document.set(name, phase);
    }
    if let (Some(seconds), Some(phases)) = (seconds, document.get("phases_seconds")) {
        let mut phases = phases.clone();
        phases.set(name, JsonValue::Number(seconds));
        document.set("phases_seconds", phases);
    }

    // Pretty top level (one field per line), like the experiments bin.
    let mut rendered = JsonBuilder::object();
    if let Some(fields) = document.as_object() {
        for (key, value) in fields {
            rendered.raw(key, value.render());
        }
    }
    std::fs::write(path, rendered.finish_pretty() + "\n").expect("write bench json");
}

/// Read one phase object back from the bench artefact, if present (the
/// store bench uses this to compute rebuild-vs-load speedups across two
/// daemon runs).
pub fn read_bench_phase(path: &str, name: &str) -> Option<JsonValue> {
    let text = std::fs::read_to_string(path).ok()?;
    parse(&text).ok()?.get(name).cloned()
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
