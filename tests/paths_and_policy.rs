//! Integration: path-level analyses and the routing case study behave per
//! the paper's §6 on a measured world.

use lfp::analysis::paths::{path_metrics, top_vendor_combinations, vendors_per_path_ecdf};
use lfp::analysis::routing::{avoidance_study, sample_destinations, sample_sources};
use lfp::analysis::us_study::partition;
use lfp::analysis::World;
use lfp::prelude::*;
use std::sync::OnceLock;

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::build(Scale::tiny()))
}

#[test]
fn most_paths_cross_few_vendors() {
    // §6.1: ~50% single vendor, ~40% two, rarely more.
    let world = world();
    let (snapshot, scan) = world.latest_ripe();
    let lfp = world.lfp_vendor_map(scan);
    let metrics = path_metrics(&snapshot.traces, &lfp);
    let ecdf = vendors_per_path_ecdf(&metrics);
    assert!(!ecdf.is_empty());
    // At most two vendors on the strong majority of identified paths.
    assert!(
        ecdf.fraction_at_or_below(2.0) > 0.6,
        "paths are too heterogeneous: P(≤2 vendors) = {}",
        ecdf.fraction_at_or_below(2.0)
    );
}

#[test]
fn vendor_combinations_concentrate() {
    // §6.1: the top few vendor sets dominate.
    let world = world();
    let (snapshot, scan) = world.latest_ripe();
    let lfp = world.lfp_vendor_map(scan);
    let metrics = path_metrics(&snapshot.traces, &lfp);
    let combos = top_vendor_combinations(&metrics, 9);
    assert!(!combos.is_empty());
    let top_share: f64 = combos.iter().map(|c| c.1).sum();
    assert!(top_share > 60.0, "top-9 share only {top_share:.1}%");
}

#[test]
fn us_partition_is_consistent_with_registry() {
    let world = world();
    let (snapshot, _) = world.latest_ripe();
    let (intra, inter, other) = partition(&world.internet, &snapshot.traces);
    assert_eq!(
        intra.len() + inter.len() + other.len(),
        snapshot.traces.len()
    );
}

#[test]
fn avoidance_study_is_internally_consistent() {
    let world = world();
    let sources = sample_sources(&world.internet, 10);
    let destinations = sample_destinations(&world.internet, 30);
    // Study every tier-1 — they all transit something at tiny scale.
    let mut any_affected = false;
    for transit in 0..Scale::tiny().tier1 as u32 {
        let study = avoidance_study(&world.internet, transit, &sources, &destinations);
        assert_eq!(
            study.affected_destinations,
            study.avoidable + study.unavoidable
        );
        any_affected |= study.affected_destinations > 0;
    }
    assert!(any_affected, "no transit AS affects any destination?");
}

#[test]
fn excluding_an_as_never_creates_new_reachability() {
    // Monotonicity: removing an AS can only shrink the reachable set.
    let world = world();
    let core = world.internet.core();
    for dst in [5u32, 17, 33] {
        let base = core.bgp(dst);
        let excluded = core.graph.routes_to(dst, Some(1));
        for src in 0..world.internet.graph().len() as u32 {
            if excluded.reachable(src) {
                assert!(
                    base.reachable(src),
                    "exclusion created reachability {src}→{dst}"
                );
            }
        }
    }
}
