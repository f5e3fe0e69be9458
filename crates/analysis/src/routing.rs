//! Informed routing case study (paper §6.3): given vendor-homogeneous
//! transit networks, which destinations could a policy-conscious sender
//! still reach while avoiding them?

use lfp_topo::graph::Tier;
use lfp_topo::Internet;
use std::collections::BTreeSet;

/// Result of the avoidance analysis for one transit AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvoidanceStudy {
    /// The transit AS under scrutiny.
    pub transit_as: u32,
    /// Destination ASes (from the sample) whose best paths transit it.
    pub affected_destinations: usize,
    /// Of those, destinations with a valley-free alternative avoiding it.
    pub avoidable: usize,
    /// Destinations with no visible alternative.
    pub unavoidable: usize,
}

/// For a vendor-homogeneous transit AS, walk a destination sample and ask
/// per destination: does the best path from any sample source transit the
/// AS, and if so, does an alternative valley-free path avoid it?
///
/// Mirrors the paper's method (CAIDA AS-relationship paths, visibility
/// caveats included: only valley-free paths are considered "visible").
pub fn avoidance_study(
    internet: &Internet,
    transit_as: u32,
    sources: &[u32],
    destinations: &[u32],
) -> AvoidanceStudy {
    let core = internet.core();
    let mut affected: BTreeSet<u32> = BTreeSet::new();
    let mut avoidable: BTreeSet<u32> = BTreeSet::new();

    for &dst in destinations {
        if dst == transit_as {
            continue;
        }
        let table = core.bgp(dst);
        let mut transits = false;
        for &src in sources {
            if src == dst {
                continue;
            }
            if let Some(path) = table.path_from(src, &core.graph) {
                // Transit role: strictly interior on the path.
                if path.len() > 2 && path[1..path.len() - 1].contains(&transit_as) {
                    transits = true;
                    break;
                }
            }
        }
        if !transits {
            continue;
        }
        affected.insert(dst);
        // Is there an alternative with the AS excluded entirely? The
        // table is this destination's alone: computed here, dropped here.
        let excluded = core.graph.routes_to(dst, Some(transit_as));
        if sources
            .iter()
            .any(|&src| src != dst && excluded.reachable(src))
        {
            avoidable.insert(dst);
        }
    }

    AvoidanceStudy {
        transit_as,
        affected_destinations: affected.len(),
        avoidable: avoidable.len(),
        unavoidable: affected.len() - avoidable.len(),
    }
}

/// Candidate sources for the study: stub ASes (edge senders), capped.
pub fn sample_sources(internet: &Internet, cap: usize) -> Vec<u32> {
    internet
        .graph()
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, node)| node.tier == Tier::Stub)
        .map(|(id, _)| id as u32)
        .step_by(3)
        .take(cap)
        .collect()
}

/// Candidate destinations: a spread over all ASes, capped.
pub fn sample_destinations(internet: &Internet, cap: usize) -> Vec<u32> {
    let total = internet.graph().len();
    (0..total as u32)
        .step_by((total / cap.max(1)).max(1))
        .take(cap)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfp_topo::Scale;

    #[test]
    fn study_counts_are_consistent() {
        let internet = Internet::generate(Scale::tiny());
        let sources = sample_sources(&internet, 8);
        let destinations = sample_destinations(&internet, 24);
        assert!(!sources.is_empty());
        assert!(!destinations.is_empty());
        // Scrutinise a tier-1 AS: it certainly transits something.
        let study = avoidance_study(&internet, 0, &sources, &destinations);
        assert_eq!(
            study.affected_destinations,
            study.avoidable + study.unavoidable
        );
    }

    #[test]
    fn avoidable_paths_really_avoid() {
        let internet = Internet::generate(Scale::tiny());
        let core = internet.core();
        let sources = sample_sources(&internet, 6);
        let destinations = sample_destinations(&internet, 16);
        let transit = 1u32;
        let study = avoidance_study(&internet, transit, &sources, &destinations);
        if study.avoidable > 0 {
            // Spot-check: recomputing with exclusion yields paths without
            // the transit AS.
            for &dst in &destinations {
                let excluded = core.graph.routes_to(dst, Some(transit));
                for &src in &sources {
                    if src == dst {
                        continue;
                    }
                    if let Some(path) = excluded.path_from(src, &core.graph) {
                        assert!(!path[1..path.len().saturating_sub(1)].contains(&transit));
                    }
                }
            }
        }
    }
}
