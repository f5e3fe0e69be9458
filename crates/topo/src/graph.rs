//! AS-level topology: tiered generation, CAIDA-style relationships, and
//! valley-free (Gao–Rexford) route computation.
//!
//! The informed-routing case study (§6.3) and every path-level analysis
//! need an AS graph with customer/provider/peer semantics and BGP-like
//! best-path selection: customer routes preferred over peer routes over
//! provider routes, then shortest AS path, deterministic tie-breaks. The
//! generator builds an acyclic provider hierarchy (tier-1 clique, transit
//! middle, stub edge) so the route DP is a simple pass in index order.

use crate::geo::{weighted_choice, Continent};
use crate::scale::Scale;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Position of an AS in the routing hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Member of the top clique (no providers).
    Tier1,
    /// Provides transit to customers, buys transit itself.
    Transit,
    /// Edge network: customers only of others.
    Stub,
}

/// One autonomous system.
#[derive(Debug, Clone)]
pub struct AsNode {
    /// Display AS number.
    pub asn: u32,
    /// Hierarchy tier.
    pub tier: Tier,
    /// Registry continent.
    pub continent: Continent,
    /// Registry country code.
    pub country: &'static str,
    /// Number of routers this AS will deploy.
    pub router_budget: usize,
}

/// The AS-level graph with typed relationships.
#[derive(Debug, Clone)]
pub struct AsGraph {
    /// AS metadata, indexed by AS id.
    pub nodes: Vec<AsNode>,
    /// For each AS: its providers (always lower ids — the hierarchy is a DAG).
    pub providers: Vec<Vec<u32>>,
    /// For each AS: its customers (inverse of `providers`).
    pub customers: Vec<Vec<u32>>,
    /// For each AS: its settlement-free peers.
    pub peers: Vec<Vec<u32>>,
}

const INF: u32 = u32::MAX;

impl AsGraph {
    /// Generate a topology for the given scale.
    pub fn generate(scale: &Scale) -> AsGraph {
        let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0xa5a5_0001);
        let total = scale.ases;
        let transit_count =
            ((total - scale.tier1) as f64 * scale.transit_fraction).round() as usize;

        let mut nodes = Vec::with_capacity(total);
        for index in 0..total {
            let tier = if index < scale.tier1 {
                Tier::Tier1
            } else if index < scale.tier1 + transit_count {
                Tier::Transit
            } else {
                Tier::Stub
            };
            let continent = *weighted_choice(&Continent::ALL.map(|c| (c, c.as_share())), &mut rng);
            let country = *weighted_choice(continent.countries(), &mut rng);
            let router_budget = sample_budget(scale, tier, index, &mut rng);
            nodes.push(AsNode {
                asn: 100 + index as u32 * 3 + (rng.gen_range(0..3)),
                tier,
                continent,
                country,
                router_budget,
            });
        }

        let mut providers: Vec<Vec<u32>> = vec![Vec::new(); total];
        let mut customers: Vec<Vec<u32>> = vec![Vec::new(); total];
        let mut peers: Vec<Vec<u32>> = vec![Vec::new(); total];

        // Tier-1 full peering clique.
        for a in 0..scale.tier1 {
            for b in (a + 1)..scale.tier1 {
                peers[a].push(b as u32);
                peers[b].push(a as u32);
            }
        }

        // Transit and stub ASes pick providers among lower-indexed,
        // higher-tier ASes, preferring the same continent.
        for index in scale.tier1..total {
            let provider_pool_end = if nodes[index].tier == Tier::Transit {
                // Transit buys from tier-1 or earlier transit.
                index
            } else {
                // Stubs buy from any transit/tier-1.
                scale.tier1 + transit_count
            };
            let provider_count = match nodes[index].tier {
                Tier::Transit => rng.gen_range(1..=3),
                _ => rng.gen_range(1..=2),
            };
            let mut chosen: Vec<u32> = Vec::new();
            let mut guard = 0;
            while chosen.len() < provider_count && guard < 64 {
                guard += 1;
                let candidate = rng.gen_range(0..provider_pool_end) as u32;
                if candidate as usize == index || chosen.contains(&candidate) {
                    continue;
                }
                let same_continent = nodes[candidate as usize].continent == nodes[index].continent;
                // Prefer same-continent providers; accept foreign ones with
                // lower probability (long-haul transit exists but is rarer).
                if same_continent || rng.gen_bool(0.25) || guard > 40 {
                    chosen.push(candidate);
                }
            }
            if chosen.is_empty() {
                chosen.push(rng.gen_range(0..scale.tier1) as u32);
            }
            for provider in chosen {
                providers[index].push(provider);
                customers[provider as usize].push(index as u32);
            }
        }

        // Lateral peering among transit ASes (predominantly intra-continent).
        let transit_range: Vec<usize> = (scale.tier1..scale.tier1 + transit_count).collect();
        for &a in &transit_range {
            let peering_links = rng.gen_range(0..=2);
            for _ in 0..peering_links {
                let &b = &transit_range[rng.gen_range(0..transit_range.len())];
                if a == b || peers[a].contains(&(b as u32)) {
                    continue;
                }
                if nodes[a].continent == nodes[b].continent || rng.gen_bool(0.15) {
                    peers[a].push(b as u32);
                    peers[b].push(a as u32);
                }
            }
        }

        AsGraph {
            nodes,
            providers,
            customers,
            peers,
        }
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph is empty (never after generation).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Compute valley-free routes from every AS toward `dst`, optionally
    /// excluding one AS (for the §6.3 avoidance analysis). The lengths are
    /// computed as `u32` and narrowed, checked, into the compact table.
    pub fn routes_to(&self, dst: u32, exclude: Option<u32>) -> BgpTable {
        let n = self.len();
        let skip = |x: u32| Some(x) == exclude;

        // Customer-route lengths: BFS from dst climbing provider edges.
        // cust[x] = hops of the pure downhill path x → … → dst.
        let mut cust = vec![INF; n];
        if !skip(dst) {
            cust[dst as usize] = 0;
            let mut queue = std::collections::VecDeque::from([dst]);
            while let Some(current) = queue.pop_front() {
                let next_dist = cust[current as usize] + 1;
                for &provider in &self.providers[current as usize] {
                    if skip(provider) {
                        continue;
                    }
                    if cust[provider as usize] > next_dist {
                        cust[provider as usize] = next_dist;
                        queue.push_back(provider);
                    }
                }
            }
        }

        // Peer routes: one peer link onto a customer route.
        let mut peer = vec![INF; n];
        for (x, best) in peer.iter_mut().enumerate() {
            if skip(x as u32) {
                continue;
            }
            for &y in &self.peers[x] {
                if skip(y) || cust[y as usize] == INF {
                    continue;
                }
                *best = (*best).min(cust[y as usize] + 1);
            }
        }

        // Provider routes: climb one provider edge onto the provider's best
        // route of any class. Providers have lower indices, so a single
        // ascending pass suffices... except the provider's own provider
        // route references even lower indices, which are already final.
        let mut prov = vec![INF; n];
        for x in 0..n {
            if skip(x as u32) {
                continue;
            }
            for &p in &self.providers[x] {
                if skip(p) {
                    continue;
                }
                let p = p as usize;
                let best_at_p = cust[p].min(peer[p]).min(prov[p]);
                if best_at_p != INF {
                    prov[x] = prov[x].min(best_at_p + 1);
                }
            }
        }

        BgpTable {
            dst,
            exclude,
            lengths: narrow(&cust, &peer, &prov),
        }
    }
}

fn sample_budget(scale: &Scale, tier: Tier, index: usize, rng: &mut SmallRng) -> usize {
    let mean = match tier {
        Tier::Tier1 => scale.routers_per_tier1,
        Tier::Transit => scale.routers_per_transit,
        Tier::Stub => scale.routers_per_stub,
    };
    // Heavy tail: log-normal-ish multiplier, plus explicit hypergiants at
    // the very top so the "1000+ routers" analyses (Figures 19/20/22) have
    // their population.
    let z: f64 = {
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    let multiplier = (0.7 * z).exp();
    let mut budget = (mean * multiplier).max(1.0) as usize;
    if tier == Tier::Tier1 {
        budget += (mean * 12.0 / (index + 1) as f64) as usize;
    }
    budget.max(1)
}

/// Per-destination route table: for every AS, the AS-path length of its
/// best customer, peer and provider route toward `dst`.
///
/// Stored compactly, as three `u8` lengths per AS (3 bytes; the `u32`
/// columns the route computation works in take 12), with `u8::MAX`
/// meaning "no route of this class". The narrowing is checked: a route of
/// 255 AS hops or more makes [`AsGraph::routes_to`] panic rather than
/// saturate into a wrong length.
#[derive(Debug, Clone)]
pub struct BgpTable {
    /// Destination AS id.
    pub dst: u32,
    /// AS excluded from routing, if any.
    pub exclude: Option<u32>,
    /// Per AS: customer, peer and provider route lengths, in preference
    /// order; [`NO_ROUTE`] where the class has none.
    lengths: Box<[[u8; 3]]>,
}

/// A [`BgpTable`] length slot holding no route.
const NO_ROUTE: u8 = u8::MAX;

/// Narrow the computed `u32` route-length columns into [`BgpTable`]
/// slots, checked. The check runs once, over all three columns: `INF`
/// (`u32::MAX`) plus one wraps to 0, so the fold is the longest finite
/// length plus one. With every finite length below [`NO_ROUTE`], the
/// truncating cast is exact and maps `INF` to `NO_ROUTE`.
fn narrow(cust: &[u32], peer: &[u32], prov: &[u32]) -> Box<[[u8; 3]]> {
    let longest_plus_one = [cust, peer, prov]
        .into_iter()
        .flatten()
        .fold(0, |longest, &len| longest.max(len.wrapping_add(1)));
    assert!(
        longest_plus_one <= u32::from(NO_ROUTE),
        "AS-path length {} does not fit a compact route table (at most {})",
        longest_plus_one - 1,
        NO_ROUTE - 1
    );
    cust.iter()
        .zip(peer)
        .zip(prov)
        .map(|((&cust, &peer), &prov)| [cust as u8, peer as u8, prov as u8])
        .collect()
}

impl BgpTable {
    /// Is `src` able to reach the destination at all?
    pub fn reachable(&self, src: u32) -> bool {
        self.best_class(src).is_some()
    }

    /// AS-path length of the best route, if reachable.
    pub fn path_len(&self, src: u32) -> Option<u32> {
        self.best_class(src).map(|(_, len)| len)
    }

    fn best_class(&self, src: u32) -> Option<(u8, u32)> {
        // Preference: customer (0) > peer (1) > provider (2); within a
        // class, shorter is better. A route class only wins on length if
        // no more-preferred class exists — standard local-pref semantics.
        let lengths = self.lengths[src as usize];
        (0u8..)
            .zip(lengths)
            .find(|&(_, len)| len != NO_ROUTE)
            .map(|(class, len)| (class, u32::from(len)))
    }

    /// Customer-route length at `x` (`NO_ROUTE` as 255).
    fn customer_len(&self, x: u32) -> u32 {
        u32::from(self.lengths[x as usize][0])
    }

    /// Reconstruct the best AS path `src … dst` (inclusive), deterministic
    /// tie-break by lowest AS id.
    pub fn path_from(&self, src: u32, graph: &AsGraph) -> Option<Vec<u32>> {
        let mut path = vec![src];
        let mut current = src;
        let mut budget = graph.len() + 2;
        while current != self.dst {
            budget = budget.checked_sub(1)?;
            let (class, len) = self.best_class(current)?;
            let next = match class {
                0 => {
                    // Descend: customer whose cust-dist is one less.
                    graph.customers[current as usize]
                        .iter()
                        .copied()
                        .filter(|&c| self.customer_len(c) == len - 1)
                        .min()?
                }
                1 => {
                    // Cross the single peer link onto a customer route.
                    graph.peers[current as usize]
                        .iter()
                        .copied()
                        .filter(|&y| self.customer_len(y) == len - 1)
                        .min()?
                }
                _ => {
                    // Climb to the provider whose best route is one less.
                    graph.providers[current as usize]
                        .iter()
                        .copied()
                        .filter(|&p| {
                            let shortest = self.lengths[p as usize].into_iter().min();
                            shortest.map(u32::from) == Some(len - 1)
                        })
                        .min()?
                }
            };
            path.push(next);
            current = next;
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> AsGraph {
        AsGraph::generate(&Scale::tiny())
    }

    #[test]
    fn generation_matches_scale() {
        let scale = Scale::tiny();
        let graph = tiny_graph();
        assert_eq!(graph.len(), scale.ases);
        let tier1 = graph.nodes.iter().filter(|n| n.tier == Tier::Tier1).count();
        assert_eq!(tier1, scale.tier1);
        // Tier-1s have no providers; everyone else has at least one.
        for (index, node) in graph.nodes.iter().enumerate() {
            match node.tier {
                Tier::Tier1 => assert!(graph.providers[index].is_empty()),
                _ => assert!(!graph.providers[index].is_empty()),
            }
        }
    }

    #[test]
    fn provider_edges_point_to_lower_indices() {
        let graph = tiny_graph();
        for (index, providers) in graph.providers.iter().enumerate() {
            for &p in providers {
                assert!(
                    (p as usize) < index,
                    "provider edge {index}→{p} not acyclic"
                );
            }
        }
    }

    #[test]
    fn customers_is_inverse_of_providers() {
        let graph = tiny_graph();
        for (index, providers) in graph.providers.iter().enumerate() {
            for &p in providers {
                assert!(graph.customers[p as usize].contains(&(index as u32)));
            }
        }
    }

    #[test]
    fn everyone_reaches_everyone_via_tier1() {
        // With a full tier-1 clique and providers for all, the Internet is
        // connected under valley-free routing.
        let graph = tiny_graph();
        for dst in [0u32, 5, 20, 40] {
            let table = graph.routes_to(dst, None);
            for src in 0..graph.len() as u32 {
                assert!(
                    table.reachable(src),
                    "AS{src} cannot reach AS{dst} valley-free"
                );
            }
        }
    }

    #[test]
    fn paths_are_valley_free() {
        let graph = tiny_graph();
        let table = graph.routes_to(33, None);
        for src in 0..graph.len() as u32 {
            let path = table.path_from(src, &graph).unwrap();
            assert_eq!(*path.first().unwrap(), src);
            assert_eq!(*path.last().unwrap(), 33);
            // Classify each link, assert up* peer? down* shape.
            #[derive(PartialEq, Clone, Copy, Debug)]
            enum Phase {
                Up,
                Peered,
                Down,
            }
            let mut phase = Phase::Up;
            for pair in path.windows(2) {
                let (a, b) = (pair[0] as usize, pair[1]);
                let link = if graph.providers[a].contains(&b) {
                    Phase::Up
                } else if graph.peers[a].contains(&b) {
                    Phase::Peered
                } else {
                    assert!(
                        graph.customers[a].contains(&b),
                        "no relationship on path link {a}→{b}"
                    );
                    Phase::Down
                };
                match (phase, link) {
                    (Phase::Up, any) => phase = any,
                    (Phase::Peered, Phase::Down) => phase = Phase::Down,
                    (Phase::Down, Phase::Down) => {}
                    (from, to) => panic!("valley: {from:?} then {to:?} in {path:?}"),
                }
            }
        }
    }

    #[test]
    fn customer_routes_beat_shorter_provider_routes() {
        // Build a hand graph: 0 ⟂ 1 peers; 2 customer of both; 3 customer
        // of 2; destination 3. From 0: customer chain 0→2→3 (len 2).
        let nodes = (0..4)
            .map(|i| AsNode {
                asn: i,
                tier: Tier::Transit,
                continent: Continent::Europe,
                country: "DE",
                router_budget: 1,
            })
            .collect();
        let graph = AsGraph {
            nodes,
            providers: vec![vec![], vec![], vec![0, 1], vec![2]],
            customers: vec![vec![2], vec![2], vec![3], vec![]],
            peers: vec![vec![1], vec![0], vec![], vec![]],
        };
        let table = graph.routes_to(3, None);
        assert_eq!(table.path_from(0, &graph).unwrap(), vec![0, 2, 3]);
        assert_eq!(table.path_len(0), Some(2));
    }

    #[test]
    fn exclusion_removes_paths_through_an_as() {
        let graph = tiny_graph();
        // Find a destination whose every path transits some AS; excluding
        // that AS must reduce reachability or change paths.
        let table = graph.routes_to(40, None);
        let path = table.path_from(7, &graph).unwrap();
        if path.len() >= 3 {
            let transit = path[1];
            let excluded = graph.routes_to(40, Some(transit));
            if let Some(alternative) = excluded.path_from(7, &graph) {
                assert!(!alternative.contains(&transit), "excluded AS still on path");
            }
        }
    }

    #[test]
    fn hypergiants_exist_at_paper_scale() {
        let graph = AsGraph::generate(&Scale::paper());
        let max_budget = graph.nodes.iter().map(|n| n.router_budget).max().unwrap();
        assert!(
            max_budget >= 1000,
            "largest AS has only {max_budget} routers"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = AsGraph::generate(&Scale::tiny());
        let b = AsGraph::generate(&Scale::tiny());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.router_budget, y.router_budget);
        }
        assert_eq!(a.providers, b.providers);
        assert_eq!(a.peers, b.peers);
    }
}
