//! Assembly of the synthetic Internet: routers, interfaces, vendors,
//! devices, and the routing oracle wiring it into the simulator.
//!
//! Ground truth (which vendor a router runs, which AS owns it, where it is
//! registered) lives in [`RouterMeta`] records here. The measurement layers
//! never read them — they probe the [`lfp_net::Network`] like any external
//! observer — but the evaluation layers use them to score accuracy,
//! homogeneity and regional distributions.

use crate::geo::{weighted_choice, Continent};
use crate::graph::{AsGraph, BgpTable, Tier};
use crate::scale::Scale;
use lfp_net::link::splitmix64;
use lfp_net::{DeviceId, Hop, Network, RouteOracle, RoutePath, VantageId};
use lfp_stack::catalog::Catalog;
use lfp_stack::device::RouterDevice;
use lfp_stack::vendor::Vendor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::sync::RwLock;

/// Ground-truth record for one router.
#[derive(Debug, Clone)]
pub struct RouterMeta {
    /// Simulator device id (equals the index in `Internet::routers`).
    pub device: DeviceId,
    /// Owning AS id.
    pub as_id: u32,
    /// True vendor (evaluation only).
    pub vendor: Vendor,
    /// True OS family (evaluation only).
    pub family: &'static str,
    /// Interface addresses (≥1; the alias set).
    pub interfaces: Vec<Ipv4Addr>,
    /// Whether this router sits on inter-AS links.
    pub is_border: bool,
}

/// A measurement vantage point.
#[derive(Debug, Clone, Copy)]
pub struct Vantage {
    /// Simulator vantage id.
    pub id: VantageId,
    /// AS hosting the vantage.
    pub as_id: u32,
    /// Source address probes are sent from.
    pub src_ip: Ipv4Addr,
}

/// Shared topology state (graph + router metadata + route cache), used by
/// both the [`Internet`] facade and the routing oracle.
pub struct TopologyCore {
    /// The AS graph.
    pub graph: AsGraph,
    /// All routers, indexed by device id.
    pub routers: Vec<RouterMeta>,
    /// Router ids per AS.
    pub as_routers: Vec<Vec<u32>>,
    /// Border-router ids per AS.
    pub as_borders: Vec<Vec<u32>>,
    /// Interface → device index.
    pub ip_index: HashMap<Ipv4Addr, DeviceId>,
    /// Vantage points.
    pub vantages: Vec<Vantage>,
    seed: u64,
    route_cache: RouteCache,
}

/// Memoised BGP tables, keyed by destination AS.
type RouteCache = RwLock<HashMap<u32, Arc<BgpTable>>>;

impl TopologyCore {
    /// BGP routes toward the AS, memoised. Only the unfiltered tables
    /// that routing reads again and again are memoised; a table with an
    /// AS excluded (the §6.3 avoidance study) is read once, so its caller
    /// computes it with [`AsGraph::routes_to`] and drops it.
    pub fn bgp(&self, dst_as: u32) -> Arc<BgpTable> {
        if let Some(table) = self
            .route_cache
            .read()
            .expect("route cache poisoned")
            .get(&dst_as)
        {
            return Arc::clone(table);
        }
        let table = Arc::new(self.graph.routes_to(dst_as, None));
        self.route_cache
            .write()
            .expect("route cache poisoned")
            .entry(dst_as)
            .or_insert(table)
            .clone()
    }

    /// How many route tables [`TopologyCore::bgp`] holds memoised.
    pub fn memoised_routes(&self) -> usize {
        self.route_cache.read().expect("route cache poisoned").len()
    }

    /// Best valley-free AS path between two ASes.
    pub fn as_path(&self, src_as: u32, dst_as: u32) -> Option<Vec<u32>> {
        self.bgp(dst_as).path_from(src_as, &self.graph)
    }

    /// The AS owning an interface address.
    pub fn as_of_ip(&self, ip: Ipv4Addr) -> Option<u32> {
        self.ip_index
            .get(&ip)
            .map(|device| self.routers[device.0 as usize].as_id)
    }

    /// Expand an AS path into a router-level path ending at `dst`.
    ///
    /// Per AS: a deterministic ingress border router (keyed on the
    /// preceding AS, as real ingress selection is), plus an interior hop
    /// for large networks. The final hop is the router owning `dst`, with
    /// `dst` itself as the responding interface.
    pub fn expand_path(&self, as_path: &[u32], dst: Ipv4Addr) -> Option<RoutePath> {
        let dst_device = *self.ip_index.get(&dst)?;
        let mut hops: Vec<Hop> = Vec::with_capacity(as_path.len() * 2 + 1);

        let mut previous_as = u32::MAX;
        for &as_id in as_path {
            let borders = &self.as_borders[as_id as usize];
            let all = &self.as_routers[as_id as usize];
            let pool = if borders.is_empty() { all } else { borders };
            if pool.is_empty() {
                previous_as = as_id;
                continue;
            }
            // Ingress depends on where traffic comes from (previous AS)
            // plus a few destination bits — the ECMP/hot-potato variety a
            // real traceroute campaign observes.
            let key = splitmix64(
                self.seed
                    ^ (u64::from(as_id) << 20)
                    ^ u64::from(previous_as.wrapping_add(1))
                    ^ (u64::from(u32::from(dst)) & 0x07) << 50,
            );
            let ingress_router = pool[(key % pool.len() as u64) as usize];
            push_hop(&mut hops, self.hop_for(ingress_router, key));

            // Interior hop for ASes with enough routers (transit cores);
            // destination-dependent, spreading load over the core. Not
            // every transit crossing exposes an interior hop — many are
            // one-hop MPLS cut-throughs.
            if all.len() >= 6 {
                let key2 = splitmix64(key ^ 0x1d1e ^ (u64::from(u32::from(dst)) & 0x38) << 40);
                if key2 % 5 < 3 {
                    let interior = all[(key2 % all.len() as u64) as usize];
                    push_hop(&mut hops, self.hop_for(interior, key2));
                }
            }
            previous_as = as_id;
        }

        // Terminal hop: the destination interface itself. A hop already
        // on the destination router (chosen as an ingress or interior hop)
        // is dropped: the path must end on `dst`, not on a sibling
        // interface of the same device, and must not visit it twice.
        hops.retain(|hop| hop.device != dst_device);
        hops.push(Hop {
            device: dst_device,
            ingress: dst,
        });
        Some(RoutePath { hops })
    }

    fn hop_for(&self, router: u32, key: u64) -> Hop {
        let meta = &self.routers[router as usize];
        let interface =
            meta.interfaces[(splitmix64(key ^ 0xfeed) % meta.interfaces.len() as u64) as usize];
        Hop {
            device: meta.device,
            ingress: interface,
        }
    }
}

fn push_hop(hops: &mut Vec<Hop>, hop: Hop) {
    if hops.last().map(|last| last.device) != Some(hop.device) {
        hops.push(hop);
    }
}

/// Routing oracle handed to the simulator.
pub struct InternetOracle {
    core: Arc<TopologyCore>,
}

impl RouteOracle for InternetOracle {
    fn route(&self, vantage: VantageId, dst: Ipv4Addr) -> Option<RoutePath> {
        let vantage = self.core.vantages.get(vantage.0 as usize)?;
        let dst_as = self.core.as_of_ip(dst)?;
        let as_path = self.core.as_path(vantage.as_id, dst_as)?;
        self.core.expand_path(&as_path, dst)
    }
}

/// The assembled synthetic Internet: topology core + live network.
pub struct Internet {
    /// Sizing used to build this Internet.
    pub scale: Scale,
    core: Arc<TopologyCore>,
    network: Network,
}

impl Internet {
    /// Generate everything: AS graph, routers, vendors, devices, network.
    pub fn generate(scale: Scale) -> Internet {
        let graph = AsGraph::generate(&scale);
        let catalog = Catalog::standard();
        let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0xbeef_0002);

        let mut routers: Vec<RouterMeta> = Vec::new();
        let mut devices: Vec<RouterDevice> = Vec::new();
        let mut as_routers: Vec<Vec<u32>> = vec![Vec::new(); graph.len()];
        let mut as_borders: Vec<Vec<u32>> = vec![Vec::new(); graph.len()];
        let mut ip_index: HashMap<Ipv4Addr, DeviceId> = HashMap::new();
        let mut allocator = AddressAllocator::new();

        for (as_id, node) in graph.nodes.iter().enumerate() {
            // Vendor mixture for this AS: a dominant vendor from the
            // regional market plus a homogeneity level (Appendix A.1: most
            // networks are single-vendor; big ones mix). The market prior
            // is tier-skewed: carrier-grade vendors dominate transit
            // cores, while MikroTik/white-box gear lives at the edge.
            let market = tier_skewed_market(node.continent, node.tier);
            let dominant = *weighted_choice(&market, &mut rng);
            let homogeneity = match rng.gen_range(0..10) {
                0..=6 => rng.gen_range(0.92..1.0),
                7..=8 => rng.gen_range(0.75..0.92),
                _ => rng.gen_range(0.50..0.75),
            };
            // Security posture is an organisational trait: a fifth of
            // networks harden *all* their routers (strict ACLs, no SNMP).
            // This is what makes unidentifiable hops cluster along paths
            // (§6's 82%-of-paths-with-≥1-identified-hop shape) instead of
            // sprinkling uniformly.
            let hardened = rng.gen_bool(0.28);

            let budget = node.router_budget;
            // Border share: small ASes are all border; big ones mostly core.
            let border_count = budget.min(2 + budget / 6).max(1);
            for router_index in 0..budget {
                let vendor = if rng.gen_bool(homogeneity) {
                    dominant
                } else {
                    *weighted_choice(&market, &mut rng)
                };
                let mut profile = catalog.sample(vendor, &mut rng);
                if hardened {
                    let mut strict = (*profile).clone();
                    strict.exposure.posture = [0.72, 0.12, 0.005, 0.005, 0.02, 0.02, 0.01, 0.10];
                    strict.exposure.snmp *= 0.2;
                    profile = Arc::new(strict);
                }
                let family = profile.family;
                let device_id = DeviceId(routers.len() as u32);
                let device_seed = splitmix64(scale.seed ^ 0xd00d ^ (routers.len() as u64) << 8);
                let mut device = RouterDevice::new(profile, device_seed);

                let is_border = router_index < border_count;
                let interface_count = if is_border {
                    rng.gen_range(2..=4)
                } else {
                    rng.gen_range(1..=2)
                };
                let mut interfaces = Vec::with_capacity(interface_count);
                for _ in 0..interface_count {
                    let ip = allocator.next();
                    interfaces.push(ip);
                    ip_index.insert(ip, device_id);
                }
                // The first interface acts as the canonical/loopback
                // address ICMP errors may be sourced from.
                device.set_canonical_ip(interfaces[0]);

                as_routers[as_id].push(device_id.0);
                if is_border {
                    as_borders[as_id].push(device_id.0);
                }
                routers.push(RouterMeta {
                    device: device_id,
                    as_id: as_id as u32,
                    vendor,
                    family,
                    interfaces,
                    is_border,
                });
                devices.push(device);
            }
        }

        // Vantage points: spread over stub ASes on distinct continents
        // where possible (RIPE probes live at the edge).
        let stubs: Vec<u32> = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.tier == Tier::Stub)
            .map(|(id, _)| id as u32)
            .collect();
        let mut vantages = Vec::new();
        for v in 0..scale.vantages {
            let as_id =
                stubs[(splitmix64(scale.seed ^ 0xabc ^ v as u64) % stubs.len() as u64) as usize];
            vantages.push(Vantage {
                id: VantageId(v as u32),
                as_id,
                src_ip: allocator.next(),
            });
        }

        let core = Arc::new(TopologyCore {
            graph,
            routers,
            as_routers,
            as_borders,
            ip_index: ip_index.clone(),
            vantages,
            seed: scale.seed,
            route_cache: RwLock::new(HashMap::new()),
        });
        let oracle = InternetOracle {
            core: Arc::clone(&core),
        };
        let mut network = Network::new(devices, ip_index, Box::new(oracle), scale.seed);
        // Infrastructure ACLs: ~12% of interfaces never answer direct
        // probes; another ~6% answered during dataset collection but have
        // churned by scan time. Together with the hardened-AS population
        // this lands at RIPE ≈72% / ITDK ≈90% responsiveness (§4.1).
        network.set_darkness(90, 60);
        Internet {
            scale,
            core,
            network,
        }
    }

    /// The live network (probe it like the real Internet).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable network access (fault injection in tests).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Shared topology state.
    pub fn core(&self) -> &Arc<TopologyCore> {
        &self.core
    }

    /// AS graph.
    pub fn graph(&self) -> &AsGraph {
        &self.core.graph
    }

    /// All routers (ground truth).
    pub fn routers(&self) -> &[RouterMeta] {
        &self.core.routers
    }

    /// Vantage points.
    pub fn vantages(&self) -> &[Vantage] {
        &self.core.vantages
    }

    /// Ground truth for an interface address.
    pub fn truth_of(&self, ip: Ipv4Addr) -> Option<&RouterMeta> {
        self.core
            .ip_index
            .get(&ip)
            .map(|device| &self.core.routers[device.0 as usize])
    }

    /// Every interface address in the Internet.
    pub fn all_interfaces(&self) -> Vec<Ipv4Addr> {
        let mut ips: Vec<Ipv4Addr> = self
            .core
            .routers
            .iter()
            .flat_map(|r| r.interfaces.iter().copied())
            .collect();
        ips.sort_unstable();
        ips
    }

    /// Is the AS registered in the United States?
    pub fn is_us(&self, as_id: u32) -> bool {
        self.core.graph.nodes[as_id as usize].country == "US"
    }

    /// Continent of an AS.
    pub fn continent_of(&self, as_id: u32) -> Continent {
        self.core.graph.nodes[as_id as usize].continent
    }
}

/// Tier-adjusted vendor market: the regional prior reweighted by where a
/// vendor's products actually sit in the hierarchy.
fn tier_skewed_market(continent: Continent, tier: Tier) -> Vec<(Vendor, f64)> {
    continent
        .vendor_market()
        .iter()
        .map(|&(vendor, weight)| {
            let factor = match (tier, vendor) {
                // Edge: MikroTik/white-box boom, big-iron rare.
                (Tier::Stub, Vendor::MikroTik) => 3.0,
                (Tier::Stub, Vendor::NetSnmp) => 2.0,
                (Tier::Stub, Vendor::DLink | Vendor::Fortinet) => 2.0,
                (Tier::Stub, Vendor::Juniper) => 0.6,
                (Tier::Stub, Vendor::AlcatelNokia | Vendor::Ericsson) => 0.4,
                // Transit/tier-1: carrier-grade vendors, no SOHO gear.
                (_, Vendor::MikroTik) => 0.1,
                (_, Vendor::NetSnmp) => 0.3,
                (_, Vendor::DLink | Vendor::Teldat) => 0.2,
                (_, Vendor::Juniper) => 1.6,
                (_, Vendor::AlcatelNokia | Vendor::Ericsson) => 1.8,
                _ => 1.0,
            };
            (vendor, weight * factor)
        })
        .collect()
}

/// Sequential public-address allocator that skips reserved space.
struct AddressAllocator {
    next: u32,
}

impl AddressAllocator {
    fn new() -> Self {
        AddressAllocator {
            next: 0x0100_0000, // 1.0.0.0
        }
    }

    fn next(&mut self) -> Ipv4Addr {
        loop {
            let candidate = self.next;
            self.next = self
                .next
                .checked_add(1)
                .expect("IPv4 space exhausted in simulation");
            let ip = Ipv4Addr::from(candidate);
            if !is_reserved(ip) {
                return ip;
            }
            // Jump over reserved blocks wholesale for speed.
            if candidate == 0x0a00_0000 {
                self.next = 0x0b00_0000; // skip 10/8
            } else if candidate == 0x7f00_0000 {
                self.next = 0x8000_0000; // skip 127/8
            } else if candidate == 0xac10_0000 {
                self.next = 0xac20_0000; // skip 172.16/12
            } else if candidate == 0xc0a8_0000 {
                self.next = 0xc0a9_0000; // skip 192.168/16
            }
        }
    }
}

/// Paper §6: private, loopback and reserved addresses are excluded from
/// analysis; the generator never allocates them.
pub fn is_reserved(ip: Ipv4Addr) -> bool {
    let octets = ip.octets();
    ip.is_private()
        || ip.is_loopback()
        || ip.is_multicast()
        || ip.is_broadcast()
        || octets[0] == 0
        || octets[0] >= 224
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Internet {
        Internet::generate(Scale::tiny())
    }

    #[test]
    fn generation_produces_consistent_structures() {
        let internet = tiny();
        assert_eq!(internet.graph().len(), Scale::tiny().ases);
        assert!(!internet.routers().is_empty());
        // Interface index round-trips.
        for router in internet.routers() {
            for &ip in &router.interfaces {
                let truth = internet.truth_of(ip).unwrap();
                assert_eq!(truth.device, router.device);
            }
        }
        // No reserved addresses allocated.
        for ip in internet.all_interfaces() {
            assert!(!is_reserved(ip), "allocated reserved address {ip}");
        }
    }

    #[test]
    fn every_as_has_routers_and_a_border() {
        let internet = tiny();
        for (as_id, routers) in internet.core().as_routers.iter().enumerate() {
            assert!(!routers.is_empty(), "AS {as_id} has no routers");
            assert!(
                !internet.core().as_borders[as_id].is_empty(),
                "AS {as_id} has no border routers"
            );
        }
    }

    #[test]
    fn routed_paths_end_at_destination() {
        let internet = tiny();
        let vantage = internet.vantages()[0];
        let targets: Vec<Ipv4Addr> = internet.all_interfaces().into_iter().take(50).collect();
        let mut resolved = 0;
        for target in targets {
            if let Some(path) = internet.network().route(vantage.id, target) {
                resolved += 1;
                let last = path.hops.last().unwrap();
                assert_eq!(last.ingress, target);
                // No device repeats consecutively.
                for pair in path.hops.windows(2) {
                    assert_ne!(pair[0].device, pair[1].device);
                }
            }
        }
        assert!(resolved >= 45, "only {resolved}/50 destinations routed");
    }

    #[test]
    fn vendor_mixture_reflects_regional_markets() {
        let internet = Internet::generate(Scale::small());
        let mut asia = HashMap::new();
        let mut north_america = HashMap::new();
        for router in internet.routers() {
            let continent = internet.continent_of(router.as_id);
            let bucket = match continent {
                Continent::Asia => &mut asia,
                Continent::NorthAmerica => &mut north_america,
                _ => continue,
            };
            *bucket.entry(router.vendor).or_insert(0usize) += 1;
        }
        let top =
            |m: &HashMap<Vendor, usize>| m.iter().max_by_key(|(_, &c)| c).map(|(&v, _)| v).unwrap();
        assert_eq!(top(&north_america), Vendor::Cisco);
        let huawei_asia = *asia.get(&Vendor::Huawei).unwrap_or(&0);
        let cisco_asia = *asia.get(&Vendor::Cisco).unwrap_or(&0);
        assert!(
            huawei_asia > cisco_asia / 2,
            "Huawei too rare in Asia: {huawei_asia} vs Cisco {cisco_asia}"
        );
    }

    #[test]
    fn most_ases_are_vendor_homogeneous() {
        let internet = Internet::generate(Scale::small());
        let mut single = 0usize;
        let mut multi = 0usize;
        for routers in &internet.core().as_routers {
            if routers.len() < 2 {
                continue;
            }
            let vendors: std::collections::HashSet<Vendor> = routers
                .iter()
                .map(|&r| internet.routers()[r as usize].vendor)
                .collect();
            if vendors.len() == 1 {
                single += 1;
            } else {
                multi += 1;
            }
        }
        // Appendix A.1: about half of multi-router networks run one vendor.
        let fraction = single as f64 / (single + multi) as f64;
        assert!(
            (0.25..=0.85).contains(&fraction),
            "homogeneous fraction {fraction}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.routers().len(), b.routers().len());
        for (x, y) in a.routers().iter().zip(b.routers()) {
            assert_eq!(x.vendor, y.vendor);
            assert_eq!(x.interfaces, y.interfaces);
        }
    }

    #[test]
    fn reserved_space_is_reserved() {
        assert!(is_reserved(Ipv4Addr::new(10, 1, 2, 3)));
        assert!(is_reserved(Ipv4Addr::new(127, 0, 0, 1)));
        assert!(is_reserved(Ipv4Addr::new(192, 168, 1, 1)));
        assert!(is_reserved(Ipv4Addr::new(172, 20, 0, 1)));
        assert!(is_reserved(Ipv4Addr::new(224, 0, 0, 5)));
        assert!(!is_reserved(Ipv4Addr::new(1, 0, 0, 1)));
        assert!(!is_reserved(Ipv4Addr::new(8, 8, 8, 8)));
    }
}
