//! The simulated network: devices, interface addressing, delivery.
//!
//! [`Network`] splits every [`RouterDevice`] in two. The fixed parts
//! ([`DeviceStatic`]) sit in one table that every fork shares; each
//! device's mutable state ([`DeviceState`]: IPID counters, RNG) sits
//! behind its own mutex (IPID counters are per-router and interfaces
//! alias onto them, so concurrent probes of two interfaces of one router
//! must serialise — exactly the property that MIDAR-style alias
//! resolution exploits). Routing is delegated to a
//! [`RouteOracle`] provided by the topology layer; the network itself only
//! knows how to walk a router-level path, decrement TTLs, generate
//! time-exceeded errors and apply path characteristics. A traceroute asks
//! for its path once ([`Network::route`]) and sends every TTL along the
//! borrowed path ([`Network::probe_along`]).

use crate::link::{path_character_for, splitmix64, FaultInjector, PathCharacter};
use lfp_packet::ipv4::Ipv4Packet;
use lfp_stack::device::{DeviceState, DeviceStatic, RouterDevice};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::sync::Mutex;

/// Opaque device identifier (index into the network's device table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

/// Opaque vantage-point identifier, assigned by the topology layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VantageId(pub u32);

/// One hop of a router-level path: the device and the interface address a
/// TTL-expiry response would be sourced from (the ingress interface, which
/// is what traceroute observes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Device at this hop.
    pub device: DeviceId,
    /// Ingress interface address.
    pub ingress: Ipv4Addr,
}

/// A router-level forwarding path, vantage → destination.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoutePath {
    /// Ordered intermediate hops (excludes the vantage host; the final hop
    /// is the destination itself when it is a router interface).
    pub hops: Vec<Hop>,
}

/// Routing knowledge, provided by the topology layer.
pub trait RouteOracle: Send + Sync {
    /// Router-level path from a vantage point toward `dst`, or `None` if
    /// unreachable.
    fn route(&self, vantage: VantageId, dst: Ipv4Addr) -> Option<RoutePath>;
}

/// A trivial oracle for unit tests: every destination is one hop away.
pub struct DirectOracle;

impl RouteOracle for DirectOracle {
    fn route(&self, _vantage: VantageId, _dst: Ipv4Addr) -> Option<RoutePath> {
        Some(RoutePath::default())
    }
}

/// A response observed by the prober.
#[derive(Debug, Clone, PartialEq)]
pub struct Reception {
    /// Virtual receive time at the prober, in seconds.
    pub at: f64,
    /// The raw IPv4 datagram received.
    pub datagram: Vec<u8>,
}

/// The simulated Internet fabric.
pub struct Network {
    /// Fixed device descriptions, indexed by device id; shared by forks.
    statics: Arc<[DeviceStatic]>,
    /// Mutable device state, index-aligned with `statics`; private to
    /// each fork.
    states: Vec<Mutex<DeviceState>>,
    ip_index: Arc<HashMap<Ipv4Addr, DeviceId>>,
    oracle: Arc<dyn RouteOracle>,
    faults: FaultInjector,
    base_loss: f64,
    /// Infrastructure-ACL model: (permanently dark ‰, churn-band ‰).
    darkness: (u32, u32),
    seed: u64,
}

/// Virtual-time boundary separating the dataset-collection era from the
/// scanning era, for the interface-churn model (seconds).
pub const CHURN_EPOCH: f64 = 500_000.0;

impl Network {
    /// Assemble a network from devices, their interface addresses, and a
    /// routing oracle. `interfaces` maps each address to its device.
    pub fn new(
        devices: Vec<RouterDevice>,
        interfaces: HashMap<Ipv4Addr, DeviceId>,
        oracle: Box<dyn RouteOracle>,
        seed: u64,
    ) -> Self {
        for &id in interfaces.values() {
            assert!(
                (id.0 as usize) < devices.len(),
                "interface maps to unknown device {id:?}"
            );
        }
        let (statics, states): (Vec<DeviceStatic>, Vec<DeviceState>) =
            devices.into_iter().map(RouterDevice::into_parts).unzip();
        Network {
            statics: statics.into(),
            states: states.into_iter().map(Mutex::new).collect(),
            ip_index: Arc::new(interfaces),
            oracle: Arc::from(oracle),
            faults: FaultInjector::none(),
            base_loss: 0.01,
            darkness: (0, 0),
            seed,
        }
    }

    /// Fork an independent copy of this network: same topology, routing
    /// oracle, configuration and device table, but a private copy of every
    /// device's mutable state (IPID counters, RNG streams). That copy is
    /// one fixed-size [`DeviceState`] per device, with no heap allocation
    /// per device; the fixed descriptions are shared, not copied.
    ///
    /// Forks make measurement campaigns order-independent: two scans run
    /// against separate forks observe identical counter histories whether
    /// they execute sequentially or concurrently, which is what lets
    /// `World::build` fan datasets out across threads while staying
    /// bit-identical to a serial build.
    pub fn fork(&self) -> Network {
        Network {
            statics: Arc::clone(&self.statics),
            states: self
                .states
                .iter()
                .map(|state| Mutex::new(state.lock().expect("device mutex poisoned").clone()))
                .collect(),
            ip_index: Arc::clone(&self.ip_index),
            oracle: Arc::clone(&self.oracle),
            faults: self.faults,
            base_loss: self.base_loss,
            darkness: self.darkness,
            seed: self.seed,
        }
    }

    /// Enable the infrastructure-ACL model: `base` per-mille of interfaces
    /// never answer direct probes (they still forward and emit
    /// time-exceeded), and a further `churn` per-mille answered during
    /// dataset collection (virtual time ≥ [`CHURN_EPOCH`]) but no longer
    /// answer at scan time — the policy/address churn real campaigns see
    /// between collection and measurement.
    pub fn set_darkness(&mut self, base_permille: u32, churn_permille: u32) {
        self.darkness = (base_permille, churn_permille);
    }

    /// Is this interface refusing direct probes at virtual time `now`?
    pub fn interface_dark(&self, ip: Ipv4Addr, now: f64) -> bool {
        let (base, churn) = self.darkness;
        if base == 0 && churn == 0 {
            return false;
        }
        let band = (splitmix64(self.seed ^ 0xdac ^ u64::from(u32::from(ip))) % 1000) as u32;
        if band < base {
            return true;
        }
        band < base + churn && now < CHURN_EPOCH
    }

    /// Configure adverse-condition injection (tests, robustness studies).
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Configure the baseline per-traversal loss probability.
    pub fn set_base_loss(&mut self, loss: f64) {
        self.base_loss = loss;
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.statics.len()
    }

    /// Addresses known to the network.
    pub fn interface_count(&self) -> usize {
        self.ip_index.len()
    }

    /// Device owning an interface address.
    pub fn device_of(&self, ip: Ipv4Addr) -> Option<DeviceId> {
        self.ip_index.get(&ip).copied()
    }

    /// Stable path character between the prober and a target address.
    pub fn path_to(&self, target: Ipv4Addr) -> PathCharacter {
        path_character_for(self.seed, u32::from(target), self.base_loss)
    }

    /// Send one probe datagram toward its destination address and collect
    /// the response, if any. `salt` must differ between probes to decorrelate
    /// loss/jitter draws; virtual `send_time` is in seconds.
    ///
    /// This is the fast path used by Internet-wide scans: the probe TTL is
    /// assumed ample (LFP uses 64), so intermediate forwarding succeeds and
    /// only the end-to-end path character applies.
    pub fn probe(&self, datagram: &[u8], send_time: f64, salt: u64) -> Option<Reception> {
        let packet = Ipv4Packet::new_checked(datagram).ok()?;
        let target = packet.dst_addr();
        let device = self.device_of(target)?;
        if self.interface_dark(target, send_time) {
            return None;
        }
        let path = self.path_to(target);
        let mut rng = self.probe_rng(target, salt);

        if self.faults.drops(&mut rng) {
            return None;
        }
        let forward = path.traverse(&mut rng)?;
        let arrival = send_time + forward;
        let mut response = self.answer(device, |fixed, state| {
            fixed.handle_datagram(state, datagram, arrival)
        })?;
        if self.faults.drops(&mut rng) {
            return None;
        }
        let backward = path.traverse(&mut rng)?;
        // The response crosses real routers on the way back: its TTL
        // arrives decremented by the (stable, per-target) hop distance.
        // Fingerprinters must round the observed TTL up to infer the
        // initial TTL — deliver what they would actually see.
        decrement_ttl(&mut response, self.hops_to(target));
        Some(Reception {
            at: arrival + backward,
            datagram: response,
        })
    }

    /// Stable router-hop distance between the prober and a target.
    pub fn hops_to(&self, target: Ipv4Addr) -> u8 {
        (4 + splitmix64(self.seed ^ 0x4095 ^ u64::from(u32::from(target))) % 14) as u8
    }

    /// Send a TTL-limited probe along `route` (the traceroute primitive).
    /// Returns the response — a time-exceeded from an intermediate hop or
    /// the destination's answer — if any.
    ///
    /// `route` must lead to the datagram's destination: the caller routes
    /// once ([`Network::route`]) and sends every probe of a trace along the
    /// borrowed path. Routing is a pure function of (vantage, destination),
    /// so this equals routing every probe.
    pub fn probe_along(
        &self,
        route: &RoutePath,
        datagram: &[u8],
        send_time: f64,
        salt: u64,
    ) -> Option<Reception> {
        let packet = Ipv4Packet::new_checked(datagram).ok()?;
        let target = packet.dst_addr();
        let ttl = packet.ttl();
        let mut rng = self.probe_rng(target, salt.wrapping_add(0x7261_6365));

        if self.faults.drops(&mut rng) {
            return None;
        }

        // Per-hop latency: split the end-to-end character across hops.
        let path = self.path_to(target);
        let hop_count = route.hops.len().max(1);
        let per_hop = path.base_latency / hop_count as f64;
        let mut now = send_time;

        for (index, hop) in route.hops.iter().enumerate() {
            now += per_hop;
            if self.base_loss > 0.0 && rand::Rng::gen_bool(&mut rng, self.base_loss) {
                return None; // forwarding loss at this hop
            }
            let remaining_ttl = ttl.saturating_sub(index as u8 + 1);
            let is_last = index + 1 == route.hops.len();
            if remaining_ttl == 0 && !(is_last && hop.ingress == target) {
                // TTL expired in transit: this hop answers (or silently
                // drops, per its exposure posture).
                let mut response = self.answer(hop.device, |fixed, state| {
                    fixed.time_exceeded(state, datagram, hop.ingress, now)
                })?;
                let back = path.traverse(&mut rng)?;
                decrement_ttl(&mut response, index as u8);
                return Some(Reception {
                    at: now + back,
                    datagram: response,
                });
            }
            if is_last && hop.ingress == target {
                // Destination interface reached.
                if remaining_ttl == 0 && ttl as usize <= index {
                    return None;
                }
                let mut response = self.answer(hop.device, |fixed, state| {
                    fixed.handle_datagram(state, datagram, now)
                })?;
                let back = path.traverse(&mut rng)?;
                decrement_ttl(&mut response, index as u8);
                return Some(Reception {
                    at: now + back,
                    datagram: response,
                });
            }
        }
        None
    }

    /// The routed path for a vantage/destination pair, or `None` when
    /// `dst` is unreachable: what [`Network::probe_along`] walks, and what
    /// dataset builders read when they need hop lists without sending
    /// packets.
    pub fn route(&self, vantage: VantageId, dst: Ipv4Addr) -> Option<RoutePath> {
        self.oracle.route(vantage, dst)
    }

    /// Let device `id` answer with its fixed description and its state,
    /// the state locked for the call.
    fn answer<T>(&self, id: DeviceId, f: impl FnOnce(&DeviceStatic, &mut DeviceState) -> T) -> T {
        let index = id.0 as usize;
        f(
            &self.statics[index],
            &mut self.states[index].lock().expect("device mutex poisoned"),
        )
    }

    fn probe_rng(&self, target: Ipv4Addr, salt: u64) -> SmallRng {
        // Hash target and salt independently before combining: callers
        // commonly derive the salt from a target index that correlates
        // with the address itself, and a naive XOR would cancel the two
        // (leaving every target with the same per-round stream).
        let h = splitmix64(
            self.seed
                ^ splitmix64(u64::from(u32::from(target)))
                    .wrapping_add(splitmix64(salt.wrapping_add(0x5bd1_e995))),
        );
        SmallRng::seed_from_u64(h)
    }
}

/// Apply return-path TTL decay to a datagram in place, re-checksumming.
fn decrement_ttl(datagram: &mut [u8], hops: u8) {
    let mut packet = Ipv4Packet::new_unchecked(&mut *datagram);
    let ttl = packet.ttl().saturating_sub(hops).max(1);
    packet.set_ttl(ttl);
    packet.fill_checksum();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traceroute::{traceroute, TracerouteOptions};
    use lfp_packet::icmp::IcmpRepr;
    use lfp_packet::ipv4::{self, Ipv4Repr, Protocol};
    use lfp_stack::catalog;
    use lfp_stack::vendor::Vendor;
    use std::sync::Arc;

    const PROBER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    fn tiny_network() -> (Network, Ipv4Addr) {
        let profile = Arc::new(catalog::default_variant(Vendor::MikroTik));
        // Search for a seed whose sampled posture answers ICMP.
        let device = (0..500)
            .map(|seed| RouterDevice::new(Arc::clone(&profile), seed))
            .find(|d| d.exposure().icmp)
            .expect("an ICMP-responsive MikroTik exists");
        let ip = Ipv4Addr::new(10, 9, 8, 7);
        let mut interfaces = HashMap::new();
        interfaces.insert(ip, DeviceId(0));
        let mut network = Network::new(vec![device], interfaces, Box::new(DirectOracle), 99);
        network.set_base_loss(0.0);
        (network, ip)
    }

    fn echo_probe(dst: Ipv4Addr, ttl: u8) -> Vec<u8> {
        let icmp = IcmpRepr::EchoRequest {
            ident: 1,
            seq: 1,
            payload: vec![0; 56],
        }
        .to_bytes();
        ipv4::build_datagram(
            &Ipv4Repr {
                src: PROBER,
                dst,
                protocol: Protocol::Icmp,
                ttl,
                ident: 1,
                dont_frag: false,
                payload_len: icmp.len(),
            },
            &icmp,
        )
    }

    #[test]
    fn probe_roundtrip_returns_reply_with_latency() {
        let (network, ip) = tiny_network();
        let reception = network.probe(&echo_probe(ip, 64), 0.0, 0).unwrap();
        assert!(reception.at > 0.0, "latency must be positive");
        let packet = Ipv4Packet::new_checked(&reception.datagram[..]).unwrap();
        assert_eq!(packet.src_addr(), ip);
        assert_eq!(packet.dst_addr(), PROBER);
    }

    #[test]
    fn probe_to_unknown_address_vanishes() {
        let (network, _) = tiny_network();
        let dark = Ipv4Addr::new(203, 0, 113, 99);
        assert!(network.probe(&echo_probe(dark, 64), 0.0, 0).is_none());
    }

    #[test]
    fn forks_are_independent_and_identical() {
        let (network, ip) = tiny_network();
        let fork_a = network.fork();
        let fork_b = network.fork();
        // Advancing one fork's device state must not affect the other.
        for round in 0..5 {
            let _ = fork_a.probe(&echo_probe(ip, 64), round as f64, round);
        }
        let from_b = fork_b.probe(&echo_probe(ip, 64), 100.0, 42);
        let from_fresh = network.fork().probe(&echo_probe(ip, 64), 100.0, 42);
        assert_eq!(from_b, from_fresh);
    }

    #[test]
    fn probing_is_deterministic_given_salt() {
        let (a, ip) = tiny_network();
        let (b, _) = tiny_network();
        let ra = a.probe(&echo_probe(ip, 64), 0.5, 7);
        let rb = b.probe(&echo_probe(ip, 64), 0.5, 7);
        assert_eq!(ra, rb);
    }

    #[test]
    fn full_fault_injection_drops_everything() {
        let (mut network, ip) = tiny_network();
        network.set_faults(FaultInjector {
            drop_chance: 1.0,
            duplicate_chance: 0.0,
        });
        assert!(network.probe(&echo_probe(ip, 64), 0.0, 0).is_none());
    }

    /// Two-router chain: hop 1 (a transit Juniper) then hop 2 (the
    /// destination MikroTik). Returns the network and both addresses.
    fn chain_network() -> (Network, Ipv4Addr, Ipv4Addr) {
        let p1 = Arc::new(catalog::default_variant(Vendor::Juniper));
        let p2 = Arc::new(catalog::default_variant(Vendor::MikroTik));
        let transit = (0..200)
            .map(|s| RouterDevice::new(Arc::clone(&p1), s))
            .find(|d| d.exposure().icmp)
            .unwrap();
        let dest = (0..200)
            .map(|s| RouterDevice::new(Arc::clone(&p2), 1000 + s))
            .find(|d| d.exposure().icmp)
            .unwrap();
        let transit_ip = Ipv4Addr::new(10, 0, 0, 1);
        let dest_ip = Ipv4Addr::new(10, 0, 0, 2);
        let mut interfaces = HashMap::new();
        interfaces.insert(transit_ip, DeviceId(0));
        interfaces.insert(dest_ip, DeviceId(1));

        struct ChainOracle {
            transit_ip: Ipv4Addr,
            dest_ip: Ipv4Addr,
        }
        impl RouteOracle for ChainOracle {
            fn route(&self, _v: VantageId, dst: Ipv4Addr) -> Option<RoutePath> {
                (dst == self.dest_ip).then(|| RoutePath {
                    hops: vec![
                        Hop {
                            device: DeviceId(0),
                            ingress: self.transit_ip,
                        },
                        Hop {
                            device: DeviceId(1),
                            ingress: self.dest_ip,
                        },
                    ],
                })
            }
        }

        let mut network = Network::new(
            vec![transit, dest],
            interfaces,
            Box::new(ChainOracle {
                transit_ip,
                dest_ip,
            }),
            5,
        );
        network.set_base_loss(0.0);
        (network, transit_ip, dest_ip)
    }

    #[test]
    fn routed_probe_with_expired_ttl_yields_time_exceeded() {
        let (network, transit_ip, dest_ip) = chain_network();
        let route = network.route(VantageId(0), dest_ip).unwrap();

        // TTL 1 expires at the transit hop.
        let response = network
            .probe_along(&route, &echo_probe(dest_ip, 1), 0.0, 1)
            .unwrap();
        let packet = Ipv4Packet::new_checked(&response.datagram[..]).unwrap();
        assert_eq!(packet.src_addr(), transit_ip);

        // TTL 2 reaches the destination, which echoes.
        let response = network
            .probe_along(&route, &echo_probe(dest_ip, 2), 0.0, 2)
            .unwrap();
        let packet = Ipv4Packet::new_checked(&response.datagram[..]).unwrap();
        assert_eq!(packet.src_addr(), dest_ip);
    }

    #[test]
    fn traceroute_toward_an_unrouted_destination_is_silent_up_to_the_give_up_cut() {
        let (network, _, _) = chain_network();
        let nowhere = Ipv4Addr::new(203, 0, 113, 5);
        assert_eq!(network.route(VantageId(0), nowhere), None);
        let trace = |options: TracerouteOptions| {
            let result = traceroute(&network, VantageId(0), PROBER, nowhere, options, 0.0, 9);
            assert!(!result.reached);
            result.hops
        };
        let options = TracerouteOptions::default();
        assert_eq!(trace(options), vec![None; 4], "cut after give_up_after");
        let never_give_up = TracerouteOptions {
            give_up_after: 0,
            ..options
        };
        assert_eq!(trace(never_give_up), vec![None; 30], "every TTL tried");
        let short = TracerouteOptions {
            max_ttl: 3,
            ..options
        };
        assert_eq!(trace(short), vec![None; 3], "max_ttl before the cut");
    }

    #[test]
    fn traceroute_under_base_loss_keeps_its_draws() {
        // Per-hop forwarding loss and return-path loss both draw from the
        // probe's own RNG, so the pattern below is fixed by the salts. It
        // was recorded when every probe still re-ran the routing oracle;
        // routing once per trace must not move one draw.
        let (mut network, transit_ip, dest_ip) = chain_network();
        network.set_base_loss(0.3);
        let pattern: Vec<String> = (0..24u64)
            .map(|salt| {
                let result = traceroute(
                    &network,
                    VantageId(0),
                    PROBER,
                    dest_ip,
                    TracerouteOptions::default(),
                    salt as f64 * 2.0,
                    salt,
                );
                let mut trace: String = result
                    .hops
                    .iter()
                    .map(|hop| match hop {
                        Some(ip) if *ip == transit_ip => 't',
                        Some(ip) if *ip == dest_ip => 'd',
                        Some(_) => '?',
                        None => '.',
                    })
                    .collect();
                if result.reached {
                    trace.push('!');
                }
                trace
            })
            .collect();
        assert_eq!(
            pattern.join(" "),
            "t.... t.d! td! ..d! t..d! .d! td! td! .... ..d! t...d! .d! \
             .d! .d! t.d! .d! .d! t..d! td! td! td! td! td! td!"
        );
    }
}
