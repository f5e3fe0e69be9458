//! TTL-limited path discovery (the RIPE-Atlas-style measurement primitive).
//!
//! The topology datasets the paper consumes are built from traceroutes; we
//! rebuild them the same way: UDP probes with increasing TTL, parsing the
//! ICMP time-exceeded answers for intermediate hop interfaces, stopping at
//! the destination's port-unreachable. Unresponsive hops show up as `None`
//! exactly as `*` does in real traceroute output.
//!
//! A trace asks the routing oracle once and walks every probe along that
//! path ([`Network::probe_along`]): a probe costs the walk and the
//! responder's answer, not a route lookup and a datagram build.

use crate::network::{Network, VantageId};
use lfp_packet::icmp::{IcmpKind, IcmpPacket};
use lfp_packet::ipv4::{self, Ipv4Packet, Ipv4Repr, Protocol};
use lfp_packet::udp::UdpRepr;
use std::net::Ipv4Addr;

/// Classic traceroute destination port base.
const PORT_BASE: u16 = 33434;

/// Result of one traceroute measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracerouteResult {
    /// Source (vantage) address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Responding interface per TTL (index 0 = TTL 1); `None` = timeout.
    pub hops: Vec<Option<Ipv4Addr>>,
    /// Whether the destination itself answered.
    pub reached: bool,
}

impl TracerouteResult {
    /// The responsive intermediate router interfaces (the paper's
    /// router-IP extraction rule, §3.2): drop the *last* responsive hop
    /// when it equals the target. A destination address appearing
    /// mid-path — a routed loop or an interface shared with an earlier
    /// router — is a router observation and is kept.
    pub fn intermediate_hops(&self) -> Vec<Ipv4Addr> {
        let mut hops: Vec<Ipv4Addr> = self.hops.iter().flatten().copied().collect();
        if hops.last() == Some(&self.dst) {
            hops.pop();
        }
        hops
    }

    /// Total responsive hops including the destination.
    pub fn responsive_hops(&self) -> usize {
        self.hops.iter().flatten().count()
    }
}

/// Traceroute configuration.
#[derive(Debug, Clone, Copy)]
pub struct TracerouteOptions {
    /// Largest TTL to try.
    pub max_ttl: u8,
    /// Probe attempts per TTL before declaring a timeout.
    pub attempts: u8,
    /// Stop after this many consecutive silent TTLs (0 = never).
    pub give_up_after: u8,
}

impl Default for TracerouteOptions {
    fn default() -> Self {
        TracerouteOptions {
            max_ttl: 30,
            attempts: 2,
            give_up_after: 4,
        }
    }
}

/// Run one UDP traceroute through the simulated network.
///
/// The route is computed once per trace and every probe is sent along it
/// with [`Network::probe_along`]. An unreachable destination has no route
/// and answers nothing, so its trace is the all-silent run cut at
/// `give_up_after`. Each TTL's UDP segment is built once and every attempt
/// goes out of one reused datagram buffer: only the IPv4 header (TTL and
/// ident) differs between them. Every probe's draws are seeded by its own
/// salt, so none of this moves a draw.
pub fn traceroute(
    network: &Network,
    vantage: VantageId,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    options: TracerouteOptions,
    base_time: f64,
    salt: u64,
) -> TracerouteResult {
    let route = network.route(vantage, dst);
    let mut hops = Vec::new();
    let mut reached = false;
    let mut silent_streak = 0u8;
    let mut datagram = Vec::new();

    'ttl: for ttl in 1..=options.max_ttl {
        let mut hop = None;
        if let Some(route) = &route {
            let udp = UdpRepr {
                src_port: 45000 + u16::from(ttl),
                dst_port: PORT_BASE + u16::from(ttl),
                payload: vec![0u8; 12],
            }
            .to_bytes(src, dst);
            datagram.clear();
            datagram.resize(ipv4::HEADER_LEN, 0);
            datagram.extend_from_slice(&udp);
            for attempt in 0..options.attempts.max(1) {
                let probe_salt = salt
                    .wrapping_mul(1_000_003)
                    .wrapping_add(u64::from(ttl) * 17 + u64::from(attempt));
                Ipv4Repr {
                    src,
                    dst,
                    protocol: Protocol::Udp,
                    ttl,
                    ident: u16::from(ttl) << 8 | u16::from(attempt),
                    dont_frag: false,
                    payload_len: udp.len(),
                }
                .emit(&mut Ipv4Packet::new_unchecked(&mut datagram[..]));
                let send_time = base_time + f64::from(ttl) * 0.02 + f64::from(attempt) * 0.5;
                let Some(reception) = network.probe_along(route, &datagram, send_time, probe_salt)
                else {
                    continue;
                };
                let Ok(packet) = Ipv4Packet::new_checked(&reception.datagram[..]) else {
                    continue;
                };
                let responder = packet.src_addr();
                if responder == dst {
                    hop = Some(responder);
                    hops.push(hop);
                    reached = true;
                    break 'ttl;
                }
                // Only accept genuine time-exceeded answers as hops.
                if packet.protocol() == Protocol::Icmp
                    && IcmpPacket::new_checked(packet.payload())
                        .is_ok_and(|icmp| icmp.kind() == Ok(IcmpKind::TimeExceeded))
                {
                    hop = Some(responder);
                    break;
                }
            }
        }
        match hop {
            Some(_) => silent_streak = 0,
            None => {
                silent_streak += 1;
                if options.give_up_after > 0 && silent_streak >= options.give_up_after {
                    hops.push(None);
                    break;
                }
            }
        }
        hops.push(hop);
    }

    TracerouteResult {
        src,
        dst,
        hops,
        reached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{DeviceId, Hop, Network, RouteOracle, RoutePath};
    use lfp_stack::catalog;
    use lfp_stack::device::RouterDevice;
    use lfp_stack::vendor::Vendor;
    use std::collections::HashMap;
    use std::sync::Arc;

    const VANTAGE_IP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 10);

    struct LineOracle {
        chain: Vec<(DeviceId, Ipv4Addr)>,
    }
    impl RouteOracle for LineOracle {
        fn route(&self, _v: VantageId, dst: Ipv4Addr) -> Option<RoutePath> {
            if self.chain.last().map(|&(_, ip)| ip) != Some(dst) {
                return None;
            }
            Some(RoutePath {
                hops: self
                    .chain
                    .iter()
                    .map(|&(device, ingress)| Hop { device, ingress })
                    .collect(),
            })
        }
    }

    /// A 4-hop chain of fully-ICMP-responsive routers ending at a target.
    fn line_network(hops: usize) -> (Network, Ipv4Addr) {
        let mut devices = Vec::new();
        let mut interfaces = HashMap::new();
        let mut chain = Vec::new();
        let vendors = [
            Vendor::Cisco,
            Vendor::Juniper,
            Vendor::Huawei,
            Vendor::MikroTik,
            Vendor::Cisco,
        ];
        for index in 0..hops {
            let profile = Arc::new(catalog::default_variant(vendors[index % vendors.len()]));
            let device = (0..400)
                .map(|s| RouterDevice::new(Arc::clone(&profile), (index as u64) << 32 | s))
                .find(|d| d.exposure().icmp && d.exposure().udp)
                .expect("responsive device");
            let ip = Ipv4Addr::new(10, 1, index as u8, 1);
            interfaces.insert(ip, DeviceId(index as u32));
            chain.push((DeviceId(index as u32), ip));
            devices.push(device);
        }
        let dst = chain.last().unwrap().1;
        let mut network = Network::new(devices, interfaces, Box::new(LineOracle { chain }), 11);
        network.set_base_loss(0.0);
        (network, dst)
    }

    #[test]
    fn traceroute_discovers_every_hop() {
        let (network, dst) = line_network(4);
        let result = traceroute(
            &network,
            VantageId(0),
            VANTAGE_IP,
            dst,
            TracerouteOptions::default(),
            0.0,
            1,
        );
        assert!(result.reached);
        assert_eq!(result.hops.len(), 4);
        for (index, hop) in result.hops.iter().enumerate().take(3) {
            assert_eq!(*hop, Some(Ipv4Addr::new(10, 1, index as u8, 1)));
        }
        assert_eq!(result.hops[3], Some(dst));
        // Intermediate extraction drops the destination.
        assert_eq!(result.intermediate_hops().len(), 3);
    }

    #[test]
    fn intermediate_hops_drop_only_the_trailing_destination() {
        let dst = Ipv4Addr::new(10, 9, 9, 9);
        let a = Ipv4Addr::new(10, 1, 0, 1);
        let b = Ipv4Addr::new(10, 1, 1, 1);
        // The destination address answering mid-path (routed loop or a
        // shared interface) stays in the router population; only the
        // final destination response is dropped.
        let result = TracerouteResult {
            src: VANTAGE_IP,
            dst,
            hops: vec![Some(a), Some(dst), None, Some(b), Some(dst)],
            reached: true,
        };
        assert_eq!(result.intermediate_hops(), vec![a, dst, b]);
        // Without a trailing destination nothing is dropped.
        let unreached = TracerouteResult {
            src: VANTAGE_IP,
            dst,
            hops: vec![Some(a), Some(b), None],
            reached: false,
        };
        assert_eq!(unreached.intermediate_hops(), vec![a, b]);
    }

    #[test]
    fn unreachable_destination_gives_up() {
        let (network, _) = line_network(3);
        let nowhere = Ipv4Addr::new(203, 0, 113, 1);
        let result = traceroute(
            &network,
            VantageId(0),
            VANTAGE_IP,
            nowhere,
            TracerouteOptions {
                max_ttl: 20,
                attempts: 1,
                give_up_after: 4,
            },
            0.0,
            2,
        );
        assert!(!result.reached);
        assert!(result.hops.len() <= 4);
        assert_eq!(result.responsive_hops(), 0);
    }

    #[test]
    fn traceroute_is_deterministic() {
        let (n1, dst) = line_network(4);
        let (n2, _) = line_network(4);
        let opts = TracerouteOptions::default();
        let a = traceroute(&n1, VantageId(0), VANTAGE_IP, dst, opts, 0.0, 3);
        let b = traceroute(&n2, VantageId(0), VANTAGE_IP, dst, opts, 0.0, 3);
        assert_eq!(a, b);
    }
}
