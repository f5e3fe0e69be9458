//! A stateful simulated router answering raw IPv4 datagrams.
//!
//! [`RouterDevice`] is the object the simulator delivers packets to. It
//! is two parts: a [`DeviceStatic`] fixed at creation (profile, SNMPv3
//! engine, sampled exposure decisions, IPID plan) and a small
//! [`DeviceState`] that answering advances (IPID counters shared across
//! interfaces, the RNG stream). A network stores the fixed parts once
//! and copies only the states when it forks. Together they produce
//! byte-exact responses: echo replies, TCP RSTs or SYN-ACKs, ICMP port
//! unreachables with vendor-specific quoting, SNMPv3 discovery reports,
//! and TTL time-exceeded errors for traceroute.
//!
//! Everything the classifier later observes is generated here from the
//! [`StackProfile`] knobs; no vendor label ever crosses the wire except
//! inside a BER-encoded engine ID, exactly as in the real measurement.

use crate::ipid::{IpidCounters, IpidEngine};
use crate::profile::StackProfile;
use lfp_packet::icmp::{IcmpPacket, IcmpRepr, UnreachableCode};
use lfp_packet::ipv4::{self, Ipv4Packet, Ipv4Repr, Protocol};
use lfp_packet::snmp::{EngineId, SnmpV3Message};
use lfp_packet::tcp::{TcpFlags, TcpOptions, TcpPacket, TcpRepr};
use lfp_packet::udp::{UdpPacket, UdpRepr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The SNMP agent port.
pub const SNMP_PORT: u16 = 161;

/// Per-protocol exposure decisions, sampled once per device (this is what
/// makes responsiveness all-or-nothing per protocol, as in Figures 5/6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exposure {
    /// Echo replies enabled.
    pub icmp: bool,
    /// RSTs to closed ports enabled.
    pub tcp: bool,
    /// Port unreachables enabled.
    pub udp: bool,
    /// SNMPv3 agent reachable.
    pub snmp: bool,
    /// Management service (banner) port, if exposed.
    pub open_port: Option<u16>,
    /// TTL-expiry errors enabled. Deliberately decoupled from `icmp`:
    /// many routers emit time-exceeded (it is how operators debug paths)
    /// while filtering direct probes, which is why traceroute datasets
    /// contain large unresponsive-to-scanning populations.
    pub time_exceeded: bool,
}

/// What a router is, fixed when it is created: its stack profile,
/// sampled exposure, SNMPv3 engine, boot count, uptime origin,
/// canonical address and IPID plan. The simulated network keeps one
/// table of these, shared by every fork of it.
#[derive(Debug, Clone)]
pub struct DeviceStatic {
    profile: Arc<StackProfile>,
    ipid: IpidEngine,
    exposure: Exposure,
    engine_id: EngineId,
    engine_boots: u32,
    /// Virtual uptime at simulation time zero, in seconds.
    uptime_base: u32,
    /// Canonical (loopback) interface, if assigned by the topology.
    canonical_ip: Option<Ipv4Addr>,
}

/// What changes as a router answers: its IPID counters and its RNG
/// stream. Fixed-size and heap-free, so copying it is a memcpy.
#[derive(Debug, Clone)]
pub struct DeviceState {
    counters: IpidCounters,
    rng: SmallRng,
}

/// A simulated router: its fixed description plus its mutable state.
#[derive(Debug, Clone)]
pub struct RouterDevice {
    fixed: DeviceStatic,
    state: DeviceState,
}

impl RouterDevice {
    /// Instantiate a device with deterministic per-device randomness.
    pub fn new(profile: Arc<StackProfile>, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (ipid, counters) = IpidEngine::new(profile.ipid, profile.background_pps, &mut rng);
        let (icmp, tcp, udp) = profile.exposure.sample_posture(&mut rng);
        let exposure = Exposure {
            icmp,
            tcp,
            udp,
            snmp: rng.gen_bool(profile.exposure.snmp),
            open_port: if rng.gen_bool(profile.exposure.open_service) {
                Some(*[22u16, 23, 80].get(rng.gen_range(0..3)).unwrap())
            } else {
                None
            },
            time_exceeded: rng.gen_bool(0.9),
        };
        let engine_id = EngineId::text(
            profile.vendor.pen(),
            &format!("{}-{seed:012x}", profile.engine_id_prefix),
        );
        let engine_boots = rng.gen_range(1..=60);
        let uptime_base = rng.gen_range(3_600..30_000_000);
        RouterDevice {
            fixed: DeviceStatic {
                profile,
                ipid,
                exposure,
                engine_id,
                engine_boots,
                uptime_base,
                canonical_ip: None,
            },
            state: DeviceState { counters, rng },
        }
    }

    /// Assign the router's canonical (loopback) address. ICMP errors are
    /// sourced from it when the profile says so; this is what iffinder-style
    /// alias resolution observes.
    pub fn set_canonical_ip(&mut self, ip: Ipv4Addr) {
        self.fixed.canonical_ip = Some(ip);
    }

    /// The behavioural profile driving this device.
    pub fn profile(&self) -> &StackProfile {
        self.fixed.profile()
    }

    /// Sampled exposure decisions.
    pub fn exposure(&self) -> Exposure {
        self.fixed.exposure()
    }

    /// The SNMPv3 engine identifier (vendor truth leaks only through this).
    pub fn engine_id(&self) -> &EngineId {
        self.fixed.engine_id()
    }

    /// Split into the fixed description and the mutable state.
    pub fn into_parts(self) -> (DeviceStatic, DeviceState) {
        (self.fixed, self.state)
    }

    /// Handle an IPv4 datagram addressed to one of this router's
    /// interfaces; see [`DeviceStatic::handle_datagram`].
    pub fn handle_datagram(&mut self, datagram: &[u8], now: f64) -> Option<Vec<u8>> {
        self.fixed.handle_datagram(&mut self.state, datagram, now)
    }

    /// A time-exceeded error; see [`DeviceStatic::time_exceeded`].
    pub fn time_exceeded(
        &mut self,
        original: &[u8],
        from_ip: Ipv4Addr,
        now: f64,
    ) -> Option<Vec<u8>> {
        self.fixed
            .time_exceeded(&mut self.state, original, from_ip, now)
    }
}

impl DeviceStatic {
    /// The behavioural profile driving this device.
    pub fn profile(&self) -> &StackProfile {
        &self.profile
    }

    /// Sampled exposure decisions.
    pub fn exposure(&self) -> Exposure {
        self.exposure
    }

    /// The SNMPv3 engine identifier (vendor truth leaks only through this).
    pub fn engine_id(&self) -> &EngineId {
        &self.engine_id
    }

    /// Management banner if a service is exposed.
    pub fn banner(&self) -> Option<&'static str> {
        self.exposure.open_port.map(|_| self.profile.banner)
    }

    /// Handle an IPv4 datagram addressed to one of this router's
    /// interfaces, advancing `state`; returns the full response
    /// datagram, if any.
    pub fn handle_datagram(
        &self,
        state: &mut DeviceState,
        datagram: &[u8],
        now: f64,
    ) -> Option<Vec<u8>> {
        let packet = Ipv4Packet::new_checked(datagram).ok()?;
        let src = packet.src_addr();
        let dst = packet.dst_addr();
        match packet.protocol() {
            Protocol::Icmp => {
                let request_ipid = packet.ident();
                self.handle_icmp(state, packet.payload(), src, dst, request_ipid, now)
            }
            Protocol::Tcp => self.handle_tcp(state, packet.payload(), src, dst, now),
            Protocol::Udp => self.handle_udp(state, datagram, src, dst, now),
            Protocol::Other(_) => None,
        }
    }

    /// Generate an ICMP time-exceeded for a datagram whose TTL expired
    /// here, sourced from interface `from_ip`. Used by the simulator's
    /// forwarding path; shares the UDP-class IPID counter because both are
    /// control-plane ICMP errors.
    pub fn time_exceeded(
        &self,
        state: &mut DeviceState,
        original: &[u8],
        from_ip: Ipv4Addr,
        now: f64,
    ) -> Option<Vec<u8>> {
        if !self.exposure.time_exceeded {
            return None;
        }
        let offender = Ipv4Packet::new_checked(original).ok()?;
        let dst = offender.src_addr();
        let quote_len = self.profile.quote.quoted_len(original.len());
        let mut quote = original[..original.len().min(quote_len)].to_vec();
        quote.resize(quote_len, 0);
        let icmp = IcmpRepr::TimeExceeded { quote }.to_bytes();
        let ipid = self.next_ipid(state, Protocol::Udp, now);
        Some(self.wrap_ip_with_ipid(
            from_ip,
            dst,
            Protocol::Icmp,
            self.profile.ttl.udp,
            ipid,
            &icmp,
        ))
    }

    fn handle_icmp(
        &self,
        state: &mut DeviceState,
        payload: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
        request_ipid: u16,
        now: f64,
    ) -> Option<Vec<u8>> {
        if !self.exposure.icmp {
            return None;
        }
        let request = IcmpPacket::new_checked(payload).ok()?;
        let IcmpRepr::EchoRequest {
            ident,
            seq,
            payload,
        } = IcmpRepr::parse(&request).ok()?
        else {
            return None;
        };
        let reflected = match self.profile.echo_payload_cap {
            Some(cap) => payload[..payload.len().min(cap as usize)].to_vec(),
            None => payload,
        };
        let reply = IcmpRepr::EchoReply {
            ident,
            seq,
            payload: reflected,
        }
        .to_bytes();
        // The "ICMP IPID echo" feature: some stacks copy the request IPID
        // into the reply instead of allocating one.
        let ipid = if self.profile.icmp_echo_reflect_ipid {
            request_ipid
        } else {
            self.next_ipid(state, Protocol::Icmp, now)
        };
        Some(self.wrap_ip_with_ipid(
            dst,
            src,
            Protocol::Icmp,
            self.profile.ttl.icmp,
            ipid,
            &reply,
        ))
    }

    fn handle_tcp(
        &self,
        state: &mut DeviceState,
        payload: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
        now: f64,
    ) -> Option<Vec<u8>> {
        let segment = TcpPacket::new_checked(payload).ok()?;
        let probe = TcpRepr::parse(&segment).ok()?;
        if probe.flags.contains(TcpFlags::RST) {
            // RFC 793: never respond to a reset.
            return None;
        }
        if Some(probe.dst_port) == self.exposure.open_port {
            return self.answer_open_port(state, &probe, src, dst, now);
        }
        if !self.exposure.tcp {
            return None;
        }
        // Closed port: RST. Sequence-number selection on the SYN probe is
        // the RFC 793 §3.4 quirk LFP measures: the probe carries a
        // non-zero acknowledgment *field* without the ACK *flag*, and
        // stacks differ in whether they copy that field into the RST's
        // sequence number or use zero.
        let (seq, ack, flags) = if probe.flags.contains(TcpFlags::ACK) {
            // Stray ACK: every stack answers RST with seq from the ack field.
            (probe.ack, 0, TcpFlags::RST)
        } else {
            let seq = if self.profile.rst_seq_from_ack {
                probe.ack
            } else {
                0
            };
            (
                seq,
                probe.seq.wrapping_add(1),
                TcpFlags::RST | TcpFlags::ACK,
            )
        };
        let rst = TcpRepr {
            src_port: probe.dst_port,
            dst_port: probe.src_port,
            seq,
            ack,
            flags,
            window: 0,
            options: TcpOptions::default(),
        }
        .to_bytes(dst, src);
        let ipid = self.next_ipid(state, Protocol::Tcp, now);
        Some(self.wrap_ip_with_ipid(dst, src, Protocol::Tcp, self.profile.ttl.tcp, ipid, &rst))
    }

    fn answer_open_port(
        &self,
        state: &mut DeviceState,
        probe: &TcpRepr,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        now: f64,
    ) -> Option<Vec<u8>> {
        if !probe.flags.contains(TcpFlags::SYN) || probe.flags.contains(TcpFlags::ACK) {
            return None; // only the handshake opener is modelled
        }
        let shape = &self.profile.syn_ack;
        let syn_ack = TcpRepr {
            src_port: probe.dst_port,
            dst_port: probe.src_port,
            seq: state.rng.gen(),
            ack: probe.seq.wrapping_add(1),
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: shape.window,
            options: TcpOptions {
                mss: Some(shape.mss),
                window_scale: shape.window_scale,
                sack_permitted: shape.sack_permitted,
                timestamps: if shape.timestamps {
                    Some(((now * 1000.0) as u32, 0))
                } else {
                    None
                },
            },
        }
        .to_bytes(dst, src);
        let ipid = self.next_ipid(state, Protocol::Tcp, now);
        Some(self.wrap_ip_with_ipid(
            dst,
            src,
            Protocol::Tcp,
            self.profile.ttl.tcp,
            ipid,
            &syn_ack,
        ))
    }

    fn handle_udp(
        &self,
        state: &mut DeviceState,
        datagram: &[u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
        now: f64,
    ) -> Option<Vec<u8>> {
        let packet = Ipv4Packet::new_checked(datagram).ok()?;
        let udp = UdpPacket::new_checked(packet.payload()).ok()?;
        if !udp.verify_checksum(src, dst) {
            return None;
        }
        if udp.dst_port() == SNMP_PORT {
            return self.handle_snmp(state, &udp, src, dst, now);
        }
        if !self.exposure.udp {
            return None;
        }
        // Closed port → ICMP port unreachable quoting the offender.
        let quote_len = self.profile.quote.quoted_len(datagram.len());
        let mut quote = datagram[..datagram.len().min(quote_len)].to_vec();
        quote.resize(quote_len, 0);
        let icmp = IcmpRepr::DstUnreachable {
            code: UnreachableCode::Port,
            quote,
        }
        .to_bytes();
        let ipid = self.next_ipid(state, Protocol::Udp, now);
        let source = if self.profile.errors_from_loopback {
            self.canonical_ip.unwrap_or(dst)
        } else {
            dst
        };
        Some(self.wrap_ip_with_ipid(
            source,
            src,
            Protocol::Icmp,
            self.profile.ttl.udp,
            ipid,
            &icmp,
        ))
    }

    fn handle_snmp(
        &self,
        state: &mut DeviceState,
        udp: &UdpPacket<&[u8]>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        now: f64,
    ) -> Option<Vec<u8>> {
        if !self.exposure.snmp {
            return None;
        }
        let request = SnmpV3Message::parse(udp.payload()).ok()?;
        if !request.usm.engine_id.is_empty() {
            // Only the unauthenticated discovery step is served; anything
            // further would need credentials.
            return None;
        }
        let engine_time = self.uptime_base.saturating_add(now as u32);
        let report = SnmpV3Message::discovery_report(
            request.msg_id,
            &self.engine_id,
            self.engine_boots,
            engine_time,
            state.rng.gen_range(1..10_000),
        );
        let reply = UdpRepr {
            src_port: SNMP_PORT,
            dst_port: udp.src_port(),
            payload: report.to_bytes().ok()?,
        }
        .to_bytes(dst, src);
        let ipid = self.next_ipid(state, Protocol::Udp, now);
        Some(self.wrap_ip_with_ipid(dst, src, Protocol::Udp, self.profile.ttl.udp, ipid, &reply))
    }

    /// The IPID for a response of `protocol`'s class, advancing `state`.
    fn next_ipid(&self, state: &mut DeviceState, protocol: Protocol, now: f64) -> u16 {
        self.ipid
            .allocate(&mut state.counters, protocol, now, &mut state.rng)
    }

    fn wrap_ip_with_ipid(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: Protocol,
        ttl: u8,
        ipid: u16,
        payload: &[u8],
    ) -> Vec<u8> {
        let repr = Ipv4Repr {
            src,
            dst,
            protocol,
            ttl,
            ident: ipid,
            dont_frag: ipid == 0, // zero-IPID stacks set DF, per RFC 6864
            payload_len: payload.len(),
        };
        ipv4::build_datagram(&repr, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::vendor::Vendor;
    use lfp_packet::icmp::IcmpKind;

    fn device_for(vendor: Vendor, seed: u64) -> RouterDevice {
        let profile = catalog::default_variant(vendor);
        RouterDevice::new(Arc::new(profile), seed)
    }

    fn fully_exposed(vendor: Vendor) -> RouterDevice {
        // Search seeds until every protocol is exposed, so response-shape
        // tests are independent of exposure sampling.
        (0..2000)
            .map(|seed| device_for(vendor, seed))
            .find(|d| {
                let e = d.exposure();
                e.icmp && e.tcp && e.udp && e.snmp && e.time_exceeded
            })
            .expect("an exposed device should exist within 2000 seeds")
    }

    const PROBER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const TARGET: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 77);

    fn echo_probe(ipid: u16) -> Vec<u8> {
        let icmp = IcmpRepr::EchoRequest {
            ident: 7,
            seq: 1,
            payload: vec![0x41; 56],
        }
        .to_bytes();
        ipv4::build_datagram(
            &Ipv4Repr {
                src: PROBER,
                dst: TARGET,
                protocol: Protocol::Icmp,
                ttl: 64,
                ident: ipid,
                dont_frag: false,
                payload_len: icmp.len(),
            },
            &icmp,
        )
    }

    fn udp_probe() -> Vec<u8> {
        let udp = UdpRepr {
            src_port: 50000,
            dst_port: 33533,
            payload: vec![0; 12],
        }
        .to_bytes(PROBER, TARGET);
        ipv4::build_datagram(
            &Ipv4Repr {
                src: PROBER,
                dst: TARGET,
                protocol: Protocol::Udp,
                ttl: 64,
                ident: 2,
                dont_frag: false,
                payload_len: udp.len(),
            },
            &udp,
        )
    }

    fn tcp_syn_probe(ack: u32) -> Vec<u8> {
        let tcp = TcpRepr {
            src_port: 50001,
            dst_port: 33533,
            seq: 1000,
            ack,
            flags: TcpFlags::SYN,
            window: 1024,
            options: TcpOptions::default(),
        }
        .to_bytes(PROBER, TARGET);
        ipv4::build_datagram(
            &Ipv4Repr {
                src: PROBER,
                dst: TARGET,
                protocol: Protocol::Tcp,
                ttl: 64,
                ident: 3,
                dont_frag: false,
                payload_len: tcp.len(),
            },
            &tcp,
        )
    }

    #[test]
    fn echo_reply_mirrors_request() {
        let mut device = fully_exposed(Vendor::Cisco);
        let response = device.handle_datagram(&echo_probe(0x1111), 1.0).unwrap();
        let ip = Ipv4Packet::new_checked(&response[..]).unwrap();
        assert_eq!(ip.src_addr(), TARGET);
        assert_eq!(ip.dst_addr(), PROBER);
        assert_eq!(ip.total_len(), 84); // Table 6's ICMP echo response size
        let icmp = IcmpPacket::new_checked(ip.payload()).unwrap();
        assert_eq!(icmp.kind().unwrap(), IcmpKind::EchoReply);
        assert_eq!(icmp.echo_ident(), 7);
    }

    #[test]
    fn udp_probe_yields_port_unreachable_with_vendor_quote() {
        let mut device = fully_exposed(Vendor::Cisco);
        let response = device.handle_datagram(&udp_probe(), 1.0).unwrap();
        let ip = Ipv4Packet::new_checked(&response[..]).unwrap();
        assert_eq!(
            usize::from(ip.total_len()),
            device.profile().unreachable_response_len(40)
        );
        let icmp = IcmpPacket::new_checked(ip.payload()).unwrap();
        assert_eq!(
            icmp.kind().unwrap(),
            IcmpKind::DstUnreachable(UnreachableCode::Port)
        );
        // The quote must begin with the original IP header.
        assert_eq!(icmp.body()[0], 0x45);
    }

    #[test]
    fn syn_with_ack_elicits_rst_with_policy_seq() {
        let mut cisco = fully_exposed(Vendor::Cisco);
        let response = cisco
            .handle_datagram(&tcp_syn_probe(0xdead_beef), 1.0)
            .unwrap();
        let ip = Ipv4Packet::new_checked(&response[..]).unwrap();
        assert_eq!(ip.total_len(), 40); // 20 IP + 20 TCP, Table 6's TCP size
        let tcp = TcpPacket::new_checked(ip.payload()).unwrap();
        assert!(tcp.flags().contains(TcpFlags::RST));
        // Cisco is RFC-noncompliant here: seq zero despite ACK present.
        assert_eq!(tcp.seq(), 0);

        let mut mikrotik = fully_exposed(Vendor::MikroTik);
        let response = mikrotik
            .handle_datagram(&tcp_syn_probe(0xdead_beef), 1.0)
            .unwrap();
        let ip = Ipv4Packet::new_checked(&response[..]).unwrap();
        let tcp = TcpPacket::new_checked(ip.payload()).unwrap();
        // Linux-derived stacks are compliant: seq copies the probe's ACK.
        assert_eq!(tcp.seq(), 0xdead_beef);
    }

    #[test]
    fn rst_probe_is_never_answered() {
        let mut device = fully_exposed(Vendor::Cisco);
        let tcp = TcpRepr {
            src_port: 50001,
            dst_port: 33533,
            seq: 1,
            ack: 0,
            flags: TcpFlags::RST,
            window: 0,
            options: TcpOptions::default(),
        }
        .to_bytes(PROBER, TARGET);
        let datagram = ipv4::build_datagram(
            &Ipv4Repr {
                src: PROBER,
                dst: TARGET,
                protocol: Protocol::Tcp,
                ttl: 64,
                ident: 9,
                dont_frag: false,
                payload_len: tcp.len(),
            },
            &tcp,
        );
        assert!(device.handle_datagram(&datagram, 1.0).is_none());
    }

    #[test]
    fn snmp_discovery_reports_vendor_pen() {
        let mut device = fully_exposed(Vendor::Juniper);
        let request = SnmpV3Message::discovery_request(99).to_bytes().unwrap();
        let udp = UdpRepr {
            src_port: 45000,
            dst_port: SNMP_PORT,
            payload: request,
        }
        .to_bytes(PROBER, TARGET);
        let datagram = ipv4::build_datagram(
            &Ipv4Repr {
                src: PROBER,
                dst: TARGET,
                protocol: Protocol::Udp,
                ttl: 64,
                ident: 4,
                dont_frag: false,
                payload_len: udp.len(),
            },
            &udp,
        );
        let response = device.handle_datagram(&datagram, 10.0).unwrap();
        let ip = Ipv4Packet::new_checked(&response[..]).unwrap();
        let udp = UdpPacket::new_checked(ip.payload()).unwrap();
        assert_eq!(udp.src_port(), SNMP_PORT);
        let report = SnmpV3Message::parse(udp.payload()).unwrap();
        assert_eq!(report.msg_id, 99);
        let engine = report.authoritative_engine_id().unwrap();
        assert_eq!(engine.pen, Vendor::Juniper.pen());
    }

    #[test]
    fn corrupted_udp_checksum_is_dropped() {
        let mut device = fully_exposed(Vendor::Cisco);
        let mut probe = udp_probe();
        let len = probe.len();
        probe[len - 1] ^= 0xff; // corrupt payload without fixing checksum
                                // IPv4 header checksum still fine, so the IP layer accepts it, but
                                // the UDP layer must reject it.
        let mut ip = Ipv4Packet::new_unchecked(&mut probe[..]);
        ip.fill_checksum();
        assert!(device.handle_datagram(&probe, 1.0).is_none());
    }

    #[test]
    fn time_exceeded_quotes_offender() {
        let mut device = fully_exposed(Vendor::Juniper);
        let offender = udp_probe();
        let hop_ip = Ipv4Addr::new(10, 0, 0, 1);
        let response = device.time_exceeded(&offender, hop_ip, 5.0).unwrap();
        let ip = Ipv4Packet::new_checked(&response[..]).unwrap();
        assert_eq!(ip.src_addr(), hop_ip);
        assert_eq!(ip.dst_addr(), PROBER);
        let icmp = IcmpPacket::new_checked(ip.payload()).unwrap();
        assert_eq!(icmp.kind().unwrap(), IcmpKind::TimeExceeded);
    }

    #[test]
    fn devices_are_deterministic_per_seed() {
        let mut a = device_for(Vendor::Huawei, 42);
        let mut b = device_for(Vendor::Huawei, 42);
        let ra = a.handle_datagram(&echo_probe(5), 1.0);
        let rb = b.handle_datagram(&echo_probe(5), 1.0);
        assert_eq!(ra, rb);
        assert_eq!(a.engine_id(), b.engine_id());
    }
}
