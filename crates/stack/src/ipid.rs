//! IPID generation models.
//!
//! RFC 4413 classifies IPID behaviour into sequential-jump, random, and
//! per-stream sequential; routers additionally exhibit constant and zero
//! IPIDs (paper Table 1). Two aspects matter for fingerprinting:
//!
//! 1. *which class* a response stream falls into, and
//! 2. *which streams share a counter* — e.g. Linux-derived stacks use one
//!    counter for every ICMP error and echo reply, while classic IOS keeps
//!    them apart. Counter sharing across interfaces is also what MIDAR-style
//!    alias resolution exploits, so the engine lives per-router, not per-IP.
//!
//! Counters advance with background traffic between our probes (a router is
//! never idle); we model that as a Poisson process whose rate is part of
//! the stack profile. This is what gives the max-step distribution of
//! Figure 2 its knee instead of a degenerate step of exactly one.

use lfp_packet::ipv4::Protocol;
use rand::Rng;

/// How one response class allocates IPID values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpidMode {
    /// Values come from shared counter number `group` (advances with
    /// background traffic; wraps at 2^16).
    Counter {
        /// Counter group index; classes with the same index share state.
        group: u8,
    },
    /// Uniformly random 16-bit values.
    Random,
    /// A constant, non-zero, device-specific value.
    Static,
    /// Always zero (common for stacks that set DF and skip IPID).
    Zero,
    /// A counter that only advances every second allocation, yielding the
    /// "exactly two responses share a value" class of Table 1.
    DuplicatePair {
        /// Counter group index (kept separate from `Counter` groups).
        group: u8,
    },
}

/// IPID allocation plan for the three probe-response classes, keyed by the
/// *probe* protocol (the response to a UDP probe is an ICMP error, but the
/// feature set names it the "UDP IPID counter").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IpidPlan {
    /// Class used for ICMP echo replies.
    pub icmp: IpidMode,
    /// Class used for TCP RSTs.
    pub tcp: IpidMode,
    /// Class used for ICMP errors answering UDP probes.
    pub udp: IpidMode,
}

impl IpidPlan {
    /// One incremental counter per protocol (classic IOS-style layout).
    pub fn per_protocol() -> Self {
        IpidPlan {
            icmp: IpidMode::Counter { group: 0 },
            tcp: IpidMode::Counter { group: 1 },
            udp: IpidMode::Counter { group: 2 },
        }
    }

    /// One counter shared by everything (Linux-derived stacks).
    pub fn shared_all() -> Self {
        IpidPlan {
            icmp: IpidMode::Counter { group: 0 },
            tcp: IpidMode::Counter { group: 0 },
            udp: IpidMode::Counter { group: 0 },
        }
    }

    /// TCP and UDP share; ICMP separate.
    pub fn shared_tcp_udp() -> Self {
        IpidPlan {
            icmp: IpidMode::Counter { group: 0 },
            tcp: IpidMode::Counter { group: 1 },
            udp: IpidMode::Counter { group: 1 },
        }
    }

    /// ICMP shares with UDP errors (both ICMP-generated); TCP separate.
    pub fn shared_icmp_udp() -> Self {
        IpidPlan {
            icmp: IpidMode::Counter { group: 0 },
            tcp: IpidMode::Counter { group: 1 },
            udp: IpidMode::Counter { group: 0 },
        }
    }

    /// Random everywhere (JunOS-style).
    pub fn random_all() -> Self {
        IpidPlan {
            icmp: IpidMode::Random,
            tcp: IpidMode::Random,
            udp: IpidMode::Random,
        }
    }

    /// The mode for a probe protocol.
    pub fn mode(&self, protocol: Protocol) -> IpidMode {
        match protocol {
            Protocol::Icmp => self.icmp,
            Protocol::Tcp => self.tcp,
            Protocol::Udp => self.udp,
            Protocol::Other(_) => self.icmp,
        }
    }
}

const COUNTER_GROUPS: usize = 4;

/// A router's IPID counters: the only IPID state that changes as the
/// router answers. Plain arrays, no heap, so a network fork copies them
/// with the rest of the device's mutable state.
#[derive(Debug, Clone, Copy)]
pub struct IpidCounters {
    value: [u16; COUNTER_GROUPS],
    last_advance: [f64; COUNTER_GROUPS],
    /// For `DuplicatePair`: parity of allocations since the last advance.
    pending_dup: [bool; COUNTER_GROUPS],
}

/// Per-router IPID allocator: the plan, the device's static value and
/// its background traffic rate. Fixed once the device exists; the
/// counters it advances live in [`IpidCounters`], and the randomness
/// comes from the caller's RNG stream.
#[derive(Debug, Clone)]
pub struct IpidEngine {
    plan: IpidPlan,
    static_value: u16,
    /// Background packets per second driving counter advancement.
    background_pps: f64,
}

impl IpidEngine {
    /// Create an engine and its device-specific initial counter values.
    ///
    /// Counters within one device are *correlated*: they all start from
    /// the same boot and advance with similar traffic volumes, so a
    /// device's per-protocol counters sit within a couple of thousand of
    /// each other even when not literally shared. This is the empirical
    /// basis of the paper's Figure 3 (≈90% of consecutive cross-protocol
    /// IPID differences within ±1300) and of the 1,300 threshold itself.
    /// Different devices remain uncorrelated.
    pub fn new<R: Rng>(plan: IpidPlan, background_pps: f64, rng: &mut R) -> (Self, IpidCounters) {
        let mut counters = IpidCounters {
            value: [0; COUNTER_GROUPS],
            last_advance: [0.0; COUNTER_GROUPS],
            pending_dup: [false; COUNTER_GROUPS],
        };
        let device_base: u16 = rng.gen();
        for value in &mut counters.value {
            *value = device_base.wrapping_add(rng.gen_range(0..1200));
        }
        // Per-device traffic volume: two routers with the same OS still
        // see different loads, so their counters drift apart over time —
        // which is precisely what lets MIDAR-style confirmation reject
        // same-velocity non-aliases over a long enough window.
        let background_pps = background_pps * (0.7 + 0.6 * rng.gen::<f64>());
        let static_value = loop {
            let v: u16 = rng.gen();
            if v != 0 {
                break v;
            }
        };
        let engine = IpidEngine {
            plan,
            static_value,
            background_pps,
        };
        (engine, counters)
    }

    /// The plan this engine allocates by.
    pub fn plan(&self) -> IpidPlan {
        self.plan
    }

    /// Allocate the IPID for a response to a probe of `protocol` sent at
    /// virtual time `now` (seconds), advancing `counters`.
    pub fn allocate<R: Rng>(
        &self,
        counters: &mut IpidCounters,
        protocol: Protocol,
        now: f64,
        rng: &mut R,
    ) -> u16 {
        match self.plan.mode(protocol) {
            IpidMode::Counter { group } => self.advance(counters, group as usize, now, 1, rng),
            IpidMode::Random => rng.gen(),
            IpidMode::Static => self.static_value,
            IpidMode::Zero => 0,
            IpidMode::DuplicatePair { group } => {
                let slot = group as usize % COUNTER_GROUPS;
                if counters.pending_dup[slot] {
                    counters.pending_dup[slot] = false;
                    counters.value[slot]
                } else {
                    let value = self.advance(counters, slot, now, 1, rng);
                    counters.pending_dup[slot] = true;
                    value
                }
            }
        }
    }

    fn advance<R: Rng>(
        &self,
        counters: &mut IpidCounters,
        group: usize,
        now: f64,
        own: u16,
        rng: &mut R,
    ) -> u16 {
        let slot = group % COUNTER_GROUPS;
        let dt = (now - counters.last_advance[slot]).max(0.0);
        counters.last_advance[slot] = now;
        // Background traffic drives every counter of a device with the
        // *same* realised volume (they count the same box's packets), so
        // the advance is deterministic in `dt` plus bounded per-counter
        // noise. Unbounded independent noise would decorrelate a device's
        // counters over long virtual gaps and destroy the empirical basis
        // of the 1,300-step threshold (paper Figure 3: ≈90% of
        // consecutive cross-counter differences stay within ±1300).
        let expected = self.background_pps * dt;
        let deterministic = expected.floor() as u64;
        let noise = poisson(rng, expected.min(32.0));
        let value = &mut counters.value[slot];
        *value = value
            .wrapping_add((deterministic + noise) as u16)
            .wrapping_add(own);
        *value
    }
}

/// Sample a Poisson variate. Knuth's product method for small means; a
/// clamped normal approximation above, which is ample for counter noise.
pub fn poisson<R: Rng>(rng: &mut R, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let limit = (-mean).exp();
        let mut product = rng.gen::<f64>();
        let mut count = 0u64;
        while product > limit {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    } else {
        // Box–Muller normal approximation N(mean, mean).
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + z * mean.sqrt()).round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0x1fb)
    }

    #[test]
    fn shared_counter_is_globally_monotonic() {
        let mut rng = rng();
        let (engine, mut counters) = IpidEngine::new(IpidPlan::shared_all(), 10.0, &mut rng);
        let mut previous = None;
        let mut time = 0.0;
        for protocol in [
            Protocol::Icmp,
            Protocol::Tcp,
            Protocol::Udp,
            Protocol::Icmp,
            Protocol::Tcp,
            Protocol::Udp,
        ] {
            time += 0.05;
            let id = engine.allocate(&mut counters, protocol, time, &mut rng);
            if let Some(prev) = previous {
                let step = id.wrapping_sub(prev);
                assert!((1..1000).contains(&step), "step {step} out of band");
            }
            previous = Some(id);
        }
    }

    #[test]
    fn per_protocol_counters_do_not_interfere() {
        let mut rng = rng();
        let (engine, mut counters) = IpidEngine::new(IpidPlan::per_protocol(), 0.0, &mut rng);
        let icmp1 = engine.allocate(&mut counters, Protocol::Icmp, 0.1, &mut rng);
        let tcp1 = engine.allocate(&mut counters, Protocol::Tcp, 0.2, &mut rng);
        let icmp2 = engine.allocate(&mut counters, Protocol::Icmp, 0.3, &mut rng);
        // With zero background traffic, each counter steps by exactly one
        // per own packet, regardless of other protocols' activity.
        assert_eq!(icmp2.wrapping_sub(icmp1), 1);
        let tcp2 = engine.allocate(&mut counters, Protocol::Tcp, 0.4, &mut rng);
        assert_eq!(tcp2.wrapping_sub(tcp1), 1);
    }

    #[test]
    fn static_mode_repeats_nonzero_value() {
        let mut rng = rng();
        let plan = IpidPlan {
            icmp: IpidMode::Static,
            tcp: IpidMode::Static,
            udp: IpidMode::Static,
        };
        let (engine, mut counters) = IpidEngine::new(plan, 100.0, &mut rng);
        let first = engine.allocate(&mut counters, Protocol::Icmp, 1.0, &mut rng);
        assert_ne!(first, 0);
        for i in 0..5 {
            assert_eq!(
                engine.allocate(&mut counters, Protocol::Tcp, 2.0 + i as f64, &mut rng),
                first
            );
        }
    }

    #[test]
    fn zero_mode_is_zero() {
        let mut rng = rng();
        let plan = IpidPlan {
            icmp: IpidMode::Zero,
            tcp: IpidMode::Zero,
            udp: IpidMode::Zero,
        };
        let (engine, mut counters) = IpidEngine::new(plan, 100.0, &mut rng);
        assert_eq!(
            engine.allocate(&mut counters, Protocol::Udp, 5.0, &mut rng),
            0
        );
    }

    #[test]
    fn duplicate_pair_produces_exactly_two_equal() {
        let mut rng = rng();
        let plan = IpidPlan {
            icmp: IpidMode::DuplicatePair { group: 3 },
            tcp: IpidMode::DuplicatePair { group: 3 },
            udp: IpidMode::DuplicatePair { group: 3 },
        };
        let (engine, mut counters) = IpidEngine::new(plan, 0.0, &mut rng);
        let a = engine.allocate(&mut counters, Protocol::Icmp, 0.1, &mut rng);
        let b = engine.allocate(&mut counters, Protocol::Icmp, 0.2, &mut rng);
        let c = engine.allocate(&mut counters, Protocol::Icmp, 0.3, &mut rng);
        assert_eq!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn random_mode_spreads_over_range() {
        let mut rng = rng();
        let (engine, mut counters) = IpidEngine::new(IpidPlan::random_all(), 0.0, &mut rng);
        let values: Vec<u16> = (0..64)
            .map(|i| engine.allocate(&mut counters, Protocol::Icmp, i as f64, &mut rng))
            .collect();
        let max_step = values
            .windows(2)
            .map(|w| w[1].wrapping_sub(w[0]))
            .max()
            .unwrap();
        // With 64 uniform draws the max forward step exceeds any plausible
        // sequential threshold with overwhelming probability.
        assert!(max_step > 1300, "max step {max_step} suspiciously small");
    }

    #[test]
    fn background_traffic_advances_counters_with_time() {
        let mut rng = rng();
        let (engine, mut counters) = IpidEngine::new(IpidPlan::shared_all(), 200.0, &mut rng);
        let first = engine.allocate(&mut counters, Protocol::Icmp, 0.0, &mut rng);
        // One second at 200 pps: expect a jump of roughly 200.
        let second = engine.allocate(&mut counters, Protocol::Icmp, 1.0, &mut rng);
        let step = second.wrapping_sub(first);
        assert!((100..400).contains(&step), "step {step} not near 200");
    }

    #[test]
    fn poisson_mean_is_respected() {
        let mut rng = rng();
        for mean in [0.5, 5.0, 80.0] {
            let n = 3000;
            let total: u64 = (0..n).map(|_| poisson(&mut rng, mean)).sum();
            let empirical = total as f64 / n as f64;
            assert!(
                (empirical - mean).abs() < mean.max(1.0) * 0.15,
                "mean {mean}: got {empirical}"
            );
        }
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut rng = rng();
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -3.0), 0);
    }
}
