//! # lfp-net — deterministic network simulator
//!
//! The fabric connecting the prober to the simulated router population:
//!
//! * [`network`] — devices behind per-router mutexes, interface addressing,
//!   end-to-end probe delivery and routed TTL-aware forwarding with
//!   time-exceeded generation,
//! * [`traceroute`] — the TTL-limited path-discovery primitive that builds
//!   the RIPE-Atlas-style datasets,
//! * [`scanner`] — a zmap-style sharded parallel scan harness whose output
//!   is bit-reproducible regardless of thread scheduling, and the ordered
//!   [`fan_out`] queue the campaign runs its coarse units on,
//! * [`link`] — path characters (latency, jitter, loss) and smoltcp-style
//!   fault injection.
//!
//! Design note: this is a *synchronous* discrete-time simulator driven by
//! virtual timestamps rather than an async runtime. Probes are independent
//! request/response exchanges; what must be ordered is each router's view
//! of time (IPID counters advance with it), which the scanner guarantees
//! by sharding targets per device. An async executor would add scheduling
//! nondeterminism and nothing else — the smoltcp guide's synchronous
//! event-driven philosophy fits exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod network;
pub mod scanner;
pub mod traceroute;

pub use link::{FaultInjector, PathCharacter};
pub use network::{DeviceId, Hop, Network, Reception, RouteOracle, RoutePath, VantageId};
pub use scanner::{cores, fan_out, scan, ScanConfig, TargetContext};
pub use traceroute::{traceroute, TracerouteOptions, TracerouteResult};
