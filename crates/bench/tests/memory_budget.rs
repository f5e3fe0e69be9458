//! Live heap bytes of the campaign's routing state and network forks,
//! pinned.
//!
//! A counting global allocator (std only) wraps the system allocator for
//! this whole test binary and keeps the bytes currently allocated. At
//! `Scale::small()` the one test below measures, with nothing else
//! running in the binary:
//!
//! * one `Network::fork`: a copy of each device's mutable state (IPID
//!   counters, RNG) and nothing else — the fixed device table is shared;
//! * one `BgpTable`: three one-byte route lengths per AS;
//! * `avoidance_study`: its exclusion tables are computed per call and
//!   dropped, so the routing memo holds as many tables after it as
//!   before.

use lfp_analysis::routing::{avoidance_study, sample_destinations, sample_sources};
use lfp_topo::{Internet, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated, across every thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes `make`'s result holds once everything transient that
/// `make` allocated is freed.
fn retained<T>(make: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let value = make();
    let after = LIVE.load(Ordering::Relaxed);
    (value, after.saturating_sub(before))
}

/// Live bytes one fork may hold per device. A device's mutable state is
/// its IPID counters (48 bytes) and its xoshiro RNG (32 bytes) behind a
/// mutex: 88 bytes. A fork that copied fixed device parts too (profile,
/// exposure, engine-id string) would read about 200 bytes a device.
const FORK_BYTES_PER_DEVICE: std::ops::RangeInclusive<usize> = 80..=96;

#[test]
fn forks_route_tables_and_the_avoidance_study_stay_within_their_bytes() {
    let internet = Internet::generate(Scale::small());
    let network = internet.network();
    let devices = network.device_count();

    let (fork, fork_bytes) = retained(|| network.fork());
    let per_device = fork_bytes / devices;
    println!("fork: {fork_bytes} bytes for {devices} devices ({per_device} per device)");
    assert!(
        FORK_BYTES_PER_DEVICE.contains(&per_device),
        "one fork holds {fork_bytes} bytes for {devices} devices ({per_device} per device)"
    );
    drop(fork);

    let core = internet.core();
    let ases = core.graph.len();
    let (table, table_bytes) = retained(|| core.graph.routes_to(7, None));
    assert!(table.reachable(0), "tier-1 AS0 reaches AS7");
    println!("route table: {table_bytes} bytes for {ases} ASes");
    assert!(
        table_bytes <= 3 * ases,
        "a route table holds {table_bytes} bytes for {ases} ASes"
    );
    drop(table);

    let sources = sample_sources(&internet, 16);
    let destinations = sample_destinations(&internet, 48);
    for &dst in &destinations {
        core.bgp(dst);
    }
    let memoised = core.memoised_routes();
    let study = avoidance_study(&internet, 0, &sources, &destinations);
    assert!(
        study.affected_destinations > 0,
        "the study computed no exclusion table"
    );
    assert_eq!(
        core.memoised_routes(),
        memoised,
        "avoidance_study memoised its exclusion tables"
    );
}
