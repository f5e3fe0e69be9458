//! A sharded LRU result cache keyed by canonical query strings.
//!
//! The serving hot path is "same question, again": interactive clients
//! and dashboards re-ask a small working set of queries far more often
//! than the corpus changes (it never changes — a [`World`] is
//! immutable), so a hit must cost a hash, one shard lock and an `Arc`
//! clone. Keys are sharded by hash so concurrent connections contend on
//! `shards` independent mutexes instead of one; within a shard, an
//! intrusive doubly-linked list over a slab gives O(1) get / insert /
//! evict. Values are the **rendered result bytes** (`Arc<str>`), which
//! is what makes the cache-hit-equals-cold-execution property testable
//! byte for byte.
//!
//! [`World`]: lfp_analysis::World

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Slab sentinel: no node.
const NIL: usize = usize::MAX;

/// Hit/miss counters (monotonic since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to execution.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries displaced by LRU eviction since construction.
    pub evictions: u64,
}

/// Number of per-lane counter slots; lanes index modulo this, so lane
/// ids below `LANE_SLOTS` (every serving event-loop shard in practice)
/// get exact per-lane counters.
pub const LANE_SLOTS: usize = 64;

/// Per-lane counters (monotonic since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Lookups answered from the cache under this lane.
    pub hits: u64,
    /// Lookups under this lane that fell through to execution.
    pub misses: u64,
    /// Evictions triggered by inserts under this lane.
    pub evictions: u64,
}

#[derive(Default)]
struct LaneCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheStats {
    /// Hit fraction in [0, 1] (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Node {
    key: Arc<str>,
    value: Arc<str>,
    prev: usize,
    next: usize,
}

/// One shard: a hash map into a slab of intrusively linked nodes,
/// most-recently-used at `head`. Keys are `Arc<str>` shared between the
/// map and the slab node, so a miss costs exactly one key allocation.
struct Shard {
    map: HashMap<Arc<str>, usize>,
    nodes: Vec<Node>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, index: usize) {
        let (prev, next) = (self.nodes[index].prev, self.nodes[index].next);
        match prev {
            NIL => self.head = next,
            _ => self.nodes[prev].next = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => self.nodes[next].prev = prev,
        }
    }

    fn push_front(&mut self, index: usize) {
        self.nodes[index].prev = NIL;
        self.nodes[index].next = self.head;
        match self.head {
            NIL => self.tail = index,
            old => self.nodes[old].prev = index,
        }
        self.head = index;
    }

    fn get(&mut self, key: &str) -> Option<Arc<str>> {
        let index = *self.map.get(key)?;
        self.unlink(index);
        self.push_front(index);
        Some(Arc::clone(&self.nodes[index].value))
    }

    /// Insert (or refresh) a key; returns true when an existing entry
    /// was evicted to make room.
    fn insert(&mut self, key: &str, value: Arc<str>) -> bool {
        if let Some(&index) = self.map.get(key) {
            self.nodes[index].value = value;
            self.unlink(index);
            self.push_front(index);
            return false;
        }
        // One shared allocation per miss: the node and the map hold the
        // same `Arc<str>` key (this path used to allocate the key twice).
        let key: Arc<str> = Arc::from(key);
        let (index, evicted) = if self.nodes.len() < self.capacity {
            self.nodes.push(Node {
                key: Arc::clone(&key),
                value,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1, false)
        } else {
            // Evict the least-recently-used node and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            let old_key = std::mem::replace(&mut self.nodes[victim].key, Arc::clone(&key));
            self.map.remove(old_key.as_ref());
            self.nodes[victim].value = value;
            (victim, true)
        };
        self.map.insert(key, index);
        self.push_front(index);
        evicted
    }
}

/// The sharded LRU. Cheap to share by reference across worker threads;
/// all interior mutability is per-shard.
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    lanes: Vec<LaneCounters>,
}

impl ShardedLru {
    /// A cache of `shards` independent LRU shards holding up to
    /// `capacity` entries **in total**: the remainder of an uneven
    /// split goes one-per-shard to the first `capacity % shards`
    /// shards, so shard capacities sum to exactly `capacity`. When
    /// `capacity < shards` the shard count is clamped down so every
    /// shard still holds at least one entry.
    pub fn new(shards: usize, capacity: usize) -> ShardedLru {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        let base = capacity / shards;
        let extra = capacity % shards;
        ShardedLru {
            shards: (0..shards)
                .map(|index| Mutex::new(Shard::new(base + usize::from(index < extra))))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            lanes: (0..LANE_SLOTS).map(|_| LaneCounters::default()).collect(),
        }
    }

    fn lane_slot(&self, lane: u64) -> &LaneCounters {
        &self.lanes[(lane % LANE_SLOTS as u64) as usize]
    }

    fn shard_of(&self, key: &str, lane: u64) -> &Mutex<Shard> {
        // DefaultHasher with default keys is deterministic across runs,
        // so shard placement (and therefore eviction behaviour) is too.
        // The lane (a caller identity — e.g. a serving event loop's
        // shard id) is folded in through a splitmix-style multiply so
        // different lanes land the same key on *different* cache shards:
        // N serving loops all hammering one hot key then contend on N
        // independent mutexes instead of one. Lane 0 reproduces the
        // historical un-laned placement exactly.
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let spread = lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[((hasher.finish() ^ spread) % self.shards.len() as u64) as usize]
    }

    /// Look a key up, refreshing its recency. Counts a hit or a miss.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        self.get_lane(key, 0)
    }

    /// [`get`](ShardedLru::get) with an explicit caller lane (see
    /// `shard_of` for what a lane buys). Lane 0 is identical to `get`.
    pub fn get_lane(&self, key: &str, lane: u64) -> Option<Arc<str>> {
        let result = self.hit_lane(key, lane);
        if result.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.lane_slot(lane).misses.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// [`get_lane`](ShardedLru::get_lane) that counts only a hit. A
    /// caller that answers hits itself and hands misses on to a counted
    /// [`get_lane`](ShardedLru::get_lane) probe uses it, so each request
    /// still counts as exactly one lookup.
    pub fn hit_lane(&self, key: &str, lane: u64) -> Option<Arc<str>> {
        let result = self
            .shard_of(key, lane)
            .lock()
            .expect("cache shard poisoned")
            .get(key);
        if result.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.lane_slot(lane).hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Insert (or refresh) a key.
    pub fn insert(&self, key: &str, value: Arc<str>) {
        self.insert_lane(key, value, 0)
    }

    /// [`insert`](ShardedLru::insert) with an explicit caller lane.
    /// A key inserted under one lane is only visible to lookups under
    /// the same lane — lanes trade a little duplication (the same hot
    /// entry may live once per lane) for zero cross-lane contention,
    /// the right trade for a cache.
    pub fn insert_lane(&self, key: &str, value: Arc<str>, lane: u64) {
        let evicted = self
            .shard_of(key, lane)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.lane_slot(lane)
                .evictions
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|shard| shard.lock().expect("cache shard poisoned").map.len())
                .sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Counters for one caller lane (see [`ShardedLru::get_lane`]).
    /// Lanes index a fixed array of [`LANE_SLOTS`] counter slots, so ids
    /// `LANE_SLOTS` apart share a slot.
    pub fn lane_stats(&self, lane: u64) -> LaneStats {
        let slot = self.lane_slot(lane);
        LaneStats {
            hits: slot.hits.load(Ordering::Relaxed),
            misses: slot.misses.load(Ordering::Relaxed),
            evictions: slot.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(text: &str) -> Arc<str> {
        Arc::from(text)
    }

    #[test]
    fn hit_returns_inserted_value_and_counts() {
        let cache = ShardedLru::new(4, 64);
        assert!(cache.get("a").is_none());
        cache.insert("a", value("1"));
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn insert_replaces_existing_value() {
        let cache = ShardedLru::new(2, 8);
        cache.insert("k", value("old"));
        cache.insert("k", value("new"));
        assert_eq!(cache.get("k").as_deref(), Some("new"));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        // Single shard so the eviction order is fully observable.
        let cache = ShardedLru::new(1, 3);
        cache.insert("a", value("A"));
        cache.insert("b", value("B"));
        cache.insert("c", value("C"));
        // Touch `a` so `b` becomes the LRU entry.
        assert!(cache.get("a").is_some());
        cache.insert("d", value("D"));
        assert!(cache.get("b").is_none(), "b should have been evicted");
        for key in ["a", "c", "d"] {
            assert!(cache.get(key).is_some(), "{key} should survive");
        }
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn eviction_churn_keeps_capacity_and_consistency() {
        let cache = ShardedLru::new(1, 4);
        for round in 0..100u32 {
            let key = format!("k{}", round % 10);
            cache.insert(&key, value(&round.to_string()));
            // The most recent insert is always resident.
            assert!(cache.get(&key).is_some());
            assert!(cache.stats().entries <= 4);
        }
    }

    #[test]
    fn shards_share_total_capacity() {
        // A non-divisible capacity: the old ceil split gave every shard
        // 3 slots, admitting up to 24 entries against a contract of 17.
        let cache = ShardedLru::new(8, 17);
        for index in 0..200u32 {
            cache.insert(&format!("key-{index}"), value("x"));
        }
        assert!(
            cache.stats().entries <= 17,
            "cache holds {} entries, contract is 17 in total",
            cache.stats().entries
        );
    }

    #[test]
    fn capacity_below_shard_count_stays_bounded() {
        // Fewer slots than shards: the shard count clamps down instead
        // of handing out zero-capacity shards (whose eviction path
        // would have no tail to unlink).
        let cache = ShardedLru::new(8, 3);
        for index in 0..50u32 {
            let key = format!("k{index}");
            cache.insert(&key, value("x"));
            assert!(cache.get(&key).is_some());
            assert!(cache.stats().entries <= 3);
        }
    }

    #[test]
    fn lane_zero_is_the_default_placement() {
        let cache = ShardedLru::new(8, 64);
        cache.insert("hot-key", value("v"));
        assert_eq!(cache.get_lane("hot-key", 0).as_deref(), Some("v"));
        cache.insert_lane("laned", value("w"), 3);
        assert_eq!(cache.get_lane("laned", 3).as_deref(), Some("w"));
        // Lanes are deterministic: the same (key, lane) pair always
        // resolves to the same shard, so a re-lookup always hits.
        for _ in 0..10 {
            assert_eq!(cache.get_lane("laned", 3).as_deref(), Some("w"));
        }
    }

    #[test]
    fn per_lane_counters_track_hits_misses_and_evictions() {
        let cache = ShardedLru::new(1, 2);
        assert!(cache.get_lane("a", 3).is_none());
        cache.insert_lane("a", value("A"), 3);
        assert!(cache.get_lane("a", 3).is_some());
        // Fill past capacity under lane 3: evictions attribute to it.
        cache.insert_lane("b", value("B"), 3);
        cache.insert_lane("c", value("C"), 3);
        let lane = cache.lane_stats(3);
        assert_eq!((lane.hits, lane.misses, lane.evictions), (1, 1, 1));
        // Other lanes saw none of that traffic.
        let other = cache.lane_stats(4);
        assert_eq!((other.hits, other.misses, other.evictions), (0, 0, 0));
        // Global counters agree with the lane sums.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 1));
        // Re-inserting an existing key is a refresh, not an eviction.
        cache.insert_lane("c", value("C2"), 3);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn hit_only_probe_counts_hits_and_leaves_misses_to_the_caller() {
        let cache = ShardedLru::new(2, 8);
        assert!(cache.hit_lane("a", 1).is_none());
        assert_eq!(cache.stats().misses, 0, "a hit-only miss is uncounted");
        // The caller's follow-up counted probe is the request's lookup.
        assert!(cache.get_lane("a", 1).is_none());
        cache.insert_lane("a", value("A"), 1);
        assert_eq!(cache.hit_lane("a", 1).as_deref(), Some("A"));
        let lane = cache.lane_stats(1);
        assert_eq!((lane.hits, lane.misses), (1, 1));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn concurrent_access_is_safe_and_converges() {
        let cache = ShardedLru::new(4, 128);
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let cache = &cache;
                scope.spawn(move || {
                    for index in 0..500 {
                        let key = format!("k{}", (worker + index) % 64);
                        if cache.get(&key).is_none() {
                            cache.insert(&key, value(&key));
                        }
                    }
                });
            }
        });
        for index in 0..64 {
            let key = format!("k{index}");
            assert_eq!(cache.get(&key).as_deref(), Some(key.as_str()));
        }
    }
}
