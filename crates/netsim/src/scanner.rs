//! Parallel scanning harness (zmap-style sharded workers).
//!
//! Internet-wide probing is embarrassingly parallel *except* that aliases
//! of the same router share IPID counters, so two workers must never probe
//! the same device concurrently — both for correctness under `Mutex` and
//! for bit-reproducibility of counter values. The scanner therefore shards
//! work by a caller-provided key (the device id, or the target address
//! when the device is unknown): equal keys land in the same shard and are
//! processed in submission order, which makes entire scans deterministic
//! regardless of thread scheduling.
//!
//! Coarse units of unequal cost (a dataset collection, an experiment, a
//! cohort target) go through [`fan_out`] instead: an ordered queue
//! claimed through one atomic cursor by at most `workers` threads, each
//! result landing in its unit's slot.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Scan configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScanConfig {
    /// Number of worker shards (threads).
    pub shards: NonZeroUsize,
    /// Virtual inter-target pacing in seconds — the scan rate knob. Each
    /// target's probe schedule starts at `index * pacing`.
    pub pacing: f64,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            // One shard per available core, like `World::build`; the shard
            // count never changes results (see the determinism contract),
            // only how far the scan spreads.
            shards: std::thread::available_parallelism().unwrap_or(NonZeroUsize::new(4).unwrap()),
            pacing: 0.001,
        }
    }
}

/// Context handed to the per-target worker closure.
#[derive(Debug, Clone, Copy)]
pub struct TargetContext {
    /// Global index of the target in the submitted list.
    pub index: usize,
    /// Virtual time at which this target's probe schedule starts.
    pub start_time: f64,
}

/// Run `worker` over every item, sharded by `shard_key`, and return results
/// in the original submission order.
///
/// Determinism contract: items with equal keys are processed sequentially
/// in submission order on one thread; `worker` receives a stable
/// [`TargetContext`], so any per-target randomness derived from
/// `ctx.index` is reproducible.
pub fn scan<T, R, K, W>(items: &[T], config: ScanConfig, shard_key: K, worker: W) -> Vec<R>
where
    T: Sync,
    R: Send,
    K: Fn(&T) -> u64 + Sync,
    W: Fn(&T, TargetContext) -> R + Sync,
{
    let shards = config.shards.get();
    if shards <= 1 || items.len() < 2 {
        return items
            .iter()
            .enumerate()
            .map(|(index, item)| {
                worker(
                    item,
                    TargetContext {
                        index,
                        start_time: index as f64 * config.pacing,
                    },
                )
            })
            .collect();
    }

    // Pre-partition indices so each shard walks its slice in order.
    let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (index, item) in items.iter().enumerate() {
        let shard = (shard_key(item) % shards as u64) as usize;
        partitions[shard].push(index);
    }

    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    // Shards can exceed distinct keys (e.g. a per-core default against a
    // handful of devices); empty partitions get no thread.
    std::thread::scope(|scope| {
        let handles: Vec<_> = partitions
            .iter()
            .filter(|partition| !partition.is_empty())
            .map(|partition| {
                let worker = &worker;
                scope.spawn(move || {
                    partition
                        .iter()
                        .map(|&index| {
                            let result = worker(
                                &items[index],
                                TargetContext {
                                    index,
                                    start_time: index as f64 * config.pacing,
                                },
                            );
                            (index, result)
                        })
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        for handle in handles {
            for (index, result) in handle.join().expect("scan worker panicked") {
                results[index] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every target produces a result"))
        .collect()
}

/// Worker count for a [`fan_out`] across the machine: one per available
/// core (4 where the count is unknown).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(4, NonZeroUsize::get)
}

/// Run `unit(index)` for every index in `0..count` on at most `workers`
/// scoped threads and return the results in index order.
///
/// Workers claim indices from one atomic cursor, so units start in queue
/// order: queue the longest unit first, so the phase never waits on it
/// after starting it last. Only `workers` units are
/// in flight at once, which bounds whatever each unit holds while it runs
/// (a network fork, say). With one worker, or one unit, everything runs
/// inline on the calling thread in index order — the serial reference
/// path is this function with `workers = 1`. Whenever the units commute
/// the result does not depend on `workers`.
pub fn fan_out<R, F>(workers: usize, count: usize, unit: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.min(count);
    if workers <= 1 {
        return (0..count).map(unit).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the cursor only hands out indices; the
                        // results come back through `join`.
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= count {
                            break done;
                        }
                        done.push((index, unit(index)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (index, result) in handle.join().expect("fan-out worker panicked") {
                slots[index] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every unit ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_returns_results_by_slot_for_any_worker_count() {
        let serial = fan_out(1, 100, |index| index * index);
        assert_eq!(serial, (0..100).map(|i| i * i).collect::<Vec<_>>());
        for workers in [2, 3, 8, 200] {
            assert_eq!(fan_out(workers, 100, |index| index * index), serial);
        }
        assert!(fan_out(4, 0, |index| index).is_empty());
    }

    #[test]
    fn fan_out_keeps_at_most_workers_units_in_flight() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        fan_out(3, 40, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            live.fetch_sub(1, Ordering::SeqCst);
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=3).contains(&peak), "{peak} units in flight");
    }

    #[test]
    fn results_preserve_submission_order() {
        let items: Vec<u32> = (0..1000).collect();
        let results = scan(
            &items,
            ScanConfig::default(),
            |&item| u64::from(item % 7),
            |&item, ctx| (item, ctx.index),
        );
        for (index, &(item, ctx_index)) in results.iter().enumerate() {
            assert_eq!(item as usize, index);
            assert_eq!(ctx_index, index);
        }
    }

    #[test]
    fn equal_keys_are_processed_in_order() {
        // Record per-key processing order; within a key it must be the
        // submission order even across many threads.
        let items: Vec<(u64, usize)> = (0..500).map(|i| (i as u64 % 5, i)).collect();
        let order: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        let ticket = AtomicUsize::new(0);
        scan(
            &items,
            ScanConfig {
                shards: NonZeroUsize::new(4).unwrap(),
                pacing: 0.0,
            },
            |&(key, _)| key,
            |&(_, index), _| {
                order[index].store(ticket.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
            },
        );
        for key in 0..5u64 {
            let tickets: Vec<usize> = items
                .iter()
                .filter(|&&(k, _)| k == key)
                .map(|&(_, index)| order[index].load(Ordering::SeqCst))
                .collect();
            let mut sorted = tickets.clone();
            sorted.sort_unstable();
            assert_eq!(tickets, sorted, "key {key} processed out of order");
        }
    }

    #[test]
    fn fewer_keys_than_shards_still_covers_every_item() {
        // 3 distinct keys against 16 shards: most partitions are empty
        // and must not spawn workers; every item still yields its result
        // in submission order.
        let items: Vec<u32> = (0..60).collect();
        let results = scan(
            &items,
            ScanConfig {
                shards: NonZeroUsize::new(16).unwrap(),
                pacing: 0.0,
            },
            |&item| u64::from(item % 3),
            |&item, ctx| (item, ctx.index),
        );
        assert_eq!(results.len(), items.len());
        for (index, &(item, ctx_index)) in results.iter().enumerate() {
            assert_eq!(item as usize, index);
            assert_eq!(ctx_index, index);
        }
        // Degenerate: a single key against many shards.
        let single_key = scan(
            &items,
            ScanConfig {
                shards: NonZeroUsize::new(16).unwrap(),
                pacing: 0.0,
            },
            |_| 7,
            |&item, _| item,
        );
        assert_eq!(single_key, items);
    }

    #[test]
    fn start_times_follow_pacing() {
        let items: Vec<u32> = (0..10).collect();
        let results = scan(
            &items,
            ScanConfig {
                shards: NonZeroUsize::new(3).unwrap(),
                pacing: 0.5,
            },
            |&item| u64::from(item),
            |_, ctx| ctx.start_time,
        );
        for (index, &start) in results.iter().enumerate() {
            assert!((start - index as f64 * 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn single_shard_matches_parallel() {
        let items: Vec<u32> = (0..200).collect();
        let serial = scan(
            &items,
            ScanConfig {
                shards: NonZeroUsize::new(1).unwrap(),
                pacing: 0.001,
            },
            |&i| u64::from(i),
            |&i, ctx| (i as f64).sqrt() + ctx.start_time,
        );
        let parallel = scan(
            &items,
            ScanConfig {
                shards: NonZeroUsize::new(8).unwrap(),
                pacing: 0.001,
            },
            |&i| u64::from(i),
            |&i, ctx| (i as f64).sqrt() + ctx.start_time,
        );
        assert_eq!(serial, parallel);
    }
}
