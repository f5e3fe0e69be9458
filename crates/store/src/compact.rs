//! Background compaction of a store's segmented epoch log.
//!
//! The serving daemon ingests and saves segments on its own schedule;
//! the [`Compactor`] watches the published manifest through
//! [`Store::log_status`](crate::Store::log_status) and, when the
//! [`CompactionPolicy`] says the log has grown shaggy, folds it with
//! [`Store::compact_log`](crate::Store::compact_log) — off the serving
//! threads. The fold takes the ingest lock only for its snapshot and
//! the log lock only to reserve the new base's name and to publish; it
//! encodes, writes and fsyncs the base holding neither, so ingest and
//! saves never wait on it (that guarantee lives in `compact_log`
//! itself).
//!
//! The thread is condvar-driven: it sleeps until a
//! [`nudge`](Compactor::nudge) (the daemon pokes it after every ingest
//! or save) or a coarse timeout, re-checks the policy, and runs at
//! most one fold per wake. Counters are plain atomics so `stats` and
//! `metrics` renders can read them without touching the store's locks.

use crate::epoch::Store;
use crate::segment::DurableLog;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// When to fold the log. Either trigger alone suffices.
#[derive(Debug, Clone, Copy)]
pub struct CompactionPolicy {
    /// Fold once the manifest lists more than this many segments.
    /// `0` disables the count trigger.
    pub max_segments: usize,
    /// Fold once segment bytes exceed this multiple of the base's
    /// bytes. `0.0` disables the ratio trigger.
    pub max_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy {
            max_segments: 8,
            max_ratio: 0.5,
        }
    }
}

impl CompactionPolicy {
    /// A count-only policy (`--compact-after N`).
    pub fn after_segments(max_segments: usize) -> CompactionPolicy {
        CompactionPolicy {
            max_segments,
            max_ratio: 0.0,
        }
    }

    /// Whether a log of this shape should be folded now.
    pub fn due(&self, status: &crate::epoch::LogStatus) -> bool {
        if self.max_segments > 0 && status.segments > self.max_segments {
            return true;
        }
        if self.max_ratio > 0.0
            && status.base_bytes > 0
            && status.segment_bytes as f64 > self.max_ratio * status.base_bytes as f64
        {
            return true;
        }
        false
    }
}

/// Monotonic counters the compactor publishes for observability.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactorStats {
    /// Folds that completed.
    pub runs: u64,
    /// Segment files folded across all runs.
    pub segments_folded: u64,
    /// Folds that failed (logged, counted, retried next wake).
    pub errors: u64,
    /// Microseconds the most recent fold took.
    pub last_run_us: u64,
}

struct Shared {
    woken: Mutex<bool>,
    bell: Condvar,
    stop: AtomicBool,
    runs: AtomicU64,
    segments_folded: AtomicU64,
    errors: AtomicU64,
    last_run_us: AtomicU64,
}

/// A background thread folding a store's segment log per policy.
pub struct Compactor {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Compactor {
    /// Spawn the compaction thread over `store` with `policy`.
    pub fn spawn(store: Arc<Store>, policy: CompactionPolicy) -> Compactor {
        let shared = Arc::new(Shared {
            woken: Mutex::new(false),
            bell: Condvar::new(),
            stop: AtomicBool::new(false),
            runs: AtomicU64::new(0),
            segments_folded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            last_run_us: AtomicU64::new(0),
        });
        let worker = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("lfp-compactor".to_string())
            .spawn(move || {
                while !worker.stop.load(Ordering::Acquire) {
                    {
                        let guard = worker.woken.lock().expect("compactor lock poisoned");
                        let (mut guard, _) = worker
                            .bell
                            .wait_timeout_while(guard, Duration::from_millis(500), |woken| {
                                !*woken && !worker.stop.load(Ordering::Acquire)
                            })
                            .expect("compactor lock poisoned");
                        *guard = false;
                    }
                    if worker.stop.load(Ordering::Acquire) {
                        break;
                    }
                    run_if_due(&store, policy, &worker);
                }
            })
            .expect("spawn compactor thread");
        Compactor {
            shared,
            thread: Some(thread),
        }
    }

    /// Wake the thread to re-check the policy (call after ingest/save).
    pub fn nudge(&self) {
        let mut woken = self.shared.woken.lock().expect("compactor lock poisoned");
        *woken = true;
        self.shared.bell.notify_one();
    }

    /// Current counter values.
    pub fn stats(&self) -> CompactorStats {
        CompactorStats {
            runs: self.shared.runs.load(Ordering::Relaxed),
            segments_folded: self.shared.segments_folded.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            last_run_us: self.shared.last_run_us.load(Ordering::Relaxed),
        }
    }

    /// Stop and join the thread (idempotent; also runs on drop).
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.bell.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One policy check + fold, shared by the thread and by synchronous
/// callers (tests, the bench harness) via [`compact_if_due`].
fn run_if_due(store: &Store, policy: CompactionPolicy, shared: &Shared) -> bool {
    let Some(status) = store.log_status() else {
        return false;
    };
    if !policy.due(&status) {
        return false;
    }
    // The counters move inside the publish, not after the fold returns:
    // a reader that sees the folded manifest sees them moved too.
    let counted = |folded: usize| {
        shared.runs.fetch_add(1, Ordering::Relaxed);
        shared
            .segments_folded
            .fetch_add(folded as u64, Ordering::Relaxed);
    };
    match store.fold_log(&mut DurableLog, counted) {
        Ok(Some(report)) => {
            shared
                .last_run_us
                .store((report.seconds * 1_000_000.0) as u64, Ordering::Relaxed);
            true
        }
        Ok(None) => false,
        Err(_) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

/// Synchronous policy-gated fold: compact `store` now if the policy
/// says the log is due, returning whether a fold ran. What the
/// background thread does per wake, exposed for deterministic tests
/// and the single-threaded bench path.
pub fn compact_if_due(store: &Store, policy: CompactionPolicy) -> Result<bool, crate::StoreError> {
    let Some(status) = store.log_status() else {
        return Ok(false);
    };
    if !policy.due(&status) {
        return Ok(false);
    }
    Ok(store.compact_log()?.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(segments: usize, segment_bytes: u64, base_bytes: u64) -> crate::epoch::LogStatus {
        crate::epoch::LogStatus {
            segments,
            segment_bytes,
            base_bytes,
            covered: segments as u64,
        }
    }

    #[test]
    fn policy_triggers_on_count_or_ratio() {
        let policy = CompactionPolicy {
            max_segments: 4,
            max_ratio: 0.5,
        };
        assert!(!policy.due(&status(4, 10, 1000)));
        assert!(policy.due(&status(5, 10, 1000)), "count trigger");
        assert!(policy.due(&status(1, 600, 1000)), "ratio trigger");

        let count_only = CompactionPolicy::after_segments(2);
        assert!(!count_only.due(&status(2, u64::MAX / 2, 1)));
        assert!(count_only.due(&status(3, 0, 1)));

        let disabled = CompactionPolicy {
            max_segments: 0,
            max_ratio: 0.0,
        };
        assert!(!disabled.due(&status(1000, u64::MAX / 2, 1)));
    }
}
