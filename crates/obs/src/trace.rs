//! Per-request span traces.
//!
//! A [`Trace`] rides along with a request from the moment its bytes
//! arrive to the moment its response's last byte is flushed, accumulating
//! a duration per serving [`Stage`]. Stamping is two subtractions and an
//! add — cheap enough to be always-on.

/// Serving stages a request passes through, in pipeline order.
///
/// The first four are measured as deltas between consecutive stamps along
/// the serving pipeline; `Plan`/`CacheLookup`/`Render` are sub-stages of
/// `Execute` accounted inside the query engine; `Flush` covers completion
/// hand-back to last-byte-written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Bytes arrived on the socket (or the connection was adopted) until
    /// the request frame was decoded.
    Accept,
    /// Frame admitted to the shard's job queue until a worker claimed the
    /// batch containing it (zero for an answer served on the loop).
    Queue,
    /// Batch claimed until this request actually starts executing
    /// (head-of-batch wait inside a worker; zero on the loop).
    Claim,
    /// Total query execution (plan/compute/render, cache included).
    Execute,
    /// Sub-stage of `Execute`: selection planning.
    Plan,
    /// Sub-stage of `Execute`: canonicalisation plus result-cache probe
    /// (and insert on miss).
    CacheLookup,
    /// Sub-stage of `Execute`: computing and rendering the payload.
    Render,
    /// Completion posted back to the event loop until the response's last
    /// byte was written to the socket.
    Flush,
}

/// Number of distinct stages.
pub const STAGE_COUNT: usize = 8;

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Accept,
        Stage::Queue,
        Stage::Claim,
        Stage::Execute,
        Stage::Plan,
        Stage::CacheLookup,
        Stage::Render,
        Stage::Flush,
    ];

    /// Stable label used in metric exposition and the slow-query log.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::Queue => "queue",
            Stage::Claim => "claim",
            Stage::Execute => "execute",
            Stage::Plan => "plan",
            Stage::CacheLookup => "cache_lookup",
            Stage::Render => "render",
            Stage::Flush => "flush",
        }
    }

    /// Index into per-stage arrays.
    #[inline(always)]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated per-stage durations for one request, in nanoseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    start_ns: u64,
    last_ns: u64,
    stages: [u64; STAGE_COUNT],
}

impl Trace {
    /// Begin a trace at `now_ns` (the moment the request's bytes arrived).
    pub fn begin(now_ns: u64) -> Self {
        Trace {
            start_ns: now_ns,
            last_ns: now_ns,
            stages: [0; STAGE_COUNT],
        }
    }

    /// Close the interval since the previous stamp and attribute it to
    /// `stage`. Saturating, so a non-monotone clock cannot underflow.
    #[inline(always)]
    pub fn stamp(&mut self, stage: Stage, now_ns: u64) {
        let delta = now_ns.saturating_sub(self.last_ns);
        self.stages[stage.index()] += delta;
        self.last_ns = self.last_ns.max(now_ns);
    }

    /// Attribute an externally measured duration to `stage` without
    /// moving the stamp cursor (used for sub-stages inside `Execute`).
    #[inline(always)]
    pub fn add(&mut self, stage: Stage, duration_ns: u64) {
        self.stages[stage.index()] += duration_ns;
    }

    /// Duration accumulated in `stage` so far.
    #[inline(always)]
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stages[stage.index()]
    }

    /// All stage durations, indexed by [`Stage::index`].
    pub fn stages(&self) -> &[u64; STAGE_COUNT] {
        &self.stages
    }

    /// Trace start timestamp.
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Wall time from trace start to the latest stamp.
    #[inline(always)]
    pub fn total_ns(&self) -> u64 {
        self.last_ns.saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};

    #[test]
    fn stamps_attribute_deltas_in_order() {
        let clock = ManualClock::new(100);
        let mut trace = Trace::begin(clock.now_ns());
        clock.advance(10);
        trace.stamp(Stage::Accept, clock.now_ns());
        clock.advance(40);
        trace.stamp(Stage::Queue, clock.now_ns());
        clock.advance(5);
        trace.stamp(Stage::Claim, clock.now_ns());
        clock.advance(200);
        trace.stamp(Stage::Execute, clock.now_ns());
        trace.add(Stage::Plan, 120);
        trace.add(Stage::Render, 60);
        clock.advance(30);
        trace.stamp(Stage::Flush, clock.now_ns());

        assert_eq!(trace.stage_ns(Stage::Accept), 10);
        assert_eq!(trace.stage_ns(Stage::Queue), 40);
        assert_eq!(trace.stage_ns(Stage::Claim), 5);
        assert_eq!(trace.stage_ns(Stage::Execute), 200);
        assert_eq!(trace.stage_ns(Stage::Plan), 120);
        assert_eq!(trace.stage_ns(Stage::Render), 60);
        assert_eq!(trace.stage_ns(Stage::CacheLookup), 0);
        assert_eq!(trace.stage_ns(Stage::Flush), 30);
        // Total is wall time, not the sum: sub-stages overlap Execute.
        assert_eq!(trace.total_ns(), 10 + 40 + 5 + 200 + 30);
    }

    #[test]
    fn non_monotone_stamp_saturates() {
        let mut trace = Trace::begin(1_000);
        trace.stamp(Stage::Accept, 500); // clock went "backwards"
        assert_eq!(trace.stage_ns(Stage::Accept), 0);
        trace.stamp(Stage::Queue, 1_200);
        assert_eq!(trace.stage_ns(Stage::Queue), 200);
        assert_eq!(trace.total_ns(), 200);
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGE_COUNT);
    }
}
