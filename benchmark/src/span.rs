//! The harness's own spans: taken around calls into the crates' public
//! functions, kept in memory, written out when the run ends.
//!
//! Nothing inside the program is instrumented; a span here is "the
//! harness called `X` at `start` and it returned at `end`".

use lfp_analysis::json::{escape, JsonBuilder};
use std::collections::BTreeMap;
use std::time::Instant;

/// Span id; 0 means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request, iteration or epoch id the span belongs to.
    pub tag: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. One per thread; threads that fan out take a
/// [`Tracer::fork`] and hand it back through [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<SpanId>,
    /// Parent for top-level spans of a forked tracer.
    root: SpanId,
    /// First id this tracer hands out, minus one.
    base: SpanId,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            root: 0,
            base: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn current(&self) -> SpanId {
        self.stack.last().copied().unwrap_or(self.root)
    }

    /// Run `body` inside a span; returns the body's value and the
    /// span's duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        tag: u64,
        body: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let id = self.base + self.spans.len() as SpanId + 1;
        let parent = self.current();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            tag,
        });
        self.stack.push(id);
        let value = body(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[(id - self.base - 1) as usize].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Record a span whose endpoints were stamped elsewhere (a client
    /// thread's write → reply), as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, tag: u64, start_ns: u64, end_ns: u64) {
        let id = self.base + self.spans.len() as SpanId + 1;
        let parent = self.current();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            tag,
        });
    }

    /// A recorder for another thread whose top-level spans become
    /// children of this tracer's innermost open span. `slot` keeps the
    /// ids of concurrent forks apart.
    pub fn fork(&self, slot: u32) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: Vec::new(),
            stack: Vec::new(),
            root: self.current(),
            base: (slot + 1) << 24,
        }
    }

    pub fn absorb(&mut self, fork: Tracer) {
        self.spans.extend(fork.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the durations of every span called `name`, in seconds,
    /// and how many there were.
    pub fn total(&self, name: &str) -> (f64, usize) {
        let mut total_ns = 0u64;
        let mut count = 0usize;
        for span in self.spans.iter().filter(|span| span.name == name) {
            total_ns += span.duration_ns();
            count += 1;
        }
        (total_ns as f64 / 1e9, count)
    }

    /// Mean duration of the spans called `name`, in seconds (0 when
    /// there are none).
    pub fn mean(&self, name: &str) -> f64 {
        match self.total(name) {
            (_, 0) => 0.0,
            (total, count) => total / count as f64,
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of each span's interval its children
    /// cover (overlapping children are counted once).
    pub self_ns: u64,
}

/// Self time per span name, largest first.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|span| span.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for span in spans {
        let covered = children.get_mut(&span.id).map_or(0, |intervals| {
            covered_ns(intervals, span.start_ns, span.end_ns)
        });
        let row = by_name.entry(span.name).or_insert(SelfTime {
            name: span.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += span.duration_ns();
        row.self_ns += span.duration_ns().saturating_sub(covered);
    }
    let mut rows: Vec<SelfTime> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// The trace file: every span as one row, plus the self-time table.
pub fn trace_json(workload: &str, spans: &[Span]) -> String {
    let mut out = JsonBuilder::object();
    out.string("workload", workload);
    out.string_array(
        "columns",
        &["id", "parent", "name", "start_ns", "end_ns", "tag"].map(String::from),
    );
    out.raw_array(
        "spans",
        spans.iter().map(|span| {
            format!(
                "[{}, {}, \"{}\", {}, {}, {}]",
                span.id,
                span.parent,
                escape(span.name),
                span.start_ns,
                span.end_ns,
                span.tag
            )
        }),
    );
    out.raw_array(
        "self_time",
        self_times(spans).into_iter().map(|row| {
            let mut cell = JsonBuilder::object();
            cell.string("name", row.name)
                .integer("count", row.count)
                .integer("total_ns", row.total_ns)
                .integer("self_ns", row.self_ns);
            cell.finish()
        }),
    );
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            tag: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        let spans = vec![
            span(1, 0, "request", 0, 100),
            // Two overlapping children cover [10, 50]; a third covers
            // [60, 70]; a fourth sticks out past the parent's end.
            span(2, 1, "decode", 10, 40),
            span(3, 1, "execute", 30, 50),
            span(4, 1, "execute", 60, 70),
            span(5, 1, "flush", 90, 120),
            // A grandchild only reduces its own parent.
            span(6, 3, "plan", 35, 45),
        ];
        let rows = self_times(&spans);
        let row = |name: &str| rows.iter().find(|row| row.name == name).unwrap().clone();
        // 100 − (40 + 10 + 10 clipped) = 40.
        assert_eq!(row("request").self_ns, 40);
        assert_eq!(row("request").total_ns, 100);
        assert_eq!(row("execute").count, 2);
        assert_eq!(row("execute").total_ns, 30);
        assert_eq!(row("execute").self_ns, 20);
        assert_eq!(row("plan").self_ns, 10);
        assert_eq!(row("decode").self_ns, 30);
        assert_eq!(rows[0].name, "request", "largest self time first");
    }

    #[test]
    fn nested_and_forked_spans_keep_their_parents() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.span("outer", 7, |tracer| {
            tracer.span("inner", 7, |_| ());
            let mut fork = tracer.fork(0);
            fork.span("unit", 8, |fork| fork.span("leaf", 8, |_| ()));
            tracer.absorb(fork);
        });
        let by_name = |name: &str| {
            tracer
                .spans()
                .iter()
                .find(|span| span.name == name)
                .unwrap()
                .clone()
        };
        let outer = by_name("outer");
        assert_eq!(outer.parent, 0);
        assert_eq!(by_name("inner").parent, outer.id);
        assert_eq!(by_name("unit").parent, outer.id);
        assert_eq!(by_name("leaf").parent, by_name("unit").id);
        let mut ids: Vec<SpanId> = tracer.spans().iter().map(|span| span.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "ids are unique across forks");
        assert!(outer.end_ns >= by_name("leaf").end_ns);
        assert_eq!(tracer.total("unit").1, 1);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let spans = vec![span(1, 0, "a", 0, 10), span(2, 1, "b", 2, 4)];
        let value = lfp_analysis::json::parse(&trace_json("w", &spans)).unwrap();
        assert_eq!(value.get("spans").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(value.get("self_time").unwrap().as_array().unwrap().len(), 2);
    }
}
