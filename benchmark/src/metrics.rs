//! The metric registry and the small statistics every workload shares.
//!
//! `BENCHMARK.json` at the repo root declares the same names, units,
//! directions and bounds; a unit test holds the two to each other, so a
//! metric cannot be renamed in one place only.

use lfp_analysis::json::JsonBuilder;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees. Every
/// workload reports every one of them (the driver's contract), so each
/// is defined for all four workloads — see README.md for the matrix.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "timed_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
];

/// One per-layer metric (layer = crate name before the first dot),
/// taken in the traced run by the harness's own spans around the
/// crate's public calls. A workload that never enters the layer
/// reports 0: no time was spent there.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: &[Layer] = &[
    lower("topo.generate_s", "s"),
    lower("topo.collect_s", "s"),
    lower("netsim.fork_ms", "ms"),
    lower("netsim.traceroute_us", "us"),
    lower("netsim.probe_ns", "ns"),
    lower("packet.codec_ns", "ns"),
    lower("core.scan_s", "s"),
    higher("core.scan_targets_per_s", "1/s"),
    lower("core.finalize_ms", "ms"),
    lower("core.classify_ns_per_ip", "ns"),
    lower("analysis.classify_warm_s", "s"),
    lower("analysis.corpus_build_s", "s"),
    higher("analysis.corpus_paths_per_s", "1/s"),
    lower("analysis.corpus_extend_first_ms", "ms"),
    lower("analysis.corpus_extend_ms", "ms"),
    lower("analysis.experiments_s", "s"),
    lower("analysis.experiment_max_s", "s"),
    lower("query.frame_decode_ns", "ns"),
    lower("query.wire_decode_ns", "ns"),
    lower("query.canonical_ns", "ns"),
    lower("query.cache_hit_ns", "ns"),
    higher("query.cache_hit_rate", "ratio"),
    lower("query.plan_us", "us"),
    lower("query.rows_per_result", "count"),
    lower("query.exec_cold_us", "us"),
    lower("query.render_us", "us"),
    lower("query.envelope_ns", "ns"),
    lower("query.engine_build_ms", "ms"),
    lower("serve.answer_line_ns", "ns"),
    lower("serve.rtt_us", "us"),
    lower("serve.overhead_us", "us"),
    higher("serve.replies_per_iteration", "count"),
    higher("serve.bytes_per_read", "B"),
    lower("serve.stage.accept_us", "us"),
    lower("serve.stage.queue_us", "us"),
    lower("serve.stage.claim_us", "us"),
    lower("serve.stage.execute_us", "us"),
    lower("serve.stage.plan_us", "us"),
    lower("serve.stage.cache_lookup_us", "us"),
    lower("serve.stage.render_us", "us"),
    lower("serve.stage.flush_us", "us"),
    lower("serve.stage_residual_share", "ratio"),
    lower("serve.bind_ms", "ms"),
    lower("serve.drain_ms", "ms"),
    lower("obs.hist_record_ns", "ns"),
    lower("obs.metrics_render_us", "us"),
    lower("store.encode_ms", "ms"),
    lower("store.decode_ms", "ms"),
    lower("store.image_bytes", "B"),
    lower("store.delta_encode_us", "us"),
    lower("store.delta_decode_us", "us"),
    lower("store.delta_bytes", "B"),
    lower("store.ingest_ms", "ms"),
    lower("store.seal_ms", "ms"),
    lower("store.save_mono_ms", "ms"),
    lower("store.save_mono_bytes", "B"),
    lower("store.compact_ms", "ms"),
    lower("store.compactions", "count"),
    lower("store.write_amp", "ratio"),
    lower("store.load_s", "s"),
    lower("store.repl_bootstrap_s", "s"),
    lower("store.repl_chunk_us", "us"),
    lower("store.repl_fetch_ms", "ms"),
    lower("store.repl_apply_ms", "ms"),
    higher("store.b64_mb_per_s", "MB/s"),
    lower("client.campaign_s", "s"),
    lower("client.latency_p99_us", "us"),
    lower("client.coldstart_s", "s"),
    lower("client.epoch_visible_ms", "ms"),
    lower("client.epoch_visible_p90_ms", "ms"),
    lower("client.bytes_per_epoch", "B"),
    lower("trace_overhead_share", "ratio"),
];

/// One reported metric.
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, iterations, epochs, checks).
    pub attempted: u64,
    /// Operations failed, refused, mismatched or missing.
    pub failed: u64,
    /// Validity guards the run missed; any entry makes the run an
    /// error, not a number.
    pub violations: Vec<String>,
    /// Measured values by registered name.
    pub values: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human table (sample counts, ids).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one check into `attempted`, and into `failed` (with a
    /// note) when it did not hold.
    pub fn check(&mut self, held: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !held {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Record a missed validity guard.
    pub fn guard(&mut self, held: bool, what: impl FnOnce() -> String) {
        if !held {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// One row per metric of the mode, in registry order. A per-layer
    /// metric the workload never touched reads 0; an end-to-end metric
    /// that is missing is a harness bug.
    pub fn rows(&self, traced: bool) -> Vec<Row> {
        if traced {
            PER_LAYER
                .iter()
                .map(|m| Row {
                    name: m.name,
                    unit: m.unit,
                    better: m.better,
                    value: self.values.get(m.name).copied().unwrap_or(0.0),
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| Row {
                    name: m.name,
                    unit: m.unit,
                    better: m.better,
                    value: *self
                        .values
                        .get(m.name)
                        .unwrap_or_else(|| panic!("workload did not report {}", m.name)),
                })
                .collect()
        }
    }

    /// The result object the driver reads off the last stdout line.
    pub fn result_json(&self, traced: bool) -> String {
        let mut metrics = JsonBuilder::object();
        for row in self.rows(traced) {
            let mut cell = JsonBuilder::object();
            cell.number("value", row.value).string("unit", row.unit);
            metrics.raw(row.name, cell.finish());
        }
        let mut result = JsonBuilder::object();
        result
            .raw("correct", self.correct().to_string())
            .integer("attempted", self.attempted.max(1))
            .integer("failed", self.failed)
            .raw("metrics", metrics.finish());
        result.finish()
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` of an unsorted sample. With `q` = 0.25 for
/// times and 0.75 for rates this is "the quartile on the fast side":
/// the value a quarter of the sample is at least as good as.
pub fn quartile(values: impl Iterator<Item = f64>, q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.collect();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

/// The fastest of several repetitions of the same timed call: what the
/// call costs when nothing else gets in its way.
pub fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond percentile `p` in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// The highest percentile of the usual ladder that still has at least
/// ten samples beyond it (choosing-metrics §1), or `None` when even the
/// median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];
    LADDER
        .iter()
        .copied()
        .rfind(|&p| samples_beyond(n, p) >= 10)
}

/// `VmHWM` of this process in MiB (Linux; 0 where `/proc` is missing).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfp_analysis::json::{parse, JsonValue};

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1,000 samples: exactly 10 lie beyond p99, so p99 is the
        // highest supported; one fewer sample and it drops to p90.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(2_000_000), Some(0.99999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&sample, 0.5), 50);
        assert_eq!(percentile(&sample, 0.9), 90);
        assert_eq!(percentile(&sample, 0.99), 99);
        assert_eq!(percentile(&sample, 1.0), 100);
        assert_eq!(percentile(&[7u32], 0.5), 7);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut outcome = Outcome::default();
        for metric in END_TO_END {
            outcome.set(metric.name, 1.5);
        }
        outcome.attempted = 12;
        let value = parse(&outcome.result_json(false)).expect("valid JSON");
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            value.get("correct").and_then(JsonValue::as_bool),
            Some(true)
        );
        let metrics = value.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        // A failed check flips `correct`; an untouched per-layer metric
        // reads 0 in the traced shape.
        outcome.check(false, || "synthetic".to_string());
        let traced = parse(&outcome.result_json(true)).unwrap();
        assert_eq!(
            traced.get("correct").and_then(JsonValue::as_bool),
            Some(false)
        );
        let layers = traced.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
    }

    /// `BENCHMARK.json` and this registry must agree name for name.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let manifest =
            parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid JSON");
        let keys: Vec<&str> = manifest
            .as_object()
            .unwrap()
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let text = |value: &JsonValue, key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        };
        let declared = manifest.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(declared.len(), END_TO_END.len());
        for (json, metric) in declared.iter().zip(END_TO_END) {
            assert_eq!(text(json, "name"), metric.name);
            assert_eq!(text(json, "unit"), metric.unit);
            assert_eq!(text(json, "better"), metric.better.as_str());
            let bound = json.get("bound").and_then(JsonValue::as_f64).unwrap();
            assert_eq!(bound, metric.bound, "{}", metric.name);
            assert!(bound <= 0.25);
        }
        let declared = manifest.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(declared.len(), PER_LAYER.len());
        assert!(declared.len() <= 128);
        for (json, metric) in declared.iter().zip(PER_LAYER) {
            assert_eq!(text(json, "name"), metric.name);
            assert_eq!(text(json, "unit"), metric.unit);
            assert_eq!(text(json, "better"), metric.better.as_str());
        }
        let workloads: Vec<String> = manifest
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|workload| text(workload, "name"))
            .collect();
        let known: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, known);
    }
}
