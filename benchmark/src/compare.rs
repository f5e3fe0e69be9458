//! Result files, `run all`, `compare` and `selfcheck` — the repo's
//! `bench-diff`.
//!
//! A result file is `{"host": {...}, "runs": [...]}`; each run records
//! its workload, seed, seconds, trace flag and the result object the
//! run printed. `compare A B` applies every end-to-end metric's bound
//! and direction per workload.

use crate::metrics::{median, Better, EndToEnd, END_TO_END};
use crate::Workload;
use lfp_analysis::json::{parse, JsonBuilder, JsonValue};
use std::process::{Command, ExitCode, Stdio};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The box the numbers came from.
pub struct Host {
    nproc: usize,
    rustc: String,
    git: String,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: command_line("rustc", &["-V"]),
            git: command_line("git", &["rev-parse", "--short", "HEAD"]),
        }
    }

    /// One line for a run's header.
    pub fn line(&self) -> String {
        format!(
            "host: nproc {}, {}, git {}",
            self.nproc, self.rustc, self.git
        )
    }

    fn json(&self) -> String {
        let mut host = JsonBuilder::object();
        host.integer("nproc", self.nproc as u64)
            .string("rustc", &self.rustc)
            .string("git", &self.git)
            .string(
                "note",
                "one process generates the load (2 threads, 2 connections) beside the in-process \
                 server (1 loop, 1 worker); all traffic is loopback, all disk I/O hits the page \
                 cache",
            );
        host.finish()
    }
}

/// One run as a result-file entry.
pub fn run_record(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    result_json: &str,
) -> String {
    let mut run = JsonBuilder::object();
    run.string("workload", workload.name())
        .integer("seed", seed)
        .number("seconds", seconds)
        .integer("trace", u64::from(trace))
        .raw("result", result_json.to_string());
    run.finish()
}

pub fn write_results(path: &str, runs: &[String]) {
    let mut document = JsonBuilder::object();
    document.raw("host", Host::probe().json());
    document.raw("runs", format!("[\n  {}\n]", runs.join(",\n  ")));
    std::fs::write(path, document.finish_pretty() + "\n").expect("write the result file");
    println!("# results written to {path}");
}

/// Run one workload in a fresh process (its own peak RSS, its own page
/// faults), echo what it prints, and return its result line.
fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn a workload process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result = stdout.lines().last()?.to_string();
    (output.status.success() && parse(&result).is_ok()).then_some(result)
}

/// Every workload, untraced then traced, each in a fresh process.
pub fn run_all(seed: u64, seconds: f64, out: Option<&str>) -> ExitCode {
    let mut runs = Vec::new();
    let mut failed = false;
    for workload in Workload::ALL {
        for trace in [false, true] {
            match run_child(workload, seed, seconds, trace) {
                Some(result) => runs.push(run_record(workload, seed, seconds, trace, &result)),
                None => {
                    eprintln!("{} (trace {trace}) failed", workload.name());
                    failed = true;
                }
            }
        }
    }
    let default_out = crate::out_dir().join("results.json");
    write_results(
        out.unwrap_or(default_out.to_str().expect("utf-8 path")),
        &runs,
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The untraced values of `metric` on `workload` in a result document.
fn values_of(document: &JsonValue, workload: &str, metric: &str) -> Vec<f64> {
    document
        .get("runs")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|run| run.get("workload").and_then(JsonValue::as_str) == Some(workload))
        .filter(|run| run.get("trace").and_then(JsonValue::as_u64) == Some(0))
        .filter_map(|run| {
            run.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them. `None` below two values: one run has no spread.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let count = sorted.len();
    let quartile = |i: usize| {
        let position = i * (count + 1);
        let j = (position / 4).clamp(1, count - 1);
        let delta = position as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&sorted))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    /// A side's own run-to-run spread exceeds the bound, and the runs
    /// of the two sides overlap: the files cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `after` against `before` for one metric on one workload.
/// Returns the verdict and how much worse the median got, as a share of
/// `before`'s median (negative when it improved).
pub fn judge(metric: &EndToEnd, before: &[f64], after: &[f64]) -> (Verdict, f64) {
    let (base, now) = (median(before), median(after));
    let worse = match metric.better {
        Better::Lower => (now - base) / base,
        Better::Higher => (base - now) / base,
    };
    let noisy = [before, after]
        .iter()
        .any(|side| quartile_spread(side).is_some_and(|spread| spread > metric.bound));
    let better_than = |a: f64, b: f64| match metric.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let clear_win = after
        .iter()
        .all(|&a| before.iter().all(|&b| better_than(a, b)));
    let verdict = if noisy && !clear_win {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

/// Print one row per metric × workload; returns how many regressed.
fn compare_documents(before: &JsonValue, after: &JsonValue) -> usize {
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "before", "after", "worse", "bound"
    );
    let mut regressions = 0;
    for workload in Workload::ALL {
        for metric in END_TO_END {
            let a = values_of(before, workload.name(), metric.name);
            let b = values_of(after, workload.name(), metric.name);
            if a.is_empty() || b.is_empty() {
                println!(
                    "{:<16} {:<16} missing from one file",
                    workload.name(),
                    metric.name
                );
                continue;
            }
            let (verdict, worse) = judge(metric, &a, &b);
            regressions += usize::from(verdict == Verdict::Regression);
            println!(
                "{:<16} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
                workload.name(),
                metric.name,
                median(&a),
                median(&b),
                worse * 100.0,
                metric.bound * 100.0,
                verdict.as_str()
            );
        }
    }
    regressions
}

fn load(path: &str) -> Option<JsonValue> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| eprintln!("cannot read {path}: {error}"))
        .ok()?;
    parse(&text)
        .map_err(|error| eprintln!("{path} is not JSON: {error:?}"))
        .ok()
}

pub fn compare_files(before: &str, after: &str) -> ExitCode {
    let (Some(before), Some(after)) = (load(before), load(after)) else {
        return ExitCode::from(2);
    };
    if compare_documents(&before, &after) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two complete untraced sets of the same code must agree on every
/// end-to-end metric within its bound, whichever is called "before".
pub fn selfcheck(seed: u64) -> ExitCode {
    let mut sets = Vec::new();
    for set in 0..2 {
        let mut runs = Vec::new();
        for workload in Workload::ALL {
            let Some(result) = run_child(workload, seed, crate::NOMINAL_SECONDS, false) else {
                eprintln!("selfcheck: {} failed in set {set}", workload.name());
                return ExitCode::FAILURE;
            };
            runs.push(run_record(
                workload,
                seed,
                crate::NOMINAL_SECONDS,
                false,
                &result,
            ));
        }
        sets.push(parse(&format!("{{\"runs\": [{}]}}", runs.join(", "))).expect("own JSON"));
    }
    let regressions = compare_documents(&sets[0], &sets[1]) + compare_documents(&sets[1], &sets[0]);
    if regressions == 0 {
        println!("selfcheck: both sets agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {regressions} metric(s) disagree beyond their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10 % bound (20 % for the tail), whatever the
    /// registry's bounds are today.
    fn metric(name: &'static str) -> EndToEnd {
        EndToEnd {
            name,
            unit: "x",
            better: if name == "throughput_qps" {
                Better::Higher
            } else {
                Better::Lower
            },
            bound: if name == "latency_p99_us" { 0.20 } else { 0.10 },
        }
    }

    fn document(values: &[(&str, &str, f64)]) -> JsonValue {
        let runs: Vec<String> = values
            .iter()
            .map(|(workload, name, value)| {
                format!(
                    "{{\"workload\": \"{workload}\", \"trace\": 0, \"result\": {{\"metrics\": \
                     {{\"{name}\": {{\"value\": {value}, \"unit\": \"x\"}}}}}}}}"
                )
            })
            .collect();
        parse(&format!("{{\"runs\": [{}]}}", runs.join(", "))).unwrap()
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let spread = quartile_spread(&[10.0, 20.0]).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), None);
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let throughput = &metric("throughput_qps"); // higher is better, 10 %
        assert_eq!(judge(throughput, &[1000.0], &[950.0]).0, Verdict::Ok);
        assert_eq!(
            judge(throughput, &[1000.0], &[880.0]).0,
            Verdict::Regression
        );
        assert_eq!(judge(throughput, &[1000.0], &[2000.0]).0, Verdict::Ok);
        let latency = &metric("latency_p50_us"); // lower is better, 10 %
        let (verdict, worse) = judge(latency, &[100.0], &[115.0]);
        assert_eq!(verdict, Verdict::Regression);
        assert!((worse - 0.15).abs() < 1e-12);
        assert_eq!(judge(latency, &[100.0], &[50.0]).0, Verdict::Ok);
        let tail = &metric("latency_p99_us"); // 20 %
        assert_eq!(judge(tail, &[100.0], &[115.0]).0, Verdict::Ok);
    }

    #[test]
    fn noisy_files_are_unresolved_unless_every_run_wins() {
        let latency = &metric("latency_p50_us");
        let noisy = [80.0, 100.0, 120.0, 140.0];
        // The medians differ by far more than the bound, but the
        // "before" file's own spread is wider than the bound.
        assert_eq!(
            judge(latency, &noisy, &[150.0, 151.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(latency, &noisy, &[100.0, 101.0]).0,
            Verdict::Unresolved
        );
        // Every run of "after" beats every run of "before".
        assert_eq!(judge(latency, &noisy, &[60.0, 61.0]).0, Verdict::Ok);
        // Steady files resolve.
        let steady = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            judge(latency, &steady, &[120.0, 121.0]).0,
            Verdict::Regression
        );
    }

    #[test]
    fn documents_are_compared_per_workload() {
        let before = document(&[
            ("serve-warm", "throughput_qps", 1000.0),
            ("serve-cold", "throughput_qps", 100.0),
        ]);
        let after = document(&[
            ("serve-warm", "throughput_qps", 1010.0),
            ("serve-cold", "throughput_qps", 60.0),
        ]);
        assert_eq!(values_of(&after, "serve-cold", "throughput_qps"), [60.0]);
        assert_eq!(compare_documents(&before, &after), 1);
        assert_eq!(compare_documents(&before, &before), 0);
    }
}
