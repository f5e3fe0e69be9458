//! `lfp-benchmark` — the repo benchmark.
//!
//! ```text
//! lfp-benchmark run <workload|all> [--seed N] [--seconds S] [--trace] [--out FILE]
//! lfp-benchmark compare A.json B.json
//! lfp-benchmark selfcheck [--seed N]
//! lfp-benchmark --workload W --seed N --seconds S --trace 0|1     (the driver's form)
//! ```
//!
//! Every run builds its inputs from the seed, runs one workload in this
//! process, checks the outputs, prints every metric by name with its
//! unit, and ends with one JSON line. Layers are measured from outside,
//! by timing calls into the crates' public functions. See README.md.

mod campaign;
mod client;
mod compare;
mod epochs;
mod metrics;
mod serve;
mod span;

use metrics::Outcome;
use span::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Seconds the workload counts are sized for; `--seconds` scales them.
const NOMINAL_SECONDS: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignPaper,
    ServeWarm,
    ServeCold,
    Epochs,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CampaignPaper,
        Workload::ServeWarm,
        Workload::ServeCold,
        Workload::Epochs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignPaper => "campaign-paper",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeCold => "serve-cold",
            Workload::Epochs => "epochs",
        }
    }

    fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's inputs.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny worlds and counts, for testing the harness only; never a
    /// source of numbers.
    pub quick: bool,
    pub process_start: Instant,
}

impl Config {
    /// A count sized for [`NOMINAL_SECONDS`], scaled to `--seconds`.
    /// The work stays fixed for a given `--seconds`, so counts repeat.
    pub fn scaled(&self, nominal: u64) -> u64 {
        ((nominal as f64 * self.seconds / NOMINAL_SECONDS).round() as u64).max(1)
    }
}

/// Where runs leave their files: `benchmark/out` of the checkout the
/// command runs from (or `out` when run from inside `benchmark/`, as
/// `cargo test` does), ignored by git.
pub fn out_dir() -> PathBuf {
    let dir = if std::path::Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir).expect("create the out directory");
    dir
}

fn run_dir(config: &Config) -> PathBuf {
    out_dir().join(format!(
        "run-{}-{}",
        config.workload.name(),
        std::process::id()
    ))
}

/// A path for this run's scratch files (removed when the run ends).
pub fn scratch_dir(config: &Config, name: &str) -> PathBuf {
    let dir = run_dir(config);
    std::fs::create_dir_all(&dir).expect("create the run's scratch directory");
    dir.join(name)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lfp-benchmark run <workload|all> [--seed N] [--seconds S] [--trace] [--quick] [--out FILE]\n\
         \x20      lfp-benchmark compare A.json B.json\n\
         \x20      lfp-benchmark selfcheck [--seed N]\n\
         \x20      lfp-benchmark --workload W --seed N --seconds S --trace 0|1\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// Options shared by `run` and the driver's flag-only form.
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Option<RunArgs> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 0,
        seconds: NOMINAL_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workload" => parsed.workload = Some(iter.next()?.clone()),
            "--seed" => parsed.seed = iter.next()?.parse().ok()?,
            "--seconds" => {
                parsed.seconds = iter.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?;
            }
            "--trace" => {
                // `--trace 0|1` from the driver, bare `--trace` by hand.
                parsed.trace = match iter.peek().map(|next| next.as_str()) {
                    Some("0") => {
                        iter.next();
                        false
                    }
                    Some("1") => {
                        iter.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(iter.next()?.clone()),
            name if parsed.workload.is_none() && !name.starts_with('-') => {
                parsed.workload = Some(name.to_string());
            }
            _ => return None,
        }
    }
    Some(parsed)
}

/// Run one workload in this process and print its result.
fn run_here(config: &Config) -> Outcome {
    println!(
        "# lfp-benchmark {} seed {} seconds {} trace {}{}",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace),
        if config.quick {
            " QUICK (harness test only; not a source of numbers)"
        } else {
            ""
        }
    );
    println!("# {}", compare::Host::probe().line());
    println!(
        "# server under test: 1 loop, 1 worker, cache 16 shards x 4096; load: {} client threads, \
         {} connections; all traffic is loopback, all disk I/O hits the page cache",
        serve::CONNECTIONS,
        serve::CONNECTIONS
    );
    let mut tracer = Tracer::new(config.process_start);
    let mut outcome = match (config.workload, config.trace) {
        (Workload::CampaignPaper, false) => campaign::run(config),
        (Workload::CampaignPaper, true) => campaign::run_traced(config, &mut tracer),
        (Workload::ServeWarm | Workload::ServeCold, false) => serve::run(config),
        (Workload::ServeWarm | Workload::ServeCold, true) => serve::run_traced(config, &mut tracer),
        (Workload::Epochs, false) => epochs::run(config),
        (Workload::Epochs, true) => epochs::run_traced(config, &mut tracer),
    };
    let _ = std::fs::remove_dir_all(run_dir(config));

    // The load generator may not outnumber the cores it shares with
    // the server under test.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    outcome.guard(config.quick || serve::CONNECTIONS <= cores, || {
        format!(
            "{} load-generator threads and connections on {cores} core(s)",
            serve::CONNECTIONS
        )
    });

    if config.trace {
        let path = out_dir().join(format!("trace-{}.json", config.workload.name()));
        std::fs::write(
            &path,
            span::trace_json(config.workload.name(), tracer.spans()),
        )
        .expect("write the trace");
        println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        println!(
            "{:<32} {:>9} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for row in span::self_times(tracer.spans()).iter().take(24) {
            println!(
                "{:<32} {:>9} {:>14.3} {:>14.3}",
                row.name,
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6
            );
        }
    }
    println!("{:<34} {:>18} {:<6} better", "metric", "value", "unit");
    for row in outcome.rows(config.trace) {
        println!(
            "{:<34} {:>18.6} {:<6} {}",
            row.name,
            row.value,
            row.unit,
            row.better.as_str()
        );
    }
    println!(
        "{:<34} {:>18.6} ratio ({} failed of {} attempted)",
        "failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted.max(1)
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for violation in &outcome.violations {
        println!("# VALIDITY GUARD MISSED: {violation}");
    }
    println!("{}", outcome.result_json(config.trace));
    outcome
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("run") => ("run", &args[1..]),
        Some("compare") => ("compare", &args[1..]),
        Some("selfcheck") => ("selfcheck", &args[1..]),
        Some(flag) if flag.starts_with("--") => ("run", &args[..]),
        _ => return usage(),
    };
    match command {
        "compare" => match rest {
            [a, b] => compare::compare_files(a, b),
            _ => usage(),
        },
        "selfcheck" => match parse_run_args(rest) {
            Some(parsed) if parsed.workload.is_none() => compare::selfcheck(parsed.seed),
            _ => usage(),
        },
        _ => {
            let Some(parsed) = parse_run_args(rest) else {
                return usage();
            };
            let Some(name) = parsed.workload.as_deref() else {
                return usage();
            };
            if name == "all" {
                return compare::run_all(parsed.seed, parsed.seconds, parsed.out.as_deref());
            }
            let Some(workload) = Workload::by_name(name) else {
                return usage();
            };
            let config = Config {
                workload,
                seed: parsed.seed,
                seconds: parsed.seconds,
                trace: parsed.trace,
                quick: parsed.quick,
                process_start,
            };
            let outcome = run_here(&config);
            if let Some(path) = parsed.out.as_deref() {
                let run = compare::run_record(
                    config.workload,
                    config.seed,
                    config.seconds,
                    config.trace,
                    &outcome.result_json(config.trace),
                );
                compare::write_results(path, &[run]);
            }
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: Workload, trace: bool) -> Config {
        Config {
            workload,
            seed: 5,
            seconds: NOMINAL_SECONDS,
            trace,
            quick: true,
            process_start: Instant::now(),
        }
    }

    /// Every workload, untraced and traced, end to end at test scale:
    /// correct, and every registered metric of the mode is reported.
    #[test]
    fn every_workload_runs_quick_and_correct() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let outcome = run_here(&quick(workload, trace));
                assert!(
                    outcome.correct(),
                    "{} trace {trace}: {:?} {:?}",
                    workload.name(),
                    outcome.violations,
                    outcome.notes
                );
                assert!(outcome.attempted > 0);
                for row in outcome.rows(trace) {
                    assert!(row.value.is_finite(), "{} is not a number", row.name);
                    assert!(trace || row.value > 0.0, "{} must never read 0", row.name);
                }
            }
        }
    }

    #[test]
    fn driver_and_hand_forms_parse_alike() {
        let words = |text: &str| text.split(' ').map(String::from).collect::<Vec<_>>();
        let driver = parse_run_args(&words("--workload epochs --seed 9 --seconds 4 --trace 1"))
            .expect("driver form");
        let hand = parse_run_args(&words("epochs --trace --seed 9 --seconds 4")).expect("by hand");
        for parsed in [&driver, &hand] {
            assert_eq!(parsed.workload.as_deref(), Some("epochs"));
            assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (9, 4.0, true));
        }
        let off = parse_run_args(&words("--workload serve-warm --trace 0")).unwrap();
        assert!(!off.trace);
        assert!(parse_run_args(&words("--workload serve-warm --bogus")).is_none());
        assert!(parse_run_args(&words("--seconds 0")).is_none());
    }

    #[test]
    fn counts_scale_with_seconds() {
        let mut config = quick(Workload::ServeWarm, false);
        assert_eq!(config.scaled(1000), 1000);
        config.seconds = 2.5;
        assert_eq!(config.scaled(1000), 250);
        config.seconds = 0.001;
        assert_eq!(config.scaled(10), 1);
    }
}
