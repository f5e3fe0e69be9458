//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--scale tiny|small|paper|path-stress|query-stress|ingest-stress] [--serial] [--json DIR]
//!             [--markdown FILE] [--list] [--help] [ids…|all]
//! ```
//!
//! Builds one fully measured `World` at the requested scale, runs the
//! selected experiments (default: all), prints each report to stdout,
//! and optionally writes per-experiment JSON plus a combined Markdown
//! summary (the body of EXPERIMENTS.md). Nothing else is written: the
//! per-phase build timings go to stderr, and the timed campaign is the
//! repo benchmark's `campaign-paper` workload.
//! `--serial` forces the single-threaded single-shard reference path —
//! the baseline the parallel campaign's speedup is measured against.
//! `--help` prints the usage and exits 0; any other unknown `--flag`
//! exits 2, before a world is built.

use lfp_analysis::experiments::{all_ids, run_all_parallel, run_by_id, EXPERIMENTS};
use lfp_analysis::{Report, World};
use lfp_topo::Scale;
use std::io::Write;
use std::time::Instant;

const USAGE: &str = "usage: experiments [--scale tiny|small|paper|path-stress|query-stress|ingest-stress] [--serial]
                   [--json DIR] [--markdown FILE] [--list] [--help] [ids…|all]";

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut scale = Scale::small();
    let mut scale_name = "small".to_string();
    let mut parallel = true;
    let mut json_dir: Option<String> = None;
    let mut markdown: Option<String> = None;
    let mut run_all_requested = false;
    let mut ids: Vec<String> = Vec::new();

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().unwrap_or_default();
                scale = Scale::by_name(&value).unwrap_or_else(|| {
                    eprintln!("unknown scale '{value}' (tiny|small|paper|path-stress|query-stress|ingest-stress)");
                    std::process::exit(2);
                });
                scale_name = value;
            }
            "--serial" => parallel = false,
            "--json" => json_dir = args.next(),
            "--markdown" => markdown = args.next(),
            "--list" => {
                for experiment in EXPERIMENTS {
                    println!("{:<22} {}", experiment.id, experiment.title);
                }
                return;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "all" => run_all_requested = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag '{flag}'\n{USAGE}");
                std::process::exit(2);
            }
            other => ids.push(other.to_string()),
        }
    }
    let run_everything = run_all_requested || ids.is_empty();
    if run_everything {
        ids = all_ids().iter().map(|s| s.to_string()).collect();
    }

    eprintln!(
        "building world at scale '{scale_name}' (~{} routers, {} campaign)…",
        scale.approx_routers(),
        if parallel { "parallel" } else { "serial" },
    );
    let build_start = Instant::now();
    // Warming the campaign cache (the `classify` phase) only pays off
    // when the whole registry runs; a subset build stays lazy.
    let (world, timings) = World::build_instrumented(scale, parallel, run_everything);
    eprintln!(
        "world ready in {:.1}s (generate {:.1}s, collect {:.1}s, scan {:.1}s, finalize {:.1}s, classify {:.1}s, path corpus {:.1}s)",
        build_start.elapsed().as_secs_f64(),
        timings.generate,
        timings.collect,
        timings.scan,
        timings.finalize,
        timings.classify,
        timings.path_corpus,
    );
    eprintln!(
        "  {} routers, {} interfaces, {} unique / {} non-unique signatures",
        world.internet.routers().len(),
        world.internet.network().interface_count(),
        world.set.unique_count(),
        world.set.non_unique_count(),
    );

    let experiments_start = Instant::now();
    let reports: Vec<Report> = if run_everything && parallel {
        run_all_parallel(&world)
    } else {
        ids.iter()
            .filter_map(|id| {
                let report = run_by_id(&world, id);
                if report.is_none() {
                    eprintln!("unknown experiment id '{id}' — try --list");
                }
                report
            })
            .collect()
    };
    let experiments_secs = experiments_start.elapsed().as_secs_f64();
    for report in &reports {
        println!("{}", report.render_text());
    }
    eprintln!(
        "{} experiments in {:.1}s ({})",
        reports.len(),
        experiments_secs,
        if run_everything && parallel {
            "parallel registry"
        } else {
            "sequential"
        },
    );

    if let Some(dir) = json_dir {
        std::fs::create_dir_all(&dir).expect("create json dir");
        for report in &reports {
            let path = format!("{dir}/{}.json", report.id);
            std::fs::write(&path, report.to_json()).expect("write json");
        }
        eprintln!("wrote {} JSON reports to {dir}", reports.len());
    }

    if let Some(path) = markdown {
        let mut out = std::fs::File::create(&path).expect("create markdown file");
        writeln!(
            out,
            "<!-- generated by `experiments --scale {scale_name}` -->"
        )
        .unwrap();
        for report in &reports {
            writeln!(out, "### {} — {}\n", report.id, report.title).unwrap();
            if !report.columns.is_empty() {
                writeln!(out, "| {} |", report.columns.join(" | ")).unwrap();
                writeln!(
                    out,
                    "|{}|",
                    report
                        .columns
                        .iter()
                        .map(|_| "---")
                        .collect::<Vec<_>>()
                        .join("|")
                )
                .unwrap();
                for row in &report.rows {
                    writeln!(out, "| {} |", row.join(" | ")).unwrap();
                }
                writeln!(out).unwrap();
            }
            for series in &report.series {
                let sampled: Vec<String> = series
                    .points
                    .iter()
                    .step_by((series.points.len() / 8).max(1))
                    .map(|(x, y)| format!("({x:.2}, {y:.3})"))
                    .collect();
                writeln!(out, "- series `{}`: {}", series.name, sampled.join(" ")).unwrap();
            }
            writeln!(out, "\n- **paper**: {}", report.paper_claim).unwrap();
            writeln!(out, "- **measured**: {}\n", report.measured_claim).unwrap();
            for note in &report.notes {
                writeln!(out, "- note: {note}").unwrap();
            }
        }
        eprintln!("wrote markdown summary to {path}");
    }
}
