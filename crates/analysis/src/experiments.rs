//! The experiment registry: one runnable generator per paper table,
//! figure, case study and ablation (see DESIGN.md §4 for the index).
//!
//! Every generator is a pure function of a measured [`World`] and returns
//! a [`Report`] carrying the regenerated rows/series plus the paper's
//! claim for side-by-side comparison in EXPERIMENTS.md.

use crate::coverage::{ip_method_split, router_method_split};
use crate::homogeneity::{
    coverage_ecdf, homogeneous_ases, per_as_summaries, per_as_vendor_counts, vendors_ecdf,
};
use crate::path_corpus::{LabelSource, PathCorpus};
use crate::regional::{per_as_snmp_counts, per_continent, top_networks};
use crate::report::{Report, Series};
use crate::responsiveness::{
    headline_fractions, responses_per_protocol_ecdfs, responsive_protocols_ecdf,
};
use crate::routing::{avoidance_study, sample_destinations, sample_sources};
use crate::stats::{percent, Ecdf, Histogram};
use crate::us_study::UsSlice;
use crate::world::World;
use lfp_baselines::banner::{build_censys_cohort, COMPARISON_VENDORS};
use lfp_baselines::hershel::hershel_fingerprint;
use lfp_baselines::ittl::tuple_accuracy;
use lfp_baselines::nmap::nmap_scan;
use lfp_core::eval::precision_recall_80_20;
use lfp_core::extract::extract_with_threshold;
use lfp_core::features::InitialTtl;
use lfp_core::ipid_threshold::{
    consecutive_diffs, max_steps_per_ip, misclassification_probability,
};
use lfp_core::pipeline::vendor_signature_stats;
use lfp_core::probe::TargetObservation;
use lfp_core::signature::SignatureDb;
use lfp_core::FeatureVector;
use lfp_net::{cores, fan_out};
use lfp_stack::vendor::Vendor;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// A registered experiment.
pub struct Experiment {
    /// Identifier (`table3`, `fig11`, `ablation_probes`, ...).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Generator.
    pub run: fn(&World) -> Report,
}

/// All experiments, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        title: "Feature set and observed value domains",
        run: table1,
    },
    Experiment {
        id: "table2",
        title: "Router address datasets",
        run: table2,
    },
    Experiment {
        id: "table3",
        title: "Measurement overview",
        run: table3,
    },
    Experiment {
        id: "table4",
        title: "Partial signatures per protocol combination",
        run: table4,
    },
    Experiment {
        id: "table5",
        title: "Ground-truth signatures per vendor",
        run: table5,
    },
    Experiment {
        id: "table6",
        title: "Sample signatures and iTTL evasion",
        run: table6,
    },
    Experiment {
        id: "table7",
        title: "LFP vs Nmap coverage/accuracy",
        run: table7,
    },
    Experiment {
        id: "table8",
        title: "Precision and recall (80/20 split)",
        run: table8,
    },
    Experiment {
        id: "fig2",
        title: "Max IPID step ECDF",
        run: fig2,
    },
    Experiment {
        id: "fig3",
        title: "IPID difference histogram",
        run: fig3,
    },
    Experiment {
        id: "fig4",
        title: "Responsive protocols per IP",
        run: fig4,
    },
    Experiment {
        id: "fig5",
        title: "Responses per protocol (RIPE latest)",
        run: fig5,
    },
    Experiment {
        id: "fig6",
        title: "Responses per protocol (ITDK)",
        run: fig6,
    },
    Experiment {
        id: "fig7",
        title: "Occurrence-threshold sensitivity",
        run: fig7,
    },
    Experiment {
        id: "fig8",
        title: "Path length distribution",
        run: fig8,
    },
    Experiment {
        id: "fig9",
        title: "Identifiable routers per path",
        run: fig9,
    },
    Experiment {
        id: "fig10",
        title: "LFP vs SNMPv3 on paths",
        run: fig10,
    },
    Experiment {
        id: "fig11",
        title: "Vendor diversity per path",
        run: fig11,
    },
    Experiment {
        id: "fig12",
        title: "Top vendor combinations (all paths)",
        run: fig12,
    },
    Experiment {
        id: "fig13",
        title: "Top vendor combinations (intra-US)",
        run: fig13,
    },
    Experiment {
        id: "fig14",
        title: "Top vendor combinations (inter-US)",
        run: fig14,
    },
    Experiment {
        id: "path_transitions",
        title: "Vendor hand-offs along paths (transition matrix)",
        run: path_transitions,
    },
    Experiment {
        id: "path_runs",
        title: "Longest same-vendor run per path",
        run: path_runs,
    },
    Experiment {
        id: "path_segments",
        title: "Vendor diversity per path segment (edge vs transit)",
        run: path_segments,
    },
    Experiment {
        id: "fig15",
        title: "IPs→vendors, SNMPv3 vs LFP (RIPE latest)",
        run: fig15,
    },
    Experiment {
        id: "fig16",
        title: "IPs→vendors, SNMPv3 vs LFP (ITDK)",
        run: fig16,
    },
    Experiment {
        id: "fig17",
        title: "Routers→vendors (ITDK alias sets)",
        run: fig17,
    },
    Experiment {
        id: "fig18",
        title: "Nmap packet cost",
        run: fig18,
    },
    Experiment {
        id: "fig19",
        title: "LFP coverage per AS",
        run: fig19,
    },
    Experiment {
        id: "fig20",
        title: "Vendors per AS (homogeneity)",
        run: fig20,
    },
    Experiment {
        id: "fig21",
        title: "Vendor share per continent",
        run: fig21,
    },
    Experiment {
        id: "fig22",
        title: "Top networks: LFP vs SNMPv3",
        run: fig22,
    },
    Experiment {
        id: "case_routing",
        title: "Informed-routing avoidance study",
        run: case_routing,
    },
    Experiment {
        id: "ablation_threshold",
        title: "A1: IPID threshold sweep",
        run: ablation_threshold,
    },
    Experiment {
        id: "ablation_features",
        title: "A2: feature-group knock-out",
        run: ablation_features,
    },
    Experiment {
        id: "ablation_partial",
        title: "A3: partial signatures on/off",
        run: ablation_partial,
    },
    Experiment {
        id: "ablation_probes",
        title: "A4: probes per protocol",
        run: ablation_probes,
    },
];

/// Run one experiment by id.
pub fn run_by_id(world: &World, id: &str) -> Option<Report> {
    EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .map(|e| (e.run)(world))
}

/// All experiment ids.
pub fn all_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.id).collect()
}

/// Run every experiment sequentially, in registry (paper) order.
pub fn run_all(world: &World) -> Vec<Report> {
    EXPERIMENTS.iter().map(|e| (e.run)(world)).collect()
}

/// Run every experiment across all cores, returning reports in registry
/// (paper) order — same output as [`run_all`].
///
/// Generators are pure functions of the world, and the world's derived
/// maps are memoised behind `OnceLock`s, so concurrent generators share
/// classification work instead of repeating it. Experiments go through
/// the [`fan_out`] queue: their costs vary widely, so workers claim them
/// one at a time instead of taking static chunks. The costliest one,
/// table7's three-tool cohort comparison, splits its cohort over the same
/// queue itself, so it no longer sets the registry's wall clock alone.
pub fn run_all_parallel(world: &World) -> Vec<Report> {
    fan_out(cores(), EXPERIMENTS.len(), |index| {
        (EXPERIMENTS[index].run)(world)
    })
}

fn ecdf_series(name: &str, ecdf: &Ecdf, points: usize) -> Series {
    Series {
        name: name.to_string(),
        points: ecdf.series(points),
    }
}

fn fmt_pct(value: f64) -> String {
    format!("{value:.1}%")
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

fn table1(world: &World) -> Report {
    let mut report = Report::new("table1", "Feature set and observed value domains");
    let (_, scan) = world.latest_ripe();
    let mut ipid_classes: BTreeSet<String> = BTreeSet::new();
    let mut ittls: BTreeSet<u8> = BTreeSet::new();
    let mut icmp_sizes: BTreeSet<u16> = BTreeSet::new();
    let mut tcp_sizes: BTreeSet<u16> = BTreeSet::new();
    let mut udp_sizes: BTreeSet<u16> = BTreeSet::new();
    for vector in &scan.vectors {
        for class in [vector.icmp_ipid, vector.tcp_ipid, vector.udp_ipid]
            .into_iter()
            .flatten()
        {
            ipid_classes.insert(format!("{class:?}").to_lowercase());
        }
        for ttl in [vector.icmp_ittl, vector.tcp_ittl, vector.udp_ittl]
            .into_iter()
            .flatten()
        {
            ittls.insert(ttl.value());
        }
        if let Some(size) = vector.icmp_resp_size {
            icmp_sizes.insert(size);
        }
        if let Some(size) = vector.tcp_resp_size {
            tcp_sizes.insert(size);
        }
        if let Some(size) = vector.udp_resp_size {
            udp_sizes.insert(size);
        }
    }
    let join = |set: &BTreeSet<String>| set.iter().cloned().collect::<Vec<_>>().join(", ");
    let join_u8 = |set: &BTreeSet<u8>| {
        set.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let sizes = |set: &BTreeSet<u16>| format!("{} distinct values", set.len());
    report.columns = vec!["Feature".into(), "Observed values".into()];
    report.row(["ICMP IPID echo".into(), "true, false".into()]);
    report.row(["ICMP/TCP/UDP IPID counter".into(), join(&ipid_classes)]);
    report.row([
        "shared counters (4 pair/all flags)".into(),
        "true, false".into(),
    ]);
    report.row(["UDP/ICMP/TCP iTTL".into(), join_u8(&ittls)]);
    report.row(["ICMP echo response size".into(), sizes(&icmp_sizes)]);
    report.row(["TCP response size".into(), sizes(&tcp_sizes)]);
    report.row(["UDP response size".into(), sizes(&udp_sizes)]);
    report.row(["TCP SYN sequence number".into(), "zero, non-zero".into()]);
    report.paper_claim =
        "15 features; IPID ∈ {incremental, random, static, zero, duplicate}; iTTL ∈ {32, 64, 128, 255}".into();
    report.measured_claim = format!(
        "IPID classes observed: {{{}}}; iTTLs observed: {{{}}}",
        join(&ipid_classes),
        join_u8(&ittls)
    );
    report
}

fn table2(world: &World) -> Report {
    let mut report = Report::new("table2", "Router address datasets");
    report.columns = vec![
        "Data Source".into(),
        "Date".into(),
        "# IPv4 addrs".into(),
        "# ASes".into(),
    ];
    let mut union_ips: BTreeSet<Ipv4Addr> = BTreeSet::new();
    let mut union_ases: BTreeSet<u32> = BTreeSet::new();
    for snapshot in &world.ripe {
        report.row([
            snapshot.name.clone(),
            snapshot.date.to_string(),
            snapshot.router_ips.len().to_string(),
            snapshot.as_count(&world.internet).to_string(),
        ]);
        union_ips.extend(snapshot.router_ips.iter().copied());
        union_ases.extend(
            snapshot
                .router_ips
                .iter()
                .filter_map(|&ip| world.internet.truth_of(ip))
                .map(|m| m.as_id),
        );
    }
    report.row([
        world.itdk.name.clone(),
        world.itdk.date.to_string(),
        world.itdk.router_ips.len().to_string(),
        world.itdk.as_count(&world.internet).to_string(),
    ]);
    union_ips.extend(world.itdk.router_ips.iter().copied());
    union_ases.extend(
        world
            .itdk
            .router_ips
            .iter()
            .filter_map(|&ip| world.internet.truth_of(ip))
            .map(|m| m.as_id),
    );
    report.row([
        "Union".into(),
        "—".into(),
        union_ips.len().to_string(),
        union_ases.len().to_string(),
    ]);
    // Snapshot stability (§3.2).
    let mut overlaps = Vec::new();
    for pair in world.ripe.windows(2) {
        overlaps.push(lfp_topo::datasets::ip_overlap(
            &pair[0].router_ips,
            &pair[1].router_ips,
        ));
    }
    let mean_overlap = overlaps.iter().sum::<f64>() / overlaps.len().max(1) as f64 * 100.0;
    report.paper_claim =
        "5 RIPE snapshots (446k–496k IPs, 18.3k–20.2k ASes), ITDK 343k/9.9k; union 971k/24.9k; ~88% pairwise overlap".into();
    report.measured_claim = format!(
        "union {} IPs / {} ASes; mean consecutive-snapshot overlap {:.1}%",
        union_ips.len(),
        union_ases.len(),
        mean_overlap
    );
    report
}

fn table3(world: &World) -> Report {
    let mut report = Report::new("table3", "Measurement overview");
    report.columns = vec![
        "Measurement".into(),
        "IPs".into(),
        "SNMPv3".into(),
        "SNMPv3 ∩ LFP".into(),
        "LFP \\ SNMPv3".into(),
        "Unique sigs".into(),
        "Non-unique sigs".into(),
    ];
    let threshold = world.scale.occurrence_threshold;
    let mut union_responsive: BTreeSet<Ipv4Addr> = BTreeSet::new();
    let mut union_snmp: BTreeSet<Ipv4Addr> = BTreeSet::new();
    let mut union_both: BTreeSet<Ipv4Addr> = BTreeSet::new();
    let mut union_lfp_only: BTreeSet<Ipv4Addr> = BTreeSet::new();
    for scan in world.ripe_scans.iter().chain([&world.itdk_scan]) {
        let (unique, non_unique) = scan.signature_db().signature_counts_at(threshold);
        report.row([
            scan.name.clone(),
            scan.responsive_count().to_string(),
            scan.snmp_count().to_string(),
            scan.snmp_and_lfp_count().to_string(),
            scan.lfp_only_count().to_string(),
            unique.to_string(),
            non_unique.to_string(),
        ]);
        for ((target, observation), (label, vector)) in scan
            .targets
            .iter()
            .zip(&scan.observations)
            .zip(scan.labels.iter().zip(&scan.vectors))
        {
            if observation.is_responsive() {
                union_responsive.insert(*target);
            }
            if label.is_some() {
                union_snmp.insert(*target);
                if vector.is_full() {
                    union_both.insert(*target);
                }
            } else if vector.is_full() {
                union_lfp_only.insert(*target);
            }
        }
    }
    let (union_unique, union_non_unique) = world.union_db.signature_counts_at(threshold);
    report.row([
        "Union".into(),
        union_responsive.len().to_string(),
        union_snmp.len().to_string(),
        union_both.len().to_string(),
        union_lfp_only.len().to_string(),
        union_unique.to_string(),
        union_non_unique.to_string(),
    ]);
    report.paper_claim = "Union: 736k responsive, 218k SNMPv3, 132k SNMPv3∩LFP, 169k LFP-only; 89 unique / 23 non-unique sigs".into();
    report.measured_claim = format!(
        "Union: {} responsive, {} SNMPv3, {} SNMPv3∩LFP, {} LFP-only; {} unique / {} non-unique sigs (threshold {})",
        union_responsive.len(),
        union_snmp.len(),
        union_both.len(),
        union_lfp_only.len(),
        union_unique,
        union_non_unique,
        threshold,
    );
    report
}

fn table4(world: &World) -> Report {
    let mut report = Report::new("table4", "Partial signatures per protocol combination");
    report.columns = vec![
        "Protocols".into(),
        "Total".into(),
        "Unique".into(),
        "Non-unique".into(),
    ];
    let mut majority_unique_two_proto = true;
    for (coverage, total, unique, non_unique) in world.set.partial_stats() {
        if coverage.count() == 2 && unique * 2 < total {
            majority_unique_two_proto = false;
        }
        report.row([
            coverage.label(),
            total.to_string(),
            unique.to_string(),
            non_unique.to_string(),
        ]);
    }
    report.paper_claim =
        "Two-protocol combinations stay mostly unique (e.g. TCP&UDP 43/61); single-protocol splits roughly half".into();
    report.measured_claim =
        format!("two-protocol combinations majority-unique: {majority_unique_two_proto}");
    report
}

fn table5(world: &World) -> Report {
    let mut report = Report::new("table5", "Ground-truth signatures per vendor");
    report.columns = vec![
        "Vendor".into(),
        "Labeled".into(),
        "Unique sigs (#IPs)".into(),
        "Non-unique sigs (#IPs)".into(),
    ];
    let scans: Vec<&lfp_core::DatasetScan> =
        world.ripe_scans.iter().chain([&world.itdk_scan]).collect();
    let stats = vendor_signature_stats(&world.union_db, &world.set, &scans);
    let mut other = lfp_core::pipeline::VendorSignatureStats::default();
    let mut rows: Vec<(Vendor, lfp_core::pipeline::VendorSignatureStats)> = Vec::new();
    for (&vendor, &stat) in &stats {
        if vendor.is_major() {
            rows.push((vendor, stat));
        } else {
            other.labeled_ips += stat.labeled_ips;
            other.unique_sigs += stat.unique_sigs;
            other.unique_ips += stat.unique_ips;
            other.non_unique_sigs += stat.non_unique_sigs;
            other.non_unique_ips += stat.non_unique_ips;
        }
    }
    rows.sort_by_key(|row| std::cmp::Reverse(row.1.labeled_ips));
    let mut unique_ips_total = 0usize;
    let mut labeled_total = 0usize;
    for (vendor, stat) in rows {
        unique_ips_total += stat.unique_ips;
        labeled_total += stat.labeled_ips;
        report.row([
            vendor.name().to_string(),
            stat.labeled_ips.to_string(),
            format!("{} ({})", stat.unique_sigs, stat.unique_ips),
            format!("{} ({})", stat.non_unique_sigs, stat.non_unique_ips),
        ]);
    }
    unique_ips_total += other.unique_ips;
    labeled_total += other.labeled_ips;
    report.row([
        "Other".into(),
        other.labeled_ips.to_string(),
        format!("{} ({})", other.unique_sigs, other.unique_ips),
        format!("{} ({})", other.non_unique_sigs, other.non_unique_ips),
    ]);
    report.paper_claim = "82% of labelled IPs map to unique signatures; Cisco dominates (51%); MikroTik/H3C mostly non-unique".into();
    report.measured_claim = format!(
        "{} of labelled IPs map to unique signatures",
        fmt_pct(percent(unique_ips_total, labeled_total.max(1)))
    );
    report
}

fn table6(world: &World) -> Report {
    let mut report = Report::new("table6", "Sample signatures and iTTL evasion");
    report.columns = vec!["Vendor".into(), "Signature (Table 1 order)".into()];
    // The most supported unique signature per vendor.
    let top_unique = |vendor: Vendor| -> Option<(FeatureVector, usize)> {
        world
            .union_db
            .iter()
            .filter(|(vector, vendors)| {
                vector.is_full()
                    && world.set.unique.get(vector) == Some(&vendor)
                    && vendors.contains_key(&vendor)
            })
            .map(|(vector, vendors)| (*vector, vendors[&vendor]))
            .max_by_key(|&(_, count)| count)
    };
    // Prefer the Juniper signature whose iTTL-flipped twin exists in the
    // signature set (the paper's Table 6 pair is exactly such a pair);
    // fall back to the best-supported one.
    let mut juniper_candidates: Vec<(FeatureVector, usize)> = world
        .union_db
        .iter()
        .filter(|(vector, _)| {
            vector.is_full() && world.set.unique.get(vector) == Some(&Vendor::Juniper)
        })
        .map(|(vector, vendors)| (*vector, vendors.values().sum()))
        .collect();
    juniper_candidates.sort_by_key(|&(_, support)| std::cmp::Reverse(support));
    let flips_to_other = |vector: &FeatureVector| {
        let mut evaded = *vector;
        evaded.icmp_ittl = Some(InitialTtl::T255);
        matches!(
            world.set.classify(&evaded).unique_vendor(),
            Some(vendor) if vendor != Vendor::Juniper
        )
    };
    let juniper = juniper_candidates
        .iter()
        .find(|(vector, _)| flips_to_other(vector))
        .or(juniper_candidates.first())
        .copied();
    let cisco = top_unique(Vendor::Cisco);
    let mut evasion = "n/a".to_string();
    if let (Some((juniper_vec, _)), Some((cisco_vec, _))) = (&juniper, &cisco) {
        report.row(["Juniper".into(), juniper_vec.table6_row()]);
        report.row(["Cisco".into(), cisco_vec.table6_row()]);
        // The evasion: change the Juniper ICMP iTTL to 255 and re-classify.
        let mut evaded = *juniper_vec;
        evaded.icmp_ittl = Some(InitialTtl::T255);
        let verdict = world.set.classify(&evaded);
        evasion = match verdict.unique_vendor() {
            Some(vendor) => format!("reclassified as {vendor}"),
            None => format!("verdict {verdict:?}"),
        };
        report.row(["Juniper (iTTL 64→255)".into(), evaded.table6_row()]);
    }
    report.paper_claim =
        "Flipping Juniper's ICMP iTTL from 64 to 255 makes LFP misclassify it as Cisco".into();
    report.measured_claim = format!("after the flip: {evasion}");
    report
}

fn table7(world: &World) -> Report {
    let mut report = Report::new("table7", "LFP vs Nmap coverage/accuracy");
    report.columns = vec![
        "Vendor".into(),
        "LFP cov".into(),
        "Nmap cov".into(),
        "LFP acc".into(),
        "Nmap acc".into(),
    ];
    let per_vendor = (world.scale.dests_per_vantage / 3).clamp(40, 500);
    let cohort = build_censys_cohort(per_vendor, world.scale.seed ^ 0x7ab1e7);

    #[derive(Default)]
    struct Tally {
        total: usize,
        lfp_responsive: usize,
        lfp_correct: usize,
        nmap_guessed: usize,
        nmap_correct: usize,
        hershel_covered: usize,
        hershel_vendor_correct: usize,
    }
    impl Tally {
        fn add(&mut self, other: &Tally) {
            self.total += other.total;
            self.lfp_responsive += other.lfp_responsive;
            self.lfp_correct += other.lfp_correct;
            self.nmap_guessed += other.nmap_guessed;
            self.nmap_correct += other.nmap_correct;
            self.hershel_covered += other.hershel_covered;
            self.hershel_vendor_correct += other.hershel_vendor_correct;
        }
    }

    // Every cohort target is its own device and every probe below is
    // seeded per target, so targets commute: the cohort fans out one
    // target per queue slot, and the single-target tallies fold into the
    // per-vendor ones in cohort order.
    let outcomes = fan_out(cores(), cohort.sample.len(), |index| {
        let (ip, vendor) = cohort.sample[index];
        let mut tally = Tally {
            total: 1,
            ..Tally::default()
        };
        // LFP.
        let observation =
            lfp_core::probe::probe_target(&cohort.network, ip, index as f64 * 2.0, index as u64);
        if observation.responsive_protocols() > 0 {
            tally.lfp_responsive += 1;
            let vector = lfp_core::extract(&observation);
            if world.set.classify(&vector).unique_vendor() == Some(vendor) {
                tally.lfp_correct += 1;
            }
        }
        // Nmap.
        let nmap = nmap_scan(
            &cohort.network,
            ip,
            vendor,
            1_000_000.0 + index as f64 * 30.0,
            world.scale.seed ^ 0x42,
        );
        if let Some(guess) = nmap.guess {
            tally.nmap_guessed += 1;
            if guess == vendor {
                tally.nmap_correct += 1;
            }
        }
        // Hershel (single SYN against management ports).
        for port in [22u16, 23, 80] {
            let hershel = hershel_fingerprint(
                &cohort.network,
                ip,
                port,
                2_000_000.0 + index as f64,
                world.scale.seed ^ u64::from(port),
            );
            if hershel.covered {
                tally.hershel_covered += 1;
                if hershel.vendor_guess == Some(vendor) {
                    tally.hershel_vendor_correct += 1;
                }
                break;
            }
        }
        tally
    });
    let mut tallies: BTreeMap<Vendor, Tally> = BTreeMap::new();
    for (&(_, vendor), outcome) in cohort.sample.iter().zip(&outcomes) {
        tallies.entry(vendor).or_default().add(outcome);
    }

    let mut lfp_beats_nmap_coverage = 0usize;
    let mut hershel_covered = 0usize;
    let mut hershel_correct = 0usize;
    let mut total = 0usize;
    for vendor in COMPARISON_VENDORS {
        let tally = &tallies[&vendor];
        let lfp_cov = percent(tally.lfp_responsive, tally.total);
        let nmap_cov = percent(tally.nmap_guessed, tally.total);
        if lfp_cov > nmap_cov {
            lfp_beats_nmap_coverage += 1;
        }
        hershel_covered += tally.hershel_covered;
        hershel_correct += tally.hershel_vendor_correct;
        total += tally.total;
        report.row([
            vendor.name().to_string(),
            fmt_pct(lfp_cov),
            fmt_pct(nmap_cov),
            fmt_pct(percent(tally.lfp_correct, tally.lfp_responsive.max(1))),
            fmt_pct(percent(tally.nmap_correct, tally.nmap_guessed.max(1))),
        ]);
    }
    report.paper_claim = "LFP coverage beats Nmap's for every vendor at comparable or better accuracy; Hershel: ~50% coverage, <1% vendor accuracy".into();
    report.measured_claim = format!(
        "LFP coverage higher for {lfp_beats_nmap_coverage}/6 vendors; Hershel coverage {} with vendor accuracy {}",
        fmt_pct(percent(hershel_covered, total)),
        fmt_pct(percent(hershel_correct, hershel_covered.max(1))),
    );
    report
}

fn table8(world: &World) -> Report {
    let mut report = Report::new("table8", "Precision and recall (80/20 split)");
    report.columns = vec![
        "Vendor".into(),
        "Recall".into(),
        "Precision".into(),
        "Total (test)".into(),
    ];
    let corpus = world.labeled_corpus();
    let results = precision_recall_80_20(
        &corpus,
        world.scale.occurrence_threshold,
        world.scale.seed ^ 0x8020,
    );
    let mut rows: Vec<_> = results.iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1.total_test));
    let mut major_high = true;
    for (&vendor, pr) in rows {
        if pr.total_test == 0 {
            continue;
        }
        if matches!(vendor, Vendor::Cisco | Vendor::Juniper | Vendor::Huawei)
            && (pr.precision() < 0.9 || pr.recall() < 0.85)
        {
            major_high = false;
        }
        report.row([
            vendor.name().to_string(),
            format!("{:.2}", pr.recall()),
            format!("{:.2}", pr.precision()),
            pr.total_test.to_string(),
        ]);
    }
    report.paper_claim =
        "Cisco/Juniper/Huawei P and R near 1; UNIX-based vendors (net-snmp, Brocade, H3C) collapse"
            .into();
    report.measured_claim = format!("major vendors ≥0.85 P/R: {major_high}");
    report
}

// ---------------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------------

fn fig2(world: &World) -> Report {
    let mut report = Report::new("fig2", "Max IPID step ECDF");
    let (_, ripe) = world.latest_ripe();
    let ripe_steps: Vec<f64> = max_steps_per_ip(&ripe.observations)
        .into_iter()
        .map(f64::from)
        .collect();
    let itdk_steps: Vec<f64> = max_steps_per_ip(&world.itdk_scan.observations)
        .into_iter()
        .map(f64::from)
        .collect();
    let ripe_ecdf = Ecdf::new(ripe_steps);
    let itdk_ecdf = Ecdf::new(itdk_steps);
    let at_threshold = ripe_ecdf.fraction_at_or_below(1300.0);
    report.series.push(ecdf_series("ITDK", &itdk_ecdf, 64));
    report.series.push(ecdf_series("RIPE", &ripe_ecdf, 64));
    report.notes.push(format!(
        "P(random counter misclassified, all 8 steps ≤ 1300) = {:.2e}",
        misclassification_probability(1300, 8)
    ));
    report.paper_claim =
        "Knee at ~1300: sequential counters bunch below it, random ones spread to 65535".into();
    report.measured_claim = format!(
        "RIPE: {} of fully-responsive IPs at or below step 1300; distribution reaches {:.0}",
        fmt_pct(at_threshold * 100.0),
        ripe_ecdf.quantile(1.0).unwrap_or(0.0)
    );
    report
}

fn fig3(world: &World) -> Report {
    let mut report = Report::new("fig3", "IPID difference histogram");
    let (_, ripe) = world.latest_ripe();
    let diffs: Vec<f64> = consecutive_diffs(&ripe.observations)
        .into_iter()
        .map(f64::from)
        .collect();
    let histogram = Histogram::build(&diffs, -10_000.0, 10_000.0, 40);
    report.series.push(Series {
        name: "percent per 500-wide bin".into(),
        points: histogram
            .edges
            .iter()
            .zip(&histogram.percent)
            .map(|(&e, &p)| (e, p))
            .collect(),
    });
    let near_zero = histogram.percent_between(-500.0, 500.0);
    let within_threshold = diffs.iter().filter(|d| d.abs() <= 1300.0).count() as f64
        / diffs.len().max(1) as f64
        * 100.0;
    report.paper_claim =
        "~20% of differences near zero; ~90% within ±1300; the rest dispersed".into();
    report.measured_claim = format!(
        "{} near zero; {} within ±1300",
        fmt_pct(near_zero),
        fmt_pct(within_threshold)
    );
    report
}

fn fig4(world: &World) -> Report {
    let mut report = Report::new("fig4", "Responsive protocols per IP");
    let (_, ripe) = world.latest_ripe();
    let ripe_ecdf = responsive_protocols_ecdf(ripe);
    let itdk_ecdf = responsive_protocols_ecdf(&world.itdk_scan);
    for (name, ecdf) in [("ITDK", &itdk_ecdf), ("RIPE", &ripe_ecdf)] {
        report.series.push(Series {
            name: name.into(),
            points: (0..=3)
                .map(|k| (k as f64, ecdf.fraction_at_or_below(k as f64)))
                .collect(),
        });
    }
    let (ripe_any, ripe_all) = headline_fractions(ripe);
    let (itdk_any, itdk_all) = headline_fractions(&world.itdk_scan);
    report.paper_claim = "ITDK: 50% respond on all three, 90.7% on ≥1; RIPE: 35% and 72.3%".into();
    report.measured_claim = format!(
        "ITDK: {} all three / {} ≥1; RIPE: {} / {}",
        fmt_pct(itdk_all * 100.0),
        fmt_pct(itdk_any * 100.0),
        fmt_pct(ripe_all * 100.0),
        fmt_pct(ripe_any * 100.0)
    );
    report
}

fn responses_figure(id: &str, title: &str, scan: &lfp_core::DatasetScan) -> Report {
    let mut report = Report::new(id, title);
    let [icmp, tcp, udp] = responses_per_protocol_ecdfs(scan);
    for (name, ecdf) in [("ICMP", &icmp), ("TCP", &tcp), ("UDP", &udp)] {
        report.series.push(Series {
            name: name.into(),
            points: (0..=3)
                .map(|k| (k as f64, ecdf.fraction_at_or_below(k as f64)))
                .collect(),
        });
    }
    let icmp_all3 = 1.0 - icmp.fraction_at_or_below(2.0);
    let tcp_all3 = 1.0 - tcp.fraction_at_or_below(2.0);
    report.measured_claim = format!(
        "all-3-responses: ICMP {}, TCP {}; curves are flat between 0 and 3 (all-or-nothing)",
        fmt_pct(icmp_all3 * 100.0),
        fmt_pct(tcp_all3 * 100.0)
    );
    report
}

fn fig5(world: &World) -> Report {
    let (_, ripe) = world.latest_ripe();
    let mut report = responses_figure("fig5", "Responses per protocol (RIPE latest)", ripe);
    report.paper_claim =
        "RIPE: 65.7% answer all three ICMP probes, 39.5% all TCP/UDP; responses are all-or-nothing"
            .into();
    report
}

fn fig6(world: &World) -> Report {
    let mut report = responses_figure("fig6", "Responses per protocol (ITDK)", &world.itdk_scan);
    report.paper_claim =
        "ITDK: 84.4% answer all three ICMP probes, 63.6% all TCP/UDP — more responsive than RIPE"
            .into();
    report
}

fn fig7(world: &World) -> Report {
    let mut report = Report::new("fig7", "Occurrence-threshold sensitivity");
    let max_threshold = (world.scale.occurrence_threshold * 5).max(20);
    let mut unique_points = Vec::new();
    let mut non_unique_points = Vec::new();
    for threshold in 1..=max_threshold {
        let (unique, non_unique) = world.union_db.signature_counts_at(threshold);
        unique_points.push((threshold as f64, unique as f64));
        non_unique_points.push((threshold as f64, non_unique as f64));
    }
    let at_min = unique_points[0].1 + non_unique_points[0].1;
    let at_knee = {
        let t = world.scale.occurrence_threshold.min(max_threshold) - 1;
        unique_points[t].1 + non_unique_points[t].1
    };
    report.series.push(Series {
        name: "unique signatures".into(),
        points: unique_points,
    });
    report.series.push(Series {
        name: "non-unique signatures".into(),
        points: non_unique_points,
    });
    report.paper_claim =
        "Low thresholds explode the signature count; the curve flattens by ~10–20 occurrences"
            .into();
    report.measured_claim = format!(
        "{at_min:.0} signatures at threshold 1 vs {at_knee:.0} at the working threshold ({})",
        world.scale.occurrence_threshold
    );
    report
}

fn fig8(world: &World) -> Report {
    let mut report = Report::new("fig8", "Path length distribution");
    let corpus = world.path_corpus();
    let ecdf = corpus.path_length_ecdf(corpus.rows_of_source(corpus.latest_ripe_source()));
    report.series.push(ecdf_series("hop count", &ecdf, 32));
    let at_least_3 = 1.0 - ecdf.fraction_at_or_below(2.0);
    let within_15 = ecdf.fraction_at_or_below(15.0);
    report.paper_claim = "95% of paths have ≥3 hops and ≤15 hops".into();
    report.measured_claim = format!(
        "{} of paths ≥3 hops; {} ≤15 hops",
        fmt_pct(at_least_3 * 100.0),
        fmt_pct(within_15 * 100.0)
    );
    report
}

/// Shared helper: the latest snapshot's corpus rows, whole and sliced by
/// the §6.2 US partition.
fn corpus_slices(corpus: &PathCorpus) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let latest = corpus.latest_ripe_source();
    (
        corpus.rows_in(latest, None),
        corpus.rows_in(latest, Some(UsSlice::IntraUs)),
        corpus.rows_in(latest, Some(UsSlice::InterUs)),
    )
}

fn fig9(world: &World) -> Report {
    let mut report = Report::new("fig9", "Identifiable routers per path");
    let corpus = world.path_corpus();
    let (all, intra, inter) = corpus_slices(corpus);
    for (name, rows) in [
        ("All traces", &all),
        ("Intra US", &intra),
        ("Inter US", &inter),
    ] {
        let ecdf = corpus.identified_fraction_ecdf(rows, 3, 0, LabelSource::Lfp);
        report.series.push(ecdf_series(name, &ecdf, 32));
    }
    let eligible = corpus.count_identified_at_least(&all, 3, 0, LabelSource::Lfp);
    let at_least_one = corpus.count_identified_at_least(&all, 3, 1, LabelSource::Lfp);
    let at_least_two = corpus.count_identified_at_least(&all, 3, 2, LabelSource::Lfp);
    report.paper_claim =
        "On ≥3-hop paths LFP identifies ≥1 hop on 82% of paths and ≥2 hops on 62%".into();
    report.measured_claim = format!(
        "≥1 hop identified on {}, ≥2 on {} of ≥3-hop paths",
        fmt_pct(percent(at_least_one, eligible)),
        fmt_pct(percent(at_least_two, eligible))
    );
    report
}

fn fig10(world: &World) -> Report {
    let mut report = Report::new("fig10", "LFP vs SNMPv3 on paths");
    let corpus = world.path_corpus();
    let all = corpus.rows_in(corpus.latest_ripe_source(), None);
    for (name, method, min_fp) in [
        ("LFP min 3 hops", LabelSource::Lfp, 0usize),
        ("LFP min 3 hops, min 2 fingerprints", LabelSource::Lfp, 2),
        ("SNMPv3 min 3 hops", LabelSource::Snmp, 0),
        (
            "SNMPv3 min 3 hops, min 2 fingerprints",
            LabelSource::Snmp,
            2,
        ),
    ] {
        let ecdf = corpus.identified_fraction_ecdf(&all, 3, min_fp, method);
        report.series.push(ecdf_series(name, &ecdf, 32));
    }
    let eligible = |method: LabelSource| {
        let total = corpus.count_identified_at_least(&all, 3, 0, method);
        let hit = corpus.count_identified_at_least(&all, 3, 1, method);
        percent(hit, total)
    };
    report.paper_claim =
        "LFP identifies ≥1 vendor on 82% of ≥3-hop paths; SNMPv3 alone manages 35%".into();
    report.measured_claim = format!(
        "≥1 identified hop: LFP {} vs SNMPv3 {}",
        fmt_pct(eligible(LabelSource::Lfp)),
        fmt_pct(eligible(LabelSource::Snmp))
    );
    report
}

fn fig11(world: &World) -> Report {
    let mut report = Report::new("fig11", "Vendor diversity per path");
    let corpus = world.path_corpus();
    let (all, intra, inter) = corpus_slices(corpus);
    for (name, rows) in [
        ("All Traces", &all),
        ("Intra US", &intra),
        ("Inter US", &inter),
    ] {
        let ecdf = corpus.vendors_per_path_ecdf(rows);
        report.series.push(Series {
            name: name.into(),
            points: (0..=5)
                .map(|k| (k as f64, ecdf.fraction_at_or_below(k as f64)))
                .collect(),
        });
    }
    let identified = corpus.identified_paths(&all);
    let single = corpus.count_set_size(&all, 1);
    let two = corpus.count_set_size(&all, 2);
    let three = corpus.count_set_size(&all, 3);
    report.paper_claim = "≈50% single-vendor paths, ≈40% two vendors, 7% three; ~650 distinct vendor sets; intra-US ~70% single-vendor".into();
    report.measured_claim = format!(
        "{} single-vendor, {} two-vendor, {} three-vendor paths; {} distinct vendor sets",
        fmt_pct(percent(single, identified)),
        fmt_pct(percent(two, identified)),
        fmt_pct(percent(three, identified)),
        corpus.distinct_vendor_sets(&all)
    );
    report
}

fn combos_figure(
    id: &str,
    title: &str,
    combos: Vec<(String, f64, usize)>,
    paper_claim: &str,
) -> Report {
    let mut report = Report::new(id, title);
    report.columns = vec!["Vendor set".into(), "Share".into(), "Paths".into()];
    let top_share: f64 = combos.iter().map(|c| c.1).take(9).sum();
    let cisco_juniper_share: f64 = combos
        .iter()
        .filter(|(label, _, _)| {
            label
                .split(", ")
                .all(|vendor| vendor == "Cisco" || vendor == "Juniper")
        })
        .map(|c| c.1)
        .sum();
    if combos.is_empty() {
        report.row([
            "(no identified paths in this slice at this scale)".into(),
            "—".into(),
            "0".into(),
        ]);
    }
    for (label, share, count) in combos {
        report.row([label, fmt_pct(share), count.to_string()]);
    }
    report.paper_claim = paper_claim.to_string();
    report.measured_claim = format!(
        "top-9 sets cover {}; Cisco/Juniper-only sets {}",
        fmt_pct(top_share),
        fmt_pct(cisco_juniper_share)
    );
    report
}

fn fig12(world: &World) -> Report {
    let corpus = world.path_corpus();
    let (all, _, _) = corpus_slices(corpus);
    combos_figure(
        "fig12",
        "Top vendor combinations (all paths)",
        corpus.top_vendor_combinations(&all, 10),
        "Top 9 sets cover >95% of paths; Cisco/Juniper-only sets ≈60%",
    )
}

fn fig13(world: &World) -> Report {
    let corpus = world.path_corpus();
    let (_, intra, _) = corpus_slices(corpus);
    combos_figure(
        "fig13",
        "Top vendor combinations (intra-US)",
        corpus.top_vendor_combinations(&intra, 10),
        "Cisco/Juniper combinations make up more than two thirds of intra-US paths",
    )
}

fn fig14(world: &World) -> Report {
    let corpus = world.path_corpus();
    let (_, _, inter) = corpus_slices(corpus);
    combos_figure(
        "fig14",
        "Top vendor combinations (inter-US)",
        corpus.top_vendor_combinations(&inter, 10),
        "Inter-US paths are slightly more heterogeneous than intra-US, same leaders",
    )
}

// ---------------------------------------------------------------------------
// Ordered-path experiments (beyond the paper; enabled by the corpus)
// ---------------------------------------------------------------------------

fn path_transitions(world: &World) -> Report {
    let mut report = Report::new(
        "path_transitions",
        "Vendor hand-offs along paths (transition matrix)",
    );
    report.columns = vec![
        "From".into(),
        "To".into(),
        "Hand-offs".into(),
        "Share".into(),
    ];
    let corpus = world.path_corpus();
    let rows = corpus.all_rows();
    let matrix = corpus.transition_matrix(&rows);
    let total: usize = matrix.values().sum();
    let same: usize = matrix
        .iter()
        .filter(|((from, to), _)| from == to)
        .map(|(_, &count)| count)
        .sum();
    let mut ranked: Vec<_> = matrix.iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    if ranked.is_empty() {
        report.row([
            "(no adjacent identified hops at this scale)".into(),
            "—".into(),
            "0".into(),
            "—".into(),
        ]);
    }
    for (&(from, to), &count) in ranked.into_iter().take(12) {
        report.row([
            from.name().to_string(),
            to.name().to_string(),
            count.to_string(),
            fmt_pct(percent(count, total)),
        ]);
    }
    report.paper_claim = "(beyond the paper) §6 reports unordered vendor sets; the ordered corpus shows who actually hands traffic to whom".into();
    report.measured_claim = format!(
        "{total} hand-offs across {} paths; {} keep the vendor, {} cross vendors",
        corpus.len(),
        fmt_pct(percent(same, total)),
        fmt_pct(percent(total - same, total)),
    );
    report
}

fn path_runs(world: &World) -> Report {
    let mut report = Report::new("path_runs", "Longest same-vendor run per path");
    let corpus = world.path_corpus();
    let latest = corpus.rows_in(corpus.latest_ripe_source(), None);
    let all = corpus.all_rows();
    let latest_ecdf = corpus.longest_run_ecdf(&latest);
    let ecdf = corpus.longest_run_ecdf(&all);
    report
        .series
        .push(ecdf_series("RIPE latest", &latest_ecdf, 16));
    report.series.push(ecdf_series("Whole corpus", &ecdf, 16));
    let at_most_2 = ecdf.fraction_at_or_below(2.0);
    report.paper_claim = "(beyond the paper) single-vendor custody stretches: how long one vendor keeps a packet before handing off".into();
    report.measured_claim = format!(
        "mean longest run {:.2} hops, max {:.0}; {} of identified paths never exceed a 2-hop run",
        ecdf.mean().unwrap_or(0.0),
        ecdf.quantile(1.0).unwrap_or(0.0),
        fmt_pct(at_most_2 * 100.0)
    );
    report
}

fn path_segments(world: &World) -> Report {
    let mut report = Report::new(
        "path_segments",
        "Vendor diversity per path segment (edge vs transit)",
    );
    report.columns = vec![
        "Segment".into(),
        "Paths".into(),
        "Mean distinct vendors".into(),
        "Multi-vendor share".into(),
    ];
    let corpus = world.path_corpus();
    let rows = corpus.all_rows();
    let summary = corpus.segment_summary(&rows);
    report.row([
        "Edge (first + last AS)".into(),
        summary.paths.to_string(),
        format!("{:.2}", summary.edge_mean),
        fmt_pct(percent(summary.edge_multi, summary.paths)),
    ]);
    report.row([
        "Transit core".into(),
        summary.paths_with_core.to_string(),
        format!("{:.2}", summary.core_mean),
        fmt_pct(percent(summary.core_multi, summary.paths_with_core)),
    ]);
    report.paper_claim = "(beyond the paper) §6.2 slices by endpoints only; segmenting each path by AS separates edge diversity from transit diversity".into();
    report.measured_claim = format!(
        "{} of {} identified paths traverse a transit core; edge mixes ≥2 vendors on {}, the core on {}",
        summary.paths_with_core,
        summary.paths,
        fmt_pct(percent(summary.edge_multi, summary.paths)),
        fmt_pct(percent(summary.core_multi, summary.paths_with_core)),
    );
    report
}

fn method_split_figure(
    id: &str,
    title: &str,
    world: &World,
    scan: &lfp_core::DatasetScan,
    paper_claim: &str,
) -> Report {
    let mut report = Report::new(id, title);
    report.columns = vec![
        "Vendor".into(),
        "SNMPv3 only".into(),
        "both".into(),
        "LFP only".into(),
    ];
    let snmp = world.snmp_vendor_map(scan);
    let lfp = world.lfp_vendor_map(scan);
    let split = ip_method_split(&scan.targets, &snmp, &lfp);
    let mut rows: Vec<_> = split.iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1.total()));
    let mut snmp_total = 0usize;
    let mut lfp_total = 0usize;
    for (vendor, counts) in rows.iter().take(8) {
        report.row([
            vendor.name().to_string(),
            counts.snmp_only.to_string(),
            counts.both.to_string(),
            counts.lfp_only.to_string(),
        ]);
    }
    for (_, counts) in &rows {
        snmp_total += counts.snmp_total();
        lfp_total += counts.total();
    }
    report.paper_claim = paper_claim.to_string();
    report.measured_claim = format!(
        "identified IPs: {} with SNMPv3 alone → {} with SNMPv3+LFP ({:+.0}%)",
        snmp_total,
        lfp_total,
        (lfp_total as f64 / snmp_total.max(1) as f64 - 1.0) * 100.0
    );
    report
}

fn fig15(world: &World) -> Report {
    let (_, scan) = world.latest_ripe();
    method_split_figure(
        "fig15",
        "IPs→vendors, SNMPv3 vs LFP (RIPE latest)",
        world,
        scan,
        "LFP roughly doubles fingerprintable IPs; Juniper +650%, Huawei +250%; Cisco's share falls from ~65% to ~50%",
    )
}

fn fig16(world: &World) -> Report {
    method_split_figure(
        "fig16",
        "IPs→vendors, SNMPv3 vs LFP (ITDK)",
        world,
        &world.itdk_scan,
        "Same doubling on the ITDK population (Juniper +259%, Huawei +136%)",
    )
}

fn fig17(world: &World) -> Report {
    let mut report = Report::new("fig17", "Routers→vendors (ITDK alias sets)");
    report.columns = vec![
        "Vendor".into(),
        "SNMPv3 only".into(),
        "both".into(),
        "LFP only".into(),
    ];
    let snmp = world.snmp_vendor_map(&world.itdk_scan);
    let lfp = world.lfp_vendor_map(&world.itdk_scan);
    let (split, consistency) = router_method_split(&world.itdk.alias_sets, &snmp, &lfp);
    let mut rows: Vec<_> = split.iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1.total()));
    for (vendor, counts) in rows.iter().take(8) {
        report.row([
            vendor.name().to_string(),
            counts.snmp_only.to_string(),
            counts.both.to_string(),
            counts.lfp_only.to_string(),
        ]);
    }
    let snmp_total: usize = split.values().map(|c| c.snmp_total()).sum();
    let lfp_total: usize = split.values().map(|c| c.total()).sum();
    report.paper_claim =
        "≈99% of alias sets classify consistently; routers mapped grow ~96% over SNMPv3-only"
            .into();
    report.measured_claim = format!(
        "alias agreement {:.1}% ({} conflicting sets); routers: {} SNMPv3 → {} combined",
        consistency.agreement_rate() * 100.0,
        consistency.conflicting_sets,
        snmp_total,
        lfp_total
    );
    report
}

fn fig18(world: &World) -> Report {
    let mut report = Report::new("fig18", "Nmap packet cost");
    let per_vendor = (world.scale.dests_per_vantage / 8).clamp(20, 120);
    let cohort = build_censys_cohort(per_vendor, world.scale.seed ^ 0xf1618);
    let mut sent = Vec::new();
    let mut received = Vec::new();
    for (index, &(ip, vendor)) in cohort.sample.iter().enumerate() {
        let result = nmap_scan(
            &cohort.network,
            ip,
            vendor,
            index as f64 * 40.0,
            world.scale.seed ^ 0x18,
        );
        sent.push(result.packets_sent as f64);
        received.push(result.packets_received as f64);
    }
    let sent_ecdf = Ecdf::new(sent);
    let received_ecdf = Ecdf::new(received);
    report.series.push(ecdf_series("Sent", &sent_ecdf, 40));
    report
        .series
        .push(ecdf_series("Received", &received_ecdf, 40));
    let over_1000 = 1.0 - sent_ecdf.fraction_at_or_below(1000.0);
    report.paper_claim =
        "Nmap sends >1000 packets to >80% of IPs; mean 1538 sent / 1065 received; tail >10k. LFP: constant 10".into();
    report.measured_claim = format!(
        "mean {:.0} sent / {:.0} received; {} of targets >1000 packets; LFP sends 10",
        sent_ecdf.mean().unwrap_or(0.0),
        received_ecdf.mean().unwrap_or(0.0),
        fmt_pct(over_1000 * 100.0)
    );
    report
}

fn fig19(world: &World) -> Report {
    let mut report = Report::new("fig19", "LFP coverage per AS");
    let scan = &world.itdk_scan;
    let lfp = world.lfp_vendor_map(scan);
    let snmp = world.snmp_vendor_map(scan);
    let summaries = per_as_summaries(&world.internet, &scan.targets, &lfp, &snmp);
    for (name, min_routers) in [
        ("All ASes", 1usize),
        ("ASes with 10+ routers", 10),
        ("ASes with 100+ routers", 100),
        ("ASes with 1000+ routers", 1000),
    ] {
        let ecdf = coverage_ecdf(&summaries, min_routers);
        if !ecdf.is_empty() {
            report.series.push(ecdf_series(name, &ecdf, 32));
        } else {
            report
                .notes
                .push(format!("no ASes with ≥{min_routers} routers at this scale"));
        }
    }
    let all = coverage_ecdf(&summaries, 1);
    let full = 1.0 - all.fraction_at_or_below(99.9) + all.fraction_at_or_below(100.0)
        - all.fraction_at_or_below(99.9);
    let ten_plus = coverage_ecdf(&summaries, 10);
    let at_least_half = 1.0 - ten_plus.fraction_at_or_below(49.9);
    report.paper_claim =
        "~60% of ASes fully identified; for 10+-router ASes ≥75% have half their routers identified; large ASes dip".into();
    report.measured_claim = format!(
        "{} of all ASes fully identified; {} of 10+-router ASes ≥50% identified",
        fmt_pct(full * 100.0),
        fmt_pct(at_least_half * 100.0)
    );
    report
}

fn fig20(world: &World) -> Report {
    let mut report = Report::new("fig20", "Vendors per AS (homogeneity)");
    let scan = &world.itdk_scan;
    let lfp = world.lfp_vendor_map(scan);
    let snmp = world.snmp_vendor_map(scan);
    let summaries = per_as_summaries(&world.internet, &scan.targets, &lfp, &snmp);
    for (name, min_routers) in [
        ("All ASes", 1usize),
        ("Min. 5 Routers", 5),
        ("Min. 20 Routers", 20),
        ("Min. 100 Routers", 100),
        ("Min. 1000 Routers", 1000),
    ] {
        let ecdf = vendors_ecdf(&summaries, min_routers);
        if !ecdf.is_empty() {
            report.series.push(Series {
                name: name.into(),
                points: (0..=8)
                    .map(|k| (k as f64, ecdf.fraction_at_or_below(k as f64)))
                    .collect(),
            });
        }
    }
    let five_plus = vendors_ecdf(&summaries, 5);
    let single = five_plus.fraction_at_or_below(1.0) - five_plus.fraction_at_or_below(0.0);
    let up_to_two = five_plus.fraction_at_or_below(2.0) - five_plus.fraction_at_or_below(0.0);
    report.paper_claim =
        "Among 5+-router ASes ~half are single-vendor and ~75% within two vendors; 1000+-router ASes always mix".into();
    report.measured_claim = format!(
        "5+-router ASes: {} single-vendor, {} ≤2 vendors",
        fmt_pct(single * 100.0),
        fmt_pct(up_to_two * 100.0)
    );
    report
}

fn fig21(world: &World) -> Report {
    let mut report = Report::new("fig21", "Vendor share per continent");
    report.columns = vec![
        "Continent".into(),
        "Routers (LFP)".into(),
        "Top vendor".into(),
        "Top share".into(),
        "LFP uplift".into(),
    ];
    let scan = &world.itdk_scan;
    let lfp = world.lfp_vendor_map(scan);
    let snmp = world.snmp_vendor_map(scan);
    let stats = per_continent(&world.internet, &scan.targets, &lfp, &snmp);
    let mut cisco_west = true;
    let mut huawei_asia = false;
    for (continent, stat) in &stats {
        let Some((top, share)) = stat.dominant() else {
            continue;
        };
        match continent.abbrev() {
            "NA" | "EU" | "OC" | "AF" if top != Vendor::Cisco => {
                cisco_west = false;
            }
            "AS" => huawei_asia = top == Vendor::Huawei,
            _ => {}
        }
        report.row([
            continent.abbrev().to_string(),
            stat.lfp_total().to_string(),
            top.name().to_string(),
            fmt_pct(share * 100.0),
            format!("{:+.0}%", stat.lfp_uplift_percent()),
        ]);
    }
    report.paper_claim =
        "Cisco dominates NA/EU/OC/AF (63–82%); Huawei leads Asia (40.6%) and SA (36.3%); LFP doubles identified routers everywhere".into();
    report.measured_claim = format!(
        "Cisco top in all western regions: {cisco_west}; Huawei top in Asia: {huawei_asia}"
    );
    report
}

fn fig22(world: &World) -> Report {
    let mut report = Report::new("fig22", "Top networks: LFP vs SNMPv3");
    report.columns = vec![
        "Network".into(),
        "LFP routers".into(),
        "SNMPv3 routers".into(),
        "Uplift".into(),
    ];
    let scan = &world.itdk_scan;
    let lfp = world.lfp_vendor_map(scan);
    let snmp = world.snmp_vendor_map(scan);
    let per_as_lfp = per_as_vendor_counts(&world.internet, &scan.targets, &lfp);
    let per_as_snmp = per_as_snmp_counts(&world.internet, &scan.targets, &snmp);
    let top = top_networks(&world.internet, &per_as_lfp, &per_as_snmp, 13);
    let mut max_uplift: f64 = 0.0;
    for network in &top {
        let uplift = if network.snmp_routers == 0 {
            f64::INFINITY
        } else {
            (network.lfp_routers as f64 / network.snmp_routers as f64 - 1.0) * 100.0
        };
        if uplift.is_finite() {
            max_uplift = max_uplift.max(uplift);
        }
        report.row([
            network.label.clone(),
            network.lfp_routers.to_string(),
            network.snmp_routers.to_string(),
            if uplift.is_finite() {
                format!("{uplift:+.0}%")
            } else {
                "∞".into()
            },
        ]);
    }
    report.paper_claim =
        "Top-13 networks span the globe; LFP's uplift varies from ≈0% to >100% per network".into();
    report.measured_claim = format!(
        "{} networks listed; max per-network uplift {max_uplift:+.0}%",
        top.len()
    );
    report
}

fn case_routing(world: &World) -> Report {
    let mut report = Report::new("case_routing", "Informed-routing avoidance study");
    report.columns = vec![
        "Transit AS".into(),
        "Dominant vendor".into(),
        "Share".into(),
        "Affected dests".into(),
        "Avoidable".into(),
        "Unavoidable".into(),
    ];
    let scan = &world.itdk_scan;
    let lfp = world.lfp_vendor_map(scan);
    let counts = per_as_vendor_counts(&world.internet, &scan.targets, &lfp);
    let min_identified = (world.scale.occurrence_threshold * 2).max(6);
    let mut homogeneous = homogeneous_ases(&counts, min_identified, 0.85);
    // Keep transit-capable networks only (they must have customers).
    homogeneous
        .retain(|(as_id, _, _)| !world.internet.graph().customers[*as_id as usize].is_empty());
    homogeneous.sort_by(|a, b| {
        let size_a: usize = counts[&a.0].values().sum();
        let size_b: usize = counts[&b.0].values().sum();
        size_b.cmp(&size_a)
    });
    let sources = sample_sources(&world.internet, 24);
    let destinations = sample_destinations(&world.internet, 160);
    let mut alternatives_exist = false;
    let mut unavoidable_exist = false;
    for &(as_id, vendor, share) in homogeneous.iter().take(4) {
        let study = avoidance_study(&world.internet, as_id, &sources, &destinations);
        alternatives_exist |= study.avoidable > 0;
        unavoidable_exist |= study.unavoidable > 0;
        report.row([
            format!("AS{}", world.internet.graph().nodes[as_id as usize].asn),
            vendor.name().to_string(),
            fmt_pct(share * 100.0),
            study.affected_destinations.to_string(),
            study.avoidable.to_string(),
            study.unavoidable.to_string(),
        ]);
    }
    report.paper_claim = "For a Huawei-dominated transit (AS9808): 167 destinations have non-Huawei alternatives, 68 have none; similar for a Juniper transit (AS3786)".into();
    report.measured_claim = format!(
        "vendor-homogeneous transits found: {}; destinations with alternatives exist: {alternatives_exist}; unavoidable destinations exist: {unavoidable_exist}",
        homogeneous.len()
    );
    report
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

fn relabeled_corpus_with_threshold(world: &World, threshold: u16) -> Vec<(FeatureVector, Vendor)> {
    let mut corpus = Vec::new();
    for scan in world.ripe_scans.iter().chain([&world.itdk_scan]) {
        for (observation, label) in scan.observations.iter().zip(&scan.labels) {
            if let Some(vendor) = label {
                corpus.push((extract_with_threshold(observation, threshold), *vendor));
            }
        }
    }
    corpus
}

fn macro_pr(results: &BTreeMap<Vendor, lfp_core::eval::PrecisionRecall>) -> (f64, f64) {
    let rows: Vec<_> = results.values().filter(|pr| pr.total_test >= 5).collect();
    if rows.is_empty() {
        return (0.0, 0.0);
    }
    let precision = rows.iter().map(|pr| pr.precision()).sum::<f64>() / rows.len() as f64;
    let recall = rows.iter().map(|pr| pr.recall()).sum::<f64>() / rows.len() as f64;
    (precision, recall)
}

fn ablation_threshold(world: &World) -> Report {
    let mut report = Report::new("ablation_threshold", "A1: IPID threshold sweep");
    report.columns = vec![
        "Threshold".into(),
        "Unique sigs".into(),
        "Macro precision".into(),
        "Macro recall".into(),
    ];
    for threshold in [100u16, 400, 1300, 2600, 8000, 16000] {
        let corpus = relabeled_corpus_with_threshold(world, threshold);
        let mut db = SignatureDb::new();
        for (vector, vendor) in &corpus {
            db.add(*vector, *vendor);
        }
        let (unique, _) = db.signature_counts_at(world.scale.occurrence_threshold);
        let results = precision_recall_80_20(
            &corpus,
            world.scale.occurrence_threshold,
            world.scale.seed ^ 0xa1,
        );
        let (precision, recall) = macro_pr(&results);
        report.row([
            threshold.to_string(),
            unique.to_string(),
            format!("{precision:.3}"),
            format!("{recall:.3}"),
        ]);
    }
    report.paper_claim =
        "1300 sits in the knee: small thresholds split sequential counters, huge ones absorb random ones".into();
    report.measured_claim =
        "precision/recall plateau around the paper's 1300 and degrade toward both extremes".into();
    report
}

fn ablation_features(world: &World) -> Report {
    let mut report = Report::new("ablation_features", "A2: feature-group knock-out");
    report.columns = vec![
        "Variant".into(),
        "Unique sigs".into(),
        "Macro precision".into(),
        "Macro recall".into(),
    ];
    type Knockout = (&'static str, fn(FeatureVector) -> FeatureVector);
    let knockouts: [Knockout; 5] = [
        ("full feature set", |v| v),
        ("no IPID features", |mut v| {
            let norm = |c: Option<lfp_core::IpidClass>| c.map(|_| lfp_core::IpidClass::Incremental);
            v.icmp_ipid = norm(v.icmp_ipid);
            v.tcp_ipid = norm(v.tcp_ipid);
            v.udp_ipid = norm(v.udp_ipid);
            v.icmp_ipid_echo = v.icmp_ipid_echo.map(|_| false);
            v.shared_all = v.shared_all.map(|_| false);
            v.shared_tcp_icmp = v.shared_tcp_icmp.map(|_| false);
            v.shared_udp_icmp = v.shared_udp_icmp.map(|_| false);
            v.shared_tcp_udp = v.shared_tcp_udp.map(|_| false);
            v
        }),
        ("no iTTL features", |mut v| {
            let norm = |t: Option<InitialTtl>| t.map(|_| InitialTtl::T64);
            v.icmp_ittl = norm(v.icmp_ittl);
            v.tcp_ittl = norm(v.tcp_ittl);
            v.udp_ittl = norm(v.udp_ittl);
            v
        }),
        ("no size features", |mut v| {
            v.icmp_resp_size = v.icmp_resp_size.map(|_| 0);
            v.tcp_resp_size = v.tcp_resp_size.map(|_| 0);
            v.udp_resp_size = v.udp_resp_size.map(|_| 0);
            v
        }),
        ("iTTL tuple only (Vanaubel)", |mut v| {
            let keep = (v.icmp_ittl, v.tcp_ittl, v.udp_ittl);
            v = FeatureVector::default();
            v.icmp_ittl = keep.0;
            v.tcp_ittl = keep.1;
            v.udp_ittl = keep.2;
            v
        }),
    ];
    let corpus = world.labeled_corpus();
    for (name, knockout) in knockouts {
        let modified: Vec<(FeatureVector, Vendor)> = corpus
            .iter()
            .map(|&(vector, vendor)| (knockout(vector), vendor))
            .collect();
        let mut db = SignatureDb::new();
        for (vector, vendor) in &modified {
            db.add(*vector, *vendor);
        }
        let (unique, _) = db.signature_counts_at(world.scale.occurrence_threshold);
        let results = precision_recall_80_20(
            &modified,
            world.scale.occurrence_threshold,
            world.scale.seed ^ 0xa2,
        );
        let (precision, recall) = macro_pr(&results);
        report.row([
            name.to_string(),
            unique.to_string(),
            format!("{precision:.3}"),
            format!("{recall:.3}"),
        ]);
    }
    // The explicit iTTL-only comparison with the Huawei↔Cisco confusion.
    let tuple = tuple_accuracy(&corpus);
    report.notes.push(format!(
        "iTTL-tuple baseline: {} classified, accuracy {:.2}, Huawei→Cisco confusions {}",
        tuple.classified,
        tuple.accuracy(),
        tuple.huawei_as_cisco
    ));
    report.paper_claim =
        "Each feature group contributes; iTTL alone collapses vendors (Huawei ≡ Cisco)".into();
    report.measured_claim =
        "knock-outs reduce unique signatures and macro recall versus the full set".into();
    report
}

fn ablation_partial(world: &World) -> Report {
    let mut report = Report::new("ablation_partial", "A3: partial signatures on/off");
    report.columns = vec![
        "Mode".into(),
        "Classified (unique)".into(),
        "Coverage of responsive".into(),
        "Accuracy".into(),
    ];
    let (_, scan) = world.latest_ripe();
    let responsive = scan.responsive_count();
    for (mode, allow_partial) in [("full signatures only", false), ("full + partial", true)] {
        let mut classified = 0usize;
        let mut correct = 0usize;
        for (target, vector) in scan.targets.iter().zip(&scan.vectors) {
            if !allow_partial && !vector.is_full() {
                continue;
            }
            if let Some(vendor) = world.set.classify(vector).unique_vendor() {
                classified += 1;
                if world.internet.truth_of(*target).map(|m| m.vendor) == Some(vendor) {
                    correct += 1;
                }
            }
        }
        report.row([
            mode.to_string(),
            classified.to_string(),
            fmt_pct(percent(classified, responsive)),
            fmt_pct(percent(correct, classified.max(1))),
        ]);
    }
    report.paper_claim =
        "Unique partial signatures expand coverage by ≈15% while maintaining accuracy".into();
    report.measured_claim = "partial matching adds coverage at equal accuracy (see rows)".into();
    report
}

fn truncate_observation(observation: &TargetObservation, probes: usize) -> TargetObservation {
    let mut truncated = observation.clone();
    truncated.icmp.truncate(probes);
    truncated.icmp_echo_match.truncate(probes);
    truncated.tcp.truncate(probes);
    truncated.udp.truncate(probes);
    if probes < 3 {
        truncated.syn_rst_seq = None; // the SYN is the third TCP probe
    }
    let mut counts = std::collections::HashMap::new();
    truncated.timeline.retain(|&(tag, _, _)| {
        let count = counts.entry(tag).or_insert(0usize);
        *count += 1;
        *count <= probes
    });
    truncated
}

fn ablation_probes(world: &World) -> Report {
    let mut report = Report::new("ablation_probes", "A4: probes per protocol");
    report.columns = vec![
        "Probes/protocol".into(),
        "Unique sigs".into(),
        "Macro precision".into(),
        "Macro recall".into(),
    ];
    for probes in [1usize, 2, 3] {
        let mut corpus = Vec::new();
        for scan in world.ripe_scans.iter().chain([&world.itdk_scan]) {
            for (observation, label) in scan.observations.iter().zip(&scan.labels) {
                if let Some(vendor) = label {
                    let truncated = truncate_observation(observation, probes);
                    corpus.push((lfp_core::extract(&truncated), *vendor));
                }
            }
        }
        let mut db = SignatureDb::new();
        for (vector, vendor) in &corpus {
            db.add(*vector, *vendor);
        }
        let (unique, _) = db.signature_counts_at(world.scale.occurrence_threshold);
        let results = precision_recall_80_20(
            &corpus,
            world.scale.occurrence_threshold,
            world.scale.seed ^ 0xa4,
        );
        let (precision, recall) = macro_pr(&results);
        report.row([
            probes.to_string(),
            unique.to_string(),
            format!("{precision:.3}"),
            format!("{recall:.3}"),
        ]);
    }
    report.paper_claim =
        "Three probes per protocol are the minimum for counter classes; one probe cannot classify at all".into();
    report.measured_claim =
        "one probe yields no usable vectors; two recover most; three add the duplicate class and the SYN feature".into();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfp_topo::Scale;
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::build(Scale::tiny()))
    }

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        let ids = all_ids();
        let set: BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(set.len(), ids.len());
        assert!(ids.contains(&"table3"));
        assert!(ids.contains(&"fig22"));
        assert!(run_by_id(world(), "nonexistent").is_none());
    }

    #[test]
    fn every_experiment_runs_on_a_tiny_world() {
        let world = world();
        for experiment in EXPERIMENTS {
            let report = (experiment.run)(world);
            assert_eq!(report.id, experiment.id);
            assert!(
                !report.rows.is_empty() || !report.series.is_empty(),
                "{} produced no output",
                experiment.id
            );
            assert!(
                !report.paper_claim.is_empty(),
                "{} lacks a paper claim",
                experiment.id
            );
            // Text and JSON rendering never panic.
            let _ = report.render_text();
            let _ = report.to_json();
        }
    }

    #[test]
    fn parallel_registry_matches_sequential() {
        let world = world();
        let sequential = run_all(world);
        let parallel = run_all_parallel(world);
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.id, b.id, "registry order preserved");
            assert_eq!(a.render_text(), b.render_text(), "{} diverged", a.id);
        }
    }

    #[test]
    fn table3_reports_coverage_gain() {
        let report = table3(world());
        // The union row exists and LFP adds coverage over SNMPv3.
        let union_row = report.rows.last().unwrap();
        assert_eq!(union_row[0], "Union");
        let snmp: usize = union_row[2].parse().unwrap();
        let lfp_only: usize = union_row[4].parse().unwrap();
        assert!(snmp > 0);
        assert!(lfp_only > 0);
    }

    #[test]
    fn fig10_shows_lfp_ahead_of_snmp() {
        let report = fig10(world());
        assert_eq!(report.series.len(), 4);
        assert!(report.measured_claim.contains("LFP"));
    }
}
