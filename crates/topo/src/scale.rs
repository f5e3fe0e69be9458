//! Scale presets: one knob controlling the size of the synthetic Internet.
//!
//! Tests run `Tiny`, examples `Small`, and the experiments harness `Paper`.
//! Absolute counts scale with the preset; every distribution *shape* the
//! paper reports is preserved across presets (that is integration-tested),
//! so EXPERIMENTS.md compares shapes, not raw magnitudes.

/// Sizing parameters of the generated Internet and measurement campaigns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Number of autonomous systems.
    pub ases: usize,
    /// Number of tier-1 (clique) ASes among them.
    pub tier1: usize,
    /// Fraction of non-tier-1 ASes that are transit providers.
    pub transit_fraction: f64,
    /// Mean routers per stub AS (heavy-tailed around this).
    pub routers_per_stub: f64,
    /// Mean routers per transit AS.
    pub routers_per_transit: f64,
    /// Mean routers per tier-1 AS.
    pub routers_per_tier1: f64,
    /// Number of RIPE-style vantage points.
    pub vantages: usize,
    /// Traceroute destinations per vantage point per snapshot.
    pub dests_per_vantage: usize,
    /// Number of RIPE-style snapshots to build.
    pub snapshots: usize,
    /// Fraction of destinations resampled between snapshots (churn; the
    /// paper observes ~88% pairwise IP overlap, i.e. ~12% churn).
    pub snapshot_churn: f64,
    /// Fraction of ASes included in the ITDK-style enumeration.
    pub itdk_as_fraction: f64,
    /// Signature minimum-occurrence threshold appropriate at this scale
    /// (the paper's 20 at full scale; proportionally lower below).
    pub occurrence_threshold: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Test-sized Internet: tens of ASes, hundreds of routers.
    pub fn tiny() -> Self {
        Scale {
            ases: 48,
            tier1: 3,
            transit_fraction: 0.2,
            routers_per_stub: 3.0,
            routers_per_transit: 10.0,
            routers_per_tier1: 24.0,
            vantages: 3,
            dests_per_vantage: 24,
            snapshots: 2,
            snapshot_churn: 0.15,
            itdk_as_fraction: 0.5,
            occurrence_threshold: 2,
            seed: 0x1f9,
        }
    }

    /// Example-sized Internet: minutes of end-to-end pipeline.
    pub fn small() -> Self {
        Scale {
            ases: 420,
            tier1: 6,
            transit_fraction: 0.18,
            routers_per_stub: 4.0,
            routers_per_transit: 22.0,
            routers_per_tier1: 60.0,
            vantages: 10,
            dests_per_vantage: 380,
            snapshots: 3,
            snapshot_churn: 0.12,
            itdk_as_fraction: 0.45,
            occurrence_threshold: 4,
            seed: 0x5ca1e,
        }
    }

    /// Experiment-sized Internet approximating the paper's populations
    /// (hundreds of thousands of interfaces; minutes to scan).
    pub fn paper() -> Self {
        Scale {
            ases: 5200,
            tier1: 14,
            transit_fraction: 0.16,
            routers_per_stub: 5.0,
            routers_per_transit: 40.0,
            routers_per_tier1: 130.0,
            vantages: 20,
            dests_per_vantage: 2000,
            snapshots: 5,
            snapshot_churn: 0.12,
            itdk_as_fraction: 0.40,
            occurrence_threshold: 20,
            seed: 0x90_51_ca,
        }
    }

    /// Path-corpus stress preset: a moderate router population probed by
    /// many vantages with deep destination lists, so the campaign yields
    /// far more traces per router than `small` does. Collection and
    /// scanning stay cheap while the path-corpus build (classify, intern
    /// and index every trace) dominates — the corpus the repo
    /// benchmark's `serve-cold` workload queries.
    pub fn path_stress() -> Self {
        Scale {
            ases: 320,
            tier1: 5,
            transit_fraction: 0.2,
            routers_per_stub: 3.0,
            routers_per_transit: 16.0,
            routers_per_tier1: 48.0,
            vantages: 24,
            dests_per_vantage: 600,
            snapshots: 4,
            snapshot_churn: 0.12,
            itdk_as_fraction: 0.5,
            occurrence_threshold: 3,
            seed: 0x9a7_5c0,
        }
    }

    /// Query-serving stress preset: a campaign sized so the *measurement*
    /// finishes in seconds while still yielding a path corpus with enough
    /// distinct AS pairs, lengths and slices to exercise every index the
    /// query planner lowers onto. This is `vendor-queryd`'s default
    /// preset and the world of the repo benchmark's `serve-warm`
    /// workload: world build is a small fixed cost, and the serving layer
    /// (cache hits, planner scans, protocol round trips) dominates.
    pub fn query_stress() -> Self {
        Scale {
            ases: 140,
            tier1: 4,
            transit_fraction: 0.2,
            routers_per_stub: 3.0,
            routers_per_transit: 12.0,
            routers_per_tier1: 36.0,
            vantages: 8,
            dests_per_vantage: 150,
            snapshots: 2,
            snapshot_churn: 0.12,
            itdk_as_fraction: 0.5,
            occurrence_threshold: 2,
            seed: 0x0_9e4d,
        }
    }

    /// Incremental-ingestion stress preset: a deliberately small *base*
    /// campaign (two snapshots) over a topology rich enough that the
    /// follow-up snapshot deltas — planned beyond the base by continuing
    /// the churn chain (see
    /// `lfp_topo::datasets::plan_ripe_snapshots_extended`) — carry
    /// thousands of new traces each. This is the world of the repo
    /// benchmark's `epochs` workload: build a base world, persist it, and
    /// fold delta snapshots in as epochs.
    pub fn ingest_stress() -> Self {
        Scale {
            ases: 180,
            tier1: 4,
            transit_fraction: 0.2,
            routers_per_stub: 3.0,
            routers_per_transit: 14.0,
            routers_per_tier1: 40.0,
            vantages: 10,
            dests_per_vantage: 220,
            snapshots: 2,
            snapshot_churn: 0.15,
            itdk_as_fraction: 0.5,
            occurrence_threshold: 2,
            seed: 0x1_57e55,
        }
    }

    /// Parse a preset by name (used by the experiments binary).
    pub fn by_name(name: &str) -> Option<Scale> {
        match name {
            "tiny" => Some(Scale::tiny()),
            "small" => Some(Scale::small()),
            "paper" => Some(Scale::paper()),
            "path-stress" => Some(Scale::path_stress()),
            "query-stress" => Some(Scale::query_stress()),
            "ingest-stress" => Some(Scale::ingest_stress()),
            _ => None,
        }
    }

    /// Expected total router count (rough, for capacity planning).
    pub fn approx_routers(&self) -> usize {
        let transit = ((self.ases - self.tier1) as f64 * self.transit_fraction) as usize;
        let stubs = self.ases - self.tier1 - transit;
        (self.tier1 as f64 * self.routers_per_tier1
            + transit as f64 * self.routers_per_transit
            + stubs as f64 * self.routers_per_stub) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let tiny = Scale::tiny();
        let small = Scale::small();
        let paper = Scale::paper();
        assert!(tiny.ases < small.ases && small.ases < paper.ases);
        assert!(tiny.approx_routers() < small.approx_routers());
        assert!(small.approx_routers() < paper.approx_routers());
    }

    #[test]
    fn by_name_resolves_presets() {
        assert_eq!(Scale::by_name("tiny"), Some(Scale::tiny()));
        assert_eq!(Scale::by_name("small"), Some(Scale::small()));
        assert_eq!(Scale::by_name("paper"), Some(Scale::paper()));
        assert_eq!(Scale::by_name("path-stress"), Some(Scale::path_stress()));
        assert_eq!(Scale::by_name("query-stress"), Some(Scale::query_stress()));
        assert_eq!(
            Scale::by_name("ingest-stress"),
            Some(Scale::ingest_stress())
        );
        assert_eq!(Scale::by_name("galactic"), None);
    }

    #[test]
    fn ingest_stress_keeps_the_base_small_but_deltas_meaty() {
        let stress = Scale::ingest_stress();
        // A small base campaign: the point is restart + ingest, not the
        // initial measurement…
        assert_eq!(stress.snapshots, 2);
        assert!(stress.approx_routers() < Scale::small().approx_routers());
        // …while each planned delta snapshot still carries enough traces
        // per vantage to exercise the epoch fold's interning and indexes.
        assert!(stress.vantages * stress.dests_per_vantage >= 2_000);
        assert!(stress.snapshot_churn > 0.1, "deltas must actually churn");
    }

    #[test]
    fn query_stress_is_a_fast_build_with_a_rich_corpus() {
        let stress = Scale::query_stress();
        let small = Scale::small();
        // Cheaper to measure than `small` (the serving layer, not the
        // campaign, is what the preset stresses)…
        assert!(stress.approx_routers() < small.approx_routers());
        let traces = |s: &Scale| s.vantages * s.dests_per_vantage * s.snapshots;
        assert!(traces(&stress) < traces(&small));
        // …but with enough ASes and traces that the planner's indexes
        // (per AS pair, per source, per length) all have real fan-out.
        assert!(stress.ases >= 100);
        assert!(traces(&stress) >= 2_000);
    }

    #[test]
    fn path_stress_emphasises_traces_over_routers() {
        let stress = Scale::path_stress();
        let small = Scale::small();
        let traces = |s: &Scale| s.vantages * s.dests_per_vantage * s.snapshots;
        // More traces than `small` from a comparable router population:
        // the corpus build, not the scan, is the dominant phase.
        assert!(traces(&stress) > 3 * traces(&small));
        assert!(stress.approx_routers() < 2 * small.approx_routers());
    }

    #[test]
    fn paper_preset_is_internet_scale_ish() {
        let paper = Scale::paper();
        assert!(paper.approx_routers() > 50_000);
        assert_eq!(paper.occurrence_threshold, 20);
        assert_eq!(paper.snapshots, 5);
    }
}
