//! Small statistics toolkit: ECDFs, histograms, quantiles.
//!
//! Every figure in the paper is either an ECDF or a bar/histogram; these
//! types produce the plotted series as plain `(x, y)` points so the
//! experiment harness can print them and EXPERIMENTS.md can quote them.

/// An empirical CDF over f64 samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|v| !v.is_nan());
        samples.sort_by(|a, b| a.total_cmp(b));
        Ecdf { sorted: samples }
    }

    /// Wrap samples that are already ascending and NaN-free (e.g. a
    /// value histogram read back in order) without re-sorting them.
    pub fn from_sorted(sorted: Vec<f64>) -> Self {
        debug_assert!(
            sorted.windows(2).all(|pair| pair[0] <= pair[1]),
            "Ecdf::from_sorted needs ascending, NaN-free samples"
        );
        Ecdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X ≤ x).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (0 ≤ q ≤ 1), by nearest rank.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0)) * (self.sorted.len() - 1) as f64).round() as usize;
        Some(self.sorted[rank])
    }

    /// Mean of the samples.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }

    /// Sample the curve at `n` evenly spaced x positions between min and
    /// max (plus the exact min/max), for plotting. When every sample is
    /// equal the curve degenerates to the single point `(x, 1.0)`.
    pub fn series(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = self.sorted[self.sorted.len() - 1];
        if lo == hi {
            return vec![(lo, 1.0)];
        }
        let mut points = Vec::with_capacity(n + 1);
        for step in 0..=n.max(1) {
            let x = lo + (hi - lo) * step as f64 / n.max(1) as f64;
            points.push((x, self.fraction_at_or_below(x)));
        }
        points
    }
}

/// A fixed-width histogram reported as percentage per bin.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bin left edges.
    pub edges: Vec<f64>,
    /// Percentage of samples per bin.
    pub percent: Vec<f64>,
    /// Total sample count.
    pub total: usize,
    /// Width of every bin.
    pub width: f64,
}

impl Histogram {
    /// Histogram over [lo, hi) with `bins` equal bins; out-of-range
    /// samples clamp to the edge bins.
    pub fn build(samples: &[f64], lo: f64, hi: f64, bins: usize) -> Histogram {
        let bins = bins.max(1);
        let width = (hi - lo) / bins as f64;
        let mut counts = vec![0usize; bins];
        for &sample in samples {
            let index = if width > 0.0 {
                (((sample - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize
            } else {
                0
            };
            counts[index] += 1;
        }
        let total = samples.len();
        Histogram {
            edges: (0..bins).map(|i| lo + i as f64 * width).collect(),
            percent: counts
                .iter()
                .map(|&c| {
                    if total == 0 {
                        0.0
                    } else {
                        c as f64 * 100.0 / total as f64
                    }
                })
                .collect(),
            total,
            width,
        }
    }

    /// Percentage of samples within `[lo, hi]`, defined by bin overlap:
    /// each bin `[edge, edge + width)` contributes its percentage scaled
    /// by the fraction of the bin covered by the range. Bins fully inside
    /// count whole, straddling bins count proportionally, and the bin
    /// starting exactly at `hi` contributes nothing (zero overlap width).
    pub fn percent_between(&self, lo: f64, hi: f64) -> f64 {
        if hi < lo {
            return 0.0;
        }
        self.edges
            .iter()
            .zip(&self.percent)
            .map(|(&edge, &p)| {
                if self.width > 0.0 {
                    let overlap = (hi.min(edge + self.width) - lo.max(edge)).max(0.0);
                    p * (overlap / self.width).min(1.0)
                } else if edge >= lo && edge <= hi {
                    p
                } else {
                    0.0
                }
            })
            .sum()
    }
}

/// Share helper: `part / whole` as a percentage, 0 when `whole` is zero.
pub fn percent(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basics() {
        let ecdf = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(ecdf.len(), 4);
        assert_eq!(ecdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(ecdf.fraction_at_or_below(2.0), 0.5);
        assert_eq!(ecdf.fraction_at_or_below(10.0), 1.0);
        assert_eq!(ecdf.quantile(0.0), Some(1.0));
        assert_eq!(ecdf.quantile(1.0), Some(4.0));
        assert_eq!(ecdf.mean(), Some(2.5));
    }

    #[test]
    fn ecdf_series_is_monotone() {
        let ecdf = Ecdf::new((0..100).map(|i| (i * i) as f64).collect());
        let series = ecdf.series(20);
        for pair in series.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
            assert!(pair[0].0 <= pair[1].0);
        }
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn ecdf_series_collapses_degenerate_range() {
        let ecdf = Ecdf::new(vec![2.0; 5]);
        assert_eq!(ecdf.series(10), vec![(2.0, 1.0)]);
        let single = Ecdf::new(vec![7.5]);
        assert_eq!(single.series(3), vec![(7.5, 1.0)]);
    }

    #[test]
    fn ecdf_handles_empty_and_nan() {
        let ecdf = Ecdf::new(vec![f64::NAN]);
        assert!(ecdf.is_empty());
        assert_eq!(ecdf.quantile(0.5), None);
        assert_eq!(ecdf.mean(), None);
        assert!(Ecdf::new(vec![]).series(5).is_empty());
    }

    #[test]
    fn from_sorted_equals_the_sorting_constructor() {
        let sorted = vec![1.0, 1.0, 2.0, 5.0, 5.0, 9.0];
        let shuffled = vec![5.0, 1.0, 9.0, 2.0, 5.0, 1.0];
        assert_eq!(Ecdf::from_sorted(sorted), Ecdf::new(shuffled));
        let empty = Ecdf::from_sorted(Vec::new());
        assert!(empty.is_empty());
        assert_eq!((empty.mean(), empty.quantile(0.5)), (None, None));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ascending")]
    fn from_sorted_rejects_unsorted_samples_in_debug_builds() {
        let _ = Ecdf::from_sorted(vec![2.0, 1.0]);
    }

    #[test]
    fn histogram_percentages_sum_to_100() {
        let samples: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        let histogram = Histogram::build(&samples, 0.0, 100.0, 10);
        let sum: f64 = histogram.percent.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert_eq!(histogram.total, 1000);
    }

    #[test]
    fn histogram_clamps_outliers() {
        let histogram = Histogram::build(&[-5.0, 105.0, 50.0], 0.0, 100.0, 10);
        let sum: f64 = histogram.percent.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert!(histogram.percent[0] > 0.0);
        assert!(histogram.percent[9] > 0.0);
    }

    #[test]
    fn percent_between_counts_boundary_aligned_bins() {
        // 10 bins of width 10 over [0, 100), one sample per bin.
        let samples: Vec<f64> = (0..10).map(|i| i as f64 * 10.0 + 5.0).collect();
        let histogram = Histogram::build(&samples, 0.0, 100.0, 10);
        // [0, 50] covers bins 0–4 in full; bin 5 starts at 50 and has
        // zero overlap width, so it contributes nothing.
        assert!((histogram.percent_between(0.0, 50.0) - 50.0).abs() < 1e-9);
        // The whole range is everything.
        assert!((histogram.percent_between(0.0, 100.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn percent_between_prorates_straddling_bins() {
        let samples: Vec<f64> = (0..10).map(|i| i as f64 * 10.0 + 5.0).collect();
        let histogram = Histogram::build(&samples, 0.0, 100.0, 10);
        // [5, 15] covers half of bin 0 and half of bin 1.
        assert!((histogram.percent_between(5.0, 15.0) - 10.0).abs() < 1e-9);
        // [0, 25] = bins 0, 1 whole plus half of bin 2.
        assert!((histogram.percent_between(0.0, 25.0) - 25.0).abs() < 1e-9);
        // A range inside one bin takes a proportional sliver.
        assert!((histogram.percent_between(2.0, 4.0) - 2.0).abs() < 1e-9);
        // Inverted and out-of-range queries are empty.
        assert_eq!(histogram.percent_between(50.0, 40.0), 0.0);
        assert_eq!(histogram.percent_between(200.0, 300.0), 0.0);
    }

    #[test]
    fn percent_helper() {
        assert_eq!(percent(1, 4), 25.0);
        assert_eq!(percent(3, 0), 0.0);
    }
}
