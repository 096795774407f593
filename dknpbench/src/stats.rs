//! Statistics over raw samples: nearest-rank percentiles, medians, and
//! layer means derived from telemetry histograms.
//!
//! Percentiles are always computed from the raw samples. The telemetry
//! histograms' own p50/p99 are log2 upper bucket edges that can exceed the
//! observed maximum, so they are never used here: a histogram contributes
//! only its `count`, `sum`, `min` and `max`.

use dkindex_telemetry::Histogram;

/// Fewest samples that must lie strictly above a reported p99.
pub const MIN_BEYOND_P99: usize = 10;

/// Nearest-rank percentile of an ascending slice: the sample at 1-based
/// rank `ceil(pct / 100 × n)`, clamped to `1..=n`. Returns the value and
/// its rank, or `None` for an empty slice.
pub fn nearest_rank(sorted: &[u64], pct: f64) -> Option<(u64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    Some((sorted[rank - 1], rank))
}

/// Latency summary of one sample set, in the samples' own unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Samples ranked strictly above the p99 sample.
    pub beyond_p99: usize,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarize raw samples; `None` when there are none.
    pub fn of(mut samples: Vec<u64>) -> Option<Summary> {
        samples.sort_unstable();
        let (p50, _) = nearest_rank(&samples, 50.0)?;
        let (p99, rank99) = nearest_rank(&samples, 99.0)?;
        let n = samples.len();
        let sum: u128 = samples.iter().map(|&s| u128::from(s)).sum();
        Some(Summary {
            n,
            p50,
            p99,
            beyond_p99: n - rank99,
            mean: sum as f64 / n as f64,
        })
    }

    /// True when at least [`MIN_BEYOND_P99`] samples lie beyond the p99.
    pub fn p99_supported(&self) -> bool {
        self.beyond_p99 >= MIN_BEYOND_P99
    }
}

/// Median of a non-empty set of repeated measurements (the lower middle
/// for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get((sorted.len().max(1) - 1) / 2)
        .copied()
        .unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0 (a layer that saw no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What a telemetry histogram can honestly report: count, sum, min, max.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerMean {
    /// Observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl LayerMean {
    /// Read `h` without its bucket quantiles.
    pub fn of(h: &Histogram) -> LayerMean {
        LayerMean {
            count: h.count(),
            sum: h.sum(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
        }
    }

    /// `sum / count`, or 0 when nothing was recorded.
    pub fn mean(&self) -> f64 {
        ratio(self.sum as f64, self.count as f64)
    }
}

/// Mean of raw samples, or 0 for none.
pub fn mean(samples: &[u64]) -> f64 {
    let sum: u128 = samples.iter().map(|&s| u128::from(s)).sum();
    ratio(sum as f64, samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some((50, 50)));
        assert_eq!(nearest_rank(&s, 99.0), Some((99, 99)));
        assert_eq!(nearest_rank(&s, 100.0), Some((100, 100)));
        assert_eq!(nearest_rank(&s, 0.0), Some((1, 1)));
        assert_eq!(nearest_rank(&[7], 99.0), Some((7, 1)));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // ceil(0.5 × 5) = 3: the middle of an odd set.
        assert_eq!(nearest_rank(&[1, 2, 3, 4, 5], 50.0), Some((3, 3)));
    }

    #[test]
    fn summary_is_order_independent_and_exact() {
        let samples: Vec<u64> = (1..=1000).rev().collect();
        let s = Summary::of(samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500);
        assert_eq!(s.p99, 990);
        assert_eq!(s.beyond_p99, 10);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert!(Summary::of(Vec::new()).is_none());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let enough = Summary::of((0..1000).collect()).unwrap();
        assert!(enough.p99_supported());
        // ceil(0.99 × 999) = 990, so only 9 samples lie beyond.
        let short = Summary::of((0..999).collect()).unwrap();
        assert_eq!(short.beyond_p99, 9);
        assert!(!short.p99_supported());
    }

    #[test]
    fn p99_never_exceeds_the_observed_max() {
        let mut samples = vec![10u64; 990];
        samples.extend([1_000_000; 10]);
        let max = samples.iter().copied().max().unwrap();
        let s = Summary::of(samples).unwrap();
        assert_eq!(s.p99, 10);
        assert!(s.p99 <= max);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1, 2, 3, 6]), 3.0);
    }

    #[test]
    fn layer_mean_uses_count_and_sum_only() {
        static H: Histogram = Histogram::new("test.layer_ns", dkindex_telemetry::Unit::Nanos);
        dkindex_telemetry::enable();
        for v in [100u64, 200, 1500] {
            H.record(v);
        }
        dkindex_telemetry::disable();
        let m = LayerMean::of(&H);
        assert_eq!((m.count, m.sum, m.min, m.max), (3, 1800, 100, 1500));
        assert_eq!(m.mean(), 600.0);
        assert_eq!(LayerMean::default().mean(), 0.0);
    }
}
