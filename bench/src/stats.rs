//! Summary statistics for timing samples: medians, the tail percentile
//! a sample count can support, and the spread rules the bounds use.

/// Percentile ladder a tail is reported from, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: f64 = 10.0;

/// Linear-interpolated quantile of an ascending-sorted sample (`q` in 0..=1).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// The `p`-th percentile (0..=100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(xs), p / 100.0)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Lower quartile of `xs`: what a cell's latency is summarised by in
/// `cell_gmean_ms`. For minutes at a time the host takes a vCPU away in
/// 4 ms slices, which lands on more than half of the operations of a
/// millisecond or two (the median exact `BfsDist` answer on `serve_hot`
/// then reads 4.4 ms in place of 1.2 ms, the lower quartile 1.1–1.5 ms
/// throughout); in calm minutes the two repeat equally well.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    percentile(xs, 25.0)
}

/// The highest ladder percentile with at least ten of `n` samples beyond
/// it, or `None` when `n` cannot support even a median by that rule.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // The epsilon absorbs the rounding of `100 - 99.9`.
    LADDER.iter().rev().copied().find(|p| n as f64 * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9)
}

/// A timing reported the way every timing in this benchmark is: median,
/// the highest supported percentile, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    pub median: f64,
    /// `(percentile, value)`; `None` when `n < 20`.
    pub hi: Option<(f64, f64)>,
    pub n: usize,
}

impl Timing {
    pub fn of(xs: &[f64]) -> Timing {
        let s = sorted(xs);
        let hi = highest_supported_percentile(s.len()).map(|p| (p, quantile_sorted(&s, p / 100.0)));
        Timing { median: quantile_sorted(&s, 0.5), hi, n: s.len() }
    }

    /// The tail value, falling back to the median when unsupported.
    pub fn hi_value(&self) -> f64 {
        self.hi.map_or(self.median, |(_, v)| v)
    }
}

/// Geometric mean of positive values.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Harmonic mean of positive rates (the Graph500 TEPS summary).
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "harmonic mean of an empty sample");
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// Interquartile distance as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method): the
/// spread the regression bounds are judged against.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(3) - at(1)) / quantile_sorted(&s, 0.5)
}

/// Largest relative difference between any two values: `(max - min) / min`.
pub fn max_pairwise_deviation(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    (s[s.len() - 1] - s[0]) / s[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_selector_follows_the_ten_beyond_rule() {
        assert_eq!(highest_supported_percentile(8), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(32), Some(50.0));
        assert_eq!(highest_supported_percentile(64), Some(75.0));
        assert_eq!(highest_supported_percentile(2000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn timing_reports_median_tail_and_count() {
        let xs: Vec<f64> = (1..=64).map(f64::from).collect();
        let t = Timing::of(&xs);
        assert_eq!(t.n, 64);
        assert!((t.median - 32.5).abs() < 1e-12);
        let (p, v) = t.hi.unwrap();
        assert_eq!(p, 75.0);
        assert!((v - 48.25).abs() < 1e-12);
        assert_eq!(Timing::of(&[3.0, 1.0, 2.0]).hi, None);
        assert_eq!(Timing::of(&[3.0, 1.0, 2.0]).hi_value(), 2.0);
    }

    #[test]
    fn means() {
        assert!((geometric_mean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((harmonic_mean(&[1.0, 2.0, 4.0]) - 12.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: clamped
        // interpolation extrapolates exactly as Python does.
        assert!((quartile_spread(&[1.0, 2.0]) - 1.5 / 1.5).abs() < 1e-12);
        assert!((max_pairwise_deviation(&[2.0, 2.2, 2.1]) - 0.1).abs() < 1e-9);
    }
}
