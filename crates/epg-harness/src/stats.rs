//! Phase 5 statistics: the numbers behind the paper's plots.
//!
//! The paper renders most results as R box plots ("an implied 32 data
//! points per box", §III-B); this module computes the same five-number
//! summaries (R's default type-7 quantiles), plus the mean/σ used for the
//! relative-standard-deviation comparison in §IV-A and the speedup and
//! parallel-efficiency definitions of §IV-B.

/// Five-number summary plus moments for one sample set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile (R type-7).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (R type-7).
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1).
    pub stddev: f64,
}

impl Summary {
    /// Computes a summary. Panics on an empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "empty sample");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        let n = s.len();
        let mean = s.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Summary {
            n,
            min: s[0],
            q1: quantile_type7(&s, 0.25),
            median: quantile_type7(&s, 0.5),
            q3: quantile_type7(&s, 0.75),
            max: s[n - 1],
            mean,
            stddev: var.sqrt(),
        }
    }

    /// Relative standard deviation (σ / mean), the statistic §IV-A uses to
    /// compare PageRank and SSSP variance.
    pub fn relative_stddev(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

/// Summary over a right-censored sample: DNF trials (timeout, panic,
/// quarantine) carry no finite time but still count toward the sample,
/// entering the order statistics as +∞. A quantile whose interpolation
/// touches the censored tail is unknowable and reported as `None` — the
/// report renders it as an explicit "DNF" cell rather than silently
/// averaging over only the survivors (which would flatter a flaky engine).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CensoredSummary {
    /// Total trials, completed + DNF.
    pub n: usize,
    /// Trials that finished with a usable time.
    pub completed: usize,
    /// Trials that did not finish.
    pub dnf: usize,
    /// Type-7 median over the censored order statistics; `None` when the
    /// median index lands in the DNF tail.
    pub median: Option<f64>,
    /// Fastest completed trial; `None` when nothing completed.
    pub min: Option<f64>,
}

impl CensoredSummary {
    /// Builds the summary from completed times plus a DNF count.
    pub fn of(completed: &[f64], dnf: usize) -> CensoredSummary {
        let mut s = completed.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        let n = s.len() + dnf;
        let median = censored_quantile_type7(&s, n, 0.5);
        CensoredSummary { n, completed: s.len(), dnf, median, min: s.first().copied() }
    }
}

/// Type-7 quantile over the censored order statistics: `sorted` holds
/// the finite observations, `n` the total count (the last `n -
/// sorted.len()` order statistics are +∞). `None` when either
/// interpolation endpoint is censored, or when `n == 0`.
fn censored_quantile_type7(sorted: &[f64], n: usize, p: f64) -> Option<f64> {
    if n == 0 {
        return None;
    }
    let h = (n - 1) as f64 * p;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    // Both interpolation endpoints must be finite observations.
    (hi < sorted.len()).then(|| sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// R's default (type 7) quantile on pre-sorted data.
fn quantile_type7(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = (n - 1) as f64 * p;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Parallel speedup T1/Tn (§IV-B, Fig. 5).
pub fn speedup(t1: f64, tn: f64) -> f64 {
    t1 / tn
}

/// Parallel efficiency T1/(n·Tn) (§IV-B, Fig. 6).
pub fn efficiency(t1: f64, tn: f64, n: usize) -> f64 {
    t1 / (n as f64 * tn)
}

/// Geometric mean, used when aggregating ratios across datasets.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "empty sample");
    assert!(xs.iter().all(|&x| x > 0.0), "geometric mean needs positive values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_r_quantiles() {
        // R: quantile(c(1,2,3,4,5,6,7,8,9,10)) -> 25%: 3.25, 50%: 5.5, 75%: 7.75
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10.0);
        assert!((s.q1 - 3.25).abs() < 1e-12);
        assert!((s.median - 5.5).abs() < 1e-12);
        assert!((s.q3 - 7.75).abs() < 1e-12);
        assert!((s.mean - 5.5).abs() < 1e-12);
    }

    #[test]
    fn summary_of_one_sample() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn unsorted_input_is_fine() {
        let a = Summary::of(&[3.0, 1.0, 2.0]);
        let b = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn relative_stddev() {
        let s = Summary::of(&[9.0, 10.0, 11.0]);
        assert!((s.relative_stddev() - 1.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_and_efficiency_definitions() {
        assert_eq!(speedup(10.0, 2.0), 5.0);
        assert_eq!(efficiency(10.0, 2.0, 8), 0.625);
        // Ideal: Tn = T1/n -> efficiency 1.
        assert!((efficiency(8.0, 1.0, 8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn censored_median_matches_uncensored_when_all_complete() {
        let times = [1.0, 2.0, 3.0, 4.0, 5.0];
        let c = CensoredSummary::of(&times, 0);
        assert_eq!(c.median, Some(Summary::of(&times).median));
        assert_eq!(c.min, Some(1.0));
    }

    #[test]
    fn minority_dnf_shifts_but_keeps_the_median() {
        // 4 completed + 1 DNF: h = 2.0 lands on the 3rd order statistic.
        let c = CensoredSummary::of(&[1.0, 2.0, 3.0, 4.0], 1);
        assert_eq!(c.n, 5);
        assert_eq!(c.median, Some(3.0));
        // 3 completed + 2 DNF: h = 2.0 still lands on a finite value.
        let c = CensoredSummary::of(&[1.0, 2.0, 3.0], 2);
        assert_eq!(c.median, Some(3.0));
    }

    #[test]
    fn majority_dnf_censors_the_median() {
        // 2 completed + 3 DNF: median index is in the infinite tail.
        let c = CensoredSummary::of(&[1.0, 2.0], 3);
        assert_eq!(c.median, None);
        assert_eq!(c.min, Some(1.0));
    }

    #[test]
    fn interpolation_touching_the_tail_is_censored() {
        // 2 completed + 2 DNF: h = 1.5 interpolates s[1]..s[2]; s[2] is ∞.
        let c = CensoredSummary::of(&[1.0, 2.0], 2);
        assert_eq!(c.median, None);
    }

    #[test]
    fn all_dnf_and_empty_samples() {
        let c = CensoredSummary::of(&[], 4);
        assert_eq!((c.n, c.median, c.min), (4, None, None));
        let c = CensoredSummary::of(&[], 0);
        assert_eq!((c.n, c.median), (0, None));
    }
}
