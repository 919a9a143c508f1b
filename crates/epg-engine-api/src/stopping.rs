//! Homogenized stopping criteria.
//!
//! §IV-A: "all implementations have been modified to use ||p_t - p_{t-1}||_1
//! (the absolute sum of differences)" with ε = 6e-8 ≈ f32 machine epsilon —
//! except GraphMat, which "executes until no vertices change rank;
//! effectively its stopping criterion requires the ∞-norm be less than
//! machine epsilon", which is why Fig. 4 shows it iterating far longer.

use epg_parallel::{PerWorker, Schedule, ThreadPool};

/// PageRank stopping criterion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StoppingCriterion {
    /// Stop when the L1 norm of the rank change falls below the threshold.
    L1Norm(f64),
    /// Stop when **no** vertex's rank changes between iterations (an
    /// ∞-norm-below-epsilon test at f32 granularity) — GraphMat's native
    /// behavior.
    NoChange,
}

impl StoppingCriterion {
    /// The paper's homogenized criterion: L1 < 6e-8.
    pub const fn paper_default() -> StoppingCriterion {
        StoppingCriterion::L1Norm(6e-8)
    }

    /// Evaluates the criterion given this iteration's L1 change and the
    /// count of vertices whose (f32-truncated) rank changed.
    pub fn is_converged(&self, l1_delta: f64, changed_vertices: u64) -> bool {
        match *self {
            StoppingCriterion::L1Norm(eps) => l1_delta < eps,
            StoppingCriterion::NoChange => changed_vertices == 0,
        }
    }
}

/// The two numbers a [`StoppingCriterion`] reads, reduced once per
/// PageRank iteration on per-worker partials kept for the run.
pub struct Convergence {
    parts: PerWorker<Option<(f64, u64)>>,
}

impl Convergence {
    /// Empty partials for a run on `pool`.
    pub fn new(pool: &ThreadPool) -> Convergence {
        Convergence { parts: PerWorker::new(pool.num_threads(), || None) }
    }

    /// The L1 change from `rank` to `next` and the count of vertices whose
    /// rank changed at `f32` precision: one reduction under `sched`, one
    /// region, each range folding both in index order.
    pub fn measure(
        &mut self,
        pool: &ThreadPool,
        sched: Schedule,
        rank: &[f64],
        next: &[f64],
    ) -> (f64, u64) {
        let range = |lo: usize, hi: usize| {
            (lo..hi).fold((0.0, 0), |acc, v| {
                Convergence::add(acc, Convergence::delta(rank[v], next[v]))
            })
        };
        self.parts.reduce_ranges(pool, rank.len(), sched, || (0.0, 0), range, Convergence::add)
    }

    /// One vertex's share of the two numbers as its rank goes from `old`
    /// to `new`: `|old − new|`, and 1 if the rank moved at `f32` precision.
    #[inline]
    pub fn delta(old: f64, new: f64) -> (f64, u64) {
        ((old - new).abs(), (old as f32 != new as f32) as u64)
    }

    /// Two partials of the (L1 change, changed count) pair combined.
    #[inline]
    pub fn add(a: (f64, u64), b: (f64, u64)) -> (f64, u64) {
        (a.0 + b.0, a.1 + b.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_threshold() {
        let c = StoppingCriterion::paper_default();
        assert!(c.is_converged(5e-8, 1000));
        assert!(!c.is_converged(7e-8, 0));
    }

    #[test]
    fn no_change_requires_zero_changed() {
        let c = StoppingCriterion::NoChange;
        assert!(c.is_converged(1.0, 0));
        assert!(!c.is_converged(0.0, 1));
    }

    #[test]
    fn measure_is_one_region_and_matches_each_reduction_alone() {
        let rank: Vec<f64> = (0..1000).map(|v| 1.0 / (v + 1) as f64).collect();
        let mut next = rank.clone();
        for v in (0..1000).step_by(7) {
            next[v] += 1e-3 / (v + 3) as f64;
        }
        next[500] += 1e-12; // moves the f64, not the f32
        for threads in [1, 2, 3] {
            let pool = ThreadPool::new(threads);
            let sched = Schedule::Static { chunk: Some(64) };
            let mut convergence = Convergence::new(&pool);
            let before = pool.stats().regions;
            let (l1, changed) = convergence.measure(&pool, sched, &rank, &next);
            assert_eq!(pool.stats().regions - before, 1, "{threads} threads");
            let want_l1 = pool.parallel_reduce_ranges(
                rank.len(),
                sched,
                || 0.0,
                |lo, hi| (lo..hi).fold(0.0, |acc, v| acc + (rank[v] - next[v]).abs()),
                |a, b| a + b,
            );
            assert_eq!(l1.to_bits(), want_l1.to_bits(), "{threads} threads");
            assert_eq!(changed, (0..1000).step_by(7).count() as u64);
        }
    }

    #[test]
    fn no_change_is_stricter_in_practice() {
        // A tiny L1 delta spread across a few vertices converges under L1
        // but not under NoChange — the Fig. 4 iteration-count gap.
        let l1 = StoppingCriterion::paper_default();
        let nc = StoppingCriterion::NoChange;
        assert!(l1.is_converged(1e-9, 3));
        assert!(!nc.is_converged(1e-9, 3));
    }
}
