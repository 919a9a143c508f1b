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
    l1: PerWorker<Option<f64>>,
    changed: PerWorker<Option<u64>>,
}

impl Convergence {
    /// Empty partials for a run on `pool`.
    pub fn new(pool: &ThreadPool) -> Convergence {
        let workers = pool.num_threads();
        Convergence {
            l1: PerWorker::new(workers, || None),
            changed: PerWorker::new(workers, || None),
        }
    }

    /// The L1 change from `rank` to `next` and the count of vertices whose
    /// rank changed at `f32` precision: two reductions under `sched`, one
    /// region each, each range summed in index order.
    pub fn measure(
        &mut self,
        pool: &ThreadPool,
        sched: Schedule,
        rank: &[f64],
        next: &[f64],
    ) -> (f64, u64) {
        let n = rank.len();
        let l1 =
            |lo: usize, hi: usize| (lo..hi).fold(0.0, |acc, v| acc + (rank[v] - next[v]).abs());
        let changed =
            |lo, hi| (lo..hi).filter(|&v| rank[v] as f32 != next[v] as f32).count() as u64;
        (
            self.l1.reduce_ranges(pool, n, sched, || 0.0, l1, |a, b| a + b),
            self.changed.reduce_ranges(pool, n, sched, || 0, changed, |a, b| a + b),
        )
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
    fn no_change_is_stricter_in_practice() {
        // A tiny L1 delta spread across a few vertices converges under L1
        // but not under NoChange — the Fig. 4 iteration-count gap.
        let l1 = StoppingCriterion::paper_default();
        let nc = StoppingCriterion::NoChange;
        assert!(l1.is_converged(1e-9, 3));
        assert!(!nc.is_converged(1e-9, 3));
    }
}
