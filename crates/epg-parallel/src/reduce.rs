//! Parallel reductions (`#pragma omp parallel for reduction(...)`).

use crate::{Schedule, ThreadPool};
use parking_lot::Mutex;

impl ThreadPool {
    /// Parallel reduction over index ranges: `map(lo, hi)` turns each range
    /// the schedule hands out into a partial, each worker folds its own
    /// partials with `combine` as it goes (so at most one partial per
    /// worker outlives the region), and the per-worker results are combined
    /// on the caller — both in unspecified order. `identity` is the result
    /// when no range ran (`n == 0`, or a tripped cancel token abandoned
    /// them all). This is the one way a kernel step hands what it found
    /// out of a parallel region. Each call allocates one per-worker slot
    /// vector.
    pub fn parallel_reduce_ranges<T, I, M, C>(
        &self,
        n: usize,
        sched: Schedule,
        identity: I,
        map: M,
        combine: C,
    ) -> T
    where
        T: Send,
        I: FnOnce() -> T,
        M: Fn(usize, usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync,
    {
        self.reduce_worker_ranges(n, sched, identity, |_tid, lo, hi| map(lo, hi), combine)
    }

    /// [`ThreadPool::parallel_reduce_ranges`] whose `map` also receives the
    /// executing thread id, as [`ThreadPool::parallel_for_ranges`]' body does.
    pub(crate) fn reduce_worker_ranges<T, I, M, C>(
        &self,
        n: usize,
        sched: Schedule,
        identity: I,
        map: M,
        combine: C,
    ) -> T
    where
        T: Send,
        I: FnOnce() -> T,
        M: Fn(usize, usize, usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> =
            (0..self.num_threads()).map(|_| Mutex::new(None)).collect();
        self.parallel_for_ranges(n, sched, |tid, lo, hi| {
            let part = map(tid, lo, hi);
            // Only worker `tid` touches slot `tid`: the lock is never
            // contended, it just makes the per-worker cell `Sync`.
            let mut slot = slots[tid].lock();
            *slot = Some(match slot.take() {
                Some(acc) => combine(acc, part),
                None => part,
            });
        });
        slots.into_iter().filter_map(Mutex::into_inner).reduce(combine).unwrap_or_else(identity)
    }

    /// Parallel reduction over `0..n`: every range folds its indices into an
    /// accumulator created by `identity`, and the accumulators are combined
    /// (in unspecified order) with `combine`.
    pub fn parallel_reduce<T, I, F, C>(
        &self,
        n: usize,
        sched: Schedule,
        identity: I,
        fold: F,
        combine: C,
    ) -> T
    where
        T: Send,
        I: Fn() -> T + Sync,
        F: Fn(&mut T, usize) + Sync,
        C: Fn(T, T) -> T + Sync,
    {
        let map = |lo, hi| {
            let mut acc = identity();
            (lo..hi).for_each(|i| fold(&mut acc, i));
            acc
        };
        self.parallel_reduce_ranges(n, sched, &identity, map, combine)
    }

    /// Sum of `f(i)` over `0..n` in `f64`. The workhorse for PageRank's L1
    /// convergence check.
    pub fn parallel_sum_f64<F: Fn(usize) -> f64 + Sync>(
        &self,
        n: usize,
        sched: Schedule,
        f: F,
    ) -> f64 {
        self.parallel_reduce(n, sched, || 0.0f64, |acc, i| *acc += f(i), |a, b| a + b)
    }

    /// Logical OR of `f(i)` over `0..n` — used for "did any vertex change"
    /// convergence checks (GraphMat's ∞-norm criterion).
    pub fn parallel_any<F: Fn(usize) -> bool + Sync>(
        &self,
        n: usize,
        sched: Schedule,
        f: F,
    ) -> bool {
        self.parallel_reduce(n, sched, || false, |acc, i| *acc |= f(i), |a, b| a || b)
    }

    /// Maximum of `f(i)` over `0..n` in `f64`.
    pub fn parallel_max_f64<F: Fn(usize) -> f64 + Sync>(
        &self,
        n: usize,
        sched: Schedule,
        f: F,
    ) -> f64 {
        self.parallel_reduce(
            n,
            sched,
            || f64::NEG_INFINITY,
            |acc, i| *acc = acc.max(f(i)),
            f64::max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_schedule() -> impl Strategy<Value = Schedule> {
        prop_oneof![
            Just(Schedule::Static { chunk: None }),
            (1usize..50).prop_map(|c| Schedule::Static { chunk: Some(c) }),
            (1usize..50).prop_map(|c| Schedule::Dynamic { chunk: c }),
            (1usize..50).prop_map(|c| Schedule::Guided { min_chunk: c }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The (found, edges, max_degree) shape the engines reduce: a
        // collected list, a sum and a max, against the serial fold.
        #[test]
        fn reduce_ranges_matches_the_serial_fold(
            data in proptest::collection::vec(0u64..1000, 0..2000),
            sched in arb_schedule(),
            nthreads in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
        ) {
            let pool = ThreadPool::new(nthreads);
            let (mut found, sum, max) = pool.parallel_reduce_ranges(
                data.len(),
                sched,
                || (Vec::new(), 0u64, 0u64),
                |lo, hi| {
                    let part = &data[lo..hi];
                    let odd: Vec<u64> = part.iter().copied().filter(|x| x % 2 == 1).collect();
                    (odd, part.iter().sum(), part.iter().copied().max().unwrap_or(0))
                },
                |mut a, mut b| {
                    a.0.append(&mut b.0);
                    (a.0, a.1 + b.1, a.2.max(b.2))
                },
            );
            let mut want: Vec<u64> = data.iter().copied().filter(|x| x % 2 == 1).collect();
            found.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(found, want);
            prop_assert_eq!(sum, data.iter().sum::<u64>());
            prop_assert_eq!(max, data.iter().copied().max().unwrap_or(0));
        }
    }

    #[test]
    fn sum_matches_sequential_fold() {
        let pool = ThreadPool::new(4);
        let data: Vec<f64> = (0..10_000).map(|i| (i % 97) as f64 * 0.25).collect();
        let par = pool.parallel_sum_f64(data.len(), Schedule::Dynamic { chunk: 33 }, |i| data[i]);
        let seq: f64 = data.iter().sum();
        // Summation order differs; allow tiny fp slack.
        assert!((par - seq).abs() < 1e-6, "{par} vs {seq}");
    }

    #[test]
    fn reduce_on_empty_range_is_identity() {
        let pool = ThreadPool::new(3);
        let r = pool.parallel_reduce(
            0,
            Schedule::Static { chunk: None },
            || 7u64,
            |_, _| panic!(),
            |a, b| a + b,
        );
        assert_eq!(r, 7);
    }

    #[test]
    fn any_detects_single_hit() {
        let pool = ThreadPool::new(4);
        assert!(pool.parallel_any(1000, Schedule::Guided { min_chunk: 16 }, |i| i == 777));
        assert!(!pool.parallel_any(1000, Schedule::Guided { min_chunk: 16 }, |_| false));
    }

    #[test]
    fn max_finds_the_peak() {
        let pool = ThreadPool::new(2);
        let m = pool.parallel_max_f64(513, Schedule::Static { chunk: Some(10) }, |i| {
            -((i as f64) - 400.0).powi(2)
        });
        assert_eq!(m, 0.0);
    }
}
