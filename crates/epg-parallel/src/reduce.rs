//! Parallel reductions (`#pragma omp parallel for reduction(...)`) run
//! once. A reduction that runs every round keeps its partials in the run's
//! [`PerWorker`] state, and this entry point is that reduction on a fresh
//! state: one combine order for both.

use crate::{PerWorker, Schedule, ThreadPool};

impl ThreadPool {
    /// Parallel reduction over index ranges, for a reduction run once:
    /// [`PerWorker::reduce_ranges`] on a fresh state, so each call allocates
    /// one `Option<T>` per worker. `map(lo, hi)` turns each range the
    /// schedule hands out into a partial, a worker combines its partials in
    /// the order it ran them, and the workers' results are combined in
    /// worker order; `identity` is the result when no range ran. A step
    /// that reduces every round keeps a `PerWorker<Option<T>>` for the run
    /// and calls [`PerWorker::reduce_ranges`] on it instead: same ranges,
    /// same combine order, no allocation.
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
        let mut parts = PerWorker::new(self.num_threads(), || None);
        parts.reduce_ranges(self, n, sched, identity, map, combine)
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

        // A collected list, a sum and a max against the serial fold: a
        // list through the combine, as a per-worker state drains one.
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
        let sum = |lo, hi| data[lo..hi].iter().fold(0.0, |acc, x| acc + x);
        let par = pool.parallel_reduce_ranges(
            data.len(),
            Schedule::Dynamic { chunk: 33 },
            || 0.0,
            sum,
            |a, b| a + b,
        );
        let seq: f64 = data.iter().sum();
        // Summation order differs; allow tiny fp slack.
        assert!((par - seq).abs() < 1e-6, "{par} vs {seq}");
    }

    #[test]
    fn reduce_on_empty_range_is_identity() {
        let pool = ThreadPool::new(3);
        let r = pool.parallel_reduce_ranges(
            0,
            Schedule::Static { chunk: None },
            || 7u64,
            |_, _| panic!(),
            |a, b| a + b,
        );
        assert_eq!(r, 7);
    }
}
