#![allow(clippy::needless_range_loop)]

//! Property tests: the parallel runtime must agree with sequential folds
//! for every schedule and thread count.

use epg_parallel::{CancelToken, PerWorker, Schedule, ThreadPool, WorkerBitmaps};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

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

    #[test]
    fn every_index_visited_once(
        n in 0usize..3000,
        sched in arb_schedule(),
        nthreads in 1usize..5,
    ) {
        let pool = ThreadPool::new(nthreads);
        let visits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for(n, sched, |i| { visits[i].fetch_add(1, Ordering::Relaxed); });
        for (i, v) in visits.iter().enumerate() {
            prop_assert_eq!(v.load(Ordering::Relaxed), 1, "index {}", i);
        }
    }

    #[test]
    fn reduction_matches_sequential(
        data in proptest::collection::vec(-100i64..100, 0..2000),
        sched in arb_schedule(),
        nthreads in 1usize..5,
    ) {
        let pool = ThreadPool::new(nthreads);
        let par = pool.parallel_reduce(
            data.len(),
            sched,
            || 0i64,
            |acc, i| *acc += data[i],
            |a, b| a + b,
        );
        prop_assert_eq!(par, data.iter().sum::<i64>());
    }

    #[test]
    fn ranges_are_disjoint_and_cover(
        n in 1usize..5000,
        sched in arb_schedule(),
        nthreads in 1usize..5,
    ) {
        let pool = ThreadPool::new(nthreads);
        let covered: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for_ranges(n, sched, |tid, lo, hi| {
            assert!(tid < nthreads);
            for i in lo..hi {
                covered[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        prop_assert!(covered.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }
}

/// A bitmap length (one of the word and summary-word boundary sizes, or any
/// other) and two rounds of marks in it, each round including the last index.
fn arb_marks() -> impl Strategy<Value = (usize, Vec<usize>, Vec<usize>)> {
    let boundary = prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), Just(4097)];
    let len = prop_oneof![boundary, 2usize..700, 700usize..20_000];
    len.prop_flat_map(|len| {
        let round = || {
            collection::vec(0..len.max(1), 0..400).prop_map(move |mut marks| {
                marks.retain(|&i| i < len);
                marks.extend(len.checked_sub(1));
                marks
            })
        };
        (Just(len), round(), round())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

    #[test]
    fn worker_bitmaps_drain_what_sort_and_dedup_give(
        (len, first, second) in arb_marks(),
        sched in arb_schedule(),
        nthreads in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let pool = ThreadPool::new(nthreads);
        let mut bitmaps = WorkerBitmaps::new(nthreads, len);
        let mut out = Vec::new();
        // The same bitmaps serve both rounds: a drain must leave them clear.
        for marks in [&first, &second] {
            let set = bitmaps.reduce_ranges(
                &pool,
                marks.len(),
                sched,
                || 0,
                |mine, lo, hi| {
                    marks[lo..hi].iter().for_each(|&i| mine.set(i));
                    hi - lo
                },
                |a, b| a + b,
            );
            prop_assert_eq!(set, marks.len());
            bitmaps.drain_into(&mut out);
            let mut want: Vec<u32> = marks.iter().map(|&i| i as u32).collect();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(&out, &want);
        }
        bitmaps.drain_into(&mut out);
        prop_assert!(out.is_empty(), "drained bitmaps hold marks");
    }
}

/// Each odd value of `data[lo..hi]`, tagged with the worker that found it.
fn odd_tagged(data: &[u64], lo: usize, hi: usize) -> Vec<(usize, u64)> {
    let tid = epg_parallel::current_worker_id().expect("inside a region");
    data[lo..hi].iter().filter(|&&x| x % 2 == 1).map(|&x| (tid, x)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn per_worker_fold_is_reduce_ranges_with_an_append_combine(
        data in prop_oneof![Just(Vec::new()), collection::vec(0u64..1000, 0..2000)],
        sched in arb_schedule(),
        nthreads in 1usize..5,
        cut in 0usize..2000,
    ) {
        let pool = ThreadPool::new(nthreads);
        // A worker's finds and how many ranges it ran this step.
        let mut found = PerWorker::new(nthreads, || (Vec::new(), 0usize));
        let fold = |found: &mut PerWorker<(Vec<(usize, u64)>, usize)>| {
            found.iter_mut().fold(Vec::new(), |mut all, (list, ranges)| {
                all.append(list);
                *ranges = 0;
                all
            })
        };
        // A step whose token trips at the first range starting at `cut`:
        // the pool abandons the rest, and the drain takes what ran.
        let token = CancelToken::new();
        pool.set_cancel_token(Some(token.clone()));
        found.for_ranges(&pool, data.len(), sched, |(list, ranges), lo, hi| {
            if lo >= cut {
                token.cancel();
            }
            list.extend(odd_tagged(&data, lo, hi));
            *ranges += 1;
        });
        pool.set_cancel_token(None);
        let partial = fold(&mut found);
        prop_assert!(partial.iter().all(|&(t, x)| t < nthreads && x % 2 == 1));

        // The next step starts with every worker's state empty.
        found.for_ranges(&pool, data.len(), sched, |(list, ranges), lo, hi| {
            assert!(*ranges > 0 || list.is_empty(), "a worker's state outlived the drain");
            list.extend(odd_tagged(&data, lo, hi));
            *ranges += 1;
        });
        let got = fold(&mut found);
        let append = |mut a: Vec<_>, mut b: Vec<_>| {
            a.append(&mut b);
            a
        };
        let want = pool.parallel_reduce_ranges(
            data.len(),
            sched,
            Vec::new,
            |lo, hi| odd_tagged(&data, lo, hi),
            append,
        );
        // Both come out in worker order; under a static schedule, or on one
        // thread, the same ranges go to the same workers, so they are equal.
        prop_assert!(got.windows(2).all(|w| w[0].0 <= w[1].0), "fold out of worker order");
        prop_assert!(want.windows(2).all(|w| w[0].0 <= w[1].0), "reduce out of worker order");
        if nthreads == 1 || matches!(sched, Schedule::Static { .. }) {
            prop_assert_eq!(&got, &want);
        }
        let values = |v: &[(usize, u64)]| {
            let mut v: Vec<u64> = v.iter().map(|&(_, x)| x).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(values(&got), values(&want));

        // An empty step runs no range and leaves nothing to drain.
        found.for_ranges(&pool, 0, sched, |_, _, _| panic!("a range of an empty step"));
        prop_assert!(fold(&mut found).is_empty());
    }
}
