#![allow(clippy::needless_range_loop)]

//! Property tests: the parallel runtime must agree with sequential folds
//! for every schedule and thread count.

use epg_parallel::{Schedule, ThreadPool, WorkerBitmaps};
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
