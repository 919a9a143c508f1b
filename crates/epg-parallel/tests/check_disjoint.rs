//! Injection tests for the `DisjointWriter` race detector: deliberately
//! overlapping writes must trip a panic naming both conflicting workers,
//! and the panic must propagate through the pool to the calling thread.
//! Benign patterns (disjoint indices, repeat writes across *different*
//! regions, writes outside any region) must stay silent.
//!
//! The shadow table exists only in debug builds, so the whole file is
//! compiled only there: plain `cargo test -p epg-parallel` runs it.
#![cfg(debug_assertions)]

use epg_parallel::{DisjointWriter, Schedule, ThreadPool};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        String::from("<non-string panic payload>")
    }
}

#[test]
fn overlapping_region_writes_name_both_workers() {
    let pool = ThreadPool::new(2);
    let mut data = vec![0usize; 8];
    let w = DisjointWriter::new(&mut data);
    let err = catch_unwind(AssertUnwindSafe(|| {
        // SAFETY: deliberately NOT disjoint — every worker writes index 0.
        // The detector must catch this before it becomes silent corruption.
        pool.region(|tid| unsafe { w.write(0, tid) });
    }))
    .expect_err("both workers wrote index 0; the detector must panic");
    let msg = panic_message(err);
    assert!(msg.contains("check-disjoint"), "unexpected panic: {msg}");
    assert!(msg.contains("overlapping writes to index 0"), "unexpected panic: {msg}");
    // With two workers the conflicting pair is fully determined.
    assert!(msg.contains("workers 0 and 1"), "panic must name both workers: {msg}");
}

#[test]
fn overlap_under_parallel_for_is_detected() {
    let pool = ThreadPool::new(4);
    let mut data = vec![0usize; 64];
    let w = DisjointWriter::new(&mut data);
    let err = catch_unwind(AssertUnwindSafe(|| {
        // SAFETY: deliberately aliased — i and i + 64 collapse onto the
        // same slot, so two static chunks collide on every index.
        pool.parallel_for(128, Schedule::Static { chunk: None }, |i| unsafe {
            w.write(i % 64, i);
        });
    }))
    .expect_err("aliased index map must trip the detector");
    let msg = panic_message(err);
    assert!(msg.contains("check-disjoint: overlapping writes"), "unexpected panic: {msg}");
    assert!(msg.contains("workers"), "panic must name the workers: {msg}");
}

#[test]
fn overlap_through_get_raw_is_detected() {
    let pool = ThreadPool::new(2);
    let mut data = vec![0u64; 4];
    let w = DisjointWriter::new(&mut data);
    let err = catch_unwind(AssertUnwindSafe(|| {
        // SAFETY: deliberately aliased — both workers take a &mut to slot 1.
        pool.region(|_tid| unsafe {
            *w.get_raw(1) += 1;
        });
    }))
    .expect_err("aliased get_raw must trip the detector");
    let msg = panic_message(err);
    assert!(msg.contains("overlapping writes to index 1"), "unexpected panic: {msg}");
    assert!(msg.contains("workers 0 and 1"), "panic must name both workers: {msg}");
}

#[test]
fn disjoint_writes_stay_silent() {
    let pool = ThreadPool::new(4);
    let mut data = vec![0usize; 1024];
    {
        let w = DisjointWriter::new(&mut data);
        // SAFETY: parallel_for hands each index i to exactly one worker.
        pool.parallel_for(1024, Schedule::Dynamic { chunk: 13 }, |i| unsafe {
            w.write(i, i + 7);
        });
    }
    assert!(data.iter().enumerate().all(|(i, &v)| v == i + 7));
}

#[test]
fn rewrites_in_a_later_region_are_not_conflicts() {
    // The contract is per-region: writing the same index again in the NEXT
    // region is the normal iterative-kernel pattern and must not panic.
    let pool = ThreadPool::new(4);
    let mut data = vec![0usize; 256];
    let w = DisjointWriter::new(&mut data);
    for round in 0..3 {
        // SAFETY: indices are disjoint within each region.
        pool.parallel_for(256, Schedule::Static { chunk: None }, |i| unsafe {
            w.write(i, round * 1000 + i);
        });
    }
    drop(w);
    assert!(data.iter().enumerate().all(|(i, &v)| v == 2000 + i));
}

#[test]
fn writes_outside_any_region_are_not_recorded() {
    // On the calling thread with no region open the writer is not shared,
    // so repeated writes to one slot are fine and must not be flagged.
    let mut data = vec![0u32; 4];
    let w = DisjointWriter::new(&mut data);
    for k in 0..10 {
        // SAFETY: single-threaded use; no region is active.
        unsafe { w.write(2, k) };
    }
    drop(w);
    assert_eq!(data[2], 9);
}

#[test]
fn detector_panic_leaves_pool_usable() {
    // After a detected overlap the pool must still run later regions: the
    // panic is propagated, not allowed to wedge a worker.
    let pool = ThreadPool::new(2);
    let mut data = vec![0usize; 16];
    {
        let w = DisjointWriter::new(&mut data);
        let err = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: deliberately aliased to trip the detector.
            pool.region(|_tid| unsafe { w.write(3, 1) });
        }));
        assert!(err.is_err());
    }
    let mut after = vec![0usize; 16];
    {
        let w = DisjointWriter::new(&mut after);
        // SAFETY: parallel_for hands each index i to exactly one worker.
        pool.parallel_for(16, Schedule::Static { chunk: None }, |i| unsafe {
            w.write(i, i);
        });
    }
    assert!(after.iter().enumerate().all(|(i, &v)| v == i));
}
