//! Disjoint-index shared writer.
//!
//! Vertex-parallel kernels write `out[v]` for every `v` exactly once per
//! parallel region — a data-race-free pattern the borrow checker cannot see
//! through a `Fn` closure shared across threads. `DisjointWriter` packages
//! the one `unsafe` write behind a documented contract instead of scattering
//! raw-pointer casts through every engine.
//!
//! In debug builds the contract is *checked*, not just documented: the
//! writer keeps a shadow table with one atomic tag per element recording
//! which worker last wrote it and in which parallel region (see
//! [`crate::check`]). A second worker writing the same index within the
//! same region trips a panic naming both workers. Detection is
//! deterministic — the second `swap` always observes the first worker's tag
//! — so an overlapping kernel fails every run, not just under unlucky
//! interleavings. Every `cargo test` therefore race-checks every write;
//! release builds compile the table and the per-write swap out.

#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared mutable access to a slice for loops that write disjoint indices.
pub struct DisjointWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    /// One tag per element: `(region id << 32) | (worker id + 1)`, 0 when
    /// never written. Updated with a swap on every write so the second of
    /// two same-region writers always sees the first.
    #[cfg(debug_assertions)]
    shadow: Vec<AtomicU64>,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: writes are only allowed through `write`/`write_unchecked`/
// `get_raw`, whose contract requires each index be written by at most one
// thread per region; `T: Send` makes moving values across threads sound.
unsafe impl<T: Send> Sync for DisjointWriter<'_, T> {}

impl<'a, T> DisjointWriter<'a, T> {
    /// Wraps a slice. The borrow is held for `'a`, so the underlying data
    /// cannot be touched elsewhere while the writer lives.
    pub fn new(slice: &'a mut [T]) -> DisjointWriter<'a, T> {
        DisjointWriter {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            #[cfg(debug_assertions)]
            shadow: (0..slice.len()).map(|_| AtomicU64::new(0)).collect(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Writes `value` at `i`.
    ///
    /// # Safety
    /// Within one parallel region, each index must be written by at most
    /// one thread, and no concurrent reads of `i` may occur.
    /// Bounds are checked.
    pub unsafe fn write(&self, i: usize, value: T) {
        assert!(i < self.len, "DisjointWriter index {i} out of bounds ({})", self.len);
        self.record(i);
        // SAFETY: `i < len` was just asserted and the caller upholds the
        // one-writer-per-index contract. The previous value is dropped so
        // writes of owning types (Vec, String) do not leak what they replace.
        unsafe {
            self.ptr.add(i).drop_in_place();
            self.ptr.add(i).write(value)
        };
    }

    /// Writes `value` at `i` without the bounds assertion — the fast path
    /// for kernels whose loop bounds already guarantee `i < len`.
    ///
    /// # Safety
    /// Same disjointness contract as [`DisjointWriter::write`], and
    /// additionally `i` must be in bounds (checked only in debug builds).
    pub unsafe fn write_unchecked(&self, i: usize, value: T) {
        debug_assert!(i < self.len, "DisjointWriter index {i} out of bounds ({})", self.len);
        self.record(i);
        // SAFETY: the caller guarantees `i < len` and the one-writer-per-
        // index contract; drop the old value first to avoid leaks.
        unsafe {
            self.ptr.add(i).drop_in_place();
            self.ptr.add(i).write(value)
        };
    }

    /// Mutable access to the element at `i` for read-modify-write patterns.
    ///
    /// # Safety
    /// Same contract as [`DisjointWriter::write`]: at most one thread may
    /// touch index `i` within a region. Bounds are checked.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_raw(&self, i: usize) -> &mut T {
        assert!(i < self.len, "DisjointWriter index {i} out of bounds ({})", self.len);
        self.record(i);
        // SAFETY: `i < len` was just asserted; exclusivity of the returned
        // reference is the caller's contract (one thread per index).
        unsafe { &mut *self.ptr.add(i) }
    }

    /// Mutable access to the sub-slice `[lo, hi)` for loops whose workers
    /// each own a contiguous, non-overlapping range (per-vertex adjacency
    /// sorts, chunked stitch copies, fixed-stride codecs).
    ///
    /// # Safety
    /// Within one parallel region the ranges handed out must be pairwise
    /// disjoint, and no other access to `[lo, hi)` may occur while the
    /// returned slice is live. Bounds (`lo <= hi <= len`) are checked.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        assert!(
            lo <= hi && hi <= self.len,
            "DisjointWriter range {lo}..{hi} out of bounds ({})",
            self.len
        );
        for i in lo..hi {
            self.record(i);
        }
        // SAFETY: bounds were just asserted; exclusivity of the returned
        // slice is the caller's contract (disjoint ranges per region).
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }

    /// Records a write of index `i` in the shadow table and panics if a
    /// different worker already wrote it within the current parallel region.
    /// Outside any region (`region == 0`) the writer is reachable from one
    /// thread only, so nothing is recorded.
    #[cfg(debug_assertions)]
    fn record(&self, i: usize) {
        let region = crate::check::current_region();
        if region == 0 {
            return;
        }
        let me = crate::check::current_worker_id().expect("worker id set inside a region") as u64;
        debug_assert!(me < u32::MAX as u64, "worker id overflows the shadow tag");
        let tag = ((region as u64) << 32) | (me + 1);
        // AcqRel: a conflicting tag must carry the other worker's id over
        // reliably, and our own tag must be visible to a later conflicter.
        let prev = self.shadow[i].swap(tag, Ordering::AcqRel);
        if prev >> 32 == region as u64 && prev & 0xFFFF_FFFF != me + 1 {
            let other = (prev & 0xFFFF_FFFF) - 1;
            let (a, b) = if other < me { (other, me) } else { (me, other) };
            panic!(
                "check-disjoint: overlapping writes to index {i}: workers {a} and {b} both \
                 wrote it within the same parallel region (DisjointWriter requires at most \
                 one writer per index per region)"
            );
        }
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn record(&self, _i: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schedule, ThreadPool};

    #[test]
    fn disjoint_parallel_writes_land() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 1000];
        {
            let w = DisjointWriter::new(&mut data);
            // SAFETY: parallel_for hands each index i to exactly one worker.
            pool.parallel_for(1000, Schedule::Dynamic { chunk: 7 }, |i| unsafe {
                w.write(i, i * 3);
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    fn unchecked_parallel_writes_land() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 1000];
        {
            let w = DisjointWriter::new(&mut data);
            // SAFETY: each index i is visited once and i < 1000 == len.
            pool.parallel_for(1000, Schedule::Static { chunk: Some(11) }, |i| unsafe {
                w.write_unchecked(i, i + 1);
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn get_raw_supports_read_modify_write() {
        let pool = ThreadPool::new(2);
        let mut data: Vec<Vec<usize>> = vec![Vec::new(); 64];
        {
            let w = DisjointWriter::new(&mut data);
            // SAFETY: parallel_for hands each index i to exactly one worker.
            pool.parallel_for(64, Schedule::Static { chunk: None }, |i| unsafe {
                w.get_raw(i).push(i);
            });
        }
        assert!(data.iter().enumerate().all(|(i, v)| v == &[i]));
    }

    #[test]
    fn range_mut_disjoint_ranges_land() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 997];
        {
            let w = DisjointWriter::new(&mut data);
            pool.parallel_for_ranges(997, Schedule::Guided { min_chunk: 16 }, |_t, lo, hi| {
                // SAFETY: parallel_for_ranges hands out pairwise-disjoint ranges.
                let s = unsafe { w.range_mut(lo, hi) };
                for (k, slot) in s.iter_mut().enumerate() {
                    *slot = (lo + k) * 2;
                }
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_mut_oob_panics() {
        let mut data = vec![0u8; 4];
        let w = DisjointWriter::new(&mut data);
        // SAFETY: intentionally out of bounds — the assert must fire.
        unsafe { w.range_mut(2, 5) };
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let mut data = vec![0u8; 4];
        let w = DisjointWriter::new(&mut data);
        // SAFETY: intentionally out of bounds — the assert must fire.
        unsafe { w.write(4, 1) };
    }
}
