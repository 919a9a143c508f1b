//! Per-worker bitmaps: a set of indices marked in parallel with plain stores.
//!
//! A kernel round that discovers vertices in parallel and needs them back as
//! an ascending, distinct list (a Bellman-Ford active set, a GAS scatter's
//! activations) could collect per-range lists and sort + dedup them on the
//! dispatcher, or have every worker `fetch_or` into one shared atomic
//! bitmap. [`WorkerBitmaps`] keeps one plain `u64` bitmap over `0..len` per
//! pool thread instead. Only the worker that owns a bitmap sets bits in it,
//! so a mark is a load, an OR and a store, with no atomic read-modify-write
//! and no cache line written by two threads. A serial
//! [`WorkerBitmaps::drain_into`] then ORs the bitmaps word by word into the
//! ascending, distinct list and clears them for the next round.
//!
//! Each bitmap carries a summary with one bit per word, set by the word's
//! first mark, so the drain visits only words that hold marks. A round that
//! marks a few vertices of a long path (65 536 rounds on `almost_line`)
//! then drains in O(threads × len / 4096) instead of re-reading every word.
//!
//! The marking loop is [`WorkerBitmaps::reduce_ranges`]. It borrows the
//! bitmaps mutably for one region and hands every range its worker's words
//! through [`DisjointWriter::range_mut`], so call sites need no `unsafe` and
//! the debug race detector sees every hand-out.

use crate::{DisjointWriter, Schedule, ThreadPool};

/// One bitmap over `0..len` per pool thread, allocated once and reused
/// across rounds.
pub struct WorkerBitmaps {
    /// Worker `t`'s bitmap is `words[t * stride..(t + 1) * stride]`.
    words: Vec<u64>,
    /// One bit per word of `words`, set when the word is non-zero: worker
    /// `t`'s are `summary[t * sstride..(t + 1) * sstride]`.
    summary: Vec<u64>,
    stride: usize,
    sstride: usize,
    len: usize,
}

/// The bitmap of the worker running the current range.
pub struct Marks<'a> {
    words: &'a mut [u64],
    summary: &'a mut [u64],
    len: usize,
}

impl Marks<'_> {
    /// Marks index `i` (`i < len`).
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "mark {i} out of bounds ({})", self.len);
        let w = i / 64;
        // A word's first mark since the drain flags it in the summary; the
        // later ones (most, on a dense round) only OR the word they load.
        if self.words[w] == 0 {
            self.summary[w / 64] |= 1 << (w % 64);
        }
        self.words[w] |= 1 << (i % 64);
    }
}

impl WorkerBitmaps {
    /// Clear bitmaps over `0..len` for a pool of up to `workers` threads.
    /// Indices come back as `u32` (a `VertexId`), so `len` must fit.
    pub fn new(workers: usize, len: usize) -> WorkerBitmaps {
        let last = len.saturating_sub(1);
        assert!(u32::try_from(last).is_ok(), "WorkerBitmaps over {len} indices outgrow u32 ids");
        let (stride, sstride) = (len.div_ceil(64), len.div_ceil(64 * 64));
        let (words, summary) = (vec![0; workers * stride], vec![0; workers * sstride]);
        WorkerBitmaps { words, summary, stride, sstride, len }
    }

    /// [`ThreadPool::parallel_reduce_ranges`] whose `map` also receives the
    /// executing worker's bitmap: one region, the same ranges and the same
    /// chunk count. Marks accumulate until the next
    /// [`WorkerBitmaps::drain_into`].
    pub fn reduce_ranges<T, I, M, C>(
        &mut self,
        pool: &ThreadPool,
        n: usize,
        sched: Schedule,
        identity: I,
        map: M,
        combine: C,
    ) -> T
    where
        T: Send,
        I: FnOnce() -> T,
        M: Fn(&mut Marks<'_>, usize, usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync,
    {
        let (stride, sstride, len) = (self.stride, self.sstride, self.len);
        assert!(
            pool.num_threads() * stride <= self.words.len(),
            "WorkerBitmaps sized for fewer than the pool's {} threads",
            pool.num_threads()
        );
        let words = DisjointWriter::new(&mut self.words);
        let summary = DisjointWriter::new(&mut self.summary);
        let map = |t: usize, lo, hi| {
            // SAFETY: a region runs each thread id on one thread, so worker
            // `t`'s words go to that thread alone, one range at a time, and
            // the slices die with the range.
            let (words, summary) = unsafe {
                let words = words.range_mut(t * stride, (t + 1) * stride);
                (words, summary.range_mut(t * sstride, (t + 1) * sstride))
            };
            map(&mut Marks { words, summary, len }, lo, hi)
        };
        pool.reduce_worker_ranges(n, sched, identity, map, combine)
    }

    /// Replaces `out`'s contents with every marked index, ascending and
    /// distinct, and clears every bitmap. The summary bits lead it to the
    /// words that hold marks, so a round that marks few indices of a long
    /// range drains in O(threads × len / 4096), not O(threads × len / 64).
    pub fn drain_into(&mut self, out: &mut Vec<u32>) {
        out.clear();
        let (stride, sstride) = (self.stride, self.sstride);
        for si in 0..sstride {
            let mut dirty = 0;
            for slot in self.summary[si..].iter_mut().step_by(sstride) {
                dirty |= std::mem::take(slot);
            }
            while dirty != 0 {
                let wi = si * 64 + dirty.trailing_zeros() as usize;
                dirty &= dirty - 1;
                let mut word = 0;
                for slot in self.words[wi..].iter_mut().step_by(stride) {
                    word |= std::mem::take(slot);
                }
                while word != 0 {
                    out.push((wi * 64) as u32 + word.trailing_zeros());
                    word &= word - 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_from_every_worker_drain_once_in_order() {
        let pool = ThreadPool::new(3);
        let mut bitmaps = WorkerBitmaps::new(3, 1000);
        let sched = Schedule::Dynamic { chunk: 7 };
        // Every index is marked by two different ranges, most by two workers.
        let marked = bitmaps.reduce_ranges(
            &pool,
            2000,
            sched,
            || 0,
            |marks, lo, hi| {
                (lo..hi).for_each(|i| marks.set((i * 7) % 1000));
                hi - lo
            },
            |a, b| a + b,
        );
        assert_eq!(marked, 2000);
        let mut out = vec![42];
        bitmaps.drain_into(&mut out);
        assert_eq!(out, (0..1000).collect::<Vec<u32>>());
        bitmaps.drain_into(&mut out);
        assert!(out.is_empty(), "a drain leaves every bitmap clear");
    }

    #[test]
    #[should_panic(expected = "fewer than the pool's")]
    fn a_pool_wider_than_the_bitmaps_is_refused() {
        let pool = ThreadPool::new(2);
        WorkerBitmaps::new(1, 64).reduce_ranges(
            &pool,
            1,
            Schedule::Static { chunk: None },
            || (),
            |_, _, _| (),
            |_, _| (),
        );
    }
}
