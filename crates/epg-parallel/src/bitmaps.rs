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
//! The bitmaps are a [`PerWorker`] state, so the marking loop,
//! [`WorkerBitmaps::for_ranges`], hands every range its worker's bitmap
//! the way every per-worker state is handed out, and call sites need no
//! `unsafe`. The numbers a round counts as it marks (edges scanned, the
//! largest degree) sit beside each worker's bitmap, and the drain hands
//! them back with the marks: the round allocates nothing.

use crate::{PerWorker, Schedule, ThreadPool};

/// One bitmap over `0..len` per pool thread, allocated once and reused
/// across rounds, and beside each the numbers `T` its worker counts.
pub struct WorkerBitmaps<T> {
    bitmaps: PerWorker<(Bitmap, T)>,
    len: usize,
}

/// One worker's bitmap and its summary: one bit per word of `words`, set
/// when the word is non-zero.
struct Bitmap {
    words: Vec<u64>,
    summary: Vec<u64>,
}

/// The bitmap of the worker running the current range.
pub struct Marks<'a> {
    bitmap: &'a mut Bitmap,
    len: usize,
}

impl Marks<'_> {
    /// Marks index `i` (`i < len`).
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "mark {i} out of bounds ({})", self.len);
        let Bitmap { words, summary } = &mut *self.bitmap;
        let w = i / 64;
        // A word's first mark since the drain flags it in the summary; the
        // later ones (most, on a dense round) only OR the word they load.
        if words[w] == 0 {
            summary[w / 64] |= 1 << (w % 64);
        }
        words[w] |= 1 << (i % 64);
    }
}

impl<T: Default + Send> WorkerBitmaps<T> {
    /// Clear bitmaps over `0..len`, and `T::default()` numbers, for a pool
    /// of up to `workers` threads. Indices come back as `u32` (a
    /// `VertexId`), so `len` must fit.
    pub fn new(workers: usize, len: usize) -> WorkerBitmaps<T> {
        let last = len.saturating_sub(1);
        assert!(u32::try_from(last).is_ok(), "WorkerBitmaps over {len} indices outgrow u32 ids");
        let bitmap =
            || Bitmap { words: vec![0; len.div_ceil(64)], summary: vec![0; len.div_ceil(64 * 64)] };
        WorkerBitmaps { bitmaps: PerWorker::new(workers, || (bitmap(), T::default())), len }
    }

    /// [`PerWorker::for_ranges`] whose body receives the executing worker's
    /// bitmap and numbers: one region, the same ranges and the same chunk
    /// count. Marks and numbers accumulate until the next
    /// [`WorkerBitmaps::drain_into`].
    pub fn for_ranges<B>(&mut self, pool: &ThreadPool, n: usize, sched: Schedule, body: B)
    where
        B: Fn(&mut Marks<'_>, &mut T, usize, usize) + Sync,
    {
        let len = self.len;
        self.bitmaps.for_ranges(pool, n, sched, |(bitmap, numbers), lo, hi| {
            body(&mut Marks { bitmap, len }, numbers, lo, hi)
        });
    }

    /// Replaces `out`'s contents with every marked index, ascending and
    /// distinct, clears every bitmap, and returns the workers' numbers
    /// folded with `combine` in worker order, leaving each at its default.
    /// The summary bits lead it to the words that hold marks, so a round
    /// that marks few indices of a long range drains in
    /// O(threads × len / 4096), not O(threads × len / 64).
    pub fn drain_into(&mut self, out: &mut Vec<u32>, combine: impl FnMut(T, T) -> T) -> T {
        out.clear();
        for si in 0..self.len.div_ceil(64 * 64) {
            let mut dirty = 0;
            for (bitmap, _) in self.bitmaps.iter_mut() {
                dirty |= std::mem::take(&mut bitmap.summary[si]);
            }
            while dirty != 0 {
                let wi = si * 64 + dirty.trailing_zeros() as usize;
                dirty &= dirty - 1;
                let mut word = 0;
                for (bitmap, _) in self.bitmaps.iter_mut() {
                    word |= std::mem::take(&mut bitmap.words[wi]);
                }
                while word != 0 {
                    out.push((wi * 64) as u32 + word.trailing_zeros());
                    word &= word - 1;
                }
            }
        }
        self.bitmaps.iter_mut().map(|(_, t)| std::mem::take(t)).reduce(combine).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_from_every_worker_drain_once_in_order() {
        let pool = ThreadPool::new(3);
        let mut bitmaps = WorkerBitmaps::<usize>::new(3, 1000);
        let sched = Schedule::Dynamic { chunk: 7 };
        // Every index is marked by two different ranges, most by two workers.
        bitmaps.for_ranges(&pool, 2000, sched, |marks, marked, lo, hi| {
            (lo..hi).for_each(|i| marks.set((i * 7) % 1000));
            *marked += hi - lo;
        });
        let mut out = vec![42];
        assert_eq!(bitmaps.drain_into(&mut out, |a, b| a + b), 2000);
        assert_eq!(out, (0..1000).collect::<Vec<u32>>());
        assert_eq!(bitmaps.drain_into(&mut out, |a, b| a + b), 0);
        assert!(out.is_empty(), "a drain leaves every bitmap clear");
    }

    #[test]
    #[should_panic(expected = "fewer than the pool's")]
    fn a_pool_wider_than_the_bitmaps_is_refused() {
        let pool = ThreadPool::new(2);
        WorkerBitmaps::<()>::new(1, 64).for_ranges(
            &pool,
            1,
            Schedule::Static { chunk: None },
            |_, _, _, _| (),
        );
    }
}
