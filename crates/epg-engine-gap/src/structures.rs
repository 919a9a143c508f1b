//! GAP's frontier data structures: the sliding queue and bitmap.

use epg_graph::VertexId;
use std::sync::atomic::{AtomicU64, Ordering};

/// A concurrent bitmap over vertex ids, as used for bottom-up BFS frontiers.
pub struct Bitmap {
    words: Vec<AtomicU64>,
}

impl Bitmap {
    /// Creates an all-zero bitmap covering `len` bits.
    pub fn new(len: usize) -> Bitmap {
        Bitmap { words: (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Sets bit `i` (concurrent-safe).
    #[inline]
    pub fn set(&self, i: usize) {
        self.words[i / 64].fetch_or(1 << (i % 64), Ordering::Relaxed);
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64].load(Ordering::Relaxed) >> (i % 64)) & 1 == 1
    }

    /// Clears all bits (not concurrent-safe).
    pub fn clear(&mut self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Iterates the indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut bits = w.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

/// GAP's sliding queue: one backing vector, with a window `[head, tail)`
/// forming the current frontier; newly discovered vertices append past
/// `tail` and `slide_window` advances to make them the next frontier.
#[derive(Default)]
pub struct SlidingQueue {
    items: Vec<VertexId>,
    head: usize,
    tail: usize,
}

impl SlidingQueue {
    /// Creates an empty queue.
    pub fn new() -> SlidingQueue {
        SlidingQueue::default()
    }

    /// Appends a vertex beyond the current window.
    pub fn push(&mut self, v: VertexId) {
        self.items.push(v);
    }

    /// Appends many vertices beyond the current window.
    pub fn push_all(&mut self, vs: &[VertexId]) {
        self.items.extend_from_slice(vs);
    }

    /// The current frontier.
    pub fn window(&self) -> &[VertexId] {
        &self.items[self.head..self.tail]
    }

    /// Advances the window over everything appended since the last slide.
    pub fn slide_window(&mut self) {
        self.head = self.tail;
        self.tail = self.items.len();
    }

    /// Size of the current frontier.
    pub fn window_len(&self) -> usize {
        self.tail - self.head
    }

    /// True when the current frontier is empty.
    pub fn window_is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Replaces the *next* window's pending contents with `vs` (used when
    /// converting a bitmap frontier back to a queue).
    pub fn refill_pending(&mut self, vs: impl IntoIterator<Item = VertexId>) {
        self.items.truncate(self.tail);
        self.items.extend(vs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_get_count() {
        let bm = Bitmap::new(130);
        bm.set(0);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1) && !bm.get(128));
        assert_eq!(bm.iter_ones().count(), 3);
        let ones: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(ones, vec![0, 64, 129]);
    }

    #[test]
    fn bitmap_clear() {
        let mut bm = Bitmap::new(70);
        bm.set(3);
        bm.set(69);
        bm.clear();
        assert_eq!(bm.iter_ones().count(), 0);
    }

    #[test]
    fn bitmap_concurrent_sets() {
        let bm = Bitmap::new(1024);
        std::thread::scope(|s| {
            for t in 0..4 {
                let bm = &bm;
                s.spawn(move || {
                    for i in (t..1024).step_by(4) {
                        bm.set(i);
                    }
                });
            }
        });
        assert_eq!(bm.iter_ones().count(), 1024);
    }

    #[test]
    fn sliding_queue_windows() {
        let mut q = SlidingQueue::new();
        q.push(5);
        q.push(7);
        assert!(q.window_is_empty());
        q.slide_window();
        assert_eq!(q.window(), &[5, 7]);
        q.push_all(&[9, 11, 13]);
        assert_eq!(q.window(), &[5, 7]); // unchanged until slid
        q.slide_window();
        assert_eq!(q.window(), &[9, 11, 13]);
        q.slide_window();
        assert!(q.window_is_empty());
    }

    #[test]
    fn refill_pending_replaces_unslid_items() {
        let mut q = SlidingQueue::new();
        q.push(1);
        q.slide_window();
        q.push(2); // pending
        q.refill_pending([8, 9]);
        q.slide_window();
        assert_eq!(q.window(), &[8, 9]);
    }
}
