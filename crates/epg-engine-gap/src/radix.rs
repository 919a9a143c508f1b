//! Sequential Dijkstra over a monotone radix heap — the first kernel of
//! the raw-speed SSSP tier.
//!
//! Non-negative IEEE-754 floats compare exactly like their bit patterns,
//! so [`dist_to_key`] maps each f32 distance to a u64 key that preserves
//! order across 0.0, subnormals, normals and +∞. Dijkstra's extraction
//! sequence is non-decreasing, which is precisely the contract a radix
//! heap needs: keys are bucketed by the highest bit in which they differ
//! from the last extracted minimum, and a bucket is redistributed (around
//! its own minimum) only when the low bucket drains. Stale heap entries
//! are skipped by comparing the popped key against the vertex's current
//! distance key, exactly like the lazy-deletion binary-heap oracle.

use epg_engine_api::{AlgorithmResult, Dir, RunLog, RunOutput, RunParams};
use epg_graph::{Csr, VertexId, Weight, INF_DIST};

/// Order-preserving key mapping for non-negative distances: for
/// `0.0 ≤ a ≤ b ≤ +∞`, `dist_to_key(a) ≤ dist_to_key(b)`, with equality
/// exactly when `a == b`. Subnormals and zero are handled by the IEEE-754
/// layout itself (sign 0, then exponent, then mantissa, all big-endian).
#[inline]
pub fn dist_to_key(d: f32) -> u64 {
    debug_assert!(d >= 0.0, "distance keys are defined for non-negative floats");
    f32::to_bits(d) as u64
}

/// Inverse of [`dist_to_key`] (bit-exact).
#[inline]
pub fn key_to_dist(k: u64) -> f32 {
    f32::from_bits(k as u32)
}

/// Monotone priority queue over u64 keys. `push` requires keys no smaller
/// than the last popped key (Dijkstra with non-negative weights satisfies
/// this: a relaxation from the minimum produces `d + w ≥ d`, and f32
/// addition of non-negative operands is monotone).
pub struct RadixHeap {
    /// Bucket `i` holds keys whose highest differing bit vs `last` is
    /// `i - 1`; bucket 0 holds keys equal to `last`.
    buckets: Vec<Vec<(u64, VertexId)>>,
    last: u64,
    len: usize,
    /// Number of bucket redistributions (the kernel's "iterations").
    pub redistributions: u64,
}

impl RadixHeap {
    /// An empty heap with the extraction floor at 0.
    pub fn new() -> RadixHeap {
        RadixHeap { buckets: vec![Vec::new(); 65], last: 0, len: 0, redistributions: 0 }
    }

    #[inline]
    fn bucket_index(last: u64, key: u64) -> usize {
        (64 - (key ^ last).leading_zeros()) as usize
    }

    /// Number of stored entries (including stale ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry. `key` must be ≥ the last popped key.
    #[inline]
    pub fn push(&mut self, key: u64, v: VertexId) {
        debug_assert!(key >= self.last, "radix heap requires monotone insertion");
        self.buckets[Self::bucket_index(self.last, key)].push((key, v));
        self.len += 1;
    }

    /// Extracts an entry with the minimum key.
    pub fn pop(&mut self) -> Option<(u64, VertexId)> {
        if self.len == 0 {
            return None;
        }
        if self.buckets[0].is_empty() {
            // Find the first nonempty bucket and redistribute it around
            // its minimum; everything equal to that minimum lands in
            // bucket 0, the rest in strictly lower buckets than before.
            let mut i = 1;
            while self.buckets[i].is_empty() {
                i += 1;
            }
            let drained = std::mem::take(&mut self.buckets[i]);
            let mut min = u64::MAX;
            for &(k, _) in &drained {
                min = min.min(k);
            }
            self.last = min;
            for (k, v) in drained {
                self.buckets[Self::bucket_index(min, k)].push((k, v));
            }
            self.redistributions += 1;
        }
        self.len -= 1;
        self.buckets[0].pop()
    }
}

impl Default for RadixHeap {
    fn default() -> Self {
        RadixHeap::new()
    }
}

/// Sequential Dijkstra from `params.root` using the radix heap. Unweighted
/// graphs behave as unit weights (`neighbors_weighted` yields 1.0). The
/// pool is used only for cooperative cancellation polling — the kernel
/// itself is single-threaded, and its trace records a serial region so
/// the machine model does not credit it with parallel speedup.
pub fn dijkstra_radix_heap(g: &Csr, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let root = params.root.expect("SSSP needs a root");
    let n = g.num_vertices();
    let mut dist: Vec<Weight> = vec![INF_DIST; n];
    let mut log = RunLog::new(params.recorder);
    let mut settled = 0u64;
    let mut heap = RadixHeap::new();
    if n > 0 {
        dist[root as usize] = 0.0;
        heap.push(dist_to_key(0.0), root);
    }
    // A sequential kernel has no rounds to report, so it reports (and
    // polls) once per 1024 pops, with the heap size as the frontier.
    let mut pops = 0u32;
    while let Some((key, u)) = heap.pop() {
        pops += 1;
        if pops & 1023 == 0
            && log.iteration(pool, pops >> 10, heap.len() as u64, Dir::Push).is_break()
        {
            break;
        }
        let du = dist[u as usize];
        // Stale entry: u was re-pushed with a smaller key after this
        // entry was queued.
        if key != dist_to_key(du) {
            continue;
        }
        settled += 1;
        for (v, w) in g.neighbors_weighted(u) {
            log.counters.edges_traversed += 1;
            let nd = du + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(dist_to_key(nd), v);
            }
        }
    }
    if n > 0 {
        log.counters.iterations = (heap.redistributions as u32).max(1);
    }
    log.counters.vertices_touched = settled;
    log.counters.bytes_read = log.counters.edges_traversed * 12;
    log.counters.bytes_written = settled * 8;
    log.serial(log.counters.edges_traversed.max(1), log.counters.bytes_read + settled * 8);
    let _ = log.iteration(pool, (pops >> 10) + 1, heap.len() as u64, Dir::Push);
    log.finish(AlgorithmResult::Distances(dist))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, EdgeList};
    use epg_parallel::ThreadPool;

    #[test]
    fn key_mapping_is_order_preserving() {
        // Ascending ladder through the tricky regions of the f32 range:
        // zero, the smallest subnormal, larger subnormals, the smallest
        // normal, ordinary values, the largest finite value, infinity.
        let ladder: Vec<f32> = vec![
            0.0,
            f32::from_bits(1), // smallest positive subnormal
            f32::from_bits(0x0000_ffff),
            1e-40, // subnormal
            f32::MIN_POSITIVE,
            1e-20,
            0.1,
            0.5,
            1.0,
            1.0 + f32::EPSILON,
            1.5,
            1e20,
            f32::MAX,
            f32::INFINITY,
        ];
        for w in ladder.windows(2) {
            assert!(w[0] < w[1], "ladder must be strictly ascending: {} vs {}", w[0], w[1]);
            assert!(
                dist_to_key(w[0]) < dist_to_key(w[1]),
                "keys must be strictly ascending: {} vs {}",
                w[0],
                w[1]
            );
        }
        for &d in &ladder {
            assert_eq!(key_to_dist(dist_to_key(d)).to_bits(), d.to_bits(), "roundtrip {d}");
        }
        assert_eq!(dist_to_key(0.0), 0);
    }

    #[test]
    fn heap_pops_sorted_with_duplicates() {
        let keys = [5u64, 3, 3, 0, 7, u32::MAX as u64, 3, 1 << 33, 42];
        let mut h = RadixHeap::new();
        // Monotone usage: push an initial batch, then interleave.
        for (i, &k) in keys.iter().enumerate() {
            h.push(k, i as VertexId);
        }
        let mut out = Vec::new();
        while let Some((k, _)) = h.pop() {
            out.push(k);
        }
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(out, want);
        assert!(h.is_empty());
    }

    #[test]
    fn heap_interleaved_monotone_pushes() {
        let mut h = RadixHeap::new();
        h.push(10, 0);
        h.push(20, 1);
        let (k, _) = h.pop().unwrap();
        assert_eq!(k, 10);
        // After popping 10, pushes ≥ 10 are legal.
        h.push(11, 2);
        h.push(u64::MAX, 3);
        assert_eq!(h.pop().unwrap().0, 11);
        assert_eq!(h.pop().unwrap().0, 20);
        assert_eq!(h.pop().unwrap().0, u64::MAX);
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn matches_dijkstra_oracle_exactly() {
        let el = epg_generator::uniform::generate(300, 2400, true, 13).symmetrized();
        let g = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(2);
        let out = dijkstra_radix_heap(&g, &RunParams::new(&pool, Some(4)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        let want = oracle::dijkstra(&g, 4);
        for v in 0..want.len() {
            assert_eq!(d[v].to_bits(), want[v].to_bits(), "vertex {v}: {} vs {}", d[v], want[v]);
        }
        assert!(out.counters.edges_traversed > 0);
        assert!(out.counters.iterations > 0);
    }

    #[test]
    fn zero_weight_edges_and_unreachables() {
        let el = EdgeList::weighted(5, vec![(0, 1), (1, 2), (0, 2)], vec![0.0, 0.0, 0.5]);
        let g = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(1);
        let out = dijkstra_radix_heap(&g, &RunParams::new(&pool, Some(0)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 0.0);
        assert_eq!(d[2], 0.0);
        assert!(d[3].is_infinite() && d[4].is_infinite());
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Csr::from_edge_list(&EdgeList::new(0, vec![]));
        let pool = ThreadPool::new(1);
        let out = dijkstra_radix_heap(&g, &RunParams::new(&pool, Some(0)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        assert!(d.is_empty());
    }
}
