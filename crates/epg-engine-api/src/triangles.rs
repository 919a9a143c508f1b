//! The wedge-counting core of LCC and TC for every engine: the per-vertex
//! sets both kernels read, LCC's wedge-closing pass, TC's ordered count
//! and the one sorted intersection under both. An engine keeps only what
//! its programming model fixes: where a vertex's neighbours come from, the
//! schedule that collects them, and its run's regions and counters.

use epg_graph::VertexId;
use epg_parallel::{DisjointWriter, Schedule, ThreadPool};

/// A counting pass's answer and its work: Σ (|a| + |b|) over the
/// intersections it ran, and the largest share of one vertex.
#[derive(Debug)]
pub struct Pass<T> {
    /// Per-vertex coefficients (LCC) or the triangle count (TC).
    pub answer: T,
    /// Total intersection work.
    pub work: u64,
    /// One vertex's largest intersection work.
    pub max_cost: u64,
}

/// Builds or finishes every vertex's sets in one region under `schedule`:
/// `each(v, sets)` fills or filters vertex `v`'s entry of each of the `K`
/// slices, which are then sorted and deduplicated. Returns
/// `Σ (|sets[0][v]| + 1)`, the work of the pass.
pub fn vertex_sets<const K: usize>(
    pool: &ThreadPool,
    schedule: Schedule,
    mut sets: [&mut [Vec<VertexId>]; K],
    each: impl Fn(VertexId, [&mut Vec<VertexId>; K]) + Sync,
) -> u64 {
    let n = sets[0].len();
    let writers = sets.each_mut().map(|set| DisjointWriter::new(set));
    pool.parallel_for_ranges(n, schedule, |_tid, lo, hi| {
        for v in lo..hi {
            // SAFETY: the pool hands out disjoint ranges, so index `v` of
            // every set has one writer in this region.
            let mut mine = writers.each_ref().map(|w| unsafe { w.get_raw(v) });
            each(v as VertexId, mine.each_mut().map(|set| &mut **set));
            for set in mine {
                set.sort_unstable();
                set.dedup();
            }
        }
    });
    drop(writers);
    sets[0].iter().map(|set| set.len() as u64 + 1).sum()
}

/// LCC's wedge-closing pass (Graphalytics): for each vertex `v` with
/// undirected neighbourhood `nbrs[v]` of size `d`, the share of the
/// `d(d - 1)` ordered neighbour pairs `(u, w)` joined by an edge `u → w`,
/// read from `outs(u)`, `u`'s sorted out-neighbours. A vertex of degree
/// below 2 keeps 0.
pub fn close_wedges<'a>(
    pool: &ThreadPool,
    nbrs: &[Vec<VertexId>],
    outs: impl Fn(VertexId) -> &'a [VertexId] + Sync,
) -> Pass<Vec<f64>> {
    let mut coefficients = vec![0.0f64; nbrs.len()];
    let writer = DisjointWriter::new(&mut coefficients);
    let close = |lo: usize, hi: usize| {
        let (mut work, mut max_cost) = (0u64, 0u64);
        for (v, nb) in (lo..hi).zip(&nbrs[lo..hi]) {
            let d = nb.len();
            if d < 2 {
                continue;
            }
            let (mut tri, mut cost) = (0u64, 0u64);
            for &u in nb {
                let a = outs(u);
                cost += (a.len() + d) as u64;
                tri += intersect(a, u, nb);
            }
            work += cost;
            max_cost = max_cost.max(cost);
            // SAFETY: the pool hands out disjoint chunks, so index `v` has
            // one writer in this region.
            unsafe { writer.write(v, tri as f64 / (d as f64 * (d - 1) as f64)) };
        }
        (work, max_cost)
    };
    let (work, max_cost) = pool.parallel_reduce_ranges(
        nbrs.len(),
        Schedule::Dynamic { chunk: 16 },
        || (0, 0),
        close,
        |a, b| (a.0 + b.0, a.1.max(b.1)),
    );
    drop(writer);
    Pass { answer: coefficients, work, max_cost }
}

/// TC's ordered count (GAP Benchmark Suite): with `higher[u]` the sorted
/// neighbours of `u` above `u`, each triangle `u < v < w` is counted once,
/// as `w ∈ higher[u] ∩ higher[v]` for `v ∈ higher[u]`.
pub fn count_ordered(pool: &ThreadPool, higher: &[Vec<VertexId>]) -> Pass<u64> {
    let count = |lo: usize, hi: usize| {
        let (mut total, mut work, mut max_cost) = (0u64, 0u64, 0u64);
        for (u, hu) in (lo..hi).zip(&higher[lo..hi]) {
            let mut cost = 0u64;
            for &v in hu {
                let hv = &higher[v as usize];
                cost += (hu.len() + hv.len()) as u64;
                total += intersect(hu, u as VertexId, hv);
            }
            work += cost;
            max_cost = max_cost.max(cost);
        }
        (total, work, max_cost)
    };
    let (answer, work, max_cost) = pool.parallel_reduce_ranges(
        higher.len(),
        Schedule::Dynamic { chunk: 32 },
        || (0, 0, 0),
        count,
        |a, b| (a.0 + b.0, a.1 + b.1, a.2.max(b.2)),
    );
    Pass { answer, work, max_cost }
}

/// `|a ∩ b|` over sorted slices, where `a` is `owner`'s list: `owner`
/// itself is skipped in `a`, since a self-loop closes no wedge (a DCSC
/// column keeps its loop).
fn intersect(a: &[VertexId], owner: VertexId, b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut c) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        if a[i] == owner {
            i += 1;
            continue;
        }
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// K4 as sorted neighbourhoods: every vertex sees the other three.
    fn k4() -> Vec<Vec<VertexId>> {
        (0..4).map(|v| (0..4).filter(|&u| u != v).collect()).collect()
    }

    #[test]
    fn intersect_skips_the_owner_in_its_own_list() {
        assert_eq!(intersect(&[1, 3, 5], 0, &[1, 2, 3, 4]), 2);
        // Vertex 2's list holds its self-loop; a neighbourhood holding 2
        // must not count it as a closed wedge.
        assert_eq!(intersect(&[1, 2, 3], 2, &[1, 2, 3]), 2);
        assert_eq!(intersect(&[2], 2, &[2]), 0);
        assert_eq!(intersect(&[], 0, &[1]), 0);
    }

    #[test]
    fn vertices_below_degree_two_keep_zero() {
        // 0 - 1 and an isolated 2: degrees 1, 1, 0.
        let nbrs: Vec<Vec<VertexId>> = vec![vec![1], vec![0], vec![]];
        for threads in 1..=3 {
            let pool = ThreadPool::new(threads);
            let lcc = close_wedges(&pool, &nbrs, |u| &nbrs[u as usize]);
            assert_eq!(lcc.answer, vec![0.0; 3], "{threads} threads");
            assert_eq!((lcc.work, lcc.max_cost), (0, 0));
        }
    }

    #[test]
    fn k4_has_four_triangles_and_every_coefficient_one() {
        let nbrs = k4();
        let higher: Vec<Vec<VertexId>> = (0..4)
            .map(|v| nbrs[v].iter().copied().filter(|&u| u > v as VertexId).collect())
            .collect();
        for threads in 1..=3 {
            let pool = ThreadPool::new(threads);
            let lcc = close_wedges(&pool, &nbrs, |u| &nbrs[u as usize]);
            assert_eq!(lcc.answer, vec![1.0; 4], "{threads} threads");
            // Per vertex: 3 neighbours, each a 3-list against the 3-set.
            assert_eq!((lcc.work, lcc.max_cost), (4 * 3 * 6, 3 * 6));
            assert_eq!(count_ordered(&pool, &higher).answer, 4, "{threads} threads");
        }
    }

    #[test]
    fn vertex_sets_sort_dedup_and_keep_what_each_leaves() {
        let lists: [&[VertexId]; 4] = [&[3, 1, 3, 0], &[], &[2, 2, 2], &[0, 1, 2, 1]];
        for threads in 1..=3 {
            let pool = ThreadPool::new(threads);
            let (mut higher, mut all) = (vec![Vec::new(); 4], vec![Vec::new(); 4]);
            let schedule = Schedule::Dynamic { chunk: 1 };
            let work = vertex_sets(&pool, schedule, [&mut higher, &mut all], |v, [h, a]| {
                *a = lists[v as usize].to_vec();
                *h = a.iter().copied().filter(|&u| u > v).collect();
            });
            assert_eq!(higher, vec![vec![1, 3], vec![], vec![], vec![]], "{threads} threads");
            assert_eq!(all, vec![vec![0, 1, 3], vec![], vec![2], vec![0, 1, 2]]);
            assert_eq!(work, 2 + 4);
        }
    }
}
