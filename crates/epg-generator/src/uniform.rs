//! Uniform (Erdős–Rényi G(n, m)) generator, mainly for tests and as the
//! "no skew" contrast case in ablation benches.

use epg_graph::{EdgeList, VertexId, Weight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates `num_edges` directed edges with endpoints uniform over
/// `0..num_vertices` (duplicates and self-loops possible, as in a true
/// G(n, m) multigraph draw). Optional uniform (0,1] weights.
pub fn generate(num_vertices: usize, num_edges: usize, weighted: bool, seed: u64) -> EdgeList {
    assert!(num_vertices >= 1, "need at least one vertex");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(num_edges);
    let mut weights = weighted.then(|| Vec::with_capacity(num_edges));
    for _ in 0..num_edges {
        let u = rng.gen_range(0..num_vertices) as VertexId;
        let v = rng.gen_range(0..num_vertices) as VertexId;
        edges.push((u, v));
        if let Some(ws) = weights.as_mut() {
            ws.push((1.0 - rng.gen::<f32>()).max(f32::MIN_POSITIVE) as Weight);
        }
    }
    EdgeList { num_vertices, edges, weights, own_transpose: false }
}

/// Parallel uniform generation: fixed blocks of
/// `kronecker::GEN_BLOCK` edges, each from its own block-seeded
/// `StdRng` — deterministic per seed regardless of thread count (a
/// different stream than the serial [`generate`]).
pub fn generate_parallel(
    num_vertices: usize,
    num_edges: usize,
    weighted: bool,
    seed: u64,
    pool: &epg_parallel::ThreadPool,
) -> EdgeList {
    use crate::kronecker::{mix64, GEN_BLOCK};
    use epg_parallel::{DisjointWriter, Schedule};

    assert!(num_vertices >= 1, "need at least one vertex");
    let nblocks = num_edges.div_ceil(GEN_BLOCK);
    let mut edges = vec![(0 as VertexId, 0 as VertexId); num_edges];
    let mut weights = weighted.then(|| vec![0.0 as Weight; num_edges]);
    {
        let ew = DisjointWriter::new(&mut edges);
        let ww = weights.as_mut().map(|w| DisjointWriter::new(w.as_mut_slice()));
        pool.parallel_for(nblocks, Schedule::Dynamic { chunk: 1 }, |b| {
            let lo = b * GEN_BLOCK;
            let hi = ((b + 1) * GEN_BLOCK).min(num_edges);
            let mut rng = StdRng::seed_from_u64(mix64(seed ^ mix64(b as u64 + 1)));
            let (es, mut ws) =
                // SAFETY: blocks map 1:1 to disjoint index ranges.
                unsafe { (ew.range_mut(lo, hi), ww.as_ref().map(|w| w.range_mut(lo, hi))) };
            for k in 0..hi - lo {
                let u = rng.gen_range(0..num_vertices) as VertexId;
                let v = rng.gen_range(0..num_vertices) as VertexId;
                es[k] = (u, v);
                if let Some(ws) = ws.as_deref_mut() {
                    ws[k] = (1.0 - rng.gen::<f32>()).max(f32::MIN_POSITIVE) as Weight;
                }
            }
        });
    }
    EdgeList { num_vertices, edges, weights, own_transpose: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::degree::degree_stats;

    #[test]
    fn parallel_deterministic_across_thread_counts() {
        let reference = generate_parallel(500, 20_000, true, 9, &epg_parallel::ThreadPool::new(1));
        for nthreads in [2, 4] {
            let pool = epg_parallel::ThreadPool::new(nthreads);
            assert_eq!(generate_parallel(500, 20_000, true, 9, &pool), reference);
        }
        assert_ne!(
            generate_parallel(500, 20_000, true, 10, &epg_parallel::ThreadPool::new(2)),
            reference
        );
        assert_eq!(reference.num_edges(), 20_000);
        assert!(reference.weights.as_ref().unwrap().iter().all(|&w| w > 0.0 && w <= 1.0));
    }

    #[test]
    fn sizes_and_determinism() {
        let el = generate(100, 500, true, 1);
        assert_eq!(el.num_vertices, 100);
        assert_eq!(el.num_edges(), 500);
        assert_eq!(el, generate(100, 500, true, 1));
    }

    #[test]
    fn degrees_are_not_skewed() {
        let el = generate(2000, 32_000, false, 2);
        let s = degree_stats(&el);
        // Binomial degrees: the top 1% should own only slightly more than
        // 1% of edges — far from Kronecker's heavy tail.
        assert!(s.top1pct_edge_share < 0.05, "share {}", s.top1pct_edge_share);
    }
}
