//! openG-style traversal kernels: BFS and SSSP.

use epg_engine_api::{AlgorithmResult, Dir, Found, RunLog, RunOutput, RunParams};
use epg_graph::adjacency::PropertyGraph;
use epg_graph::{INF_DIST, NO_VERTEX};
use epg_parallel::{AtomicF32, PerWorker, Schedule, WorkerBitmaps};
use std::sync::atomic::{AtomicU32, Ordering};

/// Level-synchronous top-down BFS over the property graph, dynamic
/// scheduling (openG's `bfs` kernel); CAS claims keep its frontier lists distinct.
pub fn bfs(g: &PropertyGraph, params: &RunParams<'_>) -> RunOutput {
    let (pool, rec) = (params.pool, params.recorder);
    let root = params.root.expect("BFS needs a root");
    let n = g.num_vertices();
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NO_VERTEX)).collect();
    let level: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    parent[root as usize].store(root, Ordering::Relaxed);
    level[root as usize].store(0, Ordering::Relaxed);
    rec.alloc_hwm("graphbig.bfs.parent+level", n as u64 * 8);

    let mut log = RunLog::new(rec);
    let mut found = PerWorker::new(pool.num_threads(), Found::default);
    let (mut frontier, mut next) = (vec![root], Vec::new());
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        found.for_ranges(pool, frontier.len(), Schedule::graphbig_default(), |mine, lo, hi| {
            for &u in &frontier[lo..hi] {
                mine.max_degree = mine.max_degree.max(g.out_degree(u) as u64);
                for (v, _) in g.neighbors(u) {
                    mine.edges += 1;
                    if parent[v as usize].load(Ordering::Relaxed) == NO_VERTEX
                        && parent[v as usize]
                            .compare_exchange(NO_VERTEX, u, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                    {
                        level[v as usize].store(depth, Ordering::Relaxed);
                        mine.list.push(v);
                    }
                }
            }
        });
        next.clear();
        let (edges, max_degree) = Found::drain(&mut found, &mut next);
        log.counters.edges_traversed += edges;
        log.counters.vertices_touched += next.len() as u64;
        log.counters.iterations += 1;
        // The property-graph layout costs an extra pointer dereference per
        // vertex object relative to CSR — reflected in the bytes estimate.
        log.parallel(edges.max(1), max_degree.max(1), edges * 16 + next.len() as u64 * 24);
        if log.iteration(pool, depth, frontier.len() as u64, Dir::Push).is_break() {
            break;
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    log.counters.bytes_read = log.counters.edges_traversed * 16;
    log.counters.bytes_written = log.counters.vertices_touched * 24;
    parent[root as usize].store(NO_VERTEX, Ordering::Relaxed);
    log.finish(AlgorithmResult::BfsTree {
        parent: parent.iter().map(|p| p.load(Ordering::Relaxed)).collect(),
        level: level.iter().map(|l| l.load(Ordering::Relaxed)).collect(),
    })
}

/// Frontier-based Bellman-Ford SSSP (openG's `sssp` kernel): no Δ buckets,
/// just repeated relaxation of an active set — simpler and slower than
/// GAP's Δ-stepping, which is the architectural contrast the paper draws.
/// Improved vertices go to per-worker bitmaps, drained into the next set.
pub fn sssp(g: &PropertyGraph, params: &RunParams<'_>) -> RunOutput {
    let (pool, rec) = (params.pool, params.recorder);
    let root = params.root.expect("SSSP needs a root");
    let n = g.num_vertices();
    let dist: Vec<AtomicF32> = (0..n).map(|_| AtomicF32::new(INF_DIST)).collect();
    dist[root as usize].store(0.0, Ordering::Relaxed);
    rec.alloc_hwm("graphbig.sssp.dist", n as u64 * 4);

    let mut log = RunLog::new(rec);
    // Each worker's improved vertices and its (edges, max degree) tally.
    let mut improved = WorkerBitmaps::<(u64, u64)>::new(pool.num_threads(), n);
    let (mut active, mut next) = (vec![root], Vec::new());
    while !active.is_empty() {
        let sched = Schedule::graphbig_default();
        improved.for_ranges(pool, active.len(), sched, |mine, (edges, max_degree), lo, hi| {
            for &u in &active[lo..hi] {
                let du = dist[u as usize].load(Ordering::Relaxed);
                *max_degree = (*max_degree).max(g.out_degree(u) as u64);
                for (v, w) in g.neighbors(u) {
                    *edges += 1;
                    if dist[v as usize].fetch_min(du + w, Ordering::Relaxed).is_some() {
                        mine.set(v as usize);
                    }
                }
            }
        });
        let (edges, max_degree) = improved.drain_into(&mut next, |a, b| (a.0 + b.0, a.1.max(b.1)));
        log.counters.edges_traversed += edges;
        log.counters.vertices_touched += next.len() as u64;
        log.counters.iterations += 1;
        log.parallel(edges.max(1), max_degree.max(1), edges * 20 + next.len() as u64 * 8);
        if log.iteration(pool, log.counters.iterations, active.len() as u64, Dir::Push).is_break() {
            break;
        }
        std::mem::swap(&mut active, &mut next);
    }
    log.counters.bytes_read = log.counters.edges_traversed * 20;
    log.counters.bytes_written = log.counters.vertices_touched * 8;
    log.finish(AlgorithmResult::Distances(dist.iter().map(|d| d.load(Ordering::Relaxed)).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_generator::GraphSpec;
    use epg_graph::{oracle, Csr, EdgeList, VertexId};
    use epg_parallel::ThreadPool;

    #[test]
    fn bellman_ford_converges_with_negative_free_weights() {
        let el =
            EdgeList::weighted(4, vec![(0, 1), (0, 2), (2, 1), (1, 3)], vec![10.0, 1.0, 2.0, 1.0]);
        let g = PropertyGraph::from_edge_list(&el);
        let pool = ThreadPool::new(2);
        let out = sssp(&g, &RunParams::new(&pool, Some(0)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        assert_eq!(d[1], 3.0);
        assert_eq!(d[3], 4.0);
    }

    #[test]
    fn sssp_distances_are_bit_identical_across_thread_counts() {
        // Whichever worker's `fetch_min` lands first, the fixpoint is the
        // minimum over paths of left-to-right f32 sums: Dijkstra's bits.
        let kron = GraphSpec::Kronecker { scale: 9, edge_factor: 16, weighted: true }.generate(5);
        let kron_root = epg_graph::degree::sample_roots(&kron, 1, 2)[0];
        let corpus = GraphSpec::test_corpus();
        let adversarial = corpus
            .iter()
            .filter(|s| ["grid_swirl", "spfa_killer"].contains(&s.family()))
            .map(|s| (s.generate(42), 0));
        let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (el, root) in std::iter::once((kron, kron_root)).chain(adversarial) {
            let g = PropertyGraph::from_edge_list(&el);
            let want = bits(&oracle::dijkstra(&Csr::from_edge_list(&el), root));
            for threads in [1, 2, 3, 1, 2, 3] {
                let pool = ThreadPool::new(threads);
                let out = sssp(&g, &RunParams::new(&pool, Some(root)));
                let AlgorithmResult::Distances(d) = out.result else { panic!() };
                assert_eq!(bits(&d), want, "{} vertices, {threads} threads", el.num_vertices);
            }
        }
    }

    #[test]
    fn sssp_iterations_grow_with_diameter() {
        // A path forces one relaxation round per hop.
        let edges: Vec<_> = (0..50).map(|i| (i as VertexId, i as VertexId + 1)).collect();
        let el = EdgeList::new(51, edges);
        let g = PropertyGraph::from_edge_list(&el);
        let pool = ThreadPool::new(1);
        let out = sssp(&g, &RunParams::new(&pool, Some(0)));
        assert!(out.counters.iterations >= 50);
    }

    #[test]
    fn bfs_on_disconnected_graph() {
        let el = EdgeList::new(5, vec![(0, 1), (3, 4)]);
        let g = PropertyGraph::from_edge_list(&el);
        let pool = ThreadPool::new(2);
        let out = bfs(&g, &RunParams::new(&pool, Some(0)));
        let AlgorithmResult::BfsTree { level, .. } = out.result else { panic!() };
        assert_eq!(level[1], 1);
        assert_eq!(level[3], u32::MAX);
    }

    #[test]
    fn bfs_agrees_with_oracle_on_kronecker() {
        let el = epg_generator::kronecker::generate(
            &epg_generator::kronecker::KroneckerConfig {
                scale: 8,
                edge_factor: 8,
                ..Default::default()
            },
            3,
        )
        .symmetrized();
        let g = PropertyGraph::from_edge_list(&el);
        let csr = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(4);
        let root = epg_graph::degree::sample_roots(&el, 1, 1)[0];
        let out = bfs(&g, &RunParams::new(&pool, Some(root)));
        let AlgorithmResult::BfsTree { level, .. } = out.result else { panic!() };
        assert_eq!(level, oracle::bfs(&csr, root).level);
    }
}
