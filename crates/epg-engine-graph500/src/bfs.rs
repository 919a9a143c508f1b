//! Kernel 2: level-synchronous top-down BFS.
//!
//! The reference code keeps a shared output queue per level and claims
//! vertices with compare-and-swap on the parent array. Scheduling is plain
//! static worksharing, as in the reference's `#pragma omp parallel for`.

use epg_engine_api::{AlgorithmResult, Dir, Found, RunLog, RunOutput, RunParams};
use epg_graph::{Csr, NO_VERTEX};
use epg_parallel::{PerWorker, Schedule};
use std::sync::atomic::{AtomicU32, Ordering};

/// Runs top-down BFS from `params.root`.
pub fn top_down_bfs(g: &Csr, params: &RunParams<'_>) -> RunOutput {
    let (pool, rec) = (params.pool, params.recorder);
    let root = params.root.expect("BFS needs a root");
    let n = g.num_vertices();
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NO_VERTEX)).collect();
    let level: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    parent[root as usize].store(root, Ordering::Relaxed);
    level[root as usize].store(0, Ordering::Relaxed);
    rec.alloc_hwm("graph500.bfs.parent+level", n as u64 * 8);

    let mut log = RunLog::new(rec);
    let mut found = PerWorker::new(pool.num_threads(), Found::default);
    let (mut frontier, mut next) = (vec![root], Vec::new());
    let mut depth = 0u32;

    while !frontier.is_empty() {
        depth += 1;
        found.for_ranges(pool, frontier.len(), Schedule::Static { chunk: None }, |mine, lo, hi| {
            for &u in &frontier[lo..hi] {
                mine.max_degree = mine.max_degree.max(g.out_degree(u) as u64);
                for &v in g.neighbors(u) {
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
        log.parallel(edges.max(1), max_degree.max(1), edges * 8 + next.len() as u64 * 12);
        if log.iteration(pool, depth, frontier.len() as u64, Dir::Push).is_break() {
            break;
        }
        std::mem::swap(&mut frontier, &mut next);
    }

    log.counters.bytes_read = log.counters.edges_traversed * 8;
    log.counters.bytes_written = log.counters.vertices_touched * 12;
    parent[root as usize].store(NO_VERTEX, Ordering::Relaxed);
    log.finish(AlgorithmResult::BfsTree {
        parent: parent.iter().map(|p| p.load(Ordering::Relaxed)).collect(),
        level: level.iter().map(|l| l.load(Ordering::Relaxed)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, EdgeList, VertexId};
    use epg_parallel::ThreadPool;

    #[test]
    fn matches_oracle_on_random_graph() {
        let el = epg_generator::uniform::generate(500, 3000, false, 13).symmetrized();
        let g = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(4);
        let out = top_down_bfs(&g, &RunParams::new(&pool, Some(3)));
        let AlgorithmResult::BfsTree { parent, level } = out.result else { panic!() };
        assert_eq!(level, oracle::bfs(&g, 3).level);
        epg_graph::validate::validate_bfs_tree(&g, 3, &parent).unwrap();
    }

    #[test]
    fn iterations_equal_eccentricity() {
        // Path 0-1-2-3: four nonempty frontiers ([0],[1],[2],[3]); the last
        // discovers nothing but still scans its edges.
        let el = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)]).symmetrized();
        let g = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(1);
        let out = top_down_bfs(&g, &RunParams::new(&pool, Some(0)));
        assert_eq!(out.counters.iterations, 4);
    }

    #[test]
    fn edge_traversal_count_is_sum_of_reached_degrees() {
        // Every edge out of a reached vertex is checked exactly once.
        let el = epg_generator::uniform::generate(64, 512, false, 7).symmetrized();
        let g = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(2);
        let out = top_down_bfs(&g, &RunParams::new(&pool, Some(0)));
        let AlgorithmResult::BfsTree { level, .. } = out.result else { panic!() };
        let expect: u64 = (0..g.num_vertices())
            .filter(|&v| level[v] != u32::MAX)
            .map(|v| g.out_degree(v as VertexId) as u64)
            .sum();
        assert_eq!(out.counters.edges_traversed, expect);
    }
}
