//! Community-structure kernels: CDLP and WCC.

use epg_engine_api::{cdlp::mode, AlgorithmResult, Dir, RunLog, RunOutput, RunParams};
use epg_graph::adjacency::PropertyGraph;
use epg_graph::VertexId;
use epg_parallel::{DisjointWriter, PerWorker, Schedule};
use std::sync::atomic::{AtomicU64, Ordering};

/// Synchronous label propagation for `iterations` rounds, Graphalytics
/// semantics: each vertex adopts the smallest among the most frequent
/// labels of its in- and out-neighbors.
pub fn cdlp(g: &PropertyGraph, params: &RunParams<'_>, iterations: u32) -> RunOutput {
    let pool = params.pool;
    let n = g.num_vertices();
    let mut label: Vec<u64> = (0..n as u64).collect();
    let mut next: Vec<u64> = label.clone();
    let mut log = RunLog::new(params.recorder);
    let m2 = (0..n as VertexId).map(|v| (g.out_degree(v) + g.in_degree(v)) as u64).sum::<u64>();
    // Each worker's neighbour labels, refilled per vertex.
    let mut gathered = PerWorker::new(pool.num_threads(), Vec::new);
    for round in 0..iterations {
        {
            let writer = DisjointWriter::new(&mut next);
            gathered.for_ranges(pool, n, Schedule::graphbig_default(), |labels, lo, hi| {
                for v in lo..hi {
                    let vid = v as VertexId;
                    labels.clear();
                    labels.extend(g.neighbors(vid).map(|(u, _)| label[u as usize]));
                    labels.extend(g.in_neighbors(vid).map(|u| label[u as usize]));
                    // SAFETY: ranges are disjoint — one writer per index
                    // per region, `v < n`.
                    unsafe { writer.write_unchecked(v, mode(labels).unwrap_or(label[v])) };
                }
            });
        }
        std::mem::swap(&mut label, &mut next);
        log.counters.iterations += 1;
        log.counters.edges_traversed += m2;
        log.counters.vertices_touched += n as u64;
        log.parallel(m2.max(1), 1, m2 * 16 + n as u64 * 16);
        if log.iteration(pool, round + 1, n as u64, Dir::Pull).is_break() {
            break;
        }
    }
    log.counters.bytes_read = log.counters.edges_traversed * 16;
    log.counters.bytes_written = log.counters.vertices_touched * 8;
    log.finish(AlgorithmResult::Labels(label))
}

/// Weakly connected components by min-label propagation until fixpoint;
/// converges to the smallest vertex id per component (both edge directions
/// propagate).
pub fn wcc(g: &PropertyGraph, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let n = g.num_vertices();
    let comp: Vec<AtomicU64> = (0..n as u64).map(AtomicU64::new).collect();
    let mut log = RunLog::new(params.recorder);
    let m2 = (0..n as VertexId).map(|v| (g.out_degree(v) + g.in_degree(v)) as u64).sum::<u64>();
    let mut changes = PerWorker::new(pool.num_threads(), || None);
    loop {
        let changed = changes.reduce_ranges(
            pool,
            n,
            Schedule::graphbig_default(),
            || 0usize,
            |lo, hi| {
                let mut changed = 0usize;
                for v in lo..hi {
                    let vid = v as VertexId;
                    let mut best = comp[v].load(Ordering::Relaxed);
                    for (u, _) in g.neighbors(vid) {
                        best = best.min(comp[u as usize].load(Ordering::Relaxed));
                    }
                    for u in g.in_neighbors(vid) {
                        best = best.min(comp[u as usize].load(Ordering::Relaxed));
                    }
                    // Monotone decrease: lock-free min store.
                    let mut cur = comp[v].load(Ordering::Relaxed);
                    while best < cur {
                        match comp[v].compare_exchange_weak(
                            cur,
                            best,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => {
                                changed += 1;
                                break;
                            }
                            Err(actual) => cur = actual,
                        }
                    }
                }
                changed
            },
            |a, b| a + b,
        );
        log.counters.iterations += 1;
        log.counters.edges_traversed += m2;
        log.counters.vertices_touched += n as u64;
        log.parallel(m2.max(1), 1, m2 * 16 + n as u64 * 8);
        let stop = log.iteration(pool, log.counters.iterations, n as u64, Dir::Pull);
        if changed == 0 || stop.is_break() {
            break;
        }
    }
    log.counters.bytes_read = log.counters.edges_traversed * 16;
    log.counters.bytes_written = log.counters.vertices_touched * 8;
    log.finish(AlgorithmResult::Components(
        comp.iter().map(|c| c.load(Ordering::Relaxed) as VertexId).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::CDLP_ROUNDS;
    use epg_graph::{oracle, Csr, EdgeList};
    use epg_parallel::ThreadPool;

    #[test]
    fn cdlp_two_triangles() {
        let el =
            EdgeList::new(6, vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).symmetrized();
        let g = PropertyGraph::from_edge_list(&el);
        let pool = ThreadPool::new(2);
        let out = cdlp(&g, &RunParams::new(&pool, None), CDLP_ROUNDS);
        let AlgorithmResult::Labels(l) = out.result else { panic!() };
        assert_eq!(l, oracle::cdlp(&Csr::from_edge_list(&el), CDLP_ROUNDS));
    }

    #[test]
    fn wcc_direction_blind() {
        let el = EdgeList::new(7, vec![(0, 1), (2, 1), (4, 3), (5, 6), (6, 5)]);
        let g = PropertyGraph::from_edge_list(&el);
        let pool = ThreadPool::new(3);
        let out = wcc(&g, &RunParams::new(&pool, None));
        let AlgorithmResult::Components(c) = out.result else { panic!() };
        assert_eq!(c, oracle::wcc(&Csr::from_edge_list(&el)));
    }

    #[test]
    fn wcc_long_chain_needs_many_rounds() {
        let edges: Vec<_> = (0..100).map(|i| (i as VertexId + 1, i as VertexId)).collect();
        let el = EdgeList::new(101, edges);
        let g = PropertyGraph::from_edge_list(&el);
        let pool = ThreadPool::new(2);
        let out = wcc(&g, &RunParams::new(&pool, None));
        let AlgorithmResult::Components(c) = out.result else { panic!() };
        assert!(c.iter().all(|&x| x == 0));
        assert!(out.counters.iterations > 1);
    }
}
