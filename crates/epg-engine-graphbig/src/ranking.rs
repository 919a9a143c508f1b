//! openG-style PageRank.

use epg_engine_api::StoppingCriterion;
use epg_engine_api::{AlgorithmResult, Convergence, Dir, RunLog, RunOutput, RunParams};
use epg_graph::adjacency::PropertyGraph;
use epg_graph::VertexId;
use epg_parallel::{DisjointWriter, Schedule};

const DAMPING: f64 = 0.85;

/// Pull-mode PageRank over the property graph's in-edge lists, dynamic
/// scheduling, homogenized L1 stopping (§IV-A).
pub fn pagerank(g: &PropertyGraph, params: &RunParams<'_>) -> RunOutput {
    let n = g.num_vertices();
    let pool = params.pool;
    let rec = params.recorder;
    let stopping = params.stopping.unwrap_or(StoppingCriterion::paper_default());
    let mut log = RunLog::new(rec);
    if n == 0 {
        return log.finish(AlgorithmResult::Ranks { ranks: Vec::new(), iterations: 0 });
    }
    rec.alloc_hwm("graphbig.pr.rank+next", n as u64 * 16);
    let out_deg: Vec<u32> = (0..n as VertexId).map(|v| g.out_degree(v) as u32).collect();
    let sinks: Vec<VertexId> = (0..n as VertexId).filter(|&v| out_deg[v as usize] == 0).collect();
    let m: u64 = out_deg.iter().map(|&d| d as u64).sum();
    let base = (1.0 - DAMPING) / n as f64;
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut convergence = Convergence::new(pool);
    let mut iterations = 0u32;
    loop {
        iterations += 1;
        let sink_mass: f64 = sinks.iter().map(|&v| rank[v as usize]).sum::<f64>() / n as f64;
        {
            let writer = DisjointWriter::new(&mut next);
            let rank_ref = &rank;
            pool.parallel_for_ranges(n, Schedule::graphbig_default(), |_tid, lo, hi| {
                for v in lo..hi {
                    let incoming: f64 = g
                        .in_neighbors(v as VertexId)
                        .map(|u| rank_ref[u as usize] / out_deg[u as usize] as f64)
                        .sum();
                    // SAFETY: ranges are disjoint — v is written exactly
                    // once per region, `v < n`.
                    unsafe { writer.write_unchecked(v, base + DAMPING * (incoming + sink_mass)) };
                }
            });
        }
        let (l1, changed) = convergence.measure(pool, Schedule::graphbig_default(), &rank, &next);
        std::mem::swap(&mut rank, &mut next);
        log.counters.edges_traversed += m;
        log.counters.vertices_touched += n as u64;
        log.parallel(m.max(1), 1, m * 16 + n as u64 * 24);
        log.parallel(n as u64, 1, n as u64 * 16);
        // Pull-mode: every vertex is active every round.
        let stop = log.iteration(pool, iterations, n as u64, Dir::Pull);
        if stop.is_break()
            || stopping.is_converged(l1, changed)
            || iterations >= params.max_iterations
        {
            break;
        }
    }
    log.counters.iterations = iterations;
    log.counters.bytes_read = log.counters.edges_traversed * 16;
    log.counters.bytes_written = log.counters.vertices_touched * 8;
    log.finish(AlgorithmResult::Ranks { ranks: rank, iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, Csr, EdgeList};
    use epg_parallel::ThreadPool;

    #[test]
    fn hub_graph_matches_oracle() {
        let el = EdgeList::new(5, vec![(1, 0), (2, 0), (3, 0), (4, 0), (0, 1)]);
        let g = PropertyGraph::from_edge_list(&el);
        let pool = ThreadPool::new(2);
        let out = pagerank(&g, &RunParams::new(&pool, None));
        let AlgorithmResult::Ranks { ranks, .. } = out.result else { panic!() };
        let (want, _) = oracle::pagerank(&Csr::from_edge_list(&el), 6e-8, 300);
        for v in 0..5 {
            assert!((ranks[v] - want[v]).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_graph() {
        let g = PropertyGraph::from_edge_list(&EdgeList::new(0, vec![]));
        let pool = ThreadPool::new(1);
        let out = pagerank(&g, &RunParams::new(&pool, None));
        assert_eq!(out.result.len(), 0);
    }
}
