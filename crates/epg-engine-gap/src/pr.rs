//! Pull-mode PageRank with the homogenized L1 stopping criterion (§IV-A).

use epg_engine_api::{AlgorithmResult, Dir, RunLog, RunOutput, RunParams, StoppingCriterion};
use epg_graph::{Csr, VertexId};
use epg_parallel::{DisjointWriter, Schedule};

/// Damping factor shared by all engines.
pub const DAMPING: f64 = 0.85;

/// Runs PageRank: each iteration pulls rank across in-edges, then the L1
/// change decides convergence (default ε = 6e-8; overridable through
/// [`RunParams::stopping`]).
pub fn pagerank(g: &Csr, gt: &Csr, params: &RunParams<'_>) -> RunOutput {
    let n = g.num_vertices();
    let pool = params.pool;
    let rec = params.recorder;
    let stopping = params.stopping.unwrap_or(StoppingCriterion::paper_default());
    let mut log = RunLog::new(rec);
    if n == 0 {
        return log.finish(AlgorithmResult::Ranks { ranks: Vec::new(), iterations: 0 });
    }
    rec.alloc_hwm("gap.pr.rank+next", n as u64 * 16);

    let out_deg: Vec<u32> = (0..n as VertexId).map(|v| g.out_degree(v) as u32).collect();
    let sinks: Vec<VertexId> = (0..n as VertexId).filter(|&v| out_deg[v as usize] == 0).collect();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let base = (1.0 - DAMPING) / n as f64;
    let m = g.num_edges() as u64;
    let max_in_deg = (0..n as VertexId).map(|v| gt.out_degree(v)).max().unwrap_or(0) as u64;

    let mut iterations = 0u32;
    loop {
        iterations += 1;
        let sink_mass: f64 = sinks.iter().map(|&v| rank[v as usize]).sum::<f64>() / n as f64;
        {
            let next_cell = DisjointWriter::new(&mut next);
            let rank_ref = &rank;
            pool.parallel_for_ranges(n, Schedule::gap_default(), |_tid, lo, hi| {
                for v in lo..hi {
                    let incoming: f64 = gt
                        .neighbors(v as VertexId)
                        .iter()
                        .map(|&u| rank_ref[u as usize] / out_deg[u as usize] as f64)
                        .sum();
                    // SAFETY: ranges are disjoint, so each index v is
                    // written by exactly one thread per region, and
                    // `v < hi <= n == next.len()`.
                    unsafe {
                        next_cell.write_unchecked(v, base + DAMPING * (incoming + sink_mass))
                    };
                }
            });
        }
        let rank_ref = &rank;
        let next_ref = &next;
        let l1 = pool
            .parallel_sum_f64(n, Schedule::gap_default(), |v| (rank_ref[v] - next_ref[v]).abs());
        let changed = pool.parallel_reduce(
            n,
            Schedule::gap_default(),
            || 0u64,
            |acc, v| *acc += ((rank_ref[v] as f32) != (next_ref[v] as f32)) as u64,
            |a, b| a + b,
        );
        std::mem::swap(&mut rank, &mut next);
        log.counters.edges_traversed += m;
        log.counters.vertices_touched += n as u64;
        log.parallel(m.max(1), max_in_deg.max(1), m * 12 + n as u64 * 16);
        log.parallel(n as u64, 1, n as u64 * 16); // convergence reductions
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
    log.counters.bytes_read = log.counters.edges_traversed * 12;
    log.counters.bytes_written = log.counters.vertices_touched * 8;
    log.finish(AlgorithmResult::Ranks { ranks: rank, iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::RunParams;
    use epg_graph::{oracle, EdgeList};
    use epg_parallel::ThreadPool;

    fn run(el: &EdgeList, stopping: Option<StoppingCriterion>) -> (Vec<f64>, u32) {
        let g = Csr::from_edge_list(el);
        let gt = g.transpose();
        let pool = ThreadPool::new(4);
        let mut params = RunParams::new(&pool, None);
        params.stopping = stopping;
        let out = pagerank(&g, &gt, &params);
        let AlgorithmResult::Ranks { ranks, iterations } = out.result else { panic!() };
        (ranks, iterations)
    }

    #[test]
    fn agrees_with_oracle() {
        let el = epg_generator::uniform::generate(300, 2400, false, 4);
        let (ranks, _) = run(&el, None);
        let (want, _) = oracle::pagerank(&Csr::from_edge_list(&el), 6e-8, 300);
        for v in 0..want.len() {
            assert!((ranks[v] - want[v]).abs() < 1e-5, "vertex {v}");
        }
    }

    #[test]
    fn ranks_sum_to_one_with_sinks() {
        // Half the vertices are sinks.
        let el = EdgeList::new(6, vec![(0, 3), (1, 4), (2, 5), (0, 1), (1, 2)]);
        let (ranks, _) = run(&el, None);
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    }

    #[test]
    fn nochange_criterion_iterates_longer_than_l1() {
        let el = epg_generator::uniform::generate(200, 1600, false, 8);
        let (_, iters_l1) = run(&el, Some(StoppingCriterion::paper_default()));
        let (_, iters_nc) = run(&el, Some(StoppingCriterion::NoChange));
        assert!(
            iters_nc >= iters_l1,
            "NoChange ({iters_nc}) should need at least as many iterations as L1 ({iters_l1})"
        );
    }

    #[test]
    fn iteration_cap_respected() {
        let el = epg_generator::uniform::generate(100, 500, false, 1);
        let g = Csr::from_edge_list(&el);
        let gt = g.transpose();
        let pool = ThreadPool::new(1);
        let mut params = RunParams::new(&pool, None);
        params.max_iterations = 3;
        params.stopping = Some(StoppingCriterion::L1Norm(0.0));
        let out = pagerank(&g, &gt, &params);
        assert_eq!(out.result.iterations(), Some(3));
    }
}
