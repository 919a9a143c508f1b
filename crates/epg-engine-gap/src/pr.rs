//! Pull-mode PageRank as GAP's `pr.cc` runs it, with the homogenized L1
//! stopping criterion (§IV-A).
//!
//! Each iteration is `pr.cc`'s two parallel loops. The first computes
//! `contrib[v] = scores[v] / out_degree(v)` once per vertex, under OpenMP's
//! default static schedule. The second pulls `contrib` over each vertex's
//! in-edges under GAP's pull schedule, writes the new score in place and
//! adds `|old − new|` (and whether the score moved at `f32` precision) to
//! the run's per-worker error partials. The sink mass, a serial sum over
//! the run's sink list, is the homogenization's addition to `pr.cc`.

use epg_engine_api::StoppingCriterion;
use epg_engine_api::{AlgorithmResult, Convergence, Dir, RunLog, RunOutput, RunParams};
use epg_graph::{Csr, VertexId};
use epg_parallel::{DisjointWriter, PerWorker, Schedule};

/// Damping factor shared by all engines.
pub const DAMPING: f64 = 0.85;

/// Runs PageRank: each iteration computes every vertex's outgoing
/// contribution, then pulls them across in-edges while summing the L1
/// change that decides convergence (default ε = 6e-8; overridable through
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
    rec.alloc_hwm("gap.pr.scores+contrib", n as u64 * 16);

    let sinks: Vec<VertexId> = (0..n as VertexId).filter(|&v| g.out_degree(v) == 0).collect();
    let mut scores = vec![1.0 / n as f64; n];
    let mut contrib = vec![0.0f64; n];
    let base = (1.0 - DAMPING) / n as f64;
    let m = g.num_edges() as u64;
    let max_in_deg = (0..n as VertexId).map(|v| gt.out_degree(v)).max().unwrap_or(0) as u64;
    // The (L1 change, f32-changed count) partials, kept for the run.
    let mut error: PerWorker<Option<(f64, u64)>> = PerWorker::new(pool.num_threads(), || None);

    let mut iterations = 0u32;
    loop {
        iterations += 1;
        let sink_mass: f64 = sinks.iter().map(|&v| scores[v as usize]).sum::<f64>() / n as f64;
        {
            let w = DisjointWriter::new(&mut contrib);
            let scores = &scores;
            pool.parallel_for_ranges(n, Schedule::Static { chunk: None }, |_tid, lo, hi| {
                // SAFETY: the schedule hands out disjoint ranges, and
                // `hi <= n == contrib.len()`.
                let out = unsafe { w.range_mut(lo, hi) };
                for (v, c) in (lo..hi).zip(out) {
                    // A sink's quotient is never read: no in-edge leaves it.
                    *c = scores[v] / g.out_degree(v as VertexId) as f64;
                }
            });
        }
        let (l1, changed) = {
            let w = DisjointWriter::new(&mut scores);
            let contrib = &contrib;
            let pull = |lo: usize, hi: usize| {
                // SAFETY: the schedule hands out disjoint ranges, and
                // `hi <= n == scores.len()`.
                let out = unsafe { w.range_mut(lo, hi) };
                let mut part = (0.0, 0);
                for (v, score) in (lo..hi).zip(out) {
                    let incoming: f64 =
                        gt.neighbors(v as VertexId).iter().map(|&u| contrib[u as usize]).sum();
                    let old = std::mem::replace(score, base + DAMPING * (incoming + sink_mass));
                    part = Convergence::add(part, Convergence::delta(old, *score));
                }
                part
            };
            error.reduce_ranges(
                pool,
                n,
                Schedule::gap_default(),
                || (0.0, 0),
                pull,
                Convergence::add,
            )
        };
        log.counters.edges_traversed += m;
        log.counters.vertices_touched += n as u64;
        log.parallel(n as u64, 1, n as u64 * 16); // contributions
        log.parallel(m.max(1), max_in_deg.max(1), m * 12 + n as u64 * 16);
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
    log.finish(AlgorithmResult::Ranks { ranks: scores, iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::RunParams;
    use epg_generator::kronecker::{self, KroneckerConfig};
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

    /// The per-edge loop: `next[v] = base + d·(Σ rank[u] / deg[u] + sink)`
    /// over `v`'s in-neighbours in order, then the L1 change and the
    /// `f32`-changed count measured from `rank` to `next`, until `stopping`
    /// holds or `max_iterations` pass.
    fn reference(
        g: &Csr,
        gt: &Csr,
        stopping: StoppingCriterion,
        max_iterations: u32,
    ) -> (Vec<f64>, u32) {
        let n = g.num_vertices();
        let deg = |u: VertexId| g.out_degree(u) as u32 as f64;
        let base = (1.0 - DAMPING) / n as f64;
        let mut rank = vec![1.0 / n as f64; n];
        let mut iterations = 0;
        loop {
            iterations += 1;
            let sink: f64 = (0..n as VertexId)
                .filter(|&v| g.out_degree(v) == 0)
                .map(|v| rank[v as usize])
                .sum::<f64>()
                / n as f64;
            let next: Vec<f64> = (0..n as VertexId)
                .map(|v| {
                    let incoming: f64 =
                        gt.neighbors(v).iter().map(|&u| rank[u as usize] / deg(u)).sum();
                    base + DAMPING * (incoming + sink)
                })
                .collect();
            let l1 = (0..n).fold(0.0, |acc, v| acc + (rank[v] - next[v]).abs());
            let changed = (0..n).filter(|&v| rank[v] as f32 != next[v] as f32).count() as u64;
            rank = next;
            if stopping.is_converged(l1, changed) || iterations >= max_iterations {
                return (rank, iterations);
            }
        }
    }

    fn bits(ranks: &[f64]) -> Vec<u64> {
        ranks.iter().map(|r| r.to_bits()).collect()
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
    fn ranks_are_bit_identical_to_the_per_edge_loop() {
        let uniform = epg_generator::uniform::generate(400, 1200, false, 11);
        let kron = kronecker::generate(
            &KroneckerConfig { scale: 10, edge_factor: 8, weighted: true, ..Default::default() },
            5,
        );
        for el in [&uniform, &kron] {
            let g = Csr::from_edge_list(el);
            let gt = g.transpose();
            assert!((0..g.num_vertices()).any(|v| g.out_degree(v as VertexId) == 0), "no sinks");
            let never = StoppingCriterion::L1Norm(0.0);
            let (want, _) = reference(&g, &gt, never, 12);
            for threads in [1, 2, 3] {
                let pool = ThreadPool::new(threads);
                let mut params = RunParams::new(&pool, None);
                params.stopping = Some(never);
                params.max_iterations = 12;
                let AlgorithmResult::Ranks { ranks, iterations } =
                    pagerank(&g, &gt, &params).result
                else {
                    panic!()
                };
                assert_eq!(iterations, 12);
                assert_eq!(bits(&ranks), bits(&want), "{threads} threads, n = {}", el.num_vertices);
            }
        }
    }

    #[test]
    fn each_iteration_is_two_regions() {
        let el = epg_generator::uniform::generate(300, 2400, false, 4);
        let g = Csr::from_edge_list(&el);
        let gt = g.transpose();
        let pool = ThreadPool::new(2);
        for k in [1, 5, 9] {
            let mut params = RunParams::new(&pool, None);
            params.stopping = Some(StoppingCriterion::L1Norm(0.0));
            params.max_iterations = k;
            let before = pool.stats().regions;
            pagerank(&g, &gt, &params);
            assert_eq!(pool.stats().regions - before, 2 * k as u64, "{k} iterations");
        }
    }

    #[test]
    fn fused_changed_count_stops_where_the_separate_measure_does() {
        let el = epg_generator::uniform::generate(200, 1600, false, 8);
        let g = Csr::from_edge_list(&el);
        let (want, want_iters) = reference(&g, &g.transpose(), StoppingCriterion::NoChange, 300);
        let (ranks, iters) = run(&el, Some(StoppingCriterion::NoChange));
        assert!(want_iters < 300, "NoChange never held");
        assert_eq!(iters, want_iters);
        assert_eq!(bits(&ranks), bits(&want));
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
