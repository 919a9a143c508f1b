//! Local clustering coefficient (the kernel behind Table I's four-digit
//! runtimes on the dense dota-league graph — neighborhood intersection is
//! quadratic in degree, and dota's average degree is 824).

use epg_engine_api::triangles::{close_wedges, vertex_sets};
use epg_engine_api::{AlgorithmResult, Dir, RunLog, RunOutput, RunParams};
use epg_graph::adjacency::PropertyGraph;
use epg_graph::VertexId;
use epg_parallel::Schedule;

/// Computes the Graphalytics local clustering coefficient per vertex:
/// over the undirected neighborhood `N(v)`, the fraction of *directed*
/// edges present among neighbors out of `d(d-1)`.
pub fn lcc(g: &PropertyGraph, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let n = g.num_vertices();
    let mut log = RunLog::new(params.recorder);

    // Pass 1: each vertex's undirected neighbourhood and out-list from
    // its property-graph edge lists, without itself.
    let mut nbrs: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut outs: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let sched = Schedule::graphbig_default();
    let prep_work = vertex_sets(pool, sched, [&mut nbrs, &mut outs], |v, [nb, out]| {
        *out = g.neighbors(v).map(|(t, _)| t).collect();
        *nb = out.clone();
        nb.extend(g.in_neighbors(v));
        nb.retain(|&u| u != v);
        out.retain(|&u| u != v);
    });
    log.parallel(prep_work.max(1), 1, prep_work * 8);

    // Pass 2: count directed edges among each neighborhood.
    let lcc = close_wedges(pool, &nbrs, |u| &outs[u as usize]);
    log.counters.edges_traversed = lcc.work;
    log.counters.vertices_touched = n as u64;
    log.counters.iterations = 1;
    log.counters.bytes_read = lcc.work * 8;
    log.counters.bytes_written = n as u64 * 8;
    log.parallel(lcc.work.max(1), lcc.max_cost.max(1), lcc.work * 8);
    // One pass over every vertex; the poll makes the run reapable.
    let _ = log.iteration(pool, 1, n as u64, Dir::Pull);
    log.finish(AlgorithmResult::Coefficients(lcc.answer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, Csr, EdgeList};
    use epg_parallel::ThreadPool;

    fn check(el: &EdgeList) {
        let g = PropertyGraph::from_edge_list(el);
        let pool = ThreadPool::new(3);
        let out = lcc(&g, &RunParams::new(&pool, None));
        let AlgorithmResult::Coefficients(c) = out.result else { panic!() };
        let want = oracle::lcc(&Csr::from_edge_list(el));
        for v in 0..want.len() {
            assert!((c[v] - want[v]).abs() < 1e-12, "vertex {v}: {} vs {}", c[v], want[v]);
        }
    }

    #[test]
    fn triangle_and_square() {
        check(&EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0)]).symmetrized());
        check(&EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]).symmetrized());
    }

    #[test]
    fn directed_asymmetric_case() {
        check(&EdgeList::new(3, vec![(0, 1), (1, 0), (0, 2), (2, 0), (1, 2)]));
    }

    #[test]
    fn with_self_loops_and_duplicates() {
        check(&EdgeList::new(4, vec![(0, 0), (0, 1), (0, 1), (1, 2), (2, 0), (1, 1)]));
    }

    #[test]
    fn random_graph_matches() {
        check(&epg_generator::uniform::generate(80, 600, false, 9));
    }

    #[test]
    fn work_scales_quadratically_with_density() {
        let sparse = epg_generator::uniform::generate(200, 800, false, 1);
        let dense = epg_generator::uniform::generate(200, 8000, false, 1);
        let pool = ThreadPool::new(2);
        let work = |el| {
            let g = PropertyGraph::from_edge_list(el);
            lcc(&g, &RunParams::new(&pool, None)).counters.edges_traversed
        };
        let (ws, wd) = (work(&sparse), work(&dense));
        assert!(wd > 20 * ws, "dense work {wd} vs sparse {ws}");
    }
}
