//! LCC as a two-phase matrix kernel: neighborhood extraction from the DCSC
//! columns, then masked intersection counting (GraphMat expresses this as a
//! sequence of matrix products; the dominant cost — per-wedge intersection
//! work — is identical).

use epg_engine_api::triangles::{close_wedges, count_ordered, vertex_sets};
use epg_engine_api::{AlgorithmResult, Dir, RunLog, RunOutput, RunParams};
use epg_graph::{Dcsc, VertexId};
use epg_parallel::Schedule;

/// Computes the Graphalytics local clustering coefficient per vertex.
pub fn lcc(a: &Dcsc, at: &Dcsc, n: usize, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let mut log = RunLog::new(params.recorder);

    // Phase 1: undirected neighborhoods (columns of A merged with Aᵀ).
    let mut nbrs: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let prep = vertex_sets(pool, Schedule::Guided { min_chunk: 32 }, [&mut nbrs], |v, [nb]| {
        *nb = a.column(v).to_vec();
        nb.extend_from_slice(at.column(v));
        nb.retain(|&u| u != v);
    });
    log.parallel(prep.max(1), 1, prep * 8);

    // Phase 2: wedge closure counting over the columns of A, which keep
    // their self-loops.
    let lcc = close_wedges(pool, &nbrs, |u| a.column(u));
    log.counters.edges_traversed = lcc.work;
    log.counters.vertices_touched = n as u64;
    log.counters.iterations = 1;
    log.counters.bytes_read = lcc.work * 8;
    log.counters.bytes_written = n as u64 * 8;
    log.parallel(lcc.work.max(1), lcc.max_cost.max(1), lcc.work * 8);
    let _ = log.iteration(pool, 1, n as u64, Dir::Pull);
    log.finish(AlgorithmResult::Coefficients(lcc.answer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, Csr, EdgeList};
    use epg_parallel::ThreadPool;

    #[test]
    fn triangle_is_one() {
        let el = EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0)]).symmetrized();
        let pool = ThreadPool::new(2);
        let a = Dcsc::from_edge_list(&el, &pool);
        let at = a.transpose(&pool);
        let out = lcc(&a, &at, 3, &RunParams::new(&pool, None));
        let AlgorithmResult::Coefficients(c) = out.result else { panic!() };
        assert!(c.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn directed_graph_matches_oracle() {
        let el = epg_generator::uniform::generate(60, 500, false, 11).deduplicated();
        let pool = ThreadPool::new(3);
        let a = Dcsc::from_edge_list(&el, &pool);
        let at = a.transpose(&pool);
        let out = lcc(&a, &at, el.num_vertices, &RunParams::new(&pool, None));
        let AlgorithmResult::Coefficients(c) = out.result else { panic!() };
        let want = oracle::lcc(&Csr::from_edge_list(&el));
        for v in 0..want.len() {
            assert!((c[v] - want[v]).abs() < 1e-12, "vertex {v}: {} vs {}", c[v], want[v]);
        }
    }
}

/// Global triangle count (§V extension): GraphMat's TC program — the same
/// ordered-intersection structure as LCC restricted to higher-numbered
/// neighborhoods, counting each triangle once.
pub fn triangle_count(a: &Dcsc, at: &Dcsc, n: usize, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let mut log = RunLog::new(params.recorder);
    let mut higher: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    vertex_sets(pool, Schedule::Guided { min_chunk: 32 }, [&mut higher], |v, [set]| {
        *set = a.column(v).iter().chain(at.column(v)).copied().filter(|&u| u > v).collect();
    });
    let tc = count_ordered(pool, &higher);
    log.counters.edges_traversed = tc.work;
    log.counters.vertices_touched = n as u64;
    log.counters.iterations = 1;
    log.counters.bytes_read = tc.work * 8;
    log.parallel(tc.work.max(1), 1, tc.work * 8);
    // The final global reduction is a (tiny) serial step in GraphMat.
    log.serial(1, 8);
    let _ = log.iteration(pool, 1, n as u64, Dir::Pull);
    log.finish(AlgorithmResult::Triangles(tc.answer))
}

#[cfg(test)]
mod tc_tests {
    use super::*;
    use epg_graph::{oracle, Csr};
    use epg_parallel::ThreadPool;

    #[test]
    fn tc_matches_oracle() {
        let el = epg_generator::uniform::generate(130, 1700, false, 12);
        let pool = ThreadPool::new(3);
        let a = Dcsc::from_edge_list(&el, &pool);
        let at = a.transpose(&pool);
        let out = triangle_count(&a, &at, el.num_vertices, &RunParams::new(&pool, None));
        let AlgorithmResult::Triangles(t) = out.result else { panic!() };
        assert_eq!(t, oracle::triangle_count(&Csr::from_edge_list(&el)));
    }
}
