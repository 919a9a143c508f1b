//! Triangle counting, GAP-style (§V extension).
//!
//! GAP's `tc` benchmark orders vertices, keeps only higher-numbered
//! neighbors, and counts each triangle once by sorted intersection —
//! work-efficient and embarrassingly parallel over vertices.

use epg_engine_api::triangles::{count_ordered, vertex_sets};
use epg_engine_api::{AlgorithmResult, Dir, RunLog, RunOutput, RunParams};
use epg_graph::{Csr, VertexId};
use epg_parallel::Schedule;

/// Counts triangles in the undirected simple version of the graph.
pub fn triangle_count(g: &Csr, gt: &Csr, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let n = g.num_vertices();
    let mut log = RunLog::new(params.recorder);

    // Higher-neighbour sets from the CSR pair.
    let mut higher: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let build_work =
        vertex_sets(pool, Schedule::Guided { min_chunk: 64 }, [&mut higher], |v, [set]| {
            *set =
                g.neighbors(v).iter().chain(gt.neighbors(v)).copied().filter(|&u| u > v).collect();
        });
    log.parallel(build_work.max(1), 1, build_work * 8);

    let tc = count_ordered(pool, &higher);
    log.counters.edges_traversed = tc.work + build_work;
    log.counters.vertices_touched = n as u64;
    log.counters.iterations = 1;
    log.counters.bytes_read = tc.work * 8;
    log.counters.bytes_written = n as u64 * 8;
    log.parallel(tc.work.max(1), tc.max_cost.max(1), tc.work * 8);
    let _ = log.iteration(pool, 1, n as u64, Dir::Pull);
    log.finish(AlgorithmResult::Triangles(tc.answer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, EdgeList};
    use epg_parallel::ThreadPool;

    fn count(el: &EdgeList) -> u64 {
        let g = Csr::from_edge_list(el);
        let gt = g.transpose();
        let pool = ThreadPool::new(3);
        let out = triangle_count(&g, &gt, &RunParams::new(&pool, None));
        let AlgorithmResult::Triangles(t) = out.result else { panic!() };
        t
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..4 {
            let el = epg_generator::uniform::generate(150, 2000, false, seed);
            assert_eq!(
                count(&el),
                oracle::triangle_count(&Csr::from_edge_list(&el)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn kronecker_has_many_triangles() {
        let el = epg_generator::kronecker::generate(
            &epg_generator::kronecker::KroneckerConfig {
                scale: 9,
                edge_factor: 16,
                ..Default::default()
            },
            5,
        );
        let t = count(&el);
        assert!(t > 1000, "Kronecker should be triangle-rich, got {t}");
        assert_eq!(t, oracle::triangle_count(&Csr::from_edge_list(&el)));
    }

    #[test]
    fn triangle_free_bipartite_graph() {
        // Complete bipartite K3,3: no odd cycles.
        let mut edges = Vec::new();
        for u in 0..3u32 {
            for v in 3..6u32 {
                edges.push((u, v));
            }
        }
        assert_eq!(count(&EdgeList::new(6, edges).symmetrized()), 0);
    }
}
