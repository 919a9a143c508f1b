//! Triangle counting, GAP-style (§V extension).
//!
//! GAP's `tc` benchmark orders vertices, keeps only higher-numbered
//! neighbors, and counts each triangle once by sorted intersection —
//! work-efficient and embarrassingly parallel over vertices.

use epg_engine_api::{AlgorithmResult, Dir, RunLog, RunOutput, RunParams};
use epg_graph::{Csr, VertexId};
use epg_parallel::{DisjointWriter, Schedule};

/// Counts triangles in the undirected simple version of the graph.
pub fn triangle_count(g: &Csr, gt: &Csr, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let n = g.num_vertices();
    let mut log = RunLog::new(params.recorder);

    // Build higher-neighbor lists in parallel.
    let mut higher: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    {
        let w = DisjointWriter::new(&mut higher);
        pool.parallel_for_ranges(n, Schedule::Guided { min_chunk: 64 }, |_tid, lo, hi| {
            for v in lo..hi {
                let vid = v as VertexId;
                let mut set: Vec<VertexId> = g
                    .neighbors(vid)
                    .iter()
                    .chain(gt.neighbors(vid))
                    .copied()
                    .filter(|&u| u > vid)
                    .collect();
                set.sort_unstable();
                set.dedup();
                // SAFETY: single writer per index.
                unsafe { w.write(v, set) };
            }
        });
    }
    let build_work: u64 = higher.iter().map(|h| h.len() as u64 + 1).sum();
    log.parallel(build_work.max(1), 1, build_work * 8);

    // Count by intersection, dynamic schedule for degree skew.
    let higher = &higher;
    let count = |lo: usize, hi: usize| {
        let (mut total, mut work, mut max_cost) = (0u64, 0u64, 0u64);
        for u in lo..hi {
            let hu = &higher[u];
            let mut cost = 0u64;
            for &v in hu {
                cost += (hu.len() + higher[v as usize].len()) as u64;
                total += intersect(hu, &higher[v as usize]);
            }
            work += cost;
            max_cost = max_cost.max(cost);
        }
        (total, work, max_cost)
    };
    let (total, work, max_cost) = pool.parallel_reduce_ranges(
        n,
        Schedule::Dynamic { chunk: 32 },
        || (0, 0, 0),
        count,
        |a, b| (a.0 + b.0, a.1 + b.1, a.2.max(b.2)),
    );
    log.counters.edges_traversed = work + build_work;
    log.counters.vertices_touched = n as u64;
    log.counters.iterations = 1;
    log.counters.bytes_read = work * 8;
    log.counters.bytes_written = n as u64 * 8;
    log.parallel(work.max(1), max_cost.max(1), work * 8);
    let _ = log.iteration(pool, 1, n as u64, Dir::Pull);
    log.finish(AlgorithmResult::Triangles(total))
}

fn intersect(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut c) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
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
