//! Local clustering coefficient (the kernel behind Table I's four-digit
//! runtimes on the dense dota-league graph — neighborhood intersection is
//! quadratic in degree, and dota's average degree is 824).

use epg_engine_api::{AlgorithmResult, Dir, RunLog, RunOutput, RunParams};
use epg_graph::adjacency::PropertyGraph;
use epg_graph::VertexId;
use epg_parallel::{DisjointWriter, Schedule};

/// Computes the Graphalytics local clustering coefficient per vertex:
/// over the undirected neighborhood `N(v)`, the fraction of *directed*
/// edges present among neighbors out of `d(d-1)`.
pub fn lcc(g: &PropertyGraph, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let n = g.num_vertices();
    let mut log = RunLog::new(params.recorder);

    // Pass 1 (parallel): sorted, deduplicated out-lists and undirected
    // neighborhoods. Using per-range local buffers then writing into the
    // per-vertex slots (single writer per index).
    let mut out_sorted: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut nbrs: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    {
        let ow = DisjointWriter::new(&mut out_sorted);
        let nw = DisjointWriter::new(&mut nbrs);
        pool.parallel_for_ranges(n, Schedule::graphbig_default(), |_tid, lo, hi| {
            for v in lo..hi {
                let vid = v as VertexId;
                let mut o: Vec<VertexId> = g.neighbors(vid).map(|(t, _)| t).collect();
                o.sort_unstable();
                o.dedup();
                let mut nb: Vec<VertexId> = o.clone();
                nb.extend(g.in_neighbors(vid));
                nb.retain(|&u| u != vid);
                nb.sort_unstable();
                nb.dedup();
                o.retain(|&u| u != vid);
                // SAFETY: ranges are disjoint — single writer per index
                // per region, `v < n`.
                unsafe {
                    ow.write_unchecked(v, o);
                    nw.write_unchecked(v, nb);
                }
            }
        });
    }
    let prep_work: u64 = (0..n).map(|v| nbrs[v].len() as u64 + 1).sum();
    log.parallel(prep_work.max(1), 1, prep_work * 8);

    // Pass 2 (parallel, dynamic — degree skew makes this highly irregular):
    // count directed edges among each neighborhood.
    let mut out = vec![0.0f64; n];
    let (work, max_cost) = {
        let writer = DisjointWriter::new(&mut out);
        let out_sorted = &out_sorted;
        let nbrs = &nbrs;
        pool.parallel_reduce_ranges(
            n,
            Schedule::Dynamic { chunk: 16 },
            || (0u64, 0u64),
            |lo, hi| {
                let (mut work, mut max_cost) = (0u64, 0u64);
                for v in lo..hi {
                    let nb = &nbrs[v];
                    let d = nb.len();
                    if d < 2 {
                        continue;
                    }
                    let mut tri = 0u64;
                    let mut cost = 0u64;
                    for &u in nb {
                        let a = &out_sorted[u as usize];
                        cost += (a.len() + d) as u64;
                        tri += sorted_intersection_count(a, nb, u);
                    }
                    work += cost;
                    max_cost = max_cost.max(cost);
                    // SAFETY: dynamic chunks are disjoint — single writer per
                    // index per region, `v < n`.
                    unsafe { writer.write_unchecked(v, tri as f64 / (d as f64 * (d - 1) as f64)) };
                }
                (work, max_cost)
            },
            |a, b| (a.0 + b.0, a.1.max(b.1)),
        )
    };
    log.counters.edges_traversed = work;
    log.counters.vertices_touched = n as u64;
    log.counters.iterations = 1;
    log.counters.bytes_read = work * 8;
    log.counters.bytes_written = n as u64 * 8;
    log.parallel(work.max(1), max_cost.max(1), work * 8);
    // One pass over every vertex; the poll makes the run reapable.
    let _ = log.iteration(pool, 1, n as u64, Dir::Pull);
    log.finish(AlgorithmResult::Coefficients(out))
}

/// Counts `|a ∩ b|` over sorted slices, skipping `exclude` in `a` (a
/// neighbor's self-loops do not close wedges).
fn sorted_intersection_count(a: &[VertexId], b: &[VertexId], exclude: VertexId) -> u64 {
    let (mut i, mut j, mut c) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        if a[i] == exclude {
            i += 1;
            continue;
        }
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
