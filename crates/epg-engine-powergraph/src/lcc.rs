//! LCC over the vertex-cut partitioning.
//!
//! PowerGraph's clustering-coefficient toolkit runs two passes: gather each
//! vertex's neighbor-id set (merged across partitions — the replication
//! cost again), then count closures by set intersection.

use crate::partition::PartitionedGraph;
use epg_engine_api::{AlgorithmResult, Dir, Found, RunLog, RunOutput, RunParams};
use epg_graph::VertexId;
use epg_parallel::{DisjointWriter, PerWorker, Schedule};

/// Computes per-vertex local clustering coefficients.
pub fn lcc(g: &PartitionedGraph, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let n = g.num_vertices;
    let mut log = RunLog::new(params.recorder);

    // Pass 1: per-partition neighbor sets, merged per vertex at masters
    // into the undirected neighborhood and the out-neighbors.
    let mut nbrs: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut outs: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let gather_work = gather_neighbors(g, params, |v, ob, ib| {
        nbrs[v as usize].extend_from_slice(ob);
        nbrs[v as usize].extend_from_slice(ib);
        outs[v as usize].extend_from_slice(ob);
    });
    // Finalize sets (sort/dedup/exclude self) in parallel; each index is
    // owned by exactly one thread, so in-place mutation through the writer
    // is race-free.
    {
        let nw = DisjointWriter::new(&mut nbrs);
        let ow = DisjointWriter::new(&mut outs);
        pool.parallel_for_ranges(n, Schedule::Guided { min_chunk: 64 }, |_t, lo, hi| {
            for v in lo..hi {
                let vid = v as VertexId;
                let finalize = |mut set: Vec<VertexId>| {
                    set.retain(|&u| u != vid);
                    set.sort_unstable();
                    set.dedup();
                    set
                };
                // SAFETY: one writer per index per region; the values being
                // replaced were populated before the region started.
                unsafe {
                    nw.write(v, finalize(std::mem::take(nw.get_raw(v))));
                    ow.write(v, finalize(std::mem::take(ow.get_raw(v))));
                }
            }
        });
    }
    log.parallel(gather_work.max(1), 1, gather_work * 16);
    log.serial(n as u64, n as u64 * 8);
    log.counters.edges_traversed = gather_work;
    log.counters.iterations = 1;
    // Two supersteps, two reports. A tripped token needs no early exit:
    // the pool abandons the second pass's chunks and its report says so.
    let _ = log.iteration(pool, 1, n as u64, Dir::Push);

    // Pass 2: closure counting by intersection, parallel over vertices.
    let mut out = vec![0.0f64; n];
    let w = DisjointWriter::new(&mut out);
    let (nbrs, outs) = (&nbrs, &outs);
    let close_wedges = |lo: usize, hi: usize| {
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
                cost += (outs[u as usize].len() + d) as u64;
                tri += intersect(&outs[u as usize], nb);
            }
            work += cost;
            max_cost = max_cost.max(cost);
            // SAFETY: one writer per index.
            unsafe { w.write(v, tri as f64 / (d as f64 * (d - 1) as f64)) };
        }
        (work, max_cost)
    };
    let (work, max_cost) = pool.parallel_reduce_ranges(
        n,
        Schedule::Dynamic { chunk: 16 },
        || (0, 0),
        close_wedges,
        |a, b| (a.0 + b.0, a.1.max(b.1)),
    );
    log.counters.edges_traversed += work;
    log.counters.vertices_touched = n as u64;
    log.counters.iterations = 2; // two supersteps
    log.counters.bytes_read = work * 8;
    log.counters.bytes_written = n as u64 * 8;
    log.parallel(work.max(1), max_cost.max(1), work * 8);
    let _ = log.iteration(pool, 2, n as u64, Dir::Pull);
    log.finish(AlgorithmResult::Coefficients(out))
}

/// Pass 1 of both toolkits, one parallel region: every partition copies
/// its local vertices' neighbor ids out of its CSR/CSC into one flat
/// partial (local-id order; per vertex its out-neighbors, then its
/// in-neighbors), and the masters then hand each vertex's share of every
/// partial to `merge(v, out_neighbors, in_neighbors)`. Returns the edges
/// read.
fn gather_neighbors(
    g: &PartitionedGraph,
    params: &RunParams<'_>,
    mut merge: impl FnMut(VertexId, &[VertexId], &[VertexId]),
) -> u64 {
    let pool = params.pool;
    let mut found = PerWorker::new(pool.num_threads(), Found::default);
    found.for_ranges(pool, g.partitions.len(), PER_PARTITION, |mine, lo, hi| {
        for pi in lo..hi {
            let part = &g.partitions[pi];
            let mut nb: Vec<VertexId> = Vec::with_capacity(2 * part.num_edges());
            for l in 0..part.vertices().len() {
                nb.extend(part.out_edges(l).iter().chain(part.in_edges(l)).map(|&(u, _)| u));
            }
            mine.edges += nb.len() as u64;
            mine.list.push((pi, nb));
        }
    });
    let mut gathered = Vec::new();
    let (edges, _) = Found::drain(&mut found, &mut gathered);
    for (pi, nb) in &gathered {
        let part = &g.partitions[*pi];
        let mut rest = nb.as_slice();
        for (l, &v) in part.vertices().iter().enumerate() {
            let (ob, tail) = rest.split_at(part.out_edges(l).len());
            let (ib, tail) = tail.split_at(part.in_edges(l).len());
            merge(v, ob, ib);
            rest = tail;
        }
    }
    edges
}

/// One partition per chunk: partitions are few and uneven.
const PER_PARTITION: Schedule = Schedule::Dynamic { chunk: 1 };

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
    use epg_graph::{oracle, Csr, EdgeList};
    use epg_parallel::ThreadPool;

    #[test]
    fn matches_oracle_on_random_directed_graph() {
        let el = epg_generator::uniform::generate(70, 500, false, 17).deduplicated();
        let pool = ThreadPool::new(3);
        let g = PartitionedGraph::build(&el, 4, &pool);
        let out = lcc(&g, &RunParams::new(&pool, None));
        let AlgorithmResult::Coefficients(c) = out.result else { panic!() };
        let want = oracle::lcc(&Csr::from_edge_list(&el));
        for v in 0..want.len() {
            assert!((c[v] - want[v]).abs() < 1e-12, "vertex {v}: {} vs {}", c[v], want[v]);
        }
    }

    #[test]
    fn triangle_is_one_across_partitions() {
        let el = EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0)]).symmetrized();
        let pool = ThreadPool::new(2);
        let g = PartitionedGraph::build(&el, 3, &pool);
        let out = lcc(&g, &RunParams::new(&pool, None));
        let AlgorithmResult::Coefficients(c) = out.result else { panic!() };
        assert!(c.iter().all(|&x| (x - 1.0).abs() < 1e-12), "{c:?}");
    }
}

/// Global triangle count (§V extension): the PowerGraph
/// `undirected_triangle_count` toolkit — gather per-partition neighbor
/// sets, merge at masters, then count by ordered intersection.
pub fn triangle_count(g: &PartitionedGraph, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let n = g.num_vertices;
    let mut log = RunLog::new(params.recorder);
    // Phase 1: merged undirected neighbor sets (replication cost charged).
    let mut higher: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let gather_work = gather_neighbors(g, params, |v, ob, ib| {
        higher[v as usize].extend_from_slice(ob);
        higher[v as usize].extend_from_slice(ib);
    });
    {
        let w = DisjointWriter::new(&mut higher);
        pool.parallel_for_ranges(n, Schedule::Guided { min_chunk: 64 }, |_t, lo, hi| {
            for v in lo..hi {
                let vid = v as VertexId;
                // SAFETY: one writer per index.
                unsafe {
                    let set = w.get_raw(v);
                    set.retain(|&u| u > vid);
                    set.sort_unstable();
                    set.dedup();
                }
            }
        });
    }
    log.parallel(gather_work.max(1), 1, gather_work * 16);
    log.serial(n as u64, n as u64 * 8);
    log.counters.edges_traversed = gather_work;
    log.counters.iterations = 1;
    let _ = log.iteration(pool, 1, n as u64, Dir::Push);

    // Phase 2: count.
    let higher = &higher;
    let count = |lo: usize, hi: usize| {
        let (mut total, mut work) = (0u64, 0u64);
        for u in lo..hi {
            let hu = &higher[u];
            for &v in hu {
                work += (hu.len() + higher[v as usize].len()) as u64;
                total += intersect(hu, &higher[v as usize]);
            }
        }
        (total, work)
    };
    let sched = Schedule::Dynamic { chunk: 32 };
    let (total, work) =
        pool.parallel_reduce_ranges(n, sched, || (0, 0), count, |a, b| (a.0 + b.0, a.1 + b.1));
    log.counters.edges_traversed += work;
    log.counters.vertices_touched = n as u64;
    log.counters.iterations = 2;
    log.counters.bytes_read = work * 8;
    log.parallel(work.max(1), 1, work * 8);
    let _ = log.iteration(pool, 2, n as u64, Dir::Pull);
    log.finish(AlgorithmResult::Triangles(total))
}

#[cfg(test)]
mod tc_tests {
    use super::*;
    use epg_graph::{oracle, Csr};
    use epg_parallel::ThreadPool;

    #[test]
    fn tc_matches_oracle_across_partitions() {
        let el = epg_generator::uniform::generate(140, 1800, false, 15);
        let pool = ThreadPool::new(3);
        let g = PartitionedGraph::build(&el, 6, &pool);
        let out = triangle_count(&g, &RunParams::new(&pool, None));
        let AlgorithmResult::Triangles(t) = out.result else { panic!() };
        assert_eq!(t, oracle::triangle_count(&Csr::from_edge_list(&el)));
    }
}
