//! §V extension kernels for GraphBIG: betweenness centrality (its `kBC`
//! workload) and triangle counting (its `TC` workload), vertex-centric
//! over the openG property graph with dynamic scheduling.

use epg_engine_api::triangles::{count_ordered, vertex_sets};
use epg_engine_api::{AlgorithmResult, Dir, Found, RunLog, RunOutput, RunParams};
use epg_graph::adjacency::PropertyGraph;
use epg_graph::VertexId;
use epg_parallel::{AtomicF64, PerWorker, Schedule};
use std::sync::atomic::{AtomicI64, Ordering};

/// Brandes betweenness centrality from [`RunParams::bc_source_list`]'s
/// sources: every vertex, or the sampled ones every engine shares.
pub fn betweenness(g: &PropertyGraph, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let n = g.num_vertices();
    let mut log = RunLog::new(params.recorder);
    let mut bc = vec![0.0f64; n];
    if n == 0 {
        return log.finish(AlgorithmResult::Centrality(bc));
    }
    let source_list = params.bc_source_list(n);
    let scale = n as f64 / source_list.len() as f64;

    let sigma: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    let dist: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(-1)).collect();
    let delta: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    let mut found = PerWorker::new(pool.num_threads(), Found::default);
    // A source's BFS levels, at most n vertices: level d is `order[starts[d]..starts[d + 1]]`.
    let (mut order, mut starts) = (Vec::with_capacity(n), Vec::new());
    for &s in &source_list {
        pool.parallel_for(n, Schedule::graphbig_default(), |v| {
            sigma[v].store(0.0, Ordering::Relaxed);
            dist[v].store(-1, Ordering::Relaxed);
            delta[v].store(0.0, Ordering::Relaxed);
        });
        sigma[s as usize].store(1.0, Ordering::Relaxed);
        dist[s as usize].store(0, Ordering::Relaxed);

        order.clear();
        order.push(s);
        starts.clear();
        starts.push(0);
        while starts[starts.len() - 1] < order.len() {
            let depth = starts.len() as i64 - 1;
            let frontier = &order[starts[starts.len() - 1]..];
            found.for_ranges(pool, frontier.len(), Schedule::graphbig_default(), |mine, lo, hi| {
                for &u in &frontier[lo..hi] {
                    let su = sigma[u as usize].load(Ordering::Relaxed);
                    for (v, _) in g.neighbors(u) {
                        mine.edges += 1;
                        if dist[v as usize].load(Ordering::Relaxed) < 0
                            && dist[v as usize]
                                .compare_exchange(
                                    -1,
                                    depth + 1,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                        {
                            mine.list.push(v);
                        }
                        if dist[v as usize].load(Ordering::Relaxed) == depth + 1 {
                            sigma[v as usize].fetch_add(su, Ordering::Relaxed);
                        }
                    }
                }
            });
            starts.push(order.len());
            let (edges, _) = Found::drain(&mut found, &mut order);
            log.counters.edges_traversed += edges;
            log.parallel(edges.max(1), 1, 1);
        }
        for d in (0..starts.len() - 1).rev() {
            let level = &order[starts[d]..starts[d + 1]];
            let d = d as i64;
            // Writes touch only level-d vertices (one worker each); reads
            // touch only level-(d+1) vertices, finalized by the previous
            // pass. Atomic cells keep the shared reads sound.
            pool.parallel_for_ranges(level.len(), Schedule::graphbig_default(), |_tid, lo, hi| {
                for &w in &level[lo..hi] {
                    let mut acc = 0.0;
                    let sw = sigma[w as usize].load(Ordering::Relaxed);
                    for (v, _) in g.neighbors(w) {
                        if dist[v as usize].load(Ordering::Relaxed) == d + 1 {
                            let dv = delta[v as usize].load(Ordering::Relaxed);
                            acc += sw / sigma[v as usize].load(Ordering::Relaxed) * (1.0 + dv);
                        }
                    }
                    delta[w as usize].store(acc, Ordering::Relaxed);
                }
            });
        }
        for (v, dv) in delta.iter().enumerate() {
            if v as VertexId != s {
                bc[v] += dv.load(Ordering::Relaxed) * scale;
            }
        }
        log.counters.iterations += 1;
        // One iteration per source: `frontier` is that source's depth.
        if log
            .iteration(pool, log.counters.iterations, (starts.len() - 1) as u64, Dir::Push)
            .is_break()
        {
            break;
        }
    }
    log.counters.vertices_touched = n as u64 * source_list.len() as u64;
    log.counters.bytes_read = log.counters.edges_traversed * 16;
    log.counters.bytes_written = log.counters.vertices_touched * 8;
    log.finish(AlgorithmResult::Centrality(bc))
}

/// Triangle counting by ordered neighbor intersection.
pub fn triangle_count(g: &PropertyGraph, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let n = g.num_vertices();
    let mut log = RunLog::new(params.recorder);
    let mut higher: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    vertex_sets(pool, Schedule::graphbig_default(), [&mut higher], |v, [set]| {
        *set = g.neighbors(v).map(|(t, _)| t).chain(g.in_neighbors(v)).filter(|&u| u > v).collect();
    });
    let tc = count_ordered(pool, &higher);
    log.counters.edges_traversed = tc.work;
    log.counters.vertices_touched = n as u64;
    log.counters.iterations = 1;
    log.counters.bytes_read = tc.work * 8;
    log.parallel(tc.work.max(1), 1, tc.work * 8);
    let _ = log.iteration(pool, 1, n as u64, Dir::Pull);
    log.finish(AlgorithmResult::Triangles(tc.answer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, Csr};
    use epg_parallel::ThreadPool;

    #[test]
    fn bc_matches_oracle() {
        let el = epg_generator::uniform::generate(90, 500, false, 6).symmetrized().deduplicated();
        let g = PropertyGraph::from_edge_list(&el);
        let pool = ThreadPool::new(3);
        let out = betweenness(&g, &RunParams::new(&pool, None));
        let AlgorithmResult::Centrality(bc) = out.result else { panic!() };
        let want = oracle::betweenness(&Csr::from_edge_list(&el), 0..el.num_vertices as VertexId);
        for v in 0..want.len() {
            assert!((bc[v] - want[v]).abs() < 1e-6 * (1.0 + want[v]), "vertex {v}");
        }
    }

    #[test]
    fn tc_matches_oracle() {
        let el = epg_generator::uniform::generate(120, 1500, false, 8);
        let g = PropertyGraph::from_edge_list(&el);
        let pool = ThreadPool::new(2);
        let out = triangle_count(&g, &RunParams::new(&pool, None));
        let AlgorithmResult::Triangles(t) = out.result else { panic!() };
        assert_eq!(t, oracle::triangle_count(&Csr::from_edge_list(&el)));
    }
}
