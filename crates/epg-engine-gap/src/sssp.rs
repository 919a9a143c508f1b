//! Δ-stepping SSSP (Meyer & Sanders), GAP-style.
//!
//! Distances advance bucket by bucket (bucket width Δ). Within a bucket,
//! *light* edges (weight ≤ Δ) are relaxed repeatedly until the bucket
//! settles; *heavy* edges are relaxed once afterwards. Relaxation uses an
//! atomic fetch-min on the distance array, exactly as GAP's OpenMP code
//! does. Δ is a tunable (§V); the `ablation_delta` bench sweeps it.

use epg_engine_api::{AlgorithmResult, Dir, Partial, RunLog, RunOutput, RunParams, SsspKernel};
use epg_graph::{Csr, VertexId, Weight, INF_DIST};
use epg_parallel::{AtomicF32, Schedule, ThreadPool};
use std::sync::atomic::Ordering;

/// [`dispatch_kernel`] with default run parameters (no telemetry sink).
pub fn run_kernel(
    kernel: SsspKernel,
    g: &Csr,
    root: VertexId,
    pool: &ThreadPool,
    delta: f32,
) -> RunOutput {
    dispatch_kernel(kernel, g, delta, &RunParams::new(pool, Some(root)))
}

/// Dispatches one SSSP run to the selected kernel of the raw-speed tier.
/// `delta` only applies to Δ-stepping; the priority-queue kernels ignore
/// it (they have no bucket width).
pub fn dispatch_kernel(
    kernel: SsspKernel,
    g: &Csr,
    delta: f32,
    params: &RunParams<'_>,
) -> RunOutput {
    match kernel {
        SsspKernel::DeltaStepping => delta_stepping(g, delta, params),
        SsspKernel::RadixHeap => crate::radix::dijkstra_radix_heap(g, params),
        SsspKernel::Bmssp => crate::bmssp::bmssp_sssp(g, params),
    }
}

/// The bucket a tentative distance falls in.
fn bucket_of(d: f32, delta: f32) -> usize {
    (d / delta) as usize
}

/// Runs Δ-stepping from `params.root`. Unweighted graphs behave as unit
/// weights.
pub fn delta_stepping(g: &Csr, delta: f32, params: &RunParams<'_>) -> RunOutput {
    assert!(delta > 0.0, "delta must be positive");
    let pool = params.pool;
    let root = params.root.expect("SSSP needs a root");
    let n = g.num_vertices();
    let dist: Vec<AtomicF32> = (0..n).map(|_| AtomicF32::new(INF_DIST)).collect();
    dist[root as usize].store(0.0, Ordering::Relaxed);

    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); 64];
    buckets[0].push(root);

    let mut log = RunLog::new(params.recorder);
    let mut settled_total = 0u64;

    // Vertices settled in the current bucket (for the heavy pass).
    let mut settled: Vec<VertexId> = Vec::new();
    let mut bi = 0usize;
    while bi < buckets.len() {
        if buckets[bi].is_empty() {
            bi += 1;
            continue;
        }
        settled.clear();
        // ---- light-edge phase: iterate until the bucket stops refilling.
        while !buckets[bi].is_empty() {
            let frontier = std::mem::take(&mut buckets[bi]);
            settled.extend_from_slice(&frontier);
            let inserts = relax_edges(g, &dist, &frontier, pool, delta, true, bi, &mut log);
            distribute(&mut buckets, inserts, bi);
        }
        // ---- heavy-edge phase over everything settled in this bucket.
        settled.sort_unstable();
        settled.dedup();
        // Drop stale entries whose distance migrated to a later bucket.
        settled.retain(|&v| bucket_of(dist[v as usize].load(Ordering::Relaxed), delta) == bi);
        settled_total += settled.len() as u64;
        if !settled.is_empty() {
            let inserts = relax_edges(g, &dist, &settled, pool, delta, false, bi, &mut log);
            distribute(&mut buckets, inserts, bi);
        }
        log.counters.iterations += 1;
        // One iteration per bucket; its frontier is what the bucket settled.
        let settled = settled.len() as u64;
        if log.iteration(pool, log.counters.iterations, settled, Dir::Push).is_break() {
            break;
        }
        bi += 1;
    }

    log.counters.vertices_touched = settled_total;
    log.counters.bytes_read = log.counters.edges_traversed * 12;
    log.counters.bytes_written = settled_total * 8;
    let out: Vec<Weight> = dist.iter().map(|d| d.load(Ordering::Relaxed)).collect();
    log.finish(AlgorithmResult::Distances(out))
}

/// Relaxes the light (`light == true`, w ≤ Δ) or heavy (w > Δ) edges of a
/// non-empty `frontier`, skipping stale entries (those no longer in
/// `current_bucket`). Returns the (vertex, bucket) insertions discovered.
#[allow(clippy::too_many_arguments)]
fn relax_edges(
    g: &Csr,
    dist: &[AtomicF32],
    frontier: &[VertexId],
    pool: &ThreadPool,
    delta: f32,
    light: bool,
    current_bucket: usize,
    log: &mut RunLog<'_>,
) -> Vec<(VertexId, usize)> {
    let step = Partial::collect(pool, frontier.len(), Schedule::Dynamic { chunk: 32 }, |lo, hi| {
        let mut found: Vec<(VertexId, usize)> = Vec::with_capacity(hi - lo);
        let (mut edges, mut max_degree) = (0u64, 0u64);
        for &u in &frontier[lo..hi] {
            let du = dist[u as usize].load(Ordering::Relaxed);
            // Stale check: u may have been re-queued for an earlier bucket.
            if bucket_of(du, delta) != current_bucket {
                continue;
            }
            max_degree = max_degree.max(g.out_degree(u) as u64);
            for (v, w) in g.neighbors_weighted(u) {
                if (w <= delta) != light {
                    continue;
                }
                edges += 1;
                let nd = du + w;
                if dist[v as usize].fetch_min(nd, Ordering::Relaxed) {
                    found.push((v, bucket_of(nd, delta)));
                }
            }
        }
        Partial { found, edges, max_degree }
    });
    log.counters.edges_traversed += step.edges;
    log.parallel(
        step.edges.max(frontier.len() as u64),
        step.max_degree.max(1),
        step.edges * 12 + frontier.len() as u64 * 8,
    );
    step.found
}

/// Routes insertions into their buckets, growing the bucket array as
/// needed; entries for already-passed buckets go to the current bucket
/// (they are deduplicated by the stale check).
fn distribute(buckets: &mut Vec<Vec<VertexId>>, inserts: Vec<(VertexId, usize)>, current: usize) {
    for (v, b) in inserts {
        let b = b.max(current);
        if b >= buckets.len() {
            buckets.resize(b + 1, Vec::new());
        }
        buckets[b].push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, EdgeList};

    fn check_against_dijkstra(el: &EdgeList, root: VertexId, delta: f32) {
        let g = Csr::from_edge_list(el);
        let pool = ThreadPool::new(4);
        let out = delta_stepping(&g, delta, &RunParams::new(&pool, Some(root)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        let want = oracle::dijkstra(&g, root);
        for v in 0..want.len() {
            if want[v].is_infinite() {
                assert!(d[v].is_infinite(), "vertex {v} should be unreachable");
            } else {
                assert!((d[v] - want[v]).abs() < 1e-3, "vertex {v}: {} vs {}", d[v], want[v]);
            }
        }
    }

    #[test]
    fn matches_dijkstra_across_delta_values() {
        let el = epg_generator::uniform::generate(400, 4000, true, 11).symmetrized();
        for delta in [0.05, 0.5, 2.0, 100.0] {
            check_against_dijkstra(&el, 5, delta);
        }
    }

    #[test]
    fn handles_heavy_only_paths() {
        // All weights > delta: pure heavy-edge propagation.
        let el =
            EdgeList::weighted(4, vec![(0, 1), (1, 2), (2, 3)], vec![5.0, 6.0, 7.0]).symmetrized();
        check_against_dijkstra(&el, 0, 1.0);
    }

    #[test]
    fn handles_reinsertion_within_bucket() {
        // Light edges that improve distances repeatedly inside one bucket.
        let el = EdgeList::weighted(
            5,
            vec![(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)],
            vec![0.1, 0.1, 0.1, 0.4, 0.1],
        )
        .symmetrized();
        check_against_dijkstra(&el, 0, 1.0);
    }

    #[test]
    fn unweighted_graph_counts_hops() {
        let el = EdgeList::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]).symmetrized();
        let g = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(2);
        let out = delta_stepping(&g, 0.5, &RunParams::new(&pool, Some(0)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn counters_populated() {
        let el = epg_generator::uniform::generate(100, 800, true, 2).symmetrized();
        let g = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(2);
        let out = delta_stepping(&g, 0.5, &RunParams::new(&pool, Some(0)));
        assert!(out.counters.edges_traversed > 0);
        assert!(out.counters.iterations > 0);
        assert!(out.trace.total_work() > 0);
    }
}
