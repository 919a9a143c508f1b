//! Betweenness centrality, GAP-style (§V extension).
//!
//! GAP's `bc` benchmark runs Brandes' algorithm from a set of sampled
//! sources, parallelizing each source's forward BFS and backward
//! dependency accumulation level by level. `bc_sources = None` runs every
//! source (exact Brandes); `Some(k)` samples `k` sources and scales the
//! estimate by `n / k`, as approximate BC implementations do.

use epg_engine_api::{AlgorithmResult, Dir, Found, RunLog, RunOutput, RunParams};
use epg_graph::{Csr, VertexId};
use epg_parallel::{AtomicF64, PerWorker, Schedule};
use std::sync::atomic::{AtomicI64, Ordering};

/// Runs betweenness centrality over out-edges from
/// [`RunParams::bc_source_list`]'s sources: every vertex, or the sampled
/// ones every engine shares.
pub fn betweenness(g: &Csr, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let n = g.num_vertices();
    let mut log = RunLog::new(params.recorder);
    let mut bc = vec![0.0f64; n];
    if n == 0 {
        return log.finish(AlgorithmResult::Centrality(bc));
    }

    let source_list = params.bc_source_list(n);
    let scale = n as f64 / source_list.len() as f64;

    // Per-source state, reused across sources.
    let sigma: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
    let dist: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(-1)).collect();
    let delta: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();

    let mut found = PerWorker::new(pool.num_threads(), Found::default);
    let mut scans = PerWorker::new(pool.num_threads(), || None);
    // A source's BFS levels, at most n vertices: level d is `order[starts[d]..starts[d + 1]]`.
    let (mut order, mut starts) = (Vec::with_capacity(n), Vec::new());
    for &s in &source_list {
        pool.parallel_for(n, Schedule::Static { chunk: None }, |v| {
            sigma[v].store(0.0, Ordering::Relaxed);
            dist[v].store(-1, Ordering::Relaxed);
            delta[v].store(0.0, Ordering::Relaxed);
        });
        sigma[s as usize].store(1.0, Ordering::Relaxed);
        dist[s as usize].store(0, Ordering::Relaxed);

        // ---- forward phase: level-synchronous BFS counting paths ----
        order.clear();
        order.push(s);
        starts.clear();
        starts.push(0);
        while starts[starts.len() - 1] < order.len() {
            let depth = starts.len() as i64 - 1;
            let frontier = &order[starts[starts.len() - 1]..];
            let sched = Schedule::Guided { min_chunk: 16 };
            found.for_ranges(pool, frontier.len(), sched, |mine, lo, hi| {
                for &u in &frontier[lo..hi] {
                    let su = sigma[u as usize].load(Ordering::Relaxed);
                    for &v in g.neighbors(u) {
                        mine.edges += 1;
                        let dv = dist[v as usize].load(Ordering::Relaxed);
                        if dv < 0
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
            log.parallel(edges.max(1), 1, edges * 12);
        }

        // ---- backward phase: dependency accumulation per level ----
        for d in (0..starts.len() - 1).rev() {
            let level = &order[starts[d]..starts[d + 1]];
            let d = d as i64;
            // Writes touch only level-d vertices (one worker each); reads
            // touch only level-(d+1) vertices, finalized by the previous
            // pass. Atomic cells keep the shared reads sound.
            let accumulate = |lo: usize, hi: usize| {
                let mut scanned = 0u64;
                for &w in &level[lo..hi] {
                    let mut acc = 0.0;
                    let sw = sigma[w as usize].load(Ordering::Relaxed);
                    for &v in g.neighbors(w) {
                        scanned += 1;
                        if dist[v as usize].load(Ordering::Relaxed) == d + 1 {
                            let dv = delta[v as usize].load(Ordering::Relaxed);
                            acc += sw / sigma[v as usize].load(Ordering::Relaxed) * (1.0 + dv);
                        }
                    }
                    delta[w as usize].store(acc, Ordering::Relaxed);
                }
                scanned
            };
            let sched = Schedule::Guided { min_chunk: 16 };
            let scanned =
                scans.reduce_ranges(pool, level.len(), sched, || 0, accumulate, |a, b| a + b);
            log.counters.edges_traversed += scanned;
            log.parallel(scanned.max(1), 1, scanned * 16);
        }
        for (v, dv) in delta.iter().enumerate() {
            if v as VertexId != s {
                bc[v] += dv.load(Ordering::Relaxed) * scale;
            }
        }
        log.counters.iterations += 1;
        log.counters.vertices_touched += n as u64;
        // One iteration per source: `frontier` is that source's depth.
        if log
            .iteration(pool, log.counters.iterations, (starts.len() - 1) as u64, Dir::Push)
            .is_break()
        {
            break;
        }
    }
    log.counters.bytes_read = log.counters.edges_traversed * 12;
    log.counters.bytes_written = log.counters.vertices_touched * 8;
    log.finish(AlgorithmResult::Centrality(bc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, EdgeList};
    use epg_parallel::ThreadPool;

    fn run(g: &Csr, pool: &ThreadPool, sources: Option<usize>) -> RunOutput {
        let params = RunParams { bc_sources: sources, ..RunParams::new(pool, None) };
        betweenness(g, &params)
    }

    fn exact(el: &EdgeList) -> Vec<f64> {
        let g = Csr::from_edge_list(el);
        let pool = ThreadPool::new(3);
        let out = run(&g, &pool, None);
        let AlgorithmResult::Centrality(bc) = out.result else { panic!() };
        bc
    }

    #[test]
    fn exact_matches_brandes_oracle_on_random_graph() {
        let el = epg_generator::uniform::generate(120, 700, false, 4).symmetrized().deduplicated();
        let got = exact(&el);
        let want = oracle::betweenness(&Csr::from_edge_list(&el));
        for v in 0..want.len() {
            assert!(
                (got[v] - want[v]).abs() < 1e-6 * (1.0 + want[v]),
                "vertex {v}: {} vs {}",
                got[v],
                want[v]
            );
        }
    }

    #[test]
    fn exact_matches_oracle_on_directed_dag() {
        let el = epg_generator::citations::generate(
            &epg_generator::citations::CitationsConfig { num_vertices: 200, ..Default::default() },
            7,
        );
        let got = exact(&el);
        let want = oracle::betweenness(&Csr::from_edge_list(&el));
        for v in 0..want.len() {
            assert!((got[v] - want[v]).abs() < 1e-6 * (1.0 + want[v]), "vertex {v}");
        }
    }

    #[test]
    fn sampled_bc_is_unbiased_in_expectation_shape() {
        // On a star, every source sample still sees the hub on all paths:
        // sampled BC of the hub must be positive and leaves ~0.
        let el = EdgeList::new(40, (1..40).map(|v| (0u32, v)).collect::<Vec<_>>()).symmetrized();
        let g = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(2);
        let out = run(&g, &pool, Some(8));
        let AlgorithmResult::Centrality(bc) = out.result else { panic!() };
        assert!(bc[0] > 0.0);
        let hub = bc[0];
        for v in 1..40 {
            assert!(bc[v] <= hub);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let el = epg_generator::uniform::generate(60, 300, false, 1).symmetrized();
        let g = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(2);
        let a = run(&g, &pool, Some(4));
        let b = run(&g, &pool, Some(4));
        assert_eq!(a.result, b.result);
    }
}
