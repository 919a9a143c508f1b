//! Δ-stepping SSSP the way the GAP Benchmark Suite ships it (`sssp.cc`).
//!
//! Distances advance bin by bin (bin width Δ). Every worker keeps its own
//! bins; a step hands the shared frontier — the lowest non-empty bin of all
//! workers — out in chunks, and a popped vertex that is not stale has
//! *every* out-edge relaxed once by an atomic fetch-min on the distance
//! array, the improved neighbour filed in the relaxing worker's bin. There
//! is no light/heavy split and no bucket fusion (GAP gained that in 2020,
//! after the paper). Δ is a tunable (§V); `epg reproduce extensions`
//! sweeps it.

use epg_engine_api::{AlgorithmResult, Dir, RunLog, RunOutput, RunParams, SsspKernel};
use epg_graph::{Csr, VertexId, Weight, INF_DIST};
use epg_parallel::{AtomicF32, Schedule, ThreadPool};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// The bin a tentative distance falls in.
fn bucket_of(d: f32, delta: f32) -> usize {
    (d / delta) as usize
}

/// What one pool worker owns for the whole run, handed out by thread id.
#[derive(Default)]
struct Worker {
    /// `bins[b]` holds the vertices this worker improved into bin `b`.
    bins: Vec<Vec<VertexId>>,
    /// A min-heap with an entry for every non-empty bin, pushed when a bin
    /// stops being empty. Entries of bins drained since are dropped when a
    /// search meets them, so no search walks the empty bins between the
    /// current bin and a far one.
    filled: BinaryHeap<Reverse<usize>>,
    /// Tallies of the step in flight; the dispatcher takes them at the join.
    relaxed: u64,
    edges: u64,
    max_degree: u64,
}

impl Worker {
    /// Files `v` in bin `b`.
    fn push(&mut self, b: usize, v: VertexId) {
        if b >= self.bins.len() {
            self.bins.resize_with(b + 1, Vec::new);
        }
        if self.bins[b].is_empty() {
            self.filled.push(Reverse(b));
        }
        self.bins[b].push(v);
    }

    /// This worker's lowest non-empty bin at or above `current`, the bin a
    /// scan of `current..` finds. Bins below `current` are never refilled
    /// (a relaxation only raises a distance's bin), so entries there go.
    fn next_bin(&mut self, current: usize) -> Option<usize> {
        while let Some(&Reverse(b)) = self.filled.peek() {
            if b >= current && !self.bins[b].is_empty() {
                return Some(b);
            }
            self.filled.pop();
        }
        None
    }
}

/// Runs Δ-stepping from `params.root`. Unweighted graphs behave as unit
/// weights.
///
/// One *iteration* is one shared-frontier round — one parallel region over
/// the lowest non-empty bin — so a bin that refills itself takes several.
/// `vertices_touched` counts the frontier entries that passed the stale
/// check and `edges_traversed` their out-degrees: a vertex popped again
/// after an improvement relaxes all its edges again.
pub fn delta_stepping(g: &Csr, delta: f32, params: &RunParams<'_>) -> RunOutput {
    let workers: Vec<Mutex<Worker>> =
        (0..params.pool.num_threads()).map(|_| Mutex::default()).collect();
    delta_stepping_with(g, delta, params, &workers)
}

/// [`delta_stepping`] over the caller's per-worker state, one per pool thread.
fn delta_stepping_with(
    g: &Csr,
    delta: f32,
    params: &RunParams<'_>,
    workers: &[Mutex<Worker>],
) -> RunOutput {
    assert!(delta > 0.0, "delta must be positive");
    let pool = params.pool;
    let root = params.root.expect("SSSP needs a root");
    let dist: Vec<AtomicF32> = (0..g.num_vertices()).map(|_| AtomicF32::new(INF_DIST)).collect();
    dist[root as usize].store(0.0, Ordering::Relaxed);
    params.recorder.alloc_hwm("gap.sssp.dist", 4 * dist.len() as u64);

    let mut log = RunLog::new(params.recorder);
    // Grown, not pre-sized to |E| as GAP does: same time, +5 MB resident.
    let mut frontier = vec![root];
    let mut current = 0usize;
    loop {
        pool.parallel_for_ranges(frontier.len(), Schedule::Dynamic { chunk: 64 }, |tid, lo, hi| {
            // Only worker `tid` locks slot `tid` inside a region.
            let mut w = workers[tid].lock();
            for &u in &frontier[lo..hi] {
                let du = dist[u as usize].load(Ordering::Relaxed);
                // Stale: u was improved into, and relaxed from, an earlier
                // bin. The same `bucket_of` that filed u decides — `du >=
                // delta * current`, GAP's test, disagrees with it in f32.
                if bucket_of(du, delta) < current {
                    continue;
                }
                let degree = g.out_degree(u) as u64;
                w.relaxed += 1;
                w.edges += degree;
                w.max_degree = w.max_degree.max(degree);
                for (v, wt) in g.neighbors_weighted(u) {
                    let nd = du + wt;
                    if dist[v as usize].fetch_min(nd, Ordering::Relaxed) {
                        w.push(bucket_of(nd, delta), v);
                    }
                }
            }
        });
        // The join: fold the step's tallies and find the next bin to drain.
        let (mut edges, mut max_degree, mut next) = (0u64, 1u64, None::<usize>);
        for w in workers {
            let mut w = w.lock();
            log.counters.vertices_touched += std::mem::take(&mut w.relaxed);
            edges += std::mem::take(&mut w.edges);
            max_degree = max_degree.max(std::mem::take(&mut w.max_degree));
            next = next.into_iter().chain(w.next_bin(current)).min();
        }
        let popped = frontier.len() as u64;
        log.counters.edges_traversed += edges;
        log.counters.iterations += 1;
        log.parallel(edges.max(popped), max_degree, edges * 12 + popped * 8);
        if log.iteration(pool, log.counters.iterations, popped, Dir::Push).is_break() {
            break;
        }
        let Some(bin) = next else { break };
        current = bin;
        frontier.clear();
        for w in workers {
            if let Some(b) = w.lock().bins.get_mut(bin) {
                frontier.append(b);
            }
        }
    }

    let bins: usize =
        workers.iter().map(|w| w.lock().bins.iter().map(Vec::capacity).sum::<usize>()).sum();
    params.recorder.alloc_hwm("gap.sssp.bins", 4 * (frontier.capacity() + bins) as u64);
    log.counters.bytes_read = log.counters.edges_traversed * 12;
    log.counters.bytes_written = log.counters.vertices_touched * 8;
    let out: Vec<Weight> = dist.iter().map(|d| d.load(Ordering::Relaxed)).collect();
    log.finish(AlgorithmResult::Distances(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, EdgeList};

    fn check_against_dijkstra(el: &EdgeList, root: VertexId, delta: f32) {
        let g = Csr::from_edge_list(el);
        let want = oracle::dijkstra(&g, root);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let out = delta_stepping(&g, delta, &RunParams::new(&pool, Some(root)));
            let AlgorithmResult::Distances(d) = out.result else { panic!() };
            for v in 0..want.len() {
                if want[v].is_infinite() {
                    assert!(d[v].is_infinite(), "t={threads}: vertex {v} should be unreachable");
                } else {
                    assert!(
                        (d[v] - want[v]).abs() < 1e-3,
                        "t={threads}: vertex {v}: {} vs {}",
                        d[v],
                        want[v]
                    );
                }
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
        // All weights > delta: every improvement lands in a later bin.
        let el =
            EdgeList::weighted(4, vec![(0, 1), (1, 2), (2, 3)], vec![5.0, 6.0, 7.0]).symmetrized();
        check_against_dijkstra(&el, 0, 1.0);
    }

    #[test]
    fn handles_reinsertion_within_bucket() {
        // Short edges that improve distances repeatedly inside one bin.
        let el = EdgeList::weighted(
            5,
            vec![(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)],
            vec![0.1, 0.1, 0.1, 0.4, 0.1],
        )
        .symmetrized();
        check_against_dijkstra(&el, 0, 1.0);
    }

    #[test]
    fn spfa_killer_is_not_cut_short_by_the_stale_check() {
        // The case GAP's `dist[u] >= delta * bin` fails in f32: it drops
        // live entries and the run stops short of the spine's end.
        let corpus = epg_generator::GraphSpec::test_corpus();
        let spec = corpus.iter().find(|s| s.family() == "spfa_killer").expect("family in corpus");
        check_against_dijkstra(&spec.generate(42), 0, 0.05);
    }

    #[test]
    fn distance_rounding_onto_a_bin_boundary_is_relaxed() {
        // d sits one ulp under delta * k, yet d / delta rounds to k: d is
        // filed in bin k, where comparing it with delta * k would drop it.
        let delta = 0.05f32;
        let (k, d) = (1..1000usize)
            .map(|k| (k, f32::from_bits((delta * k as f32).to_bits() - 1)))
            .find(|&(k, d)| (d / delta) as usize == k)
            .expect("some multiple of delta rounds up");
        assert!(d < delta * k as f32);
        assert_eq!(bucket_of(d, delta), k);
        let el = EdgeList::weighted(3, vec![(0, 1), (1, 2)], vec![d, 1.0]);
        check_against_dijkstra(&el, 0, delta);
    }

    #[test]
    fn bins_drain_and_counters_follow_the_pops() {
        // 4-regular ring with hashed weights: whichever entries pass the
        // stale check, the edges relaxed are four per pop.
        let n = 300u32;
        let edges: Vec<_> = (0..n).flat_map(|i| [(i, (i + 1) % n), (i, (i + 2) % n)]).collect();
        let weights = (0..edges.len() as u32).map(|i| 0.01 + (i * 37 % 101) as f32 / 200.0);
        let g = Csr::from_edge_list(
            &EdgeList::weighted(n as usize, edges, weights.collect()).symmetrized(),
        );
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let workers: Vec<Mutex<Worker>> = (0..threads).map(|_| Mutex::default()).collect();
            let out = delta_stepping_with(&g, 0.05, &RunParams::new(&pool, Some(0)), &workers);
            assert!(out.counters.vertices_touched >= n as u64, "every vertex is popped");
            assert_eq!(out.counters.edges_traversed, 4 * out.counters.vertices_touched);
            for w in &workers {
                let w = w.lock();
                assert!(w.bins.iter().all(Vec::is_empty), "t={threads}: a bin kept entries");
                assert_eq!((w.relaxed, w.edges, w.max_degree), (0, 0, 0), "tallies left behind");
            }
        }
    }

    #[test]
    fn next_bin_search_visits_filled_bins_not_the_gap_to_a_far_one() {
        // A search visits the heap entries it drops plus the one it returns.
        let search = |w: &mut Worker, current: usize| {
            let before = w.filled.len();
            let found = w.next_bin(current);
            (found, before - w.filled.len() + found.is_some() as usize)
        };
        // A far improvement (a chord's end) and a near one.
        let mut w = Worker::default();
        w.push(65_536, 1);
        w.push(3, 2);
        w.push(3, 3);
        assert_eq!(search(&mut w, 0), (Some(3), 1));
        // The dispatcher drains bin 3: the search goes straight to the far
        // bin, where scanning from `current` visited 65 534 bins.
        w.bins[3].clear();
        assert_eq!(search(&mut w, 3), (Some(65_536), 2));
        // Rounds that file one vertex just ahead, as on a long path, then
        // drain it: every search visits at most the drained bin and the next.
        for b in 4..1000 {
            w.push(b, 9);
            let (found, visits) = search(&mut w, b);
            assert_eq!(found, Some(b));
            assert!(visits <= 2, "round {b}: {visits} bins visited");
            w.bins[b].clear();
        }
        assert_eq!(search(&mut w, 1000), (Some(65_536), 2));
        w.bins[65_536].clear();
        assert_eq!(search(&mut w, 65_536), (None, 1));
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
