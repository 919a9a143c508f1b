//! Δ-stepping SSSP the way the GAP Benchmark Suite ships it (`sssp.cc`).
//!
//! Distances advance bin by bin (bin width Δ). Every worker keeps its own
//! bins; a step hands the shared frontier — the lowest non-empty bin of all
//! workers — out in chunks, and a popped vertex that is not stale has
//! *every* out-edge relaxed once by an atomic fetch-min on the distance
//! array, the improved neighbour filed in the relaxing worker's bin. There
//! is no light/heavy split and no bucket fusion (GAP gained that in 2020,
//! after the paper).
//!
//! One departure from `sssp.cc`, which files a vertex at every
//! improvement: a vertex lowered from one distance to another in the same
//! bin, when that bin is ahead of the one being drained, is not filed
//! again. Its entry from the first distance still waits in that bin, which
//! no round has popped, and the pop reads the distance as it is then. A
//! vertex improved into the bin being drained is always filed, since its
//! entry there may already have been popped. Every improvement thus still
//! reaches a pop that relaxes from it, so the distances are the same bits;
//! only the duplicate pops go (on Kronecker 15, 1.39 M → 1.14 M edges
//! relaxed per root).
//!
//! Δ is a per-graph input, as GAP's `sssp -d` takes it (§V: Δ "may not be
//! optimal for all graphs"). `construct` derives it once from the graph by
//! [`WeightStats::delta`] — Meyer and Sanders' Δ = Θ(1/d) scaled by the
//! weights: the mean positive weight over the mean out-degree m/n, 1.0 on a
//! graph with no positive weight, and never below the largest weight
//! / [`MAX_WEIGHT_BINS`]. `GapConfig::delta` pins it instead;
//! `epg reproduce ablation_delta` sweeps it beside the derived value.

use epg_engine_api::{AlgorithmResult, Dir, RunLog, RunOutput, RunParams, SsspKernel};
use epg_graph::{Csr, VertexId, Weight, INF_DIST};
use epg_parallel::{AtomicF32, PerWorker, Schedule, ThreadPool};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;

/// The derived Δ is at least the largest weight over this many bins, so
/// one outlier edge cannot spread a run over millions of bins.
pub const MAX_WEIGHT_BINS: f32 = 1024.0;

/// Weights per block of [`WeightStats::of`]'s pass. Blocks are fixed by the
/// edge count alone and summed in block order, so the statistic, and Δ, are
/// the same bits at every thread count.
const STATS_BLOCK: usize = 1 << 14;

/// Accumulators per block of [`WeightStats::of`]'s pass.
const LANES: usize = 8;

/// The weight statistic Δ is derived from: the sum and count of the
/// positive weights and the largest weight. Zero weights are left out of
/// the mean, so a graph whose weights `WeightRepr::Int` truncated mostly to
/// zero keeps the mean of the weights that still carry a distance.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WeightStats {
    /// Sum of the positive weights.
    positive_sum: f64,
    /// How many weights are positive.
    positive: u64,
    /// The largest weight (0 when there is none).
    max: f32,
}

impl WeightStats {
    /// The statistic of `g`'s weights, one pass on `pool` (all zero when
    /// `g` is unweighted).
    pub fn of(g: &Csr, pool: &ThreadPool) -> WeightStats {
        let Some(ws) = g.weights.as_deref() else { return WeightStats::default() };
        let mut blocks = pool.parallel_reduce_ranges(
            ws.len().div_ceil(STATS_BLOCK),
            Schedule::Dynamic { chunk: 1 },
            Vec::new,
            |lo, hi| {
                let block = |b: usize| &ws[b * STATS_BLOCK..ws.len().min((b + 1) * STATS_BLOCK)];
                (lo..hi).map(|b| (b, WeightStats::of_slice(block(b)))).collect::<Vec<_>>()
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        blocks.sort_unstable_by_key(|&(b, _)| b);
        blocks.into_iter().map(|(_, s)| s).fold(WeightStats::default(), WeightStats::merge)
    }

    /// One block's statistic over [`LANES`] independent accumulators, so
    /// no add waits on the one before; the lanes are folded in lane order.
    fn of_slice(ws: &[Weight]) -> WeightStats {
        let (mut sum, mut count, mut max) = ([0f64; LANES], [0u64; LANES], [0f32; LANES]);
        let (chunks, tail) = ws.as_chunks::<LANES>();
        let tail = std::array::from_fn::<_, LANES, _>(|i| tail.get(i).copied().unwrap_or(0.0));
        for chunk in chunks.iter().chain([&tail]) {
            for i in 0..LANES {
                let w = chunk[i];
                let positive = w > 0.0;
                sum[i] += if positive { w as f64 } else { 0.0 };
                count[i] += positive as u64;
                max[i] = if w > max[i] { w } else { max[i] };
            }
        }
        (0..LANES)
            .map(|i| WeightStats { positive_sum: sum[i], positive: count[i], max: max[i] })
            .fold(WeightStats::default(), WeightStats::merge)
    }

    fn merge(self, other: WeightStats) -> WeightStats {
        WeightStats {
            positive_sum: self.positive_sum + other.positive_sum,
            positive: self.positive + other.positive,
            max: self.max.max(other.max),
        }
    }

    /// Mean of the positive weights; `None` when there is none.
    pub fn mean(&self) -> Option<f32> {
        (self.positive > 0).then(|| (self.positive_sum / self.positive as f64) as f32)
    }

    /// Δ for a graph of `n` vertices and `m` edges with these weights: the
    /// mean positive weight over the mean out-degree m/n, at least
    /// `max / MAX_WEIGHT_BINS`, and 1.0 (hop-sized bins) when no weight is
    /// positive, unweighted graphs included.
    pub fn delta(&self, n: usize, m: usize) -> f32 {
        match self.mean() {
            Some(mean) => {
                let delta = (mean as f64 * n as f64 / m as f64) as f32;
                delta.max(self.max / MAX_WEIGHT_BINS)
            }
            None => 1.0,
        }
    }
}

/// The Δ `construct` derives for `g` ([`WeightStats::delta`]).
pub fn derived_delta(g: &Csr, pool: &ThreadPool) -> f32 {
    WeightStats::of(g, pool).delta(g.num_vertices(), g.num_edges())
}

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
    delta_stepping_with(
        g,
        delta,
        params,
        &mut PerWorker::new(params.pool.num_threads(), Worker::default),
    )
}

/// [`delta_stepping`] over the caller's per-worker state, one per pool thread.
fn delta_stepping_with(
    g: &Csr,
    delta: f32,
    params: &RunParams<'_>,
    workers: &mut PerWorker<Worker>,
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
        workers.for_ranges(pool, frontier.len(), Schedule::Dynamic { chunk: 64 }, |w, lo, hi| {
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
                    if let Some(was) = dist[v as usize].fetch_min(nd, Ordering::Relaxed) {
                        let b = bucket_of(nd, delta);
                        // v already waits in bin b when `was` fell in it
                        // and b is ahead of the bin being drained: that
                        // entry pops once, from the lower distance. Bin
                        // `current` may have popped v's entry already.
                        let waiting = b > current && was < INF_DIST && bucket_of(was, delta) == b;
                        if !waiting {
                            w.push(b, v);
                        }
                    }
                }
            }
        });
        // The join: fold the step's tallies and find the next bin to drain.
        let (mut edges, mut max_degree, mut next) = (0u64, 1u64, None::<usize>);
        for w in workers.iter_mut() {
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
        for w in workers.iter_mut() {
            if let Some(b) = w.bins.get_mut(bin) {
                frontier.append(b);
            }
        }
    }

    let bins: usize = workers.iter_mut().flat_map(|w| w.bins.iter().map(Vec::capacity)).sum();
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

    fn bits(d: &[f32]) -> Vec<u32> {
        d.iter().map(|x| x.to_bits()).collect()
    }

    /// Δ-stepping's distances are Dijkstra's, bit for bit: each is the
    /// least fold-left f32 path sum, whatever order it was found in.
    fn check_against_dijkstra(el: &EdgeList, root: VertexId, delta: f32) {
        let g = Csr::from_edge_list(el);
        let want = oracle::dijkstra(&g, root);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let out = delta_stepping(&g, delta, &RunParams::new(&pool, Some(root)));
            let AlgorithmResult::Distances(d) = out.result else { panic!() };
            assert_eq!(bits(&d), bits(&want), "t={threads}, delta={delta}");
        }
    }

    #[test]
    fn matches_dijkstra_across_delta_values() {
        let el = epg_generator::uniform::generate(400, 4000, true, 11).symmetrized();
        let derived = derived_delta(&Csr::from_edge_list(&el), &ThreadPool::new(1));
        for delta in [0.05, 0.5, 2.0, 100.0, derived] {
            check_against_dijkstra(&el, 5, delta);
        }
    }

    fn stats_of(el: &EdgeList) -> (WeightStats, usize, usize) {
        let g = Csr::from_edge_list(el);
        (WeightStats::of(&g, &ThreadPool::new(2)), g.num_vertices(), g.num_edges())
    }

    #[test]
    fn delta_is_the_mean_positive_weight_over_the_mean_degree() {
        // 4 vertices, 6 edges, weights 0, 0, 1, 2, 3, 6: the zeros leave
        // the mean (3, not 2), and m/n = 1.5, so Δ = 2.
        let el = EdgeList::weighted(
            4,
            vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)],
            vec![0.0, 0.0, 1.0, 2.0, 3.0, 6.0],
        );
        let (s, n, m) = stats_of(&el);
        assert_eq!((s.positive_sum, s.positive, s.max), (12.0, 4, 6.0));
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.delta(n, m), 2.0);
    }

    #[test]
    fn graphs_without_a_positive_weight_get_unit_delta() {
        // All-zero weights, no edge at all (with and without vertices), and
        // no weights: hop-sized bins.
        let zero = epg_generator::adversarial::max_dense_zero(12);
        let no_edges = EdgeList::weighted(5, Vec::new(), Vec::new());
        let empty = EdgeList::weighted(0, Vec::new(), Vec::new());
        let unweighted = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        for (name, el) in
            [("zero", zero), ("m = 0", no_edges), ("n = 0", empty), ("hops", unweighted)]
        {
            let (s, n, m) = stats_of(&el);
            assert_eq!(s.mean(), None, "{name}");
            assert_eq!(s.delta(n, m), 1.0, "{name}");
        }
    }

    #[test]
    fn an_outlier_weight_cannot_spread_the_run_over_more_bins_than_the_floor() {
        // A 64-clique of 1e-3 weights and one edge of weight 100 out of it:
        // the mean rule alone gives Δ ≈ 8e-4 and ~120 000 bins for the far
        // vertex; the floor max / MAX_WEIGHT_BINS keeps them at ~1 024.
        let k = 64u32;
        let mut edges: Vec<_> =
            (0..k).flat_map(|u| (0..k).filter(move |&v| v != u).map(move |v| (u, v))).collect();
        let mut weights = vec![1e-3f32; edges.len()];
        edges.push((0, k));
        weights.push(100.0);
        let el = EdgeList::weighted(k as usize + 1, edges, weights);
        let (s, n, m) = stats_of(&el);
        let unfloored = s.mean().unwrap() as f64 * n as f64 / m as f64;
        assert!(unfloored < 1e-3, "the mean rule alone gives {unfloored}");
        let delta = s.delta(n, m);
        assert_eq!(delta, 100.0 / MAX_WEIGHT_BINS);
        check_against_dijkstra(&el, 0, delta);
        let g = Csr::from_edge_list(&el);
        for threads in [1, 2] {
            let pool = ThreadPool::new(threads);
            let mut workers = PerWorker::new(threads, Worker::default);
            delta_stepping_with(&g, delta, &RunParams::new(&pool, Some(0)), &mut workers);
            for w in workers.iter_mut() {
                assert!(w.bins.len() <= MAX_WEIGHT_BINS as usize + 2, "{} bins", w.bins.len());
            }
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
    fn a_vertex_improved_twice_into_one_waiting_bin_is_filed_there_once() {
        // Δ = 1. Round 1 pops the root: 1 lands in bin 0 and 3 in bin 5 at
        // 5.5. Round 2 pops 1, whose edge lowers 3 to 5.3, still bin 5,
        // which has not been popped: 3's entry from 5.5 waits there, so
        // bin 5 pops 3 once, and its fan of 4 edges is relaxed once.
        let mut edges = vec![(0, 3), (0, 1), (1, 3)];
        edges.extend((4..8).map(|v| (3, v)));
        let el = EdgeList::weighted(8, edges, vec![5.5, 0.5, 4.8, 1.0, 1.0, 1.0, 1.0]);
        let g = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(1);
        let mut workers = PerWorker::new(1, Worker::default);
        let out = delta_stepping_with(&g, 1.0, &RunParams::new(&pool, Some(0)), &mut workers);
        assert_eq!(out.counters.vertices_touched, 7, "0, 1 and 3 once each, then 3's fan");
        assert_eq!(out.counters.edges_traversed, 2 + 1 + 4);
        assert_eq!(out.counters.iterations, 4, "bins 0, 0, 5 and 6");
        check_against_dijkstra(&el, 0, 1.0);
    }

    #[test]
    fn a_vertex_improved_into_the_bin_being_drained_after_its_pop_is_filed_again() {
        // Δ = 1, every distance in bin 0. Round 2 pops 1 and 2 (at 0.5);
        // round 3 pops 3, whose edge lowers 2 to 0.3 after 2 was popped.
        // Bin 0 is the bin being drained, so 2 is filed again and round 4
        // relaxes its edge to 4 from 0.3: 0.4, not 0.6.
        let el = EdgeList::weighted(
            5,
            vec![(0, 1), (0, 2), (1, 3), (3, 2), (2, 4)],
            vec![0.1, 0.5, 0.1, 0.1, 0.1],
        );
        let g = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(1);
        let mut workers = PerWorker::new(1, Worker::default);
        let out = delta_stepping_with(&g, 1.0, &RunParams::new(&pool, Some(0)), &mut workers);
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        assert_eq!(d[4], 0.1 + 0.1 + 0.1 + 0.1);
        assert_eq!(out.counters.vertices_touched, 7, "2 and 4 are popped twice");
        check_against_dijkstra(&el, 0, 1.0);
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
            let mut workers = PerWorker::new(threads, Worker::default);
            let out = delta_stepping_with(&g, 0.05, &RunParams::new(&pool, Some(0)), &mut workers);
            assert!(out.counters.vertices_touched >= n as u64, "every vertex is popped");
            assert_eq!(out.counters.edges_traversed, 4 * out.counters.vertices_touched);
            for w in workers.iter_mut() {
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
