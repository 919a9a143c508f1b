//! Direction-optimizing BFS (Beamer, Asanović, Patterson, SC'12).
//!
//! The hybrid algorithm the paper credits for GAP's BFS lead (§IV-C):
//! top-down steps expand a sliding-queue frontier; once the frontier's
//! outgoing edge count exceeds `edges_unexplored / α` the search flips to
//! bottom-up steps, where every unvisited vertex scans its in-neighbors for
//! a frontier member; it flips back once the frontier shrinks below
//! `n / β`. Defaults α = 15, β = 18 (§IV-C).

use crate::structures::{Bitmap, SlidingQueue};
use crate::GapConfig;
use epg_engine_api::{AlgorithmResult, Dir, Found, RunLog, RunOutput, RunParams};
use epg_graph::{Csr, VertexId, NO_VERTEX};
use epg_parallel::{PerWorker, Schedule, ThreadPool};
use std::sync::atomic::{AtomicU32, Ordering};

/// Runs direction-optimizing BFS from `params.root`. `g` holds out-edges,
/// `gt` in-edges (identical for symmetric graphs). Per-step telemetry
/// events carry the frontier size and whether the step ran push
/// (top-down), pull (bottom-up), or was the hybrid switch.
pub fn direction_optimizing_bfs(
    g: &Csr,
    gt: &Csr,
    cfg: &GapConfig,
    params: &RunParams<'_>,
) -> RunOutput {
    let (pool, rec) = (params.pool, params.recorder);
    let root = params.root.expect("BFS needs a root");
    let n = g.num_vertices();
    let m = g.num_edges() as u64;
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NO_VERTEX)).collect();
    let level: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    parent[root as usize].store(root, Ordering::Relaxed);
    level[root as usize].store(0, Ordering::Relaxed);
    rec.alloc_hwm("gap.bfs.parent+level", n as u64 * 8);

    let mut queue = SlidingQueue::new();
    queue.push(root);
    queue.slide_window();
    // Each worker's claims and scout count, flushed into the queue per
    // step, and its bottom-up partials.
    let mut found = PerWorker::new(pool.num_threads(), Default::default);
    let mut scans = PerWorker::new(pool.num_threads(), || None);
    // The bottom-up frontier and the one its step marks, swapped per step.
    let (mut front, mut next) = (Bitmap::new(n), Bitmap::new(n));

    let mut log = RunLog::new(rec);
    let mut depth = 0u32;
    let mut edges_to_check = m;
    let mut scout = g.out_degree(root) as u64;
    let mut bitmaps_reported = false;

    'run: while !queue.window_is_empty() {
        if cfg.direction_optimizing && scout > edges_to_check / cfg.alpha.max(1) {
            // ---- bottom-up phase ----
            front.clear();
            for &v in queue.window() {
                front.set(v as usize);
            }
            if !bitmaps_reported {
                bitmaps_reported = true;
                rec.alloc_hwm("gap.bfs.bitmaps", 2 * n.div_ceil(8) as u64);
            }
            let mut awake = queue.window_len() as u64;
            let mut switched = true;
            loop {
                depth += 1;
                let old_awake = awake;
                next.clear();
                let (new_awake, scanned, max_scan) =
                    bottom_up_step(gt, &parent, &level, (&front, &next), depth, &mut scans, pool);
                awake = new_awake;
                log.counters.edges_traversed += scanned;
                log.counters.vertices_touched += awake;
                // Span is the largest *actual* per-vertex scan: bottom-up
                // stops at the first frontier neighbor, so hubs rarely pay
                // their full in-degree — the reason direction-optimized BFS
                // keeps scaling (Fig. 5).
                log.parallel(scanned.max(1), max_scan.max(1), scanned * 8 + awake * 8);
                // The step that flipped the direction is the hybrid
                // switch; subsequent bottom-up steps are plain pulls.
                let dir = if switched { Dir::Hybrid } else { Dir::Pull };
                if log.iteration(pool, depth, old_awake, dir).is_break() {
                    break 'run;
                }
                switched = false;
                std::mem::swap(&mut front, &mut next);
                // GAP keeps going bottom-up while the frontier still grows
                // or remains above n / β.
                if awake == 0 || !(awake >= old_awake || awake > n as u64 / cfg.beta.max(1)) {
                    break;
                }
            }
            // Convert the bitmap frontier back into the sliding queue.
            queue.refill_pending(front.iter_ones().map(|v| v as VertexId));
            queue.slide_window();
            scout = 1;
        } else {
            // ---- top-down step ----
            depth += 1;
            let frontier = queue.window_len() as u64;
            let (discovered, edges, max_degree, new_scout) =
                top_down_step(g, &parent, &level, &mut queue, &mut found, depth, pool);
            log.counters.edges_traversed += edges;
            log.counters.vertices_touched += discovered;
            edges_to_check = edges_to_check.saturating_sub(edges);
            scout = new_scout;
            log.parallel(edges.max(1), max_degree.max(1), edges * 8 + discovered * 12);
            if log.iteration(pool, depth, frontier, Dir::Push).is_break() {
                break;
            }
            queue.slide_window();
        }
        log.counters.iterations += 1;
    }

    log.counters.bytes_read = log.counters.edges_traversed * 8;
    log.counters.bytes_written = log.counters.vertices_touched * 12;
    parent[root as usize].store(NO_VERTEX, Ordering::Relaxed);
    let parent: Vec<VertexId> = parent.iter().map(|p| p.load(Ordering::Relaxed)).collect();
    let level: Vec<u32> = level.iter().map(|l| l.load(Ordering::Relaxed)).collect();
    log.finish(AlgorithmResult::BfsTree { parent, level })
}

/// One top-down step: claims the window's unvisited out-neighbors and
/// flushes every worker's claims onto the queue, in worker order. Returns
/// (vertices claimed, edges checked, max frontier degree, scout count —
/// the claimed vertices' out-degrees summed).
fn top_down_step(
    g: &Csr,
    parent: &[AtomicU32],
    level: &[AtomicU32],
    queue: &mut SlidingQueue,
    found: &mut PerWorker<(Found<VertexId>, u64)>,
    depth: u32,
    pool: &ThreadPool,
) -> (u64, u64, u64, u64) {
    let window = queue.window();
    let sched = Schedule::Guided { min_chunk: 16 };
    found.for_ranges(pool, window.len(), sched, |(mine, scout), lo, hi| {
        for &u in &window[lo..hi] {
            mine.max_degree = mine.max_degree.max(g.out_degree(u) as u64);
            for &v in g.neighbors(u) {
                mine.edges += 1;
                if parent[v as usize].load(Ordering::Relaxed) == NO_VERTEX
                    && parent[v as usize]
                        .compare_exchange(NO_VERTEX, u, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    level[v as usize].store(depth, Ordering::Relaxed);
                    *scout += g.out_degree(v) as u64;
                    mine.list.push(v);
                }
            }
        }
    });
    let (mut claimed, mut edges, mut max_degree, mut scout) = (0, 0, 0, 0);
    for (mine, s) in found.iter_mut() {
        queue.push_all(&mine.list);
        claimed += mine.list.len() as u64;
        mine.list.clear();
        edges += std::mem::take(&mut mine.edges);
        max_degree = max_degree.max(std::mem::take(&mut mine.max_degree));
        scout += std::mem::take(s);
    }
    (claimed, edges, max_degree, scout)
}

/// One bottom-up step from `front`, marking `next`, reduced on the run's
/// `scans`. Returns (vertices awakened, edges scanned, largest
/// single-vertex scan).
fn bottom_up_step(
    gt: &Csr,
    parent: &[AtomicU32],
    level: &[AtomicU32],
    (front, next): (&Bitmap, &Bitmap),
    depth: u32,
    scans: &mut PerWorker<Option<(u64, u64, u64)>>,
    pool: &ThreadPool,
) -> (u64, u64, u64) {
    let scan = |lo: usize, hi: usize| {
        let (mut awake, mut scanned, mut max_scan) = (0u64, 0u64, 0u64);
        for v in lo..hi {
            if parent[v].load(Ordering::Relaxed) != NO_VERTEX {
                continue;
            }
            let mut this_scan = 0u64;
            for &u in gt.neighbors(v as VertexId) {
                this_scan += 1;
                if front.get(u as usize) {
                    // Single writer per v: no CAS needed bottom-up.
                    parent[v].store(u, Ordering::Relaxed);
                    level[v].store(depth, Ordering::Relaxed);
                    next.set(v);
                    awake += 1;
                    break;
                }
            }
            scanned += this_scan;
            max_scan = max_scan.max(this_scan);
        }
        (awake, scanned, max_scan)
    };
    scans.reduce_ranges(
        pool,
        gt.num_vertices(),
        Schedule::Guided { min_chunk: 64 },
        || (0, 0, 0),
        scan,
        |a, b| (a.0 + b.0, a.1 + b.1, a.2.max(b.2)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, EdgeList};

    fn run_both_ways(el: &EdgeList, root: VertexId) {
        let g = Csr::from_edge_list(el);
        let gt = g.transpose();
        let pool = ThreadPool::new(4);
        let want = oracle::bfs(&g, root);
        for dir_opt in [false, true] {
            let cfg = GapConfig { direction_optimizing: dir_opt, ..Default::default() };
            let out = direction_optimizing_bfs(&g, &gt, &cfg, &RunParams::new(&pool, Some(root)));
            let AlgorithmResult::BfsTree { parent, level } = out.result else { panic!() };
            assert_eq!(level, want.level, "dir_opt={dir_opt}");
            epg_graph::validate::validate_bfs_tree(&g, root, &parent).unwrap();
        }
    }

    #[test]
    fn correct_on_dense_graph_forcing_bottom_up() {
        // Dense random graph: the α heuristic flips to bottom-up quickly.
        let el = epg_generator::uniform::generate(256, 12_000, false, 3).symmetrized();
        run_both_ways(&el, 0);
    }

    #[test]
    fn correct_on_long_path_staying_top_down() {
        let edges: Vec<_> = (0..999).map(|i| (i as VertexId, i as VertexId + 1)).collect();
        let el = EdgeList::new(1000, edges).symmetrized();
        run_both_ways(&el, 17);
    }

    #[test]
    fn single_vertex_graph() {
        // A root with a single self-loop and no other edges.
        let el = EdgeList::new(2, vec![(0, 1), (1, 0)]);
        run_both_ways(&el, 0);
    }

    #[test]
    fn trace_records_steps() {
        let el = epg_generator::uniform::generate(128, 1024, false, 5).symmetrized();
        let g = Csr::from_edge_list(&el);
        let gt = g.transpose();
        let pool = ThreadPool::new(2);
        let params = RunParams::new(&pool, Some(0));
        let out = direction_optimizing_bfs(&g, &gt, &GapConfig::default(), &params);
        // Each BFS step records one region; a bottom-up phase may record
        // several steps under a single outer iteration.
        assert!(out.trace.records.len() as u32 >= out.counters.iterations);
        assert!(out.trace.records.iter().all(|r| r.parallel));
    }
}
