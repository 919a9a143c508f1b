//! Steady-state allocation, measured: how many allocator calls one more
//! round of an engine's timed loop costs, for every engine × algorithm
//! cell and every GAP SSSP kernel.
//!
//! A counting `#[global_allocator]` counts `alloc`, `alloc_zeroed` and
//! `realloc` calls. Each cell is constructed on a 1-thread pool (counts
//! vary run to run with more workers), run once untraced to warm up, and
//! then counted inside [`Engine::run`] at two input sizes that differ only
//! in how many rounds the kernel takes. A 1-thread pool runs every region
//! on the calling thread, so only that thread's calls are counted: the
//! test harness's own threads allocate at times of their own.
//!
//! * PageRank: `max_iterations` k and 2k, with a criterion that never holds;
//! * BFS, SSSP and WCC: a path, a grid and a broom (a clique whose members
//!   each start a path, so GAP's BFS goes bottom-up and stays there) of
//!   diameter L and 2L from vertex 0, with ids that descend away from it;
//! * CDLP, LCC and TC: a chain of L and 2L 4-cliques (CDLP's round count
//!   is [`CDLP_ROUNDS`] at both sizes);
//! * BC: one sampled source on a path of L and 2L edges.
//!
//! [`ROWS`] pins the difference of the two counts exactly, per profile:
//! the release column is the program the benchmark runs, the debug column
//! what `cargo test` runs. Every nonzero row says where its allocations
//! come from, in four recurring terms:
//!
//! * *partials*: a reduction's per-worker partials. A reduction that runs
//!   every round keeps them in its run's `PerWorker` state
//!   (`PerWorker::reduce_ranges`), as a step that hands found vertices out
//!   of a region keeps them, and the numbers that travel with them: a
//!   round allocates neither. Only a one-shot
//!   `ThreadPool::parallel_reduce_ranges` allocates its partials, once per
//!   call;
//! * *growth*: a buffer kept for the run (a `PerWorker` list, the set it
//!   drains into, a level stack) reallocates only when it doubles, so it
//!   adds a call per doubling the larger input needs, not per round;
//! * *trace*: the run's `Trace` pushes one record per region, so its
//!   vector's doubling adds a call per doubling, not per round;
//! * *shadow*: debug builds only. `DisjointWriter::new` allocates the race
//!   detector's shadow table, one per writer. Shadows are the whole
//!   difference between the two columns.
//!
//! On a mismatch, or a supported cell without a row, the test prints the
//! whole measured table in [`ROWS`]' syntax, ready to paste.
//!
//! One `#[test]` fn, so the table is measured in one pass. A second one
//! weighs what a constructed engine keeps resident against its graph
//! structure alone, with the same allocator's net live bytes, and a third
//! the peak of those bytes during `construct` against the staged list and
//! the structure together. A fourth counts on every thread of a pool, not
//! only the caller's: homogenization on 2 and 3 threads against 1.

use epg::engine_api::CDLP_ROUNDS;
use epg::generator::kronecker::{self, KroneckerConfig};
use epg::graph::{adjacency::PropertyGraph, Dcsc};
use epg::powergraph::{partition::PartitionedGraph, PowerGraphConfig};
use epg::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// Counts every allocating call made on the thread that owns the count,
/// and the bytes it holds, then defers to the system allocator.
struct Counting;

thread_local! {
    /// Allocator calls on this thread; `None` while nothing is counted.
    static CALLS: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
    /// Bytes allocated minus bytes freed on this thread, always counted.
    static NET: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
    /// The highest `NET` since [`peak`] last reset it.
    static PEAK: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
    /// Whether this thread also books into [`ALL`]: `None` if not, else
    /// whether it is a pool worker (also booked into [`WORKERS`]).
    static ENROLLED: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
}

/// Live bytes, their high-water mark and allocating calls, summed over a
/// set of threads.
struct Tally {
    net: AtomicI64,
    peak: AtomicI64,
    calls: AtomicU64,
}

impl Tally {
    const fn new() -> Tally {
        Tally { net: AtomicI64::new(0), peak: AtomicI64::new(0), calls: AtomicU64::new(0) }
    }

    fn book(&self, call: bool, bytes: i64) {
        self.calls.fetch_add(call as u64, Relaxed);
        let net = self.net.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(net, Relaxed);
    }

    /// Starts a measurement: the peak and the calls from here on.
    fn restart(&self) -> i64 {
        let net = self.net.load(Relaxed);
        self.peak.store(net, Relaxed);
        self.calls.store(0, Relaxed);
        net
    }
}

/// Every enrolled thread ([`enroll`]): one test's caller and its pool.
static ALL: Tally = Tally::new();
/// The enrolled pool workers alone.
static WORKERS: Tally = Tally::new();

/// Books one allocating call that changed the thread's live bytes by
/// `bytes`.
fn note(bytes: i64) {
    // `try_with`: the slots are gone while the thread tears down.
    let _ = CALLS.try_with(|c| c.set(c.get().map(|n| n + 1)));
    book(true, bytes);
}

fn grow(bytes: i64) {
    book(false, bytes);
}

fn book(call: bool, bytes: i64) {
    if let Ok(net) = NET.try_with(|c| {
        c.set(c.get() + bytes);
        c.get()
    }) {
        let _ = PEAK.try_with(|c| c.set(c.get().max(net)));
    }
    if let Ok(Some(worker)) = ENROLLED.try_with(|e| e.get()) {
        ALL.book(call, bytes);
        if worker {
            WORKERS.book(call, bytes);
        }
    }
}

// SAFETY: counting touches only const-initialized thread-local cells,
// which never allocate; the rest is `System`'s.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `GlobalAlloc` contract is passed on to
    // `System` with the arguments unchanged, here and below.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc(layout)
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    // SAFETY: as `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: as `alloc`; a free is not a call, but it frees bytes.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The small size of every pair: diameter, iteration count, or clique
/// count; the large size is twice it.
const L: usize = 24;

/// The input pair a cell is measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// PageRank at `max_iterations` L and 2L on a 4 × 8 grid.
    Iters,
    /// A path of L and 2L edges.
    Path,
    /// A 4-wide grid of diameter L and 2L.
    Grid,
    /// A 16-clique whose 15 non-root members each start a path, diameter
    /// L and 2L.
    Broom,
    /// A chain of L and 2L 4-cliques.
    Cliques,
}

impl Shape {
    /// The shapes an algorithm is measured on.
    fn of(algo: Algorithm) -> &'static [Shape] {
        match algo {
            Algorithm::PageRank => &[Shape::Iters],
            Algorithm::Bfs | Algorithm::Sssp | Algorithm::Wcc => {
                &[Shape::Path, Shape::Grid, Shape::Broom]
            }
            Algorithm::Cdlp | Algorithm::Lcc | Algorithm::TriangleCount => &[Shape::Cliques],
            Algorithm::Bc => &[Shape::Path],
        }
    }

    /// The undirected edge list at size `k` (PageRank's graph is fixed).
    fn graph(self, k: usize) -> EdgeList {
        let mut edges = Vec::new();
        let n = match self {
            Shape::Iters => grid(4, 8, &mut edges),
            Shape::Path => {
                edges.extend((0..k as u32).map(|v| (v, v + 1)));
                k + 1
            }
            Shape::Grid => grid(4, k - 2, &mut edges),
            Shape::Broom => {
                const C: u32 = 16;
                for a in 0..C {
                    edges.extend((a + 1..C).map(|b| (a, b)));
                }
                // Path j starts at clique member j and descends through
                // k - 1 more vertices, so the far end sits at depth k.
                let mut next = C;
                for j in 1..C {
                    let mut prev = j;
                    for _ in 1..k {
                        edges.push((prev, next));
                        prev = next;
                        next += 1;
                    }
                }
                next as usize
            }
            Shape::Cliques => {
                for c in 0..k as u32 {
                    let b = 4 * c;
                    for a in 0..4 {
                        edges.extend((a + 1..4).map(|x| (b + a, b + x)));
                    }
                    if c > 0 {
                        edges.push((b - 1, b));
                    }
                }
                4 * k
            }
        };
        // Vertex 0 stays; every other id counts down from the far end, so a
        // label swept in id order (GraphBIG's in-place WCC) still moves one
        // hop per round instead of crossing the graph in one sweep.
        let id = |v: VertexId| if v == 0 { 0 } else { n as VertexId - v };
        let edges: Vec<_> = edges.into_iter().map(|(u, v)| (id(u), id(v))).collect();
        let m = edges.len();
        EdgeList::weighted(n, edges, vec![1.0; m])
    }
}

/// Pushes a `w × h` grid's edges; returns its vertex count. From the
/// corner vertex 0 its diameter is `w + h - 2`.
fn grid(w: usize, h: usize, edges: &mut Vec<(VertexId, VertexId)>) -> usize {
    let id = |x: usize, y: usize| (y * w + x) as VertexId;
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    w * h
}

/// One measured cell: the engine, the algorithm, GAP's SSSP kernel when
/// the cell is a GAP SSSP cell, and the shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cell {
    engine: EngineKind,
    algo: Algorithm,
    kernel: Option<SsspKernel>,
    shape: Shape,
}

/// A pinned row: the cell, the extra allocator calls at the doubled size
/// in a release and a debug build, and where they come from.
struct Row {
    cell: Cell,
    release: i64,
    debug: i64,
    reason: &'static str,
}

/// Every cell the registry supports, each GAP SSSP kernel its own cell.
fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for engine in EngineKind::ALL {
        for algo in Algorithm::ALL.into_iter().filter(|&a| engine.create().supports(a)) {
            let kernels = match (engine, algo) {
                (EngineKind::Gap, Algorithm::Sssp) => SsspKernel::ALL.map(Some).to_vec(),
                _ => vec![None],
            };
            for kernel in kernels {
                for &shape in Shape::of(algo) {
                    out.push(Cell { engine, algo, kernel, shape });
                }
            }
        }
    }
    out
}

/// Allocator calls inside the counted `run` of `cell` at size `k`.
fn count(cell: Cell, k: usize, pool: &ThreadPool) -> u64 {
    let el = cell.shape.graph(k);
    let ds = Dataset::from_edge_list(format!("{:?}", cell.shape), el, 1);
    let mut engine = cell.engine.create_with_sssp_kernel(cell.kernel);
    engine.load_edge_list(ds.edges_for(cell.engine));
    engine.construct(pool);
    let mut params = RunParams::new(pool, cell.algo.is_rooted().then_some(0));
    params.bc_sources = Some(1);
    if cell.shape == Shape::Iters {
        params.stopping = Some(StoppingCriterion::L1Norm(0.0));
        params.max_iterations = k as u32;
    }
    drop(engine.run(cell.algo, &params));
    CALLS.with(|c| c.set(Some(0)));
    let out = engine.run(cell.algo, &params);
    let calls = CALLS.with(|c| c.take()).unwrap_or(0);
    // The pair differs in rounds only if the round count is what it says.
    match cell.algo {
        Algorithm::PageRank => assert_eq!(out.result.iterations(), Some(k as u32), "{cell:?}"),
        Algorithm::Cdlp => assert_eq!(out.counters.iterations, CDLP_ROUNDS, "{cell:?}"),
        _ => {}
    }
    calls
}

#[test]
fn steady_state_allocations_match_the_pinned_table() {
    let pool = ThreadPool::new(1);
    let release = !cfg!(debug_assertions);
    let (cells, mut table, mut bad) = (cells(), Vec::new(), Vec::new());
    for &cell in &cells {
        let got = count(cell, 2 * L, &pool) as i64 - count(cell, L, &pool) as i64;
        let row = ROWS.iter().find(|r| r.cell == cell);
        let want = row.map(|r| if release { r.release } else { r.debug });
        if want != Some(got) {
            bad.push(format!("{cell:?}: pinned {want:?}, measured {got}"));
        }
        let (rel, dbg, reason) = match row {
            Some(r) if release => (got, r.debug, r.reason),
            Some(r) => (r.release, got, r.reason),
            None => (got, got, ""),
        };
        let Cell { engine, algo, kernel, shape } = cell;
        let kernel = kernel.map_or("None".to_string(), |k| format!("Some({k:?})"));
        table.push(format!(
            "    row({engine:?}, {algo:?}, {kernel}, {shape:?}, {rel}, {dbg}, {reason:?}),"
        ));
    }
    for r in ROWS {
        if !cells.contains(&r.cell) {
            bad.push(format!("{:?}: pinned, but the cell is not supported", r.cell));
        }
        if (r.release, r.debug) != (0, 0) && r.reason.is_empty() {
            bad.push(format!("{:?}: a nonzero row needs a reason", r.cell));
        }
    }
    assert!(
        bad.is_empty(),
        "steady-state allocations moved:\n{}\n\nmeasured table:\n{}",
        bad.join("\n"),
        table.join("\n")
    );
}

/// The live bytes on this thread that dropping `make`'s result frees.
fn held<T>(make: impl FnOnce() -> T) -> i64 {
    let kept = make();
    let with = NET.with(|c| c.get());
    drop(kept);
    with - NET.with(|c| c.get())
}

/// What `kind`'s engine frees when dropped after `load_edge_list(el)` and
/// `construct`, and what its graph structure alone holds, built from `el`
/// by the public constructors the engine calls. On an `undirected` list —
/// the homogenizer's, rows ascending — GAP's structure is one CSR and
/// GraphMat's one DCSC, each serving as its own transpose.
fn resident_and_structure(
    kind: EngineKind,
    el: &EdgeList,
    undirected: bool,
    pool: &ThreadPool,
) -> (i64, i64) {
    let engine = held(|| constructed(kind, el, pool));
    let structure = match kind {
        EngineKind::Graph500 => held(|| Csr::from_edge_list_parallel(&el.symmetrized(), pool)),
        EngineKind::Gap if undirected => held(|| Csr::from_edge_list_parallel(el, pool)),
        EngineKind::Gap => held(|| {
            let csr = Csr::from_edge_list_parallel(el, pool);
            (csr.transpose_parallel(pool), csr)
        }),
        EngineKind::GraphBig => held(|| PropertyGraph::from_edge_list(el)),
        EngineKind::GraphMat if undirected => held(|| Dcsc::from_edge_list(el, pool)),
        EngineKind::GraphMat => held(|| {
            let m = Dcsc::from_edge_list(el, pool);
            (m.transpose(pool), m)
        }),
        EngineKind::PowerGraph => {
            held(|| PartitionedGraph::build(el, PowerGraphConfig::default().num_partitions, pool))
        }
    };
    (engine, structure)
}

fn constructed(kind: EngineKind, el: &EdgeList, pool: &ThreadPool) -> Box<dyn Engine> {
    let mut engine = kind.create();
    engine.load_edge_list(el);
    engine.construct(pool);
    engine
}

/// A weighted Kronecker scale-12 list as generated (directed, unsorted,
/// with duplicates and self-loops), and as the homogenizer hands it to
/// every engine but Graph500 (deduplicated and undirected).
fn kronecker_12() -> [(&'static str, EdgeList, bool); 2] {
    let cfg = KroneckerConfig { scale: 12, edge_factor: 16, weighted: true, ..Default::default() };
    let el = kronecker::generate(&cfg, 45);
    let undirected = el.deduplicated().undirected();
    [("directed", el, false), ("undirected", undirected, true)]
}

/// After `construct` an engine holds its graph structure and not the input
/// it was built from: what it frees when dropped is within 1 % of the
/// input's size of the structure alone.
#[test]
fn constructed_engines_hold_only_their_graph_structure() {
    let pool = ThreadPool::new(1);
    for (name, el, undirected) in kronecker_12() {
        let slack = el.size_bytes() as i64 / 100;
        for kind in EngineKind::ALL {
            let (resident, structure) = resident_and_structure(kind, &el, undirected, &pool);
            assert!(
                resident <= structure + slack,
                "{} on the {name} list: {resident} bytes resident after construct, {structure} \
                 in its structure, {} in the edge list",
                kind.name(),
                el.size_bytes()
            );
        }
    }
}

/// The live bytes on this thread at the peak of `make`, above those at its
/// start, and what `make` returned.
fn peak<T>(make: impl FnOnce() -> T) -> (i64, T) {
    let start = NET.with(|c| c.get());
    PEAK.with(|c| c.set(start));
    let kept = make();
    (PEAK.with(|c| c.get()) - start, kept)
}

/// Bytes per vertex a build may hold beside the staged list and the
/// structure: four `usize` words, for the counting sort's write cursors
/// (one per key: a vertex, or for PowerGraph a replica, of which the
/// lists here have 1–2 per vertex), the own-transpose check's cursors
/// (GAP's over the CSR, GraphMat's over the DCSC) and a squeeze's kept
/// lengths. At one thread the builds peak 8–19 bytes per vertex above the
/// two.
const SCRATCH_PER_VERTEX: i64 = 32;

/// Bytes per edge PowerGraph's build holds beside them: the partition of
/// every edge (1) and one array of grouping keys (4).
const POWERGRAPH_SCRATCH_PER_EDGE: i64 = 5;

/// Bytes per staged edge a debug build adds: the race detector's shadow
/// tables (`DisjointWriter::new`, 8 bytes per element) over the two arrays,
/// targets and weights, that a counting sort fills at once.
const SHADOW_PER_EDGE: i64 = if cfg!(debug_assertions) { 16 } else { 0 };

/// No build holds two copies of the graph at once: the live bytes of
/// `load_edge_list` and `construct` together peak at no more than the
/// staged list, the structure and a per-vertex scratch bound (PowerGraph
/// also its per-edge keys). Graph500 symmetrizes its staged copy in place,
/// so its staged list is the symmetrized one.
#[test]
fn construct_peaks_at_the_staged_list_plus_the_structure() {
    let pool = ThreadPool::new(1);
    let mut bad = Vec::new();
    for (name, el, undirected) in kronecker_12() {
        for kind in EngineKind::ALL {
            let (_, structure) = resident_and_structure(kind, &el, undirected, &pool);
            let stage = || match kind {
                EngineKind::Graph500 => el.symmetrized(),
                _ => el.clone(),
            };
            let staged = held(stage);
            let per_edge = match kind {
                EngineKind::PowerGraph => POWERGRAPH_SCRATCH_PER_EDGE + SHADOW_PER_EDGE,
                _ => SHADOW_PER_EDGE,
            };
            let scratch =
                SCRATCH_PER_VERTEX * el.num_vertices as i64 + per_edge * stage().num_edges() as i64;
            let (peak, engine) = peak(|| constructed(kind, &el, &pool));
            drop(engine);
            if peak > staged + structure + scratch {
                bad.push(format!(
                    "{} on the {name} list: construct peaks at {peak} live bytes; the staged \
                     list holds {staged}, the structure {structure}, the scratch bound is \
                     {scratch}",
                    kind.name()
                ));
            }
        }
    }
    assert!(bad.is_empty(), "a build held more than one copy of the graph:\n{}", bad.join("\n"));
}

/// Books the calling thread and every worker of `pool` into [`ALL`], the
/// workers also into [`WORKERS`], and nothing else: the tests running
/// beside this one allocate on threads of their own.
fn enroll(pool: &ThreadPool) {
    ENROLLED.with(|e| e.set(Some(false)));
    pool.region(|w| ENROLLED.with(|e| e.set(Some(w > 0))));
}

/// Homogenizes `raw` on `pool`, enrolled: the peak of [`ALL`]'s live bytes
/// above its start, [`WORKERS`]' peak and calls, and what the workers
/// still hold afterwards.
fn homogenize(raw: &EdgeList, pool: &ThreadPool) -> (i64, i64, u64, i64) {
    enroll(pool);
    let raw = raw.clone();
    let (all, workers) = (ALL.restart(), WORKERS.restart());
    let ds = Dataset::from_edge_list_parallel("homogenized".into(), raw, 1, pool);
    let (peak, worker_peak) = (ALL.peak.load(Relaxed) - all, WORKERS.peak.load(Relaxed) - workers);
    drop(ds);
    let held = WORKERS.net.load(Relaxed) - workers;
    ENROLLED.with(|e| e.set(None));
    (peak, worker_peak, WORKERS.calls.load(Relaxed), held)
}

/// Bytes per vertex homogenization on a pool may hold above the serial
/// path: a worker's count-matrix row of `u64`s for each thread above one,
/// in the two-pass builds.
const POOLED_PER_VERTEX: i64 = 16;

/// Homogenization on 2 and 3 threads, counted on every thread of the pool:
/// its live bytes peak at most [`POOLED_PER_VERTEX`] a vertex above the
/// serial path's (a 1-thread pool), and the workers allocate nothing but
/// the row buffers `Csr::squeeze_rows` lends each of them — a key of 8
/// bytes and a weight of 4 an entry, each at most twice the longest list
/// it sorts — and free them before the call returns. A buffer
/// a worker allocates lands in its thread's arena, which may keep the
/// pages after it is freed, so nothing bigger may come from there.
#[test]
fn pooled_homogenization_peaks_at_the_serial_path_plus_a_row_a_thread() {
    let cfg = KroneckerConfig { scale: 12, edge_factor: 16, weighted: true, ..Default::default() };
    let weighted = kronecker::generate(&cfg, 45);
    let longest = *weighted.out_degrees().iter().max().expect("vertices") as i64;
    let mut bad = Vec::new();
    for (name, raw) in [("weighted", weighted.clone()), ("unweighted", weighted.unweighted())] {
        let (serial, ..) = homogenize(&raw, &ThreadPool::new(1));
        let bound = serial + POOLED_PER_VERTEX * raw.num_vertices as i64;
        for threads in 2..=3 {
            let (peak, worker_peak, worker_calls, held) =
                homogenize(&raw, &ThreadPool::new(threads));
            let buffers = if raw.is_weighted() { (threads as i64 - 1) * 24 * longest } else { 0 };
            if peak > bound
                || worker_peak > buffers
                || held != 0
                || (buffers == 0) != (worker_calls == 0)
            {
                bad.push(format!(
                    "{name} Kronecker list at {threads} threads: peak {peak} live bytes (serial \
                     {serial}, bound {bound}); workers peak at {worker_peak} in {worker_calls} \
                     calls (row buffers {buffers}) and hold {held} after"
                ));
            }
        }
    }
    assert!(bad.is_empty(), "pooled homogenization outgrew the serial path:\n{}", bad.join("\n"));
}

const fn row(
    engine: EngineKind,
    algo: Algorithm,
    kernel: Option<SsspKernel>,
    shape: Shape,
    release: i64,
    debug: i64,
    reason: &'static str,
) -> Row {
    Row { cell: Cell { engine, algo, kernel, shape }, release, debug, reason }
}

use Algorithm::*;
use EngineKind::*;
use Shape::*;
use SsspKernel::*;

/// BFS in Graph500 and GraphBIG: one `PerWorker::for_ranges` per level.
const LEVEL_SYNC_BFS: &str = "per level: nothing, the level's finds are the run's `PerWorker` \
    lists, drained into the run's next frontier; +1 trace";

/// Δ-stepping on the path and the grid: one vertex per bucket.
const DELTA_THIN: &str = "per bucket: the new bin's vector (`Worker::push`, `bins[b].push`); \
    +1 `bins.resize_with` growth, +1 trace. `frontier.append` reallocates only while a bin \
    outgrows every earlier one: 0 here";

/// The radix heap on the path and the grid: one vertex per distance.
const RADIX_THIN: &str = "per settled vertex: `heap.push` refills the radix bucket the last \
    redistribution emptied (`RadixHeap::push`); the heap is the sequential kernel's priority \
    queue";

const BMSSP: &str = "per recursive call: the partial-order queue's blocks \
    (`PullQueue::insert`/`pull`/`batch_prepend`), the base case's heap and found set, \
    `find_pivots`' sets, and the call's `si` list and its `clone` for the recursion. Calls grow \
    with the settled vertices, so the count is superlinear in L on the grid and the broom";

/// GraphMat's SpMV iteration, the part every program pays.
const SPMV: &str = "per iteration (`run_iteration`): nothing, the `sent` message vector, the \
    accumulator, the blocks' row lists and tallies and the next active set come from the run's \
    `spmv::Scratch`; +1 trace; debug: + 3 shadows (sent, acc, values)";

const POWERGRAPH_SSSP: &str = "per superstep (`superstep(`): nothing, the scatter's edge counts \
    sit beside the run's bitmaps (`WorkerBitmaps::for_ranges`); +1 trace; debug: + 2 shadows \
    (replica slots, vertex data). Replica slots, the gather's partials, the merge workers' \
    changed lists, the bitmaps and the changed and next active sets come from the run's \
    `gas::Scratch`";

const POWERGRAPH_WCC: &str = "per superstep (`superstep(`): nothing, as SSSP; +1 trace, +1 `WorkerBitmaps::drain_into` growth, +1 growth of the merge worker's changed list; \
    debug: + 2 shadows, as SSSP";

/// The extra allocator calls one more round costs, cell by cell.
#[rustfmt::skip]
const ROWS: &[Row] = &[
    row(Graph500, Bfs, None, Path, 1, 1, LEVEL_SYNC_BFS),
    row(Graph500, Bfs, None, Grid, 1, 1, LEVEL_SYNC_BFS),
    row(Graph500, Bfs, None, Broom, 1, 1, LEVEL_SYNC_BFS),
    row(Gap, Bfs, None, Path, 3, 3, "per top-down step: nothing, the claims are the run's `PerWorker` lists, flushed into the `SlidingQueue` (`top_down_step`); +2 `SlidingQueue::push_all` growth, +1 trace (net). The bottom-up tail is the same 14 steps at both sizes"),
    row(Gap, Bfs, None, Grid, 3, 3, "as on the path; the bottom-up tail is the same 12 steps at both sizes"),
    row(Gap, Bfs, None, Broom, 1, 1, "per bottom-up step: nothing, its partials are the run's `PerWorker` (`bottom_up_step`); +1 trace. The two frontier bitmaps (`front`, `next`) are the run's, cleared and swapped per step (23 and 47 pull steps)"),
    row(Gap, PageRank, None, Iters, 1, 49, "per iteration: nothing, scores are updated in place, the pull's (L1, `changed`) error partials are the run's `PerWorker` and the sink mass is a serial sum; +1 trace; debug: + shadow (`scores`) + shadow (`contrib`)"),
    row(Gap, Sssp, Some(DeltaStepping), Path, 26, 26, DELTA_THIN),
    row(Gap, Sssp, Some(DeltaStepping), Grid, 26, 26, DELTA_THIN),
    row(Gap, Sssp, Some(DeltaStepping), Broom, 74, 74, "per bucket: the new bin's vector grows to 15 vertices (3 calls, `Worker::push`); +1 `bins.resize_with` growth, +1 trace. `frontier.append` reallocates only while a bin outgrows every earlier one: 0 here"),
    row(Gap, Sssp, Some(RadixHeap), Path, 24, 24, RADIX_THIN),
    row(Gap, Sssp, Some(RadixHeap), Grid, 24, 24, RADIX_THIN),
    row(Gap, Sssp, Some(RadixHeap), Broom, 72, 72, "per distance: `heap.push` refills one radix bucket with 15 vertices (3 calls, `RadixHeap::push`)"),
    row(Gap, Sssp, Some(Bmssp), Path, 73, 73, BMSSP),
    row(Gap, Sssp, Some(Bmssp), Grid, 1093, 1093, BMSSP),
    row(Gap, Sssp, Some(Bmssp), Broom, 3589, 3589, BMSSP),
    row(Gap, Bc, None, Path, 2, 2, "per backward level: nothing, its scan counts are the run's `PerWorker` partials; +1 growth of the level starts (`starts.push`), +1 trace. A forward level's finds are the run's `PerWorker` lists, drained into the run's flat level stack (`order`, sized for every vertex). The sampled source sits 21 levels deeper"),
    row(Gap, TriangleCount, None, Cliques, 120, 120, "per vertex: the pruned higher-neighbour set (`tc.rs`'s `.collect()` in `triangles::vertex_sets`), 5 calls per 4-clique"),
    row(GraphBig, Bfs, None, Path, 1, 1, LEVEL_SYNC_BFS),
    row(GraphBig, Bfs, None, Grid, 1, 1, LEVEL_SYNC_BFS),
    row(GraphBig, Bfs, None, Broom, 1, 1, LEVEL_SYNC_BFS),
    row(GraphBig, Cdlp, None, Cliques, 0, 0, ""),
    row(GraphBig, Lcc, None, Cliques, 288, 288, "per vertex, in `triangles::vertex_sets`: the out-list (`topology.rs`'s `.collect()`), its `clone` and the `extend` that merges in the in-neighbours, 3 calls"),
    row(GraphBig, PageRank, None, Iters, 1, 25, "per iteration: nothing, the L1 and `changed` partials are the run's `Convergence` and the sink mass is a serial sum; +1 trace; debug: + shadow (the rank writer)"),
    row(GraphBig, Sssp, None, Path, 1, 1, "per round: nothing, the improved vertices and the (edges, max degree) tallies are the run's `WorkerBitmaps`, allocated once per run; +1 trace"),
    row(GraphBig, Sssp, None, Grid, 1, 1, "as on the path"),
    row(GraphBig, Sssp, None, Broom, 1, 1, "as on the path"),
    row(GraphBig, Wcc, None, Path, 1, 1, "per round: nothing, `wcc`'s `changed` partials are the run's `PerWorker`; +1 trace"),
    row(GraphBig, Wcc, None, Grid, 1, 1, "as on the path"),
    row(GraphBig, Wcc, None, Broom, 1, 1, "as on the path"),
    row(GraphBig, Bc, None, Path, 2, 2, "a forward level's finds are the run's `PerWorker` lists, drained into the run's flat level stack (`order`, sized for every vertex), and the backward pass allocates nothing; +1 growth of the level starts (`starts.push`), +1 trace. The sampled source is GAP's (`RunParams::bc_source_list`), 21 levels deeper; from its own seed's source, 11 levels deeper, the level starts' doubling landed in the same power of two at both sizes and the row read 0"),
    row(GraphBig, TriangleCount, None, Cliques, 120, 120, "per vertex: the pruned higher-neighbour set (`extensions.rs`'s `.collect()` in `triangles::vertex_sets`), 5 calls per 4-clique"),
    row(GraphMat, Bfs, None, Path, 1, 73, SPMV),
    row(GraphMat, Bfs, None, Grid, 1, 73, SPMV),
    row(GraphMat, Bfs, None, Broom, 1, 73, SPMV),
    row(GraphMat, Cdlp, None, Cliques, 577, 577, "per round, per vertex whose messages carry different labels: one `LabelBag::Many` (`CdlpProgram::reduce`, the program's Accum under the GraphMat API), sized so the round's later messages fit; messages of one label merge into a `Run` and allocate nothing. Here: every vertex in the first two rounds, then the 2 bridge ends of each 4-clique (96 + 96 + 8 × 48 = 576 extra). The block's row list is the run's, so it doubles once more per run at the larger size, not once more per round"),
    row(GraphMat, Lcc, None, Cliques, 192, 192, "per vertex, in `triangles::vertex_sets`: the merged neighbourhood (`lcc.rs`'s `.to_vec()`) and its `extend_from_slice` growth, 2 calls"),
    row(GraphMat, PageRank, None, Iters, 1, 73, "per iteration: nothing, the sink-mass, L1 and `changed` partials are the run's (`sinks`, `Convergence`); +1 trace; debug: + 3 shadows (the pagerank writers)"),
    row(GraphMat, Sssp, None, Path, 1, 73, SPMV),
    row(GraphMat, Sssp, None, Grid, 1, 73, SPMV),
    row(GraphMat, Sssp, None, Broom, 1, 73, SPMV),
    row(GraphMat, Wcc, None, Path, 2, 74, "as BFS, +1 growth of the block's row list, which WCC's all-active first iteration doubles once more at the larger size (`rows.push`). That iteration also sizes the kept `sent` vector, in one call at both sizes"),
    row(GraphMat, Wcc, None, Grid, 2, 74, "as on the path"),
    row(GraphMat, Wcc, None, Broom, 2, 74, "as on the path"),
    row(GraphMat, TriangleCount, None, Cliques, 120, 120, "per vertex: the pruned higher-neighbour set (`lcc.rs`'s `.collect()` in `triangles::vertex_sets`), 5 calls per 4-clique"),
    row(PowerGraph, Cdlp, None, Cliques, 577, 577, "per round, per vertex whose gathered labels differ: one `LabelBag::Many` (`CdlpProgram::merge`, the GAS abstraction's per-edge accumulator), sized so the rest of the gather fits; gathers of one label merge into a `Run` and allocate nothing. Here: every vertex in the first two rounds, then the 2 bridge ends of each 4-clique (96 + 96 + 8 × 48 = 576 extra); +1 growth of the merge worker's changed list, kept for the run"),
    row(PowerGraph, Lcc, None, Cliques, 288, 288, "per vertex: three neighbour lists grown by `lcc`'s gather callback (`extend_from_slice`)"),
    row(PowerGraph, PageRank, None, Iters, 1, 49, "per superstep (`superstep(`): nothing, the gather's partials are the run's `gas::Scratch`; +1 trace; debug: + 2 shadows (replica slots, vertex data)"),
    row(PowerGraph, Sssp, None, Path, 1, 49, POWERGRAPH_SSSP),
    row(PowerGraph, Sssp, None, Grid, 1, 49, POWERGRAPH_SSSP),
    row(PowerGraph, Sssp, None, Broom, 1, 49, POWERGRAPH_SSSP),
    row(PowerGraph, Wcc, None, Path, 3, 51, POWERGRAPH_WCC),
    row(PowerGraph, Wcc, None, Grid, 3, 51, POWERGRAPH_WCC),
    row(PowerGraph, Wcc, None, Broom, 3, 51, POWERGRAPH_WCC),
    row(PowerGraph, TriangleCount, None, Cliques, 192, 192, "per vertex: the neighbour list grown twice by `triangle_count`'s gather callback (`extend_from_slice`)"),
];
