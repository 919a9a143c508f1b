//! The engine × algorithm workloads: `kron_bfs`, `kron_sssp`, `kron_pr`
//! and `grid_bfs`. Each loads one in-memory graph into every engine that
//! supports the algorithm and times `Engine::run` from outside, a fixed
//! list of operations per round, trial-major so a noisy moment spreads
//! over all cells instead of landing on one.

use crate::check;
use crate::inputs;
use crate::probes;
use crate::run::{At, Ctx, PoolCounts};
use crate::spec::ENGINE_LAYERS;
use crate::stats::{self, Timing};
use epg::graph::{oracle, Csr, VertexId, Weight};
use epg::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

/// PageRank runs exactly this many iterations on every engine. The native
/// stopping rules take 21 to 56 iterations depending on the engine and on
/// the generated graph, which made run time a function of the seed; a cap
/// below all of them makes every run the same work.
const PR_ITERATIONS: u32 = 16;

/// One workload's fixed shape: the graph, the algorithm, and how many
/// operations each engine contributes to a round (slower engines fewer).
pub struct Plan {
    pub spec: GraphSpec,
    pub algo: Algorithm,
    pub cells: Vec<(EngineKind, usize)>,
    /// Percentile of the pooled run times reported as `bench.op_tail_ms`,
    /// chosen to fall inside the slowest engine's times, not between two.
    pub tail_percentile: f64,
}

pub fn plan(workload: &str, quick: bool) -> Option<Plan> {
    use EngineKind::{Gap, Graph500, GraphBig, GraphMat, PowerGraph};
    let kron = |scale: u32, weighted: bool| GraphSpec::Kronecker {
        scale: if quick { 10 } else { scale },
        edge_factor: 16,
        weighted,
    };
    let plan = match workload {
        "kron_bfs" => Plan {
            spec: kron(16, false),
            algo: Algorithm::Bfs,
            cells: vec![(Graph500, 4), (Gap, 4), (GraphBig, 4), (GraphMat, 4)],
            tail_percentile: 90.0,
        },
        "kron_sssp" => Plan {
            spec: kron(15, true),
            algo: Algorithm::Sssp,
            cells: vec![(Gap, 4), (GraphBig, 4), (GraphMat, 1), (PowerGraph, 1)],
            tail_percentile: 95.0,
        },
        "kron_pr" => Plan {
            spec: kron(15, true),
            algo: Algorithm::PageRank,
            cells: vec![(Gap, 2), (GraphBig, 1), (GraphMat, 2), (PowerGraph, 1)],
            tail_percentile: 90.0,
        },
        "grid_bfs" => Plan {
            spec: GraphSpec::GridSwirl { width: if quick { 32 } else { 512 } },
            algo: Algorithm::Bfs,
            cells: vec![(Graph500, 2), (Gap, 2), (GraphBig, 2), (GraphMat, 2)],
            tail_percentile: 90.0,
        },
        _ => return None,
    };
    let cells = plan.cells.iter().map(|&(k, n)| (k, if quick { n.min(2) } else { n })).collect();
    Some(Plan { cells, ..plan })
}

/// The layer (crate) an engine's spans and metrics are booked under.
pub fn layer_of(kind: EngineKind) -> &'static str {
    let at = EngineKind::ALL.iter().position(|&k| k == kind).expect("engine is in the registry");
    ENGINE_LAYERS[at]
}

/// One engine, loaded and constructed by the current epoch's set-up.
struct Cell {
    kind: EngineKind,
    per_round: usize,
    engine: Box<dyn Engine>,
    load_s: f64,
    construct_s: f64,
    /// The epoch's first round by slot, kept for the check: the root, the
    /// run's seconds, and its output.
    first: Vec<(Option<VertexId>, f64, RunOutput)>,
}

/// What the timed runs of one engine measured, across all epochs.
#[derive(Default)]
struct Samples {
    run_s: Vec<f64>,
    /// The epoch each of `run_s` was measured in.
    epoch: Vec<usize>,
    edges: Vec<f64>,
    iters: Vec<f64>,
    regions: Vec<f64>,
    chunks: Vec<f64>,
}

struct State {
    pool: ThreadPool,
    ds: Dataset,
    cells: Vec<Cell>,
}

fn set_up(ctx: &mut Ctx<'_>, parent: u64, plan: &Plan) -> State {
    let pool = ThreadPool::new(ctx.host.threads);
    let ds = inputs::dataset(ctx, parent, &plan.spec, &pool);
    let mut cells = Vec::with_capacity(plan.cells.len());
    for (i, &(kind, per_round)) in plan.cells.iter().enumerate() {
        let open = ctx.tracer.open(parent, i as u64, "bench", "engine");
        let mut engine = kind.create();
        assert!(engine.supports(plan.algo), "{} lacks {:?}", kind.name(), plan.algo);
        let ((), load_s) = ctx.timed(open.id, i as u64, layer_of(kind), "load", || {
            engine.load_edge_list(ds.edges_for(kind));
        });
        let ((), construct_s) =
            ctx.timed(open.id, i as u64, layer_of(kind), "construct", || engine.construct(&pool));
        ctx.tracer.close(&mut ctx.spans, open);
        cells.push(Cell { kind, per_round, engine, load_s, construct_s, first: Vec::new() });
    }
    State { pool, ds, cells }
}

/// The parameters of the `nth` operation a cell makes in the run: for the
/// rooted algorithms the next of the dataset's 32 roots, in rotation, so
/// that a run's medians are taken over many roots and do not hang on which
/// few the seed happened to pick; for PageRank the iteration cap.
fn params<'p>(pool: &'p ThreadPool, ds: &Dataset, algo: Algorithm, nth: usize) -> RunParams<'p> {
    let root = algo.is_rooted().then(|| ds.roots[nth % ds.roots.len()]);
    let mut params = RunParams::new(pool, root);
    if algo == Algorithm::PageRank {
        params.max_iterations = PR_ITERATIONS;
    }
    params
}

fn round(ctx: &mut Ctx<'_>, st: &mut State, samples: &mut [Samples], algo: Algorithm, at: At) {
    let slots = st.cells.iter().map(|c| c.per_round).max().unwrap_or(0);
    for slot in 0..slots {
        for (cell, seen) in st.cells.iter_mut().zip(samples.iter_mut()) {
            if cell.per_round <= slot {
                continue;
            }
            let params = params(&st.pool, &st.ds, algo, at.round * cell.per_round + slot);
            let before = st.pool.stats();
            let open = ctx.tracer.open(at.parent, slot as u64, layer_of(cell.kind), "run");
            let t = Instant::now();
            let out = cell.engine.run(algo, &params);
            let secs = t.elapsed().as_secs_f64();
            ctx.tracer.close(&mut ctx.spans, open);
            let after = st.pool.stats();
            ctx.outcome.attempted += 1;
            ctx.outcome.failed += u64::from(out.cancelled);
            seen.run_s.push(secs);
            seen.epoch.push(at.epoch);
            seen.edges.push(out.counters.edges_traversed as f64);
            seen.iters.push(f64::from(out.counters.iterations));
            seen.regions.push((after.regions - before.regions) as f64);
            seen.chunks.push((after.chunks - before.chunks) as f64);
            if at.first_in_epoch {
                cell.first.push((params.root, secs, out));
            }
        }
    }
}

/// Checks every output of the last epoch's first round against the
/// sequential oracles.
fn verify(ctx: &mut Ctx<'_>, st: &State, algo: Algorithm) -> Vec<u64> {
    let g = Csr::from_edge_list(&st.ds.symmetric);
    let pr_want = (algo == Algorithm::PageRank).then(|| check::pagerank_oracle(&g));
    // One sequential traversal per distinct root the kept outputs used.
    let mut bfs_want: BTreeMap<VertexId, Vec<u32>> = BTreeMap::new();
    let mut sssp_want: BTreeMap<VertexId, Vec<Weight>> = BTreeMap::new();
    let mut failed = vec![0u64; st.cells.len()];
    for (ci, cell) in st.cells.iter().enumerate() {
        for (slot, (root, _, out)) in cell.first.iter().enumerate() {
            let verdict = match (algo, *root) {
                (Algorithm::Bfs, Some(root)) => {
                    let want = bfs_want.entry(root).or_insert_with(|| oracle::bfs(&g, root).level);
                    check::bfs(&g, root, want, &out.result)
                }
                (Algorithm::Sssp, Some(root)) => {
                    let want = sssp_want.entry(root).or_insert_with(|| oracle::dijkstra(&g, root));
                    check::sssp(&g, root, want, &out.result)
                }
                _ => check::pagerank(pr_want.as_ref().expect("PageRank oracle"), &out.result),
            };
            if let Err(why) = verdict {
                failed[ci] += 1;
                ctx.notes.push(format!("CHECK FAILED {} slot {slot}: {why}", cell.kind.name()));
            }
        }
    }
    failed
}

pub fn run(ctx: &mut Ctx<'_>, plan: &Plan) {
    let algo = plan.algo;
    let mut samples: Vec<Samples> = plan.cells.iter().map(|_| Samples::default()).collect();
    let mut pool_counts = PoolCounts::default();
    let (st, rounds) = ctx.epochs(
        |ctx, parent| set_up(ctx, parent, plan),
        |_ctx, st, _parent| {
            // One discarded warm-up call per cell.
            for cell in &mut st.cells {
                std::hint::black_box(cell.engine.run(algo, &params(&st.pool, &st.ds, algo, 0)));
            }
        },
        |ctx, st, at| {
            let before = st.pool.stats();
            round(ctx, st, &mut samples, algo, at);
            pool_counts.add(before, st.pool.stats());
        },
    );

    let open = ctx.tracer.open(ctx.root, 0, "epg-engine-api", "verify");
    let t = Instant::now();
    let failed = verify(ctx, &st, algo);
    let verify_s = t.elapsed().as_secs_f64();
    ctx.tracer.close(&mut ctx.spans, open);
    ctx.outcome.failed += failed.iter().sum::<u64>();
    ctx.metrics.set("epg-engine-api.verify_s", verify_s, 1);

    // Input edges one run covers, for the Graph500-style TEPS summary
    // (PageRank covers them once per iteration).
    let input_edges = st.ds.raw.num_edges() as f64;
    let mut cell_ms = Vec::new();
    let mut pooled = Vec::new();
    for ((cell, seen), &bad) in st.cells.iter().zip(&samples).zip(&failed) {
        let run_s = &seen.run_s;
        let t = Timing::of(run_s);
        let layer = layer_of(cell.kind);
        let teps: Vec<f64> = run_s
            .iter()
            .zip(&seen.iters)
            .map(|(s, it)| input_edges * if algo == Algorithm::PageRank { *it } else { 1.0 } / s)
            .collect();
        let total_s: f64 = run_s.iter().sum();
        let total_edges: f64 = seen.edges.iter().sum();
        for (metric, value, n) in [
            ("run_s", t.median, t.n),
            ("run_hi_s", t.hi_value(), t.n),
            ("edges_run", stats::median(&seen.edges), t.n),
            ("iters_run", stats::median(&seen.iters), t.n),
            ("regions_run", stats::median(&seen.regions), t.n),
            ("chunks_run", stats::median(&seen.chunks), t.n),
            ("ns_edge", total_s * 1e9 / total_edges.max(1.0), t.n),
            ("mteps_hmean", stats::harmonic_mean(&teps) / 1e6, t.n),
            ("load_s", cell.load_s, 1),
            ("construct_s", cell.construct_s, 1),
            ("verify_failed", bad as f64, cell.first.len()),
        ] {
            ctx.metrics.set(&format!("{layer}.{metric}"), value, n);
        }
        ctx.notes.push(format!(
            "cell {}/{}: run median {:.4} ms, {} {:.4} ms, n {}",
            cell.kind.name(),
            algo.abbrev(),
            t.median * 1e3,
            t.hi.map_or("tail unsupported, median".to_string(), |(p, _)| format!("p{p}")),
            t.hi_value() * 1e3,
            t.n
        ));
        let nominal: Vec<f64> =
            run_s.iter().zip(&seen.epoch).map(|(&s, &e)| rounds.at_nominal(e, s)).collect();
        cell_ms.push(stats::lower_quartile(&nominal) * 1e3);
        pooled.extend(run_s.iter().map(|s| s * 1e3));
    }
    ctx.end_to_end(&rounds, &cell_ms);
    ctx.op_tail(plan.tail_percentile, &pooled);
    let regions = ctx.pool_counts(&pool_counts);

    if ctx.opts.trace {
        let probe = ctx.tracer.open(ctx.root, 0, "bench", "probes");
        probes::common(ctx, probe.id, &st.ds, &st.pool);
        let first = &st.cells[0];
        let (_, first_s, first_out) = &first.first[0];
        probes::machine(ctx, probe.id, first_out, *first_s);
        if algo == Algorithm::Sssp {
            probes::gap_kernel_tier(ctx, probe.id, &st.ds, &st.pool);
        }
        let kinds: Vec<EngineKind> = st.cells.iter().map(|c| c.kind).collect();
        probes::runner_overhead(ctx, probe.id, &st.ds, &kinds, algo);
        ctx.tracer.close(&mut ctx.spans, probe);
        probes::forkjoin_share(ctx, regions);
    }
}
