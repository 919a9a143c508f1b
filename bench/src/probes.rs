//! Layer-only probes, run by traced runs: direct calls into one layer at
//! a time (pool micro-probes, `Csr`/`ingest` calls, the GAP kernel tier,
//! the harness's runner and report, the recorder, the machine model, the
//! lint). Each books a span under its layer and a per-layer metric.

use crate::run::Ctx;
use crate::stats;
use epg::engine_api::{Recorder, SsspKernel, TraceEvent};
use epg::graph::{ingest, snap, Csr, EdgeList};
use epg::harness::report;
use epg::prelude::*;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Repetitions of each graph-substrate probe; the median is reported.
const GRAPH_REPS: usize = 3;
/// Empty regions timed for `region_us`.
const REGION_REPS: usize = 2000;
/// Items of the worksharing-loop probes.
const LOOP_ITEMS: usize = 1 << 20;
/// Chunk size of the dynamic-schedule probe.
const DYNAMIC_CHUNK: usize = 64;
/// Passes of `lint_workspace` over the repository.
const LINT_REPS: usize = 10;
/// Roots of the runner-overhead and kernel-tier probes.
const PROBE_ROOTS: usize = 2;
const KERNEL_TIER_ROOTS: usize = 8;

/// Median seconds of `reps` calls of `f`, inside one span.
fn median_of(
    ctx: &mut Ctx<'_>,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    let open = ctx.tracer.open(parent, 0, layer, name);
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    ctx.tracer.close(&mut ctx.spans, open);
    stats::median(&walls)
}

/// The probes every workload's traced run makes.
pub fn common(ctx: &mut Ctx<'_>, parent: u64, ds: &Dataset, pool: &ThreadPool) {
    pool_probes(ctx, parent, pool);
    graph_probes(ctx, parent, &ds.symmetric, pool);
    recorder_probes(ctx, parent);
    lint_probe(ctx, parent);
    ctx.metrics.set("bench.threads", ctx.host.threads as f64, 1);
}

fn pool_probes(ctx: &mut Ctx<'_>, parent: u64, pool: &ThreadPool) {
    let layer = "epg-parallel";
    let region_s = median_of(ctx, parent, layer, "region", REGION_REPS, || pool.region(|_tid| {}));
    ctx.metrics.set("epg-parallel.region_us", region_s * 1e6, REGION_REPS);

    let sink = AtomicU64::new(0);
    let body = |i: usize| {
        if i == usize::MAX {
            sink.fetch_add(1, Ordering::Relaxed);
        }
    };
    let static_s = median_of(ctx, parent, layer, "for_static", GRAPH_REPS, || {
        pool.parallel_for(LOOP_ITEMS, Schedule::Static { chunk: None }, body);
    });
    ctx.metrics.set(
        "epg-parallel.for_static_ns_item",
        static_s * 1e9 / LOOP_ITEMS as f64,
        GRAPH_REPS,
    );
    let dynamic_s = median_of(ctx, parent, layer, "for_dynamic", GRAPH_REPS, || {
        pool.parallel_for(LOOP_ITEMS, Schedule::Dynamic { chunk: DYNAMIC_CHUNK }, body);
    });
    let chunks = (LOOP_ITEMS / DYNAMIC_CHUNK) as f64;
    ctx.metrics.set("epg-parallel.for_dynamic_ns_chunk", dynamic_s * 1e9 / chunks, GRAPH_REPS);

    let mut data = vec![1u64; 1 << 22];
    let scan_s = median_of(ctx, parent, layer, "exclusive_scan", GRAPH_REPS, || {
        black_box(pool.exclusive_scan(&mut data));
    });
    ctx.metrics.set("epg-parallel.scan_melems_s", data.len() as f64 / scan_s / 1e6, GRAPH_REPS);
}

fn graph_probes(ctx: &mut Ctx<'_>, parent: u64, el: &EdgeList, pool: &ThreadPool) {
    let layer = "epg-graph";
    let edges = el.num_edges() as f64;
    let mut text = Vec::new();
    snap::write_snap(el, "probe", &mut text).expect("writing to memory cannot fail");
    let parse_s = median_of(ctx, parent, layer, "snap_parse", GRAPH_REPS, || {
        black_box(ingest::parse_snap_parallel(&text, pool).expect("own SNAP text parses"));
    });
    ctx.metrics.set("epg-graph.snap_parse_s", parse_s, GRAPH_REPS);
    ctx.metrics.set("epg-graph.snap_parse_mb_s", text.len() as f64 / 1e6 / parse_s, GRAPH_REPS);
    drop(text);

    let binary = ingest::encode_binary_parallel(el, pool);
    let decode_s = median_of(ctx, parent, layer, "bin_decode", GRAPH_REPS, || {
        black_box(ingest::decode_binary_parallel(&binary, pool).expect("own encoding decodes"));
    });
    ctx.metrics.set("epg-graph.bin_decode_s", decode_s, GRAPH_REPS);
    ctx.metrics.set("epg-graph.bin_decode_mb_s", binary.len() as f64 / 1e6 / decode_s, GRAPH_REPS);
    drop(binary);

    let build_s = median_of(ctx, parent, layer, "csr_build", GRAPH_REPS, || {
        black_box(Csr::from_edge_list_parallel(el, pool));
    });
    ctx.metrics.set("epg-graph.csr_build_s", build_s, GRAPH_REPS);
    ctx.metrics.set("epg-graph.csr_build_medges_s", edges / build_s / 1e6, GRAPH_REPS);
    let csr = Csr::from_edge_list_parallel(el, pool);
    let transpose_s = median_of(ctx, parent, layer, "csr_transpose", GRAPH_REPS, || {
        black_box(csr.transpose_parallel(pool));
    });
    ctx.metrics.set("epg-graph.csr_transpose_s", transpose_s, GRAPH_REPS);
    // Sorting is idempotent, so every repetition sorts a fresh transpose.
    let mut unsorted: Vec<Csr> = (0..GRAPH_REPS).map(|_| csr.transpose_parallel(pool)).collect();
    let sort_s = median_of(ctx, parent, layer, "csr_sort", GRAPH_REPS, || {
        let mut g = unsorted.pop().expect("one transpose per repetition");
        g.sort_adjacency_parallel(pool);
        black_box(g);
    });
    ctx.metrics.set("epg-graph.csr_sort_s", sort_s, GRAPH_REPS);
    let dedup_s = median_of(ctx, parent, layer, "dedup", GRAPH_REPS, || {
        black_box(el.deduplicated());
    });
    ctx.metrics.set("epg-graph.dedup_s", dedup_s, GRAPH_REPS);
    let symmetrize_s = median_of(ctx, parent, layer, "symmetrize", GRAPH_REPS, || {
        black_box(el.symmetrized());
    });
    ctx.metrics.set("epg-graph.symmetrize_s", symmetrize_s, GRAPH_REPS);
}

fn recorder_probes(ctx: &mut Ctx<'_>, parent: u64) {
    const EVENTS: usize = 50_000;
    let recorder = RunRecorder::new();
    let record_s = median_of(ctx, parent, "epg-trace", "record", 1, || {
        for i in 0..EVENTS as u64 {
            recorder.record(TraceEvent::Region { work: i, span: 1, bytes: 8 * i, parallel: true });
        }
    });
    ctx.metrics.set("epg-trace.record_ns", record_s * 1e9 / EVENTS as f64, EVENTS);
    let mut bytes = 0;
    let jsonl_s = median_of(ctx, parent, "epg-trace", "to_jsonl", GRAPH_REPS, || {
        bytes = black_box(recorder.to_jsonl()).len();
    });
    ctx.metrics.set("epg-trace.jsonl_mb_s", bytes as f64 / 1e6 / jsonl_s, GRAPH_REPS);
}

fn lint_probe(ctx: &mut Ctx<'_>, parent: u64) {
    let root = crate::host::repo_root();
    let reps = if ctx.opts.quick { 1 } else { LINT_REPS };
    let lint_s = median_of(ctx, parent, "epg-lint", "lint_workspace", reps, || {
        black_box(epg_lint::lint_workspace(&root).expect("the repository's allowlist parses"));
    });
    let lines: usize = epg_lint::rust_files(&root)
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .map(|src| src.lines().count())
        .sum();
    ctx.metrics.set("epg-lint.lint_s", lint_s, reps);
    ctx.metrics.set("epg-lint.lint_ns_line", lint_s * 1e9 / lines.max(1) as f64, reps);
}

/// Projects one measured run onto the paper's machine.
pub fn machine(ctx: &mut Ctx<'_>, parent: u64, out: &RunOutput, measured_s: f64) {
    const REPS: usize = 200;
    let model = MachineModel::paper_machine();
    let rate = model.calibrate_rate(&out.trace, measured_s.max(1e-9));
    let total_s = median_of(ctx, parent, "epg-machine", "project", 1, || {
        for _ in 0..REPS {
            black_box(model.project(black_box(&out.trace), rate, 72));
        }
    });
    ctx.metrics.set("epg-machine.project_us", total_s * 1e6 / REPS as f64, REPS);
}

/// GAP's SSSP kernel tier, each kernel on the same first roots.
pub fn gap_kernel_tier(ctx: &mut Ctx<'_>, parent: u64, ds: &Dataset, pool: &ThreadPool) {
    for kernel in SsspKernel::ALL {
        let mut engine = EngineKind::Gap.create_with_sssp_kernel(Some(kernel));
        engine.load_edge_list(ds.edges_for(EngineKind::Gap));
        engine.construct(pool);
        let open = ctx.tracer.open(parent, 0, "epg-engine-gap", "sssp_kernel");
        let walls: Vec<f64> = ds
            .roots
            .iter()
            .take(KERNEL_TIER_ROOTS)
            .map(|&root| {
                let t = Instant::now();
                black_box(engine.run(Algorithm::Sssp, &RunParams::new(pool, Some(root))));
                t.elapsed().as_secs_f64()
            })
            .collect();
        ctx.tracer.close(&mut ctx.spans, open);
        let name = format!("epg-engine-gap.sssp_{}_s", kernel.name());
        ctx.metrics.set(&name, stats::median(&walls), walls.len());
    }
}

/// `run_experiment` against the same engine calls made directly, and the
/// cost of turning its records into CSV, summaries and the report.
pub fn runner_overhead(
    ctx: &mut Ctx<'_>,
    parent: u64,
    ds: &Dataset,
    kinds: &[EngineKind],
    algo: Algorithm,
) {
    let threads = ctx.host.threads;
    let cfg = ExperimentConfig {
        engines: kinds.to_vec(),
        algorithms: vec![algo],
        threads,
        max_roots: Some(PROBE_ROOTS),
        ..ExperimentConfig::new()
    };
    let (result, runner_s) =
        ctx.timed(parent, 0, "epg-harness", "run_experiment", || run_experiment(&cfg, ds));
    let ((), direct_s) = ctx.timed(parent, 0, "bench", "direct_calls", || {
        let pool = ThreadPool::new(threads);
        for &kind in kinds {
            let mut engine = kind.create();
            engine.load_edge_list(ds.edges_for(kind));
            engine.construct(&pool);
            for slot in 0..PROBE_ROOTS {
                let root = algo.is_rooted().then(|| ds.roots[slot]);
                black_box(engine.run(algo, &RunParams::new(&pool, root)));
            }
        }
    });
    ctx.metrics.set("epg-harness.runner_overhead_share", runner_s / direct_s - 1.0, 1);
    let ((), report_s) = ctx.timed(parent, 0, "epg-harness", "report", || {
        black_box(result.to_csv());
        for &kind in kinds {
            black_box(Summary::of(&result.run_times(kind, algo)));
        }
        black_box(report::render(&result, ds, 72));
    });
    ctx.metrics.set("epg-harness.report_s", report_s, 1);
}

/// `regions · region_us ÷ round wall`: the share of a round spent forking
/// and joining, from the round's region count and the empty-region probe,
/// both as measured.
pub fn forkjoin_share(ctx: &mut Ctx<'_>, regions_per_round: f64) {
    let (Some((region_us, _)), Some((sweep_s, n))) =
        (ctx.metrics.get("epg-parallel.region_us"), ctx.metrics.get("bench.sweep_wall_s"))
    else {
        return;
    };
    let share = regions_per_round * region_us * 1e-6 / sweep_s;
    ctx.metrics.set("epg-parallel.forkjoin_share", share, n);
}
