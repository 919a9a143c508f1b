//! `ingest_files`: the phase separation the paper insists on. Set-up
//! writes the homogenized files; the timed region takes a fresh engine
//! through `load_file` then `construct`, for all five engines, so
//! `epg-graph`'s scanner, codec and CSR builds do the work and the
//! kernels none. The page cache is warm: the files were just written.

use crate::check;
use crate::host;
use crate::inputs;
use crate::kernels::layer_of;
use crate::probes;
use crate::run::{At, Ctx, PoolCounts};
use crate::stats::{self, Timing};
use epg::graph::{oracle, Csr, EdgeList};
use epg::prelude::*;
use std::path::PathBuf;
use std::time::Instant;

/// Percentile of the pooled load and construct times reported as
/// `bench.op_tail_ms`; it falls inside GraphBIG's text loads.
const TAIL_PERCENTILE: f64 = 90.0;

/// Loads per round: the fused readers (GraphBIG streams text, PowerGraph
/// partitions while decoding) are several times slower than the binary
/// decoders, so they contribute fewer operations.
fn loads_per_round(kind: EngineKind) -> usize {
    match kind {
        EngineKind::GraphBig | EngineKind::PowerGraph => 1,
        _ => 2,
    }
}

/// The files of the current epoch, and the engines its first round loaded.
struct State {
    pool: ThreadPool,
    ds: Dataset,
    dir: PathBuf,
    /// Per engine, the freshly loaded engine kept for the check.
    loaded: Vec<Option<Box<dyn Engine>>>,
}

/// Timed `load_file` and `construct` calls of one engine, across epochs.
#[derive(Default)]
struct Samples {
    load_s: Vec<f64>,
    construct_s: Vec<f64>,
    /// The epoch each of `load_s`, and each of `construct_s`, was measured in.
    load_epoch: Vec<usize>,
    construct_epoch: Vec<usize>,
}

fn set_up(ctx: &mut Ctx<'_>, parent: u64) -> State {
    let pool = ThreadPool::new(ctx.host.threads);
    let scale = if ctx.opts.quick { 10 } else { 15 };
    let spec = GraphSpec::Kronecker { scale, edge_factor: 16, weighted: true };
    let ds = inputs::dataset(ctx, parent, &spec, &pool);
    let dir = host::out_dir().join(format!("data-{}-{}", ctx.opts.workload, ctx.opts.seed));
    let (written, write_s) = ctx.timed(parent, 0, "epg-harness", "write_files", || {
        ds.write_files_parallel(&dir, &pool).expect("homogenized files are writable")
    });
    let bytes: u64 =
        written.iter().filter_map(|p| std::fs::metadata(p).ok()).map(|m| m.len()).sum();
    ctx.metrics.set("epg-harness.write_files_s", write_s, 1);
    ctx.metrics.set("epg-harness.file_mb", bytes as f64 / 1e6, written.len());
    State { pool, ds, dir, loaded: EngineKind::ALL.iter().map(|_| None).collect() }
}

/// One fresh engine through `load_file` then `construct`, each timed.
fn load_once(ctx: &mut Ctx<'_>, st: &mut State, seen: &mut Samples, ci: usize, at: At, keep: bool) {
    let kind = EngineKind::ALL[ci];
    let path = st.ds.input_path_for(&st.dir, kind);
    let mut engine = kind.create();
    let (loaded, load_s) = ctx
        .timed(at.parent, ci as u64, layer_of(kind), "load", || engine.load_file(&path, &st.pool));
    ctx.outcome.attempted += 1;
    if let Err(why) = loaded {
        ctx.outcome.failed += 1;
        ctx.notes.push(format!("LOAD FAILED {}: {why}", kind.name()));
        return;
    }
    seen.load_s.push(load_s);
    seen.load_epoch.push(at.epoch);
    let ((), construct_s) =
        ctx.timed(at.parent, ci as u64, layer_of(kind), "construct", || engine.construct(&st.pool));
    // Fused engines built during the load; their construct is a no-op.
    if engine.separable_construction() {
        ctx.outcome.attempted += 1;
        seen.construct_s.push(construct_s);
        seen.construct_epoch.push(at.epoch);
    }
    if keep {
        st.loaded[ci] = Some(engine);
    }
}

fn round(ctx: &mut Ctx<'_>, st: &mut State, samples: &mut [Samples], at: At) {
    let reps = EngineKind::ALL.into_iter().map(loads_per_round).max().unwrap_or(1);
    for rep in 0..reps {
        for (ci, seen) in samples.iter_mut().enumerate() {
            if loads_per_round(EngineKind::ALL[ci]) > rep {
                load_once(ctx, st, seen, ci, at, at.first_in_epoch && rep == 0);
            }
        }
    }
}

/// Proves each load by running one untimed kernel from a fixed root on
/// the freshly loaded engine (BFS, or SSSP where there is no BFS).
fn verify(ctx: &mut Ctx<'_>, st: &mut State) -> Vec<u64> {
    let el = &st.ds.symmetric;
    let g = Csr::from_edge_list(el);
    // SNAP text carries no vertex count: a reader takes `max id + 1`, so
    // isolated vertices above the highest endpoint are not in a graph
    // loaded from text. The oracle for a text reader runs on that graph.
    let text_vertices = el.edges.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0);
    let g_text = (text_vertices != el.num_vertices)
        .then(|| Csr::from_edge_list(&EdgeList { num_vertices: text_vertices, ..el.clone() }));
    let root = st.ds.roots[0];
    let mut failed = vec![0u64; st.loaded.len()];
    for (ci, loaded) in st.loaded.iter_mut().enumerate() {
        ctx.outcome.attempted += 1;
        let Some(engine) = loaded.as_mut() else {
            failed[ci] += 1;
            continue;
        };
        let kind = EngineKind::ALL[ci];
        let reads_text =
            st.ds.input_path_for(&st.dir, kind).extension().is_some_and(|e| e == "snap");
        let g = g_text.as_ref().filter(|_| reads_text).unwrap_or(&g);
        let params = RunParams::new(&st.pool, Some(root));
        let verdict = if engine.supports(Algorithm::Bfs) {
            let want = oracle::bfs(g, root).level;
            check::bfs(g, root, &want, &engine.run(Algorithm::Bfs, &params).result)
        } else {
            let want = oracle::dijkstra(g, root);
            check::sssp(g, root, &want, &engine.run(Algorithm::Sssp, &params).result)
        };
        if let Err(why) = verdict {
            failed[ci] += 1;
            ctx.notes
                .push(format!("CHECK FAILED {} after load: {why}", EngineKind::ALL[ci].name()));
        }
    }
    failed
}

pub fn run(ctx: &mut Ctx<'_>) {
    let mut samples: Vec<Samples> = EngineKind::ALL.iter().map(|_| Samples::default()).collect();
    let mut pool_counts = PoolCounts::default();
    let (mut st, rounds) = ctx.epochs(
        set_up,
        |_ctx, st, _parent| {
            // One discarded warm-up load per engine.
            for kind in EngineKind::ALL {
                let mut engine = kind.create();
                engine
                    .load_file(&st.ds.input_path_for(&st.dir, kind), &st.pool)
                    .expect("warm-up load");
                engine.construct(&st.pool);
            }
        },
        |ctx, st, at| {
            let before = st.pool.stats();
            round(ctx, st, &mut samples, at);
            pool_counts.add(before, st.pool.stats());
        },
    );

    let open = ctx.tracer.open(ctx.root, 0, "epg-engine-api", "verify");
    let t = Instant::now();
    let failed = verify(ctx, &mut st);
    ctx.metrics.set("epg-engine-api.verify_s", t.elapsed().as_secs_f64(), 1);
    ctx.tracer.close(&mut ctx.spans, open);
    ctx.outcome.failed += failed.iter().sum::<u64>();

    let nominal_quartile = |secs: &[f64], epochs: &[usize]| {
        let nominal: Vec<f64> =
            secs.iter().zip(epochs).map(|(&s, &e)| rounds.at_nominal(e, s)).collect();
        stats::lower_quartile(&nominal)
    };
    let mut cell_ms = Vec::new();
    let mut pooled = Vec::new();
    let (mut read_fused, mut read_bin, mut construct) = (0.0, 0.0, 0.0);
    for ((kind, seen), &bad) in EngineKind::ALL.into_iter().zip(&samples).zip(&failed) {
        let layer = layer_of(kind);
        let load = Timing::of(&seen.load_s);
        ctx.metrics.set(&format!("{layer}.load_s"), load.median, load.n);
        ctx.metrics.set(&format!("{layer}.verify_failed"), bad as f64, 1);
        ctx.notes.push(format!(
            "cell {}/load_file: median {:.4} ms, n {}",
            kind.name(),
            load.median * 1e3,
            load.n
        ));
        cell_ms.push(nominal_quartile(&seen.load_s, &seen.load_epoch) * 1e3);
        pooled.extend(seen.load_s.iter().map(|s| s * 1e3));
        if seen.construct_s.is_empty() {
            read_fused += load.median;
            continue;
        }
        read_bin += load.median;
        let build = Timing::of(&seen.construct_s);
        construct += build.median;
        ctx.metrics.set(&format!("{layer}.construct_s"), build.median, build.n);
        ctx.notes.push(format!(
            "cell {}/construct: median {:.4} ms, n {}",
            kind.name(),
            build.median * 1e3,
            build.n
        ));
        cell_ms.push(nominal_quartile(&seen.construct_s, &seen.construct_epoch) * 1e3);
        pooled.extend(seen.construct_s.iter().map(|s| s * 1e3));
    }
    ctx.metrics.set("bench.read_fused_s", read_fused, 2);
    ctx.metrics.set("bench.read_bin_s", read_bin, 3);
    ctx.metrics.set("bench.construct_s", construct, 3);
    ctx.end_to_end(&rounds, &cell_ms);
    ctx.op_tail(TAIL_PERCENTILE, &pooled);
    let regions = ctx.pool_counts(&pool_counts);

    if ctx.opts.trace {
        let probe = ctx.tracer.open(ctx.root, 0, "bench", "probes");
        probes::common(ctx, probe.id, &st.ds, &st.pool);
        ctx.tracer.close(&mut ctx.spans, probe);
        probes::forkjoin_share(ctx, regions);
    }
    std::fs::remove_dir_all(&st.dir).ok();
}
