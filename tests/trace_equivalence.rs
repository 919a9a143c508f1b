//! Trace/counters equivalence: the per-region `CountersDelta` stream an
//! engine emits must sum back to exactly the `Counters` aggregate it
//! returns in its `RunOutput`. Every kernel reports through one `RunLog`,
//! so the invariant holds by construction — this suite runs every kernel
//! of every engine to pin that none reports any other way (a kernel that
//! bypassed the log would emit nothing, or bump a counter the log never
//! flushed, and fail here instead of silently skewing `epg-machine`
//! replay projections).

use epg::engine_api::sum_counter_deltas;
use epg::harness::registry::engines_supporting;
use epg::prelude::*;
use epg::trace::Recorder;
use std::sync::Arc;

fn dataset() -> Dataset {
    Dataset::from_spec(&GraphSpec::Kronecker { scale: 7, edge_factor: 8, weighted: true }, 91)
}

#[test]
fn counters_equal_sum_of_trace_deltas_on_every_kernel() {
    let ds = dataset();
    let pool = ThreadPool::new(2);
    for algo in Algorithm::ALL {
        for kind in engines_supporting(algo) {
            // GAP's SSSP is a tier of three kernels; everything else is one.
            let gap_sssp = kind == EngineKind::Gap && algo == Algorithm::Sssp;
            let kernels = if gap_sssp { SsspKernel::ALL.map(Some).to_vec() } else { vec![None] };
            for kernel in kernels {
                let what = format!("{} {algo:?} {kernel:?}", kind.name());
                let mut e = kind.create_with_sssp_kernel(kernel);
                e.load_edge_list(ds.edges_for(kind));
                e.construct(&pool);

                let rec = RunRecorder::new();
                let mut params = RunParams::new(&pool, algo.is_rooted().then(|| ds.roots[0]));
                params.bc_sources = Some(4);
                params.recorder = RecorderCtx::new(&rec);
                let out = e.run(algo, &params);

                let events = rec.events();
                assert!(
                    events.iter().any(|ev| matches!(ev, TraceEvent::Iteration { .. })),
                    "{what}: no per-iteration events recorded"
                );
                assert_eq!(
                    sum_counter_deltas(&events),
                    out.counters,
                    "{what}: trace deltas do not sum to the reported counters"
                );
                assert_eq!(rec.dropped(), 0, "{what}: ring buffer overflowed");
            }
        }
    }
}

#[test]
fn pool_recorder_captures_worker_spans_during_a_run() {
    let ds = dataset();
    let pool = ThreadPool::new(2);
    let mut e = EngineKind::Gap.create();
    e.load_edge_list(ds.edges_for(EngineKind::Gap));
    e.construct(&pool);

    let rec = Arc::new(RunRecorder::new());
    pool.set_recorder(Some(rec.clone() as Arc<dyn Recorder>));
    let mut params = RunParams::new(&pool, Some(ds.roots[0]));
    params.recorder = RecorderCtx::new(&*rec);
    let _ = e.run(Algorithm::Bfs, &params);
    pool.set_recorder(None);

    let events = rec.events();
    let spans: Vec<_> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::WorkerSpan { worker, busy_ns, .. } => Some((*worker, *busy_ns)),
            _ => None,
        })
        .collect();
    assert!(!spans.is_empty(), "pool emitted no worker spans");
    assert!(spans.iter().any(|&(_, busy)| busy > 0), "every worker span reported zero busy time");
    // Both workers should have shown up at least once across the run.
    for w in 0..2u32 {
        assert!(spans.iter().any(|&(worker, _)| worker == w), "worker {w} never recorded a span");
    }
}
