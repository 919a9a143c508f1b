#![allow(clippy::needless_range_loop)]

//! Reporting-stack integration: Granula operation charts, the markdown
//! report, the Graph500 official output block and the thread-sweep
//! runner — all through the public API.

use epg::graph500::teps::TepsStats;
use epg::harness::granula::OperationChart;
use epg::harness::report;
use epg::harness::runner::run_thread_sweep;
use epg::prelude::*;

fn dataset() -> Dataset {
    Dataset::from_spec(&GraphSpec::Kronecker { scale: 8, edge_factor: 8, weighted: true }, 5)
}

#[test]
fn markdown_report_reflects_the_experiment() {
    let ds = dataset();
    let cfg = ExperimentConfig { max_roots: Some(2), ..ExperimentConfig::new() };
    let result = run_experiment(&cfg, &ds);
    let md = report::render(&result, &ds, 32);
    // Structural claims the paper's tables depend on must appear.
    assert!(md.contains("| Graph500 | N/A |") || md.contains("| Graph500 "));
    assert!(md.contains("fused with file read"));
    assert!(md.contains("pseudo-diameter"));
    // GraphMat's extra iterations are visible.
    let gm_iters = result.pr_iterations(EngineKind::GraphMat)[0];
    let gap_iters = result.pr_iterations(EngineKind::Gap)[0];
    assert!(gm_iters >= gap_iters);
}

#[test]
fn granula_chart_accounts_for_run_time() {
    let ds = dataset();
    let cfg = ExperimentConfig {
        algorithms: vec![Algorithm::Bfs],
        max_roots: Some(1),
        ..ExperimentConfig::new()
    };
    let result = run_experiment(&cfg, &ds);
    let model = MachineModel::paper_machine();
    for kind in [EngineKind::Gap, EngineKind::GraphMat] {
        let run = result.runs.iter().find(|r| r.engine == kind).unwrap();
        let rate = run.calibrated_rate(&model);
        let chart = OperationChart::build(
            &[(Phase::Run, run.seconds)],
            &run.output.trace,
            &model,
            rate,
            32,
        );
        let nested: f64 = chart.rows.iter().filter(|r| r.depth == 1).map(|r| r.seconds).sum();
        let projected = run.projected(&model, 32).total_s;
        assert!((nested - projected).abs() < 1e-9, "{}", kind.name());
    }
    // GraphMat's chart shows serial overhead; GAP's does not.
    let gm = result.runs.iter().find(|r| r.engine == EngineKind::GraphMat).unwrap();
    assert!(gm.output.trace.serial_fraction() > 0.0);
}

#[test]
fn graph500_official_block_from_harness_times() {
    let ds = dataset();
    let cfg = ExperimentConfig {
        engines: vec![EngineKind::Graph500],
        algorithms: vec![Algorithm::Bfs],
        max_roots: Some(4),
        ..ExperimentConfig::new()
    };
    let result = run_experiment(&cfg, &ds);
    let times = result.run_times(EngineKind::Graph500, Algorithm::Bfs);
    let construct = result.construct_times(EngineKind::Graph500)[0];
    let stats = TepsStats::from_times(ds.raw.num_edges() as u64, &times);
    let block = stats.official_output(8, 8, construct, &times);
    assert!(block.contains("NBFS:                           4"));
    assert!(block.contains("harmonic_mean_TEPS:"));
    assert!(stats.harmonic_mean > 0.0);
}

#[test]
fn thread_sweep_keeps_results_deterministic() {
    let ds = dataset();
    let cfg = ExperimentConfig {
        engines: vec![EngineKind::Gap, EngineKind::GraphMat],
        algorithms: vec![Algorithm::Sssp],
        max_roots: Some(1),
        ..ExperimentConfig::new()
    };
    let result = run_thread_sweep(&cfg, &ds, &[1, 3]);
    // Same engine, same root, different thread count: identical distances.
    for kind in [EngineKind::Gap, EngineKind::GraphMat] {
        let dists: Vec<_> = result
            .runs
            .iter()
            .filter(|r| r.engine == kind)
            .map(|r| match &r.output.result {
                AlgorithmResult::Distances(d) => d.clone(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(dists.len(), 2);
        for v in 0..dists[0].len() {
            let (a, b) = (dists[0][v], dists[1][v]);
            assert!(
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-4,
                "{} v{v}: {a} vs {b}",
                kind.name()
            );
        }
    }
}
