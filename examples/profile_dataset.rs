//! Profile a dataset and explain where each engine's time goes — the
//! dataset homogenizer's characterization plus Granula-style operation
//! charts (§II), end to end on one workload.
//!
//! ```sh
//! cargo run --release --example profile_dataset
//! ```

use epg::graph::analysis::GraphProfile;
use epg::harness::granula::OperationChart;
use epg::prelude::*;

fn main() {
    // Profile the two real-world stand-ins next to a Kronecker graph to
    // see why the paper picked them: one sparse/unweighted, one dense/
    // weighted, one synthetic power-law.
    let specs = [
        GraphSpec::CitPatents { scale_div: 1024 },
        GraphSpec::DotaLeague { num_vertices: 1000, avg_degree: 100 },
        GraphSpec::Kronecker { scale: 10, edge_factor: 16, weighted: false },
    ];
    for spec in &specs {
        let ds = Dataset::from_spec(spec, 7);
        println!("=== {} ===", ds.name);
        print!("{}", GraphProfile::of(&ds.raw).to_text());
        println!();
    }

    // Operation charts: run BFS once per engine and decompose where the
    // projected 32-thread time would go.
    let ds = Dataset::from_spec(&specs[2], 7);
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
        println!("--- {} BFS operation chart (projected, 32 threads) ---", kind.name());
        print!("{}", chart.to_text());
        println!();
    }
    println!(
        "note how GraphMat's chart shows a serial (Amdahl) component — the\n\
         SpMSpV accumulator merge — that the CSR engines do not have."
    );
}
