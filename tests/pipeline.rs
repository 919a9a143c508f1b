//! End-to-end pipeline integration: all five phases against a temp
//! directory, the Graphalytics comparator, and the machine-model path from
//! measured traces to projected scalability and energy.

use epg::harness::csvio;
use epg::harness::graphalytics::{self, GRAPHALYTICS_ENGINES, TABLE1_ALGOS};
use epg::harness::pipeline::Pipeline;
use epg::prelude::*;

fn temp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("epg_it_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn five_phases_produce_csv_plots_and_parsable_logs() {
    let dir = temp("five_phases");
    let p = Pipeline::new(dir.clone()).unwrap();

    // Phase 1.
    let report = p.setup_report();
    for k in EngineKind::ALL {
        assert!(report.contains(k.name()));
    }

    // Phases 2-5.
    let spec = GraphSpec::Kronecker { scale: 7, edge_factor: 8, weighted: true };
    let ds = Dataset::from_spec(&spec, 5);
    p.homogenize(&ds).unwrap();
    let cfg = ExperimentConfig { threads: 2, max_roots: Some(3), ..ExperimentConfig::new() };
    let written = p.run_all(cfg, &ds).unwrap();
    assert!(written.iter().any(|w| w.ends_with("results.csv")));

    // The CSV has rows for every engine.
    let rows = csvio::read_all(std::fs::File::open(dir.join("results.csv")).unwrap()).unwrap();
    for k in EngineKind::ALL {
        assert!(rows.iter().any(|r| r[0] == k.name()), "no CSV rows for {}", k.name());
    }

    // Plots exist and are valid-ish SVG.
    for f in ["bfs_time.svg", "sssp_time.svg", "pr_time.svg", "construction_time.svg"] {
        let path = dir.join("plots").join(f);
        let content = std::fs::read_to_string(&path).unwrap_or_else(|_| panic!("{f} missing"));
        assert!(content.starts_with("<svg"));
        assert!(content.ends_with("</svg>\n"));
    }

    // Phase-3 logs re-parse through each engine's dialect, and the parsed
    // run times appear in the CSV (the AWK phase is consistent).
    let logs = p.reparse_logs().unwrap();
    assert!(logs.len() >= 5);
    for (name, entries) in &logs {
        assert!(entries.iter().any(|e| e.phase == Phase::Run), "log {name} has no run time");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn phase_3_only_reads_the_files_phase_2_wrote() {
    let dir = temp("read_only_phase3");
    let p = Pipeline::new(dir.clone()).unwrap();
    let ds =
        Dataset::from_spec(&GraphSpec::Kronecker { scale: 6, edge_factor: 8, weighted: true }, 3);
    let written = p.homogenize(&ds).unwrap();
    assert_eq!(written.len(), 4);
    // Back-date every file, so that a rewrite shows in its modification
    // time even on a coarse filesystem clock.
    let past = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30);
    for path in &written {
        std::fs::File::options().write(true).open(path).unwrap().set_modified(past).unwrap();
    }
    let snapshot = || -> Vec<_> {
        let modified = |path| std::fs::metadata(path).unwrap().modified().unwrap();
        written.iter().map(|path| (std::fs::read(path).unwrap(), modified(path))).collect()
    };
    let before = snapshot();
    let cfg = ExperimentConfig { max_roots: Some(1), ..ExperimentConfig::new() };
    let result = p.run(cfg, &ds);
    assert!(!result.run_times(EngineKind::Gap, Algorithm::Bfs).is_empty());
    assert!(snapshot() == before, "phase 3 rewrote a homogenized file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graphalytics_comparator_reproduces_table1_structure() {
    // Weighted dense stand-in (dota-league-like) and an unweighted
    // citation stand-in (cit-Patents-like).
    let dota = Dataset::from_spec(&GraphSpec::DotaLeague { num_vertices: 400, avg_degree: 40 }, 2);
    let cit = Dataset::from_spec(&GraphSpec::CitPatents { scale_div: 8192 }, 2);

    let mut cells = graphalytics::run_graphalytics(&GRAPHALYTICS_ENGINES, &TABLE1_ALGOS, &dota, 2);
    cells.extend(graphalytics::run_graphalytics(&GRAPHALYTICS_ENGINES, &TABLE1_ALGOS, &cit, 2));

    // Structure of Table I:
    for c in &cells {
        let is_na = c.reported_seconds.is_none();
        let expect_na = (c.engine == EngineKind::PowerGraph && c.algorithm == Algorithm::Bfs)
            || (c.algorithm == Algorithm::Sssp && c.dataset.starts_with("cit-Patents"));
        assert_eq!(is_na, expect_na, "{c:?}");
    }

    // The pitfall: GraphMat's reported time strictly includes its read
    // time; GraphBIG's does not include any read time.
    let gm = cells
        .iter()
        .find(|c| c.engine == EngineKind::GraphMat && c.algorithm == Algorithm::PageRank)
        .unwrap();
    let p = gm.true_phases.unwrap();
    assert!(gm.reported_seconds.unwrap() >= p.read_s + p.run_s);
    let gb = cells
        .iter()
        .find(|c| c.engine == EngineKind::GraphBig && c.algorithm == Algorithm::PageRank)
        .unwrap();
    let pb = gb.true_phases.unwrap();
    assert!(gb.reported_seconds.unwrap() < pb.read_s + pb.run_s + pb.output_s);

    // Fig. 7: HTML reports per system.
    for k in GRAPHALYTICS_ENGINES {
        let html = graphalytics::html_report(k, &cells);
        assert!(html.contains(k.name()));
        assert!(html.matches("<tr>").count() >= 3); // header + 2 datasets
    }

    // Table I text rendering contains N/A cells and numbers.
    let table = graphalytics::format_table(
        &cells,
        &GRAPHALYTICS_ENGINES,
        &[dota.name.clone(), cit.name.clone()],
    );
    assert!(table.contains("N/A"));
    assert!(table.contains("GraphMat"));
}

#[test]
fn machine_model_consumes_runner_traces() {
    let ds =
        Dataset::from_spec(&GraphSpec::Kronecker { scale: 8, edge_factor: 8, weighted: false }, 13);
    let cfg = ExperimentConfig {
        algorithms: vec![Algorithm::Bfs],
        max_roots: Some(1),
        ..ExperimentConfig::new()
    };
    let result = run_experiment(&cfg, &ds);
    let model = MachineModel::paper_machine();
    for kind in [EngineKind::Gap, EngineKind::Graph500, EngineKind::GraphBig, EngineKind::GraphMat]
    {
        let run = result
            .runs
            .iter()
            .find(|r| r.engine == kind)
            .unwrap_or_else(|| panic!("no run for {}", kind.name()));
        let rate = run.calibrated_rate(&model);
        let speedup = model.speedup_curve(&run.output.trace, rate, &[1, 2, 4, 8, 16, 32, 64, 72]);
        assert!((speedup[0].1 - 1.0).abs() < 1e-9);
        // Speedup stays positive and bounded.
        for &(n, s) in &speedup {
            assert!(s > 0.0 && s <= n as f64 + 1e-9, "{}: {s} at {n}", kind.name());
        }
        // Energy model produces sane watts.
        let rep = model.energy(&run.output.trace, rate, 32);
        assert!(rep.avg_cpu_w >= model.spec.cpu_idle_w);
        assert!(rep.total_j() > 0.0);
    }
}

#[test]
fn snap_ingestion_to_full_run() {
    // "any network in the SNAP data format can be used" (§III-B).
    let dir = temp("snap_ingest");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mygraph.snap");
    let el = epg::generator::uniform::generate(300, 2500, true, 77);
    epg::graph::snap::write_snap_file(&el, "mygraph", &path).unwrap();

    let ds = Dataset::from_snap_file(&path, 3).unwrap();
    assert_eq!(ds.name, "mygraph");
    assert!(ds.weighted);
    let cfg = ExperimentConfig { max_roots: Some(2), ..ExperimentConfig::new() };
    let result = run_experiment(&cfg, &ds);
    assert!(!result.run_times(EngineKind::Gap, Algorithm::Sssp).is_empty());
    assert!(!result.run_times(EngineKind::PowerGraph, Algorithm::PageRank).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
