//! `epg reproduce`, in process: every artefact at the smallest size every
//! deterministic claim holds at, and the structure each one must show.

use epg_engine_api::Algorithm;
use epg_harness::graphalytics::{GRAPHALYTICS_ENGINES, TABLE1_ALGOS};
use epg_harness::reproduce::claims::CLAIMS;
use epg_harness::reproduce::{self, Options, ARTEFACTS};
use epg_harness::supervise::TrialOutcome;
use epg_harness::EngineKind::{self, PowerGraph};
use std::path::{Path, PathBuf};

/// The files the 17 `epg-bench` binaries wrote under `<out>/figures/`.
const FIGURES: [&str; 17] = [
    "fig1_pipeline.svg",
    "fig2_bfs_time.svg",
    "fig2_construction.svg",
    "fig3_construction.svg",
    "fig3_sssp_time.svg",
    "fig4_pr_iterations.svg",
    "fig4_pr_time.svg",
    "fig5_bfs_speedup.svg",
    "fig6_bfs_efficiency.svg",
    "fig7_graphalytics_GraphBIG.html",
    "fig7_graphalytics_GraphMat.html",
    "fig7_graphalytics_PowerGraph.html",
    "fig8_bfs.svg",
    "fig8_pr.svg",
    "fig8_sssp.svg",
    "fig9_cpu_power.svg",
    "fig9_ram_power.svg",
];

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(scale: u32, out_dir: PathBuf) -> Options {
    Options { full: false, scale: Some(scale), threads: 1, roots: 1, seed: 10, out_dir }
}

#[test]
fn every_artefact_reproduces_and_every_deterministic_claim_holds() {
    let opts = options(10, fresh_dir("reproduce-all"));
    let mut ledger = Vec::new();
    for artefact in &ARTEFACTS {
        let mut printed = Vec::new();
        let (facts, lines) = reproduce::reproduce_one(artefact, &opts, &mut printed)
            .unwrap_or_else(|e| panic!("{}: {e}", artefact.id));
        let printed = String::from_utf8(printed).expect("tables are text");
        // A trial that did not pass prints its outcome and reason in place
        // of its time: no row of any artefact may.
        for dnf in [TrialOutcome::Timeout, TrialOutcome::Panicked, TrialOutcome::Quarantined] {
            let failed = format!("{}: ", dnf.label());
            assert!(!printed.contains(&failed), "{}: a row failed\n{printed}", artefact.id);
        }
        match artefact.id {
            // Table I's N/A structure: PowerGraph has no BFS, and nothing
            // runs SSSP on the unweighted cit-Patents.
            "table1" => {
                for (engine, algo) in
                    GRAPHALYTICS_ENGINES.iter().flat_map(|e| TABLE1_ALGOS.map(|a| (*e, a)))
                {
                    for dataset in ["cit", "dota"] {
                        let na = (engine == PowerGraph && algo == Algorithm::Bfs)
                            || (algo == Algorithm::Sssp && dataset == "cit");
                        let cell =
                            format!("reported.{}.{dataset}.{}", algo.abbrev(), engine.name());
                        assert_eq!(
                            facts.find(&cell).is_none(),
                            na,
                            "N/A structure broke at {cell}"
                        );
                    }
                }
            }
            "fig2" => {
                assert_eq!(facts.get("construct_phases.GraphBIG"), 0.0);
                assert!(printed.contains("\nGraphBIG: omitted"), "{printed}");
            }
            "fig3" => {
                assert_eq!(facts.get("runs.Graph500"), 0.0);
                assert!(!printed.contains("Graph500"), "{printed}");
            }
            "fig5_6" => {
                for engine in EngineKind::ALL {
                    let trials = facts.get(&format!("trials.{}", engine.name()));
                    assert_eq!(trials, if engine == PowerGraph { 0.0 } else { 4.0 }, "{engine:?}");
                }
            }
            "ablation_sched" => {
                // The same work under every schedule: one checksum.
                let rows = printed.lines().skip_while(|l| !l.starts_with("schedule")).skip(1);
                let sums: Vec<_> =
                    rows.take(6).filter_map(|r| r.split_whitespace().nth(1)).collect();
                assert!(sums.len() == 6 && sums.iter().all(|&s| s == sums[0]), "{printed}");
            }
            "extensions" => {
                let counts = facts.ranked("triangles");
                assert_eq!(counts.len(), 4, "GAP, GraphBIG, GraphMat and PowerGraph: {counts:?}");
                assert!(counts[0].1 > 0.0 && counts[0].1 == counts[3].1, "{counts:?}");
                assert!(printed.contains("all supporting engines agree."));
            }
            _ => {}
        }
        ledger.extend(lines);
    }

    let mut written: Vec<String> = std::fs::read_dir(opts.out_dir.join("figures"))
        .expect("figures directory")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(written, FIGURES);

    let judged: Vec<&str> = ledger.iter().map(|l| l.claim.id).collect();
    assert_eq!(judged, CLAIMS.iter().map(|c| c.id).collect::<Vec<_>>(), "each claim exactly once");
    for line in ledger.iter().filter(|l| l.claim.basis.is_deterministic()) {
        assert!(line.verdict.holds, "{} deviates: {}", line.claim.id, line.verdict.margin);
    }
}

#[test]
fn run_writes_the_ledger_and_rejects_bad_requests_before_creating_anything() {
    let opts = options(8, fresh_dir("reproduce-run"));
    let ids = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    for (request, scale) in [(ids(&["fig2", "fig10"]), 8), (ids(&[]), 8), (ids(&["fig2"]), 2048)] {
        let opts = Options { scale: Some(scale), ..opts.clone() };
        let err = reproduce::run(&request, &opts, &mut Vec::new()).err().expect("rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(!opts.out_dir.exists(), "{request:?} at scale {scale} created the out directory");
    }

    let mut printed = Vec::new();
    let ledger = reproduce::run(&ids(&["fig1", "fig4"]), &opts, &mut printed).expect("runs");
    assert_eq!(ledger.len(), CLAIMS.iter().filter(|c| c.artefact == "fig4").count());
    let on_disk = std::fs::read_to_string(opts.out_dir.join("claims.md")).expect("claims.md");
    assert!(
        on_disk.contains("| `graphmat_pr_iterates_longest` | fig4 | counters | holds |"),
        "{on_disk}"
    );
    assert!(String::from_utf8(printed).unwrap().ends_with(&on_disk), "the ledger ends the output");
}
