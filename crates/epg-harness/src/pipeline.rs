//! The five-phase pipeline, end to end (Fig. 1).
//!
//! Each cyan box of the paper's Fig. 1 is one method here; the green
//! ellipses are the files written under the output directory:
//!
//! ```text
//! out/
//!   datasets/<name>.{snap,bin,sym.snap,sym.bin}   (phase 2)
//!   datasets/logs/<engine>_<algo>_<name>.log      (phase 3)
//!   results.csv                                   (phase 4)
//!   plots/*.svg, summary.txt                      (phase 5)
//! ```
//!
//! Phase 2 is the only writer of the homogenized files
//! ([`Pipeline::homogenize`]) and phase 3 only reads them, through the one
//! timing loop ([`run_experiment`]). The Graphalytics comparator's Tables
//! I-II are the same loop's records, summed per system the way each
//! platform driver reports them ([`crate::graphalytics`]).

use crate::dataset::Dataset;
use crate::plot::{self, Scale};
use crate::registry::EngineKind;
use crate::runner::{run_experiment, ExperimentConfig, ExperimentResult};
use epg_engine_api::{Algorithm, Phase};
use std::io;
use std::path::PathBuf;

/// Pipeline driver bound to an output directory.
pub struct Pipeline {
    /// Root of all written artifacts.
    pub out_dir: PathBuf,
}

impl Pipeline {
    /// Creates a pipeline rooted at `out_dir` (created if missing).
    pub fn new(out_dir: PathBuf) -> io::Result<Pipeline> {
        std::fs::create_dir_all(&out_dir)?;
        Ok(Pipeline { out_dir })
    }

    /// Phase 1: report the installed engines (our "stable forks").
    pub fn setup_report(&self) -> String {
        let mut out = String::from("installed engines:\n");
        for k in EngineKind::ALL {
            let e = k.create();
            let info = e.info();
            out.push_str(&format!(
                "  {:<11} repr={:<40} parallelism={}\n",
                info.name, info.representation, info.parallelism
            ));
        }
        out
    }

    /// Where phase 2 writes the homogenized files and phase 3 its logs.
    pub fn datasets_dir(&self) -> PathBuf {
        self.out_dir.join("datasets")
    }

    /// Phase 2: writes a built (generated or parsed, then homogenized)
    /// dataset's files into `out/datasets/`. Returns the paths written.
    pub fn homogenize(&self, ds: &Dataset) -> io::Result<Vec<PathBuf>> {
        ds.write_files(&self.datasets_dir())
    }

    /// Phase 3: run the experiment on the files [`Self::homogenize`] wrote
    /// (logs emitted next to them).
    pub fn run(&self, mut cfg: ExperimentConfig, ds: &Dataset) -> ExperimentResult {
        cfg.input_dir = Some(self.datasets_dir());
        run_experiment(&cfg, ds)
    }

    /// Phase 4: compress results into `out/results.csv`.
    pub fn parse(&self, result: &ExperimentResult) -> io::Result<PathBuf> {
        let path = self.out_dir.join("results.csv");
        std::fs::write(&path, result.to_csv())?;
        Ok(path)
    }

    /// Phase 5: statistics and SVG plots into `out/plots/`.
    /// Returns the written file paths.
    pub fn analyze(&self, result: &ExperimentResult, ds: &Dataset) -> io::Result<Vec<PathBuf>> {
        let plot_dir = self.out_dir.join("plots");
        std::fs::create_dir_all(&plot_dir)?;
        let mut written = Vec::new();
        let mut summary_txt = String::new();

        for algo in [Algorithm::Bfs, Algorithm::Sssp, Algorithm::PageRank] {
            let groups = plot::engine_boxes(&EngineKind::ALL, |k| result.run_times(k, algo));
            if groups.is_empty() {
                continue;
            }
            for (name, s) in &groups {
                summary_txt.push_str(&format!(
                    "{} {}: median={:.6}s mean={:.6}s sd={:.6} rsd={:.3} n={}\n",
                    name,
                    algo.abbrev(),
                    s.median,
                    s.mean,
                    s.stddev,
                    s.relative_stddev(),
                    s.n
                ));
            }
            let svg = plot::boxplot(
                &format!("{} Time ({})", algo.abbrev(), ds.name),
                "Time (seconds)",
                &groups,
                Scale::Log,
            );
            let path = plot_dir.join(format!("{}_time.svg", algo.abbrev().to_lowercase()));
            std::fs::write(&path, svg)?;
            written.push(path);
        }

        // Construction-time plot (Figs. 2/3 right panels).
        let groups = plot::engine_boxes(&EngineKind::ALL, |k| result.construct_times(k));
        if !groups.is_empty() {
            let svg = plot::boxplot(
                &format!("Data Structure Construction ({})", ds.name),
                "Time (seconds)",
                &groups,
                Scale::Log,
            );
            let path = plot_dir.join("construction_time.svg");
            std::fs::write(&path, svg)?;
            written.push(path);
        }

        // PageRank iteration bars (Fig. 4 right panel).
        let bars = plot::iteration_bars(&EngineKind::ALL, result);
        if !bars.is_empty() {
            let svg = plot::bar_chart("PageRank Iterations", "Iterations", &bars);
            let path = plot_dir.join("pr_iterations.svg");
            std::fs::write(&path, svg)?;
            written.push(path);
        }

        // Granula-style operation charts: one per engine, for its first
        // kernel run (phase times + machine-model kernel decomposition).
        let granula_dir = self.out_dir.join("granula");
        std::fs::create_dir_all(&granula_dir)?;
        let model = epg_machine::MachineModel::paper_machine();
        for kind in EngineKind::ALL {
            let Some(run) = result.runs.iter().find(|r| r.engine == kind) else { continue };
            let read = result
                .records
                .iter()
                .find(|r| r.engine == kind && r.phase == Phase::ReadFile)
                .map_or(0.0, |r| r.seconds);
            let construct = result
                .records
                .iter()
                .find(|r| r.engine == kind && r.phase == Phase::Construct)
                .map_or(0.0, |r| r.seconds);
            let phases =
                [(Phase::ReadFile, read), (Phase::Construct, construct), (Phase::Run, run.seconds)];
            let rate = run.calibrated_rate(&model);
            let chart =
                crate::granula::OperationChart::build(&phases, &run.output.trace, &model, rate, 32);
            let path = granula_dir.join(format!("{}_{}.txt", kind.name(), run.algorithm.abbrev()));
            std::fs::write(&path, chart.to_text())?;
            written.push(path);
        }

        let path = self.out_dir.join("summary.txt");
        std::fs::write(&path, summary_txt)?;
        written.push(path);

        // The combined markdown report.
        let path = self.out_dir.join("report.md");
        std::fs::write(&path, crate::report::render(result, ds, 32))?;
        written.push(path);
        Ok(written)
    }

    /// Phases 3-5 on a homogenized dataset, what `epg all` runs after
    /// phase 2. Returns `results.csv`, then the files [`Self::analyze`]
    /// wrote.
    pub fn run_all(&self, cfg: ExperimentConfig, ds: &Dataset) -> io::Result<Vec<PathBuf>> {
        let result = self.run(cfg, ds);
        let mut written = vec![self.parse(&result)?];
        written.extend(self.analyze(&result, ds)?);
        Ok(written)
    }

    /// Re-parses the phase-3 logs on disk (the AWK step) — used to verify
    /// the CSV against independently parsed logs.
    pub fn reparse_logs(&self) -> io::Result<Vec<(String, Vec<crate::logs::LogEntry>)>> {
        let log_dir = self.datasets_dir().join("logs");
        let mut out = Vec::new();
        for entry in std::fs::read_dir(log_dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            // Telemetry streams (*.trace.jsonl) are not dialect logs; they
            // have their own parser (`crate::tracefile`).
            if name.ends_with(".trace.jsonl") {
                continue;
            }
            let Some(engine) = name.split('_').next().and_then(EngineKind::from_name) else {
                continue;
            };
            let style = engine.create().log_style();
            let text = std::fs::read_to_string(entry.path())?;
            out.push((name, crate::logs::parse_log(style, &text)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_generator::GraphSpec;

    #[test]
    fn end_to_end_pipeline_writes_everything() {
        let dir = std::env::temp_dir().join("epg_pipeline_test");
        std::fs::remove_dir_all(&dir).ok();
        let p = Pipeline::new(dir.clone()).unwrap();
        let spec = GraphSpec::Kronecker { scale: 6, edge_factor: 8, weighted: true };
        let ds = Dataset::from_spec(&spec, 7);
        p.homogenize(&ds).unwrap();
        let cfg = ExperimentConfig { threads: 1, max_roots: Some(2), ..ExperimentConfig::new() };
        let written = p.run_all(cfg, &ds).unwrap();
        assert!(written.iter().any(|w| w.ends_with("results.csv")));
        assert!(dir.join("plots").join("bfs_time.svg").exists());
        assert!(dir.join("granula").read_dir().unwrap().count() >= 4);
        let report = std::fs::read_to_string(dir.join("report.md")).unwrap();
        assert!(report.contains("## Projected energy"));
        assert!(dir.join("plots").join("pr_iterations.svg").exists());
        assert!(dir.join("summary.txt").exists());
        // Phase-4 CSV parses back.
        let rows =
            crate::csvio::read_all(std::fs::File::open(dir.join("results.csv")).unwrap()).unwrap();
        assert!(rows.len() > 5);
        // Logs re-parse through the dialect parsers.
        let logs = p.reparse_logs().unwrap();
        assert!(!logs.is_empty());
        for (name, entries) in &logs {
            assert!(!entries.is_empty(), "log {name} parsed empty");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn setup_report_lists_all_engines() {
        let dir = std::env::temp_dir().join("epg_pipeline_setup_test");
        let p = Pipeline::new(dir.clone()).unwrap();
        let rep = p.setup_report();
        for k in EngineKind::ALL {
            assert!(rep.contains(k.name()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
