//! Phase 3: the experiment runner.
//!
//! "Given a graph and the number of threads, run each algorithm using each
//! software package multiple times" (§III, item 3). The runner owns every
//! wall clock: engines only report phase boundaries, so all systems are
//! timed identically — the fairness property Table I shows Graphalytics
//! lacking. Rooted algorithms run once per sampled root (32 by default);
//! PageRank "is simply run 32 times" (§III-B); the Graphalytics-only
//! kernels run once.
//!
//! Every trial but betweenness's is verified ([`verify_output`]) after
//! its clock stops, against one CSR of the symmetric graph built before
//! any engine runs and the sequential oracle's answers for it
//! ([`Expected`]), each computed at most once per dataset: results are
//! checked on every engine, and no timer or trace holds the check.
//!
//! This is the only phase-3 timing loop. It reads the files phase 2 wrote
//! ([`ExperimentConfig::input_dir`]) and never writes them. The
//! Graphalytics comparator of Tables I-II is a view of its records: one
//! trial per cell, with each system's phases summed its own way
//! ([`crate::graphalytics`]).

use crate::dataset::Dataset;
use crate::registry::EngineKind;
use crate::supervise::{
    supervise_trial, verify_output, Expected, QuarantineBook, SupervisorConfig, TrialOutcome,
};
use crate::tracefile::{Capture, TraceBundle};
use crate::{csvio, logs};
use epg_engine_api::{Algorithm, FaultPlan, FaultyEngine, Phase, RunOutput, RunParams, SsspKernel};
use epg_graph::{Csr, VertexId};
use epg_machine::{MachineModel, Projection};
use epg_parallel::ThreadPool;
use std::path::PathBuf;
use std::time::Instant;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Engines to run (engines that don't support an algorithm are
    /// skipped, as in the paper's figures).
    pub engines: Vec<EngineKind>,
    /// Algorithms to run.
    pub algorithms: Vec<Algorithm>,
    /// Thread-pool size for real execution.
    pub threads: usize,
    /// Trials per root (Figs. 5-6 use 4 trials; everything else 1).
    pub trials: u32,
    /// Cap on roots / PageRank repetitions (None = the dataset's 32).
    pub max_roots: Option<usize>,
    /// The directory phase 2 homogenized the dataset into: engines load
    /// its files (the real read path), and the dialect logs and traces go
    /// to its `logs/`. `None` loads the in-memory edge lists and writes
    /// nothing.
    pub input_dir: Option<PathBuf>,
    /// Trial supervision policy: per-trial budget, retries, quarantine.
    pub supervisor: SupervisorConfig,
    /// SSSP kernel override for engines exposing the raw-speed tier
    /// (currently GAP). `None` keeps each engine's paper default.
    pub sssp_kernel: Option<SsspKernel>,
    /// Deterministic fault plans, keyed by engine: the engine is wrapped
    /// in a [`FaultyEngine`] decorator before running. Empty outside the
    /// supervision tests.
    pub fault_plans: Vec<(EngineKind, FaultPlan)>,
}

impl ExperimentConfig {
    /// A small default: every engine, the core trio, one thread.
    pub fn new() -> ExperimentConfig {
        ExperimentConfig {
            engines: EngineKind::ALL.to_vec(),
            algorithms: Algorithm::CORE.to_vec(),
            threads: 1,
            trials: 1,
            max_roots: None,
            input_dir: None,
            supervisor: SupervisorConfig::default(),
            sssp_kernel: None,
            fault_plans: Vec::new(),
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::new()
    }
}

/// One timed observation — a row of the phase-4 CSV.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Engine.
    pub engine: EngineKind,
    /// Dataset name.
    pub dataset: String,
    /// Algorithm (None for the load/construct phases, which are shared).
    pub algorithm: Option<Algorithm>,
    /// Thread count.
    pub threads: usize,
    /// Which phase this row times.
    pub phase: Phase,
    /// Root vertex for rooted runs.
    pub root: Option<VertexId>,
    /// Trial index.
    pub trial: u32,
    /// Measured seconds.
    pub seconds: f64,
    /// PageRank iterations, when applicable.
    pub iterations: Option<u32>,
    /// How the trial ended; only `Ok` rows carry a performance sample.
    pub outcome: TrialOutcome,
    /// SSSP kernel the row ran under (SSSP run rows on kernel-aware
    /// engines only).
    pub kernel: Option<SsspKernel>,
}

impl RunRecord {
    /// A completed, zero-second, algorithm-less row of `phase`: what every
    /// row starts from, so each site spells out only what it measured.
    pub fn new(engine: EngineKind, dataset: &str, threads: usize, phase: Phase) -> RunRecord {
        RunRecord {
            engine,
            dataset: dataset.to_string(),
            algorithm: None,
            threads,
            phase,
            root: None,
            trial: 0,
            seconds: 0.0,
            iterations: None,
            outcome: TrialOutcome::Ok,
            kernel: None,
        }
    }
}

/// A kernel invocation's full output, kept for the machine model.
pub struct RunInfo {
    /// Engine.
    pub engine: EngineKind,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Root, for rooted algorithms.
    pub root: Option<VertexId>,
    /// Measured kernel seconds.
    pub seconds: f64,
    /// The engine's output (result + counters + trace).
    pub output: RunOutput,
}

impl RunInfo {
    /// `model`'s per-thread work rate calibrated from this run's own
    /// kernel seconds, so that one projected thread reproduces them.
    pub fn calibrated_rate(&self, model: &MachineModel) -> f64 {
        model.calibrate_rate(&self.output.trace, self.seconds.max(1e-9))
    }

    /// This run's trace projected onto `threads` threads of `model`'s
    /// machine at [`Self::calibrated_rate`].
    pub fn projected(&self, model: &MachineModel, threads: usize) -> Projection {
        model.project(&self.output.trace, self.calibrated_rate(model), threads)
    }
}

/// Everything an experiment produces.
pub struct ExperimentResult {
    /// Flat timing records (phase 4 rows).
    pub records: Vec<RunRecord>,
    /// Full outputs for trace-based analysis.
    pub runs: Vec<RunInfo>,
    /// Telemetry of the first observation of each engine × algorithm pair.
    pub traces: Vec<TraceBundle>,
}

impl ExperimentResult {
    /// Kernel-time samples for one engine/algorithm pair — completed
    /// trials only; DNF rows are counted by [`Self::dnf_count`].
    pub fn run_times(&self, engine: EngineKind, algo: Algorithm) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| {
                r.engine == engine
                    && r.algorithm == Some(algo)
                    && r.phase == Phase::Run
                    && r.outcome == TrialOutcome::Ok
            })
            .map(|r| r.seconds)
            .collect()
    }

    /// Did-not-finish trial count for one engine/algorithm pair.
    pub fn dnf_count(&self, engine: EngineKind, algo: Algorithm) -> usize {
        self.records
            .iter()
            .filter(|r| {
                r.engine == engine
                    && r.algorithm == Some(algo)
                    && r.phase == Phase::Run
                    && r.outcome.is_dnf()
            })
            .count()
    }

    /// Per-outcome row counts over all run-phase records, in label order.
    pub fn outcome_counts(&self) -> Vec<(TrialOutcome, usize)> {
        [TrialOutcome::Ok, TrialOutcome::Timeout, TrialOutcome::Panicked, TrialOutcome::Quarantined]
            .into_iter()
            .map(|o| {
                (o, self.records.iter().filter(|r| r.phase == Phase::Run && r.outcome == o).count())
            })
            .collect()
    }

    /// File-read ("ReadFile" phase) samples for one engine at one thread
    /// count — feeds the ingest-phase table's read/build speedup column
    /// when the result spans a thread sweep.
    pub fn read_times_at(&self, engine: EngineKind, threads: usize) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.engine == engine && r.phase == Phase::ReadFile && r.threads == threads)
            .map(|r| r.seconds)
            .collect()
    }

    /// Construction-time samples for one engine at one thread count.
    pub fn construct_times_at(&self, engine: EngineKind, threads: usize) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.engine == engine && r.phase == Phase::Construct && r.threads == threads)
            .map(|r| r.seconds)
            .collect()
    }

    /// The distinct thread counts present in the records, ascending.
    pub fn thread_counts(&self) -> Vec<usize> {
        let mut t: Vec<usize> = self.records.iter().map(|r| r.threads).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Construction-time samples for one engine (empty when fused).
    pub fn construct_times(&self, engine: EngineKind) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.engine == engine && r.phase == Phase::Construct)
            .map(|r| r.seconds)
            .collect()
    }

    /// PageRank iteration counts per engine.
    pub fn pr_iterations(&self, engine: EngineKind) -> Vec<u32> {
        self.records
            .iter()
            .filter(|r| r.engine == engine && r.algorithm == Some(Algorithm::PageRank))
            .filter_map(|r| r.iterations)
            .collect()
    }

    /// Serializes all records as the phase-4 CSV.
    pub fn to_csv(&self) -> String {
        let mut buf = Vec::new();
        csvio::write_row(
            &mut buf,
            &[
                "engine",
                "dataset",
                "algorithm",
                "threads",
                "phase",
                "root",
                "trial",
                "seconds",
                "iterations",
                "outcome",
                "kernel",
            ],
        )
        .unwrap();
        for r in &self.records {
            csvio::write_row(
                &mut buf,
                &[
                    r.engine.name(),
                    &r.dataset,
                    r.algorithm.map_or("", |a| a.abbrev()),
                    &r.threads.to_string(),
                    r.phase.label(),
                    &r.root.map_or(String::new(), |x| x.to_string()),
                    &r.trial.to_string(),
                    &format!("{:.9}", r.seconds),
                    &r.iterations.map_or(String::new(), |x| x.to_string()),
                    r.outcome.label(),
                    r.kernel.map_or("", |k| k.name()),
                ],
            )
            .unwrap();
        }
        String::from_utf8(buf).expect("CSV is UTF-8")
    }
}

/// Runs a full experiment over one dataset.
pub fn run_experiment(cfg: &ExperimentConfig, ds: &Dataset) -> ExperimentResult {
    let pool = ThreadPool::new(cfg.threads.max(1));
    let mut records = Vec::new();
    let mut runs = Vec::new();
    let mut quarantine = QuarantineBook::new();
    let mut traces = Vec::new();
    // What verification checks against: every engine runs on these edges
    // (Graph500 symmetrizes the raw list to the same ones).
    let checked = Csr::from_edge_list_parallel(&ds.symmetric, &pool);
    let expected = Expected::new(&checked);
    // A captured trial's check runs here instead of on `pool`, whose
    // recorder would put the validator's regions in the trace.
    let untraced = ThreadPool::new(1);

    let file_dir = cfg.input_dir.as_ref();
    let log_dir = file_dir.map(|dir| {
        let logs = dir.join("logs");
        std::fs::create_dir_all(&logs).ok();
        logs
    });

    for &kind in &cfg.engines {
        let mut engine = kind.create_with_sssp_kernel(cfg.sssp_kernel);
        if let Some((_, plan)) = cfg.fault_plans.iter().find(|(k, _)| *k == kind) {
            engine = Box::new(FaultyEngine::new(engine, plan.clone()));
        }
        let row = |phase| RunRecord::new(kind, &ds.name, cfg.threads, phase);
        // ---- Phase 1: read input ----
        let t0 = Instant::now();
        if let Some(dir) = file_dir {
            engine
                .load_file(&ds.input_path_for(dir, kind), &pool)
                .expect("phase 2 wrote no homogenized file for this engine");
        } else {
            engine.load_edge_list(ds.edges_for(kind));
        }
        let read_s = t0.elapsed().as_secs_f64();

        // ---- Phase 2: construct (its own row only when separable) ----
        let t0 = Instant::now();
        engine.construct(&pool);
        let construct_s = t0.elapsed().as_secs_f64();
        // The phases the records, a trace and a dialect log open with.
        // Fused engines build during the read: inside load_file in
        // file-based runs, inside construct() in in-memory runs, which is
        // folded into the read (one combined number, §III-B).
        let setup = if engine.separable_construction() {
            vec![
                logs::LogEntry { phase: Phase::ReadFile, seconds: read_s },
                logs::LogEntry { phase: Phase::Construct, seconds: construct_s },
            ]
        } else {
            vec![logs::LogEntry { phase: Phase::ReadFile, seconds: read_s + construct_s }]
        };
        records.extend(setup.iter().map(|e| RunRecord { seconds: e.seconds, ..row(e.phase) }));

        // ---- Phase 3: run kernels ----
        for &algo in &cfg.algorithms {
            if !engine.supports(algo) {
                continue;
            }
            // Unlike Graphalytics (which reports N/A for SSSP on unweighted
            // graphs — Table I), the framework runs SSSP with unit weights:
            // "we need not modify the graph and can use the same root
            // vertices from BFS" (§III-D), and Fig. 8 shows SSSP bars for
            // the unweighted cit-Patents dataset.
            let reps: Vec<Option<VertexId>> = if algo.is_rooted() {
                let mut roots: Vec<Option<VertexId>> = ds.roots.iter().map(|&r| Some(r)).collect();
                if let Some(cap) = cfg.max_roots {
                    roots.truncate(cap);
                }
                roots
            } else if algo == Algorithm::PageRank {
                let n = cfg.max_roots.unwrap_or(crate::dataset::NUM_ROOTS);
                vec![None; n]
            } else {
                vec![None]
            };
            let mut log_text = String::new();
            let cell = format!("{}/{}", kind.name(), algo.abbrev());
            let file_stem = format!("{}_{}_{}", kind.name(), algo.abbrev(), ds.name);
            // The kernel label is only meaningful where the knob is threaded
            // through (SSSP on GAP's raw-speed tier).
            let kernel = (kind == EngineKind::Gap && algo == Algorithm::Sssp)
                .then(|| cfg.sssp_kernel.unwrap_or_default());
            for (ri, &root) in reps.iter().enumerate() {
                for trial in 0..cfg.trials {
                    let run_row = || RunRecord {
                        algorithm: Some(algo),
                        root,
                        trial,
                        kernel,
                        ..row(Phase::Run)
                    };
                    // A cell that failed `quarantine_after` trials in a
                    // row is never scheduled again: the remaining reps
                    // become explicit Quarantined DNF rows (zero cost).
                    if quarantine.is_quarantined(&cell, cfg.supervisor.quarantine_after) {
                        records.push(RunRecord { outcome: TrialOutcome::Quarantined, ..run_row() });
                        continue;
                    }
                    // Telemetry is captured for the first observation of
                    // each engine × algorithm pair only: a recorder on the
                    // pool costs a few percent on many-level runs, and one
                    // run per pair is what the summarizer and the
                    // machine-model replay need.
                    let first = ri == 0 && trial == 0;
                    let capture = first.then(|| Capture::start(&pool, &setup));
                    let mut params = RunParams::new(&pool, root);
                    if let Some(capture) = &capture {
                        params.recorder = capture.ctx();
                    }
                    let check_pool = if capture.is_some() { &untraced } else { &pool };
                    let verify =
                        |out: &RunOutput| verify_output(&expected, algo, root, out, check_pool);
                    let report = supervise_trial(
                        &pool,
                        &cfg.supervisor,
                        || engine.run(algo, &params),
                        Some(&verify),
                    );
                    quarantine.record(&cell, report.outcome);
                    let secs = report.seconds;
                    if let Some(capture) = capture {
                        let jsonl =
                            log_dir.as_ref().map(|d| d.join(format!("{file_stem}.trace.jsonl")));
                        traces.push(capture.finish(
                            &report,
                            kind,
                            algo,
                            &ds.name,
                            jsonl.as_deref(),
                        ));
                    }
                    let iterations = report.output.as_ref().and_then(|o| o.result.iterations());
                    records.push(RunRecord {
                        seconds: secs,
                        iterations,
                        outcome: report.outcome,
                        ..run_row()
                    });
                    if first {
                        // Emit this engine's log dialect for the parse phase.
                        let mut entries = setup.clone();
                        entries.push(logs::LogEntry { phase: Phase::Run, seconds: secs });
                        log_text = logs::render_log(
                            engine.log_style(),
                            &format!("{} on {}", algo.abbrev(), ds.name),
                            &entries,
                        );
                    }
                    // Only completed runs feed the machine model and the
                    // cross-engine result checks; a timed-out run's partial
                    // counters live on in its (DNF) record.
                    if report.outcome == TrialOutcome::Ok {
                        if let Some(output) = report.output {
                            runs.push(RunInfo {
                                engine: kind,
                                algorithm: algo,
                                root,
                                seconds: secs,
                                output,
                            });
                        }
                    }
                }
            }
            if let Some(dir) = &log_dir {
                std::fs::write(dir.join(format!("{file_stem}.log")), log_text).ok();
            }
        }
    }
    ExperimentResult { records, runs, traces }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_generator::GraphSpec;

    fn tiny_dataset() -> Dataset {
        Dataset::from_spec(&GraphSpec::Kronecker { scale: 7, edge_factor: 8, weighted: true }, 11)
    }

    /// Phase 2 for `ds` under a fresh temp directory `name`; returns the
    /// directory holding the homogenized files.
    pub(super) fn homogenized(ds: &Dataset, name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        let pipeline = crate::pipeline::Pipeline::new(dir).unwrap();
        pipeline.homogenize(ds).unwrap();
        pipeline.datasets_dir()
    }

    #[test]
    fn runs_cover_support_matrix() {
        let ds = tiny_dataset();
        let mut cfg = ExperimentConfig::new();
        cfg.max_roots = Some(2);
        let res = run_experiment(&cfg, &ds);
        // PowerGraph has no BFS rows; Graph500 has only BFS rows.
        assert!(res.run_times(EngineKind::PowerGraph, Algorithm::Bfs).is_empty());
        assert!(!res.run_times(EngineKind::PowerGraph, Algorithm::Sssp).is_empty());
        assert!(res.run_times(EngineKind::Graph500, Algorithm::Sssp).is_empty());
        assert_eq!(res.run_times(EngineKind::Gap, Algorithm::Bfs).len(), 2);
        assert_eq!(res.run_times(EngineKind::Gap, Algorithm::PageRank).len(), 2);
    }

    #[test]
    fn fused_engines_report_no_construct_time() {
        let ds = tiny_dataset();
        let mut cfg = ExperimentConfig::new();
        cfg.max_roots = Some(1);
        cfg.engines = vec![EngineKind::Gap, EngineKind::GraphBig, EngineKind::PowerGraph];
        cfg.algorithms = vec![Algorithm::PageRank];
        let res = run_experiment(&cfg, &ds);
        assert_eq!(res.construct_times(EngineKind::Gap).len(), 1);
        assert!(res.construct_times(EngineKind::GraphBig).is_empty());
        assert!(res.construct_times(EngineKind::PowerGraph).is_empty());
    }

    #[test]
    fn unweighted_dataset_still_runs_sssp_with_unit_weights() {
        // Unlike Graphalytics's N/A rule, the framework runs SSSP on
        // unweighted graphs (Fig. 8 shows cit-Patents SSSP bars).
        let ds = Dataset::from_spec(
            &GraphSpec::Kronecker { scale: 7, edge_factor: 8, weighted: false },
            3,
        );
        let mut cfg = ExperimentConfig::new();
        cfg.max_roots = Some(1);
        cfg.algorithms = vec![Algorithm::Sssp];
        let res = run_experiment(&cfg, &ds);
        assert!(!res.run_times(EngineKind::Gap, Algorithm::Sssp).is_empty());
        // Unit weights: SSSP distances equal BFS levels.
        let run = res.runs.iter().find(|r| r.engine == EngineKind::Gap).unwrap();
        let epg_engine_api::AlgorithmResult::Distances(d) = &run.output.result else { panic!() };
        assert!(d.iter().all(|&x| x.is_infinite() || x.fract() == 0.0));
    }

    #[test]
    fn pr_iteration_counts_recorded_and_graphmat_largest() {
        let ds = tiny_dataset();
        let mut cfg = ExperimentConfig::new();
        cfg.max_roots = Some(1);
        cfg.algorithms = vec![Algorithm::PageRank];
        let res = run_experiment(&cfg, &ds);
        let gap = res.pr_iterations(EngineKind::Gap);
        let gm = res.pr_iterations(EngineKind::GraphMat);
        assert!(!gap.is_empty() && !gm.is_empty());
        // GraphMat's native NoChange criterion iterates at least as long
        // (Fig. 4 right panel).
        assert!(gm[0] >= gap[0], "GraphMat {} vs GAP {}", gm[0], gap[0]);
    }

    #[test]
    fn file_based_pipeline_writes_logs_and_csv() {
        let ds = tiny_dataset();
        let dir = homogenized(&ds, "epg_runner_files_test");
        let mut cfg = ExperimentConfig::new();
        cfg.max_roots = Some(1);
        cfg.input_dir = Some(dir.clone());
        cfg.engines = vec![EngineKind::Gap, EngineKind::GraphMat];
        cfg.algorithms = vec![Algorithm::Bfs];
        let res = run_experiment(&cfg, &ds);
        assert!(dir.join("logs").read_dir().unwrap().count() >= 2);
        let csv = res.to_csv();
        let rows = crate::csvio::read_all(csv.as_bytes()).unwrap();
        assert!(rows.len() > 3);
        assert_eq!(rows[0][0], "engine");
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
    }

    #[test]
    fn trials_multiply_run_rows() {
        let ds = tiny_dataset();
        let mut cfg = ExperimentConfig::new();
        cfg.max_roots = Some(2);
        cfg.trials = 3;
        cfg.engines = vec![EngineKind::Gap];
        cfg.algorithms = vec![Algorithm::Bfs];
        let res = run_experiment(&cfg, &ds);
        assert_eq!(res.run_times(EngineKind::Gap, Algorithm::Bfs).len(), 6);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use epg_engine_api::TraceEvent;
    use epg_generator::GraphSpec;

    #[test]
    fn runner_captures_one_bundle_per_pair_and_writes_jsonl() {
        let ds = Dataset::from_spec(
            &GraphSpec::Kronecker { scale: 6, edge_factor: 8, weighted: false },
            5,
        );
        let dir = super::tests::homogenized(&ds, "epg_runner_trace_test");
        let mut cfg = ExperimentConfig::new();
        cfg.max_roots = Some(2);
        cfg.threads = 2;
        cfg.trials = 2;
        cfg.input_dir = Some(dir.clone());
        cfg.engines = vec![EngineKind::Gap];
        cfg.algorithms = vec![Algorithm::Bfs];
        let res = run_experiment(&cfg, &ds);
        // One bundle per engine×algorithm pair (first root, first trial).
        assert_eq!(res.traces.len(), 1);
        let b = &res.traces[0];
        assert_eq!(b.dropped, 0);
        assert!(b.events.iter().any(|e| matches!(e, TraceEvent::Iteration { .. })));
        assert!(b.events.iter().any(|e| matches!(e, TraceEvent::WorkerSpan { .. })));
        assert!(b.events.iter().any(|e| matches!(e, TraceEvent::PhaseEnd { .. })));
        // The flushed file parses back to the same number of events.
        let trace_file = dir
            .join("logs")
            .read_dir()
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.to_string_lossy().ends_with(".trace.jsonl"))
            .expect("trace file written");
        let parsed = epg_trace::jsonl::parse_jsonl(&std::fs::read_to_string(trace_file).unwrap());
        assert_eq!(parsed.skipped, 0);
        assert_eq!(parsed.events.len(), b.events.len());
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
    }
}

/// Runs the experiment once per thread count, concatenating records — the
/// §IV-B scalability protocol ("varying the number of threads from one to
/// the total number of threads available"). On a machine with real cores
/// this measures true strong scaling; the Figs. 5-6 regenerator uses it
/// under `--measure` and otherwise projects through the machine model.
pub fn run_thread_sweep(
    base: &ExperimentConfig,
    ds: &Dataset,
    thread_counts: &[usize],
) -> ExperimentResult {
    let mut records = Vec::new();
    let mut runs = Vec::new();
    let mut traces = Vec::new();
    for &threads in thread_counts {
        let cfg = ExperimentConfig { threads, ..base.clone() };
        let mut result = run_experiment(&cfg, ds);
        records.append(&mut result.records);
        runs.append(&mut result.runs);
        traces.append(&mut result.traces);
    }
    ExperimentResult { records, runs, traces }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
    use epg_generator::GraphSpec;

    #[test]
    fn sweep_produces_rows_per_thread_count() {
        let ds = Dataset::from_spec(
            &GraphSpec::Kronecker { scale: 7, edge_factor: 8, weighted: false },
            2,
        );
        let cfg = ExperimentConfig {
            engines: vec![EngineKind::Gap],
            algorithms: vec![Algorithm::Bfs],
            max_roots: Some(1),
            ..ExperimentConfig::new()
        };
        let result = run_thread_sweep(&cfg, &ds, &[1, 2, 4]);
        for &t in &[1usize, 2, 4] {
            let rows =
                result.records.iter().filter(|r| r.threads == t && r.phase == Phase::Run).count();
            assert_eq!(rows, 1, "threads={t}");
        }
        // Results identical across thread counts (determinism check).
        let levels: Vec<_> = result
            .runs
            .iter()
            .map(|r| match &r.output.result {
                epg_engine_api::AlgorithmResult::BfsTree { level, .. } => level.clone(),
                _ => panic!(),
            })
            .collect();
        assert!(levels.windows(2).all(|w| w[0] == w[1]));
    }
}
