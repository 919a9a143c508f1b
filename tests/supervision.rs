//! Supervision-layer integration: deterministic injected faults flow
//! through the runner and come out as classified, DNF-aware results.

use epg::engine_api::{FaultKind, FaultPlan, FaultyEngine};
use epg::harness::supervise::{
    supervise_trial, verify_output, Expected, SupervisorConfig, TrialOutcome,
};
use epg::prelude::*;
use std::time::{Duration, Instant};

fn dataset() -> Dataset {
    Dataset::from_spec(&GraphSpec::Kronecker { scale: 7, edge_factor: 8, weighted: false }, 9)
}

/// A budget generous enough that un-faulted trials never trip it on a
/// scale-7 graph, yet small enough that the hang test stays fast.
const BUDGET: Duration = Duration::from_millis(400);

fn cfg_with(plans: Vec<(EngineKind, FaultPlan)>) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        engines: vec![EngineKind::Gap],
        algorithms: vec![Algorithm::Bfs],
        max_roots: Some(4),
        ..ExperimentConfig::new()
    };
    cfg.supervisor.trial_budget = Some(BUDGET);
    cfg.supervisor.backoff = Duration::from_micros(50);
    cfg.fault_plans = plans;
    cfg
}

#[test]
fn injected_hang_times_out_with_partial_counters() {
    let ds = dataset();
    // Trial indices count every run-call including retries; fault the 2nd.
    let plan = FaultPlan::new().with_fault(1, FaultKind::Hang);
    let cfg = cfg_with(vec![(EngineKind::Gap, plan)]);
    let t0 = std::time::Instant::now();
    let result = run_experiment(&cfg, &ds);
    let wall = t0.elapsed();

    let outcomes: Vec<TrialOutcome> =
        result.records.iter().filter(|r| r.phase == Phase::Run).map(|r| r.outcome).collect();
    assert_eq!(outcomes.len(), 4);
    assert_eq!(outcomes[1], TrialOutcome::Timeout);
    assert_eq!(outcomes.iter().filter(|&&o| o == TrialOutcome::Ok).count(), 3);
    // The timed-out row carries its censoring time (>= most of the budget,
    // reaped well within 2x of it) — the acceptance bound for the layer.
    let timeout_row = result
        .records
        .iter()
        .find(|r| r.outcome == TrialOutcome::Timeout)
        .expect("timeout row present");
    assert!(timeout_row.seconds >= BUDGET.as_secs_f64() * 0.5);
    assert!(
        timeout_row.seconds < 2.0 * BUDGET.as_secs_f64(),
        "hung trial took {:.3}s against a {:?} budget",
        timeout_row.seconds,
        BUDGET
    );
    assert!(wall < Duration::from_secs(30), "experiment wedged behind the hang: {wall:?}");
    // DNF rows are excluded from the performance samples but counted.
    assert_eq!(result.run_times(EngineKind::Gap, Algorithm::Bfs).len(), 3);
    assert_eq!(result.dnf_count(EngineKind::Gap, Algorithm::Bfs), 1);
    // The timeout row reaches the CSV through the outcome column.
    let csv = result.to_csv();
    let rows = epg::harness::csvio::read_all(csv.as_bytes()).unwrap();
    let outcome_col = rows[0].iter().position(|c| c == "outcome").expect("outcome column present");
    assert!(rows.iter().any(|r| r.get(outcome_col).is_some_and(|c| c == "timeout")));
}

#[test]
fn injected_panic_is_retried_to_success() {
    let ds = dataset();
    // Fault only the first run-call: the supervisor's retry (run-call 1)
    // is clean, so the trial still lands as Ok after 2 attempts.
    let plan = FaultPlan::new().with_fault(0, FaultKind::Panic);
    let cfg = cfg_with(vec![(EngineKind::Gap, plan)]);
    let result = run_experiment(&cfg, &ds);
    let run_rows: Vec<_> = result.records.iter().filter(|r| r.phase == Phase::Run).collect();
    assert_eq!(run_rows.len(), 4);
    assert!(run_rows.iter().all(|r| r.outcome == TrialOutcome::Ok));
    assert_eq!(result.run_times(EngineKind::Gap, Algorithm::Bfs).len(), 4);
    assert_eq!(result.dnf_count(EngineKind::Gap, Algorithm::Bfs), 0);
}

#[test]
fn consecutive_failures_quarantine_the_cell() {
    let ds = dataset();
    // Panic on every run-call: with retries disabled, each trial fails,
    // and after `quarantine_after` consecutive Panicked trials the
    // remaining reps are recorded as Quarantined without ever running.
    let mut plan = FaultPlan::new();
    for t in 0..64 {
        plan = plan.with_fault(t, FaultKind::Panic);
    }
    let mut cfg = cfg_with(vec![(EngineKind::Gap, plan)]);
    cfg.supervisor.quarantine_after = 2;
    cfg.supervisor.max_retries = 0;
    let result = run_experiment(&cfg, &ds);
    let outcomes: Vec<TrialOutcome> =
        result.records.iter().filter(|r| r.phase == Phase::Run).map(|r| r.outcome).collect();
    assert_eq!(
        outcomes,
        vec![
            TrialOutcome::Panicked,
            TrialOutcome::Panicked,
            TrialOutcome::Quarantined,
            TrialOutcome::Quarantined,
        ]
    );
    // Nothing completed: the report renders an explicit DNF cell and a
    // trial-outcomes section.
    assert!(result.run_times(EngineKind::Gap, Algorithm::Bfs).is_empty());
    let md = epg::harness::report::render(&result, &ds, 32);
    assert!(md.contains("DNF (n=4, dnf=4)"), "report:\n{md}");
    assert!(md.contains("## Trial outcomes"));
    assert!(md.contains("- panicked: 2"));
    assert!(md.contains("- quarantined: 2"));
}

#[test]
fn seeded_plans_make_failures_reproducible() {
    let ds = dataset();
    let run = |seed: u64| {
        let plan = FaultPlan::seeded(seed, 16, 3);
        let cfg = cfg_with(vec![(EngineKind::Gap, plan)]);
        run_experiment(&cfg, &ds)
            .records
            .iter()
            .filter(|r| r.phase == Phase::Run)
            .map(|r| r.outcome)
            .collect::<Vec<_>>()
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "same seed, same outcome sequence");
}

#[test]
fn wrong_result_injection_is_caught_by_a_verifier() {
    // The runner's own verifier at the supervise_trial level: the corrupted
    // first attempt is rejected and the retry (not faulted) passes.
    let ds = dataset();
    let pool = ThreadPool::new(2);
    let mut engine = FaultyEngine::new(
        EngineKind::Gap.create(),
        FaultPlan::new().with_fault(0, FaultKind::WrongResult),
    );
    engine.load_edge_list(ds.edges_for(EngineKind::Gap));
    engine.construct(&pool);
    let root = ds.roots[0];
    let csr = Csr::from_edge_list(&ds.symmetric);
    let want = Expected::new(&csr);
    let params = RunParams::new(&pool, Some(root));
    let verify = |out: &RunOutput| verify_output(&want, Algorithm::Bfs, &params, out, &pool);
    let cfg = SupervisorConfig { backoff: Duration::from_micros(50), ..Default::default() };
    let report =
        supervise_trial(&pool, &cfg, || engine.run(Algorithm::Bfs, &params), Some(&verify));
    assert_eq!(report.outcome, TrialOutcome::Ok);
    assert_eq!(report.attempts, 2, "first attempt corrupted, retry clean");
}

/// A plan that corrupts the result of every run-call.
fn always_wrong() -> FaultPlan {
    (0..64).fold(FaultPlan::new(), |plan, t| plan.with_fault(t, FaultKind::WrongResult))
}

#[test]
fn wrong_results_fail_verification_on_every_engine() {
    // Every engine × algorithm it supports: all 27 cells. The injector
    // bumps entry 0 of the result: a BFS level always changes, a distance
    // only where the root reaches vertex 0 (an infinite one stays
    // infinite), a component label splits vertex 0 from the rest of its
    // component, rank 0 grows by 0.5, which one more sweep undoes, and a
    // CDLP label, an LCC coefficient, a triangle count and a betweenness
    // score each move off the oracle's answer.
    let spec = GraphSpec::Kronecker { scale: 7, edge_factor: 8, weighted: true };
    let ds = Dataset::from_spec(&spec, 9);
    let csr = Csr::from_edge_list(&ds.symmetric);
    let reaches_0 = |r: VertexId| epg::graph::oracle::bfs(&csr, r).level[0] != u32::MAX;
    assert!(!csr.neighbors(0).is_empty(), "a visible WCC fault needs vertex 0 to have a neighbour");
    let pool = ThreadPool::new(2);
    let expected = Expected::new(&csr);
    let mut covered = 0;
    for kind in EngineKind::ALL {
        for (algo, rule) in [
            (Algorithm::Bfs, "but the parent tree puts it at"),
            (Algorithm::Sssp, "but Dijkstra's is"),
            (Algorithm::Wcc, "but its component's least vertex is"),
            (Algorithm::PageRank, "one more PageRank sweep moves the ranks by"),
            (Algorithm::Cdlp, "but label propagation gives it"),
            (Algorithm::Lcc, "but the oracle's is"),
            (Algorithm::TriangleCount, "triangles, but the graph has"),
            (Algorithm::Bc, "but Brandes' algorithm gives"),
        ] {
            if !kind.create().supports(algo) {
                continue;
            }
            covered += 1;
            let name = format!("{}/{}", kind.name(), algo.abbrev());
            // Through the runner: each trial is verified, none is retried.
            let mut cfg = ExperimentConfig {
                engines: vec![kind],
                algorithms: vec![algo],
                max_roots: Some(4),
                fault_plans: vec![(kind, always_wrong())],
                ..ExperimentConfig::new()
            };
            cfg.supervisor.max_retries = 0;
            cfg.supervisor.quarantine_after = 0;
            let outcomes: Vec<TrialOutcome> = run_experiment(&cfg, &ds)
                .records
                .iter()
                .filter(|r| r.phase == Phase::Run)
                .map(|r| r.outcome)
                .collect();
            // A rooted kernel runs once per root, PageRank as many times,
            // the other root-less kernels once.
            let roots: Vec<Option<VertexId>> = match algo {
                _ if algo.is_rooted() => ds.roots[..4].iter().map(|&r| Some(r)).collect(),
                Algorithm::PageRank => vec![None; 4],
                _ => vec![None],
            };
            let want: Vec<TrialOutcome> = roots
                .iter()
                .map(|&r| {
                    let visible = algo != Algorithm::Sssp || r.is_some_and(reaches_0);
                    if visible {
                        TrialOutcome::Panicked
                    } else {
                        TrialOutcome::Ok
                    }
                })
                .collect();
            assert!(want.contains(&TrialOutcome::Panicked), "{name}: no visible corruption");
            assert_eq!(outcomes, want, "{name}");
            // The verifier's reason reaches the report and names the rule.
            let root = roots.iter().flatten().copied().find(|&r| r != 0 && reaches_0(r));
            let mut engine = FaultyEngine::new(kind.create(), always_wrong());
            engine.load_edge_list(ds.edges_for(kind));
            engine.construct(&pool);
            let params = RunParams::new(&pool, root);
            let verify = |out: &RunOutput| verify_output(&expected, algo, &params, out, &pool);
            let strict = SupervisorConfig { max_retries: 0, ..Default::default() };
            let report =
                supervise_trial(&pool, &strict, || engine.run(algo, &params), Some(&verify));
            assert_eq!(report.outcome, TrialOutcome::Panicked, "{name}");
            let error = report.error.expect("a rejected trial says why");
            assert!(error.starts_with("result failed verification: "), "{name}: {error}");
            assert!(error.contains(rule), "{name}: {error}");
        }
    }
    assert_eq!(
        covered, 27,
        "four BFS, four SSSP, three WCC, four PageRank, three CDLP, three LCC, four TC and two BC \
         engines"
    );
}

#[test]
fn over_budget_betweenness_stops_at_the_next_source() {
    // No injected fault: exact Brandes BC (one iteration per source) under
    // a budget far below its runtime. Its per-source loop has no poll of
    // its own — `RunLog::iteration` is the poll — so the trial must come
    // back `Timeout` having stopped early, not having spun through every
    // remaining source with the pool abandoning each one's chunks.
    let spec = GraphSpec::Kronecker { scale: 11, edge_factor: 8, weighted: false };
    let ds = Dataset::from_spec(&spec, 9);
    let sources = ds.edges_for(EngineKind::Gap).num_vertices as u32;
    let pool = ThreadPool::new(2);
    let mut engine = EngineKind::Gap.create();
    engine.load_edge_list(ds.edges_for(EngineKind::Gap));
    engine.construct(&pool);
    // The budget is 4 times the same run on 16 sampled sources, set-up
    // included, timed on the same pool. A fixed budget can run out before
    // the first source's first region claims a range on a loaded host;
    // this one scales with the host's speed, holds dozens of sources, and
    // stays a small share of the exact run's 2048.
    let mut sampled = RunParams::new(&pool, None);
    sampled.bc_sources = Some(16);
    let start = Instant::now();
    drop(engine.run(Algorithm::Bc, &sampled));
    let budget = 4 * start.elapsed();
    let cfg = SupervisorConfig { trial_budget: Some(budget), ..Default::default() };
    let params = RunParams::new(&pool, None);
    let report = supervise_trial(&pool, &cfg, || engine.run(Algorithm::Bc, &params), None);
    assert_eq!(report.outcome, TrialOutcome::Timeout);
    let out = report.output.expect("a timeout keeps the partial output");
    assert!(out.cancelled, "the kernel itself must notice the tripped budget");
    let done = out.counters.iterations;
    assert!(
        0 < done && done < sources,
        "{done} of {sources} sources ran under a {budget:?} budget"
    );
    assert!(out.counters.edges_traversed > 0, "partial counters survive the timeout");
}

#[test]
fn trial_outcome_reaches_the_trace_stream() {
    let ds = dataset();
    // Hang the very first run-call: the traced trial itself times out.
    let plan = FaultPlan::new().with_fault(0, FaultKind::Hang);
    let mut cfg = cfg_with(vec![(EngineKind::Gap, plan)]);
    cfg.max_roots = Some(1);
    cfg.supervisor.quarantine_after = 0; // keep scheduling despite failures
    let result = run_experiment(&cfg, &ds);
    assert_eq!(result.traces.len(), 1);
    let bundle = &result.traces[0];
    let outcome_ev = bundle
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::TrialOutcome { outcome, attempts } => Some((outcome.clone(), *attempts)),
            _ => None,
        })
        .expect("TrialOutcome event recorded");
    assert_eq!(outcome_ev, ("timeout".to_string(), 1));
    // And the summarizer renders it.
    let jsonl = epg::trace::jsonl::render_jsonl(&bundle.events);
    let summary = epg::harness::tracefile::summarize(&jsonl);
    assert!(summary.contains("trial outcomes"), "summary:\n{summary}");
    assert!(summary.contains("timeout"));
}
