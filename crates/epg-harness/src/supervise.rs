//! Trial supervision: deadline enforcement, panic capture, bounded retry,
//! and quarantine bookkeeping for the runner.
//!
//! A comparison harness runs thousands of trials across engines it does
//! not control; one wedged or crashing kernel must not take the whole
//! sweep down. [`supervise_trial`] wraps a single kernel invocation with:
//!
//! - **deadline enforcement** — a [`CancelToken`] with the per-trial
//!   budget is attached to the pool; engines poll it at chunk boundaries
//!   and iteration tops, so an over-budget trial unwinds cooperatively
//!   with its partial counters intact (no watchdog thread, no `kill`);
//! - **panic capture** — `catch_unwind` turns an engine panic into a
//!   classified [`TrialOutcome::Panicked`] instead of aborting the sweep;
//! - **result verification** — a completed output goes to a verifier
//!   after the trial's clock has stopped; the runner's is
//!   [`verify_output`], the Graph500 rules for BFS trees, a
//!   convergence check for PageRank ranks, and the sequential oracle's
//!   answers for SSSP distances, WCC and CDLP labels, LCC coefficients,
//!   triangle counts and exact betweenness, on every engine;
//! - **bounded retry** — transient failures (panics, wrong results caught
//!   by the verifier) are retried with doubling backoff up to `max_retries`;
//! - **quarantine** — the runner counts consecutive failures per
//!   engine×algorithm cell through [`QuarantineBook`] and stops scheduling
//!   a cell after `quarantine_after` in a row, recording the remaining
//!   trials as [`TrialOutcome::Quarantined`] (did-not-finish, never run).
//!
//! Timeouts are *not* retried: a trial that blows its budget once will
//! blow it again, and the partial counters are themselves a result (the
//! censored statistics in [`crate::stats`] know how to use them).

use epg_engine_api::{Algorithm, AlgorithmResult, RunOutput, CDLP_ROUNDS};
use epg_graph::{oracle, validate, Csr, VertexId, Weight};
use epg_parallel::{CancelToken, Schedule, ThreadPool};
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How a supervised trial ended. `Ok` is the only outcome whose timing
/// belongs in the performance statistics; the other three are
/// did-not-finish (DNF) classifications.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The trial completed within budget and (if verified) correctly.
    #[default]
    Ok,
    /// The trial exceeded its budget and was cooperatively cancelled;
    /// partial counters survive in the report's `output`.
    Timeout,
    /// The trial panicked (or kept producing wrong results) through every
    /// allowed attempt.
    Panicked,
    /// The trial was never run: its engine×algorithm cell had already
    /// failed `quarantine_after` consecutive times.
    Quarantined,
}

impl TrialOutcome {
    /// Stable lowercase label used in CSV rows and trace events.
    pub fn label(self) -> &'static str {
        match self {
            TrialOutcome::Ok => "ok",
            TrialOutcome::Timeout => "timeout",
            TrialOutcome::Panicked => "panicked",
            TrialOutcome::Quarantined => "quarantined",
        }
    }

    /// Parses a [`label`](Self::label) back; `None` for anything else.
    pub fn from_label(s: &str) -> Option<TrialOutcome> {
        match s {
            "ok" => Some(TrialOutcome::Ok),
            "timeout" => Some(TrialOutcome::Timeout),
            "panicked" => Some(TrialOutcome::Panicked),
            "quarantined" => Some(TrialOutcome::Quarantined),
            _ => None,
        }
    }

    /// Did-not-finish: everything except `Ok`.
    pub fn is_dnf(self) -> bool {
        self != TrialOutcome::Ok
    }
}

/// Supervision policy knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Per-trial wall-clock budget; `None` disables deadline enforcement
    /// (the default — measurement runs must not poll a live deadline).
    pub trial_budget: Option<Duration>,
    /// Extra attempts after a transient failure (panic or verify-fail).
    pub max_retries: u32,
    /// Sleep before the first retry; doubles per subsequent attempt.
    pub backoff: Duration,
    /// Consecutive failures before an engine×algorithm cell is skipped.
    pub quarantine_after: u32,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            trial_budget: None,
            max_retries: 1,
            backoff: Duration::from_millis(5),
            quarantine_after: 3,
        }
    }
}

/// What [`supervise_trial`] hands back to the runner.
#[derive(Debug)]
pub struct TrialReport {
    /// Classification of the (final) attempt.
    pub outcome: TrialOutcome,
    /// Wall-clock seconds of the final attempt (including a timed-out
    /// one — it is the censoring time, not a performance sample).
    pub seconds: f64,
    /// Attempts consumed (1 = no retry was needed).
    pub attempts: u32,
    /// The engine's output. Present for `Ok` and for `Timeout` (partial
    /// counters); absent when every attempt panicked.
    pub output: Option<RunOutput>,
    /// Panic payload (or verifier complaint) from the last failed attempt.
    pub error: Option<String>,
}

/// Accepts a completed output, or says why it is wrong.
pub type Verifier<'a> = &'a dyn Fn(&RunOutput) -> Result<(), String>;

/// Runs one trial under supervision. `run` is invoked up to
/// `1 + cfg.max_retries` times; `verify`, when given, can reject a
/// completed output as wrong with a reason (counted like a panic, i.e.
/// retried; the reason lands in [`TrialReport::error`]). The attempt's
/// `seconds` are taken before `verify` runs, and its cancel token is off
/// the pool by then, so verification is never timed and never cancelled.
///
/// The pool's cancel token is installed before each attempt and always
/// cleared afterwards, including on unwind.
pub fn supervise_trial(
    pool: &ThreadPool,
    cfg: &SupervisorConfig,
    mut run: impl FnMut() -> RunOutput,
    verify: Option<Verifier<'_>>,
) -> TrialReport {
    let mut backoff = cfg.backoff;
    let attempts_allowed = 1 + cfg.max_retries;
    for attempt in 1..=attempts_allowed {
        let token = CancelToken::new();
        if let Some(budget) = cfg.trial_budget {
            token.set_deadline(budget);
        }
        pool.set_cancel_token(Some(token.clone()));
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(&mut run));
        let seconds = t0.elapsed().as_secs_f64();
        pool.set_cancel_token(None);
        let failure = match result {
            Ok(out) => {
                if out.cancelled || token.is_cancelled() {
                    // Deterministic failure: a trial over budget stays over
                    // budget. Keep the partial counters, do not retry.
                    return TrialReport {
                        outcome: TrialOutcome::Timeout,
                        seconds,
                        attempts: attempt,
                        output: Some(out),
                        error: None,
                    };
                }
                match verify.map_or(Ok(()), |check| check(&out)) {
                    Err(why) => format!("result failed verification: {why}"),
                    Ok(()) => {
                        return TrialReport {
                            outcome: TrialOutcome::Ok,
                            seconds,
                            attempts: attempt,
                            output: Some(out),
                            error: None,
                        };
                    }
                }
            }
            Err(payload) => panic_message(payload.as_ref()),
        };
        if attempt < attempts_allowed {
            std::thread::sleep(backoff);
            backoff *= 2;
        } else {
            return TrialReport {
                outcome: TrialOutcome::Panicked,
                seconds,
                attempts: attempt,
                output: None,
                error: Some(failure),
            };
        }
    }
    unreachable!("loop always returns on its final attempt")
}

/// What [`verify_output`] checks results against: the symmetric graph
/// every engine runs on, and the sequential oracle's answers: Dijkstra's
/// distances per root, and its root-less kernels'. Each answer is computed
/// on first use and kept, so a dataset pays for it once however many
/// engines and trials are checked.
pub struct Expected<'g> {
    g: &'g Csr,
    sssp: RefCell<HashMap<VertexId, Vec<Weight>>>,
    wcc: OnceCell<Vec<VertexId>>,
    cdlp: OnceCell<Vec<u64>>,
    lcc: OnceCell<Vec<f64>>,
    triangles: OnceCell<u64>,
    bc: OnceCell<Vec<f64>>,
}

impl<'g> Expected<'g> {
    /// Nothing computed yet: the answers for `g` as they are first needed.
    pub fn new(g: &'g Csr) -> Expected<'g> {
        let (wcc, cdlp, lcc) = (OnceCell::new(), OnceCell::new(), OnceCell::new());
        let (sssp, triangles, bc) = (RefCell::default(), OnceCell::new(), OnceCell::new());
        Expected { g, sssp, wcc, cdlp, lcc, triangles, bc }
    }
}

/// How far an LCC coefficient may sit from the oracle's. A coefficient is
/// a ratio of two whole counts, and every engine's equals the oracle's bit
/// for bit on the correctness net's corpus at 1–3 threads; the slack is
/// a few ulps of a number at most 1, for the ratio formed another way.
const LCC_TOLERANCE: f64 = 1e-12;

/// How far a betweenness score may sit from the oracle's, relative to the
/// larger of the two. Path counts are whole numbers, exact in `f64` in any
/// order, and both engines sum a vertex's dependencies in adjacency order
/// as the oracle does: they match it bit for bit on Kronecker scales 7–10
/// at 1 and 2 threads. The slack is for a sum in another neighbour order,
/// a few ulps per source; a wrong path count or dependency moves a score
/// by far more.
const BC_TOLERANCE: f64 = 1e-9;

/// The runner's verifier: checks one completed output of `algo` from
/// `root` against `want`. A BFS tree must pass the Graph500 rules and
/// carry the levels its parents imply
/// ([`validate::validate_bfs_tree_parallel`], its edge scan on `pool`);
/// SSSP distances must equal [`oracle::dijkstra`]'s bit for bit (every
/// engine adds `dist[u] + w` in `f32`, and any order of relaxations that
/// stops when none lowers a distance reaches the same least sums); WCC
/// labels must equal [`oracle::wcc`]'s, the least vertex of each component
/// (the Graphalytics convention); PageRank ranks must be converged
/// (`pagerank_converged`). CDLP labels must equal [`oracle::cdlp`] after
/// [`CDLP_ROUNDS`] rounds, every LCC coefficient must be within `1e-12` of
/// [`oracle::lcc`]'s, a triangle count must equal
/// [`oracle::triangle_count`], and betweenness, run from every source as
/// the runner's trials run it, must agree with [`oracle::betweenness`]
/// within `1e-9` relative. A malformed output is an `Err`, never a panic.
pub fn verify_output(
    want: &Expected<'_>,
    algo: Algorithm,
    root: Option<VertexId>,
    out: &RunOutput,
    pool: &ThreadPool,
) -> Result<(), String> {
    let g = want.g;
    let n = g.num_vertices();
    match (algo, root, &out.result) {
        (Algorithm::Bfs, Some(root), AlgorithmResult::BfsTree { parent, level }) => {
            if parent.len() != n || level.len() != n {
                return Err(format!(
                    "{} parents and {} levels for {n} vertices",
                    parent.len(),
                    level.len()
                ));
            }
            validate::validate_bfs_tree_parallel(g, root, parent, Some(level), pool)
                .map_err(|e| e.to_string())
        }
        (Algorithm::Sssp, Some(root), AlgorithmResult::Distances(dist)) => {
            let mut by_root = want.sssp.borrow_mut();
            let expect = by_root.entry(root).or_insert_with(|| oracle::dijkstra(g, root));
            let exact = |a: &Weight, b: &Weight| a == b;
            agree(dist, expect, "distances", exact, |v, got, d| {
                format!("vertex {v} is at distance {got}, but Dijkstra's is {d}")
            })
        }
        (Algorithm::Wcc, _, AlgorithmResult::Components(comp)) => {
            let expect = want.wcc.get_or_init(|| oracle::wcc(g));
            let differ = |v, got: &VertexId, least: &VertexId| {
                format!("vertex {v} is labelled {got}, but its component's least vertex is {least}")
            };
            agree(comp, expect, "labels", |a, b| a == b, differ)
        }
        (Algorithm::PageRank, _, AlgorithmResult::Ranks { ranks, .. }) => {
            pagerank_converged(g, ranks, pool)
        }
        (Algorithm::Cdlp, _, AlgorithmResult::Labels(labels)) => {
            let expect = want.cdlp.get_or_init(|| oracle::cdlp(g, CDLP_ROUNDS));
            let differ = |v, got: &u64, label: &u64| {
                format!("vertex {v} has label {got}, but label propagation gives it {label}")
            };
            agree(labels, expect, "labels", |a, b| a == b, differ)
        }
        (Algorithm::Lcc, _, AlgorithmResult::Coefficients(coefs)) => {
            let expect = want.lcc.get_or_init(|| oracle::lcc(g));
            let close = |a: &f64, b: &f64| (a - b).abs() <= LCC_TOLERANCE;
            agree(coefs, expect, "coefficients", close, |v, got, lcc| {
                format!("vertex {v} has clustering coefficient {got}, but the oracle's is {lcc}")
            })
        }
        (Algorithm::TriangleCount, _, AlgorithmResult::Triangles(got)) => {
            match *want.triangles.get_or_init(|| oracle::triangle_count(g)) {
                count if count == *got => Ok(()),
                count => Err(format!("{got} triangles, but the graph has {count}")),
            }
        }
        (Algorithm::Bc, _, AlgorithmResult::Centrality(scores)) => {
            let expect = want.bc.get_or_init(|| oracle::betweenness(g));
            let close = |a: &f64, b: &f64| (a - b).abs() <= BC_TOLERANCE * a.abs().max(b.abs());
            agree(scores, expect, "scores", close, |v, got, bc| {
                format!("vertex {v} has betweenness {got}, but Brandes' algorithm gives {bc}")
            })
        }
        _ => Err(format!("{} from root {root:?}: result of the wrong kind", algo.abbrev())),
    }
}

/// Whether per-vertex `got` agrees with the oracle's `want` everywhere
/// (`same`); the first vertex that does not is described by `differ`, and
/// a length mismatch is an `Err` too.
fn agree<T>(
    got: &[T],
    want: &[T],
    what: &str,
    same: impl Fn(&T, &T) -> bool,
    differ: impl Fn(usize, &T, &T) -> String,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} {what} for {} vertices", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| !same(a, b)) {
        None => Ok(()),
        Some(v) => Err(differ(v, &got[v], &want[v])),
    }
}

/// Whether `ranks` is a converged PageRank of the symmetric `g`: one more
/// power-iteration sweep (damping [`oracle::PR_DAMPING`], sink rank spread
/// evenly, as every engine computes it) must move them, in L1, by less than
/// a run's stopping rule lets its last sweep move them. The homogenized
/// rule stops below [`oracle::PR_EPSILON`]; GraphMat's native rule stops
/// when no rank changes at `f32` precision, which leaves each rank within
/// one `f32` ulp. The larger of the two is the bound. A sweep shrinks the
/// change by the damping factor, so a run that stopped by either rule
/// passes, and one that stopped early or returns other ranks does not.
fn pagerank_converged(g: &Csr, ranks: &[f64], pool: &ThreadPool) -> Result<(), String> {
    let n = g.num_vertices();
    if ranks.len() != n {
        return Err(format!("{} ranks for {n} vertices", ranks.len()));
    }
    let sched = Schedule::Static { chunk: None };
    let degree = |v: usize| g.out_degree(v as VertexId);
    let sink =
        |lo, hi| (lo..hi).fold(0.0, |acc, v| acc + if degree(v) == 0 { ranks[v] } else { 0.0 });
    let sink = pool.parallel_reduce_ranges(n, sched, || 0.0, sink, |a, b| a + b);
    let fill = (1.0 - oracle::PR_DAMPING) / n as f64 + oracle::PR_DAMPING * sink / n as f64;
    // `g` is symmetric, so a vertex's neighbours are its in-neighbours.
    let moved_by = |v: usize| {
        let neighbors = g.neighbors(v as VertexId).iter().map(|&u| u as usize);
        let incoming: f64 = neighbors.map(|u| ranks[u] / degree(u) as f64).sum();
        (fill + oracle::PR_DAMPING * incoming - ranks[v]).abs()
    };
    let moved = |lo, hi| (lo..hi).fold(0.0, |acc, v| acc + moved_by(v));
    let moved = pool.parallel_reduce_ranges(n, sched, || 0.0, moved, |a, b| a + b);
    let ulp = |r: f64| {
        let x = (r as f32).abs();
        (f32::from_bits(x.to_bits() + 1) - x) as f64
    };
    let bound = oracle::PR_EPSILON.max(ranks.iter().map(|&r| ulp(r)).sum());
    if moved < bound {
        Ok(())
    } else {
        Err(format!(
            "one more PageRank sweep moves the ranks by {moved:.3e} in L1, \
             not under the {bound:.3e} a converged run allows"
        ))
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Consecutive-failure ledger for one experiment: the runner consults it
/// before each trial and reports each outcome back.
#[derive(Debug, Default)]
pub struct QuarantineBook {
    cells: Vec<(String, u32)>,
}

impl QuarantineBook {
    /// An empty ledger.
    pub fn new() -> QuarantineBook {
        QuarantineBook::default()
    }

    /// Whether `cell` (an engine×algorithm key) has hit the threshold.
    pub fn is_quarantined(&self, cell: &str, threshold: u32) -> bool {
        threshold > 0 && self.cells.iter().any(|(c, n)| c == cell && *n >= threshold)
    }

    /// Records an outcome; `Ok` resets the consecutive-failure count,
    /// every DNF outcome bumps it.
    pub fn record(&mut self, cell: &str, outcome: TrialOutcome) {
        let count = match self.cells.iter_mut().find(|(c, _)| c == cell) {
            Some((_, n)) => n,
            None => {
                self.cells.push((cell.to_string(), 0));
                &mut self.cells.last_mut().expect("just pushed").1
            }
        };
        if outcome.is_dnf() {
            *count += 1;
        } else {
            *count = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::{AlgorithmResult, Counters, Trace};

    fn ok_output() -> RunOutput {
        RunOutput::new(AlgorithmResult::Triangles(7), Counters::default(), Trace::default())
    }

    #[test]
    fn clean_trial_is_ok_first_attempt() {
        let pool = ThreadPool::new(1);
        let rep = supervise_trial(&pool, &SupervisorConfig::default(), ok_output, None);
        assert_eq!(rep.outcome, TrialOutcome::Ok);
        assert_eq!(rep.attempts, 1);
        assert!(rep.output.is_some());
        assert!(pool.cancel_token().is_none(), "token must be cleared");
    }

    #[test]
    fn panic_is_captured_and_retried_to_success() {
        let pool = ThreadPool::new(1);
        let mut calls = 0;
        let rep = supervise_trial(
            &pool,
            &SupervisorConfig { max_retries: 2, ..Default::default() },
            || {
                calls += 1;
                if calls == 1 {
                    panic!("transient");
                }
                ok_output()
            },
            None,
        );
        assert_eq!(rep.outcome, TrialOutcome::Ok);
        assert_eq!(rep.attempts, 2);
    }

    #[test]
    fn persistent_panic_exhausts_retries() {
        let pool = ThreadPool::new(1);
        let cfg = SupervisorConfig {
            max_retries: 2,
            backoff: Duration::from_micros(10),
            ..Default::default()
        };
        let rep = supervise_trial(&pool, &cfg, || panic!("always"), None);
        assert_eq!(rep.outcome, TrialOutcome::Panicked);
        assert_eq!(rep.attempts, 3);
        assert_eq!(rep.error.as_deref(), Some("always"));
        assert!(rep.output.is_none());
        assert!(pool.cancel_token().is_none(), "token cleared even after panics");
    }

    #[test]
    fn cancelled_output_is_a_timeout_and_keeps_partial_counters() {
        let pool = ThreadPool::new(1);
        let mut calls = 0;
        let cfg = SupervisorConfig {
            trial_budget: Some(Duration::from_secs(60)),
            max_retries: 5,
            ..Default::default()
        };
        let rep = supervise_trial(
            &pool,
            &cfg,
            || {
                calls += 1;
                let counters = Counters { edges_traversed: 123, ..Default::default() };
                RunOutput::new(AlgorithmResult::Triangles(0), counters, Trace::default())
                    .cancelled(true)
            },
            None,
        );
        assert_eq!(rep.outcome, TrialOutcome::Timeout);
        assert_eq!(calls, 1, "timeouts are never retried");
        assert_eq!(rep.output.unwrap().counters.edges_traversed, 123);
    }

    #[test]
    fn wrong_result_is_retried_then_panicked_when_persistent() {
        let pool = ThreadPool::new(1);
        let cfg = SupervisorConfig {
            max_retries: 1,
            backoff: Duration::from_micros(10),
            ..Default::default()
        };
        let reject = |_: &RunOutput| Err("seven is not a triangle count".to_string());
        let rep = supervise_trial(&pool, &cfg, ok_output, Some(&reject));
        assert_eq!(rep.outcome, TrialOutcome::Panicked);
        assert_eq!(rep.attempts, 2);
        assert_eq!(
            rep.error.as_deref(),
            Some("result failed verification: seven is not a triangle count")
        );
    }

    #[test]
    fn verify_output_checks_bfs_and_sssp_and_passes_the_rest() {
        use epg_graph::{oracle, EdgeList};
        let pool = ThreadPool::new(2);
        let el = EdgeList::weighted(4, vec![(0, 1), (1, 2), (2, 3)], vec![1.0, 2.0, 0.5]);
        let g = Csr::from_edge_list(&el.symmetrized());
        let want = Expected::new(&g);
        let run = |result| RunOutput::new(result, Counters::default(), Trace::default());
        let oracle::BfsResult { parent, mut level } = oracle::bfs(&g, 0);
        let bfs = |parent: &Vec<u32>, level: &Vec<u32>| {
            run(AlgorithmResult::BfsTree { parent: parent.clone(), level: level.clone() })
        };
        assert_eq!(
            verify_output(&want, Algorithm::Bfs, Some(0), &bfs(&parent, &level), &pool),
            Ok(())
        );
        level[3] = 2;
        let err = verify_output(&want, Algorithm::Bfs, Some(0), &bfs(&parent, &level), &pool);
        assert_eq!(err, Err("level[3] = 2, but the parent tree puts it at 3".to_string()));
        let short = bfs(&parent, &level[..3].to_vec());
        assert!(verify_output(&want, Algorithm::Bfs, Some(0), &short, &pool).is_err());

        let dist = oracle::dijkstra(&g, 0);
        let sssp = run(AlgorithmResult::Distances(dist));
        assert_eq!(verify_output(&want, Algorithm::Sssp, Some(0), &sssp, &pool), Ok(()));
        let zeros = run(AlgorithmResult::Distances(vec![0.0; 4]));
        assert!(verify_output(&want, Algorithm::Sssp, Some(0), &zeros, &pool).is_err());
        // A distance one ulp long, well inside any summation-order slack,
        // is still not Dijkstra's.
        let mut long = oracle::dijkstra(&g, 0);
        long[3] = f32::from_bits(long[3].to_bits() + 1);
        let err = verify_output(
            &want,
            Algorithm::Sssp,
            Some(0),
            &run(AlgorithmResult::Distances(long)),
            &pool,
        );
        assert_eq!(
            err,
            Err("vertex 3 is at distance 3.5000002, but Dijkstra's is 3.5".to_string())
        );
        assert!(verify_output(&want, Algorithm::Bfs, Some(0), &sssp, &pool).is_err());
    }

    #[test]
    fn verify_output_checks_betweenness_against_brandes() {
        use epg_graph::{oracle, EdgeList};
        let pool = ThreadPool::new(1);
        // A path 0-1-2-3 with a chord 1-3: only vertex 1 lies inside a shortest path.
        let g = Csr::from_edge_list(
            &EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3), (1, 3)]).symmetrized(),
        );
        let want = Expected::new(&g);
        let check = |scores| {
            let out = RunOutput::new(
                AlgorithmResult::Centrality(scores),
                Counters::default(),
                Trace::default(),
            );
            verify_output(&want, Algorithm::Bc, None, &out, &pool)
        };
        let bc = oracle::betweenness(&g);
        assert!(bc[1] > 0.0);
        assert_eq!(check(bc.clone()), Ok(()));
        let mut near = bc.clone();
        near[1] *= 1.0 + 1e-12;
        assert_eq!(check(near), Ok(()));
        let mut far = bc.clone();
        far[1] *= 1.0 + 1e-6;
        let err = check(far).unwrap_err();
        assert!(err.starts_with("vertex 1 has betweenness"), "{err}");
        assert!(err.contains("but Brandes' algorithm gives"), "{err}");
        let mut off = bc.clone();
        off[0] = 1.0;
        assert!(check(off).is_err(), "a score where the oracle's is zero");
        assert!(check(bc[..3].to_vec()).is_err());
        assert!(verify_output(&want, Algorithm::Bc, None, &ok_output(), &pool).is_err());
        assert!(want.bc.get().is_some(), "the oracle's scores are kept for the next check");
    }

    #[test]
    fn verify_output_checks_pagerank_convergence() {
        use epg_graph::{oracle, EdgeList};
        let pool = ThreadPool::new(2);
        // A path, a triangle hanging off it, and two isolated sinks.
        let edges = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 2)];
        let g = Csr::from_edge_list(&EdgeList::new(7, edges).symmetrized());
        let want = Expected::new(&g);
        let check = |ranks: Vec<f64>| {
            let out = RunOutput::new(
                AlgorithmResult::Ranks { ranks, iterations: 1 },
                Counters::default(),
                Trace::default(),
            );
            verify_output(&want, Algorithm::PageRank, None, &out, &pool)
        };
        let (ranks, _) = oracle::pagerank(&g, oracle::PR_EPSILON, 300);
        assert_eq!(check(ranks.clone()), Ok(()));
        // Stopped after a few sweeps, the ranks still move.
        let (early, _) = oracle::pagerank(&g, oracle::PR_EPSILON, 5);
        let err = check(early).expect_err("five sweeps do not converge");
        assert!(err.starts_with("one more PageRank sweep moves the ranks by"), "{err}");
        // Stopped at an L1 change below 1e-6, well above the homogenized
        // rule's, the next sweep still moves them by more than it allows.
        let (loose, _) = oracle::pagerank(&g, 1e-6, 300);
        assert!(check(loose).is_err());
        let mut bumped = ranks.clone();
        bumped[0] += 0.5;
        assert!(check(bumped).is_err());
        assert!(check(vec![f64::NAN; 7]).is_err());
        assert!(check(ranks[..6].to_vec()).is_err());
        assert!(verify_output(&want, Algorithm::PageRank, None, &ok_output(), &pool).is_err());
    }

    #[test]
    fn verify_output_checks_wcc_labels_against_the_oracle() {
        use epg_graph::EdgeList;
        let pool = ThreadPool::new(1);
        // A 0-1-2 path, a 3-4 pair and an isolated 5.
        let g = Csr::from_edge_list(&EdgeList::new(6, vec![(0, 1), (1, 2), (3, 4)]).symmetrized());
        let want = Expected::new(&g);
        let check = |labels: Vec<VertexId>| {
            let out = RunOutput::new(
                AlgorithmResult::Components(labels),
                Counters::default(),
                Trace::default(),
            );
            verify_output(&want, Algorithm::Wcc, None, &out, &pool)
        };
        assert_eq!(check(vec![0, 0, 0, 3, 3, 5]), Ok(()));
        let renamed = "vertex 0 is labelled 9, but its component's least vertex is 0";
        assert_eq!(check(vec![9, 9, 9, 1, 1, 0]), Err(renamed.to_string()));
        let split = "vertex 2 is labelled 1, but its component's least vertex is 0";
        assert_eq!(check(vec![0, 0, 1, 3, 3, 5]), Err(split.to_string()));
        let merged = "vertex 5 is labelled 3, but its component's least vertex is 5";
        assert_eq!(check(vec![0, 0, 0, 3, 3, 3]), Err(merged.to_string()));
        assert!(check(vec![0; 5]).is_err());
        assert!(verify_output(&want, Algorithm::Wcc, None, &ok_output(), &pool).is_err());
    }

    #[test]
    fn verify_output_checks_cdlp_lcc_and_triangles_against_the_oracle() {
        use epg_graph::{oracle, EdgeList};
        let pool = ThreadPool::new(1);
        // A triangle 0-1-2 with a tail 2-3.
        let g = Csr::from_edge_list(
            &EdgeList::new(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)]).symmetrized(),
        );
        let want = Expected::new(&g);
        let check = |algo, result| {
            let out = RunOutput::new(result, Counters::default(), Trace::default());
            verify_output(&want, algo, None, &out, &pool)
        };
        let labels = oracle::cdlp(&g, CDLP_ROUNDS);
        assert_eq!(check(Algorithm::Cdlp, AlgorithmResult::Labels(labels.clone())), Ok(()));
        let mut off = labels.clone();
        off[3] += 1;
        let err = check(Algorithm::Cdlp, AlgorithmResult::Labels(off)).unwrap_err();
        assert!(err.starts_with("vertex 3 has label"), "{err}");
        assert!(check(Algorithm::Cdlp, AlgorithmResult::Labels(labels[..3].to_vec())).is_err());

        let lcc = oracle::lcc(&g);
        let mut near = lcc.clone();
        near[2] += 1e-13;
        assert_eq!(check(Algorithm::Lcc, AlgorithmResult::Coefficients(near)), Ok(()));
        let mut far = lcc.clone();
        far[2] += 1e-10;
        let err = check(Algorithm::Lcc, AlgorithmResult::Coefficients(far)).unwrap_err();
        assert!(err.contains("but the oracle's is"), "{err}");
        let mut nan = lcc;
        nan[0] = f64::NAN;
        assert!(check(Algorithm::Lcc, AlgorithmResult::Coefficients(nan)).is_err());

        assert_eq!(check(Algorithm::TriangleCount, AlgorithmResult::Triangles(1)), Ok(()));
        let err = check(Algorithm::TriangleCount, AlgorithmResult::Triangles(2)).unwrap_err();
        assert_eq!(err, "2 triangles, but the graph has 1");
        assert!(check(Algorithm::TriangleCount, AlgorithmResult::Labels(vec![0; 4])).is_err());
        // Each answer was computed once and kept for the next check.
        assert!(want.cdlp.get().is_some() && want.lcc.get().is_some());
        assert_eq!(want.triangles.get(), Some(&1));
    }

    #[test]
    fn deadline_budget_is_installed_on_the_pool() {
        let pool = ThreadPool::new(1);
        let cfg = SupervisorConfig {
            trial_budget: Some(Duration::from_secs(3600)),
            ..Default::default()
        };
        let mut seen_remaining = None;
        let rep = supervise_trial(
            &pool,
            &cfg,
            || {
                seen_remaining = pool.cancel_token().and_then(|t| t.remaining());
                ok_output()
            },
            None,
        );
        assert_eq!(rep.outcome, TrialOutcome::Ok);
        let rem = seen_remaining.expect("deadline visible inside the trial");
        assert!(rem <= Duration::from_secs(3600) && rem > Duration::from_secs(3500));
    }

    #[test]
    fn outcome_labels_round_trip() {
        for o in [
            TrialOutcome::Ok,
            TrialOutcome::Timeout,
            TrialOutcome::Panicked,
            TrialOutcome::Quarantined,
        ] {
            assert_eq!(TrialOutcome::from_label(o.label()), Some(o));
            assert_eq!(o.is_dnf(), o != TrialOutcome::Ok);
        }
        assert_eq!(TrialOutcome::from_label("dnf"), None);
    }

    #[test]
    fn quarantine_book_counts_consecutive_failures_only() {
        let mut book = QuarantineBook::new();
        book.record("gap/bfs", TrialOutcome::Panicked);
        book.record("gap/bfs", TrialOutcome::Timeout);
        assert!(!book.is_quarantined("gap/bfs", 3));
        book.record("gap/bfs", TrialOutcome::Ok); // resets
        book.record("gap/bfs", TrialOutcome::Panicked);
        book.record("gap/bfs", TrialOutcome::Panicked);
        book.record("gap/bfs", TrialOutcome::Panicked);
        assert!(book.is_quarantined("gap/bfs", 3));
        // Other cells are independent.
        assert!(!book.is_quarantined("gap/pr", 3));
        // Threshold 0 disables quarantine entirely.
        assert!(!book.is_quarantined("gap/bfs", 0));
    }
}
