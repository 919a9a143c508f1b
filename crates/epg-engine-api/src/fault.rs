//! Deterministic fault injection.
//!
//! Exists to make the harness's trial supervisor testable: a
//! [`FaultyEngine`] wraps any [`Engine`] and, at chosen trial indices,
//! induces the three failure modes real systems exhibited in the paper's
//! experiments — a crash (panic), a hang (the PowerGraph "did not
//! complete in a reasonable time" rows), and a silently wrong result.
//! Faults are planned up front ([`FaultPlan`]), either explicitly or
//! from a seed, so every supervision test is reproducible bit-for-bit.
//! An engine nobody wraps pays nothing for it.

use crate::logfmt::LogStyle;
use crate::{Algorithm, AlgorithmResult, Engine, EngineInfo, RunOutput, RunParams};
use epg_graph::EdgeList;
use epg_parallel::ThreadPool;
use std::path::Path;
use std::time::Duration;

/// One induced failure mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The kernel panics mid-trial (a crash; transient, retryable).
    Panic,
    /// The kernel never finishes on its own: after computing, it spins
    /// until the pool's cancel token trips. Exercises deadline reaping
    /// with partial counters intact.
    Hang,
    /// The kernel completes but returns a corrupted result — caught
    /// only by a supervisor verification callback.
    WrongResult,
}

impl FaultKind {
    fn from_ordinal(n: u64) -> FaultKind {
        match n % 3 {
            0 => FaultKind::Panic,
            1 => FaultKind::Hang,
            _ => FaultKind::WrongResult,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Which trials fail and how. Trial indices count calls to
/// [`FaultyEngine::run`] — *including* the supervisor's retries, which
/// is what lets a test script "panic on the first attempt, succeed on
/// the retry" with a single-entry plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// Empty plan: the wrapped engine behaves normally.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault at a run-call index (builder style).
    pub fn with_fault(mut self, trial: u64, kind: FaultKind) -> FaultPlan {
        self.faults.push((trial, kind));
        self
    }

    /// Derives a plan for `trials` run-calls from `seed`: roughly one
    /// call in `period` faults, with the kind also seed-derived. Equal
    /// seeds give equal plans — the determinism the supervision suite
    /// asserts.
    pub fn seeded(seed: u64, trials: u64, period: u64) -> FaultPlan {
        let period = period.max(1);
        let mut plan = FaultPlan::new();
        for t in 0..trials {
            let h = splitmix64(seed ^ splitmix64(t));
            if h.is_multiple_of(period) {
                plan.faults.push((t, FaultKind::from_ordinal(h >> 32)));
            }
        }
        plan
    }

    /// The fault planned for a run-call index, if any.
    pub fn fault_at(&self, trial: u64) -> Option<FaultKind> {
        self.faults.iter().find(|(t, _)| *t == trial).map(|(_, k)| *k)
    }

    /// True when no fault is planned.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Minimal per-variant corruption: plausible shape, wrong value — the
/// kind of bug only result verification catches.
fn corrupt(result: &mut AlgorithmResult) {
    match result {
        AlgorithmResult::BfsTree { level, .. } => {
            if let Some(l) = level.first_mut() {
                *l = l.wrapping_add(1);
            }
        }
        AlgorithmResult::Distances(d) => {
            if let Some(x) = d.first_mut() {
                *x += 1.0;
            }
        }
        AlgorithmResult::Ranks { ranks, .. } => {
            if let Some(r) = ranks.first_mut() {
                *r += 0.5;
            }
        }
        AlgorithmResult::Labels(l) => {
            if let Some(x) = l.first_mut() {
                *x = x.wrapping_add(1);
            }
        }
        AlgorithmResult::Coefficients(c) | AlgorithmResult::Centrality(c) => {
            if let Some(x) = c.first_mut() {
                *x += 1.0;
            }
        }
        AlgorithmResult::Components(c) => {
            if let Some(x) = c.first_mut() {
                *x = x.wrapping_add(1);
            }
        }
        AlgorithmResult::Triangles(t) => *t = t.wrapping_add(1),
    }
}

/// An [`Engine`] decorator that injects the planned faults. Everything
/// except [`Engine::run`] delegates untouched, so phases 1–2 and the
/// support matrix behave exactly like the wrapped engine.
pub struct FaultyEngine {
    inner: Box<dyn Engine>,
    plan: FaultPlan,
    trial: u64,
}

impl FaultyEngine {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: Box<dyn Engine>, plan: FaultPlan) -> FaultyEngine {
        FaultyEngine { inner, plan, trial: 0 }
    }
}

impl Engine for FaultyEngine {
    fn info(&self) -> EngineInfo {
        self.inner.info()
    }

    fn supports(&self, algo: Algorithm) -> bool {
        self.inner.supports(algo)
    }

    fn separable_construction(&self) -> bool {
        self.inner.separable_construction()
    }

    fn load_file(&mut self, path: &Path, pool: &ThreadPool) -> std::io::Result<()> {
        self.inner.load_file(path, pool)
    }

    fn load_edge_list(&mut self, el: &EdgeList) {
        self.inner.load_edge_list(el)
    }

    fn construct(&mut self, pool: &ThreadPool) {
        self.inner.construct(pool)
    }

    fn run(&mut self, algo: Algorithm, params: &RunParams<'_>) -> RunOutput {
        let trial = self.trial;
        self.trial += 1;
        match self.plan.fault_at(trial) {
            None => self.inner.run(algo, params),
            Some(FaultKind::Panic) => {
                panic!("fault-inject: induced panic at run-call {trial}")
            }
            Some(FaultKind::Hang) => {
                // Do the real work first so the Timeout outcome carries
                // genuine partial counters, then "hang": a cooperative
                // spin that only the cancel token ends. Refuse to hang
                // unsupervised — a test that forgot the budget should
                // fail loudly, not wedge the suite.
                let out = self.inner.run(algo, params);
                assert!(
                    params.pool.cancel_token().is_some(),
                    "fault-inject: induced hang with no cancel token attached to the pool"
                );
                while !params.pool.is_cancelled() {
                    std::thread::sleep(Duration::from_micros(200));
                }
                out.cancelled(true)
            }
            Some(FaultKind::WrongResult) => {
                let mut out = self.inner.run(algo, params);
                corrupt(&mut out.result);
                out
            }
        }
    }

    fn log_style(&self) -> LogStyle {
        self.inner.log_style()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(42, 1000, 10);
        let b = FaultPlan::seeded(42, 1000, 10);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::seeded(43, 1000, 10);
        assert_ne!(a, c, "different seed should perturb the plan");
        assert!(!a.is_empty(), "1000 trials at period 10 should plan some faults");
    }

    #[test]
    fn explicit_plan_lookup() {
        let p = FaultPlan::new().with_fault(0, FaultKind::Panic).with_fault(3, FaultKind::Hang);
        assert_eq!(p.fault_at(0), Some(FaultKind::Panic));
        assert_eq!(p.fault_at(1), None);
        assert_eq!(p.fault_at(3), Some(FaultKind::Hang));
    }

    #[test]
    fn corruption_touches_every_variant() {
        let mut r = AlgorithmResult::Triangles(7);
        corrupt(&mut r);
        assert_eq!(r, AlgorithmResult::Triangles(8));
        let mut r = AlgorithmResult::BfsTree { parent: vec![0], level: vec![0] };
        corrupt(&mut r);
        assert_eq!(r, AlgorithmResult::BfsTree { parent: vec![0], level: vec![1] });
        let mut r = AlgorithmResult::Distances(vec![1.0, 2.0]);
        corrupt(&mut r);
        assert_eq!(r, AlgorithmResult::Distances(vec![2.0, 2.0]));
        // Empty results must not panic the injector itself.
        let mut r = AlgorithmResult::Labels(vec![]);
        corrupt(&mut r);
        assert_eq!(r, AlgorithmResult::Labels(vec![]));
    }
}
