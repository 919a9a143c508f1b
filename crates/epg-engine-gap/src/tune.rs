//! Heuristic parameter tuning — the paper's §V plan, implemented:
//! "We plan to add some level of heuristic parameter tuning as performed
//! in [Beamer et al.] to the next iteration of our framework to take
//! advantage of these algorithmic advances."
//!
//! The tuner probes a small candidate grid on a few sampled roots and
//! picks parameters by *deterministic work counters* (edges relaxed /
//! traversed plus a per-round penalty), not wall time — so tuning is
//! repeatable on noisy machines, in the spirit of the framework.

use crate::GapEngine;
use epg_engine_api::{Algorithm, Engine, RunParams, SsspKernel};
use epg_graph::VertexId;
use epg_parallel::ThreadPool;

/// What the tuner decided and why.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneReport {
    /// Chosen Δ for SSSP.
    pub delta: f32,
    /// Chosen direction-switch α.
    pub alpha: u64,
    /// Chosen direction-switch β.
    pub beta: u64,
    /// (candidate Δ, work cost) pairs probed (under Δ-stepping).
    pub delta_probes: Vec<(f32, u64)>,
    /// ((α, β), work cost) pairs probed.
    pub bfs_probes: Vec<((u64, u64), u64)>,
}

/// Synchronization penalty charged per bucket/step during probing: extra
/// rounds cost barriers even when they relax few edges.
const ROUND_PENALTY: u64 = 2_000;

impl GapEngine {
    /// Probes Δ and (α, β) on up to three of the given roots and installs
    /// the best-scoring parameters; each probe compares like with like
    /// (one kernel, one execution model). The graph must be constructed.
    pub fn auto_tune(&mut self, pool: &ThreadPool, roots: &[VertexId]) -> TuneReport {
        let probe_roots: Vec<VertexId> = roots.iter().copied().take(3).collect();
        assert!(!probe_roots.is_empty(), "need at least one probe root");

        // ---- Δ candidates seeded from the weight distribution ----
        // Δ only matters under Δ-stepping, so probe it with that kernel
        // pinned regardless of the configured one.
        let saved_kernel = self.config.sssp_kernel;
        self.config.sssp_kernel = SsspKernel::DeltaStepping;
        let avg_w = self.average_weight().unwrap_or(1.0);
        // Include the current Δ so tuning can never regress the config.
        let current = self.config.delta.unwrap_or(self.derived_delta());
        let candidates = [current, avg_w * 0.05, avg_w * 0.25, avg_w, avg_w * 4.0, avg_w * 1e6];
        let mut delta_probes = Vec::new();
        let mut best_delta = (current, u64::MAX);
        for &delta in &candidates {
            let saved = self.config.delta;
            self.config.delta = Some(delta);
            let mut cost = 0u64;
            for &r in &probe_roots {
                let out = self.run(Algorithm::Sssp, &RunParams::new(pool, Some(r)));
                cost +=
                    out.counters.edges_traversed + out.counters.iterations as u64 * ROUND_PENALTY;
            }
            delta_probes.push((delta, cost));
            if cost < best_delta.1 {
                best_delta = (delta, cost);
            }
            self.config.delta = saved;
        }
        self.config.delta = Some(best_delta.0);
        self.config.sssp_kernel = saved_kernel;

        // ---- (α, β) candidates around GAP's defaults ----
        let grid = [(4u64, 18u64), (15, 18), (15, 64), (64, 18), (64, 64)];
        let mut bfs_probes = Vec::new();
        let mut best_ab = ((self.config.alpha, self.config.beta), u64::MAX);
        for &(alpha, beta) in &grid {
            let saved = (self.config.alpha, self.config.beta);
            self.config.alpha = alpha;
            self.config.beta = beta;
            let mut cost = 0u64;
            for &r in &probe_roots {
                let out = self.run(Algorithm::Bfs, &RunParams::new(pool, Some(r)));
                cost +=
                    out.counters.edges_traversed + out.counters.iterations as u64 * ROUND_PENALTY;
            }
            bfs_probes.push(((alpha, beta), cost));
            if cost < best_ab.1 {
                best_ab = ((alpha, beta), cost);
            }
            self.config.alpha = saved.0;
            self.config.beta = saved.1;
        }
        self.config.alpha = best_ab.0 .0;
        self.config.beta = best_ab.0 .1;

        TuneReport {
            delta: best_delta.0,
            alpha: self.config.alpha,
            beta: self.config.beta,
            delta_probes,
            bfs_probes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::AlgorithmResult;
    use epg_graph::{oracle, Csr, EdgeList};

    fn weighted_kron() -> EdgeList {
        epg_generator::kronecker::generate(
            &epg_generator::kronecker::KroneckerConfig {
                scale: 9,
                edge_factor: 8,
                weighted: true,
                ..Default::default()
            },
            3,
        )
        .symmetrized()
        .deduplicated()
    }

    #[test]
    fn tuning_never_worsens_probe_cost() {
        let el = weighted_kron();
        let pool = ThreadPool::new(2);
        let mut e = GapEngine::new();
        e.load_edge_list(&el);
        e.construct(&pool);
        let roots = epg_graph::degree::sample_roots(&el, 3, 1);

        let default_cost = {
            let mut c = 0u64;
            for &r in &roots {
                let out = e.run(Algorithm::Sssp, &RunParams::new(&pool, Some(r)));
                c += out.counters.edges_traversed + out.counters.iterations as u64 * 2_000;
            }
            c
        };
        let report = e.auto_tune(&pool, &roots);
        let tuned_cost = report.delta_probes.iter().find(|(d, _)| *d == report.delta).unwrap().1;
        assert!(tuned_cost <= default_cost, "tuned {tuned_cost} vs default {default_cost}");
        assert_eq!(report.delta_probes.len(), 6);
        assert_eq!(report.bfs_probes.len(), 5);
        assert_eq!(e.config.sssp_kernel, SsspKernel::default(), "the tuner leaves the kernel");
    }

    #[test]
    fn tuned_engine_is_still_correct() {
        let el = weighted_kron();
        let pool = ThreadPool::new(2);
        let mut e = GapEngine::new();
        e.load_edge_list(&el);
        e.construct(&pool);
        let roots = epg_graph::degree::sample_roots(&el, 2, 5);
        let _ = e.auto_tune(&pool, &roots);
        let g = Csr::from_edge_list(&el);
        let out = e.run(Algorithm::Sssp, &RunParams::new(&pool, Some(roots[0])));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&d), bits(&oracle::dijkstra(&g, roots[0])));
        let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(roots[0])));
        let AlgorithmResult::BfsTree { level, .. } = out.result else { panic!() };
        assert_eq!(level, oracle::bfs(&g, roots[0]).level);
    }

    #[test]
    #[should_panic(expected = "at least one probe root")]
    fn empty_roots_rejected() {
        let el = weighted_kron();
        let pool = ThreadPool::new(1);
        let mut e = GapEngine::new();
        e.load_edge_list(&el);
        e.construct(&pool);
        let _ = e.auto_tune(&pool, &[]);
    }
}
