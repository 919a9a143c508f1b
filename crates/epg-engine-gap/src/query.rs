//! Reentrant query adapter over a constructed [`GapEngine`].
//!
//! [`GapEngine::into_query`] freezes the engine's CSR pair and config
//! into an immutable [`GapQuery`] that implements
//! [`epg_engine_api::QueryEngine`]: point queries through `&self`, safe
//! to call from many serving threads at once. Concurrency is handled by
//! the substrate, not here — every kernel dispatch goes through the
//! pool's serialized [`ThreadPool::exclusive`] gate, so exactly one
//! traversal runs at a time while any number of clients may be blocked
//! at the gate. Per-request SLO budgets ride in on
//! [`RunParams::cancel`]: the adapter attaches the token to the pool
//! for the duration of the run and restores the previous token even if
//! the kernel unwinds.

use crate::{dispatch, GapConfig, GapEngine};
use epg_engine_api::{Algorithm, Engine, EngineInfo, QueryEngine, RunOutput, RunParams};
use epg_graph::{Csr, VertexId};
use epg_parallel::{CancelToken, ThreadPool};

/// An immutable, shareable GAP engine answering concurrent point queries.
pub struct GapQuery {
    config: GapConfig,
    csr: Csr,
    csr_t: Csr,
}

impl GapEngine {
    /// Converts a loaded + constructed engine into its reentrant query
    /// form, consuming the exclusive `&mut self` protocol for good.
    ///
    /// Panics if `construct` has not run.
    pub fn into_query(mut self) -> GapQuery {
        let csr = self.csr.take().expect("graph not constructed; call construct()");
        let csr_t = self.csr_t.take().expect("graph not constructed; call construct()");
        GapQuery { config: self.config, csr, csr_t }
    }
}

impl GapQuery {
    /// The resident out-direction CSR (read-only).
    pub fn csr(&self) -> &Csr {
        &self.csr
    }
}

/// Restores the pool's previous cancel token on drop, so a panicking
/// kernel cannot leave a dead request's budget attached.
struct TokenGuard<'p> {
    pool: &'p ThreadPool,
    prev: Option<CancelToken>,
    armed: bool,
}

impl Drop for TokenGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.pool.set_cancel_token(self.prev.take());
        }
    }
}

impl QueryEngine for GapQuery {
    fn info(&self) -> EngineInfo {
        // Identical to the batch engine's inventory row.
        GapEngine::new().info()
    }

    fn supports(&self, algo: Algorithm) -> bool {
        // The point-query surface: the core trio. The §V extensions
        // (BC/TC) are whole-graph statistics, not per-vertex point
        // lookups, and stay on the batch protocol.
        matches!(algo, Algorithm::Bfs | Algorithm::Sssp | Algorithm::PageRank)
    }

    fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    fn out_degree(&self, v: VertexId) -> usize {
        self.csr.out_degree(v)
    }

    fn query(&self, algo: Algorithm, params: &RunParams<'_>) -> RunOutput {
        assert!(self.supports(algo), "GAP query surface does not implement {algo:?}");
        params.pool.exclusive(|pool| {
            let guard = TokenGuard {
                pool,
                prev: if params.cancel.is_some() { pool.cancel_token() } else { None },
                armed: params.cancel.is_some(),
            };
            if let Some(token) = &params.cancel {
                pool.set_cancel_token(Some(token.clone()));
            }
            let out = dispatch(&self.csr, &self.csr_t, &self.config, algo, params);
            drop(guard);
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::AlgorithmResult;
    use epg_graph::{oracle, EdgeList};
    use std::sync::Arc;

    fn kron(scale: u32, weighted: bool) -> EdgeList {
        epg_generator::kronecker::generate(
            &epg_generator::kronecker::KroneckerConfig {
                scale,
                edge_factor: 8,
                weighted,
                ..Default::default()
            },
            42,
        )
        .symmetrized()
    }

    fn query_on(el: &EdgeList, pool: &ThreadPool) -> GapQuery {
        let mut e = GapEngine::new();
        e.load_edge_list(el);
        e.construct(pool);
        e.into_query()
    }

    #[test]
    #[should_panic(expected = "not constructed")]
    fn into_query_requires_construction() {
        let _ = GapEngine::new().into_query();
    }

    #[test]
    fn query_matches_batch_run() {
        let el = kron(8, true);
        let pool = ThreadPool::new(2);
        let mut e = GapEngine::new();
        e.load_edge_list(&el);
        e.construct(&pool);
        let roots = epg_graph::degree::sample_roots(&el, 2, 7);
        let batch: Vec<RunOutput> = roots
            .iter()
            .map(|&r| e.run(Algorithm::Sssp, &RunParams::new(&pool, Some(r))))
            .collect();
        let q = e.into_query();
        for (i, &r) in roots.iter().enumerate() {
            let out = q.query(Algorithm::Sssp, &RunParams::new(&pool, Some(r)));
            assert_eq!(out.result, batch[i].result, "root {r}");
        }
    }

    #[test]
    fn concurrent_queries_match_oracle() {
        // Many client threads fire BFS point queries at one shared
        // GapQuery; every returned level array must equal the sequential
        // oracle's. This is the reentrancy contract end to end: shared
        // `&self`, serialized dispatch, no cross-request bleed.
        let el = kron(8, false);
        let pool = ThreadPool::new(2);
        let q = Arc::new(query_on(&el, &pool));
        let g = Csr::from_edge_list(&el);
        let roots = epg_graph::degree::sample_roots(&el, 4, 11);
        std::thread::scope(|s| {
            for &root in &roots {
                let q = Arc::clone(&q);
                let g = &g;
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..3 {
                        let out = q.query(Algorithm::Bfs, &RunParams::new(pool, Some(root)));
                        let AlgorithmResult::BfsTree { level, .. } = out.result else { panic!() };
                        assert_eq!(level, oracle::bfs(g, root).level, "root {root}");
                    }
                });
            }
        });
    }

    #[test]
    fn expired_budget_reports_cancelled() {
        let el = kron(8, true);
        let pool = ThreadPool::new(2);
        let q = query_on(&el, &pool);
        let root = epg_graph::degree::sample_roots(&el, 1, 3)[0];
        for algo in [Algorithm::Bfs, Algorithm::Sssp] {
            let mut params = RunParams::new(&pool, Some(root));
            let token = CancelToken::new();
            token.cancel(); // already expired before dispatch
            params.cancel = Some(token);
            let out = q.query(algo, &params);
            assert!(out.cancelled, "{algo:?}: pre-tripped budget must surface as a cancelled run");
            // The guard must have detached the request token again.
            assert!(!pool.is_cancelled(), "{algo:?}: request token leaked into the pool");
            // And the engine still answers the next (unbudgeted) query.
            let ok = q.query(algo, &RunParams::new(&pool, Some(root)));
            assert!(!ok.cancelled);
        }
    }
}
