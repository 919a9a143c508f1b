//! Reentrant query adapter over a constructed [`GapEngine`].
//!
//! [`GapEngine::into_query`] freezes the engine's CSRs and config
//! into an immutable [`GapQuery`] that implements
//! [`epg_engine_api::QueryEngine`]: point queries through `&self`, safe
//! to call from many serving threads at once. Concurrency is handled by
//! the substrate, not here — every kernel runs inside the pool's
//! [`ThreadPool::exclusive`] on the pool it hands out. On a 1-thread pool
//! that is the request's own inline lane, so concurrent traversals run at
//! once over the shared CSRs; on a wider pool it is the pool itself
//! behind a gate, so one traversal dispatches at a time while the other
//! clients wait. Per-request SLO budgets ride in on
//! [`RunParams::cancel`]: the adapter attaches the token to the handed-out
//! pool for the duration of the run and restores the previous token even
//! if the kernel unwinds, so one client's deadline never reaches another
//! client's traversal.

use crate::{dispatch, GapConfig, GapEngine};
use epg_engine_api::{Algorithm, Engine, EngineInfo, QueryEngine, RunOutput, RunParams};
use epg_graph::{Csr, VertexId};
use epg_parallel::{CancelToken, ThreadPool};

/// An immutable, shareable GAP engine answering concurrent point queries.
pub struct GapQuery {
    config: GapConfig,
    /// The Δ `construct` derived for the graph.
    delta: f32,
    csr: Csr,
    /// The in-edges, `None` when `csr` is its own transpose.
    csr_t: Option<Csr>,
}

impl GapEngine {
    /// Converts a loaded + constructed engine into its reentrant query
    /// form, consuming the exclusive `&mut self` protocol for good.
    ///
    /// Panics if `construct` has not run.
    pub fn into_query(mut self) -> GapQuery {
        let csr = self.csr.take().expect("graph not constructed; call construct()");
        GapQuery { config: self.config, delta: self.delta, csr, csr_t: self.csr_t.take() }
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
            // The same request, dispatched on the pool `exclusive` handed
            // out (a lane of a 1-thread pool), where its token is attached.
            let params = RunParams {
                root: params.root,
                pool,
                stopping: params.stopping,
                max_iterations: params.max_iterations,
                bc_sources: params.bc_sources,
                recorder: params.recorder,
                cancel: params.cancel.clone(),
            };
            let csr_t = self.csr_t.as_ref().unwrap_or(&self.csr);
            let out = dispatch(&self.csr, csr_t, &self.config, self.delta, algo, &params);
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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
        // `&self`, gated dispatch on a 2-thread pool and concurrent inline
        // lanes on a 1-thread one, no cross-request bleed.
        let el = kron(8, false);
        let g = Csr::from_edge_list(&el);
        let roots = epg_graph::degree::sample_roots(&el, 4, 11);
        for nthreads in [1, 2] {
            let pool = ThreadPool::new(nthreads);
            let q = Arc::new(query_on(&el, &pool));
            std::thread::scope(|s| {
                for &root in &roots {
                    let q = Arc::clone(&q);
                    let g = &g;
                    let pool = &pool;
                    s.spawn(move || {
                        for _ in 0..3 {
                            let out = q.query(Algorithm::Bfs, &RunParams::new(pool, Some(root)));
                            let AlgorithmResult::BfsTree { level, .. } = out.result else {
                                panic!()
                            };
                            assert_eq!(level, oracle::bfs(g, root).level, "root {root}");
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn one_clients_budget_never_cancels_anothers_traversal() {
        // On a shared 1-thread pool each request runs on its own lane and
        // its budget rides on that lane alone. Client A sends pre-expired
        // budgets for as long as client B's unbudgeted traversals run:
        // every A query comes back cancelled, no B query does, and B's
        // answers are the oracle's.
        let el = kron(8, true);
        let g = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(1);
        let q = query_on(&el, &pool);
        let roots = epg_graph::degree::sample_roots(&el, 4, 5);
        let want: Vec<(Vec<u32>, Vec<f32>)> =
            roots.iter().map(|&r| (oracle::bfs(&g, r).level, oracle::dijkstra(&g, r))).collect();
        let b_done = AtomicBool::new(false);
        let (a_sent, a_ran_out) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                while !b_done.load(Ordering::Relaxed) {
                    let k = a_sent.load(Ordering::Relaxed);
                    let algo = if k % 2 == 0 { Algorithm::Bfs } else { Algorithm::Sssp };
                    let mut params = RunParams::new(&pool, Some(roots[k % roots.len()]));
                    let token = CancelToken::new();
                    token.cancel();
                    params.cancel = Some(token);
                    if !q.query(algo, &params).cancelled {
                        a_ran_out.fetch_add(1, Ordering::Relaxed);
                    }
                    a_sent.fetch_add(1, Ordering::Relaxed);
                }
            });
            let b = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                while a_sent.load(Ordering::Relaxed) == 0 && !a.is_finished() {
                    std::thread::yield_now();
                }
                for _ in 0..10 {
                    for (&root, (level, dist)) in roots.iter().zip(&want) {
                        let bfs = q.query(Algorithm::Bfs, &RunParams::new(&pool, Some(root)));
                        assert!(!bfs.cancelled, "B's BFS from {root} was cancelled");
                        let AlgorithmResult::BfsTree { level: got, .. } = bfs.result else {
                            panic!()
                        };
                        assert_eq!(&got, level, "BFS root {root}");
                        let sssp = q.query(Algorithm::Sssp, &RunParams::new(&pool, Some(root)));
                        assert!(!sssp.cancelled, "B's SSSP from {root} was cancelled");
                        let AlgorithmResult::Distances(got) = sssp.result else { panic!() };
                        assert_eq!(&got, dist, "SSSP root {root}");
                    }
                }
            }));
            // Stop A whether or not B passed, so a failure cannot hang.
            b_done.store(true, Ordering::Relaxed);
            if let Err(payload) = b {
                std::panic::resume_unwind(payload);
            }
        });
        assert!(a_sent.load(Ordering::Relaxed) > 0);
        assert_eq!(a_ran_out.load(Ordering::Relaxed), 0, "an expired budget did not cancel");
        assert!(!pool.is_cancelled(), "a request token leaked onto the shared pool");
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
