//! GAP Benchmark Suite-style engine.
//!
//! Reproduces the architecture of Beamer, Asanović and Patterson's GAP
//! Benchmark Suite reference implementations (§III-C item 2): flat CSR over
//! both edge directions, OpenMP-style worksharing, and the algorithmic
//! choices that make GAP "the clear winner" across the paper's experiments:
//!
//! - **Direction-optimizing BFS** (α = 15, β = 18 by default — the paper
//!   explicitly notes it ran GAP untuned, §IV-C);
//! - **Δ-stepping SSSP** over thread-local bins, every out-edge of a popped
//!   vertex relaxed by an atomic fetch-min (GAP's `sssp.cc`, before bucket
//!   fusion);
//! - pull-mode PageRank as `pr.cc` runs it (one contribution per vertex,
//!   then a pull that updates scores in place and sums the error), with
//!   the homogenized L1 stopping criterion.
//!
//! Like the real GAP, weights can be stored as floats (default) or cast to
//! integers at construction (`WeightRepr::Int`) — §IV-A warns that "weights
//! like 0.2 are cast to 0"; the `ablation_weights` bench measures the
//! consequences.

#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
mod bc;
mod bfs;
pub mod bmssp;
mod pr;
pub mod query;
pub mod radix;
pub mod sssp;
mod structures;
pub mod tune;

mod tc;

pub use epg_engine_api::SsspKernel;
pub use query::GapQuery;
pub use structures::{Bitmap, SlidingQueue};

use epg_engine_api::{logfmt::LogStyle, Algorithm, Engine, EngineInfo, RunOutput, RunParams};
use epg_graph::{ingest, Csr, EdgeList};
use epg_parallel::ThreadPool;
use std::path::Path;

/// How edge weights are stored (the GAP compile-time switch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WeightRepr {
    /// Single-precision floats (our default build).
    #[default]
    Float,
    /// Truncated to integers at construction; `0.2` becomes `0.0`.
    Int,
}

/// Tunable parameters (§V: "Advances in parallel SSSP and BFS contain
/// parameterizations (Δ for SSSP and α and β for BFS)... provided in GAP").
#[derive(Clone, Debug, PartialEq)]
pub struct GapConfig {
    /// Direction-switch numerator: go bottom-up when the frontier's
    /// outgoing edges exceed the unexplored edges / α.
    pub alpha: u64,
    /// Switch back top-down when the frontier shrinks below n / β.
    pub beta: u64,
    /// Enable direction optimization at all (ablation switch).
    pub direction_optimizing: bool,
    /// Δ-stepping bucket width.
    pub delta: f32,
    /// Weight storage.
    pub weight_repr: WeightRepr,
    /// Which SSSP kernel `run` dispatches to (raw-speed tier). The
    /// default is the paper's Δ-stepping.
    pub sssp_kernel: SsspKernel,
}

impl Default for GapConfig {
    fn default() -> Self {
        GapConfig {
            alpha: 15,
            beta: 18,
            direction_optimizing: true,
            // GAP's shipped default is Δ=2 over integer weights drawn from
            // [0, 255] — about mean/64. Our weighted graphs draw uniform
            // (0,1] (mean 0.5), where mean/64 is 0.5/64 ≈ 0.0078 (1/128).
            // 0.05 stays: 1/128 wins on Kronecker and loses on long paths.
            // Scale 15, 32 roots, one thread: relaxations per root 2.17 M →
            // 1.09 M, 9.6 → 5.8 ms. The homogenized `grid_swirl` w256, two
            // threads: rounds 16.6 k → 32.5 k, 31 → 61 ms. `almost_line`
            // 65 536 + 256, one thread: the same rounds and relaxations,
            // 77 → 352 ms. Per-graph Δ is `GapEngine::auto_tune`'s job.
            delta: 0.05,
            weight_repr: WeightRepr::Float,
            sssp_kernel: SsspKernel::default(),
        }
    }
}

/// The GAP-style engine. Holds one graph; `run` may be invoked repeatedly.
pub struct GapEngine {
    /// Tunables.
    pub config: GapConfig,
    edge_list: Option<EdgeList>,
    csr: Option<Csr>,
    /// The in-edges; `None` once constructed when `csr` is its own
    /// transpose and serves both directions.
    csr_t: Option<Csr>,
}

impl GapEngine {
    /// Creates an engine with the given configuration.
    pub fn with_config(config: GapConfig) -> GapEngine {
        GapEngine { config, edge_list: None, csr: None, csr_t: None }
    }

    /// Creates an engine with paper-default parameters.
    pub fn new() -> GapEngine {
        GapEngine::with_config(GapConfig::default())
    }

    /// Stages `el` for [`Engine::construct`], dropping any built graph.
    fn stage(&mut self, el: EdgeList) {
        self.edge_list = Some(el);
        self.csr = None;
        self.csr_t = None;
    }

    fn csr(&self) -> &Csr {
        self.csr.as_ref().expect("graph not constructed; call construct()")
    }

    fn csr_t(&self) -> &Csr {
        self.csr_t.as_ref().unwrap_or_else(|| self.csr())
    }

    /// Mean edge weight of the constructed graph (None when unweighted or
    /// empty) — the seed statistic for Δ tuning.
    pub fn average_weight(&self) -> Option<f32> {
        let ws = self.csr().weights.as_ref()?;
        if ws.is_empty() {
            return None;
        }
        Some((ws.iter().map(|&w| w as f64).sum::<f64>() / ws.len() as f64) as f32)
    }
}

impl Default for GapEngine {
    fn default() -> Self {
        GapEngine::new()
    }
}

impl Engine for GapEngine {
    fn info(&self) -> EngineInfo {
        EngineInfo {
            name: "GAP",
            representation: "CSR (out + in)",
            parallelism: "OpenMP-style worksharing",
            distributed_capable: false,
            requires_proprietary_compiler: false,
        }
    }

    fn supports(&self, algo: Algorithm) -> bool {
        // Core trio plus the GAP suite's bc/tc kernels (§V extensions).
        matches!(
            algo,
            Algorithm::Bfs
                | Algorithm::Sssp
                | Algorithm::PageRank
                | Algorithm::Bc
                | Algorithm::TriangleCount
        )
    }

    fn load_file(&mut self, path: &Path, pool: &ThreadPool) -> std::io::Result<()> {
        let el = ingest::read_binary_file_parallel(path, pool)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.stage(el);
        Ok(())
    }

    fn load_edge_list(&mut self, el: &EdgeList) {
        self.stage(el.clone());
    }

    fn construct(&mut self, pool: &ThreadPool) {
        let Some(mut el) = self.edge_list.take() else {
            assert!(self.csr.is_some(), "no edge list loaded");
            return;
        };
        if self.config.weight_repr == WeightRepr::Int {
            for w in el.weights.iter_mut().flatten() {
                *w = w.trunc();
            }
        }
        // GAP builds CSR in parallel (histogram + prefix sum + scatter);
        // the pull-direction transpose uses the same parallel structure.
        // Like GAP's `CSRGraph` on an undirected graph, a CSR that is its
        // own transpose keeps one set of arrays for both directions.
        let csr = Csr::from_edge_list_parallel(&el, pool);
        drop(el);
        self.csr_t = (!csr.is_own_transpose(pool)).then(|| csr.transpose_parallel(pool));
        self.csr = Some(csr);
    }

    fn run(&mut self, algo: Algorithm, params: &RunParams<'_>) -> RunOutput {
        assert!(self.supports(algo), "GAP does not implement {algo:?}");
        dispatch(self.csr(), self.csr_t(), &self.config, algo, params)
    }

    fn log_style(&self) -> LogStyle {
        LogStyle::Gap
    }
}

/// Runs `algo` on the out- and in-edge CSRs (one CSR twice when it is its
/// own transpose) — the one kernel dispatch behind both
/// [`GapEngine::run`] and [`GapQuery`]'s `query`.
fn dispatch(
    csr: &Csr,
    csr_t: &Csr,
    config: &GapConfig,
    algo: Algorithm,
    params: &RunParams<'_>,
) -> RunOutput {
    match algo {
        Algorithm::Bfs => bfs::direction_optimizing_bfs(csr, csr_t, config, params),
        Algorithm::Sssp => {
            // Unweighted graphs run with unit weights; a sub-unit Δ
            // would only fragment the (integer) distance range into
            // empty buckets, so hop-sized buckets are used instead.
            let delta = if csr.is_weighted() { config.delta } else { 1.0 };
            sssp::dispatch_kernel(config.sssp_kernel, csr, delta, params)
        }
        Algorithm::PageRank => pr::pagerank(csr, csr_t, params),
        Algorithm::Bc => bc::betweenness(csr, params, 0x6a0),
        Algorithm::TriangleCount => tc::triangle_count(csr, csr_t, params),
        _ => unreachable!("GAP does not implement {algo:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::AlgorithmResult;
    use epg_graph::{oracle, NO_VERTEX};

    fn engine_on(el: &EdgeList, pool: &ThreadPool) -> GapEngine {
        let mut e = GapEngine::new();
        e.load_edge_list(el);
        e.construct(pool);
        e
    }

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

    #[test]
    fn bfs_matches_oracle_levels() {
        let el = kron(9, false);
        let pool = ThreadPool::new(3);
        let mut e = engine_on(&el, &pool);
        let g = Csr::from_edge_list(&el);
        let root = epg_graph::degree::sample_roots(&el, 1, 7)[0];
        let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(root)));
        let AlgorithmResult::BfsTree { parent, level } = out.result else { panic!() };
        let oracle_res = oracle::bfs(&g, root);
        assert_eq!(level, oracle_res.level, "levels differ from oracle");
        epg_graph::validate::validate_bfs_tree(&g, root, &parent).unwrap();
        assert!(out.counters.edges_traversed > 0);
        assert!(out.trace.sync_points() > 0);
    }

    #[test]
    fn bfs_without_direction_optimization_still_correct() {
        let el = kron(8, false);
        let pool = ThreadPool::new(2);
        let cfg = GapConfig { direction_optimizing: false, ..Default::default() };
        let mut e = GapEngine::with_config(cfg);
        e.load_edge_list(&el);
        e.construct(&pool);
        let g = Csr::from_edge_list(&el);
        let root = epg_graph::degree::sample_roots(&el, 1, 3)[0];
        let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(root)));
        let AlgorithmResult::BfsTree { level, .. } = out.result else { panic!() };
        assert_eq!(level, oracle::bfs(&g, root).level);
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let el = kron(8, true);
        let pool = ThreadPool::new(3);
        let mut e = engine_on(&el, &pool);
        let g = Csr::from_edge_list(&el);
        let root = epg_graph::degree::sample_roots(&el, 1, 9)[0];
        let out = e.run(Algorithm::Sssp, &RunParams::new(&pool, Some(root)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        let want = oracle::dijkstra(&g, root);
        for v in 0..want.len() {
            if want[v].is_infinite() {
                assert!(d[v].is_infinite(), "vertex {v}");
            } else {
                assert!((d[v] - want[v]).abs() < 1e-3, "vertex {v}: {} vs {}", d[v], want[v]);
            }
        }
    }

    #[test]
    fn pagerank_close_to_oracle_and_converges() {
        let el = kron(8, false);
        let pool = ThreadPool::new(2);
        let mut e = engine_on(&el, &pool);
        let g = Csr::from_edge_list(&el);
        let out = e.run(Algorithm::PageRank, &RunParams::new(&pool, None));
        let AlgorithmResult::Ranks { ranks, iterations } = out.result else { panic!() };
        assert!(iterations > 2 && iterations < 300);
        let (want, _) = oracle::pagerank(&g, 6e-8, 300);
        for v in 0..want.len() {
            assert!((ranks[v] - want[v]).abs() < 1e-5, "vertex {v}: {} vs {}", ranks[v], want[v]);
        }
    }

    #[test]
    fn int_weights_truncate() {
        let el = EdgeList::weighted(3, vec![(0, 1), (1, 2)], vec![0.2, 1.7]).symmetrized();
        let pool = ThreadPool::new(1);
        let cfg = GapConfig { weight_repr: WeightRepr::Int, ..Default::default() };
        let mut e = GapEngine::with_config(cfg);
        e.load_edge_list(&el);
        e.construct(&pool);
        let out = e.run(Algorithm::Sssp, &RunParams::new(&pool, Some(0)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        // 0.2 -> 0.0 and 1.7 -> 1.0.
        assert_eq!(d[1], 0.0);
        assert_eq!(d[2], 1.0);
    }

    #[test]
    fn unreached_vertices_flagged() {
        let el = EdgeList::new(4, vec![(0, 1), (1, 0)]);
        let pool = ThreadPool::new(1);
        let mut e = engine_on(&el, &pool);
        let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(0)));
        let AlgorithmResult::BfsTree { parent, level } = out.result else { panic!() };
        assert_eq!(level[2], u32::MAX);
        assert_eq!(parent[3], NO_VERTEX);
    }

    #[test]
    fn engine_metadata() {
        let e = GapEngine::new();
        assert_eq!(e.info().name, "GAP");
        assert!(e.supports(Algorithm::Bfs));
        assert!(!e.supports(Algorithm::Lcc));
        assert!(e.supports(Algorithm::Bc));
        assert!(e.supports(Algorithm::TriangleCount));
        assert!(e.separable_construction());
    }
}
