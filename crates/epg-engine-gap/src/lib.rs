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
//!   fusion). Unlike `sssp.cc`, a vertex lowered within a bin that is still
//!   waiting its turn is not filed there twice: its first entry pops and
//!   relaxes from the lower distance, so no distance moves;
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
    /// Δ-stepping bucket width: `None` (the default) takes the Δ
    /// `construct` derives from the graph ([`sssp::WeightStats::delta`]);
    /// `Some` pins it, as a sweep does.
    pub delta: Option<f32>,
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
            // Derived per graph, as GAP takes `sssp -d` per graph. No one
            // constant fits: GAP's shipped Δ=2 over integer weights in
            // [0, 255] (about mean/64) wins on Kronecker and loses 2–4.6× on
            // long paths, and a fixed 0.05 (mean/10) relaxes 2.5× the edges
            // of Kronecker 15. Mean positive weight ÷ mean out-degree lands
            // at mean/27 there (relaxations per root 2.27 M → 1.38 M) and at
            // 106 on `almost_line` 65 536 + 256 (~10× faster at one
            // thread); EXPERIMENTS.md has the per-graph table.
            delta: None,
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
    /// The in-edges; `None` once constructed when the list was declared
    /// its own transpose and `csr` serves both directions.
    csr_t: Option<Csr>,
    /// The Δ derived from the constructed graph's weights.
    delta: f32,
}

impl GapEngine {
    /// Creates an engine with the given configuration.
    pub fn with_config(config: GapConfig) -> GapEngine {
        GapEngine { config, edge_list: None, csr: None, csr_t: None, delta: 1.0 }
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

    /// The out-edge CSR.
    pub fn csr(&self) -> &Csr {
        self.csr.as_ref().expect("graph not constructed; call construct()")
    }

    /// The in-edge CSR: `csr()` itself when the list was declared its own
    /// transpose ([`EdgeList::own_transpose`]).
    pub fn csr_t(&self) -> &Csr {
        self.csr_t.as_ref().unwrap_or_else(|| self.csr())
    }

    /// The Δ `construct` derived for the graph (1.0 before it), which SSSP
    /// runs with unless `config.delta` pins another.
    pub fn derived_delta(&self) -> f32 {
        self.delta
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
        // Like GAP's `CSRGraph` on a graph its input declares undirected,
        // a list declared its own transpose keeps one set of arrays for
        // both directions; nothing is scanned to find out.
        let csr = Csr::from_edge_list_parallel(&el, pool);
        let own_transpose = el.own_transpose;
        drop(el);
        debug_assert!(!own_transpose || csr.is_own_transpose(pool), "declared, not symmetric");
        self.csr_t = (!own_transpose).then(|| csr.transpose_parallel(pool));
        self.delta = sssp::derived_delta(&csr, pool);
        self.csr = Some(csr);
    }

    fn run(&mut self, algo: Algorithm, params: &RunParams<'_>) -> RunOutput {
        assert!(self.supports(algo), "GAP does not implement {algo:?}");
        dispatch(self.csr(), self.csr_t(), &self.config, self.delta, algo, params)
    }

    fn log_style(&self) -> LogStyle {
        LogStyle::Gap
    }
}

/// Runs `algo` on the out- and in-edge CSRs (one CSR twice when it is its
/// own transpose) — the one kernel dispatch behind both
/// [`GapEngine::run`] and [`GapQuery`]'s `query`. SSSP runs with
/// `config.delta` when it is pinned, else with the graph's `derived_delta`.
fn dispatch(
    csr: &Csr,
    csr_t: &Csr,
    config: &GapConfig,
    derived_delta: f32,
    algo: Algorithm,
    params: &RunParams<'_>,
) -> RunOutput {
    match algo {
        Algorithm::Bfs => bfs::direction_optimizing_bfs(csr, csr_t, config, params),
        Algorithm::Sssp => {
            let delta = config.delta.unwrap_or(derived_delta);
            sssp::dispatch_kernel(config.sssp_kernel, csr, delta, params)
        }
        Algorithm::PageRank => pr::pagerank(csr, csr_t, params),
        Algorithm::Bc => bc::betweenness(csr, params),
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
        let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&d), bits(&oracle::dijkstra(&g, root)));
    }

    #[test]
    fn derived_delta_is_the_same_bits_at_1_2_and_3_construct_threads() {
        // ~65 000 weights: several blocks of the statistic pass.
        let el = kron(12, true);
        let at = |threads| engine_on(&el, &ThreadPool::new(threads));
        let one = at(1);
        let delta = one.derived_delta();
        assert!(delta > 0.0 && delta < 0.05, "Kronecker 12: {delta}");
        for threads in [2, 3] {
            let e = at(threads);
            assert_eq!(e.derived_delta().to_bits(), delta.to_bits(), "t={threads}");
        }
    }

    #[test]
    fn unweighted_graph_keeps_unit_delta() {
        let pool = ThreadPool::new(2);
        let e = engine_on(&kron(8, false), &pool);
        assert_eq!(e.derived_delta(), 1.0);
    }

    #[test]
    fn int_weights_derive_delta_from_the_positive_mean() {
        // Truncation sends every uniform (0,1] weight but one 1.7 to 0: the
        // mean over all weights would be ~1e-4 and Δ ~1e-5, where the
        // positive mean keeps 1.0 and Δ = 1 / (m/n).
        let mut el = kron(9, true);
        el.weights.as_mut().unwrap()[0] = 1.7;
        let pool = ThreadPool::new(2);
        let cfg = GapConfig { weight_repr: WeightRepr::Int, ..Default::default() };
        let mut e = GapEngine::with_config(cfg);
        e.load_edge_list(&el);
        e.construct(&pool);
        let (n, m) = (e.csr().num_vertices(), e.csr().num_edges());
        assert_eq!(e.derived_delta(), (n as f64 / m as f64) as f32);
        let root = el.edges[0].0;
        let out = e.run(Algorithm::Sssp, &RunParams::new(&pool, Some(root)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&d), bits(&oracle::dijkstra(e.csr(), root)));
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
