//! PowerGraph-style engine.
//!
//! Models PowerGraph (Gonzalez et al., OSDI'12; §III-C item 5): a
//! distributed graph-parallel framework run on a single node, exactly as
//! the paper does. Its architecture is reproduced, overheads included —
//! the paper's results hinge on them ("this comes with a significant
//! overhead; PowerGraph is slower ... than the other platforms", §IV-C):
//!
//! - **vertex-cut partitioning** with master/mirror replication
//!   ([`partition::PartitionedGraph`], greedy oblivious placement);
//! - a **synchronous Gather-Apply-Scatter engine** ([`gas`]) whose every
//!   superstep pays gather-merge and mirror-synchronization costs
//!   proportional to the replication factor;
//! - toolkit algorithms ([`programs`]): SSSP (message-driven, as the
//!   toolkit's `sssp.cpp`), PageRank, CDLP, WCC, and LCC — **but no BFS**,
//!   matching the toolkit gap the paper reports (§III-D);
//! - file loading and graph construction are fused (the loader partitions
//!   while it parses, §III-B).

#![allow(clippy::needless_range_loop, clippy::type_complexity)]
#![warn(missing_docs)]
pub mod gas;
pub mod partition;
pub mod programs;

mod lcc;

use epg_engine_api::{
    logfmt::LogStyle, Algorithm, Engine, EngineInfo, RunOutput, RunParams, CDLP_ROUNDS,
};
use epg_graph::{ingest, EdgeList};
use epg_parallel::ThreadPool;
use partition::PartitionedGraph;
use std::path::Path;

/// Engine configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PowerGraphConfig {
    /// Number of vertex-cut partitions (PowerGraph would size this by
    /// machines × cores; the paper runs one node).
    pub num_partitions: usize,
}

impl Default for PowerGraphConfig {
    fn default() -> Self {
        PowerGraphConfig { num_partitions: 8 }
    }
}

/// The PowerGraph-style engine.
pub struct PowerGraphEngine {
    /// Configuration.
    pub config: PowerGraphConfig,
    staged: Option<EdgeList>,
    graph: Option<PartitionedGraph>,
}

impl PowerGraphEngine {
    /// Creates an engine with the default partition count.
    pub fn new() -> PowerGraphEngine {
        PowerGraphEngine::with_config(PowerGraphConfig::default())
    }

    /// Creates an engine with explicit configuration.
    pub fn with_config(config: PowerGraphConfig) -> PowerGraphEngine {
        PowerGraphEngine { config, staged: None, graph: None }
    }

    fn graph(&self) -> &PartitionedGraph {
        self.graph.as_ref().expect("graph not loaded")
    }

    /// Replication factor of the loaded graph (reported by the harness as
    /// part of the §IV-C discussion of dense-graph behavior).
    pub fn replication_factor(&self) -> f64 {
        self.graph().replication_factor()
    }
}

impl Default for PowerGraphEngine {
    fn default() -> Self {
        PowerGraphEngine::new()
    }
}

impl Engine for PowerGraphEngine {
    fn info(&self) -> EngineInfo {
        EngineInfo {
            name: "PowerGraph",
            representation: "vertex-cut partitions over CSR-like storage",
            parallelism: "GAS supersteps (OpenMP-style workers + fiber-like tasks)",
            distributed_capable: true,
            requires_proprietary_compiler: false,
        }
    }

    fn supports(&self, algo: Algorithm) -> bool {
        // No BFS in the toolkits (§III-D); triangle counting exists
        // (undirected_triangle_count) but betweenness does not.
        !matches!(algo, Algorithm::Bfs | Algorithm::Bc)
    }

    fn separable_construction(&self) -> bool {
        false // loads and partitions in one pass (§III-B)
    }

    fn load_file(&mut self, path: &Path, pool: &ThreadPool) -> std::io::Result<()> {
        let el = ingest::read_binary_file_parallel(path, pool)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        // Fused: partition while "loading".
        self.graph = Some(PartitionedGraph::build(&el, self.config.num_partitions));
        self.staged = None;
        Ok(())
    }

    fn load_edge_list(&mut self, el: &EdgeList) {
        self.staged = Some(el.clone());
        self.graph = None;
    }

    fn construct(&mut self, _pool: &ThreadPool) {
        if self.graph.is_none() {
            let el = self.staged.as_ref().expect("no input loaded");
            self.graph = Some(PartitionedGraph::build(el, self.config.num_partitions));
        }
    }

    fn run(&mut self, algo: Algorithm, params: &RunParams<'_>) -> RunOutput {
        assert!(self.supports(algo), "PowerGraph provides no {algo:?} toolkit");
        let g = self.graph();
        match algo {
            Algorithm::Sssp => programs::sssp(g, params),
            Algorithm::PageRank => programs::pagerank(g, params),
            Algorithm::Cdlp => programs::cdlp(g, params, CDLP_ROUNDS),
            Algorithm::Wcc => programs::wcc(g, params),
            Algorithm::Lcc => lcc::lcc(g, params),
            Algorithm::TriangleCount => lcc::triangle_count(g, params),
            Algorithm::Bfs | Algorithm::Bc => unreachable!(),
        }
    }

    fn log_style(&self) -> LogStyle {
        LogStyle::PowerGraph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::AlgorithmResult;
    use epg_graph::{oracle, Csr};

    #[test]
    fn no_bfs_toolkit() {
        let e = PowerGraphEngine::new();
        assert!(!e.supports(Algorithm::Bfs));
        assert!(e.supports(Algorithm::Sssp));
        assert!(!e.separable_construction());
        assert!(e.info().distributed_capable);
    }

    #[test]
    #[should_panic(expected = "no Bfs toolkit")]
    fn bfs_panics() {
        let el = EdgeList::new(2, vec![(0, 1)]);
        let pool = ThreadPool::new(1);
        let mut e = PowerGraphEngine::new();
        e.load_edge_list(&el);
        e.construct(&pool);
        let _ = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(0)));
    }

    #[test]
    fn end_to_end_sssp_and_replication_factor() {
        let el = epg_generator::dota_league::generate(
            &epg_generator::dota_league::DotaLeagueConfig {
                num_vertices: 300,
                avg_degree: 40,
                ..Default::default()
            },
            5,
        );
        let pool = ThreadPool::new(3);
        let mut e = PowerGraphEngine::new();
        e.load_edge_list(&el);
        e.construct(&pool);
        // Dense graph: hubs replicate across partitions.
        assert!(e.replication_factor() > 1.2, "rf = {}", e.replication_factor());
        let root = epg_graph::degree::sample_roots(&el, 1, 2)[0];
        let out = e.run(Algorithm::Sssp, &RunParams::new(&pool, Some(root)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        let want = oracle::dijkstra(&Csr::from_edge_list(&el), root);
        for v in 0..want.len() {
            if want[v].is_infinite() {
                assert!(d[v].is_infinite());
            } else {
                // dota weights are match counts (integers); paths are exact
                // in f32 up to moderate sums.
                assert!((d[v] - want[v]).abs() < 1e-2, "vertex {v}: {} vs {}", d[v], want[v]);
            }
        }
        // Mirror synchronization was charged.
        assert!(out.counters.bytes_written > 0);
    }

    #[test]
    fn wcc_via_engine_api() {
        let el = epg_generator::uniform::generate(150, 200, false, 9);
        let pool = ThreadPool::new(2);
        let mut e = PowerGraphEngine::new();
        e.load_edge_list(&el);
        e.construct(&pool);
        let out = e.run(Algorithm::Wcc, &RunParams::new(&pool, None));
        let AlgorithmResult::Components(c) = out.result else { panic!() };
        assert_eq!(c, oracle::wcc(&Csr::from_edge_list(&el)));
    }
}
