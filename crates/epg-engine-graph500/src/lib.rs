//! Graph500 reference-style engine.
//!
//! Mirrors the OpenMP reference implementation (~v2.1.4) the paper uses
//! (§III-C item 1): Benchmark 1 ("Search") has two timed kernels — *graph
//! construction* from an unsorted edge list in RAM, run **once**, and
//! *BFS*, run per sampled root. The reference BFS is a level-synchronous
//! top-down queue sweep over CSR (no direction optimization — one reason
//! GAP overtakes it in Fig. 2). After every BFS the specification's
//! validation checks run on the parent tree (untimed); this engine runs
//! them by default.
//!
//! Because the Graph500 generates its input in memory, the engine performs
//! no file I/O during `ReadFile` beyond materializing the edge list — the
//! paper notes this makes its short runs "more sensitive to spikes in CPU
//! usage" (§IV-B).

#![warn(missing_docs)]
mod bfs;
pub mod teps;

use epg_engine_api::{logfmt::LogStyle, Algorithm, Engine, EngineInfo, RunOutput, RunParams};
use epg_graph::{ingest, validate, Csr, EdgeList};
use epg_parallel::ThreadPool;
use std::path::Path;

/// Graph500 engine configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph500Config {
    /// Run the spec's five validation checks after each BFS (untimed in
    /// the real benchmark; they run outside the harness's timers too).
    pub validate: bool,
}

impl Default for Graph500Config {
    fn default() -> Self {
        Graph500Config { validate: true }
    }
}

/// The Graph500-style engine. BFS only.
pub struct Graph500Engine {
    /// Configuration.
    pub config: Graph500Config,
    edge_list: Option<EdgeList>,
    csr: Option<Csr>,
}

impl Graph500Engine {
    /// Creates an engine with default configuration (validation on).
    pub fn new() -> Graph500Engine {
        Graph500Engine { config: Graph500Config::default(), edge_list: None, csr: None }
    }

    /// Creates an engine with explicit configuration.
    pub fn with_config(config: Graph500Config) -> Graph500Engine {
        Graph500Engine { config, edge_list: None, csr: None }
    }

    fn csr(&self) -> &Csr {
        self.csr.as_ref().expect("graph not constructed; call construct()")
    }
}

impl Default for Graph500Engine {
    fn default() -> Self {
        Graph500Engine::new()
    }
}

impl Engine for Graph500Engine {
    fn info(&self) -> EngineInfo {
        EngineInfo {
            name: "Graph500",
            representation: "CSR",
            parallelism: "OpenMP-style worksharing",
            distributed_capable: false, // we use only the OpenMP reference (§III-C)
            requires_proprietary_compiler: false,
        }
    }

    fn supports(&self, algo: Algorithm) -> bool {
        algo == Algorithm::Bfs
    }

    fn load_file(&mut self, path: &Path, pool: &ThreadPool) -> std::io::Result<()> {
        let el = ingest::read_binary_file_parallel(path, pool)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.load_edge_list(&el);
        Ok(())
    }

    fn load_edge_list(&mut self, el: &EdgeList) {
        self.edge_list = Some(el.clone());
        self.csr = None;
    }

    fn construct(&mut self, pool: &ThreadPool) {
        // Kernel 1: unsorted edge list -> adjacency. The spec treats edges
        // as undirected, so construction symmetrizes. The two-pass parallel
        // build is byte-identical to the serial counting sort, so using the
        // pool changes timing only, never the adjacency.
        let el = self.edge_list.as_ref().expect("no edge list loaded");
        self.csr = Some(Csr::from_edge_list_parallel(&el.symmetrized(), pool));
    }

    fn run(&mut self, algo: Algorithm, params: &RunParams<'_>) -> RunOutput {
        assert!(self.supports(algo), "Graph500 implements only BFS");
        let out = bfs::top_down_bfs(self.csr(), params);
        if self.config.validate {
            let (Some(root), epg_engine_api::AlgorithmResult::BfsTree { parent, .. }) =
                (params.root, &out.result)
            else {
                unreachable!("top_down_bfs returns the tree of the root it was given")
            };
            validate::validate_bfs_tree(self.csr(), root, parent)
                .expect("Graph500 BFS validation failed");
        }
        out
    }

    fn log_style(&self) -> LogStyle {
        LogStyle::Graph500
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::AlgorithmResult;
    use epg_graph::oracle;

    fn kron(scale: u32) -> EdgeList {
        epg_generator::kronecker::generate(
            &epg_generator::kronecker::KroneckerConfig {
                scale,
                edge_factor: 8,
                ..Default::default()
            },
            21,
        )
    }

    #[test]
    fn bfs_levels_match_oracle_on_symmetrized_graph() {
        let el = kron(9);
        let pool = ThreadPool::new(3);
        let mut e = Graph500Engine::new();
        e.load_edge_list(&el);
        e.construct(&pool);
        let sym = Csr::from_edge_list(&el.symmetrized());
        let root = epg_graph::degree::sample_roots(&el, 1, 5)[0];
        let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(root)));
        let AlgorithmResult::BfsTree { level, .. } = out.result else { panic!() };
        assert_eq!(level, oracle::bfs(&sym, root).level);
    }

    #[test]
    fn validation_runs_by_default() {
        // validate=true is exercised in the test above (no panic). Check
        // the flag defaults and can be turned off.
        assert!(Graph500Engine::new().config.validate);
        let e = Graph500Engine::with_config(Graph500Config { validate: false });
        assert!(!e.config.validate);
    }

    #[test]
    fn only_bfs_supported() {
        let e = Graph500Engine::new();
        assert!(e.supports(Algorithm::Bfs));
        for a in
            [Algorithm::Sssp, Algorithm::PageRank, Algorithm::Cdlp, Algorithm::Lcc, Algorithm::Wcc]
        {
            assert!(!e.supports(a));
        }
    }

    #[test]
    #[should_panic(expected = "only BFS")]
    fn running_unsupported_algorithm_panics() {
        let el = kron(5);
        let pool = ThreadPool::new(1);
        let mut e = Graph500Engine::new();
        e.load_edge_list(&el);
        e.construct(&pool);
        let _ = e.run(Algorithm::PageRank, &RunParams::new(&pool, None));
    }

    #[test]
    fn construction_symmetrizes() {
        let el = EdgeList::new(3, vec![(0, 1), (1, 2)]);
        let pool = ThreadPool::new(1);
        let mut e = Graph500Engine::new();
        e.load_edge_list(&el);
        e.construct(&pool);
        // From vertex 2 we can reach 0 because edges are undirected.
        let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(2)));
        let AlgorithmResult::BfsTree { level, .. } = out.result else { panic!() };
        assert_eq!(level, vec![2, 1, 0]);
    }
}
