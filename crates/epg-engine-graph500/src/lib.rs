//! Graph500 reference-style engine.
//!
//! Mirrors the OpenMP reference implementation (~v2.1.4) the paper uses
//! (§III-C item 1): Benchmark 1 ("Search") has two timed kernels — *graph
//! construction* from an unsorted edge list in RAM, run **once**, and
//! *BFS*, run per sampled root. The reference BFS is a level-synchronous
//! top-down queue sweep over CSR (no direction optimization — one reason
//! GAP overtakes it in Fig. 2).
//!
//! After every BFS the specification's five validation checks run on the
//! parent tree. The specification leaves them outside the timed kernel;
//! here they run inside [`Engine::run`], and therefore inside every timer
//! a caller puts around it (`run_experiment`'s, `bench/`'s), until the
//! `Engine` trait grows an untimed hook. What that costs is kept to a
//! checker's price: [`validate::validate_bfs_tree_parallel`] is one pass
//! over the edges on the run's own pool plus two over the vertices, about
//! what the BFS itself takes: at Kronecker scale 16 on 2 threads a run is
//! 8.4-12.0 ms with validation and 4.4-5.6 ms without (64-run medians,
//! three back-to-back repetitions). A run whose cancel token has tripped
//! comes back `cancelled` and unvalidated: the pool abandons ranges of
//! the BFS and of the validator's scan alike, so there is no tree, or no
//! verdict, to fail.
//!
//! Because the Graph500 generates its input in memory, the engine performs
//! no file I/O during `ReadFile` beyond materializing the edge list — the
//! paper notes this makes its short runs "more sensitive to spikes in CPU
//! usage" (§IV-B).

#![warn(missing_docs)]
mod bfs;
pub mod teps;

use epg_engine_api::{
    logfmt::LogStyle, Algorithm, AlgorithmResult, Engine, EngineInfo, RunOutput, RunParams,
};
use epg_graph::{ingest, validate, Csr, EdgeList};
use epg_parallel::ThreadPool;
use std::path::Path;

/// Graph500 engine configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph500Config {
    /// Run the spec's five validation checks after each BFS. Untimed in
    /// the real benchmark; here they run inside [`Engine::run`], so inside
    /// whatever timer surrounds it (see the crate documentation for what
    /// they cost). A failed check panics.
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
        if !self.config.validate || out.cancelled {
            return out;
        }
        let (Some(root), AlgorithmResult::BfsTree { parent, .. }) = (params.root, &out.result)
        else {
            unreachable!("top_down_bfs returns the tree of the root it was given")
        };
        // The validator's scratch: a u32 level and a flag byte per vertex.
        params.recorder.alloc_hwm("graph500.validate.level+flags", parent.len() as u64 * 5);
        let verdict = validate::validate_bfs_tree_parallel(self.csr(), root, parent, params.pool);
        if params.pool.is_cancelled() {
            // The token tripped under the validator's edge scan, which
            // abandoned ranges: the verdict is of a partial scan.
            return out.cancelled(true);
        }
        verdict.expect("Graph500 BFS validation failed");
        out
    }

    fn log_style(&self) -> LogStyle {
        LogStyle::Graph500
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // validate: true — every run below also passed the pool-driven
        // validator at that thread count.
        let el = kron(9);
        let sym = Csr::from_edge_list(&el.symmetrized());
        let root = epg_graph::degree::sample_roots(&el, 1, 5)[0];
        for threads in [1, 2, 3] {
            let pool = ThreadPool::new(threads);
            let mut e = Graph500Engine::new();
            e.load_edge_list(&el);
            e.construct(&pool);
            let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(root)));
            let AlgorithmResult::BfsTree { level, .. } = out.result else { panic!() };
            assert_eq!(level, oracle::bfs(&sym, root).level, "{threads} threads");
        }
    }

    #[test]
    fn validator_scratch_is_in_the_trace() {
        use epg_engine_api::{RecorderCtx, RunRecorder, TraceEvent};
        let el = kron(6);
        let pool = ThreadPool::new(2);
        let mut e = Graph500Engine::new();
        e.load_edge_list(&el);
        e.construct(&pool);
        let rec = RunRecorder::new();
        let params =
            RunParams { recorder: RecorderCtx::new(&rec), ..RunParams::new(&pool, Some(0)) };
        e.run(Algorithm::Bfs, &params);
        let allocs: Vec<_> = rec
            .events()
            .into_iter()
            .filter_map(|ev| match ev {
                TraceEvent::AllocHwm { label, bytes } => Some((label, bytes)),
                _ => None,
            })
            .collect();
        let n = el.num_vertices as u64;
        assert_eq!(
            allocs,
            [
                ("graph500.bfs.parent+level".to_string(), n * 8),
                ("graph500.validate.level+flags".to_string(), n * 5),
            ]
        );
    }

    #[test]
    fn cancelled_run_comes_back_cancelled_not_validated() {
        // A tripped token abandons BFS ranges and validator ranges alike:
        // the partial tree is no verdict on the engine, so the run reports
        // the cancellation instead of failing validation.
        let el = kron(6);
        let pool = ThreadPool::new(2);
        let mut e = Graph500Engine::new();
        e.load_edge_list(&el);
        e.construct(&pool);
        let token = epg_parallel::CancelToken::new();
        token.cancel();
        pool.set_cancel_token(Some(token));
        let root = epg_graph::degree::sample_roots(&el, 1, 5)[0];
        let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(root)));
        pool.set_cancel_token(None);
        assert!(out.cancelled);
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
