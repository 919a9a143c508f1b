//! Graph500 reference-style engine.
//!
//! Mirrors the OpenMP reference implementation (~v2.1.4) the paper uses
//! (§III-C item 1): Benchmark 1 ("Search") has two timed kernels — *graph
//! construction* from an unsorted edge list in RAM, run **once**, and
//! *BFS*, run per sampled root. The reference BFS is a level-synchronous
//! top-down queue sweep over CSR (no direction optimization — one reason
//! GAP overtakes it in Fig. 2).
//!
//! [`Engine::run`] is the BFS kernel and nothing else. The specification
//! validates each search *outside* the timed kernel, and so does this
//! framework: the harness checks every engine's BFS tree with the spec's
//! five rules (`epg_graph::validate`) after the trial's clock has stopped,
//! so a Graph500 run time is the search alone, comparable with every other
//! engine's.
//!
//! Because the Graph500 generates its input in memory, the engine performs
//! no file I/O during `ReadFile` beyond materializing the edge list — the
//! paper notes this makes its short runs "more sensitive to spikes in CPU
//! usage" (§IV-B).

#![warn(missing_docs)]
mod bfs;
pub mod teps;

use epg_engine_api::{logfmt::LogStyle, Algorithm, Engine, EngineInfo, RunOutput, RunParams};
use epg_graph::{ingest, Csr, EdgeList};
use epg_parallel::ThreadPool;
use std::path::Path;

/// The Graph500-style engine. BFS only.
pub struct Graph500Engine {
    edge_list: Option<EdgeList>,
    csr: Option<Csr>,
}

impl Graph500Engine {
    /// Creates an engine with no graph loaded.
    pub fn new() -> Graph500Engine {
        Graph500Engine { edge_list: None, csr: None }
    }

    /// Stages `el` for [`Engine::construct`], dropping any built graph.
    fn stage(&mut self, el: EdgeList) {
        self.edge_list = Some(el);
        self.csr = None;
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
        // Kernel 1: unsorted edge list -> adjacency. The spec treats edges
        // as undirected, so construction symmetrizes, in the list it was
        // handed. The two-pass parallel build is byte-identical to the
        // serial counting sort, so using the pool changes timing only,
        // never the adjacency.
        el.symmetrize();
        self.csr = Some(Csr::from_edge_list_parallel(&el, pool));
    }

    fn run(&mut self, algo: Algorithm, params: &RunParams<'_>) -> RunOutput {
        assert!(self.supports(algo), "Graph500 implements only BFS");
        bfs::top_down_bfs(self.csr(), params)
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
    fn bfs_scratch_is_the_only_alloc_in_the_trace() {
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
        assert_eq!(allocs, [("graph500.bfs.parent+level".to_string(), n * 8)]);
    }

    #[test]
    fn run_opens_one_pool_region_per_level() {
        // The search is the whole run: one region per BFS level and no
        // checker pass after it (validation belongs to the harness).
        let el = kron(9);
        let pool = ThreadPool::new(2);
        let mut e = Graph500Engine::new();
        e.load_edge_list(&el);
        e.construct(&pool);
        for root in epg_graph::degree::sample_roots(&el, 4, 5) {
            let before = pool.stats().regions;
            let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(root)));
            let regions = pool.stats().regions - before;
            assert!(out.counters.iterations > 1, "root {root}");
            assert_eq!(regions, u64::from(out.counters.iterations), "root {root}");
        }
    }

    #[test]
    fn cancelled_run_comes_back_cancelled_not_validated() {
        // A tripped token abandons BFS ranges: the partial tree is no
        // verdict on the engine, so the run reports the cancellation.
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
    fn construction_builds_the_csr_of_the_symmetrized_list() {
        // Symmetrized in place, the list must give the CSR the copy gives:
        // self-loops once, duplicates kept, weights beside their edge.
        let weighted_kron = epg_generator::kronecker::generate(
            &epg_generator::kronecker::KroneckerConfig {
                scale: 7,
                edge_factor: 8,
                weighted: true,
                ..Default::default()
            },
            22,
        );
        let loops_and_duplicates = EdgeList::weighted(
            5,
            vec![(0, 0), (0, 1), (0, 1), (1, 0), (4, 2), (3, 3), (2, 4), (3, 3)],
            vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
        );
        for el in [kron(7), weighted_kron, loops_and_duplicates] {
            for threads in 1..=3 {
                let pool = ThreadPool::new(threads);
                let mut e = Graph500Engine::new();
                e.load_edge_list(&el);
                e.construct(&pool);
                let want = Csr::from_edge_list_parallel(&el.symmetrized(), &pool);
                assert_eq!(e.csr(), &want, "{threads} threads");
            }
        }
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
