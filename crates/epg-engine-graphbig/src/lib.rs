//! GraphBIG-style engine.
//!
//! Models GraphBIG (Nai et al., SC'15), the IBM System G-derived benchmark
//! suite built on the `openG` property-graph framework (§III-C item 3):
//!
//! - storage is a **vector of vertex objects**, each owning linked
//!   adjacency lists and an inline property record
//!   ([`epg_graph::adjacency::PropertyGraph`]): every neighbour costs a
//!   dependent load through the list's `next` link and every vertex a fat
//!   record, which the flat CSR engines do not pay and which is part of why
//!   GraphBIG shows "the widest variation" (§IV-C). Each vertex's list
//!   cells sit together, as in a container the vertex owns — cell placement
//!   is storage, not model, and is the same for out- and in-lists;
//! - kernels are vertex-centric loops under **dynamic** OpenMP scheduling;
//! - the input file is parsed and the graph built **simultaneously**, so
//!   read and construction cannot be timed apart (§III-B) — the paper omits
//!   GraphBIG from the construction-time plots for exactly this reason;
//! - implements all six benchmark kernels (BFS, SSSP, PR, CDLP, LCC, WCC),
//!   matching its columns in Tables I and II.

#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
mod community;
mod extensions;
mod ranking;
mod topology;
mod traversal;

#[cfg(test)]
mod build_parity;

use epg_engine_api::{
    logfmt::LogStyle, Algorithm, Engine, EngineInfo, RunOutput, RunParams, CDLP_ROUNDS,
};
use epg_graph::adjacency::PropertyGraph;
use epg_graph::{ingest, EdgeList};
use epg_parallel::ThreadPool;
use std::path::Path;

/// The GraphBIG-style engine.
pub struct GraphBigEngine {
    staged: Option<EdgeList>,
    graph: Option<PropertyGraph>,
}

impl GraphBigEngine {
    /// Creates an empty engine.
    pub fn new() -> GraphBigEngine {
        GraphBigEngine { staged: None, graph: None }
    }

    fn graph(&self) -> &PropertyGraph {
        self.graph.as_ref().expect("graph not loaded")
    }
}

impl Default for GraphBigEngine {
    fn default() -> Self {
        GraphBigEngine::new()
    }
}

impl Engine for GraphBigEngine {
    fn info(&self) -> EngineInfo {
        EngineInfo {
            name: "GraphBIG",
            representation: "openG property graph (vertex objects)",
            parallelism: "OpenMP-style dynamic worksharing",
            distributed_capable: false,
            requires_proprietary_compiler: false,
        }
    }

    fn supports(&self, _algo: Algorithm) -> bool {
        true // all six kernels
    }

    fn separable_construction(&self) -> bool {
        false // reads the file and builds the graph simultaneously (§III-B)
    }

    fn load_file(&mut self, path: &Path, pool: &ThreadPool) -> std::io::Result<()> {
        // openG builds the structure while it reads the file, so the build
        // belongs to the load. The text parse is the chunked zero-copy
        // scanner; the build is the property graph's own serial bulk build,
        // the same one `construct` uses for a staged edge list.
        let el = ingest::read_snap_file_parallel(path, pool)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.graph = Some(PropertyGraph::from_edge_list(&el));
        self.staged = None;
        Ok(())
    }

    fn load_edge_list(&mut self, el: &EdgeList) {
        self.staged = Some(el.clone());
        self.graph = None;
    }

    fn construct(&mut self, _pool: &ThreadPool) {
        let Some(el) = self.staged.take() else {
            assert!(self.graph.is_some(), "no input loaded");
            return;
        };
        self.graph = Some(PropertyGraph::from_edge_list(&el));
    }

    fn run(&mut self, algo: Algorithm, params: &RunParams<'_>) -> RunOutput {
        let g = self.graph();
        match algo {
            Algorithm::Bfs => traversal::bfs(g, params),
            Algorithm::Sssp => traversal::sssp(g, params),
            Algorithm::PageRank => ranking::pagerank(g, params),
            Algorithm::Cdlp => community::cdlp(g, params, CDLP_ROUNDS),
            Algorithm::Wcc => community::wcc(g, params),
            Algorithm::Lcc => topology::lcc(g, params),
            Algorithm::Bc => extensions::betweenness(g, params, 0x6b16),
            Algorithm::TriangleCount => extensions::triangle_count(g, params),
        }
    }

    fn log_style(&self) -> LogStyle {
        LogStyle::GraphBig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::AlgorithmResult;
    use epg_graph::{oracle, Csr};

    fn build(el: &EdgeList, pool: &ThreadPool) -> GraphBigEngine {
        let mut e = GraphBigEngine::new();
        e.load_edge_list(el);
        e.construct(pool);
        e
    }

    fn random_graph(seed: u64) -> EdgeList {
        epg_generator::uniform::generate(300, 2400, false, seed).deduplicated().symmetrized()
    }

    #[test]
    fn all_algorithms_supported_and_fused() {
        let e = GraphBigEngine::new();
        for a in Algorithm::ALL {
            assert!(e.supports(a));
        }
        assert!(!e.separable_construction());
    }

    #[test]
    fn bfs_matches_oracle() {
        let el = random_graph(1);
        let pool = ThreadPool::new(3);
        let mut e = build(&el, &pool);
        let g = Csr::from_edge_list(&el);
        let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(5)));
        let AlgorithmResult::BfsTree { parent, level } = out.result else { panic!() };
        assert_eq!(level, oracle::bfs(&g, 5).level);
        epg_graph::validate::validate_bfs_tree(&g, 5, &parent).unwrap();
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let el = epg_generator::uniform::generate(200, 1500, true, 3).deduplicated().symmetrized();
        let pool = ThreadPool::new(3);
        let mut e = build(&el, &pool);
        let g = Csr::from_edge_list(&el);
        let out = e.run(Algorithm::Sssp, &RunParams::new(&pool, Some(2)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        let want = oracle::dijkstra(&g, 2);
        for v in 0..want.len() {
            if want[v].is_infinite() {
                assert!(d[v].is_infinite());
            } else {
                assert!((d[v] - want[v]).abs() < 1e-3, "vertex {v}");
            }
        }
    }

    #[test]
    fn pagerank_matches_oracle() {
        let el = random_graph(4);
        let pool = ThreadPool::new(2);
        let mut e = build(&el, &pool);
        let g = Csr::from_edge_list(&el);
        let out = e.run(Algorithm::PageRank, &RunParams::new(&pool, None));
        let AlgorithmResult::Ranks { ranks, .. } = out.result else { panic!() };
        let (want, _) = oracle::pagerank(&g, 6e-8, 300);
        for v in 0..want.len() {
            assert!((ranks[v] - want[v]).abs() < 1e-5, "vertex {v}");
        }
    }

    #[test]
    fn wcc_matches_oracle() {
        let el = epg_generator::uniform::generate(200, 300, false, 5); // sparse: many components
        let pool = ThreadPool::new(2);
        let mut e = build(&el, &pool);
        let g = Csr::from_edge_list(&el);
        let out = e.run(Algorithm::Wcc, &RunParams::new(&pool, None));
        let AlgorithmResult::Components(c) = out.result else { panic!() };
        assert_eq!(c, oracle::wcc(&g));
    }

    #[test]
    fn lcc_matches_oracle() {
        let el = epg_generator::uniform::generate(120, 900, false, 6).deduplicated().symmetrized();
        let pool = ThreadPool::new(2);
        let mut e = build(&el, &pool);
        let g = Csr::from_edge_list(&el);
        let out = e.run(Algorithm::Lcc, &RunParams::new(&pool, None));
        let AlgorithmResult::Coefficients(c) = out.result else { panic!() };
        let want = oracle::lcc(&g);
        for v in 0..want.len() {
            assert!((c[v] - want[v]).abs() < 1e-9, "vertex {v}: {} vs {}", c[v], want[v]);
        }
    }

    #[test]
    fn cdlp_matches_oracle() {
        let el = random_graph(7);
        let pool = ThreadPool::new(2);
        let mut e = build(&el, &pool);
        let g = Csr::from_edge_list(&el);
        let out = e.run(Algorithm::Cdlp, &RunParams::new(&pool, None));
        let AlgorithmResult::Labels(l) = out.result else { panic!() };
        assert_eq!(l, oracle::cdlp(&g, CDLP_ROUNDS));
    }

    #[test]
    fn load_file_builds_directly() {
        let el = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        let dir = std::env::temp_dir().join("epg_graphbig_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.snap");
        epg_graph::snap::write_snap_file(&el, "t", &path).unwrap();
        let mut e = GraphBigEngine::new();
        let pool = ThreadPool::new(2);
        e.load_file(&path, &pool).unwrap();
        e.construct(&pool); // no-op: already built during load
        let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(0)));
        let AlgorithmResult::BfsTree { level, .. } = out.result else { panic!() };
        assert_eq!(level, vec![0, 1, 2, 3]);
    }
}
