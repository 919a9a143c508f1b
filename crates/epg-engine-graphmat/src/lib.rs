//! GraphMat-style engine.
//!
//! Models GraphMat (Sundaram et al., VLDB'15, §III-C item 4): graph
//! algorithms are written as *vertex programs* which the backend maps onto
//! generalized sparse matrix-vector products over a doubly-compressed
//! sparse matrix ([`epg_graph::Dcsc`]). This crate is a mini-GraphBLAS:
//!
//! - [`program::GraphProgram`] — GraphMat's SEND / PROCESS / REDUCE / APPLY
//!   abstraction;
//! - [`spmv`] — the SpMSpV backend that schedules a program iteration as a
//!   masked matrix-vector product;
//! - [`programs`] — BFS, SSSP, PR, CDLP, and WCC written as programs;
//! - LCC as a two-phase matrix kernel.
//!
//! Architectural signatures the paper observes and this engine reproduces:
//! the SpMV machinery has real constant overhead per iteration ("the
//! overhead of the sparse matrix operations... may pay off for larger
//! datasets", §IV-C); PageRank's *native* stopping criterion is "run until
//! **no** vertex's rank changes" (§IV-A), so with `RunParams::stopping =
//! None` this engine iterates far longer than the others — Fig. 4's
//! iteration-count gap; and PageRank first runs a degree-count pass, which
//! is exactly the "run algorithm 1 (count degree)" line in the paper's
//! GraphMat log excerpt.

#![allow(clippy::needless_range_loop, clippy::type_complexity)]
#![warn(missing_docs)]
pub mod program;
pub mod programs;
pub mod spmv;

mod lcc;

use epg_engine_api::{
    logfmt::LogStyle, Algorithm, Engine, EngineInfo, RunOutput, RunParams, CDLP_ROUNDS,
};
use epg_graph::{ingest, Dcsc, EdgeList};
use epg_parallel::ThreadPool;
use std::path::Path;

/// The GraphMat-style engine.
pub struct GraphMatEngine {
    edge_list: Option<EdgeList>,
    /// Entry (dst, src): columns hold out-edges, used for push iteration.
    matrix: Option<Dcsc>,
    /// Entry (src, dst): columns hold in-edges, used for pull iteration.
    /// `None` once constructed when the list was declared its own
    /// transpose ([`EdgeList::own_transpose`]), as every undirected list the
    /// homogenizer writes is: [`GraphMatEngine::matrix_t`] is then `matrix`.
    matrix_t: Option<Dcsc>,
    num_vertices: usize,
}

impl GraphMatEngine {
    /// Creates an empty engine.
    pub fn new() -> GraphMatEngine {
        GraphMatEngine { edge_list: None, matrix: None, matrix_t: None, num_vertices: 0 }
    }

    /// Stages `el` for [`Engine::construct`], dropping any built matrices.
    fn stage(&mut self, el: EdgeList) {
        self.num_vertices = el.num_vertices;
        self.edge_list = Some(el);
        self.matrix = None;
        self.matrix_t = None;
    }

    /// The push-direction matrix (columns = out-edges).
    pub fn matrix(&self) -> &Dcsc {
        self.matrix.as_ref().expect("graph not constructed")
    }

    /// The pull-direction matrix (columns = in-edges): `matrix()` itself
    /// when the list was declared its own transpose, so every program reads
    /// the same entries in the same order either way.
    pub fn matrix_t(&self) -> &Dcsc {
        self.matrix_t.as_ref().unwrap_or_else(|| self.matrix())
    }
}

impl Default for GraphMatEngine {
    fn default() -> Self {
        GraphMatEngine::new()
    }
}

impl Engine for GraphMatEngine {
    fn info(&self) -> EngineInfo {
        EngineInfo {
            name: "GraphMat",
            representation: "DCSC sparse matrix",
            parallelism: "OpenMP-style worksharing over matrix segments",
            distributed_capable: false, // v1.0, as used by the paper
            requires_proprietary_compiler: true, // "GraphMat requires the Intel compiler" (§VI)
        }
    }

    fn supports(&self, algo: Algorithm) -> bool {
        // All six Table I columns, plus triangle counting (GraphMat ships a
        // TC reference program); no betweenness centrality in v1.0.
        algo != Algorithm::Bc
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
        let Some(el) = self.edge_list.take() else {
            assert!(self.matrix.is_some(), "no edge list loaded");
            return;
        };
        // A list declared its own transpose, as the homogenizer's
        // undirected lists are, gives a matrix that serves both
        // orientations: one copy of the graph, and no scan to find out.
        let m = Dcsc::from_edge_list(&el, pool);
        let own_transpose = el.own_transpose;
        drop(el);
        debug_assert!(!own_transpose || m.is_own_transpose(pool), "declared, not symmetric");
        self.matrix_t = (!own_transpose).then(|| m.transpose(pool));
        self.matrix = Some(m);
    }

    fn run(&mut self, algo: Algorithm, params: &RunParams<'_>) -> RunOutput {
        let (a, at) = (self.matrix(), self.matrix_t());
        let n = self.num_vertices;
        match algo {
            Algorithm::Bfs => programs::bfs(a, n, params),
            Algorithm::Sssp => programs::sssp(a, n, params),
            Algorithm::PageRank => programs::pagerank(a, at, n, params),
            Algorithm::Cdlp => programs::cdlp(a, at, n, params, CDLP_ROUNDS),
            Algorithm::Wcc => programs::wcc(a, at, n, params),
            Algorithm::Lcc => lcc::lcc(a, at, n, params),
            Algorithm::TriangleCount => lcc::triangle_count(a, at, n, params),
            Algorithm::Bc => unreachable!(),
        }
    }

    fn log_style(&self) -> LogStyle {
        LogStyle::GraphMat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::{AlgorithmResult, StoppingCriterion};
    use epg_graph::{oracle, Csr};

    fn build(el: &EdgeList, pool: &ThreadPool) -> GraphMatEngine {
        let mut e = GraphMatEngine::new();
        e.load_edge_list(el);
        e.construct(pool);
        e
    }

    fn random_graph(seed: u64) -> EdgeList {
        epg_generator::uniform::generate(250, 2000, false, seed).symmetrized().deduplicated()
    }

    #[test]
    fn bfs_matches_oracle() {
        let el = random_graph(1);
        let pool = ThreadPool::new(3);
        let mut e = build(&el, &pool);
        let g = Csr::from_edge_list(&el);
        let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(7)));
        let AlgorithmResult::BfsTree { parent, level } = out.result else { panic!() };
        assert_eq!(level, oracle::bfs(&g, 7).level);
        epg_graph::validate::validate_bfs_tree(&g, 7, &parent).unwrap();
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let el = epg_generator::uniform::generate(200, 1400, true, 5).symmetrized().deduplicated();
        let pool = ThreadPool::new(2);
        let mut e = build(&el, &pool);
        let g = Csr::from_edge_list(&el);
        let out = e.run(Algorithm::Sssp, &RunParams::new(&pool, Some(3)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        let want = oracle::dijkstra(&g, 3);
        for v in 0..want.len() {
            assert_eq!(d[v].to_bits(), want[v].to_bits(), "vertex {v}");
        }
    }

    #[test]
    fn pagerank_native_stop_iterates_longer_than_l1() {
        let el = random_graph(2);
        let pool = ThreadPool::new(2);
        let mut e = build(&el, &pool);
        // Native (None) = NoChange.
        let native = e.run(Algorithm::PageRank, &RunParams::new(&pool, None));
        let mut p = RunParams::new(&pool, None);
        p.stopping = Some(StoppingCriterion::paper_default());
        let l1 = e.run(Algorithm::PageRank, &p);
        let (ni, li) = (native.result.iterations().unwrap(), l1.result.iterations().unwrap());
        assert!(ni >= li, "native {ni} vs L1 {li}");
        // Ranks still correct.
        let AlgorithmResult::Ranks { ranks, .. } = l1.result else { panic!() };
        let (want, _) = oracle::pagerank(&Csr::from_edge_list(&el), 6e-8, 300);
        for v in 0..want.len() {
            assert!((ranks[v] - want[v]).abs() < 1e-5, "vertex {v}");
        }
    }

    #[test]
    fn cdlp_matches_oracle() {
        let el = random_graph(3);
        let pool = ThreadPool::new(2);
        let mut e = build(&el, &pool);
        let out = e.run(Algorithm::Cdlp, &RunParams::new(&pool, None));
        let AlgorithmResult::Labels(l) = out.result else { panic!() };
        assert_eq!(l, oracle::cdlp(&Csr::from_edge_list(&el), CDLP_ROUNDS));
    }

    #[test]
    fn wcc_matches_oracle() {
        let el = epg_generator::uniform::generate(300, 400, false, 4);
        let pool = ThreadPool::new(3);
        let mut e = build(&el, &pool);
        let out = e.run(Algorithm::Wcc, &RunParams::new(&pool, None));
        let AlgorithmResult::Components(c) = out.result else { panic!() };
        assert_eq!(c, oracle::wcc(&Csr::from_edge_list(&el)));
    }

    #[test]
    fn lcc_matches_oracle() {
        let el = epg_generator::uniform::generate(100, 800, false, 6);
        let pool = ThreadPool::new(2);
        let mut e = build(&el, &pool);
        let out = e.run(Algorithm::Lcc, &RunParams::new(&pool, None));
        let AlgorithmResult::Coefficients(c) = out.result else { panic!() };
        let want = oracle::lcc(&Csr::from_edge_list(&el));
        for v in 0..want.len() {
            assert!((c[v] - want[v]).abs() < 1e-9, "vertex {v}");
        }
    }

    /// `result`, `counters` and `trace` of the four SpMSpV programs.
    fn spmspv_dump(el: &EdgeList, threads: usize, root: epg_graph::VertexId) -> String {
        let pool = ThreadPool::new(threads);
        let mut e = build(el, &pool);
        [Algorithm::Bfs, Algorithm::Sssp, Algorithm::Wcc, Algorithm::Cdlp]
            .map(|algo| {
                let out = e.run(algo, &RunParams::new(&pool, Some(root)));
                format!("{algo:?}: {:?}\n{:?}\n{:?}\n", out.result, out.counters, out.trace)
            })
            .concat()
    }

    #[test]
    fn spmspv_programs_do_not_depend_on_the_thread_count() {
        let cfg = epg_generator::kronecker::KroneckerConfig {
            scale: 7,
            weighted: true,
            ..Default::default()
        };
        let raw = epg_generator::kronecker::generate(&cfg, 91);
        for el in [raw.symmetrized().deduplicated(), raw] {
            let one = spmspv_dump(&el, 1, 5);
            assert_eq!(spmspv_dump(&el, 2, 5), one);
            assert_eq!(spmspv_dump(&el, 3, 5), one);
        }
    }

    #[test]
    fn construct_keeps_one_matrix_exactly_when_it_is_its_own_transpose() {
        let pool = ThreadPool::new(2);
        let undirected = build(&random_graph(9).undirected(), &pool);
        assert!(std::ptr::eq(undirected.matrix(), undirected.matrix_t()));
        // The same symmetric list, undeclared: nothing is scanned, so it
        // keeps a second matrix, equal to the first.
        let undeclared = build(&random_graph(9), &pool);
        assert!(!std::ptr::eq(undeclared.matrix(), undeclared.matrix_t()));
        assert_eq!(undeclared.matrix_t(), undeclared.matrix());
        let directed = build(&epg_generator::uniform::generate(300, 400, false, 4), &pool);
        assert!(!std::ptr::eq(directed.matrix(), directed.matrix_t()));
        assert_eq!(*directed.matrix_t(), directed.matrix().transpose(&pool));
        // Every edge has its reverse, but 0 -> 1 keeps its last weight, 2,
        // and 1 -> 0 its only one, 1: the matrix is not symmetric.
        let el = EdgeList::weighted(
            3,
            vec![(0, 1), (1, 0), (0, 1), (1, 2), (2, 1)],
            vec![1.0, 1.0, 2.0, 3.0, 3.0],
        );
        let keep_last = build(&el, &pool);
        assert!(!std::ptr::eq(keep_last.matrix(), keep_last.matrix_t()));
        assert_eq!(*keep_last.matrix_t(), keep_last.matrix().transpose(&pool));
        assert_eq!(keep_last.matrix_t().values, [1.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn programs_read_a_matrix_as_its_own_transpose_bit_for_bit() {
        let cfg = epg_generator::kronecker::KroneckerConfig {
            scale: 7,
            weighted: true,
            ..Default::default()
        };
        let el = epg_generator::kronecker::generate(&cfg, 17).symmetrized().deduplicated();
        let n = el.num_vertices;
        for threads in 1..=3 {
            let pool = ThreadPool::new(threads);
            let a = Dcsc::from_edge_list(&el, &pool);
            let at = a.transpose(&pool);
            assert!(a.is_own_transpose(&pool));
            let dump = |at: &Dcsc| {
                let p = RunParams::new(&pool, None);
                [
                    programs::pagerank(&a, at, n, &p),
                    programs::cdlp(&a, at, n, &p, CDLP_ROUNDS),
                    programs::wcc(&a, at, n, &p),
                    lcc::lcc(&a, at, n, &p),
                    lcc::triangle_count(&a, at, n, &p),
                ]
                .map(|out| format!("{:?}\n{:?}\n{:?}\n", out.result, out.counters, out.trace))
                .concat()
            };
            assert_eq!(dump(&a), dump(&at), "{threads} threads");
        }
    }

    #[test]
    fn a_constructed_engine_answers_from_a_second_root() {
        // Each run allocates its own accumulator: nothing of the first
        // traversal may show in the second.
        let el = random_graph(8);
        let pool = ThreadPool::new(2);
        let mut e = build(&el, &pool);
        let g = Csr::from_edge_list(&el);
        for root in [3, 200, 3] {
            let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(root)));
            let AlgorithmResult::BfsTree { parent, level } = out.result else { panic!() };
            assert_eq!(level, oracle::bfs(&g, root).level);
            epg_graph::validate::validate_bfs_tree(&g, root, &parent).unwrap();
        }
    }

    #[test]
    fn metadata_reflects_icc_requirement() {
        let e = GraphMatEngine::new();
        assert!(e.info().requires_proprietary_compiler);
        assert_eq!(e.log_style(), LogStyle::GraphMat);
    }
}
