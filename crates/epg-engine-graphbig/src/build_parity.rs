//! The property graph's bulk build and its edge-at-a-time insertion place
//! their list cells differently; every kernel must see the same graph.

use super::*;
use epg_engine_api::{AlgorithmResult, Counters};
use epg_graph::{VertexId, Weight};

/// A directed, weighted multigraph in random arrival order: 2 600 uniform
/// draws (duplicates and self-loops included) over the first 340 of 360
/// vertices, so 20 stay isolated, plus a repeated edge and a self-loop for
/// certain. 360 vertices are two dynamic chunks — both workers of a 2- or
/// 3-thread pool run, and a two-partial `f64` sum has only one association.
fn multigraph() -> EdgeList {
    let mut x = 21u64;
    let mut draw = |bound: u64| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % bound
    };
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut weights: Vec<Weight> = Vec::new();
    for _ in 0..2600 {
        edges.push((draw(340) as VertexId, draw(340) as VertexId));
        weights.push((1 + draw(1000)) as Weight / 1000.0);
    }
    for (e, w) in [(edges[0], 0.25), (edges[0], 0.5), ((7, 7), 0.75)] {
        edges.push(e);
        weights.push(w);
    }
    EdgeList::weighted(360, edges, weights)
}

fn bulk_and_incremental(el: &EdgeList) -> [GraphBigEngine; 2] {
    let mut inc = PropertyGraph::with_vertices(el.num_vertices);
    for (u, v, w) in el.iter() {
        inc.add_edge(u, v, w);
    }
    [PropertyGraph::from_edge_list(el), inc]
        .map(|g| GraphBigEngine { staged: None, graph: Some(g) })
}

/// What a run must reproduce whatever the worker interleaving. On one
/// thread that is everything. On more, three kernels have racy parts by
/// design: which frontier vertex wins a BFS child's parent CAS, and how many
/// rounds the asynchronous relaxations of SSSP and WCC take.
fn schedule_free(algo: Algorithm, threads: usize, out: RunOutput) -> (AlgorithmResult, Counters) {
    let no_counters = Counters::default();
    match (algo, out.result) {
        (_, result) if threads == 1 => (result, out.counters),
        (Algorithm::Bfs, AlgorithmResult::BfsTree { level, .. }) => {
            (AlgorithmResult::BfsTree { parent: Vec::new(), level }, out.counters)
        }
        (Algorithm::Sssp | Algorithm::Wcc, result) => (result, no_counters),
        (_, result) => (result, out.counters),
    }
}

#[test]
fn every_kernel_agrees_on_bulk_and_incremental_builds() {
    let el = multigraph();
    let root = el.edges[0].0;
    let [mut bulk, mut inc] = bulk_and_incremental(&el);
    for threads in [1, 2, 3] {
        let pool = ThreadPool::new(threads);
        for algo in Algorithm::ALL {
            let params = RunParams::new(&pool, Some(root));
            let b = schedule_free(algo, threads, bulk.run(algo, &params));
            let i = schedule_free(algo, threads, inc.run(algo, &params));
            // `AlgorithmResult` compares floats exactly: PageRank sums each
            // vertex's in-list in list order, so the ranks are bit-identical
            // only if both builds keep that order.
            assert_eq!(b, i, "{algo:?} at {threads} thread(s)");
        }
    }
}

#[test]
fn pagerank_ranks_depend_on_list_order() {
    // The guard on the test above: the same multiset of edges in another
    // arrival order is a different summation order, and the ranks show it.
    let el = multigraph();
    let mut reversed = el.clone();
    reversed.edges.reverse();
    reversed.weights.as_mut().expect("weighted").reverse();
    let pool = ThreadPool::new(1);
    let params = RunParams::new(&pool, None);
    let ranks = |el: &EdgeList| {
        let mut engine = GraphBigEngine::new();
        engine.load_edge_list(el);
        engine.construct(&pool);
        engine.run(Algorithm::PageRank, &params).result
    };
    assert_ne!(ranks(&el), ranks(&reversed));
}
