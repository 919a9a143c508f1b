//! Cross-engine agreement: every engine must produce equivalent results on
//! the same homogenized dataset — the correctness half of "comparing
//! fairly". Distances and levels must match the sequential oracles; parent
//! trees must pass Graph500-style validation; ranks must agree within
//! floating-point tolerance.

use epg::engine_api::CDLP_ROUNDS;
use epg::graph::{oracle, validate};
use epg::prelude::*;

fn dataset() -> Dataset {
    Dataset::from_spec(&GraphSpec::Kronecker { scale: 9, edge_factor: 8, weighted: true }, 1234)
}

fn engine_on(kind: EngineKind, ds: &Dataset, pool: &ThreadPool) -> Box<dyn Engine> {
    let mut e = kind.create();
    e.load_edge_list(ds.edges_for(kind));
    e.construct(pool);
    e
}

#[test]
fn bfs_levels_agree_across_engines_and_oracle() {
    let ds = dataset();
    let pool = ThreadPool::new(3);
    let csr = Csr::from_edge_list(&ds.symmetric);
    let root = ds.roots[0];
    let want = oracle::bfs(&csr, root);
    for kind in [EngineKind::Gap, EngineKind::Graph500, EngineKind::GraphBig, EngineKind::GraphMat]
    {
        let mut e = engine_on(kind, &ds, &pool);
        let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(root)));
        let AlgorithmResult::BfsTree { parent, level } = out.result else { panic!() };
        assert_eq!(level, want.level, "{} levels diverge", kind.name());
        validate::validate_bfs_tree(&csr, root, &parent)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    }
}

#[test]
fn sssp_distances_agree_across_engines_and_dijkstra() {
    let ds = dataset();
    let pool = ThreadPool::new(3);
    let csr = Csr::from_edge_list(&ds.symmetric);
    let root = ds.roots[1];
    let want = oracle::dijkstra(&csr, root);
    for kind in
        [EngineKind::Gap, EngineKind::GraphBig, EngineKind::GraphMat, EngineKind::PowerGraph]
    {
        let mut e = engine_on(kind, &ds, &pool);
        let out = e.run(Algorithm::Sssp, &RunParams::new(&pool, Some(root)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        for v in 0..want.len() {
            if want[v].is_infinite() {
                assert!(d[v].is_infinite(), "{} vertex {v} should be unreachable", kind.name());
            } else {
                assert!(
                    (d[v] - want[v]).abs() < 1e-3,
                    "{} vertex {v}: {} vs {}",
                    kind.name(),
                    d[v],
                    want[v]
                );
            }
        }
        validate::validate_sssp_distances(&csr, root, &d)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    }
}

#[test]
fn pagerank_ranks_agree_under_homogenized_stopping() {
    let ds = dataset();
    let pool = ThreadPool::new(2);
    let csr = Csr::from_edge_list(&ds.symmetric);
    let (want, _) = oracle::pagerank(&csr, 6e-8, 300);
    for kind in
        [EngineKind::Gap, EngineKind::GraphBig, EngineKind::GraphMat, EngineKind::PowerGraph]
    {
        let mut e = engine_on(kind, &ds, &pool);
        let mut params = RunParams::new(&pool, None);
        params.stopping = Some(StoppingCriterion::paper_default());
        let out = e.run(Algorithm::PageRank, &params);
        let AlgorithmResult::Ranks { ranks, .. } = out.result else { panic!() };
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "{} ranks sum to {sum}", kind.name());
        for v in 0..want.len() {
            assert!(
                (ranks[v] - want[v]).abs() < 1e-5,
                "{} vertex {v}: {} vs {}",
                kind.name(),
                ranks[v],
                want[v]
            );
        }
    }
}

#[test]
fn graphalytics_kernels_agree_across_the_three_systems() {
    // A sparse uniform graph and the dense dota-league stand-in, on whose
    // first CDLP rounds nearly every vertex breaks a tie; the GAS and SpMV
    // engines merge labels in an order that depends on the thread count.
    let specs = [
        GraphSpec::Uniform { num_vertices: 250, num_edges: 1800, weighted: false },
        GraphSpec::DotaLeague { num_vertices: 300, avg_degree: 40 },
    ];
    for spec in specs {
        let ds = Dataset::from_spec(&spec, 9);
        let csr = Csr::from_edge_list(&ds.symmetric);
        let want_cdlp = oracle::cdlp(&csr, CDLP_ROUNDS);
        let want_wcc = oracle::wcc(&csr);
        let want_lcc = oracle::lcc(&csr);
        for threads in [1, 2, 3] {
            let pool = ThreadPool::new(threads);
            let params = RunParams::new(&pool, None);
            for kind in [EngineKind::GraphBig, EngineKind::GraphMat, EngineKind::PowerGraph] {
                let at = format!("{} on {} at {threads} threads", kind.name(), ds.name);
                let mut e = engine_on(kind, &ds, &pool);
                let AlgorithmResult::Labels(l) = e.run(Algorithm::Cdlp, &params).result else {
                    panic!()
                };
                assert_eq!(l, want_cdlp, "{at}: CDLP diverges");
                let AlgorithmResult::Components(c) = e.run(Algorithm::Wcc, &params).result else {
                    panic!()
                };
                assert_eq!(c, want_wcc, "{at}: WCC diverges");
                let AlgorithmResult::Coefficients(lc) = e.run(Algorithm::Lcc, &params).result
                else {
                    panic!()
                };
                for v in 0..want_lcc.len() {
                    let (got, want) = (lc[v], want_lcc[v]);
                    assert!((got - want).abs() < 1e-9, "{at}: LCC vertex {v}: {got} vs {want}");
                }
            }
        }
    }
}

#[test]
fn engines_are_reusable_across_runs() {
    // One loaded graph, many kernels — the 32-roots usage pattern.
    let ds = dataset();
    let pool = ThreadPool::new(2);
    let mut e = engine_on(EngineKind::Gap, &ds, &pool);
    let mut last = None;
    for &root in ds.roots.iter().take(3) {
        let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(root)));
        last = Some(out);
    }
    // Re-running the same root reproduces identical levels.
    let again = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(ds.roots[2])));
    let (AlgorithmResult::BfsTree { level: a, .. }, AlgorithmResult::BfsTree { level: b, .. }) =
        (&last.unwrap().result, &again.result)
    else {
        panic!()
    };
    assert_eq!(a, b);
}

/// Sampled BC draws its sources once for every engine, so `epg reproduce
/// extensions`' sampled line times GAP and GraphBIG on the same work.
#[test]
fn sampled_bc_runs_every_engine_from_the_same_sources() {
    let el = epg::generator::uniform::generate(90, 500, false, 6).symmetrized().deduplicated();
    let pool = ThreadPool::new(3);
    let scores = |kind: EngineKind| {
        let mut e = kind.create();
        e.load_edge_list(&el);
        e.construct(&pool);
        let params = RunParams { bc_sources: Some(4), ..RunParams::new(&pool, None) };
        let AlgorithmResult::Centrality(bc) = e.run(Algorithm::Bc, &params).result else {
            panic!("{} BC", kind.name())
        };
        bc
    };
    let (gap, graphbig) = (scores(EngineKind::Gap), scores(EngineKind::GraphBig));
    assert!(gap.iter().any(|&x| x > 0.0), "the sample reaches no vertex");
    for (v, (a, b)) in gap.iter().zip(&graphbig).enumerate() {
        assert!(
            (a - b).abs() <= 1e-6 * a.abs().max(b.abs()),
            "vertex {v}: GAP {a} vs GraphBIG {b}"
        );
    }
}
