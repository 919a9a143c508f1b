//! What one engine answer cannot show, so `tests/correctness.rs`'s
//! verifier cannot judge: an engine reused across runs, and the sample of
//! sources two engines' sampled betweenness draws.

use epg::prelude::*;

#[test]
fn engines_are_reusable_across_runs() {
    // One loaded graph, many kernels — the 32-roots usage pattern.
    let spec = GraphSpec::Kronecker { scale: 9, edge_factor: 8, weighted: true };
    let ds = Dataset::from_spec(&spec, 1234);
    let pool = ThreadPool::new(2);
    let mut e = EngineKind::Gap.create();
    e.load_edge_list(ds.edges_for(EngineKind::Gap));
    e.construct(&pool);
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
