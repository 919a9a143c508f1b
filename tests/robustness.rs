//! Robustness of the harness and the engine protocol around the kernels:
//! a dataset with no eligible root, sparse SNAP ids end to end, two pools
//! sharing the CPUs, and `construct`'s build/reload rule. Every answer on
//! degenerate graphs is judged in `tests/correctness.rs`.

use epg::prelude::*;

#[test]
fn harness_handles_graphs_with_no_eligible_roots() {
    // Only an edgeless graph has no vertex of total degree > 1 after
    // symmetrization: zero roots; the runner must simply produce no rooted
    // rows rather than panicking.
    let el = EdgeList::new(5, vec![]);
    let ds = Dataset::from_edge_list("no_roots".into(), el, 3);
    assert!(ds.roots.is_empty());
    let cfg = ExperimentConfig {
        algorithms: vec![Algorithm::Bfs, Algorithm::PageRank],
        max_roots: Some(4),
        ..ExperimentConfig::new()
    };
    let result = run_experiment(&cfg, &ds);
    assert!(result.run_times(EngineKind::Gap, Algorithm::Bfs).is_empty());
    // Unrooted algorithms still ran.
    assert!(!result.run_times(EngineKind::Gap, Algorithm::PageRank).is_empty());
}

#[test]
fn snap_files_with_gaps_in_id_space_work_end_to_end() {
    // Sparse vertex ids (the SNAP norm): 0, 7, 100 only.
    let dir = std::env::temp_dir().join("epg_robust_sparse_ids");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sparse.snap");
    std::fs::write(&path, "# sparse ids\n0 7\n7 100\n100 0\n").unwrap();
    let ds = Dataset::from_snap_file(&path, 1).unwrap();
    assert_eq!(ds.raw.num_vertices, 101);
    let cfg = ExperimentConfig {
        algorithms: vec![Algorithm::Bfs],
        max_roots: Some(1),
        ..ExperimentConfig::new()
    };
    let result = run_experiment(&cfg, &ds);
    assert!(!result.run_times(EngineKind::Gap, Algorithm::Bfs).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_pools_sharing_the_cpus_finish_interleaved_runs() {
    // Each pool fits the host on its own, so its waiters spin between
    // regions; together the two oversubscribe it, and a spinning waiter of
    // one pool holds a CPU the other's worker needs. The spin is bounded,
    // so both dispatchers get through a high-diameter BFS (one region per
    // level) on each of two engines, with the oracle's levels.
    let ds = Dataset::from_spec(&GraphSpec::GridSwirl { width: 48 }, 11);
    let csr = Csr::from_edge_list(&ds.symmetric);
    let nthreads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    std::thread::scope(|s| {
        for kind in [EngineKind::Gap, EngineKind::Graph500] {
            let (ds, csr) = (&ds, &csr);
            s.spawn(move || {
                let pool = ThreadPool::new(nthreads);
                let mut engine = kind.create();
                engine.load_edge_list(ds.edges_for(kind));
                engine.construct(&pool);
                for &root in ds.roots.iter().take(4) {
                    let out = engine.run(Algorithm::Bfs, &RunParams::new(&pool, Some(root)));
                    let AlgorithmResult::BfsTree { level, .. } = out.result else { panic!() };
                    let want = epg::graph::oracle::bfs(csr, root).level;
                    assert_eq!(level, want, "{} from {root}", kind.name());
                }
            });
        }
    });
}

/// What `engine` answers on the graph it holds and what the oracle answers
/// on `ds`: BFS levels from `ds`'s first root, or WCC labels for the one
/// engine with no BFS.
fn answer_and_oracle(
    engine: &mut dyn Engine,
    ds: &Dataset,
    pool: &ThreadPool,
) -> (Vec<u32>, Vec<u32>) {
    use epg::graph::oracle;
    let csr = Csr::from_edge_list(&ds.symmetric);
    if engine.supports(Algorithm::Bfs) {
        let root = ds.roots[0];
        let out = engine.run(Algorithm::Bfs, &RunParams::new(pool, Some(root)));
        let AlgorithmResult::BfsTree { level, .. } = out.result else { panic!() };
        (level, oracle::bfs(&csr, root).level)
    } else {
        let out = engine.run(Algorithm::Wcc, &RunParams::new(pool, None));
        let AlgorithmResult::Components(c) = out.result else { panic!() };
        (c, oracle::wcc(&csr))
    }
}

#[test]
fn construct_builds_from_the_last_load_and_keeps_only_what_it_built() {
    // The rule `Engine::construct` states for every engine: a second
    // construct with nothing staged keeps the first's structure, a load
    // after construct replaces it at the next construct, and with nothing
    // ever loaded construct panics with the engine's own message.
    let pool = ThreadPool::new(1);
    let kron =
        Dataset::from_spec(&GraphSpec::Kronecker { scale: 8, edge_factor: 8, weighted: true }, 45);
    let uniform = Dataset::from_spec(
        &GraphSpec::Uniform { num_vertices: 300, num_edges: 1200, weighted: true },
        46,
    );
    for kind in EngineKind::ALL {
        let mut engine = kind.create();
        engine.load_edge_list(kron.edges_for(kind));
        engine.construct(&pool);
        let once = answer_and_oracle(engine.as_mut(), &kron, &pool);
        engine.construct(&pool);
        let twice = answer_and_oracle(engine.as_mut(), &kron, &pool);
        assert_eq!(once.0, once.1, "{}: construct once", kind.name());
        assert_eq!(twice.0, once.0, "{}: construct twice", kind.name());

        engine.load_edge_list(uniform.edges_for(kind));
        engine.construct(&pool);
        let (got, want) = answer_and_oracle(engine.as_mut(), &uniform, &pool);
        assert_eq!(got, want, "{}: construct after a second load", kind.name());

        let mut empty = kind.create();
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| empty.construct(&pool)))
                .expect_err("construct with nothing loaded must panic");
        let want = match kind {
            EngineKind::GraphBig | EngineKind::PowerGraph => "no input loaded",
            _ => "no edge list loaded",
        };
        let message = payload.downcast_ref::<&str>().copied();
        assert_eq!(message, Some(want), "{}: construct with nothing loaded", kind.name());
    }
}
