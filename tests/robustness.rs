//! Robustness sweep: every engine × every supported algorithm on
//! degenerate inputs — empty-ish graphs, singletons, self-loops, stars,
//! disconnected shards. A comparison harness must not fall over on the
//! weird graphs users actually feed it ("any network in the SNAP data
//! format can be used", §III-B).

use epg::prelude::*;

fn degenerate_graphs() -> Vec<(&'static str, EdgeList)> {
    vec![
        ("zero_vertices", EdgeList::new(0, vec![])),
        ("zero_edges", EdgeList::new(4, vec![])),
        ("single_edge", EdgeList::new(2, vec![(0, 1)])),
        ("self_loop_only", EdgeList::new(1, vec![(0, 0)])),
        ("two_loops", EdgeList::new(2, vec![(0, 0), (1, 1)])),
        ("star", EdgeList::new(6, (1..6).map(|v| (0u32, v)).collect::<Vec<_>>()).symmetrized()),
        ("disconnected", EdgeList::new(9, vec![(0, 1), (1, 0), (3, 4), (4, 3), (6, 7), (7, 8)])),
        ("weighted_pair", EdgeList::weighted(3, vec![(0, 1), (1, 0)], vec![0.25, 0.25])),
        (
            "duplicate_heavy",
            EdgeList::new(3, vec![(0, 1); 20].into_iter().chain([(1, 2)]).collect::<Vec<_>>()),
        ),
        // Tiny instances of the adversarial SSSP families: the generators
        // must stay valid at the degenerate end of their parameter space,
        // and every engine must survive the shapes they produce (zero
        // weights, one-gadget spines, 2×2 spirals).
        ("tiny_spfa_killer", epg::generator::adversarial::spfa_killer(1, 1)),
        ("tiny_wrong_dijkstra", epg::generator::adversarial::wrong_dijkstra_killer(1, 1)),
        ("tiny_grid_swirl", epg::generator::adversarial::grid_swirl(2, 1)),
        ("tiny_almost_line", epg::generator::adversarial::almost_line(2, 1, 1)),
        ("tiny_max_dense_zero", epg::generator::adversarial::max_dense_zero(2)),
        ("empty_spfa_killer", epg::generator::adversarial::spfa_killer(0, 1)),
        ("empty_grid_swirl", epg::generator::adversarial::grid_swirl(0, 1)),
        ("empty_max_dense_zero", epg::generator::adversarial::max_dense_zero(0)),
    ]
}

#[test]
fn every_engine_survives_every_degenerate_graph() {
    let pool = ThreadPool::new(2);
    for (name, el) in degenerate_graphs() {
        let ds = Dataset::from_edge_list(name.to_string(), el, 1);
        for kind in EngineKind::ALL {
            let mut engine = kind.create();
            engine.load_edge_list(ds.edges_for(kind));
            engine.construct(&pool);
            for algo in Algorithm::ALL {
                if !engine.supports(algo) {
                    continue;
                }
                if algo.is_rooted() {
                    // Rooted algorithms need a qualifying root; skip when
                    // the sampler found none (as the harness does).
                    let Some(&root) = ds.roots.first() else { continue };
                    let out = engine.run(algo, &RunParams::new(&pool, Some(root)));
                    assert_eq!(
                        out.result.len(),
                        ds.symmetric.num_vertices,
                        "{} {} on {}",
                        kind.name(),
                        algo.abbrev(),
                        name
                    );
                } else {
                    let out = engine.run(algo, &RunParams::new(&pool, None));
                    // Per-vertex results must cover exactly the vertex set
                    // — in particular, empty (not a panic) on the
                    // zero-vertex graph. Triangle counts are a scalar.
                    let want = match out.result {
                        AlgorithmResult::Triangles(_) => 1,
                        _ => ds.symmetric.num_vertices,
                    };
                    assert_eq!(
                        out.result.len(),
                        want,
                        "{} {} on {}",
                        kind.name(),
                        algo.abbrev(),
                        name
                    );
                }
            }
        }
    }
}

#[test]
fn results_match_oracles_even_on_degenerate_graphs() {
    use epg::graph::oracle;
    let pool = ThreadPool::new(2);
    for (name, el) in degenerate_graphs() {
        let ds = Dataset::from_edge_list(name.to_string(), el, 2);
        let csr = Csr::from_edge_list(&ds.symmetric);
        let want_wcc = oracle::wcc(&csr);
        let want_tc = oracle::triangle_count(&csr);
        for kind in [EngineKind::GraphBig, EngineKind::GraphMat, EngineKind::PowerGraph] {
            let mut engine = kind.create();
            engine.load_edge_list(ds.edges_for(kind));
            engine.construct(&pool);
            let AlgorithmResult::Components(c) =
                engine.run(Algorithm::Wcc, &RunParams::new(&pool, None)).result
            else {
                panic!()
            };
            assert_eq!(c, want_wcc, "{} WCC on {}", kind.name(), name);
            let AlgorithmResult::Triangles(t) =
                engine.run(Algorithm::TriangleCount, &RunParams::new(&pool, None)).result
            else {
                panic!()
            };
            assert_eq!(t, want_tc, "{} TC on {}", kind.name(), name);
        }
    }
}

/// Lists loaded as given, not through `Dataset` (whose lists drop loops
/// and repeats): only here does an engine see a self-loop or a parallel
/// edge.
#[test]
fn loops_and_parallel_edges_reach_every_engine_as_given() {
    use epg::graph::oracle;
    use epg::harness::registry::engines_supporting;
    let mut uniform = epg::generator::uniform::generate(40, 400, false, 21);
    uniform.edges.extend([(5, 5), (7, 7), (3, 8), (3, 8), (8, 3)]);
    let lists = [
        ("self_loop_only", EdgeList::new(1, vec![(0, 0)])),
        ("two_loops", EdgeList::new(2, vec![(0, 0), (1, 1)])),
        ("duplicate_heavy", EdgeList::new(3, [vec![(0, 1); 20], vec![(1, 2)]].concat())),
        ("uniform_with_loops_and_repeats", uniform),
    ];
    for (name, el) in &lists {
        let csr = Csr::from_edge_list(el);
        let (want_lcc, want_tc, want_wcc) =
            (oracle::lcc(&csr), oracle::triangle_count(&csr), oracle::wcc(&csr));
        for threads in 1..=3 {
            let pool = ThreadPool::new(threads);
            for algo in [Algorithm::Lcc, Algorithm::TriangleCount, Algorithm::Wcc] {
                for kind in engines_supporting(algo) {
                    let what =
                        format!("{} {} on {name} at {threads} threads", kind.name(), algo.abbrev());
                    let mut engine = kind.create();
                    engine.load_edge_list(el);
                    engine.construct(&pool);
                    match engine.run(algo, &RunParams::new(&pool, None)).result {
                        AlgorithmResult::Coefficients(c) => {
                            assert_eq!(c.len(), want_lcc.len(), "{what}");
                            for (v, (got, want)) in c.iter().zip(&want_lcc).enumerate() {
                                assert!(
                                    (got - want).abs() < 1e-12,
                                    "{what}: vertex {v}: {got} vs {want}"
                                );
                            }
                        }
                        AlgorithmResult::Triangles(t) => assert_eq!(t, want_tc, "{what}"),
                        AlgorithmResult::Components(c) => assert_eq!(c, want_wcc, "{what}"),
                        other => panic!("{what}: unexpected {other:?}"),
                    }
                }
            }
        }
    }
}

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
