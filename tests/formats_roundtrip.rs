//! Format interop: homogenized files feed every engine; SNAP text, binary,
//! and each engine's internal representation all describe the same graph.

use epg::graph::snap;
use epg::prelude::*;

fn temp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("epg_fmt_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_engine_loads_its_homogenized_file_and_computes_correctly() {
    let dir = temp("all_engines");
    let ds =
        Dataset::from_spec(&GraphSpec::Kronecker { scale: 8, edge_factor: 8, weighted: true }, 21);
    ds.write_files(&dir).unwrap();
    let pool = ThreadPool::new(2);
    let csr = Csr::from_edge_list(&ds.symmetric);
    let root = ds.roots[0];
    let want = epg::graph::oracle::dijkstra(&csr, root);

    for kind in
        [EngineKind::Gap, EngineKind::GraphBig, EngineKind::GraphMat, EngineKind::PowerGraph]
    {
        let mut e = kind.create();
        e.load_file(&ds.input_path_for(&dir, kind), &pool).unwrap();
        e.construct(&pool);
        let AlgorithmResult::Distances(d) =
            e.run(Algorithm::Sssp, &RunParams::new(&pool, Some(root))).result
        else {
            panic!()
        };
        for v in 0..want.len() {
            assert_eq!(d[v].to_bits(), want[v].to_bits(), "{} vertex {v}", kind.name());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graph500_gets_raw_edges_and_symmetrizes_itself() {
    let dir = temp("g500_raw");
    let ds =
        Dataset::from_spec(&GraphSpec::Kronecker { scale: 8, edge_factor: 8, weighted: false }, 22);
    ds.write_files(&dir).unwrap();
    let raw = snap::read_binary_file(&ds.input_path_for(&dir, EngineKind::Graph500)).unwrap();
    assert_eq!(raw, ds.raw);

    let pool = ThreadPool::new(1);
    let mut e = EngineKind::Graph500.create();
    e.load_file(&ds.input_path_for(&dir, EngineKind::Graph500), &pool).unwrap();
    e.construct(&pool);
    let root = ds.roots[0];
    let out = e.run(Algorithm::Bfs, &RunParams::new(&pool, Some(root)));
    // Levels must match BFS on the symmetrized graph even though the input
    // file was the raw directed list.
    let csr = Csr::from_edge_list(&ds.symmetric);
    let AlgorithmResult::BfsTree { level, .. } = out.result else { panic!() };
    assert_eq!(level, epg::graph::oracle::bfs(&csr, root).level);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn text_and_binary_files_describe_the_same_graph() {
    let dir = temp("text_vs_bin");
    let ds = Dataset::from_spec(
        &GraphSpec::Uniform { num_vertices: 200, num_edges: 1500, weighted: true },
        23,
    );
    ds.write_files(&dir).unwrap();
    let text = snap::read_snap_file(&dir.join(format!("{}.sym.snap", ds.name))).unwrap();
    let bin = snap::read_binary_file(&dir.join(format!("{}.sym.bin", ds.name))).unwrap();
    assert_eq!(text.edges, bin.edges);
    assert_eq!(text.weights, bin.weights);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn weights_survive_the_full_file_path_into_results() {
    // A crafted graph where the shortest path requires exact weights:
    // corrupting any format conversion changes the answer.
    let dir = temp("weights_exact");
    let el = EdgeList::weighted(
        4,
        vec![(0, 1), (1, 3), (0, 2), (2, 3)],
        vec![0.125, 0.250, 0.5, 0.0625],
    );
    let ds = Dataset::from_edge_list("crafted".into(), el, 1);
    ds.write_files(&dir).unwrap();
    let pool = ThreadPool::new(1);
    let mut e = EngineKind::Gap.create();
    e.load_file(&ds.input_path_for(&dir, EngineKind::Gap), &pool).unwrap();
    e.construct(&pool);
    let AlgorithmResult::Distances(d) =
        e.run(Algorithm::Sssp, &RunParams::new(&pool, Some(0))).result
    else {
        panic!()
    };
    assert_eq!(d[3], 0.375); // 0.125 + 0.25, exactly representable
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gap_and_graphmat_keep_one_structure_exactly_for_a_declared_list() {
    use epg::gap::GapEngine;
    use epg::graphmat::GraphMatEngine;
    // `.sym.bin` carries the homogenizer's own-transpose declaration and
    // `.bin` (the raw directed list) does not. Each engine keeps one
    // structure for both directions on a declared list, read from a file
    // or handed over in memory, and builds the transpose on any other.
    let dir = temp("declared");
    let spec = GraphSpec::Kronecker { scale: 8, edge_factor: 8, weighted: true };
    let ds = Dataset::from_spec(&spec, 24);
    let pool = ThreadPool::new(2);
    ds.write_files_parallel(&dir, &pool).unwrap();
    let sym_path = dir.join(format!("{}.sym.bin", ds.name));
    let mut doubled = snap::read_binary_file(&sym_path).unwrap();
    assert!(doubled.own_transpose, "the symmetric file declares its list");
    doubled.symmetrize();
    assert!(!doubled.own_transpose, "symmetrize() in place clears the declaration");
    let inputs = [
        ("sym.bin", None, true),
        ("bin", None, false),
        ("symmetric in memory", Some(ds.symmetric.clone()), true),
        ("raw in memory", Some(ds.raw.clone()), false),
        ("declared, then symmetrized", Some(doubled), false),
    ];
    for (name, el, declared) in inputs {
        let (mut gap, mut graphmat) = (GapEngine::new(), GraphMatEngine::new());
        match &el {
            Some(el) => {
                gap.load_edge_list(el);
                graphmat.load_edge_list(el);
            }
            None => {
                let path = dir.join(format!("{}.{name}", ds.name));
                gap.load_file(&path, &pool).unwrap();
                graphmat.load_file(&path, &pool).unwrap();
            }
        }
        gap.construct(&pool);
        graphmat.construct(&pool);
        assert_eq!(std::ptr::eq(gap.csr(), gap.csr_t()), declared, "GAP on {name}");
        assert_eq!(*gap.csr_t(), gap.csr().transpose_parallel(&pool), "GAP on {name}");
        let one_matrix = std::ptr::eq(graphmat.matrix(), graphmat.matrix_t());
        assert_eq!(one_matrix, declared, "GraphMat on {name}");
        assert_eq!(*graphmat.matrix_t(), graphmat.matrix().transpose(&pool), "GraphMat on {name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
