//! Quickstart: generate a Kronecker graph, run BFS on the GAP-style
//! engine, and validate the result — the five-minute tour.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use epg::prelude::*;

fn main() {
    // 1. A Graph500 Kronecker graph: scale 12 => 4,096 vertices, ~16x that
    //    many edges (the paper's generator parameters, §III-B).
    let spec = GraphSpec::Kronecker { scale: 12, edge_factor: 16, weighted: false };
    let ds = Dataset::from_spec(&spec, 42);
    println!(
        "generated {}: {} vertices, {} directed edges, {} roots",
        ds.name,
        ds.raw.num_vertices,
        ds.raw.num_edges(),
        ds.roots.len()
    );

    // 2. Load it into the GAP-style engine (direction-optimizing BFS).
    let pool = ThreadPool::new(2);
    let mut engine = EngineKind::Gap.create();
    engine.load_edge_list(ds.edges_for(EngineKind::Gap));
    engine.construct(&pool);

    // 3. Run BFS from each sampled root and validate the parent trees.
    let csr = Csr::from_edge_list(&ds.symmetric);
    for &root in ds.roots.iter().take(4) {
        let out = engine.run(Algorithm::Bfs, &RunParams::new(&pool, Some(root)));
        let AlgorithmResult::BfsTree { parent, level } = &out.result else { unreachable!() };
        epg::graph::validate::validate_bfs_tree_parallel(&csr, root, parent, &pool)
            .expect("BFS tree failed Graph500-style validation");
        let reached = level.iter().filter(|&&l| l != u32::MAX).count();
        println!(
            "root {root:>6}: reached {reached} vertices, max level {}, {} edges traversed",
            level.iter().filter(|&&l| l != u32::MAX).max().unwrap(),
            out.counters.edges_traversed
        );
    }
    println!("all BFS trees validated.");
}
