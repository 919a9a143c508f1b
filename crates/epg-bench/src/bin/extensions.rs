//! §V extensions in action: betweenness centrality and triangle counting
//! across every engine that implements them, plus GAP's heuristic
//! parameter auto-tuning — the three concrete items the paper lists as
//! future work ("algorithms like triangle counting and betweenness
//! centrality are widely implemented but not supported by either
//! Graphalytics nor easy-parallel-graph-*"; "we plan to add some level of
//! heuristic parameter tuning").

use epg::gap::GapEngine;
use epg::prelude::*;
use epg_bench::{kron_dataset, BenchArgs};
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse();
    let scale = args.kron_scale(20, 12);
    eprintln!("extensions: BC + TC + auto-tuning, Kronecker scale {scale}");
    let ds = kron_dataset(scale, true, args.seed);
    let pool = ThreadPool::new(args.threads);

    // ---- triangle counting across engines ----
    println!("== Triangle counting (each triangle once) ==");
    let mut counts = Vec::new();
    for kind in EngineKind::ALL {
        let mut e = kind.create();
        if !e.supports(Algorithm::TriangleCount) {
            println!("{:<12} {:>12}", kind.name(), "N/A");
            continue;
        }
        e.load_edge_list(ds.edges_for(kind));
        e.construct(&pool);
        let t0 = Instant::now();
        let out = e.run(Algorithm::TriangleCount, &RunParams::new(&pool, None));
        let secs = t0.elapsed().as_secs_f64();
        let AlgorithmResult::Triangles(t) = out.result else { panic!() };
        println!("{:<12} {t:>12} triangles in {secs:.4}s", kind.name());
        counts.push(t);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "engines disagree: {counts:?}");
    println!("all supporting engines agree.\n");

    // ---- approximate betweenness centrality ----
    println!("== Betweenness centrality (sampled sources) ==");
    for kind in [EngineKind::Gap, EngineKind::GraphBig] {
        let mut e = kind.create();
        e.load_edge_list(ds.edges_for(kind));
        e.construct(&pool);
        let mut params = RunParams::new(&pool, None);
        params.bc_sources = Some(16);
        let t0 = Instant::now();
        let out = e.run(Algorithm::Bc, &params);
        let secs = t0.elapsed().as_secs_f64();
        let AlgorithmResult::Centrality(bc) = out.result else { panic!() };
        let mut top: Vec<(usize, f64)> = bc.iter().copied().enumerate().collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!(
            "{:<12} 16 sources in {secs:.4}s; top vertices: {:?}",
            kind.name(),
            top.iter().take(3).map(|&(v, s)| (v, s.round())).collect::<Vec<_>>()
        );
    }

    // ---- GAP auto-tuning ----
    println!("\n== GAP heuristic parameter tuning ==");
    let mut e = GapEngine::new();
    e.load_edge_list(ds.edges_for(EngineKind::Gap));
    e.construct(&pool);
    println!(
        "defaults: alpha={}, beta={}, delta={}",
        e.config.alpha, e.config.beta, e.config.delta
    );
    let report = e.auto_tune(&pool, &ds.roots);
    println!("tuned:    alpha={}, beta={}, delta={:.4}", report.alpha, report.beta, report.delta);
    println!("delta probes (delta, work cost):");
    for (d, c) in &report.delta_probes {
        println!("  {d:>12.4}  {c:>12}");
    }
    println!("alpha/beta probes ((a,b), work cost):");
    for ((a, b), c) in &report.bfs_probes {
        println!("  ({a:>3},{b:>4})  {c:>12}");
    }
}
