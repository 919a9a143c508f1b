//! Qualitative paper-shape assertions — the findings the paper reports
//! must emerge from our engines' *mechanisms*, not from hard-coded
//! constants. Shapes are asserted on counters, traces, and model output
//! (deterministic), not on raw wall time (noisy on shared CI machines).

use epg::prelude::*;

fn kron(scale: u32, weighted: bool, seed: u64) -> Dataset {
    Dataset::from_spec(&GraphSpec::Kronecker { scale, edge_factor: 16, weighted }, seed)
}

/// §IV-C: GAP's direction-optimizing BFS examines far fewer edges than a
/// pure top-down BFS on a low-diameter Kronecker graph — the mechanism
/// behind its Fig. 2 lead.
#[test]
fn direction_optimization_cuts_edge_traversals() {
    let ds = kron(10, false, 4);
    let pool = ThreadPool::new(2);
    let root = Some(ds.roots[0]);

    let mut gap = EngineKind::Gap.create();
    gap.load_edge_list(ds.edges_for(EngineKind::Gap));
    gap.construct(&pool);
    let opt = gap.run(Algorithm::Bfs, &RunParams::new(&pool, root));

    let mut g500 = EngineKind::Graph500.create();
    g500.load_edge_list(ds.edges_for(EngineKind::Graph500));
    g500.construct(&pool);
    let topdown = g500.run(Algorithm::Bfs, &RunParams::new(&pool, root));

    assert!(
        opt.counters.edges_traversed * 2 < topdown.counters.edges_traversed,
        "direction-optimizing BFS examined {} edges vs top-down {}",
        opt.counters.edges_traversed,
        topdown.counters.edges_traversed
    );
}

/// §IV-A / Fig. 4: GraphMat's native "no vertex changes" stopping
/// criterion needs more iterations than the homogenized L1 criterion used
/// by the other engines.
#[test]
fn graphmat_native_pr_iterates_longest() {
    let ds = kron(9, false, 5);
    let cfg = ExperimentConfig {
        algorithms: vec![Algorithm::PageRank],
        max_roots: Some(1),
        ..ExperimentConfig::new()
    };
    let result = run_experiment(&cfg, &ds);
    let gm = result.pr_iterations(EngineKind::GraphMat)[0];
    for other in [EngineKind::Gap, EngineKind::GraphBig, EngineKind::PowerGraph] {
        let it = result.pr_iterations(other)[0];
        assert!(
            gm >= it,
            "GraphMat ({gm}) should iterate at least as long as {} ({it})",
            other.name()
        );
    }
}

/// §IV-C: PowerGraph's vertex-cut replication factor grows with density —
/// dense dota-league-like graphs replicate hubs widely, and every apply
/// pays mirror synchronization proportional to it.
#[test]
fn powergraph_replication_grows_with_density() {
    use epg::powergraph::partition::PartitionedGraph;
    let sparse = Dataset::from_spec(&GraphSpec::CitPatents { scale_div: 4096 }, 6);
    let dense = Dataset::from_spec(&GraphSpec::DotaLeague { num_vertices: 900, avg_degree: 90 }, 6);
    let ps = PartitionedGraph::build(&sparse.symmetric, 8);
    let pd = PartitionedGraph::build(&dense.symmetric, 8);
    assert!(
        pd.replication_factor() > ps.replication_factor(),
        "dense rf {} vs sparse rf {}",
        pd.replication_factor(),
        ps.replication_factor()
    );
}

/// §IV-C: GraphMat's SpMV machinery carries per-iteration serial overhead
/// (the accumulator merge) that CSR engines do not pay — "the overhead of
/// the sparse matrix operations" on small graphs.
#[test]
fn graphmat_traces_carry_serial_overhead() {
    let ds = kron(9, false, 8);
    let pool = ThreadPool::new(2);
    let mut gm = EngineKind::GraphMat.create();
    gm.load_edge_list(ds.edges_for(EngineKind::GraphMat));
    gm.construct(&pool);
    let out = gm.run(Algorithm::Bfs, &RunParams::new(&pool, Some(ds.roots[0])));
    assert!(out.trace.serial_fraction() > 0.0, "no serial overhead recorded");

    let mut gap = EngineKind::Gap.create();
    gap.load_edge_list(ds.edges_for(EngineKind::Gap));
    gap.construct(&pool);
    let gap_out = gap.run(Algorithm::Bfs, &RunParams::new(&pool, Some(ds.roots[0])));
    assert!(gap_out.trace.serial_fraction() < out.trace.serial_fraction());
}

/// §IV-B / Figs. 5-6: projected strong scaling is "generally poor" —
/// nobody is near-linear at 72 threads, efficiency decays monotonically at
/// high thread counts, and GAP is the most scalable BFS engine.
#[test]
fn projected_scaling_shapes_match_figures_5_and_6() {
    let ds = kron(11, false, 9);
    let cfg = ExperimentConfig {
        algorithms: vec![Algorithm::Bfs],
        max_roots: Some(1),
        ..ExperimentConfig::new()
    };
    let result = run_experiment(&cfg, &ds);
    let model = MachineModel::paper_machine();
    let threads = [1, 2, 4, 8, 16, 32, 64, 72];

    // One nominal rate for every engine, in the ballpark the paper machine
    // calibrates to. Calibrating from this run's wall time would feed
    // shared-CI timing noise into the curve *shape* and flip the
    // cross-engine comparisons below; the shapes under test are properties
    // of the traces, which are deterministic.
    let rate = 5e8;

    let mut speedup72 = Vec::new();
    for kind in [EngineKind::Gap, EngineKind::Graph500, EngineKind::GraphBig, EngineKind::GraphMat]
    {
        let run = result.runs.iter().find(|r| r.engine == kind).unwrap();
        let curve = model.speedup_curve(&run.output.trace, rate, &threads);
        let s72 = curve.last().unwrap().1;
        assert!(s72 < 40.0, "{} scales implausibly well: {s72}", kind.name());
        // Efficiency at 72 threads is well below ideal ("generally poor
        // scaling", §IV-B).
        assert!(s72 / 72.0 < 0.6, "{} efficiency too high", kind.name());
        // Mild dips are allowed — once barrier cost outgrows the compute
        // gain, adding threads hurts (the model's analog of the paper's
        // Graph500 2-thread dip) — but collapse is not.
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.5, "{} speedup collapsed: {curve:?}", kind.name());
        }
        speedup72.push((kind, s72));
    }
    // "GraphMat close behind [GAP] for larger threads and even slightly
    // beating GAP at 72 threads" (§IV-B): GraphMat's 72-thread speedup is
    // at least GAP's.
    let gap = speedup72.iter().find(|(k, _)| *k == EngineKind::Gap).unwrap().1;
    let gm = speedup72.iter().find(|(k, _)| *k == EngineKind::GraphMat).unwrap().1;
    assert!(gm >= gap * 0.9, "GraphMat ({gm}) should rival GAP ({gap}) at 72T");
    // GraphBIG sits at the bottom of Fig. 5's curves.
    let gb = speedup72.iter().find(|(k, _)| *k == EngineKind::GraphBig).unwrap().1;
    assert!(gb <= gm, "GraphBIG ({gb}) should not out-scale GraphMat ({gm})");
}

/// Fig. 9 / Table III: the energy model reproduces "the fastest code is
/// also the most energy efficient" — energy per root tracks kernel time
/// across engines. Energy is average power × time. The all-parallel traces
/// (GAP, Graph500, GraphBIG) draw the same ~141 W at 32 threads, so among
/// them the time order is the energy order; GraphMat's serial sections
/// idle 31 of the 32 threads (92 W here, 78 W when a loaded host slows
/// them), so it can finish behind an engine and still use less energy.
/// Every pair is therefore held to the time order except a slower GraphMat
/// against an engine other than the fastest, and the claim that licenses
/// the exception — Table III's "GraphMat draws the lowest power" — is
/// asserted itself.
#[test]
fn energy_tracks_runtime_across_engines() {
    let ds = kron(10, false, 10);
    let cfg = ExperimentConfig {
        algorithms: vec![Algorithm::Bfs],
        max_roots: Some(1),
        ..ExperimentConfig::new()
    };
    let result = run_experiment(&cfg, &ds);
    let model = MachineModel::paper_machine();
    let mut runs = Vec::new();
    for kind in [EngineKind::Gap, EngineKind::Graph500, EngineKind::GraphBig, EngineKind::GraphMat]
    {
        let run = result.runs.iter().find(|r| r.engine == kind).unwrap();
        let rate = model.calibrate_rate(&run.output.trace, run.seconds.max(1e-6));
        let rep = model.energy(&run.output.trace, rate, 32);
        runs.push((kind, rep.duration_s, rep.total_j()));
    }
    runs.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (i, &(_, _, fast_j)) in runs.iter().enumerate() {
        for &(slow, _, slow_j) in &runs[i + 1..] {
            if slow == EngineKind::GraphMat && i > 0 {
                continue;
            }
            assert!(fast_j <= slow_j * 1.05, "faster run used more energy: {runs:?}");
        }
    }
    let watts = |kind| {
        let &(_, s, j) = runs.iter().find(|r| r.0 == kind).unwrap();
        j / s
    };
    for other in [EngineKind::Gap, EngineKind::Graph500, EngineKind::GraphBig] {
        assert!(
            watts(EngineKind::GraphMat) < watts(other),
            "GraphMat should draw the lowest average power: {runs:?}"
        );
    }
}

/// Fig. 8 mechanism: on the dense weighted dota-league stand-in, GraphMat
/// does *relatively* better than on the sparse citation graph — the
/// "sparse matrix operations ... pay off" observation, asserted on work
/// per edge rather than wall time.
#[test]
fn graphmat_overhead_amortizes_on_dense_graphs() {
    let pool = ThreadPool::new(2);
    let sparse = Dataset::from_spec(&GraphSpec::CitPatents { scale_div: 4096 }, 3);
    let dense = Dataset::from_spec(&GraphSpec::DotaLeague { num_vertices: 700, avg_degree: 80 }, 3);
    let mut fractions = Vec::new();
    for ds in [&sparse, &dense] {
        let mut gm = EngineKind::GraphMat.create();
        gm.load_edge_list(ds.edges_for(EngineKind::GraphMat));
        gm.construct(&pool);
        let out = gm.run(Algorithm::PageRank, &RunParams::new(&pool, None));
        fractions.push(out.trace.serial_fraction());
    }
    assert!(
        fractions[1] < fractions[0],
        "serial (overhead) fraction should shrink with density: sparse {} vs dense {}",
        fractions[0],
        fractions[1]
    );
}
