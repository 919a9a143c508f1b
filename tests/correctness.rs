//! The correctness net: every engine × algorithm cell the registry lists,
//! on every graph below, at 1, 2 and 3 threads, judged by
//! [`verify_output`] — the runner's rule for a correct answer — and by no
//! check restated here.
//!
//! The verifier is called directly, not through `run_experiment`: the
//! runner retries a rejected trial, so a wrong answer that comes and goes
//! with the schedule could pass on its second attempt. GAP's SSSP runs once
//! per [`SsspKernel`]; PageRank runs under the homogenized stopping rule and
//! under each engine's native one; betweenness runs exact, from every
//! source. The cells come from [`engines_supporting`], so a new cell is
//! covered without an edit, and a support-matrix change fails the count.

use epg::harness::registry::engines_supporting;
use epg::harness::supervise::{verify_output, Expected};
use epg::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The cells under judgement, how often each has run, and every wrong
/// answer so far.
struct Net {
    cells: Vec<(EngineKind, Algorithm)>,
    runs: Vec<usize>,
    wrong: Vec<String>,
}

impl Net {
    /// Every cell the registry lists whose algorithm `keep` accepts.
    fn new(keep: impl Fn(Algorithm) -> bool) -> Net {
        let cells: Vec<_> = Algorithm::ALL
            .into_iter()
            .flat_map(|algo| engines_supporting(algo).into_iter().map(move |kind| (kind, algo)))
            .collect();
        assert_eq!(
            cells.len(),
            27,
            "four BFS, four SSSP, three WCC, four PageRank, three CDLP, three LCC, four TC and \
             two BC engines"
        );
        let cells: Vec<_> = cells.into_iter().filter(|&(_, algo)| keep(algo)).collect();
        Net { runs: vec![0; cells.len()], cells, wrong: Vec::new() }
    }

    /// Runs every cell at 1, 2 and 3 threads on the list `edges` gives
    /// each engine and checks each output against the answers for `g`. A
    /// rooted cell does not run when `roots` is empty, as in the runner.
    fn judge<'e>(
        &mut self,
        graph: &str,
        edges: impl Fn(EngineKind) -> &'e EdgeList,
        g: &Csr,
        roots: &[VertexId],
    ) {
        let want = Expected::new(g);
        for threads in [1, 2, 3] {
            let pool = ThreadPool::new(threads);
            for (&(kind, algo), runs) in self.cells.iter().zip(&mut self.runs) {
                let kernels = match (kind, algo) {
                    (EngineKind::Gap, Algorithm::Sssp) => SsspKernel::ALL.map(Some).to_vec(),
                    _ => vec![None],
                };
                // Rooted cells run from up to two roots, PageRank under the
                // homogenized and the native stopping rule.
                let trials: Vec<(Option<VertexId>, Option<StoppingCriterion>)> = match algo {
                    _ if algo.is_rooted() => {
                        roots.iter().take(2).map(|&r| (Some(r), None)).collect()
                    }
                    Algorithm::PageRank => {
                        vec![(None, Some(StoppingCriterion::paper_default())), (None, None)]
                    }
                    _ => vec![(None, None)],
                };
                for kernel in kernels {
                    let mut engine = kind.create_with_sssp_kernel(kernel);
                    engine.load_edge_list(edges(kind));
                    engine.construct(&pool);
                    for &(root, stopping) in &trials {
                        *runs += 1;
                        let what = format!(
                            "{} {}{} on {graph} from {root:?} ({stopping:?}) at {threads} threads",
                            kind.name(),
                            algo.abbrev(),
                            kernel.map_or(String::new(), |k| format!("/{}", k.name())),
                        );
                        let params = RunParams { stopping, ..RunParams::new(&pool, root) };
                        let verdict = catch_unwind(AssertUnwindSafe(|| {
                            let out = engine.run(algo, &params);
                            verify_output(&want, algo, root, &out, &pool)
                        }));
                        match verdict {
                            Ok(Ok(())) => {}
                            Ok(Err(why)) => self.wrong.push(format!("{what}: {why}")),
                            Err(_) => self.wrong.push(format!("{what}: panicked")),
                        }
                    }
                }
            }
        }
    }

    /// Judges every cell on each dataset's homogenized lists.
    fn judge_datasets(&mut self, datasets: &[Dataset]) {
        for ds in datasets {
            let g = Csr::from_edge_list(&ds.symmetric);
            self.judge(&ds.name, |kind| ds.edges_for(kind), &g, &ds.roots);
        }
    }

    /// Panics listing every wrong answer, or naming a cell that never ran.
    fn finish(self) {
        let wrong = &self.wrong;
        assert!(wrong.is_empty(), "{} wrong answers:\n{}", wrong.len(), wrong.join("\n"));
        for (&(kind, algo), &runs) in self.cells.iter().zip(&self.runs) {
            assert!(runs > 0, "{} {} never ran", kind.name(), algo.abbrev());
        }
    }
}

#[test]
fn every_cell_is_correct_on_every_generator_family() {
    let mut datasets: Vec<Dataset> = (90..)
        .zip(GraphSpec::test_corpus())
        .map(|(seed, spec)| Dataset::from_spec(&spec, seed))
        .collect();
    // The tie-heavy dota-league stand-in, on whose first CDLP rounds nearly
    // every vertex breaks a tie, and a Kronecker graph with a hub.
    datasets
        .push(Dataset::from_spec(&GraphSpec::DotaLeague { num_vertices: 300, avg_degree: 40 }, 9));
    datasets.push(Dataset::from_spec(
        &GraphSpec::Kronecker { scale: 9, edge_factor: 8, weighted: true },
        1234,
    ));
    let mut net = Net::new(|_| true);
    net.judge_datasets(&datasets);
    net.finish();
}

/// Shapes a comparison harness must not fall over on ("any network in the
/// SNAP data format can be used", §III-B): empty-ish graphs, singletons,
/// self-loops, stars, disconnected shards, a zero-weight edge mid-path,
/// and the adversarial SSSP families at the degenerate end of their
/// parameter space (zero weights, one-gadget spines, 2×2 spirals).
#[test]
fn every_cell_is_correct_on_every_degenerate_graph() {
    let degenerate = [
        ("zero_vertices", EdgeList::new(0, vec![])),
        ("zero_edges", EdgeList::new(4, vec![])),
        ("single_edge", EdgeList::new(2, vec![(0, 1)])),
        ("self_loop_only", EdgeList::new(1, vec![(0, 0)])),
        ("two_loops", EdgeList::new(2, vec![(0, 0), (1, 1)])),
        ("star", EdgeList::new(6, (1..6).map(|v| (0u32, v)).collect::<Vec<_>>()).symmetrized()),
        ("disconnected", EdgeList::new(9, vec![(0, 1), (1, 0), (3, 4), (4, 3), (6, 7), (7, 8)])),
        ("weighted_pair", EdgeList::weighted(3, vec![(0, 1), (1, 0)], vec![0.25, 0.25])),
        // A vertex reached over a zero-weight edge whose own neighbour is
        // reached only through it.
        (
            "zero_weight_path",
            EdgeList::weighted(4, vec![(0, 1), (1, 2), (2, 3)], vec![1.0, 0.0, 1.0]),
        ),
        ("duplicate_heavy", EdgeList::new(3, [vec![(0, 1); 20], vec![(1, 2)]].concat())),
        ("tiny_spfa_killer", epg::generator::adversarial::spfa_killer(1, 1)),
        ("tiny_wrong_dijkstra", epg::generator::adversarial::wrong_dijkstra_killer(1, 1)),
        ("tiny_grid_swirl", epg::generator::adversarial::grid_swirl(2, 1)),
        ("tiny_almost_line", epg::generator::adversarial::almost_line(2, 1, 1)),
        ("tiny_max_dense_zero", epg::generator::adversarial::max_dense_zero(2)),
        ("empty_spfa_killer", epg::generator::adversarial::spfa_killer(0, 1)),
        ("empty_grid_swirl", epg::generator::adversarial::grid_swirl(0, 1)),
        ("empty_max_dense_zero", epg::generator::adversarial::max_dense_zero(0)),
    ];
    let datasets: Vec<Dataset> = degenerate
        .into_iter()
        .map(|(name, el)| Dataset::from_edge_list(name.to_string(), el, 1))
        .collect();
    let mut net = Net::new(|_| true);
    net.judge_datasets(&datasets);
    net.finish();
}

/// Lists loaded as given, not through `Dataset` (whose lists drop loops
/// and repeats): only here does an engine see a self-loop or a parallel
/// edge. LCC, TC and WCC read their graph as a set of neighbours, so they
/// must give the oracle's answer on the list as it is.
#[test]
fn loops_and_repeats_reach_the_lcc_tc_and_wcc_cells_as_given() {
    let mut uniform = epg::generator::uniform::generate(40, 400, false, 21);
    uniform.edges.extend([(5, 5), (7, 7), (3, 8), (3, 8), (8, 3)]);
    let lists = [
        ("self_loop_only", EdgeList::new(1, vec![(0, 0)])),
        ("two_loops", EdgeList::new(2, vec![(0, 0), (1, 1)])),
        ("duplicate_heavy", EdgeList::new(3, [vec![(0, 1); 20], vec![(1, 2)]].concat())),
        ("uniform_with_loops_and_repeats", uniform),
    ];
    let mut net =
        Net::new(|algo| matches!(algo, Algorithm::Lcc | Algorithm::TriangleCount | Algorithm::Wcc));
    for (name, el) in &lists {
        net.judge(name, |_| el, &Csr::from_edge_list(el), &[]);
    }
    net.finish();
}
