//! Kernel-equality property tests for the raw-speed SSSP tier.
//!
//! On arbitrary graphs — random uniform graphs plus the adversarial
//! families built to break naive shortest-path solvers — the three
//! label-setting solvers (binary-heap Dijkstra oracle, radix-heap
//! Dijkstra, BMSSP) must produce *bit-identical* distance arrays: they
//! all compute `min` over the same fold-left f32 path sums, so there is
//! no tolerance to hide behind. Δ-stepping may relax edges in a
//! different order, so it gets a small absolute tolerance instead. All
//! kernels are exercised across thread counts to catch scheduling
//! sensitivity. A golden table pins the edges each kernel relaxes on the
//! adversarial corpus: a noise-free counter, so a change is algorithmic.

use epg_engine_api::{AlgorithmResult, SsspKernel};
use epg_engine_gap::sssp::run_kernel;
use epg_engine_gap::GapConfig;
use epg_graph::{oracle, Csr, EdgeList, VertexId};
use epg_parallel::ThreadPool;
use proptest::prelude::*;

/// Arbitrary weighted graph: random uniform or one of the adversarial
/// families at small sizes (zero weights, near-ties, deep lines — the
/// shapes where priority-queue bugs live).
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    prop_oneof![
        (2usize..60, 1usize..300, 0u64..1000)
            .prop_map(|(n, m, s)| epg_generator::uniform::generate(n, m, true, s).symmetrized()),
        (1usize..14, 0u64..100).prop_map(|(l, s)| epg_generator::adversarial::spfa_killer(l, s)),
        (1usize..12, 1usize..12)
            .prop_map(|(c, f)| epg_generator::adversarial::wrong_dijkstra_killer(c, f)),
        (2usize..9, 0u64..100).prop_map(|(w, s)| epg_generator::adversarial::grid_swirl(w, s)),
        (2usize..50, 0usize..8, 0u64..100)
            .prop_map(|(n, x, s)| epg_generator::adversarial::almost_line(n, x, s)),
        (1usize..16).prop_map(epg_generator::adversarial::max_dense_zero),
    ]
}

fn distances(kernel: SsspKernel, g: &Csr, root: VertexId, pool: &ThreadPool) -> Vec<f32> {
    let delta = GapConfig::default().delta;
    let out = run_kernel(kernel, g, root, pool, delta);
    let AlgorithmResult::Distances(d) = out.result else {
        panic!("{}: wrong result kind", kernel.name())
    };
    d
}

/// Edges relaxed from root 0 on each adversarial `test_corpus()` graph
/// (seed 42, default Δ), as (family, delta, radix, bmssp).
///
/// Δ-stepping relaxes every out-edge of a vertex each time it is popped
/// non-stale, so its column is Σ out-degree over pops, and a bin-granular
/// stale check passes every copy of a vertex filed twice in one bin: the
/// `spfa_killer` spine vertices whose direct edge and detour land less
/// than Δ apart (180 + 32), and the `wrong_dijkstra_killer` hub, filed in
/// its final bin 21 times with a fan of 60 (140 + 20 × 60). On
/// `grid_swirl`, `almost_line` and `max_dense_zero` each vertex is popped
/// once and the column is m, like radix's.
const EDGES_RELAXED: [(&str, u64, u64, u64); 5] = [
    ("spfa_killer", 212, 180, 750),
    ("wrong_dijkstra_killer", 1340, 140, 725),
    ("grid_swirl", 528, 528, 2618),
    ("almost_line", 231, 231, 971),
    ("max_dense_zero", 1560, 1560, 8596),
];

#[test]
fn adversarial_corpus_work_matches_the_golden_table() {
    // One thread: Δ-stepping's relaxation count must not depend on scheduling.
    let pool = ThreadPool::new(1);
    let delta = GapConfig::default().delta;
    let corpus = epg_generator::GraphSpec::test_corpus();
    assert_eq!(EDGES_RELAXED.map(|row| row.0), epg_generator::GraphSpec::ADVERSARIAL_FAMILIES);
    for (family, want_delta, want_radix, want_bmssp) in EDGES_RELAXED {
        let spec = corpus.iter().find(|s| s.family() == family).expect("family in test corpus");
        let g = Csr::from_edge_list(&spec.generate(42));
        for (kernel, want) in [
            (SsspKernel::DeltaStepping, want_delta),
            (SsspKernel::RadixHeap, want_radix),
            (SsspKernel::Bmssp, want_bmssp),
        ] {
            let got = run_kernel(kernel, &g, 0, &pool, delta).counters.edges_traversed;
            assert_eq!(got, want, "{family} x {}: edges relaxed", kernel.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn label_setting_kernels_are_bit_identical(
        el in arb_graph(),
        threads in (0usize..4).prop_map(|i| [1usize, 2, 4, 8][i]),
        root_pick in 0u32..1000,
    ) {
        let g = Csr::from_edge_list(&el);
        prop_assert!(g.num_vertices() > 0);
        let root = root_pick % g.num_vertices() as u32;
        let pool = ThreadPool::new(threads);
        let want = oracle::dijkstra(&g, root);
        for kernel in [SsspKernel::RadixHeap, SsspKernel::Bmssp] {
            let d = distances(kernel, &g, root, &pool);
            prop_assert_eq!(d.len(), want.len());
            for v in 0..want.len() {
                prop_assert_eq!(
                    d[v].to_bits(), want[v].to_bits(),
                    "{} t={} v{}: {} vs binary-heap {}",
                    kernel.name(), threads, v, d[v], want[v]
                );
            }
        }
    }

    #[test]
    fn delta_stepping_matches_within_tolerance(
        el in arb_graph(),
        threads in (0usize..4).prop_map(|i| [1usize, 2, 4, 8][i]),
        delta in (0usize..4).prop_map(|i| [0.05f32, 0.5, 2.0, 1e6][i]),
        root_pick in 0u32..1000,
    ) {
        let g = Csr::from_edge_list(&el);
        prop_assert!(g.num_vertices() > 0);
        let root = root_pick % g.num_vertices() as u32;
        let pool = ThreadPool::new(threads);
        let want = oracle::dijkstra(&g, root);
        let out = run_kernel(SsspKernel::DeltaStepping, &g, root, &pool, delta);
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        for v in 0..want.len() {
            if want[v].is_infinite() {
                prop_assert!(d[v].is_infinite(), "t={} v{} should be unreachable", threads, v);
            } else {
                prop_assert!(
                    (d[v] - want[v]).abs() < 1e-3,
                    "t={} delta={} v{}: {} vs {}", threads, delta, v, d[v], want[v]
                );
            }
        }
    }
}
