//! Kernel-equality property tests for the raw-speed SSSP tier.
//!
//! On arbitrary graphs — random uniform graphs plus the adversarial
//! families built to break naive shortest-path solvers — every kernel
//! (the binary-heap Dijkstra oracle, radix-heap Dijkstra, BMSSP and
//! Δ-stepping at fixed and derived Δ) must produce *bit-identical*
//! distance arrays: each distance is the least fold-left f32 path sum,
//! whichever order the kernel finds the paths in, so there is no
//! tolerance to hide behind. All kernels are exercised across thread
//! counts to catch scheduling sensitivity. A golden table pins the edges
//! each kernel relaxes on the adversarial corpus: a noise-free counter,
//! so a change is algorithmic.

use epg_engine_api::{AlgorithmResult, SsspKernel};
use epg_engine_gap::sssp::{derived_delta, run_kernel};
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

fn distances(
    kernel: SsspKernel,
    g: &Csr,
    root: VertexId,
    delta: f32,
    pool: &ThreadPool,
) -> Vec<f32> {
    let out = run_kernel(kernel, g, root, pool, delta);
    let AlgorithmResult::Distances(d) = out.result else {
        panic!("{}: wrong result kind", kernel.name())
    };
    d
}

/// Edges relaxed from root 0 on each adversarial `test_corpus()` graph
/// (seed 42, Δ-stepping at the Δ `construct` derives), as (family, delta,
/// radix, bmssp).
///
/// Δ-stepping relaxes every out-edge of a vertex each time it is popped
/// non-stale, so its column is Σ out-degree over pops. A vertex improved
/// into a bin that has not been popped yet, where its earlier entry still
/// waits, is not filed again; one improved into the bin being drained is,
/// and every copy passes the bin-granular stale check. So the column is m
/// plus the out-degrees of the vertices re-filed into the bin being
/// drained. Per row, with the derived Δ (the column read 212, 1340, 528,
/// 231 and 1560 at the fixed 0.05 used before, and 310 and 2480 on the
/// first two rows while a vertex was filed at every improvement):
/// - `spfa_killer`, Δ = 0.271: 180 + 41 (was 180 + 130): a spine vertex
///   whose direct edge and detour land in one bin ahead is filed there
///   once, not twice; the 41 are vertices improved again inside the bin
///   being drained;
/// - `wrong_dijkstra_killer`, Δ = 8.35: every chain vertex lowers the hub
///   into bin 4. It is filed there once from bin 0, then again by each of
///   the 7 chain vertices drained with it in bin 4: 8 pops with a fan of
///   60, 140 + 7 × 60 (was 40 pops, 140 + 39 × 60);
/// - `grid_swirl` (Δ = 0.149) and `almost_line` (Δ = 4.99): each vertex is
///   still popped once, so the column is m, like radix's;
/// - `max_dense_zero`: no positive weight, so Δ = 1; one pop per vertex, m.
const EDGES_RELAXED: [(&str, u64, u64, u64); 5] = [
    ("spfa_killer", 221, 180, 750),
    ("wrong_dijkstra_killer", 560, 140, 725),
    ("grid_swirl", 528, 528, 2618),
    ("almost_line", 231, 231, 971),
    ("max_dense_zero", 1560, 1560, 8596),
];

#[test]
fn adversarial_corpus_work_matches_the_golden_table() {
    // One thread: Δ-stepping's relaxation count must not depend on scheduling.
    let pool = ThreadPool::new(1);
    let corpus = epg_generator::GraphSpec::test_corpus();
    assert_eq!(EDGES_RELAXED.map(|row| row.0), epg_generator::GraphSpec::ADVERSARIAL_FAMILIES);
    for (family, want_delta, want_radix, want_bmssp) in EDGES_RELAXED {
        let spec = corpus.iter().find(|s| s.family() == family).expect("family in test corpus");
        let g = Csr::from_edge_list(&spec.generate(42));
        let delta = derived_delta(&g, &pool);
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
            let d = distances(kernel, &g, root, 1.0, &pool);
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
    fn delta_stepping_is_bit_identical(
        el in arb_graph(),
        threads in (0usize..4).prop_map(|i| [1usize, 2, 4, 8][i]),
        delta_pick in 0usize..5,
        root_pick in 0u32..1000,
    ) {
        let g = Csr::from_edge_list(&el);
        prop_assert!(g.num_vertices() > 0);
        let root = root_pick % g.num_vertices() as u32;
        let pool = ThreadPool::new(threads);
        // Four fixed widths and the one `construct` derives for the graph.
        let delta = [0.05f32, 0.5, 2.0, 1e6].get(delta_pick).copied()
            .unwrap_or_else(|| derived_delta(&g, &pool));
        let want = oracle::dijkstra(&g, root);
        let d = distances(SsspKernel::DeltaStepping, &g, root, delta, &pool);
        prop_assert_eq!(d.len(), want.len());
        for v in 0..want.len() {
            prop_assert_eq!(
                d[v].to_bits(), want[v].to_bits(),
                "t={} delta={} v{}: {} vs {}", threads, delta, v, d[v], want[v]
            );
        }
    }
}
