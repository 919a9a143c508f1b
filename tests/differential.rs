//! The raw-speed SSSP kernels' bit-exactness wall. Whether a kernel's
//! distances are *correct* is judged with every other cell in
//! `tests/correctness.rs`; this suite pins something stronger. Every
//! [`SsspKernel`] takes the minimum over paths of the same left-fold `f32`
//! sums Dijkstra does (the order of relaxations decides only which path is
//! found first), so its distances must equal the sequential oracle's bit
//! for bit, on every [`GraphSpec`] family (the adversarial families built
//! to break naive shortest-path solvers included) at thread counts {1, 2,
//! 4, 8}. A kernel or family missing from `SsspKernel::ALL` /
//! `GraphSpec::test_corpus` escapes it.

use epg::graph::oracle;
use epg::prelude::*;

#[test]
fn every_sssp_kernel_matches_dijkstra_on_every_family() {
    for (i, spec) in GraphSpec::test_corpus().iter().enumerate() {
        let ds = Dataset::from_spec(spec, 90 + i as u64);
        let root = ds.roots[0];
        let want = oracle::dijkstra(&Csr::from_edge_list(&ds.symmetric), root);
        for threads in [1usize, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            for kernel in SsspKernel::ALL {
                let mut e = EngineKind::Gap.create_with_sssp_kernel(Some(kernel));
                e.load_edge_list(ds.edges_for(EngineKind::Gap));
                e.construct(&pool);
                let out = e.run(Algorithm::Sssp, &RunParams::new(&pool, Some(root)));
                let AlgorithmResult::Distances(d) = out.result else {
                    panic!("{}/{}: wrong result kind", spec.name(), kernel.name())
                };
                assert_eq!(d.len(), want.len(), "{}/{}", spec.name(), kernel.name());
                if let Some(v) = (0..d.len()).find(|&v| d[v].to_bits() != want[v].to_bits()) {
                    panic!(
                        "{} kernel={} t={threads} vertex {v}: {} vs oracle {}",
                        spec.name(),
                        kernel.name(),
                        d[v],
                        want[v]
                    );
                }
            }
        }
    }
}
