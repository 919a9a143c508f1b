//! Differential verification of the serving pipeline against the
//! sequential oracles in `epg_graph::oracle`, on a real GAP engine over
//! a real Kronecker graph. Every answer path — exact, cached, batched,
//! landmark, and the landmark *fallback* into the exact pipeline —
//! must produce the same answer a fresh sequential traversal would,
//! and the amortized paths must be byte-identical to the uncached ones
//! regardless of the pool's thread count (the proptest at the bottom).

use epg_engine_api::Engine;
use epg_engine_gap::GapEngine;
use epg_generator::kronecker::{self, KroneckerConfig};
use epg_graph::{oracle, Csr, EdgeList};
use epg_parallel::ThreadPool;
use epg_serve::{AnswerPath, PointQuery, ServeConfig, ServeService};
use proptest::prelude::*;
use std::sync::Arc;

fn kron(scale: u32, weighted: bool) -> EdgeList {
    kronecker::generate(
        &KroneckerConfig { scale, edge_factor: 8, weighted, ..Default::default() },
        42,
    )
    .symmetrized()
}

fn service_on(el: &EdgeList, nthreads: usize, config: ServeConfig) -> ServeService {
    let pool = Arc::new(ThreadPool::new(nthreads));
    let mut e = GapEngine::new();
    e.load_edge_list(el);
    e.construct(&pool);
    ServeService::new(Arc::new(e.into_query()), pool, config)
}

/// The oracle's view of one query, widened exactly as the service
/// widens its answers.
fn oracle_value(g: &Csr, q: &PointQuery) -> f64 {
    match *q {
        PointQuery::BfsDist { source, target } => {
            let level = oracle::bfs(g, source).level[target as usize];
            if level == u32::MAX {
                f64::INFINITY
            } else {
                f64::from(level)
            }
        }
        PointQuery::SsspDist { source, target } => {
            f64::from(oracle::dijkstra(g, source)[target as usize])
        }
        PointQuery::PrRank { vertex } => oracle::pagerank(g, 6e-8, 300).0[vertex as usize],
    }
}

#[test]
fn exact_and_cached_answers_match_the_sequential_oracles() {
    let el = kron(9, true);
    let g = Csr::from_edge_list(&el);
    let svc = service_on(&el, 2, ServeConfig::default());
    let roots = epg_graph::degree::sample_roots(&el, 3, 7);
    for &root in &roots {
        for target in [0u32, 5, 100, (g.num_vertices() - 1) as u32] {
            let bfs = PointQuery::BfsDist { source: root, target };
            let sssp = PointQuery::SsspDist { source: root, target };
            for q in [bfs, sssp] {
                let first = svc.answer(&q).expect("answered");
                let second = svc.answer(&q).expect("answered");
                assert_eq!(second.path, AnswerPath::Cached, "repeat hits the cache");
                assert_eq!(first.value, second.value, "cache is answer-preserving");
                assert_eq!(first.value, oracle_value(&g, &q), "query {q:?}");
            }
        }
    }
    // PageRank is iterative: the service must be internally exact
    // (cached == exact bit-for-bit) and oracle-close.
    let pr = PointQuery::PrRank { vertex: roots[0] };
    let first = svc.answer(&pr).unwrap();
    let second = svc.answer(&pr).unwrap();
    assert_eq!(second.path, AnswerPath::Cached);
    assert_eq!(first.value, second.value);
    assert!((first.value - oracle_value(&g, &pr)).abs() < 1e-5);
    let s = svc.stats();
    assert_eq!(s.submitted, s.answered, "everything in range was answered");
    assert_eq!(s.answered, s.exact + s.batched + s.cached + s.landmark);
}

#[test]
fn batched_answers_match_the_oracle() {
    // Caching off so repeated sources cannot short-circuit: overlap has
    // to come from attaching to an in-flight traversal. Concurrency is
    // nondeterministic, so fire concurrent same-source pairs until at
    // least one join happened — every answer is oracle-checked either
    // way, so the loop only decides when batching was *exercised*.
    let el = kron(9, true);
    let g = Csr::from_edge_list(&el);
    let svc = service_on(&el, 1, ServeConfig { cache_capacity: 0, ..ServeConfig::default() });
    let root = epg_graph::degree::sample_roots(&el, 1, 11)[0];
    let want = f64::from(oracle::dijkstra(&g, root)[40]);
    for _ in 0..50 {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let svc = &svc;
                    s.spawn(move || svc.answer(&PointQuery::SsspDist { source: root, target: 40 }))
                })
                .collect();
            for h in handles {
                let a = h.join().unwrap().expect("answered");
                assert_eq!(a.value, want, "every concurrent answer matches the oracle");
            }
        });
        if svc.stats().batch.joins > 0 {
            break;
        }
    }
    let s = svc.stats();
    assert!(s.batch.joins > 0, "no overlap in 50 rounds of 4 concurrent same-source queries");
    assert_eq!(s.batched, s.batch.joins, "every join resolved as a batched answer");
    assert_eq!(s.submitted, s.exact + s.batched, "nothing was cached or dropped");
}

#[test]
fn concurrent_mixed_traversals_on_a_one_thread_service_match_the_oracle() {
    // A 1-thread service pool gives each in-flight request its own inline
    // lane, so four clients' BFS and SSSP traversals run at once over the
    // one resident graph. Caching off: every answer is a traversal (or a
    // join onto one), and each must still be the oracle's.
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 12;
    let el = kron(9, true);
    let g = Csr::from_edge_list(&el);
    let svc = service_on(&el, 1, ServeConfig { cache_capacity: 0, ..ServeConfig::default() });
    let roots = epg_graph::degree::sample_roots(&el, 6, 13);
    let n = g.num_vertices();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (svc, g, roots) = (&svc, &g, &roots);
            s.spawn(move || {
                for i in 0..PER_CLIENT {
                    let source = roots[(c + i) % roots.len()];
                    let target = ((c * 131 + i * 37) % n) as u32;
                    let q = if (c + i) % 2 == 0 {
                        PointQuery::BfsDist { source, target }
                    } else {
                        PointQuery::SsspDist { source, target }
                    };
                    let a = svc.answer(&q).expect("answered");
                    assert_eq!(a.value, oracle_value(g, &q), "client {c}, query {q:?}");
                }
            });
        }
    });
    let s = svc.stats();
    assert_eq!(s.submitted, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(s.submitted, s.answered + s.rejected + s.dnf + s.failed);
    assert_eq!(s.answered, s.submitted, "nothing was refused");
    assert_eq!(s.answered, s.exact + s.batched, "nothing was cached");
}

#[test]
fn landmark_answers_and_fallbacks_match_the_oracle() {
    let el = kron(9, true);
    let g = Csr::from_edge_list(&el);
    let svc = service_on(&el, 2, ServeConfig { landmarks: 4, ..ServeConfig::default() });
    let n = g.num_vertices() as u32;
    // A deterministic spread of pairs: some will be pinned by the
    // landmark rows (hub sources among them), most fall back.
    let mut landmark_hits = 0u64;
    for i in 0..24u32 {
        let (s, t) = (i * 7 % n, (i * 13 + 5) % n);
        for q in [
            PointQuery::BfsDist { source: s, target: t },
            PointQuery::SsspDist { source: s, target: t },
        ] {
            let a = svc.answer(&q).expect("answered");
            assert_eq!(a.value, oracle_value(&g, &q), "query {q:?} (path {:?})", a.path);
            if a.path == AnswerPath::Landmark {
                landmark_hits += 1;
            }
        }
    }
    // Hub sources are landmarks on a skewed graph: query them directly
    // so the landmark path is deterministically exercised.
    let mut by_degree: Vec<u32> = (0..n).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(svc_degree(&g, v)));
    let hub = by_degree[0];
    let q = PointQuery::BfsDist { source: hub, target: (hub + 1) % n };
    let a = svc.answer(&q).expect("answered");
    assert_eq!(a.path, AnswerPath::Landmark, "hub source answers from its row");
    assert_eq!(a.value, oracle_value(&g, &q));
    let s = svc.stats();
    assert_eq!(s.landmark, landmark_hits + 1);
    assert!(s.landmark_fallthroughs > 0, "some pairs must fall back to the exact pipeline");
}

fn svc_degree(g: &Csr, v: u32) -> usize {
    g.neighbors(v).len()
}

// ---- cached-vs-uncached byte-identity across thread counts ----------
//
// The satellite property: for any source and any pool width, the value
// the full pipeline serves (and then serves again from cache) is
// *bit-identical* to what a naive no-amortization service computes
// fresh. Services are built once per thread count; proptest samples
// queries against them.

struct Fleet {
    csr: Csr,
    /// Full-pipeline services at 1..=3 threads.
    served: Vec<ServeService>,
    /// The unamortized reference at 1 thread.
    naive: ServeService,
}

fn fleet() -> &'static Fleet {
    static FLEET: std::sync::OnceLock<Fleet> = std::sync::OnceLock::new();
    FLEET.get_or_init(|| {
        let el = kron(8, true);
        Fleet {
            csr: Csr::from_edge_list(&el),
            served: (1..=3).map(|tc| service_on(&el, tc, ServeConfig::default())).collect(),
            naive: service_on(&el, 1, ServeConfig::naive()),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_answers_are_byte_identical_to_uncached_recomputation(
        source in 0u32..256,
        target in 0u32..256,
        threads in 0usize..3,
        weighted in prop_oneof![Just(true), Just(false)],
    ) {
        let f = fleet();
        let q = if weighted {
            PointQuery::SsspDist { source, target }
        } else {
            PointQuery::BfsDist { source, target }
        };
        let served = &f.served[threads];
        let first = served.answer(&q).expect("answered");
        let again = served.answer(&q).expect("answered");
        let fresh = f.naive.answer(&q).expect("answered");
        prop_assert_eq!(again.path, AnswerPath::Cached);
        prop_assert_eq!(fresh.path, AnswerPath::Exact, "naive mode never amortizes");
        // Bit-identity, not approximate equality: compare the raw bits
        // so 0.0 vs -0.0 or NaN payload drift would fail loudly.
        prop_assert_eq!(first.value.to_bits(), again.value.to_bits());
        prop_assert_eq!(first.value.to_bits(), fresh.value.to_bits());
        // And both agree with the sequential oracle.
        prop_assert_eq!(first.value.to_bits(), oracle_value(&f.csr, &q).to_bits());
    }
}
