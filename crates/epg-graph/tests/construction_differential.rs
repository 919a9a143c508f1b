//! Differential construction suite: the parallel two-pass CSR kernels must
//! be **byte-identical** to their serial counterparts — offsets, targets,
//! and weights, with no canonicalizing sort pass — across thread counts and
//! adversarial degree distributions.
//!
//! On schedules: the two-pass kernels intentionally take no `Schedule` — the
//! per-worker split is a fixed function of `(len, nthreads)` (see
//! `worker_range` in `csr.rs`), so there is no scheduler dimension left to
//! vary. Thread count is the only knob that could perturb the partition,
//! and this suite sweeps it {1, 2, 4, 8} on every shape. In a debug build
//! `DisjointWriter`'s shadow table also verifies that every scatter slot is
//! written exactly once per region.
//!
//! The second half holds the two structures built *on* those kernels to
//! their documented rules: `Dcsc` (a duplicate keeps its last value) and
//! `EdgeList::deduplicated` (a duplicate keeps its first weight), each
//! against a `BTreeMap` that states the rule and against the sort-based
//! builder it replaced, kept here as a test-only reference. Both
//! own-transpose checks, `Csr::is_own_transpose` and
//! `Dcsc::is_own_transpose`, are held to transpose equality at 1–3 threads,
//! and homogenization on the pool (`EdgeList::deduplicated_on`,
//! `EdgeList::undirected_with_degrees`) to the serial path at 1–3 threads.

use epg_graph::{csr::Csr, Dcsc, EdgeList, VertexId, Weight};
use epg_parallel::ThreadPool;
use proptest::prelude::*;
use std::collections::BTreeMap;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Asserts field-by-field equality so a failure names the component.
fn assert_identical(par: &Csr, ser: &Csr, ctx: &str) {
    assert_eq!(par.offsets, ser.offsets, "offsets differ: {ctx}");
    assert_eq!(par.targets, ser.targets, "targets differ: {ctx}");
    assert_eq!(par.weights, ser.weights, "weights differ: {ctx}");
}

/// Runs the full build + transpose differential on one edge list.
fn check_all(el: &EdgeList, shape: &str) {
    let ser = Csr::from_edge_list(el);
    let ser_t = ser.transpose();
    for nthreads in THREADS {
        let pool = ThreadPool::new(nthreads);
        let ctx = format!("shape={shape} nthreads={nthreads}");
        let par = Csr::from_edge_list_parallel(el, &pool);
        assert_identical(&par, &ser, &ctx);
        let par_t = par.transpose_parallel(&pool);
        assert_identical(&par_t, &ser_t, &ctx);
        // Parallel adjacency sort reaches the same canonical form.
        let mut sorted_par = par;
        let mut sorted_ser = ser.clone();
        sorted_par.sort_adjacency_parallel(&pool);
        sorted_ser.sort_adjacency();
        assert_identical(&sorted_par, &sorted_ser, &ctx);
    }
}

fn weighted_from(edges: Vec<(VertexId, VertexId)>, n: usize) -> EdgeList {
    let weights = (0..edges.len()).map(|i| (i % 31) as f32 * 0.5 + 0.25).collect();
    EdgeList::weighted(n, edges, weights)
}

// ---- skew-killer shapes -------------------------------------------------

#[test]
fn star_in_and_out() {
    // Hub 0 receives and emits everything: the worst case for per-vertex
    // cursor contention, and the case the old atomic scatter serialized on.
    let n = 512;
    let mut edges = Vec::new();
    for v in 1..n as VertexId {
        edges.push((0, v));
        edges.push((v, 0));
    }
    check_all(&EdgeList::new(n, edges.clone()), "star");
    check_all(&weighted_from(edges, n), "star-weighted");
}

#[test]
fn power_law_degrees() {
    // Zipf-ish skew from a deterministic LCG: a few heavy vertices, a long
    // light tail, duplicates included.
    let n = 300usize;
    let mut state = 0x9e37_79b9u64;
    let mut lcg = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut edges = Vec::with_capacity(6000);
    for _ in 0..6000 {
        // Squaring a uniform sample skews mass toward low vertex ids.
        let u = ((lcg() as u64).pow(2) >> 44) as u32 % n as u32;
        let v = lcg() % n as u32;
        edges.push((u, v));
    }
    check_all(&EdgeList::new(n, edges.clone()), "power-law");
    check_all(&weighted_from(edges, n), "power-law-weighted");
}

#[test]
fn all_self_loops() {
    let n = 97;
    let edges: Vec<_> = (0..3000u32).map(|i| (i % n, i % n)).collect();
    check_all(&EdgeList::new(n as usize, edges.clone()), "self-loops");
    check_all(&weighted_from(edges, n as usize), "self-loops-weighted");
}

#[test]
fn zero_vertex_and_zero_edge() {
    check_all(&EdgeList::new(0, vec![]), "zero-vertex");
    check_all(&EdgeList::new(64, vec![]), "zero-edge");
    check_all(&EdgeList::weighted(64, vec![], vec![]), "zero-edge-weighted");
}

#[test]
fn isolated_vertex_tail() {
    // Edges touch only the first 8 of 4096 vertices: the count matrix is
    // almost entirely zeros and most per-worker vertex ranges reduce and
    // cursor-init nothing but padding.
    let n = 4096;
    let edges: Vec<_> = (0..500u32).map(|i| (i % 8, (i * 3 + 1) % 8)).collect();
    check_all(&EdgeList::new(n, edges.clone()), "isolated-tail");
    check_all(&weighted_from(edges, n), "isolated-tail-weighted");
}

#[test]
fn fewer_edges_than_workers() {
    // With 8 threads and 3 edges most workers get empty ranges.
    check_all(&EdgeList::new(10, vec![(4, 2), (9, 0), (4, 2)]), "tiny");
    check_all(&weighted_from(vec![(1, 1), (0, 9)], 10), "tiny-weighted");
}

// ---- property-based matrix ---------------------------------------------

fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (1usize..=40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..200)
            .prop_map(move |edges| EdgeList::new(n, edges))
    })
}

fn arb_weighted_graph() -> impl Strategy<Value = EdgeList> {
    (1usize..=30).prop_flat_map(|n| {
        proptest::collection::vec(((0..n as VertexId, 0..n as VertexId), 0.01f32..10.0), 0..150)
            .prop_map(move |ews| {
                let (edges, weights): (Vec<_>, Vec<_>) = ews.into_iter().unzip();
                EdgeList::weighted(n, edges, weights)
            })
    })
}

/// Lists around "this CSR is its own transpose": a symmetric multigraph in
/// stable (src, dst) order — self-loops and parallel edges of unequal
/// weights included, each copy's reverse carrying its weight — weighted or
/// not, and four ways to spoil it: one reverse edge removed, one weight
/// changed, the list reversed (unsorted rows), the targets of two edges
/// swapped (every in- and out-degree kept). Zero vertices and zero edges
/// come up as `n = 0` and an empty draw.
fn arb_near_symmetric() -> impl Strategy<Value = (EdgeList, &'static str)> {
    let draw = proptest::collection::vec(((0..16 as VertexId, 0..16 as VertexId), 0u8..4), 0..60);
    (0usize..=16, draw, 0usize..6, 0usize..1 << 16).prop_map(|(n, ews, variant, pick)| {
        let ews = if n == 0 { vec![] } else { ews };
        let (edges, weights) = ews
            .into_iter()
            .map(|((u, v), w)| ((u % n as VertexId, v % n as VertexId), w as Weight + 0.5))
            .unzip();
        let mut el = EdgeList::weighted(n, edges, weights).symmetrized();
        let mut order: Vec<usize> = (0..el.num_edges()).collect();
        order.sort_by_key(|&i| el.edges[i]);
        el.edges = order.iter().map(|&i| el.edges[i]).collect();
        let m = el.num_edges();
        let ws = el.weights.as_mut().expect("weighted");
        *ws = order.iter().map(|&i| ws[i]).collect();
        let shape = match variant {
            0 => "symmetric",
            1 => "symmetric-unweighted",
            _ if m == 0 => "empty",
            2 => {
                el.edges.remove(pick % m);
                ws.remove(pick % m);
                "reverse-removed"
            }
            3 => {
                ws[pick % m] += 1.0;
                "unequal-weights"
            }
            4 => {
                let (i, j) = (pick % m, pick / m % m);
                let (ti, tj) = (el.edges[i].1, el.edges[j].1);
                (el.edges[i].1, el.edges[j].1) = (tj, ti);
                "targets-swapped"
            }
            _ => {
                el.edges.reverse();
                ws.reverse();
                "unsorted"
            }
        };
        (if variant == 1 { el.unweighted() } else { el }, shape)
    })
}

/// `el` as drawn and over three times the ids, vertex `v` renamed
/// `3v + 1` (empty rows, or columns, at 0, two between every two drawn ids
/// and in the tail), each also without weights, where only the targets
/// can tell a spoiled list from its transpose.
fn as_drawn_and_spread(el: &EdgeList) -> [(EdgeList, &'static str); 4] {
    let spread = EdgeList {
        num_vertices: 3 * el.num_vertices + 2,
        edges: el.edges.iter().map(|&(u, v)| (3 * u + 1, 3 * v + 1)).collect(),
        weights: el.weights.clone(),
        own_transpose: false,
    };
    [
        (el.unweighted(), "drawn-unweighted"),
        (spread.unweighted(), "spread-unweighted"),
        (el.clone(), "drawn"),
        (spread, "spread"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_build_byte_equal(el in arb_graph()) {
        let ser = Csr::from_edge_list(&el);
        for nthreads in THREADS {
            let pool = ThreadPool::new(nthreads);
            let par = Csr::from_edge_list_parallel(&el, &pool);
            prop_assert_eq!(&par, &ser, "nthreads={}", nthreads);
        }
    }

    #[test]
    fn parallel_build_byte_equal_weighted(el in arb_weighted_graph()) {
        let ser = Csr::from_edge_list(&el);
        for nthreads in THREADS {
            let pool = ThreadPool::new(nthreads);
            let par = Csr::from_edge_list_parallel(&el, &pool);
            prop_assert_eq!(&par, &ser, "nthreads={}", nthreads);
        }
    }

    #[test]
    fn parallel_transpose_byte_equal(el in arb_weighted_graph()) {
        let g = Csr::from_edge_list(&el);
        let ser = g.transpose();
        for nthreads in THREADS {
            let pool = ThreadPool::new(nthreads);
            let par = g.transpose_parallel(&pool);
            prop_assert_eq!(&par, &ser, "nthreads={}", nthreads);
        }
    }

    #[test]
    fn transpose_roundtrip_is_sorted_original(el in arb_graph()) {
        // Unweighted: transposing twice sorts each adjacency list (the
        // transpose scatters sources in ascending order), so the parallel
        // round trip must land exactly on the serial canonical form.
        let g = Csr::from_edge_list(&el);
        let mut sorted = g.clone();
        sorted.sort_adjacency();
        for nthreads in THREADS {
            let pool = ThreadPool::new(nthreads);
            let tt = g.transpose_parallel(&pool).transpose_parallel(&pool);
            prop_assert_eq!(&tt, &sorted, "nthreads={}", nthreads);
        }
    }

    #[test]
    fn transpose_roundtrip_weighted_canonicalizes(el in arb_weighted_graph()) {
        // Weighted: duplicate (u, v) edges with different weights keep edge
        // order through the round trip while sort_adjacency breaks weight
        // ties by bit pattern — so canonicalize both sides before comparing.
        let g = Csr::from_edge_list(&el);
        let mut sorted = g.clone();
        sorted.sort_adjacency();
        for nthreads in THREADS {
            let pool = ThreadPool::new(nthreads);
            let mut tt = g.transpose_parallel(&pool).transpose_parallel(&pool);
            prop_assert_eq!(tt.offsets.clone(), sorted.offsets.clone(), "nthreads={}", nthreads);
            tt.sort_adjacency_parallel(&pool);
            prop_assert_eq!(&tt, &sorted, "nthreads={}", nthreads);
        }
    }

    #[test]
    fn own_transpose_check_is_transpose_equality((el, shape) in arb_near_symmetric()) {
        for (el, ids) in as_drawn_and_spread(&el) {
            let g = Csr::from_edge_list(&el);
            for nthreads in 1..=3 {
                let pool = ThreadPool::new(nthreads);
                let own = g.is_own_transpose(&pool);
                let equal = g.transpose_parallel(&pool) == g;
                prop_assert_eq!(own, equal, "shape={} ids={} nthreads={}", shape, ids, nthreads);
                if shape.starts_with("symmetric") {
                    prop_assert!(own, "a symmetric list in (src, dst) order is its own transpose");
                }
            }
        }
    }

    #[test]
    fn parallel_sort_matches_serial(el in arb_weighted_graph()) {
        let g = Csr::from_edge_list(&el);
        let mut ser = g.clone();
        ser.sort_adjacency();
        for nthreads in THREADS {
            let pool = ThreadPool::new(nthreads);
            let mut par = g.clone();
            par.sort_adjacency_parallel(&pool);
            prop_assert_eq!(&par, &ser, "nthreads={}", nthreads);
        }
    }
}

// ---- DCSC and deduplication against their stated rules ------------------

/// Pool sizes for the structures with a rule to keep; byte-identity of the
/// kernels underneath is swept to 8 above.
const RULE_THREADS: [usize; 3] = [1, 2, 4];

/// The documented DCSC: entry `(dst, src)`, a duplicate edge keeping the
/// value inserted last, columns and rows ascending, empty columns absent.
fn dcsc_by_rule(el: &EdgeList) -> Dcsc {
    let mut last: BTreeMap<(VertexId, VertexId), Weight> = BTreeMap::new();
    for (u, v, w) in el.iter() {
        last.insert((u, v), w);
    }
    dcsc_of_sorted(el.num_vertices, last.into_iter().map(|((u, v), w)| (u, v, w)))
}

/// Lays `(src, dst, value)` triples, ascending and distinct, out as DCSC.
fn dcsc_of_sorted(dim: usize, triples: impl Iterator<Item = (VertexId, VertexId, Weight)>) -> Dcsc {
    let mut m = Dcsc { dim, col_ids: vec![], col_ptr: vec![0], row_ids: vec![], values: vec![] };
    for (u, v, w) in triples {
        if m.col_ids.last() != Some(&u) {
            m.col_ids.push(u);
            m.col_ptr.push(m.row_ids.len());
        }
        m.row_ids.push(v);
        m.values.push(w);
        *m.col_ptr.last_mut().unwrap() = m.row_ids.len();
    }
    m
}

/// The builder `Dcsc::from_edge_list` replaced: an unstable sort of whole
/// triples, so which of two duplicates survives is arbitrary.
fn dcsc_by_sort(el: &EdgeList) -> Dcsc {
    let mut triples: Vec<(VertexId, VertexId, Weight)> = el.iter().collect();
    triples.sort_unstable_by_key(|&(u, v, _)| (u, v));
    triples.dedup_by_key(|&mut (u, v, _)| (u, v));
    dcsc_of_sorted(el.num_vertices, triples.into_iter())
}

/// The documented deduplication: no self-loops, edges ascending, a
/// duplicate keeping the weight inserted first.
fn dedup_by_rule(el: &EdgeList) -> EdgeList {
    let mut first: BTreeMap<(VertexId, VertexId), Weight> = BTreeMap::new();
    for (u, v, w) in el.iter().filter(|&(u, v, _)| u != v) {
        first.entry((u, v)).or_insert(w);
    }
    EdgeList {
        num_vertices: el.num_vertices,
        edges: first.keys().copied().collect(),
        weights: el.weights.as_ref().map(|_| first.values().copied().collect()),
        own_transpose: false,
    }
}

/// `el` declared its own transpose, as `undirected()` declares its output.
fn declared(el: EdgeList) -> EdgeList {
    EdgeList { own_transpose: true, ..el }
}

/// The `deduplicated` this suite's subject replaced: an unstable sort of a
/// permutation, so a duplicate's surviving weight is arbitrary.
fn dedup_by_sort(el: &EdgeList) -> EdgeList {
    let mut order: Vec<u32> = (0..el.edges.len() as u32).collect();
    order.sort_unstable_by_key(|&i| el.edges[i as usize]);
    order.retain(|&i| el.edges[i as usize].0 != el.edges[i as usize].1);
    order.dedup_by_key(|i| el.edges[*i as usize]);
    EdgeList {
        num_vertices: el.num_vertices,
        edges: order.iter().map(|&i| el.edges[i as usize]).collect(),
        weights: el.weights.as_ref().map(|ws| order.iter().map(|&i| ws[i as usize]).collect()),
        own_transpose: false,
    }
}

/// True if no two copies of an edge carry different weights — the inputs
/// on which the sort-based builders had one possible answer.
fn duplicates_agree(el: &EdgeList) -> bool {
    let mut seen: BTreeMap<(VertexId, VertexId), u32> = BTreeMap::new();
    el.iter().all(|(u, v, w)| *seen.entry((u, v)).or_insert(w.to_bits()) == w.to_bits())
}

/// Equal matrices, values compared by bit pattern.
fn same_bits(a: &Dcsc, b: &Dcsc) -> bool {
    let bits = |m: &Dcsc| m.values.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    (a.dim, &a.col_ids, &a.col_ptr, &a.row_ids) == (b.dim, &b.col_ids, &b.col_ptr, &b.row_ids)
        && bits(a) == bits(b)
}

fn check_dcsc(el: &EdgeList, shape: &str) {
    let want = dcsc_by_rule(el);
    let want_t = dcsc_by_rule(&EdgeList {
        num_vertices: el.num_vertices,
        edges: want.triples().map(|(r, c, _)| (r, c)).collect(),
        weights: Some(want.values.clone()),
        own_transpose: false,
    });
    for nthreads in RULE_THREADS {
        let pool = ThreadPool::new(nthreads);
        let ctx = format!("shape={shape} nthreads={nthreads}");
        let got = Dcsc::from_edge_list(el, &pool);
        assert_eq!(got, want, "from_edge_list: {ctx}");
        let got_t = got.transpose(&pool);
        assert_eq!(got_t, want_t, "transpose: {ctx}");
        // Scattering from the matrix's own arrays gives what grouping its
        // reversed nonzeros into a CSR gives.
        let (edges, weights) = got.triples().map(|(r, c, w)| ((r, c), w)).unzip();
        let via_csr = Csr::from_edge_list(&EdgeList::weighted(got.dim, edges, weights));
        let via_csr = Dcsc::from_edge_list(&via_csr.to_edge_list(), &pool);
        assert_eq!(got_t, via_csr, "transpose via CSR: {ctx}");
        assert_eq!(got_t.transpose(&pool), want, "transpose twice: {ctx}");
        if duplicates_agree(el) {
            assert_eq!(got, dcsc_by_sort(el), "the sort-based builder: {ctx}");
        }
    }
}

fn check_dedup(el: &EdgeList, shape: &str) {
    let got = el.deduplicated();
    assert_eq!(got, dedup_by_rule(el), "deduplicated: shape={shape}");
    if duplicates_agree(el) {
        assert_eq!(got, dedup_by_sort(el), "the sort-based dedup: shape={shape}");
    }
    assert_eq!(got.deduplicated(), got, "deduplicated twice: shape={shape}");
    // The undirected closure is the same rule applied to the doubled list.
    let want = declared(dedup_by_rule(&got.symmetrized()));
    assert_eq!(got.undirected(), want, "undirected: shape={shape}");
}

#[test]
fn dcsc_and_dedup_on_the_edge_shapes() {
    for (shape, el) in [
        ("zero-vertex", EdgeList::new(0, vec![])),
        ("zero-edge", EdgeList::weighted(64, vec![], vec![])),
        ("self-loops", weighted_from((0..300u32).map(|i| (i % 7, i % 7)).collect(), 7)),
        // Columns 1..4 and 6.. empty, the tail of the id space isolated.
        ("empty-columns", weighted_from(vec![(5, 0), (0, 5), (5, 2), (0, 5), (5, 0)], 4096)),
        (
            "one-duplicate-last",
            EdgeList::weighted(3, vec![(0, 1), (1, 2), (1, 2)], vec![1., 2., 3.]),
        ),
        ("both-directions", EdgeList::weighted(3, vec![(2, 0), (0, 2), (0, 2)], vec![1., 2., 3.])),
    ] {
        check_dcsc(&el, shape);
        check_dcsc(&el.unweighted(), shape);
        check_dedup(&el, shape);
        check_dedup(&el.unweighted(), shape);
    }
}

#[test]
fn unweighted_dedup_is_what_the_sort_gave_at_scale() {
    // An R-MAT draw (scale 10, 16 edges a vertex; the generator crate sits
    // above this one, and `dataset.rs` runs the same check on its graphs)
    // and a 32 x 32 grid listed in both directions, twice.
    let mut state = 7u64;
    let mut bit = |p_one: u32| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as u32 % 100 < p_one) as VertexId
    };
    let rmat = (0..16 << 10)
        .map(|_| (0..10).fold((0, 0), |(u, v), _| (u << 1 | bit(24), v << 1 | bit(43))))
        .collect();
    let at = |x: VertexId, y: VertexId| 32 * y + x;
    let grid: Vec<_> = (0..32)
        .flat_map(|y| {
            (0..31).flat_map(move |x| [(at(x, y), at(x + 1, y)), (at(y, x), at(y, x + 1))])
        })
        .flat_map(|(a, b)| [(a, b), (b, a), (a, b)])
        .collect();
    for (shape, raw) in
        [("rmat", EdgeList::new(1 << 10, rmat)), ("grid", EdgeList::new(1 << 10, grid))]
    {
        let simple = raw.deduplicated();
        assert!(simple.num_edges() < raw.num_edges(), "{shape} has duplicates");
        assert_eq!(simple, dedup_by_sort(&raw), "{shape}");
        assert_eq!(simple.undirected(), declared(dedup_by_sort(&simple.symmetrized())), "{shape}");
        check_dcsc(&simple.undirected(), shape);
        // The homogenizer's undirected CSR and DCSC are their own
        // transposes; the directed ones exactly when their transposes say so.
        let (und, dir) = (Csr::from_edge_list(&simple.undirected()), Csr::from_edge_list(&simple));
        for nthreads in 1..=3 {
            let pool = ThreadPool::new(nthreads);
            assert!(und.is_own_transpose(&pool), "{shape} undirected, {nthreads} threads");
            let equal = dir.transpose_parallel(&pool) == dir;
            assert_eq!(dir.is_own_transpose(&pool), equal, "{shape} directed, {nthreads} threads");
            let und = Dcsc::from_edge_list(&simple.undirected(), &pool);
            assert!(und.is_own_transpose(&pool), "{shape} undirected DCSC, {nthreads} threads");
            let dir = Dcsc::from_edge_list(&simple, &pool);
            let equal = same_bits(&dir.transpose(&pool), &dir);
            let ctx = format!("{shape} directed DCSC, {nthreads} threads");
            assert_eq!(dir.is_own_transpose(&pool), equal, "{ctx}");
        }
    }
}

/// Multigraphs on few vertices of a larger id space: parallel edges with
/// differing weights, self-loops, empty columns and an isolated tail.
fn arb_multigraph() -> impl Strategy<Value = EdgeList> {
    (1usize..=12, 0usize..=20).prop_flat_map(|(used, tail)| {
        let id = 0..used as VertexId;
        proptest::collection::vec(((id.clone(), id), 0u8..4), 0..120).prop_map(move |ews| {
            let (edges, weights): (Vec<_>, Vec<_>) =
                ews.into_iter().map(|(e, w)| (e, w as Weight + 0.5)).unzip();
            EdgeList::weighted(used + tail, edges, weights)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dcsc_keeps_the_last_duplicate(el in arb_multigraph()) {
        check_dcsc(&el, "multigraph");
        check_dcsc(&el.unweighted(), "multigraph-unweighted");
    }

    #[test]
    fn dcsc_own_transpose_check_is_transpose_equality((el, shape) in arb_near_symmetric()) {
        for (el, ids) in as_drawn_and_spread(&el) {
            for nthreads in 1..=3 {
                let pool = ThreadPool::new(nthreads);
                let m = Dcsc::from_edge_list(&el, &pool);
                let own = m.is_own_transpose(&pool);
                let equal = same_bits(&m.transpose(&pool), &m);
                prop_assert_eq!(own, equal, "shape={} ids={} nthreads={}", shape, ids, nthreads);
                if shape.starts_with("symmetric") {
                    // Of parallel copies the last is kept, and in a
                    // symmetric list sorted by (src, dst) the last copy of
                    // an edge and of its reverse carry one weight.
                    prop_assert!(own, "a symmetric list in (src, dst) order is its own transpose");
                }
            }
        }
    }

    #[test]
    fn dedup_keeps_the_first_duplicate(el in arb_multigraph()) {
        check_dedup(&el, "multigraph");
        check_dedup(&el.unweighted(), "multigraph-unweighted");
    }
}

/// Raw lists for homogenization: self-loops, parallel edges of unequal
/// weights and both orientations of a pair with different weights on up
/// to 16 drawn ids, as drawn or spread over three times the ids (`v` to
/// `3v + 1`: isolated vertices at 0, between every two drawn ids and in
/// the tail), or replaced by what `deduplicated` makes of them — a simple
/// ascending list, the fast path. `n = 0` draws no edges; so does an
/// empty draw on any `n`.
fn arb_homogenization_input() -> impl Strategy<Value = (EdgeList, &'static str)> {
    let draw = proptest::collection::vec(((0..16 as VertexId, 0..16 as VertexId), 0u8..4), 0..80);
    (0usize..=16, draw, 0usize..3).prop_map(|(n, ews, variant)| {
        let ews = if n == 0 { vec![] } else { ews };
        let (edges, weights) = ews
            .into_iter()
            .map(|((u, v), w)| ((u % n as VertexId, v % n as VertexId), w as Weight + 0.5))
            .unzip();
        let el = EdgeList::weighted(n, edges, weights);
        match variant {
            0 => (el, "drawn"),
            1 => (
                EdgeList {
                    num_vertices: 3 * n + 2,
                    edges: el.edges.iter().map(|&(u, v)| (3 * u + 1, 3 * v + 1)).collect(),
                    weights: el.weights,
                    own_transpose: false,
                },
                "spread",
            ),
            _ => (dedup_by_rule(&el), "simple"),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pooled_homogenization_is_the_serial_one((el, shape) in arb_homogenization_input()) {
        for el in [el.clone(), el.unweighted()] {
            let simple = el.deduplicated();
            prop_assert_eq!(&simple, &dedup_by_rule(&el), "shape={}", shape);
            let undirected = simple.undirected();
            let want = declared(dedup_by_rule(&simple.symmetrized()));
            prop_assert_eq!(&undirected, &want, "shape={}", shape);
            let degrees = undirected.total_degrees();
            for nthreads in 1..=3 {
                let pool = ThreadPool::new(nthreads);
                let ctx = format!("shape={shape} weighted={} nthreads={nthreads}", el.is_weighted());
                prop_assert_eq!(&el.deduplicated_on(Some(&pool)), &simple, "{}", ctx);
                let (pooled, pooled_degrees) = simple.undirected_with_degrees(Some(&pool));
                prop_assert_eq!(&pooled, &undirected, "{}", ctx);
                prop_assert_eq!(&pooled_degrees, &degrees, "{}", ctx);
            }
            prop_assert_eq!(simple.undirected_with_degrees(None), (undirected, degrees));
        }
    }
}
