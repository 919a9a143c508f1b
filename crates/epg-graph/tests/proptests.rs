#![allow(clippy::needless_range_loop)]

//! Property-based tests for the graph substrate.

use epg_graph::{csr::Csr, dcsc::Dcsc, degree, oracle, snap, validate, EdgeList, VertexId};
use proptest::prelude::*;

/// Strategy: an arbitrary directed graph as (n, edges) with n in 1..=40.
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (1usize..=40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..200)
            .prop_map(move |edges| EdgeList::new(n, edges))
    })
}

/// Strategy: weighted graph with positive finite weights.
fn arb_weighted_graph() -> impl Strategy<Value = EdgeList> {
    (1usize..=30).prop_flat_map(|n| {
        proptest::collection::vec(((0..n as VertexId, 0..n as VertexId), 0.01f32..10.0), 0..150)
            .prop_map(move |ews| {
                let (edges, weights): (Vec<_>, Vec<_>) = ews.into_iter().unzip();
                EdgeList::weighted(n, edges, weights)
            })
    })
}

fn edge_multiset(el: &EdgeList) -> Vec<(VertexId, VertexId, u32)> {
    let mut v: Vec<_> = el.iter().map(|(u, w, x)| (u, w, x.to_bits())).collect();
    v.sort_unstable();
    v
}

proptest! {
    #[test]
    fn csr_roundtrip_preserves_edges(el in arb_weighted_graph()) {
        let g = Csr::from_edge_list(&el);
        prop_assert_eq!(edge_multiset(&g.to_edge_list()), edge_multiset(&el));
    }

    #[test]
    fn csr_degrees_sum_to_edge_count(el in arb_graph()) {
        let g = Csr::from_edge_list(&el);
        let total: usize = (0..g.num_vertices() as VertexId).map(|v| g.out_degree(v)).sum();
        prop_assert_eq!(total, el.num_edges());
    }

    #[test]
    fn neighbors_weighted_zips_each_row_with_its_weights(
        el in prop_oneof![arb_graph(), arb_weighted_graph()],
    ) {
        let g = Csr::from_edge_list(&el);
        for v in 0..g.num_vertices() as VertexId {
            let row = g.offsets[v as usize]..g.offsets[v as usize + 1];
            let targets = g.neighbors(v).iter().copied();
            let want: Vec<(VertexId, u32)> = match &g.weights {
                Some(ws) => targets.zip(ws[row].iter().map(|w| w.to_bits())).collect(),
                None => targets.map(|u| (u, 1f32.to_bits())).collect(),
            };
            let got: Vec<(VertexId, u32)> =
                g.neighbors_weighted(v).map(|(u, w)| (u, w.to_bits())).collect();
            prop_assert_eq!(got, want, "vertex {}", v);
        }
    }

    #[test]
    fn transpose_is_involution(el in arb_weighted_graph()) {
        let g = Csr::from_edge_list(&el);
        let mut tt = g.transpose().transpose();
        let mut gg = g.clone();
        tt.sort_adjacency();
        gg.sort_adjacency();
        prop_assert_eq!(tt, gg);
    }

    #[test]
    fn dcsc_matches_csr_after_dedup(el in arb_weighted_graph()) {
        let m = Dcsc::from_edge_list(&el, &epg_parallel::ThreadPool::new(2));
        // DCSC dedups (r,c); compare against deduped set of (src,dst).
        let mut expect: Vec<(VertexId, VertexId)> = el.edges.clone();
        expect.sort_unstable();
        expect.dedup();
        let mut got: Vec<(VertexId, VertexId)> =
            m.triples().map(|(r, c, _)| (c, r)).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn symmetrized_total_degree_even_without_loops(el in arb_graph()) {
        let sym = el.deduplicated().symmetrized();
        let g = Csr::from_edge_list(&sym);
        // In a symmetric loop-free graph, in-degree == out-degree everywhere.
        let t = g.transpose();
        for v in 0..g.num_vertices() as VertexId {
            prop_assert_eq!(g.out_degree(v), t.out_degree(v));
        }
    }

    #[test]
    fn snap_text_roundtrip(el in arb_weighted_graph()) {
        let mut buf = Vec::new();
        snap::write_snap(&el, "prop", &mut buf).unwrap();
        let back = snap::parse_snap(buf.as_slice()).unwrap();
        prop_assert_eq!(back.edges.clone(), el.edges.clone());
        // Weights survive text round-trip exactly (Rust prints the shortest
        // representation that reparses to the same f32). An empty file has
        // no data lines, so weightedness cannot be recovered.
        if el.num_edges() == 0 {
            prop_assert_eq!(back.weights, None);
        } else {
            prop_assert_eq!(back.weights, el.weights);
        }
    }

    #[test]
    fn binary_roundtrip(el in arb_weighted_graph()) {
        let mut buf = Vec::new();
        snap::write_binary(&el, &mut buf).unwrap();
        let back = snap::read_binary(buf.as_slice()).unwrap();
        prop_assert_eq!(back, el);
    }

    #[test]
    fn oracle_bfs_tree_always_validates(el in arb_graph()) {
        let sym = el.deduplicated().symmetrized();
        if sym.num_edges() == 0 { return Ok(()); }
        let g = Csr::from_edge_list(&sym);
        let root = sym.edges[0].0;
        let r = oracle::bfs(&g, root);
        prop_assert!(validate::validate_bfs_tree(&g, root, &r.parent).is_ok());
    }

    #[test]
    fn oracle_dijkstra_always_validates(el in arb_weighted_graph()) {
        let sym = el.symmetrized();
        if sym.num_edges() == 0 { return Ok(()); }
        let g = Csr::from_edge_list(&sym);
        let root = sym.edges[0].0;
        let d = oracle::dijkstra(&g, root);
        prop_assert!(validate::validate_sssp_distances(&g, root, &d).is_ok());
    }

    #[test]
    fn bfs_levels_lower_bound_dijkstra_hops(el in arb_graph()) {
        // On unit weights, dijkstra == bfs levels.
        let sym = el.deduplicated().symmetrized();
        if sym.num_edges() == 0 { return Ok(()); }
        let g = Csr::from_edge_list(&sym);
        let root = sym.edges[0].0;
        let b = oracle::bfs(&g, root);
        let d = oracle::dijkstra(&g, root);
        for v in 0..g.num_vertices() {
            if b.level[v] != u32::MAX {
                prop_assert!((d[v] - b.level[v] as f32).abs() < 1e-3);
            } else {
                prop_assert!(d[v].is_infinite());
            }
        }
    }

    #[test]
    fn wcc_is_a_partition_refinable_by_edges(el in arb_graph()) {
        let g = Csr::from_edge_list(&el);
        let comp = oracle::wcc(&g);
        for &(u, v) in &el.edges {
            prop_assert_eq!(comp[u as usize], comp[v as usize]);
        }
        // Component id is min member.
        for (v, &c) in comp.iter().enumerate() {
            prop_assert!(c as usize <= v);
        }
    }

    #[test]
    fn pagerank_is_a_distribution(el in arb_graph()) {
        let g = Csr::from_edge_list(&el);
        let (pr, _) = oracle::pagerank(&g, 1e-9, 300);
        let sum: f64 = pr.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {}", sum);
        prop_assert!(pr.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn lcc_in_unit_interval(el in arb_graph()) {
        let g = Csr::from_edge_list(&el.deduplicated());
        for c in oracle::lcc(&g) {
            prop_assert!((0.0..=1.0).contains(&c), "lcc = {}", c);
        }
    }

    #[test]
    fn sampled_roots_qualify(el in arb_graph(), seed in 0u64..1000) {
        let roots = degree::sample_roots(&el, 8, seed);
        let deg = el.total_degrees();
        for r in roots {
            prop_assert!(deg[r as usize] > 1);
        }
    }
}

/// Strategy: one SNAP-ish line drawn from a grab-bag of valid edges,
/// truncated lines, non-numeric ids, oversized ids, comments, and
/// arbitrary printable soup.
fn arb_snap_line() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("0 1".to_string()),
        Just("2\t3\t0.5".to_string()),
        Just("7".to_string()),                      // truncated: missing dst
        Just("a b".to_string()),                    // non-numeric ids
        Just("4294967295 0".to_string()),           // id == VertexId::MAX (reserved)
        Just("18446744073709551616 0".to_string()), // overflows u64
        Just("# comment mid-file".to_string()),
        Just("   ".to_string()),
        Just("0 1 2 3".to_string()),   // too many columns
        Just("5 6 heavy".to_string()), // unparseable weight
        "[ -~]{0,16}",
    ]
}

/// Strategy: a whole input assembled from grab-bag lines with mixed LF /
/// CRLF / missing terminators.
fn arb_snap_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec((arb_snap_line(), 0u8..3), 0..24).prop_map(|lines| {
        let mut text = String::new();
        for (line, ending) in lines {
            text.push_str(&line);
            match ending {
                0 => text.push('\n'),
                1 => text.push_str("\r\n"),
                _ => {} // run-on: no terminator, fuses with the next line
            }
        }
        text
    })
}

proptest! {
    #[test]
    fn snap_parser_never_panics_on_line_soup(text in arb_snap_soup()) {
        // Any Ok/Err outcome is acceptable; a panic is not. On success the
        // parsed list must be internally consistent.
        if let Ok(el) = snap::parse_snap(text.as_bytes()) {
            if let Some(w) = &el.weights {
                prop_assert_eq!(w.len(), el.edges.len());
            }
            for &(u, v) in &el.edges {
                prop_assert!((u as usize) < el.num_vertices);
                prop_assert!((v as usize) < el.num_vertices);
            }
        }
    }

    #[test]
    fn snap_parser_never_panics_on_printable_soup(text in "[ -~\r\n\t]{0,400}") {
        let _ = snap::parse_snap(text.as_bytes());
    }

    #[test]
    fn malformed_line_is_reported_by_number(good in 0usize..12, crlf in 0u8..2) {
        // `good` valid data lines after a header, then one bad line: the
        // error must carry the bad line's 1-based number regardless of
        // line-ending style.
        let newline = if crlf == 1 { "\r\n" } else { "\n" };
        let mut text = format!("# header{newline}");
        for i in 0..good {
            let _ = std::fmt::Write::write_fmt(
                &mut text,
                format_args!("{} {}{}", i, i + 1, newline),
            );
        }
        text.push_str("not numbers");
        match snap::parse_snap(text.as_bytes()) {
            Err(snap::ParseError::Malformed { line, .. }) => prop_assert_eq!(line, good + 2),
            _ => prop_assert!(false, "expected a Malformed error with a line number"),
        }
    }

    #[test]
    fn oversized_ids_are_rejected_not_truncated(id in (VertexId::MAX as u64)..u64::MAX) {
        // VertexId::MAX is reserved as a sentinel; anything at or above it
        // must be a clean parse error, never a silent wrap to a small id.
        let text = format!("{id} 0\n");
        prop_assert!(snap::parse_snap(text.as_bytes()).is_err());
    }

    #[test]
    fn crlf_line_endings_parse_like_lf(el in arb_weighted_graph()) {
        let mut buf = Vec::new();
        snap::write_snap(&el, "crlf", &mut buf).unwrap();
        let lf_text = String::from_utf8(buf).unwrap();
        let crlf_text = lf_text.replace('\n', "\r\n");
        let lf = snap::parse_snap(lf_text.as_bytes()).unwrap();
        let crlf = snap::parse_snap(crlf_text.as_bytes()).unwrap();
        prop_assert_eq!(crlf, lf);
    }

    #[test]
    fn comments_and_blanks_are_transparent(el in arb_graph(), every in 1usize..4) {
        // Interleaving comments and blank lines between data lines never
        // changes the parsed graph.
        let mut buf = Vec::new();
        snap::write_snap(&el, "plain", &mut buf).unwrap();
        let plain = snap::parse_snap(buf.as_slice()).unwrap();
        let mut noisy = String::new();
        for (i, line) in String::from_utf8(buf).unwrap().lines().enumerate() {
            if i % every == 0 {
                noisy.push_str("# interleaved comment\n\n");
            }
            noisy.push_str(line);
            noisy.push('\n');
        }
        let parsed = snap::parse_snap(noisy.as_bytes()).unwrap();
        prop_assert_eq!(parsed, plain);
    }
}

// ---------------------------------------------------------------------------
// Parallel ingest parity: the chunked zero-copy parser, parallel CSR
// phases, and block generators must agree with their serial oracles for
// every input and every chunk/thread count. In a debug build the unsafe
// disjoint writes are also dynamically race-checked here.
// ---------------------------------------------------------------------------

use epg_graph::ingest;
use epg_parallel::ThreadPool;

/// Serial and chunked parse must agree: same edge multiset and vertex
/// count on success, identical `Malformed { line, reason }` on failure.
/// (The soup strategies are printable ASCII, so the documented UTF-8
/// `Io`-vs-`Malformed` divergence cannot trigger here.)
fn assert_parse_parity(text: &str, pool: &ThreadPool, nchunks: usize) -> Result<(), TestCaseError> {
    let serial = snap::parse_snap(text.as_bytes());
    let chunked = ingest::parse_snap_chunked(text.as_bytes(), pool, nchunks);
    match (serial, chunked) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.num_vertices, b.num_vertices);
            prop_assert_eq!(edge_multiset(&a), edge_multiset(&b));
        }
        (
            Err(snap::ParseError::Malformed { line: l1, reason: r1 }),
            Err(snap::ParseError::Malformed { line: l2, reason: r2 }),
        ) => {
            prop_assert_eq!(l1, l2, "line mismatch: {} vs {}", r1, r2);
            prop_assert_eq!(r1, r2);
        }
        (a, b) => prop_assert!(false, "outcome class diverged: {:?} vs {:?}", a, b),
    }
    Ok(())
}

/// Strategy: the bits of an arbitrary `f32` — any pattern at all, or one
/// of the moderate magnitudes generated weights take.
fn arb_f32_bits() -> impl Strategy<Value = u32> {
    prop_oneof![
        0..=u32::MAX,
        (0.0f32..1.0).prop_map(f32::to_bits),
        (1.0f32..1e9).prop_map(f32::to_bits),
        (0u32..1 << 25).prop_map(|i| (i as f32).to_bits()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_parse_matches_serial_on_soup(
        text in arb_snap_soup(),
        threads in 1usize..=4,
        nchunks in 1usize..=6,
    ) {
        let pool = ThreadPool::new(threads);
        assert_parse_parity(&text, &pool, nchunks)?;
    }

    #[test]
    fn error_line_numbers_are_physical_lines(
        good in 0usize..8,
        noise_every in 1usize..4,
        threads in 1usize..=4,
    ) {
        // Valid data lines interleaved with comments and blanks, then a
        // bad line: the reported number must be the bad line's *physical*
        // position in the file — for the serial oracle AND every chunking
        // of the parallel parser.
        let mut text = String::new();
        let mut physical = 0usize;
        for i in 0..good {
            if i % noise_every == 0 {
                text.push_str("# interleaved comment\n\n");
                physical += 2;
            }
            let _ = std::fmt::Write::write_fmt(
                &mut text,
                format_args!("{} {}\n", i, i + 1),
            );
            physical += 1;
        }
        text.push_str("# trailing comment\n\n");
        text.push_str("not numbers\n");
        let want = physical + 3;
        match snap::parse_snap(text.as_bytes()) {
            Err(snap::ParseError::Malformed { line, .. }) => prop_assert_eq!(line, want),
            other => prop_assert!(false, "serial: expected Malformed, got {:?}", other),
        }
        let pool = ThreadPool::new(threads);
        for nchunks in 1..=5 {
            match ingest::parse_snap_chunked(text.as_bytes(), &pool, nchunks) {
                Err(snap::ParseError::Malformed { line, .. }) => prop_assert_eq!(line, want),
                other => prop_assert!(
                    false, "parallel ({} chunks): expected Malformed, got {:?}", nchunks, other
                ),
            }
        }
    }

    #[test]
    fn parallel_parse_matches_serial_on_any_f32_weight(
        ews in proptest::collection::vec(((0..50 as VertexId, 0..50 as VertexId), arb_f32_bits()), 1..120),
    ) {
        // Whatever `{}` prints for an f32 — subnormals, huge, negative,
        // NaN, infinities — the scanner's fast path or its std fallback
        // reads back the serial parser's bits, in the serial order.
        let (edges, weights): (Vec<_>, Vec<u32>) = ews.into_iter().unzip();
        let el = EdgeList::weighted(50, edges, weights.into_iter().map(f32::from_bits).collect());
        let mut text = Vec::new();
        snap::write_snap(&el, "w", &mut text).unwrap();
        let serial = snap::parse_snap(text.as_slice()).unwrap();
        let bits = |g: &EdgeList| -> Vec<u32> {
            g.weights.as_ref().unwrap().iter().map(|w| w.to_bits()).collect()
        };
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            for nchunks in [1, 2, 3, 7] {
                let par = ingest::parse_snap_chunked(&text, &pool, nchunks).unwrap();
                prop_assert_eq!(&par.edges, &serial.edges);
                prop_assert_eq!(bits(&par), bits(&serial));
                prop_assert_eq!(par.num_vertices, serial.num_vertices);
            }
        }
        // Display round-trips, so the bits are the written ones too (NaN
        // reads back as the one NaN std parses).
        for (w, back) in el.weights.as_ref().unwrap().iter().zip(serial.weights.unwrap()) {
            prop_assert!(w.to_bits() == back.to_bits() || (w.is_nan() && back.is_nan()));
        }
    }

    #[test]
    fn parallel_csr_phases_match_serial(
        el in arb_weighted_graph(),
        threads in 1usize..=4,
    ) {
        let pool = ThreadPool::new(threads);
        let g = Csr::from_edge_list(&el);

        // Build: same graph after canonical adjacency ordering.
        let mut pb = Csr::from_edge_list_parallel(&el, &pool);
        let mut sb = g.clone();
        pb.sort_adjacency_parallel(&pool);
        sb.sort_adjacency();
        prop_assert_eq!(&pb, &sb);

        // Transpose: parallel and serial agree after sorting.
        let mut pt = g.transpose_parallel(&pool);
        let mut st = g.transpose();
        pt.sort_adjacency_parallel(&pool);
        st.sort_adjacency();
        prop_assert_eq!(pt, st);
    }

    #[test]
    fn parallel_binary_codec_matches_serial(
        el in arb_weighted_graph(),
        threads in 1usize..=4,
    ) {
        let pool = ThreadPool::new(threads);
        let mut serial_bytes = Vec::new();
        snap::write_binary(&el, &mut serial_bytes).unwrap();
        // Byte-identical encode; decode parity both ways.
        prop_assert_eq!(&ingest::encode_binary_parallel(&el, &pool), &serial_bytes);
        prop_assert_eq!(&ingest::decode_binary_parallel(&serial_bytes, &pool).unwrap(), &el);
        prop_assert_eq!(&snap::read_binary(serial_bytes.as_slice()).unwrap(), &el);
    }
}

proptest! {
    #[test]
    fn betweenness_is_nonnegative_and_zero_on_leaves(el in arb_graph()) {
        let sym = el.deduplicated().symmetrized();
        let g = Csr::from_edge_list(&sym);
        let bc = oracle::betweenness(&g, 0..g.num_vertices() as VertexId);
        let deg = sym.total_degrees();
        for (v, &score) in bc.iter().enumerate() {
            prop_assert!(score >= 0.0);
            // A vertex of (symmetric) degree <= 1 lies on no shortest path
            // between two *other* vertices.
            if deg[v] <= 2 && g.out_degree(v as VertexId) <= 1 {
                prop_assert_eq!(score, 0.0, "leaf {} has bc {}", v, score);
            }
        }
    }

    #[test]
    fn triangle_count_invariant_under_edge_permutation(el in arb_graph(), seed in 0u64..100) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let base = oracle::triangle_count(&Csr::from_edge_list(&el));
        let mut shuffled = el.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        shuffled.edges.shuffle(&mut rng);
        prop_assert_eq!(base, oracle::triangle_count(&Csr::from_edge_list(&shuffled)));
        // Symmetrizing (no new undirected edges) keeps the count too.
        prop_assert_eq!(
            base,
            oracle::triangle_count(&Csr::from_edge_list(&el.symmetrized()))
        );
    }

    #[test]
    fn triangle_count_monotone_in_edges(el in arb_graph()) {
        // Removing edges can only remove triangles.
        if el.num_edges() < 2 { return Ok(()); }
        let full = oracle::triangle_count(&Csr::from_edge_list(&el));
        let mut half = el.clone();
        half.edges.truncate(el.num_edges() / 2);
        let fewer = oracle::triangle_count(&Csr::from_edge_list(&half));
        prop_assert!(fewer <= full, "{} > {}", fewer, full);
    }
}

// ---------------------------------------------------------------------------
// BFS-tree validation: the linear-time validator and its pool driver must
// return the verdict of the quadratic validator they replaced — same
// variant, same vertex — for every tree, sound or corrupted.
// ---------------------------------------------------------------------------

use epg_graph::validate::ValidationError;
use epg_graph::NO_VERTEX;

/// The validator as it stood before the linear-time rewrite (a neighbour
/// list search per tree edge, three serial passes), kept as the reference.
/// Its one edit is the root range check, which the rewrite added: the
/// original indexed `parent[root]` unchecked.
fn reference_validate_bfs_tree(
    g: &Csr,
    root: VertexId,
    parent: &[VertexId],
) -> Result<(), ValidationError> {
    let n = g.num_vertices();
    assert_eq!(parent.len(), n, "parent array length mismatch");
    if root as usize >= n {
        return Err(ValidationError::BadRoot);
    }
    if parent[root as usize] != root && parent[root as usize] != NO_VERTEX {
        return Err(ValidationError::BadRoot);
    }

    let mut level = vec![u32::MAX; n];
    level[root as usize] = 0;
    for v0 in 0..n as VertexId {
        if parent[v0 as usize] == NO_VERTEX || level[v0 as usize] != u32::MAX {
            continue;
        }
        let mut path = vec![v0];
        let mut v = v0;
        loop {
            let p = parent[v as usize];
            if p == NO_VERTEX || p as usize >= n {
                return Err(ValidationError::BrokenTree { vertex: v });
            }
            if level[p as usize] != u32::MAX {
                break;
            }
            if path.len() > n {
                return Err(ValidationError::BrokenTree { vertex: v0 });
            }
            path.push(p);
            v = p;
        }
        let mut l = level[parent[v as usize] as usize];
        for &u in path.iter().rev() {
            l += 1;
            level[u as usize] = l;
        }
    }

    for v in 0..n as VertexId {
        let p = parent[v as usize];
        if p == NO_VERTEX || v == root {
            continue;
        }
        if !g.neighbors(p).contains(&v) {
            return Err(ValidationError::PhantomEdge { vertex: v, parent: p });
        }
        if level[v as usize] != level[p as usize] + 1 {
            return Err(ValidationError::LevelSkew { vertex: v });
        }
    }

    for u in 0..n as VertexId {
        for &v in g.neighbors(u) {
            let (lu, lv) = (level[u as usize], level[v as usize]);
            match (lu == u32::MAX, lv == u32::MAX) {
                (true, true) => {}
                (false, false) => {
                    if lu.abs_diff(lv) > 1 {
                        return Err(ValidationError::EdgeSpansLevels { src: u, dst: v });
                    }
                }
                _ => {
                    return Err(ValidationError::Unreached {
                        vertex: if lu == u32::MAX { u } else { v },
                    })
                }
            }
        }
    }
    Ok(())
}

/// One way to damage a parent array; `a` and `b` pick vertices modulo `n`.
#[derive(Clone, Copy, Debug)]
enum Corruption {
    Unreach(u32),
    Reparent(u32, u32),
    OutOfRange(u32, u32),
    TwoCycle(u32, u32),
    RootEntry(u32),
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    (0u8..5, 0u32..1000, 0u32..1000).prop_map(|(kind, a, b)| match kind {
        0 => Corruption::Unreach(a),
        1 => Corruption::Reparent(a, b),
        2 => Corruption::OutOfRange(a, b),
        3 => Corruption::TwoCycle(a, b),
        _ => Corruption::RootEntry(b),
    })
}

/// Strategy: a graph (directed or symmetrized, self-loops and multi-edges
/// kept), a root, and the oracle's BFS tree from it with 0-3 corruptions
/// applied. Half the graphs have 0..=40 vertices, where corruptions collide;
/// half have enough for the pool driver's guided schedule (64-vertex floor)
/// to split the edge scan into several ranges.
fn arb_validation_case() -> impl Strategy<Value = (Csr, VertexId, Vec<VertexId>)> {
    (
        prop_oneof![0usize..=40, 65usize..=400],
        proptest::collection::vec((0u32..1000, 0u32..1000), 0..1200),
        0u8..2,
        0u32..1000,
        proptest::collection::vec(arb_corruption(), 0..=3),
    )
        .prop_map(|(n, picks, symmetrize, root, corruptions)| {
            if n == 0 {
                return (Csr::from_edge_list(&EdgeList::new(0, Vec::new())), root, Vec::new());
            }
            let m = n as u32;
            let el = EdgeList::new(n, picks.into_iter().map(|(u, v)| (u % m, v % m)).collect());
            let g = Csr::from_edge_list(&if symmetrize == 1 { el.symmetrized() } else { el });
            let root = root % m;
            let mut parent = oracle::bfs(&g, root).parent;
            for c in corruptions {
                match c {
                    Corruption::Unreach(a) => parent[(a % m) as usize] = NO_VERTEX,
                    Corruption::Reparent(a, b) => parent[(a % m) as usize] = b % m,
                    Corruption::OutOfRange(a, b) => parent[(a % m) as usize] = m + b,
                    Corruption::TwoCycle(a, b) => {
                        parent[(a % m) as usize] = b % m;
                        parent[(b % m) as usize] = a % m;
                    }
                    Corruption::RootEntry(b) => parent[root as usize] = b % m,
                }
            }
            (g, root, parent)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn linear_validator_matches_the_quadratic_reference(case in arb_validation_case()) {
        let (g, root, parent) = case;
        let want = reference_validate_bfs_tree(&g, root, &parent);
        prop_assert_eq!(&validate::validate_bfs_tree(&g, root, &parent), &want);
        for threads in [1, 2, 3, 7] {
            let pool = ThreadPool::new(threads);
            prop_assert_eq!(
                &validate::validate_bfs_tree_parallel(&g, root, &parent, None, &pool),
                &want,
                "{} threads", threads
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Property graph builds: the bulk counting build and edge-at-a-time insertion
// place their list cells differently and must hold the same lists — every
// vertex's out- and in-edges in arrival order. (That each bulk-built list is
// one contiguous run is checked beside the private fields, in
// `adjacency::tests`.)
// ---------------------------------------------------------------------------

use epg_graph::adjacency::PropertyGraph;
use epg_graph::Weight;

/// Strategy: a weighted multigraph dense in duplicates and self-loops (at
/// most 12 connected vertices), with up to 3 isolated vertices on top;
/// `n = 0` and `m = 0` both occur.
fn arb_multigraph() -> impl Strategy<Value = EdgeList> {
    let raw_edges = proptest::collection::vec(((0u32..1000, 0u32..1000), 0.01f32..10.0), 0..120);
    (0u32..=12, 0usize..=3, raw_edges).prop_map(|(n, isolated, raw)| {
        let (edges, weights) = match n {
            0 => (Vec::new(), Vec::new()),
            _ => raw.into_iter().map(|((u, v), w)| ((u % n, v % n), w)).unzip(),
        };
        EdgeList::weighted(n as usize + isolated, edges, weights)
    })
}

/// `g` holds exactly `el`: per vertex, degrees and both list walks equal the
/// edge list filtered in arrival order, weights included.
fn assert_holds_lists_of(g: &PropertyGraph, el: &EdgeList) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.num_vertices(), el.num_vertices);
    prop_assert_eq!(g.num_edges(), el.num_edges());
    for x in 0..el.num_vertices as VertexId {
        let out: Vec<(VertexId, Weight)> =
            el.iter().filter(|&(u, _, _)| u == x).map(|(_, v, w)| (v, w)).collect();
        let inn: Vec<VertexId> = el.iter().filter(|&(_, v, _)| v == x).map(|(u, _, _)| u).collect();
        prop_assert_eq!(g.out_degree(x), out.len(), "out-degree of {}", x);
        prop_assert_eq!(g.in_degree(x), inn.len(), "in-degree of {}", x);
        prop_assert_eq!(g.neighbors(x).collect::<Vec<_>>(), out, "out-list of {}", x);
        prop_assert_eq!(g.in_neighbors(x).collect::<Vec<_>>(), inn, "in-list of {}", x);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn property_graph_bulk_build_holds_the_lists_in_arrival_order(el in arb_multigraph()) {
        assert_holds_lists_of(&PropertyGraph::from_edge_list(&el), &el)?;
    }

}
