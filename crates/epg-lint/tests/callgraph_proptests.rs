//! Property tests for the call-graph layer: `CallGraph::build` is a total
//! function on arbitrary line soup and every node span and edge call-line
//! it extracts is a well-formed 1-based location inside the file; the
//! call-graph rules never panic on generated input and anchor every
//! finding at an in-bounds line of a real file; no row reports one token
//! both where it sits and through a call site; and `find_cycle` agrees
//! with a naive O(V·E) reachability oracle on random digraphs.

use epg_lint::callgraph::{find_cycle, CallGraph};
use epg_lint::model::{CrateModel, FileModel, Workspace};
use epg_lint::scan::scan;
use epg_lint::Finding;
use proptest::prelude::*;

/// Rust-shaped fragments biased toward what the call-graph and locking
/// passes parse: fn items, struct lock fields, impl blocks, call sites
/// of every kind, guards, waits, notifies — plus torn delimiters.
fn fragment() -> impl Strategy<Value = String> {
    let ident = "[a-z_][a-z0-9_]{0,6}";
    prop_oneof![
        ident.prop_map(|n| format!("fn {n}(x: u32) -> u32 {{")),
        ident.prop_map(|n| format!("pub struct S{n} {{")),
        ident.prop_map(|n| format!("    {n}: Mutex<u32>,")),
        ident.prop_map(|n| format!("    {n}: Condvar,")),
        Just("}".to_string()),
        Just("impl Reg {".to_string()),
        ident.prop_map(|n| format!("    let g = self.{n}.lock();")),
        ident.prop_map(|n| format!("    self.{n}.wait(&mut g);")),
        ident.prop_map(|n| format!("    {n}(x);")),
        ident.prop_map(|n| format!("    self.{n}(x);")),
        ident.prop_map(|n| format!("    Reg::{n}(x);")),
        ident.prop_map(|n| format!("    engine.query({n});")),
        ident.prop_map(|n| format!("    let _ = {n}().unwrap();")),
        ident.prop_map(|n| format!("    let v: Vec<u32> = Vec::new(); {n}(v);")),
        Just("    let _ = std::fs::read(p);".to_string()),
        Just("    let t = std::time::Instant::now();".to_string()),
        Just("fn load_file(p: &str) {".to_string()),
        Just("    for x in xs {".to_string()),
        Just("    rec.iteration(0);".to_string()),
        Just("    if pool.is_cancelled() { break; }".to_string()),
        Just("    while x > 0 {".to_string()),
        Just("    drop(g);".to_string()),
        Just("    self.cv.notify_all();".to_string()),
        Just("    pool.parallel_for(n, s, |v| {".to_string()),
        Just("    });".to_string()),
        Just("    }".to_string()),
        Just("{{{".to_string()),
        Just("}}}".to_string()),
        Just("".to_string()),
    ]
}

/// Printable-ASCII soup: no structure guarantees at all.
fn soup_line() -> impl Strategy<Value = String> {
    "[ -~]{0,60}"
}

fn krate(name: &str, files: Vec<FileModel>) -> CrateModel {
    CrateModel {
        name: name.to_string(),
        dir: format!("crates/{name}"),
        manifest_path: format!("crates/{name}/Cargo.toml"),
        manifest_lines: Vec::new(),
        deps: Vec::new(),
        dev_deps: Vec::new(),
        files,
    }
}

/// Builds the graph and asserts every node and edge is well-formed:
/// spans 1-based and inside their file, edge targets in range, call
/// lines inside the caller's file.
fn assert_graph_well_formed(c: &CrateModel) {
    let g = CallGraph::build(c);
    assert_eq!(g.edges.len(), g.nodes.len());
    for n in &g.nodes {
        let len = c.files[n.file].lines.len().max(1);
        assert!(
            1 <= n.start && n.start <= n.end && n.end <= len,
            "node `{}` span ({}, {}) escapes file of {len} lines",
            n.name,
            n.start,
            n.end
        );
    }
    for (u, out) in g.edges.iter().enumerate() {
        for &(v, line) in out {
            assert!(v < g.nodes.len(), "edge target {v} out of range");
            assert_ne!(v, u, "self edge survived build");
            let len = c.files[g.nodes[u].file].lines.len().max(1);
            assert!(1 <= line && line <= len, "call line {line} outside caller file");
        }
    }
}

/// Runs every call-graph rule (the row table and locking) over generated
/// files in both a serving crate and an engine crate, and asserts every
/// finding anchors at an in-bounds 1-based line of a file that exists and
/// no row reports one token both where it sits and through a call site.
fn passes_never_panic_and_anchor_in_bounds(src: &str) {
    for name in ["epg-serve", "epg-engine-gap"] {
        let files = vec![
            FileModel::build(format!("crates/{name}/src/a.rs"), scan(src), false),
            FileModel::build(format!("crates/{name}/src/b.rs"), scan(src), false),
        ];
        let lens: Vec<(String, usize)> =
            files.iter().map(|f| (f.path.clone(), f.lines.len().max(1))).collect();
        let c = krate(name, files);
        assert_graph_well_formed(&c);
        let reports = epg_lint::callgraph::row_reports(&c);
        let here = |(f, file, line): &(Finding, String, usize)| f.file == *file && f.line == *line;
        for (f, file, line) in reports.iter().filter(|r| !here(r)) {
            let twice = reports
                .iter()
                .filter(|r| here(r))
                .any(|(g, gf, gl)| (g.rule, gf.as_str(), *gl) == (f.rule, file.as_str(), *line));
            assert!(!twice, "{file}:{line} is reported where it sits and through {f}");
        }
        let ws = Workspace { crates: vec![c], loose: Vec::new() };
        let mut out = Vec::new();
        epg_lint::callgraph::check(&ws, &mut out);
        for f in out {
            let len = lens
                .iter()
                .find(|(p, _)| *p == f.file)
                .map(|&(_, l)| l)
                .unwrap_or_else(|| panic!("finding names unknown file {}", f.file));
            assert!(1 <= f.line && f.line <= len, "finding out of bounds: {f}");
        }
    }
}

/// O(V·E) oracle: a digraph has a cycle iff some edge `(u, v)` closes a
/// path — `u` is reachable from `v`.
fn naive_has_cycle(n: usize, edges: &[(usize, usize)]) -> bool {
    let reaches = |from: usize, to: usize| {
        let mut seen = vec![false; n];
        let mut stack = vec![from];
        while let Some(u) = stack.pop() {
            if u == to {
                return true;
            }
            if seen[u] {
                continue;
            }
            seen[u] = true;
            for &(a, b) in edges {
                if a == u && !seen[b] {
                    stack.push(b);
                }
            }
        }
        false
    };
    edges.iter().any(|&(u, v)| reaches(v, u))
}

/// Random digraphs: a node count and an edge list within it.
fn digraph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1usize..10).prop_flat_map(|n| (Just(n), proptest::collection::vec((0..n, 0..n), 0..24)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn structured_fragments_build_a_well_formed_graph(
        lines in proptest::collection::vec(fragment(), 1..40),
    ) {
        passes_never_panic_and_anchor_in_bounds(&lines.join("\n"));
    }

    #[test]
    fn arbitrary_soup_builds_a_well_formed_graph(
        lines in proptest::collection::vec(soup_line(), 1..40),
    ) {
        passes_never_panic_and_anchor_in_bounds(&lines.join("\n"));
    }

    #[test]
    fn find_cycle_agrees_with_the_naive_oracle((n, edges) in digraph()) {
        let got = find_cycle(n, &edges);
        prop_assert_eq!(
            got.is_some(),
            naive_has_cycle(n, &edges),
            "cycle existence diverges on n={} edges={:?}",
            n,
            edges
        );
        if let Some(cycle) = got {
            // The reported node sequence must be a real cycle: every
            // consecutive pair (wrapping) is an input edge, nodes are
            // distinct, and the rotation starts at the smallest node.
            prop_assert!(!cycle.is_empty());
            for (i, &a) in cycle.iter().enumerate() {
                let b = cycle[(i + 1) % cycle.len()];
                prop_assert!(edges.contains(&(a, b)), "missing edge ({a}, {b}) in {cycle:?}");
            }
            let mut sorted = cycle.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), cycle.len(), "repeated node in cycle");
            prop_assert_eq!(cycle[0], *cycle.iter().min().unwrap());
        }
    }
}
