//! Property tests for the token-model span extraction: on generated
//! line soup — both structured Rust-shaped fragments and arbitrary
//! printable noise with unbalanced delimiters — `FileModel::build` is a
//! total function, and every span it extracts (fn bodies, `#[cfg(test)]`
//! regions, loop bodies, worker-closure arg lists) is a well-formed
//! 1-based inclusive range inside the file. The flow pass is span
//! arithmetic over this model, so these bounds are what keep the
//! concurrency rules panic-free on any input tree.

use epg_lint::flow;
use epg_lint::model::FileModel;
use epg_lint::scan::scan;
use proptest::prelude::*;

/// Rust-shaped fragments: the constructs the model extracts spans from,
/// deliberately including torn/unbalanced variants.
fn fragment() -> impl Strategy<Value = String> {
    let ident = "[a-z_][a-z0-9_]{0,6}";
    prop_oneof![
        ident.prop_map(|n| format!("fn {n}(x: u32) -> u32 {{")),
        ident.prop_map(|n| format!("    let mut {n} = Vec::new();")),
        ident.prop_map(|n| format!("    for {n} in 0..10 {{")),
        Just("    while x > 0 {".to_string()),
        Just("    loop {".to_string()),
        ident.prop_map(|n| format!("    pool.parallel_for({n}.len(), s, |v| {{")),
        ident
            .prop_map(|n| format!("    pool.parallel_for_ranges(n, s, |w, lo, hi| {{ {n}(w) }});")),
        ident.prop_map(|n| format!("        {n}[v] = 1;")),
        ident.prop_map(|n| format!("        {n} += 1;")),
        Just("        rec.iteration(0);".to_string()),
        Just("        if pool.is_cancelled() { break; }".to_string()),
        Just("#[cfg(test)]".to_string()),
        Just("mod tests {".to_string()),
        Just("#[test]".to_string()),
        Just("    }".to_string()),
        Just("}".to_string()),
        Just("}}}".to_string()),
        Just("{{{".to_string()),
        Just("    });".to_string()),
        Just("impl Iterator for X {".to_string()),
        Just("    let f = |a: (u32, u32), b| a.0 | b;".to_string()),
        Just("".to_string()),
    ]
}

/// Printable-ASCII soup: no structure guarantees at all.
fn soup_line() -> impl Strategy<Value = String> {
    "[ -~]{0,60}"
}

/// Asserts every extracted span is 1-based, ordered, and inside the file.
fn assert_spans_well_formed(f: &FileModel) {
    let n = f.lines.len();
    let check = |what: &str, s: usize, e: usize| {
        assert!(
            1 <= s && s <= e && e <= n.max(1),
            "{what} span ({s}, {e}) escapes file of {n} lines: {:?}",
            f.path
        );
    };
    for fun in &f.fns {
        check("fn", fun.start, fun.end);
    }
    for &(s, e) in &f.test_spans {
        check("test", s, e);
    }
    for &(s, e) in &f.loops {
        check("loop", s, e);
    }
    for &(s, e) in &f.par_calls {
        check("par-call", s, e);
    }
    for &(s, e) in &f.hot {
        check("hot", s, e);
    }
}

/// Runs the full concurrency family over one in-memory file in an engine
/// crate — the total-function property for the dataflow pass itself.
fn flow_never_panics(f: FileModel) {
    let c = epg_lint::model::CrateModel {
        name: "epg-engine-gap".to_string(),
        dir: "crates/epg-engine-gap".to_string(),
        manifest_path: "crates/epg-engine-gap/Cargo.toml".to_string(),
        manifest_lines: Vec::new(),
        deps: Vec::new(),
        dev_deps: Vec::new(),
        files: vec![f],
    };
    let ws = epg_lint::model::Workspace { crates: vec![c], loose: Vec::new() };
    let mut out = Vec::new();
    flow::check(&ws, &mut out);
    for finding in out {
        assert!(finding.line >= 1, "finding at line 0: {finding}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn structured_fragments_build_well_formed_spans(
        lines in proptest::collection::vec(fragment(), 1..40),
    ) {
        let src = lines.join("\n");
        let f = FileModel::build("crates/epg-engine-gap/src/x.rs".to_string(), scan(&src), false);
        prop_assert_eq!(f.lines.len(), lines.len());
        assert_spans_well_formed(&f);
        flow_never_panics(f);
    }

    #[test]
    fn arbitrary_soup_builds_well_formed_spans(
        lines in proptest::collection::vec(soup_line(), 1..40),
    ) {
        let src = lines.join("\n");
        let f = FileModel::build("crates/epg-engine-gap/src/x.rs".to_string(), scan(&src), false);
        prop_assert_eq!(f.lines.len(), lines.len());
        assert_spans_well_formed(&f);
        flow_never_panics(f);
    }

    #[test]
    fn unterminated_constructs_clamp_to_file_end(tail in "[a-z]{1,8}") {
        // A loop/closure/test region opened on the last line must clamp its
        // span to the end of the file, not run past it.
        for src in [
            format!("fn {tail}() {{\n    loop {{\n        x += 1;"),
            format!("pool.parallel_for(n, s, |{tail}| {{"),
            "#[cfg(test)]\nmod tests {".to_string(),
        ] {
            let f = FileModel::build("crates/epg-engine-gap/src/x.rs".to_string(), scan(&src), false);
            assert_spans_well_formed(&f);
            flow_never_panics(f);
        }
    }

    #[test]
    fn test_spans_nest_inside_the_file_and_shield_rules(
        body in proptest::collection::vec(fragment(), 0..10),
    ) {
        // Anything inside #[cfg(test)] is invisible to the concurrency
        // family, no matter how violation-shaped it is.
        let mut lines = vec!["#[cfg(test)]".to_string(), "mod tests {".to_string()];
        lines.push("    fn t(pool: &P, out: &mut [u32]) {".to_string());
        lines.push("        pool.parallel_for(8, s, |v| { out[v] = 1; });".to_string());
        lines.extend(body.clone());
        lines.push("}".to_string());
        let src = lines.join("\n");
        let f = FileModel::build("crates/epg-engine-gap/src/x.rs".to_string(), scan(&src), false);
        assert_spans_well_formed(&f);
        prop_assert!(f.in_test(4), "the seeded violation line must be in a test span");
        flow_never_panics(f);
    }
}
