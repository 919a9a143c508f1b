//! The mini fixture workspace (`tests/fixtures/mini/`) must produce
//! exactly one finding per architectural rule — layering, phase-purity,
//! timing-discipline, panic-discipline, the concurrency rule
//! seeded in `kernel.rs`, the four locking rules seeded in the
//! `mini-serve` crate, and the findings reached through calls seeded in
//! `transitive.rs` (tokens outside their rule's region) — at pinned
//! `file:line` positions. With the line rules' planted
//! `violations.rs` (`fixtures.rs`) that is every rule, and the printed
//! report must match the committed golden lines byte for byte.
//!
//! The fixture also carries the negative cases: I/O inside
//! `load_file` and a clock read inside the (fixture) `epg-harness`
//! crate, both of which must stay silent.

use std::path::Path;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn mini_report() -> epg_lint::LintReport {
    epg_lint::lint_workspace(&manifest_dir().join("tests/fixtures/mini"))
        .expect("mini fixture has no allowlist")
}

#[test]
fn mini_workspace_trips_each_family_once() {
    let report = mini_report();
    let got: Vec<(String, usize, &str)> = report
        .findings
        .iter()
        .filter(|f| f.file != "violations.rs")
        .map(|f| (f.file.clone(), f.line, f.rule))
        .collect();
    let want = [
        ("crates/epg-engine-alpha/Cargo.toml".to_string(), 8, "layering"),
        ("crates/epg-engine-alpha/src/kernel.rs".to_string(), 10, "atomic-ordering"),
        ("crates/epg-engine-alpha/src/lib.rs".to_string(), 12, "phase-purity"),
        ("crates/epg-engine-alpha/src/lib.rs".to_string(), 17, "timing-discipline"),
        ("crates/epg-engine-alpha/src/lib.rs".to_string(), 25, "panic-discipline"),
        // Reached through calls: each helper's token is outside its rule's
        // region, so these two exist only because reachability from the
        // timed loop is checked.
        ("crates/epg-engine-alpha/src/transitive.rs".to_string(), 14, "panic-discipline"),
        ("crates/epg-engine-alpha/src/transitive.rs".to_string(), 16, "phase-purity"),
        // The clock read is in its region (everywhere in an engine), so it
        // is reported where it sits and not again at the timed call.
        ("crates/epg-engine-alpha/src/transitive.rs".to_string(), 30, "timing-discipline"),
        ("crates/mini-serve/src/lib.rs".to_string(), 20, "condvar-wait-loop"),
        ("crates/mini-serve/src/lib.rs".to_string(), 27, "blocking-while-locked"),
        ("crates/mini-serve/src/lib.rs".to_string(), 37, "lock-order-cycle"),
        ("crates/mini-serve/src/lib.rs".to_string(), 63, "guard-across-span"),
    ];
    assert_eq!(got, want, "seeded violations diverge:\n{:#?}", report.findings);
    assert!(report.stale_allows.is_empty());
}

#[test]
fn mini_report_matches_golden() {
    let report = mini_report();
    let printed: String = report.findings.iter().map(|f| format!("{f}\n")).collect();
    let golden = std::fs::read_to_string(manifest_dir().join("tests/fixtures/mini_golden.txt"))
        .expect("golden file committed");
    assert_eq!(
        printed, golden,
        "the report drifted from the golden file; regenerate with \
         `cargo run -p epg-harness --bin epg -- lint --root crates/epg-lint/tests/fixtures/mini \
         > crates/epg-lint/tests/fixtures/mini_golden.txt`"
    );
}

#[test]
fn design_md_catalogs_every_tripped_rule() {
    // DESIGN.md's per-family tables are the rule catalog: every rule the
    // fixture trips — all of them — has a `| `id` |` row there.
    let design = std::fs::read_to_string(epg_lint::workspace_root().join("DESIGN.md"))
        .expect("DESIGN.md at the workspace root");
    let mut rules: Vec<&str> = Vec::new();
    let report = mini_report();
    for f in &report.findings {
        if !rules.contains(&f.rule) {
            rules.push(f.rule);
        }
    }
    assert_eq!(rules.len(), 14, "the mini fixture trips every rule: {rules:?}");
    let undocumented: Vec<&&str> =
        rules.iter().filter(|id| !design.contains(&format!("| `{id}` |"))).collect();
    assert!(undocumented.is_empty(), "rules without a DESIGN.md table row: {undocumented:?}");
}
