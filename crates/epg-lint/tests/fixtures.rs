//! The lint must flag every planted line-rule violation in the mini
//! fixture's `violations.rs` — with the right rule at the right
//! `file:line` — and nothing else. That file sits outside every member
//! crate, so it is read by the line rules only. This is the positive half
//! of the acceptance criteria; `workspace_clean.rs` is the negative half.

use std::path::Path;

#[test]
fn fixtures_trip_every_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini");
    let report = epg_lint::lint_workspace(&root).expect("no allowlist in fixtures");
    let got: Vec<(&str, usize, &str)> = report
        .findings
        .iter()
        .filter(|f| f.file == "violations.rs")
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    let want = [
        ("violations.rs", 9, "static-mut"),
        ("violations.rs", 12, "raw-ptr-field"),
        ("violations.rs", 15, "raw-ptr-field"),
        ("violations.rs", 18, "safety-comment"),
        ("violations.rs", 18, "unsafe-impl"),
        ("violations.rs", 21, "safety-comment"),
        ("violations.rs", 25, "cas-ordering"),
    ];
    assert_eq!(got, want, "findings diverge from the planted violations:\n{:#?}", report.findings);
}
