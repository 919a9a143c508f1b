//! The lint must flag every planted line-rule violation in the mini
//! fixture's `violations.rs` — with the right rule at the right
//! `file:line` — and nothing else. That file sits outside every member
//! crate, so it is a loose file: modeled, but read by the line rules only.
//! This is the positive half of the acceptance criteria;
//! `workspace_clean.rs` is the negative half.

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

#[test]
fn line_rules_read_member_and_loose_files_once_each() {
    let root = std::env::temp_dir().join(format!("epg-lint-line-family-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let write = |rel: &str, text: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    };
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    write("crates/member/Cargo.toml", "[package]\nname = \"member\"\n");
    write("crates/member/src/lib.rs", "pub fn f() {}\nstatic mut IN_CRATE: u32 = 0;\n");
    write("tests/loose.rs", "static mut LOOSE: u32 = 0;\n");
    let report = epg_lint::lint_workspace(&root).expect("no allowlist");
    std::fs::remove_dir_all(&root).ok();
    let got: Vec<(&str, usize, &str)> =
        report.findings.iter().map(|f| (f.file.as_str(), f.line, f.rule)).collect();
    assert_eq!(
        got,
        [("crates/member/src/lib.rs", 2, "static-mut"), ("tests/loose.rs", 1, "static-mut")]
    );
}
