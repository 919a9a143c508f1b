//! Tier-1 gate: the workspace must be clean under the FULL analysis — the
//! line rules plus every model family (layering, the call-graph table's
//! phase-purity, timing-discipline, panic-discipline, hot-loop-alloc and
//! blocking-while-locked rows, the concurrency dataflow, and the locking
//! family) — and the allowlist must carry no stale entries. A new `unsafe`
//! without a SAFETY comment, an engine reaching into the harness, an
//! engine timing itself, a lock held across a dispatch, or a paid-off
//! exception left in `epg-lint.toml` fails `cargo test` here, not just the
//! `epg lint --strict` pass.

#[test]
fn workspace_is_lint_clean() {
    let root = epg_lint::workspace_root();
    let report = epg_lint::lint_workspace(&root).expect("allowlist must parse");
    assert!(
        report.findings.is_empty(),
        "epg-lint found {} violation(s):\n{}",
        report.findings.len(),
        report.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(
        report.stale_allows.is_empty(),
        "stale epg-lint.toml entries (silence nothing; delete them):\n{:#?}",
        report.stale_allows
    );
}
