//! Golden-file test for `epg trace summarize`.
//!
//! The fixture is a hand-written but schema-faithful trace of a
//! three-iteration GAP BFS run (phases, regions, per-iteration counter
//! deltas, worker spans, allocation high-water marks, and one line of
//! non-trace chatter). The rendered summary is compared byte-for-byte
//! against the checked-in golden file, so any change to the summarizer's
//! layout is a visible diff in review rather than a silent drift.
//!
//! To regenerate after an intentional format change:
//! `EPG_BLESS_GOLDEN=1 cargo test -p epg-harness --test golden_summarize`

use std::path::Path;

/// Summarizes `fixtures/{stem}.trace.jsonl`, compares the text with
/// `fixtures/{stem}.summary.golden` byte for byte and returns it.
fn check_golden(stem: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let input = std::fs::read_to_string(dir.join(format!("{stem}.trace.jsonl"))).unwrap();
    let got = epg_harness::tracefile::summarize(&input);

    let golden_path = dir.join(format!("{stem}.summary.golden"));
    if std::env::var_os("EPG_BLESS_GOLDEN").is_some() {
        std::fs::write(&golden_path, &got).unwrap();
        return got;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap();
    assert_eq!(
        got, want,
        "{stem} summary drifted from golden; if intentional, re-bless with EPG_BLESS_GOLDEN=1"
    );
    got
}

#[test]
fn summarize_matches_golden() {
    check_golden("gap_bfs_kron8");
}

#[test]
fn dnf_summary_matches_golden() {
    // A supervised PageRank trial that blew its budget: the trace ends in
    // a cooperative-cancellation PhaseEnd plus a "timeout" TrialOutcome,
    // and the summary must render the trial-outcomes section.
    let got = check_golden("gap_pr_dnf");
    assert!(got.contains("trial outcomes"), "summary must surface the DNF:\n{got}");
}

#[test]
fn truncated_summary_matches_golden() {
    // Exact BC on 2^11 vertices records one step per source and overflows
    // the recorder's ring: the file opens with the `dropped` marker and
    // mid-iteration, and the summary must say its totals are a tail's.
    let got = check_golden("gap_bc_truncated");
    assert!(got.contains("196608 oldest events dropped"), "summary hides the truncation:\n{got}");
}

#[test]
fn golden_fixture_parses_cleanly_except_the_chatter_line() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let input = std::fs::read_to_string(dir.join("gap_bfs_kron8.trace.jsonl")).unwrap();
    let parsed = epg_trace::jsonl::parse_jsonl(&input);
    assert_eq!(parsed.skipped, 1, "fixture has exactly one deliberate chatter line");
    assert_eq!(parsed.events.len(), 24);
}
