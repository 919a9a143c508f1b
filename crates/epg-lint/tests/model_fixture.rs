//! The mini fixture workspace (`tests/fixtures/mini/`) must produce
//! exactly one finding per architectural rule — layering, phase-purity,
//! timing-discipline, panic-discipline, the three concurrency rules
//! seeded in `kernel.rs`, the four locking rules seeded in the
//! `mini-serve` crate, and one *transitive* finding per upgraded family
//! seeded in `transitive.rs` (violations a line-local pass cannot see)
//! — at pinned `file:line` positions, and the `--json` rendering must
//! match the committed golden report byte for byte.
//!
//! The fixture also carries the negative cases: I/O inside
//! `load_file` and a clock read inside the (fixture) `epg-harness`
//! crate, both of which must stay silent.

use std::path::{Path, PathBuf};

fn mini_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini")
}

#[test]
fn mini_workspace_trips_each_family_once() {
    let report = epg_lint::lint_workspace(&mini_root()).expect("mini fixture has no allowlist");
    let got: Vec<(String, usize, &str)> =
        report.findings.iter().map(|f| (f.file.clone(), f.line, f.rule)).collect();
    let want = [
        ("crates/epg-engine-alpha/Cargo.toml".to_string(), 8, "layering"),
        ("crates/epg-engine-alpha/src/kernel.rs".to_string(), 10, "atomic-ordering"),
        ("crates/epg-engine-alpha/src/kernel.rs".to_string(), 11, "hot-loop-alloc"),
        ("crates/epg-engine-alpha/src/kernel.rs".to_string(), 13, "shared-mutable-capture"),
        ("crates/epg-engine-alpha/src/lib.rs".to_string(), 12, "phase-purity"),
        ("crates/epg-engine-alpha/src/lib.rs".to_string(), 17, "timing-discipline"),
        ("crates/epg-engine-alpha/src/lib.rs".to_string(), 25, "panic-discipline"),
        // Transitive upgrades: each helper's token is outside any lexical
        // scope the line-local rules report, so these four exist only
        // because reachability from the timed loop is checked.
        ("crates/epg-engine-alpha/src/transitive.rs".to_string(), 14, "panic-discipline"),
        ("crates/epg-engine-alpha/src/transitive.rs".to_string(), 15, "hot-loop-alloc"),
        ("crates/epg-engine-alpha/src/transitive.rs".to_string(), 16, "timing-discipline"),
        ("crates/epg-engine-alpha/src/transitive.rs".to_string(), 17, "phase-purity"),
        // The clock read itself is also reported where it sits.
        ("crates/epg-engine-alpha/src/transitive.rs".to_string(), 37, "timing-discipline"),
        ("crates/mini-serve/src/lib.rs".to_string(), 20, "condvar-wait-loop"),
        ("crates/mini-serve/src/lib.rs".to_string(), 27, "blocking-while-locked"),
        ("crates/mini-serve/src/lib.rs".to_string(), 37, "lock-order-cycle"),
        ("crates/mini-serve/src/lib.rs".to_string(), 63, "guard-across-span"),
    ];
    assert_eq!(got, want, "seeded violations diverge:\n{:#?}", report.findings);
    assert!(report.stale_allows.is_empty());
}

#[test]
fn mini_json_matches_golden() {
    let report = epg_lint::lint_workspace(&mini_root()).expect("mini fixture has no allowlist");
    let json = epg_lint::output::to_json(&report.findings, &report.stale_allows);
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini_golden.json");
    let golden = std::fs::read_to_string(&golden_path).expect("golden file committed");
    assert_eq!(
        json, golden,
        "JSON report drifted from the golden file; regenerate with \
         `cargo run -p epg-lint -- crates/epg-lint/tests/fixtures/mini --json`"
    );
}

#[test]
fn retired_baseline_flag_is_refused_with_usage() {
    // `epg-lint.toml` is the one exception mechanism; the `epg` half of
    // this check lives in epg-harness's `lint_cli.rs`.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_epg-lint"))
        .args(["--baseline", "lint.baseline"])
        .output()
        .expect("spawn epg-lint");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument --baseline") && stderr.contains("usage: epg-lint"),
        "{stderr}"
    );
}
