//! Workspace static analysis.
//!
//! A purpose-built analysis pass over the whole workspace — no `syn`, no
//! external parsers. [`lint_workspace`] walks the tree once and scans each
//! `.rs` file once ([`scan`]); two kinds of rule read those scans:
//!
//! * **Line rules** ([`rules`]) over every scanned file, member crate or
//!   not: SAFETY comments on `unsafe`, `unsafe impl Send/Sync` and
//!   raw-pointer struct fields contained to `epg-parallel`,
//!   compare-exchange failure orderings no stronger than their success
//!   orderings, and no `static mut`.
//! * **Model families** over the member crates' workspace model
//!   ([`model`]): crate-DAG `layering` ([`arch`]); one table of "banned
//!   token in a region, directly or through calls" rules over an
//!   intra-crate call graph ([`callgraph`]) — `phase-purity`,
//!   `timing-discipline`, `panic-discipline` and `blocking-while-locked`,
//!   whose reachable tokens are reported at timed call sites and
//!   held-guard lines as call chains; the `concurrency` pass ([`flow`]) —
//!   `atomic-ordering`; and the rest of the `locking` family
//!   ([`locking`]) — `lock-order-cycle`, `condvar-wait-loop`,
//!   `guard-across-span`, and the foreign condvar wait. These enforce the
//!   measurement-fairness invariants of DESIGN.md §10–§11 and the
//!   serving-path lock discipline of §15: engines are interchangeable
//!   behind `epg-engine-api`, file I/O stays in the read phase, the
//!   harness owns the clock, engine hot paths fail through the supervised
//!   `TrialOutcome` path, and no lock guard pins a blocking operation or
//!   a wake boundary.
//!
//! What a timed loop allocates is measured, not linted: the
//! `steady_state_alloc` integration test of the `epg` facade pins every
//! engine × algorithm cell's allocator calls per extra round.
//!
//! Runs as `epg lint [--strict] [--root DIR]` ([`run_lint`], nonzero exit
//! on findings) and as a tier-1 test (`tests/workspace_clean.rs`), so
//! policy regressions fail `cargo test` the same as any other bug.
//! DESIGN.md's per-family tables are the rule catalog.
//!
//! Audited exceptions live in `epg-lint.toml` at the workspace root — see
//! [`allowlist`] for the format and staleness rules; it is the one
//! exception mechanism.

#![warn(missing_docs)]

pub mod allowlist;
pub mod arch;
pub mod callgraph;
pub mod flow;
pub mod locking;
pub mod model;
pub mod rules;
pub mod scan;

#[cfg(test)]
#[path = "panics_tests.rs"]
mod panics;
#[cfg(test)]
#[path = "phases_tests.rs"]
mod phases;

pub use allowlist::Allow;
pub use rules::Finding;

use model::{Scanned, Workspace};
use std::path::{Path, PathBuf};

/// The workspace root, located relative to this crate's manifest.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("epg-lint lives two levels below the workspace root")
        .to_path_buf()
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "fixtures"];

/// Collects every `.rs` file under `root`, workspace-relative, sorted.
pub fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The outcome of a full workspace lint.
#[derive(Debug)]
pub struct LintReport {
    /// Findings surviving the allowlist, sorted by file/line/rule, one
    /// per `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Allowlist entries that silenced nothing this run.
    pub stale_allows: Vec<Allow>,
}

/// Runs the full analysis — line rules over every `.rs` file under
/// `root`, the model families over its member crates — applying
/// `root/epg-lint.toml` with per-entry usage tracking.
///
/// # Errors
/// Returns a message when the allowlist is present but malformed — a broken
/// allowlist must fail the run rather than silently allow everything (or
/// nothing).
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let allows = read_allowlist(root)?;

    // One walk, one scan per file.
    let scanned: Vec<Scanned> = rust_files(root)
        .iter()
        .filter_map(|path| {
            let src = std::fs::read_to_string(path).ok()?;
            let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
            Some((rel, scan::scan(&src)))
        })
        .collect();
    let mut raw: Vec<Finding> =
        scanned.iter().flat_map(|(rel, lines)| rules::check_file(rel, lines)).collect();

    // The member crates' file models take their scans; the rest stay in
    // `others` for the allowlist's line lookup.
    let (ws, others) = Workspace::load(root, scanned);
    arch::check(&ws, &mut raw);
    callgraph::check(&ws, &mut raw);
    flow::check(&ws, &mut raw);

    // One finding per (file, line, rule): several tokens on one line
    // collapse to the first message.
    raw.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)).then(a.rule.cmp(b.rule)));
    raw.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);

    let mut used = vec![false; allows.len()];
    let mut findings = Vec::new();
    for finding in raw {
        match allowlist::match_allow(&allows, &finding, &line_text(&ws, &others, &finding)) {
            Some(i) => used[i] = true,
            None => findings.push(finding),
        }
    }
    Ok(LintReport { findings, stale_allows: allowlist::stale(&allows, &used) })
}

fn read_allowlist(root: &Path) -> Result<Vec<Allow>, String> {
    match std::fs::read_to_string(root.join("epg-lint.toml")) {
        Ok(text) => allowlist::parse(&text),
        Err(_) => Ok(Vec::new()),
    }
}

/// The raw text of the line a finding points at — a manifest line for
/// declared-DAG findings, a scanned source line otherwise.
fn line_text(ws: &Workspace, others: &[Scanned], f: &Finding) -> String {
    if let Some(c) = ws.crates.iter().find(|c| c.manifest_path == f.file) {
        return c.manifest_lines.get(f.line - 1).cloned().unwrap_or_default();
    }
    let members = ws.crates.iter().flat_map(|c| &c.files).map(|m| (&m.path, &m.lines));
    let mut files = members.chain(others.iter().map(|(path, lines)| (path, lines)));
    files
        .find(|(path, _)| **path == f.file)
        .and_then(|(_, lines)| lines.get(f.line - 1))
        .map(|l| format!("{}{}", l.code, l.comment))
        .unwrap_or_default()
}

/// Runs the full lint over `root` and prints the report to stdout.
///
/// Returns the process exit code: `0` clean, `1` findings survive, `2`
/// configuration errors (bad root, malformed allowlist), `3` no findings
/// but stale allowlist entries exist under `strict` — CI runs with it on
/// so exceptions cannot rot. The distinct stale code lets CI and scripts
/// tell "the code regressed" from "an exception rotted" without parsing
/// output.
pub fn run_lint(root: &Path, strict: bool) -> i32 {
    if !root.is_dir() {
        eprintln!("epg-lint: {}: not a directory", root.display());
        return 2;
    }
    let report = match lint_workspace(root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("epg-lint: {err}");
            return 2;
        }
    };
    let (findings, stale_allows) = (report.findings, report.stale_allows);

    for f in &findings {
        println!("{f}");
    }
    for a in &stale_allows {
        let scope =
            if a.file.is_empty() { a.dir.clone().unwrap_or_default() } else { a.file.clone() };
        println!(
            "epg-lint.toml: stale [[allow]] entry ({scope}, rule {}) silences nothing; delete it",
            a.rule
        );
    }
    if findings.is_empty() && stale_allows.is_empty() {
        println!("epg-lint: clean ({})", root.display());
    } else if !findings.is_empty() {
        eprintln!("epg-lint: {} finding(s)", findings.len());
    }

    if !findings.is_empty() {
        1
    } else if strict && !stale_allows.is_empty() {
        3
    } else {
        0
    }
}
