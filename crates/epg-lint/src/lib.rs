//! Workspace static analysis.
//!
//! A purpose-built analysis pass over the whole workspace — no `syn`, no
//! external parsers — in two tiers:
//!
//! * **Line rules** ([`rules`]) over every `.rs` file: SAFETY comments on
//!   `unsafe`, `unsafe impl Send/Sync` and raw-pointer struct fields
//!   contained to `epg-parallel`, compare-exchange failure orderings no
//!   stronger than their success orderings, and no `static mut`.
//! * **Architectural rules** over a workspace model ([`model`]): crate-DAG
//!   `layering` ([`arch`]), `phase-purity` and `timing-discipline`
//!   ([`phases`]), `panic-discipline` ([`panics`]), the `concurrency`
//!   dataflow family ([`flow`]) — `shared-mutable-capture`,
//!   `atomic-ordering`, `hot-loop-alloc` — and
//!   the `locking` family ([`locking`]) — `lock-order-cycle`,
//!   `blocking-while-locked`, `condvar-wait-loop`, `guard-across-span` —
//!   over an intra-crate call graph ([`callgraph`]) that also upgrades
//!   the phase/timing/panic/alloc families to **transitive** reachability
//!   from engine loops and worker closures, with findings printed as call
//!   chains. These enforce the measurement-fairness invariants of
//!   DESIGN.md §10–§11 and the serving-path lock discipline of §15:
//!   engines are interchangeable behind `epg-engine-api`, file I/O stays
//!   in the read phase, the harness owns the clock, engine hot paths fail
//!   through the supervised `TrialOutcome` path, timed parallel regions
//!   neither race on captured state nor allocate, and no lock guard pins
//!   a blocking operation or a wake boundary.
//!
//! Runs as a binary (`cargo run -p epg-lint`, nonzero exit on findings),
//! as `epg lint` from the harness, and as a tier-1 test
//! (`tests/workspace_clean.rs`), so policy regressions fail `cargo test`
//! the same as any other bug.
//!
//! Audited exceptions live in `epg-lint.toml` at the workspace root — see
//! [`allowlist`] for the format and staleness rules; it is the one
//! exception mechanism.

#![warn(missing_docs)]

pub mod allowlist;
pub mod arch;
pub mod callgraph;
pub mod explain;
pub mod flow;
pub mod locking;
pub mod model;
pub mod output;
pub mod panics;
pub mod phases;
pub mod rules;
pub mod scan;

pub use allowlist::Allow;
pub use rules::Finding;

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

/// Lints every `.rs` file under `root` with the line rules only, applying
/// `root/epg-lint.toml` when present. Returns surviving findings sorted by
/// file and line. The fixture tests use this entry point; the binary and
/// `epg lint` run [`lint_workspace`].
///
/// # Errors
/// Returns a message when the allowlist is present but malformed — a broken
/// allowlist must fail the run rather than silently allow everything (or
/// nothing).
pub fn lint_tree(root: &Path) -> Result<Vec<Finding>, String> {
    let allows = read_allowlist(root)?;
    let mut findings = Vec::new();
    for path in rust_files(root) {
        let Ok(src) = std::fs::read_to_string(&path) else { continue };
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let lines = scan::scan(&src);
        for finding in rules::check_file(&rel, &lines) {
            if allowlist::match_allow(&allows, &finding, &line_text(&lines, finding.line)).is_none()
            {
                findings.push(finding);
            }
        }
    }
    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(findings)
}

/// Runs the full analysis — line rules plus the four architectural rule
/// families over the workspace model — applying `root/epg-lint.toml` with
/// per-entry usage tracking.
///
/// # Errors
/// Returns a message when the allowlist is present but malformed.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let allows = read_allowlist(root)?;
    let mut raw: Vec<(Finding, String)> = Vec::new();

    // Tier 1: line rules over every `.rs` in the tree.
    for path in rust_files(root) {
        let Ok(src) = std::fs::read_to_string(&path) else { continue };
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let lines = scan::scan(&src);
        for finding in rules::check_file(&rel, &lines) {
            let text = line_text(&lines, finding.line);
            raw.push((finding, text));
        }
    }

    // Tier 2: architectural rules over the workspace model.
    let ws = model::Workspace::load(root);
    let mut arch_findings = Vec::new();
    arch::check(&ws, &mut arch_findings);
    phases::check(&ws, &mut arch_findings);
    panics::check(&ws, &mut arch_findings);
    flow::check(&ws, &mut arch_findings);
    locking::check(&ws, &mut arch_findings);
    callgraph::check_transitive(&ws, &mut arch_findings);
    for finding in arch_findings {
        let text = model_line_text(&ws, &finding);
        raw.push((finding, text));
    }

    // One finding per (file, line, rule): several tokens on one line
    // collapse to the first message.
    raw.sort_by(|a, b| {
        a.0.file.cmp(&b.0.file).then(a.0.line.cmp(&b.0.line)).then(a.0.rule.cmp(b.0.rule))
    });
    raw.dedup_by(|a, b| a.0.file == b.0.file && a.0.line == b.0.line && a.0.rule == b.0.rule);

    let mut used = vec![false; allows.len()];
    let mut findings = Vec::new();
    for (finding, text) in raw {
        match allowlist::match_allow(&allows, &finding, &text) {
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

fn line_text(lines: &[scan::Line], line: usize) -> String {
    lines.get(line - 1).map(|l| format!("{}{}", l.code, l.comment)).unwrap_or_default()
}

/// The raw text of the line a model-tier finding points at — a manifest
/// line for declared-DAG findings, a source line otherwise.
fn model_line_text(ws: &model::Workspace, f: &Finding) -> String {
    for c in &ws.crates {
        if c.manifest_path == f.file {
            return c.manifest_lines.get(f.line - 1).cloned().unwrap_or_default();
        }
        for file in &c.files {
            if file.path == f.file {
                return line_text(&file.lines, f.line);
            }
        }
    }
    String::new()
}

/// Options shared by the `epg-lint` binary and the `epg lint` subcommand.
#[derive(Debug, Default)]
pub struct LintOptions {
    /// Emit the `epg-lint/v1` JSON report instead of human lines.
    pub json: bool,
    /// Fail (exit 3) on stale allowlist entries even when no findings
    /// survive — CI runs with this on so exceptions cannot rot.
    pub strict: bool,
}

/// Runs the full lint over `root` and prints the report to stdout.
///
/// Returns the process exit code: `0` clean, `1` findings survive, `2`
/// configuration errors (bad root, malformed allowlist), `3`
/// no findings but stale allowlist entries exist under
/// [`LintOptions::strict`]. The distinct stale code lets CI and scripts
/// tell "the code regressed" from "an exception rotted" without parsing
/// output.
pub fn run_lint(root: &Path, opts: &LintOptions) -> i32 {
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

    if opts.json {
        print!("{}", output::to_json(&findings, &stale_allows));
    } else {
        for f in &findings {
            println!("{f}");
        }
        for a in &stale_allows {
            let scope =
                if a.file.is_empty() { a.dir.clone().unwrap_or_default() } else { a.file.clone() };
            println!(
                "epg-lint.toml: stale [[allow]] entry ({scope}, rule {}) silences nothing; \
                 delete it",
                a.rule
            );
        }
        if findings.is_empty() && stale_allows.is_empty() {
            println!("epg-lint: clean ({})", root.display());
        } else if !findings.is_empty() {
            eprintln!("epg-lint: {} finding(s)", findings.len());
        }
    }

    let strict_stale = opts.strict && !stale_allows.is_empty();
    if !findings.is_empty() {
        1
    } else if strict_stale {
        3
    } else {
        0
    }
}
