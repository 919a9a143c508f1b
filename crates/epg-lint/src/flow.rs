//! The `concurrency` rule family: an intraprocedural pass over the token
//! model ([`crate::model`]).
//!
//! `DisjointWriter`'s debug-build shadow table and the `CancelToken`
//! enforce the parallel invariants *dynamically and by convention*; this
//! module is their static twin. It reads the two span kinds the model
//! extracts — engine **iteration loops** (the per-round loop every engine
//! closes with `log.iteration(…)`, which also polls the cancel token) and
//! **worker closures** (arguments to the `epg-parallel` entry points) —
//! and proves one invariant at lint time. (Direct assignment to captured
//! state needs no rule: every pool entry point takes `F: Fn + Sync`, so
//! `rustc` rejects it with E0594.)
//!
//! * `atomic-ordering` — extends the `cas-ordering` line rule with the
//!   sites it cannot see: `SeqCst` in hot loop bodies (and anywhere in the
//!   `epg-parallel` substrate, which must audit every use), and `Relaxed`
//!   loads of cross-thread *flags* outside the audited `CancelToken` fast
//!   path.
//!
//! Allocation inside timed loops is measured, not linted: the
//! `steady_state_alloc` test pins every cell's per-round allocator calls.
//!
//! The analysis is deliberately token-level and line-local, like the rest
//! of the linter. The place-chain and `let`-binding helpers below also
//! serve the `locking` family. Known blind spot: multi-line place chains,
//! absent from the workspace idiom.

use crate::arch::layer_of;
use crate::model::{FileModel, Workspace};
use crate::rules::Finding;
use crate::scan::{is_ident_byte, token_offsets};

/// Stable rule id: over- or under-strong atomic orderings on hot paths.
pub const RULE_ORDERING: &str = "atomic-ordering";

/// The audited lock-free fast path the `Relaxed`-flag check must not
/// flag: `CancelToken::is_cancelled` deliberately reads its deadline word
/// `Relaxed` (the Acquire load of the latched flag is the ordering
/// anchor; see the module docs of `epg-parallel/src/cancel.rs`).
const AUDITED_RELAXED_FILES: &[&str] = &["crates/epg-parallel/src/cancel.rs"];

/// Identifier fragments that mark an atomic as a cross-thread *flag*
/// (as opposed to a chunk counter, which legitimately loads `Relaxed`).
const FLAG_FRAGMENTS: &[&str] =
    &["cancel", "stop", "shutdown", "abort", "flag", "done", "active", "poison"];

/// Runs the concurrency family over every policy crate in the model.
pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    for c in &ws.crates {
        if layer_of(&c.name).is_none() {
            continue;
        }
        for f in c.files.iter().filter(|f| !f.test_role) {
            check_ordering(f, &c.name, out);
        }
    }
}

fn check_ordering(f: &FileModel, crate_name: &str, out: &mut Vec<Finding>) {
    let substrate = crate_name == "epg-parallel";
    for line in f.token_lines("SeqCst") {
        if f.in_test(line) {
            continue;
        }
        if substrate {
            out.push(Finding {
                file: f.path.clone(),
                line,
                rule: RULE_ORDERING,
                message: "`SeqCst` in the epg-parallel substrate: every sequentially consistent \
                          ordering here runs under the engines' hot paths — downgrade to \
                          acquire/release if the invariant allows it, otherwise record a \
                          reasoned epg-lint.toml entry"
                    .to_string(),
            });
        } else if f.in_loop_or_worker(line) {
            out.push(Finding {
                file: f.path.clone(),
                line,
                rule: RULE_ORDERING,
                message: "`SeqCst` inside a hot loop body or worker closure; acquire/release \
                          suffices for every handoff the engines perform (publish with Release, \
                          observe with Acquire)"
                    .to_string(),
            });
        }
    }
    if AUDITED_RELAXED_FILES.contains(&f.path.as_str()) {
        return;
    }
    for tok in [".load(Ordering::Relaxed)", ".load(Relaxed)"] {
        for line in f.token_lines(tok) {
            if f.in_test(line) {
                continue;
            }
            let code = &f.lines[line - 1].code;
            let mut from = 0;
            while let Some(pos) = code[from..].find(tok) {
                let dot = from + pos;
                from = dot + tok.len();
                let Some(chain) = place_chain(code, dot) else { continue };
                let Some(name) = last_ident(chain) else { continue };
                if is_flag_name(name) {
                    out.push(Finding {
                        file: f.path.clone(),
                        line,
                        rule: RULE_ORDERING,
                        message: format!(
                            "`Relaxed` load of cross-thread flag `{name}`: a worker observing \
                             the flag must also observe the writes published before it was \
                             raised — load with Acquire (the audited CancelToken fast path is \
                             the one exception)"
                        ),
                    });
                    break; // one finding per line
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The line-local substrate
// ---------------------------------------------------------------------------

/// Extracts `let` pattern bindings from one line (covers `if let` /
/// `while let` / `let … else` heads too).
pub(crate) fn let_bindings(code: &str, out: &mut Vec<String>) {
    for pos in token_offsets(code, "let") {
        let rest = &code[pos + 3..];
        let cut = rest.find(['=', ';']).unwrap_or(rest.len());
        let pat = &rest[..cut];
        // Strip a top-level type annotation (`: Vec<u32>`); `::` paths and
        // struct-pattern fields sit at bracket depth > 0 or are `::`.
        let pat = cut_type_annotation(pat);
        binding_idents(pat, out);
    }
}

/// Truncates `pat` at the first top-level `:` that is not part of `::`.
fn cut_type_annotation(pat: &str) -> &str {
    let b = pat.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'(' | b'[' | b'{' | b'<' => depth += 1,
            b')' | b']' | b'}' | b'>' => depth -= 1,
            b':' if depth == 0 => {
                if b.get(i + 1) == Some(&b':') {
                    i += 2;
                    continue;
                }
                return &pat[..i];
            }
            _ => {}
        }
        i += 1;
    }
    pat
}

/// Collects binding identifiers from a pattern fragment: lowercase- or
/// `_`-started idents except the `mut`/`ref` keywords and `_` itself.
fn binding_idents(pat: &str, out: &mut Vec<String>) {
    let b = pat.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() {
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1; // numeric literal (`0u64`): skip its suffix too
            }
            continue;
        }
        if !is_ident_byte(b[i]) {
            i += 1;
            continue;
        }
        let st = i;
        while i < b.len() && is_ident_byte(b[i]) {
            i += 1;
        }
        let w = &pat[st..i];
        let lower_start = w.as_bytes()[0].is_ascii_lowercase() || w.starts_with('_');
        if lower_start && w != "mut" && w != "ref" && w != "_" {
            out.push(w.to_string());
        }
    }
}

/// The place chain ending at byte `end` (exclusive): identifiers, `.`
/// separators, and balanced `[…]`/`(…)` groups, walked backwards.
pub(crate) fn place_chain(code: &str, end: usize) -> Option<&str> {
    let b = code.as_bytes();
    let mut i = end;
    while i > 0 {
        let c = b[i - 1];
        if is_ident_byte(c) || c == b'.' {
            i -= 1;
        } else if c == b']' || c == b')' {
            let (open, close) = if c == b']' { (b'[', b']') } else { (b'(', b')') };
            let mut depth = 0i32;
            let mut j = i;
            loop {
                if j == 0 {
                    return None; // unbalanced on this line
                }
                let d = b[j - 1];
                if d == close {
                    depth += 1;
                } else if d == open {
                    depth -= 1;
                    if depth == 0 {
                        j -= 1;
                        break;
                    }
                }
                j -= 1;
            }
            i = j;
        } else {
            break;
        }
    }
    if i == end {
        None
    } else {
        Some(&code[i..end])
    }
}

pub(crate) fn last_ident(s: &str) -> Option<&str> {
    let b = s.as_bytes();
    let en = b.iter().rposition(|&c| is_ident_byte(c))? + 1;
    let st = (0..en).rev().find(|&i| !is_ident_byte(b[i])).map_or(0, |i| i + 1);
    if b[st].is_ascii_digit() {
        return None;
    }
    Some(&s[st..en])
}

fn is_flag_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    FLAG_FRAGMENTS.iter().any(|frag| lower.contains(frag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CrateModel;
    use crate::scan::scan;

    fn krate(name: &str, file: &str, src: &str) -> CrateModel {
        CrateModel {
            name: name.to_string(),
            dir: format!("crates/{name}"),
            manifest_path: format!("crates/{name}/Cargo.toml"),
            manifest_lines: Vec::new(),
            deps: Vec::new(),
            dev_deps: Vec::new(),
            files: vec![FileModel::build(format!("crates/{name}/src/{file}"), scan(src), false)],
        }
    }

    /// The call-graph rules, then this family, in the order
    /// `lint_workspace` runs them.
    fn run(c: CrateModel) -> Vec<Finding> {
        let ws = Workspace { crates: vec![c], loose: Vec::new() };
        let mut out = Vec::new();
        crate::callgraph::check(&ws, &mut out);
        check(&ws, &mut out);
        out
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // --- iteration loops --------------------------------------------------

    #[test]
    fn iteration_loop_with_poll_passes() {
        // `RunLog::iteration` reports the round and polls the token in one
        // call: the canonical kernel loop needs no separate poll site.
        let src = "fn run(pool: &P, log: &mut L) {\n    let mut n = 3;\n    while n > 0 {\n        n -= 1;\n        if log.iteration(pool, n, 0, d).is_break() {\n            break;\n        }\n    }\n}\n";
        assert!(run(krate("epg-engine-gap", "pr.rs", src)).is_empty());
    }

    #[test]
    fn loops_without_iteration_marker_are_not_checked() {
        let src = "fn setup(xs: &[u32]) -> u32 {\n    let mut s = 0;\n    for x in xs {\n        s += x;\n    }\n    s\n}\n";
        assert!(run(krate("epg-engine-gap", "pr.rs", src)).is_empty());
    }

    // --- atomic-ordering --------------------------------------------------

    #[test]
    fn seqcst_in_engine_hot_loop_is_flagged() {
        let src = "fn kernel(a: &A) {\n    loop {\n        a.store(1, Ordering::SeqCst);\n        break;\n    }\n}\n";
        let f = run(krate("epg-engine-gap", "bfs.rs", src));
        assert_eq!(rules_of(&f), [RULE_ORDERING]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn seqcst_outside_hot_paths_passes_in_engines() {
        let src = "fn init(a: &A) {\n    a.store(0, Ordering::SeqCst);\n}\n";
        assert!(run(krate("epg-engine-gap", "bfs.rs", src)).is_empty());
    }

    #[test]
    fn seqcst_anywhere_in_parallel_substrate_is_flagged() {
        let src = "fn order(o: Ordering) -> Ordering {\n    match o {\n        Ordering::SeqCst => Ordering::SeqCst,\n        other => other,\n    }\n}\n";
        let f = run(krate("epg-parallel", "atomics.rs", src));
        assert_eq!(rules_of(&f), [RULE_ORDERING]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn relaxed_flag_load_is_flagged() {
        let src =
            "fn poll(stop_flag: &AtomicBool) -> bool {\n    stop_flag.load(Ordering::Relaxed)\n}\n";
        let f = run(krate("epg-parallel", "pool.rs", src));
        assert_eq!(rules_of(&f), [RULE_ORDERING]);
        assert!(f[0].message.contains("`stop_flag`"), "{}", f[0].message);
    }

    #[test]
    fn relaxed_counter_load_passes() {
        let src = "fn claim(next: &AtomicUsize) -> usize {\n    next.load(Ordering::Relaxed)\n}\n";
        assert!(run(krate("epg-parallel", "pool.rs", src)).is_empty());
    }

    #[test]
    fn audited_cancel_fast_path_is_exempt() {
        let src =
            "fn is_cancelled(c: &Inner) -> bool {\n    c.cancelled.load(Ordering::Relaxed)\n}\n";
        assert!(run(krate("epg-parallel", "cancel.rs", src)).is_empty());
    }

    #[test]
    fn relaxed_flag_loads_in_tests_are_exempt() {
        let src = "fn real() {}\n\n#[cfg(test)]\nmod tests {\n    fn t(done: &AtomicBool) -> bool {\n        done.load(Ordering::Relaxed)\n    }\n}\n";
        assert!(run(krate("epg-graph", "lib.rs", src)).is_empty());
    }

    #[test]
    fn lock_mediated_append_passes() {
        // A temporary guard taken for one append inside a worker closure
        // is held across no dispatch or wake boundary.
        let src = "fn kernel(pool: &P, found: &Mutex<Vec<u32>>) {\n    pool.parallel_for(8, s, |v| {\n        found.lock().append(&mut Vec::from([v]));\n    });\n}\n";
        assert!(run(krate("epg-engine-gap", "bfs.rs", src)).is_empty());
    }

    // --- the line-local substrate ------------------------------------------

    #[test]
    fn place_chains_resolve_bases_and_calls() {
        assert_eq!(place_chain("dist[v] = 1", 7), Some("dist[v]"));
        assert_eq!(place_chain("q.lock().append(x)", 8), Some("q.lock()"));
        assert_eq!(last_ident("self.inner.cancelled"), Some("cancelled"));
    }

    #[test]
    fn binding_extraction_covers_patterns() {
        let mut defs = Vec::new();
        let_bindings("let (mut lo, hi): (usize, usize) = r;", &mut defs);
        let_bindings("if let Some(v) = slot {", &mut defs);
        assert_eq!(defs, ["lo", "hi", "v"]);
    }
}
