//! The concurrency-safety line rules.
//!
//! One family over every modeled file, member crate or loose
//! ([`Workspace::files`]). The rules encode the workspace's safety policy
//! (see DESIGN.md "Safety & static analysis"):
//!
//! 1. `safety-comment` — every `unsafe` occurrence in code is preceded by a
//!    `// SAFETY:` comment (or a `/// # Safety` doc section) on the same
//!    line or on the contiguous run of comment/attribute/blank lines above.
//! 2. `unsafe-impl` — `unsafe impl Send`/`Sync` only inside `epg-parallel`,
//!    where the one audited writer/job-pointer pair lives.
//! 3. `raw-ptr-field` — no `*mut`/`*const` struct fields outside
//!    `epg-parallel`; engines must use `DisjointWriter` instead of private
//!    raw-pointer cells.
//! 4. `cas-ordering` — `compare_exchange(_weak)` failure ordering must not
//!    be stronger than its success ordering (literal orderings only;
//!    computed orderings are skipped).
//! 5. `static-mut` — no `static mut` anywhere.

use crate::model::{match_paren, Code, FileModel, Workspace};
use crate::scan::{token_offsets, Line};

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path as given to the checker (workspace-relative in the driver).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (used by the allowlist).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Runs every line rule over every file of the workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    out.extend(ws.files().flat_map(check_file));
}

/// Runs every line rule over one modeled file.
pub fn check_file(f: &FileModel) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut push = |line, rule, message: &str| {
        out.push(Finding { file: f.path.clone(), line, rule, message: message.to_string() });
    };
    // The crate allowed `unsafe impl Send/Sync` and raw-pointer fields.
    let parallel = f.path.contains("crates/epg-parallel/");
    for (line, rest) in f.first_token_per_line("unsafe") {
        if !safety_documented(&f.lines, line - 1) {
            push(
                line,
                "safety-comment",
                "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc section) on or \
                 above it",
            );
        }
        // The implemented trait is on this line in every rustfmt layout;
        // flag conservatively if Send/Sync appears anywhere after `impl`.
        if !parallel && rest.trim_start().starts_with("impl") && has_any(rest, &["Send", "Sync"]) {
            push(
                line,
                "unsafe-impl",
                "`unsafe impl Send/Sync` outside epg-parallel; use \
                 `epg_parallel::DisjointWriter` or move the audited type into the parallel crate",
            );
        }
    }
    if !parallel {
        for line in raw_ptr_field_lines(f) {
            push(
                line,
                "raw-ptr-field",
                "raw-pointer struct field outside epg-parallel; hold a `DisjointWriter` (or \
                 indices) instead",
            );
        }
    }
    for (line, s, fail) in cas_inversions(&f.code) {
        push(
            line,
            "cas-ordering",
            &format!(
                "compare_exchange failure ordering {fail} is stronger than success ordering \
                 {s}; derive it from the success ordering instead"
            ),
        );
    }
    for (line, rest) in f.first_token_per_line("static") {
        if rest.trim_start().starts_with("mut") && has_any(rest, &["mut"]) {
            push(
                line,
                "static-mut",
                "`static mut` is forbidden; use an atomic, a lock, or `OnceLock`",
            );
        }
    }
    out
}

/// Whether any of `words` occurs in `text` as a whole token.
fn has_any(text: &str, words: &[&str]) -> bool {
    words.iter().any(|w| token_offsets(text, w).next().is_some())
}

/// Whether the `unsafe` on line index `idx` has a SAFETY comment on its
/// line or above it, walking up through blank, comment-only and attribute
/// lines.
fn safety_documented(lines: &[Line], idx: usize) -> bool {
    let satisfies = |l: &Line| l.comment.contains("SAFETY:") || l.comment.contains("# Safety");
    let skippable = |l: &Line| {
        let code = l.code.trim();
        code.is_empty() || code.starts_with('#') || code == ")]"
    };
    satisfies(&lines[idx])
        || lines[..idx].iter().rev().find(|l| satisfies(l) || !skippable(l)).is_some_and(satisfies)
}

/// Lines holding a raw-pointer type inside a struct's `{…}` or `(…)`
/// body, each once.
fn raw_ptr_field_lines(f: &FileModel) -> Vec<usize> {
    let code = &f.code;
    let mut out = Vec::new();
    for &(open, close) in f.structs.iter().filter_map(|s| s.body.as_ref()) {
        for line in code.line_of(open)..=code.line_of(close) {
            let start = code.starts[line - 1];
            let lo = start.max(open + 1);
            let hi = (start + f.lines[line - 1].code.len()).min(close);
            let body = code.text.get(lo..hi).unwrap_or("");
            if (body.contains("*mut ") || body.contains("*const ")) && out.last() != Some(&line) {
                out.push(line);
            }
        }
    }
    out
}

/// The orderings from weakest to strongest, for the failure-vs-success
/// comparison. `Acquire` is ranked above `Release` deliberately: a failure
/// load may not carry more acquire power than the success ordering grants.
const ORDERINGS: [&str; 5] = ["Relaxed", "Release", "Acquire", "AcqRel", "SeqCst"];

/// The single ordering an argument names and its strength, or None when
/// the argument is computed (identifier, function call) or ambiguous.
fn literal_ordering(arg: &str) -> Option<(&'static str, usize)> {
    let mut named = ORDERINGS.iter().enumerate().filter(|(_, o)| has_any(arg, &[o]));
    let (rank, name) = named.next()?;
    // `cas_failure_order(order)`-style computed arguments contain `(`.
    (named.next().is_none() && !arg.contains('(')).then_some((name, rank))
}

/// Every `compare_exchange(_weak)` call whose literal failure ordering is
/// stronger than its literal success ordering, as `(line, success,
/// failure)`, in source order.
fn cas_inversions(code: &Code) -> Vec<(usize, &'static str, &'static str)> {
    let text = &code.text;
    let mut calls: Vec<(usize, usize)> = ["compare_exchange", "compare_exchange_weak"]
        .iter()
        .flat_map(|name| token_offsets(text, name).map(|off| (off, off + name.len())))
        .collect();
    calls.sort_unstable();
    let mut out = Vec::new();
    for (start, end) in calls {
        let after = text[end..].trim_start();
        if !after.starts_with('(') {
            continue;
        }
        let open = text.len() - after.len();
        let args = top_level_args(&text[open + 1..match_paren(text.as_bytes(), open)]);
        let [.., success, failure] = args[..] else { continue };
        let (Some((s, sr)), Some((f, fr))) = (literal_ordering(success), literal_ordering(failure))
        else {
            continue;
        };
        if fr > sr {
            out.push((code.line_of(start), s, f));
        }
    }
    out
}

/// A call's arguments split at top-level commas, trimmed; a trailing
/// comma adds no empty argument.
fn top_level_args(args: &str) -> Vec<&str> {
    let mut depth = 0i32;
    let mut piece = 0;
    let mut out = Vec::new();
    for (i, b) in args.bytes().enumerate() {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                out.push(args[piece..i].trim());
                piece = i + 1;
            }
            _ => {}
        }
    }
    if !args[piece..].trim().is_empty() {
        out.push(args[piece..].trim());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn run(src: &str) -> Vec<Finding> {
        check_file(&FileModel::build("crates/epg-engine-x/src/lib.rs".into(), scan(src), false))
    }

    fn run_in_parallel(src: &str) -> Vec<Finding> {
        check_file(&FileModel::build("crates/epg-parallel/src/x.rs".into(), scan(src), false))
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let f = run("fn f() {\n    unsafe { g() };\n}\n");
        assert_eq!(rules_of(&f), ["safety-comment"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn safety_comment_directly_above_passes() {
        let f = run("fn f() {\n    // SAFETY: g is fine here.\n    unsafe { g() };\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn safety_comment_through_attributes_and_blanks() {
        let src = "// SAFETY: audited.\n\n#[allow(clippy::mut_from_ref)]\nunsafe fn g() {}\n";
        assert!(run_in_parallel(src).is_empty());
    }

    #[test]
    fn doc_safety_section_passes() {
        let src =
            "/// Does things.\n///\n/// # Safety\n/// Caller checks i.\npub unsafe fn f() {}\n";
        assert!(run_in_parallel(src).is_empty());
    }

    #[test]
    fn trailing_same_line_safety_passes() {
        let f = run("let x = unsafe { g() }; // SAFETY: single-threaded here.\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn intervening_code_breaks_the_safety_link() {
        let src = "// SAFETY: stale comment.\nlet a = 1;\nunsafe { g() };\n";
        assert_eq!(rules_of(&run(src)), ["safety-comment"]);
    }

    #[test]
    fn unsafe_in_comment_or_string_is_ignored() {
        let f = run("// this would be unsafe\nlet s = \"unsafe\";\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_impl_send_sync_flagged_outside_parallel() {
        let src = "// SAFETY: justified.\nunsafe impl<T: Send> Sync for W<T> {}\n";
        assert_eq!(rules_of(&run(src)), ["unsafe-impl"]);
        assert!(run_in_parallel(src).is_empty());
    }

    #[test]
    fn plain_unsafe_trait_impl_is_not_an_unsafe_impl_finding() {
        let src = "// SAFETY: contract upheld.\nunsafe impl Searcher for S {}\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn raw_ptr_named_field_flagged() {
        let src = "struct W {\n    ptr: *mut u8,\n    len: usize,\n}\n";
        let f = run(src);
        assert_eq!(rules_of(&f), ["raw-ptr-field"]);
        assert_eq!(f[0].line, 2);
        assert!(run_in_parallel(src).is_empty());
    }

    #[test]
    fn raw_ptr_tuple_field_flagged() {
        let f = run("struct C(*mut f64);\n");
        assert_eq!(rules_of(&f), ["raw-ptr-field"]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn raw_ptr_local_variable_is_fine() {
        let src = "fn f(s: &mut [u8]) {\n    let p: *mut u8 = s.as_mut_ptr();\n    drop(p);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unit_and_plain_structs_pass() {
        assert!(run("struct A;\nstruct B { x: u32 }\nstruct C(u64);\n").is_empty());
    }

    #[test]
    fn cas_failure_stronger_than_success_flagged() {
        let src = "fn f(a: &AtomicU32) {\n    let _ = a.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Acquire);\n}\n";
        let f = run(src);
        assert_eq!(rules_of(&f), ["cas-ordering"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn cas_equal_or_weaker_failure_passes() {
        let ok = [
            "a.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);",
            "a.compare_exchange_weak(0, 1, Ordering::AcqRel, Ordering::Acquire);",
            "a.compare_exchange(0, 1, Ordering::Release, Ordering::Relaxed);",
            "a.compare_exchange_weak(0, 1, Ordering::Relaxed, Ordering::Relaxed);",
        ];
        for line in ok {
            assert!(run(&format!("fn f() {{ {line} }}\n")).is_empty(), "{line}");
        }
    }

    #[test]
    fn cas_acquire_failure_needs_acquire_success() {
        let bad = "a.compare_exchange_weak(0, 1, Ordering::Release, Ordering::Acquire);";
        assert_eq!(rules_of(&run(&format!("fn f() {{ {bad} }}\n"))), ["cas-ordering"]);
    }

    #[test]
    fn cas_computed_orderings_skipped() {
        let src =
            "fn f(o: Ordering) {\n    a.compare_exchange_weak(c, n, o, cas_failure_order(o));\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn cas_multiline_call_parsed() {
        let src = "fn f() {\n    a.compare_exchange(\n        cur,\n        next,\n        Ordering::Relaxed,\n        Ordering::SeqCst,\n    );\n}\n";
        let f = run(src);
        assert_eq!(rules_of(&f), ["cas-ordering"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn static_mut_flagged_everywhere() {
        let src = "static mut COUNTER: u32 = 0;\n";
        assert_eq!(rules_of(&run(src)), ["static-mut"]);
        assert_eq!(rules_of(&run_in_parallel(src)), ["static-mut"]);
    }

    #[test]
    fn plain_static_passes() {
        assert!(run("static N: u32 = 0;\nfn f(x: &'static str) {}\n").is_empty());
    }

    #[test]
    fn findings_render_file_line_rule() {
        let f = run("fn f() { unsafe { g() } }\n");
        let s = f[0].to_string();
        assert!(s.starts_with("crates/epg-engine-x/src/lib.rs:1: [safety-comment]"), "{s}");
    }
}
