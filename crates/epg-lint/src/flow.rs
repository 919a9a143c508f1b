//! The `concurrency` rule family: an intraprocedural dataflow pass over
//! the token model ([`crate::model`]).
//!
//! `DisjointWriter`'s debug-build shadow table and the `CancelToken`
//! enforce the parallel invariants *dynamically and by convention*; this
//! module is their static twin. It walks identifier def/use inside the two
//! span kinds the model extracts — engine **iteration loops** (the
//! per-round loop every engine closes with `log.iteration(…)`, which also
//! polls the cancel token) and **worker closures** (arguments to the
//! `epg-parallel` entry points) — and proves two invariants at lint time.
//! (Direct assignment to captured state needs no rule: every pool entry
//! point takes `F: Fn + Sync`, so `rustc` rejects it with E0594.)
//!
//! * `atomic-ordering` — extends the `cas-ordering` line rule with the
//!   sites it cannot see: `SeqCst` in hot loop bodies (and anywhere in the
//!   `epg-parallel` substrate, which must audit every use), and `Relaxed`
//!   loads of cross-thread *flags* outside the audited `CancelToken` fast
//!   path.
//! * `hot-loop-alloc` — no push-growth of captured vectors inside timed
//!   loop bodies or worker closures: allocation inside the measured region
//!   skews the engine comparison (the SoK's "hidden work" fault class).
//!   The rule's token half (`Vec::new`/`vec!`/`collect`/…) is a row of
//!   the call-graph table ([`crate::callgraph`]), since it needs no
//!   bindings.
//!
//! The def/use analysis is deliberately token-level and line-local, like
//! the rest of the linter: **defs** are closure parameters, `let` pattern
//! bindings, and `for` bindings inside the span; **uses** are grow-method
//! receivers. Place expressions that pass through a call
//! (`frontier.lock().append(…)`) are API-mediated by definition and out of
//! scope here. Known blind spot: multi-line place chains, absent from the
//! workspace idiom.

use crate::arch::{is_engine_crate, layer_of};
use crate::model::{FileModel, Workspace};
use crate::rules::Finding;
use crate::scan::{find_word_from, is_ident_byte};

/// Stable rule id: over- or under-strong atomic orderings on hot paths.
pub const RULE_ORDERING: &str = "atomic-ordering";

/// Stable rule id: allocation inside timed loops or worker closures.
pub const RULE_ALLOC: &str = "hot-loop-alloc";

/// The audited lock-free fast path the `Relaxed`-flag check must not
/// flag: `CancelToken::is_cancelled` deliberately reads its deadline word
/// `Relaxed` (the Acquire load of the latched flag is the ordering
/// anchor; see the module docs of `epg-parallel/src/cancel.rs`).
const AUDITED_RELAXED_FILES: &[&str] = &["crates/epg-parallel/src/cancel.rs"];

/// Methods that grow their receiver — flagged when the receiver is a
/// captured (non-span-local) place.
const GROWTH_TOKENS: &[&str] = &[".push(", ".extend(", ".append("];

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
        let engine = is_engine_crate(&c.name);
        for f in &c.files {
            if f.test_role {
                continue;
            }
            check_ordering(f, &c.name, out);
            if engine {
                check_growth(f, out);
            }
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
                let Some((chain, _)) = place_chain(code, dot) else { continue };
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

/// The binding half of `hot-loop-alloc` (its token half is a row of the
/// call-graph table): a grow-method call whose receiver is a plain place
/// rooted at a captured identifier — the vector outlives the span, so
/// every iteration pays its reallocation inside the measured region.
fn check_growth(f: &FileModel, out: &mut Vec<Finding>) {
    let mut flagged: Vec<usize> = Vec::new();
    for &(s, e) in &f.hot {
        if f.in_test(s) {
            continue;
        }
        let defs = defs_in_span(f, s, e);
        for line in s..=e.min(f.lines.len()) {
            if f.in_test(line) || f.in_fn_named(line, "load_file") || flagged.contains(&line) {
                continue;
            }
            let code = &f.lines[line - 1].code;
            for tok in GROWTH_TOKENS {
                let mut from = 0;
                let mut hit = false;
                while let Some(pos) = code[from..].find(tok) {
                    let dot = from + pos;
                    from = dot + tok.len();
                    let Some((chain, has_call)) = place_chain(code, dot) else { continue };
                    if has_call {
                        continue; // `.lock().append(…)` etc.: API-mediated
                    }
                    let Some(base) = first_ident(chain) else { continue };
                    if defs.iter().any(|d| d == base) {
                        continue;
                    }
                    flagged.push(line);
                    out.push(Finding {
                        file: f.path.clone(),
                        line,
                        rule: RULE_ALLOC,
                        message: format!(
                            "push-growth of captured `{chain}` inside a timed loop or worker \
                             closure; the buffer outlives the span, so its reallocation is \
                             measured — pre-size it outside the region or collect per-worker \
                             and merge"
                        ),
                    });
                    hit = true;
                    break;
                }
                if hit {
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The line-local dataflow substrate
// ---------------------------------------------------------------------------

/// Identifiers bound inside the span: closure parameters, `let` pattern
/// bindings, and `for` bindings. Upper-cased idents (types, variants) and
/// the `mut`/`ref` keywords are never bindings.
fn defs_in_span(f: &FileModel, s: usize, e: usize) -> Vec<String> {
    let mut defs = Vec::new();
    for line in s..=e.min(f.lines.len()) {
        let code = &f.lines[line - 1].code;
        closure_params(code, &mut defs);
        let_bindings(code, &mut defs);
        for_bindings(code, &mut defs);
    }
    defs
}

/// Extracts closure parameter bindings from one line. A `|` opens a
/// closure header iff nothing, an opener (`(`, `,`, `=`, `{`, `;`, `>`),
/// or the word `move` precedes it — which is what distinguishes it from
/// bitwise-or.
fn closure_params(code: &str, out: &mut Vec<String>) {
    let b = code.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] != b'|' {
            i += 1;
            continue;
        }
        let before = code[..i].trim_end();
        let opens = before.is_empty()
            || before.ends_with(['(', ',', '=', '{', ';', '>'])
            || before.ends_with("move");
        if !opens {
            i += 1;
            continue;
        }
        if b.get(i + 1) == Some(&b'|') {
            i += 2; // `||` — parameterless closure
            continue;
        }
        let Some(close) = code[i + 1..].find('|').map(|p| i + 1 + p) else {
            return; // header split across lines: out of the line-local model
        };
        for piece in split_top_level(&code[i + 1..close], ',') {
            let pat = piece.split(':').next().unwrap_or(piece);
            binding_idents(pat, out);
        }
        i = close + 1;
    }
}

/// Extracts `let` pattern bindings from one line (covers `if let` /
/// `while let` / `let … else` heads too).
pub(crate) fn let_bindings(code: &str, out: &mut Vec<String>) {
    let mut from = 0;
    while let Some(pos) = find_word_from(code, from, "let") {
        from = pos + 3;
        let rest = &code[pos + 3..];
        let cut = rest.find(['=', ';']).unwrap_or(rest.len());
        let pat = &rest[..cut];
        // Strip a top-level type annotation (`: Vec<u32>`); `::` paths and
        // struct-pattern fields sit at bracket depth > 0 or are `::`.
        let pat = cut_type_annotation(pat);
        binding_idents(pat, out);
    }
}

/// Extracts `for <pat> in …` bindings from one line.
fn for_bindings(code: &str, out: &mut Vec<String>) {
    let mut from = 0;
    while let Some(pos) = find_word_from(code, from, "for") {
        from = pos + 3;
        let Some(inpos) = find_word_from(code, from, "in") else { continue };
        binding_idents(&code[pos + 3..inpos], out);
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

/// Splits at top-level occurrences of `sep` (depth over `()[]{}<>`).
fn split_top_level(s: &str, sep: char) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' | '>' => depth -= 1,
            c if c == sep && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
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
/// separators, and balanced `[…]`/`(…)` groups, walked backwards. The
/// bool reports whether the chain passes through a call (any paren
/// group), which marks it API-mediated.
pub(crate) fn place_chain(code: &str, end: usize) -> Option<(&str, bool)> {
    let b = code.as_bytes();
    let mut i = end;
    let mut has_call = false;
    while i > 0 {
        let c = b[i - 1];
        if is_ident_byte(c) || c == b'.' {
            i -= 1;
        } else if c == b']' || c == b')' {
            let (open, close) = if c == b']' { (b'[', b']') } else { (b'(', b')') };
            if c == b')' {
                has_call = true;
            }
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
        Some((&code[i..end], has_call))
    }
}

pub(crate) fn first_ident(s: &str) -> Option<&str> {
    let b = s.as_bytes();
    let st = b.iter().position(|&c| is_ident_byte(c))?;
    if b[st].is_ascii_digit() {
        return None;
    }
    let en = (st..b.len()).find(|&i| !is_ident_byte(b[i])).unwrap_or(b.len());
    Some(&s[st..en])
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

    /// Both halves of `hot-loop-alloc` (the token row, then the growth
    /// pass), in the order `lint_workspace` runs them.
    fn run(c: CrateModel) -> Vec<Finding> {
        let ws = Workspace { crates: vec![c] };
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

    // --- hot-loop-alloc ---------------------------------------------------

    #[test]
    fn alloc_in_worker_closure_is_flagged() {
        let src = "fn kernel(pool: &P) {\n    pool.parallel_for(8, s, |v| {\n        let mut local: Vec<u32> = Vec::new();\n        local.push(v);\n    });\n}\n";
        let f = run(krate("epg-engine-gap", "bfs.rs", src));
        assert_eq!(rules_of(&f), [RULE_ALLOC]);
        assert_eq!(f[0].line, 3, "{f:?}");
    }

    #[test]
    fn collect_in_iteration_loop_is_flagged() {
        let src = "fn run(pool: &P, rec: &mut R, n: usize) {\n    while n > 0 {\n        if pool.is_cancelled() {\n            break;\n        }\n        let prev: Vec<u32> = (0..n).collect();\n        drop(prev);\n        rec.iteration(0);\n    }\n}\n";
        let f = run(krate("epg-engine-gap", "pr.rs", src));
        assert_eq!(rules_of(&f), [RULE_ALLOC]);
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn alloc_in_untimed_loops_passes() {
        let src = "fn build(xs: &[u32]) -> Vec<Vec<u32>> {\n    let mut out = Vec::new();\n    for &x in xs {\n        out.push(vec![x]);\n    }\n    out\n}\n";
        assert!(run(krate("epg-engine-gap", "builder.rs", src)).is_empty());
    }

    #[test]
    fn push_to_captured_vector_is_flagged() {
        let src = "fn run(pool: &P, rec: &mut R, levels: &mut Vec<u32>) {\n    loop {\n        if pool.is_cancelled() {\n            break;\n        }\n        levels.push(1);\n        rec.iteration(0);\n    }\n}\n";
        let f = run(krate("epg-engine-gap", "bc.rs", src));
        assert_eq!(rules_of(&f), [RULE_ALLOC]);
        assert_eq!(f[0].line, 6);
        assert!(f[0].message.contains("push-growth"), "{}", f[0].message);
    }

    #[test]
    fn push_to_span_local_vector_passes_growth_but_not_alloc() {
        // The `Vec::new()` allocation is flagged; the push to the local it
        // creates is not a *second* finding.
        let src = "fn run(pool: &P, rec: &mut R) {\n    loop {\n        if pool.is_cancelled() {\n            break;\n        }\n        let mut next = Vec::new();\n        next.push(1);\n        drop(next);\n        rec.iteration(0);\n    }\n}\n";
        let f = run(krate("epg-engine-gap", "bfs.rs", src));
        assert_eq!(rules_of(&f), [RULE_ALLOC]);
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn closure_param_and_for_bindings_are_defs() {
        // Growth of a closure parameter or a `for` binding is span-local;
        // only the captured `seen` outlives the closure.
        let src = "fn kernel(pool: &P, seen: &mut Vec<u32>) {\n    pool.parallel_for_ranges(8, s, |buf, lo, hi| {\n        for mut q in parts(lo, hi) {\n            buf.push(lo);\n            q.push(hi);\n        }\n        seen.push(hi);\n    });\n}\n";
        let f = run(krate("epg-engine-gap", "bfs.rs", src));
        assert_eq!(rules_of(&f), [RULE_ALLOC]);
        assert_eq!(f[0].line, 7, "{f:?}");
    }

    #[test]
    fn lock_mediated_append_passes() {
        let src = "fn kernel(pool: &P, found: &Mutex<Vec<u32>>) {\n    pool.parallel_for(8, s, |v| {\n        found.lock().append(&mut Vec::from([v]));\n    });\n}\n";
        assert!(run(krate("epg-engine-gap", "bfs.rs", src)).is_empty());
    }

    #[test]
    fn load_file_helpers_are_exempt_from_alloc() {
        let src = "impl E {\n    fn load_file(&mut self, pool: &P) {\n        pool.parallel_for(8, s, |v| {\n            let chunk: Vec<u32> = Vec::new();\n            drop((chunk, v));\n        });\n    }\n}\n";
        assert!(run(krate("epg-engine-gap", "lib.rs", src)).is_empty());
    }

    // --- the dataflow substrate ------------------------------------------

    #[test]
    fn place_chains_resolve_bases_and_calls() {
        let code = "dist[v] = 1";
        let (chain, call) = place_chain(code, 7).unwrap();
        assert_eq!((chain, call), ("dist[v]", false));
        let code = "q.lock().append(x)";
        let (chain, call) = place_chain(code, 8).unwrap();
        assert_eq!((chain, call), ("q.lock()", true));
        assert_eq!(first_ident("self.levels"), Some("self"));
        assert_eq!(last_ident("self.inner.cancelled"), Some("cancelled"));
    }

    #[test]
    fn binding_extraction_covers_patterns() {
        let mut defs = Vec::new();
        let_bindings("let (mut lo, hi): (usize, usize) = r;", &mut defs);
        let_bindings("if let Some(v) = slot {", &mut defs);
        closure_params("pool.parallel_for(n, s, |w, chunk| {", &mut defs);
        for_bindings("for (u, d) in pairs {", &mut defs);
        assert_eq!(defs, ["lo", "hi", "v", "w", "chunk", "u", "d"]);
    }
}
