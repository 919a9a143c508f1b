//! The workspace model: crate DAG plus a lightweight per-file item model.
//!
//! This is the substrate every rule family runs on. It is deliberately
//! token-level — no `syn`, no full parse — built on the comment/string-aware
//! scanner ([`crate::scan`]):
//!
//! * **Crate DAG** — every workspace member's `Cargo.toml` parsed into its
//!   package name and `[dependencies]`/`[dev-dependencies]` lists, with the
//!   manifest line of each declaration (findings point at the declaration).
//! * **Per-file item model** — for every scanned `.rs` file, in a member
//!   crate or loose (files under `tests/`, `benches/`, `examples/` are
//!   marked as test-role): `fn` spans
//!   (signature through closing brace, or through `;` for trait method
//!   declarations), `#[cfg(test)]`/`#[test]` spans, iteration-loop body
//!   spans (`loop`/`while`/`for … in`), spans of arguments passed to the
//!   `epg-parallel` entry points (worker closures), and every
//!   `epg_*::`-rooted path occurrence.
//!
//! Spans are 1-based inclusive line ranges. Because the scanner blanks
//! string and char-literal contents, brace/paren matching over the code
//! text cannot be derailed by delimiters inside literals.

use crate::scan::{is_ident_byte, token_offsets, Line};
use std::path::Path;

/// The whole workspace: one entry per discovered member crate, plus the
/// files outside every member.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Member crates, in discovery order (manifest `members` order).
    pub crates: Vec<CrateModel>,
    /// Files outside every member crate (root `tests/`, `examples/`, a
    /// nested workspace such as `bench/`), in scan order. Only the line
    /// rules read them.
    pub loose: Vec<FileModel>,
}

/// One crate: manifest facts plus a model of every `.rs` file under it.
#[derive(Debug)]
pub struct CrateModel {
    /// Package name from `[package]` (e.g. `epg-engine-gap`).
    pub name: String,
    /// Workspace-relative crate directory, `/`-separated, no trailing `/`.
    pub dir: String,
    /// Workspace-relative path of the crate's `Cargo.toml`.
    pub manifest_path: String,
    /// Raw manifest lines (for allowlist `contains` matching).
    pub manifest_lines: Vec<String>,
    /// `[dependencies]` entries.
    pub deps: Vec<Dep>,
    /// `[dev-dependencies]` entries.
    pub dev_deps: Vec<Dep>,
    /// Every `.rs` file under the crate directory.
    pub files: Vec<FileModel>,
}

/// One declared dependency and the manifest line declaring it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dep {
    /// Package name as declared (dashed).
    pub name: String,
    /// 1-based line in the crate's `Cargo.toml`.
    pub line: usize,
}

/// A named span of source lines (1-based, inclusive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// First line (the one holding `fn`).
    pub start: usize,
    /// Last line (closing brace, or the `;` of a bodiless declaration).
    pub end: usize,
}

/// One `epg_*::` path-root occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathRef {
    /// Referenced crate, dashed (e.g. `epg-graph` for `epg_graph::…`).
    pub krate: String,
    /// 1-based line of the occurrence.
    pub line: usize,
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// Bare `name(…)` or module-path `mod::name(…)`.
    Free,
    /// `.name(…)` on some receiver expression.
    Method,
    /// `Type::name(…)` with an explicit capitalized qualifier (`Self`
    /// included, resolved against the enclosing impl by the call graph).
    Qualified(String),
}

/// One call site: `name(`, `.name(`, or `Type::name(` in code text.
/// Macro invocations (`name!(…)`) and `fn` definitions are excluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// Syntactic shape of the call.
    pub kind: CallKind,
    /// 1-based line of the call.
    pub line: usize,
}

/// One named struct field and the head identifier of its type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldModel {
    /// Field name.
    pub name: String,
    /// First type identifier after stripping `Arc`/`Box`/`Rc`/`Cell`/
    /// `RefCell` wrappers — so `Arc<Mutex<T>>` reads as `Mutex`.
    pub ty_head: String,
    /// 1-based line of the field declaration.
    pub line: usize,
}

/// One `struct` item with named fields (tuple and unit structs carry no
/// lock state the locking rules can name, so they are modeled fieldless).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructModel {
    /// Struct name.
    pub name: String,
    /// Named fields, in declaration order.
    pub fields: Vec<FieldModel>,
    /// First line (the one holding `struct`).
    pub start: usize,
    /// Last line (closing brace or `;`).
    pub end: usize,
    /// Byte offsets in the file's joined code text of the delimiters of
    /// the `{…}` or `(…)` body; `None` for a unit struct.
    pub(crate) body: Option<(usize, usize)>,
}

/// The item model of one source file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Scanner output, one entry per source line.
    pub lines: Vec<Line>,
    /// Whether the file lives under `tests/`, `benches/`, or `examples/`
    /// of its crate — test-role code exempt from the runtime-discipline
    /// rules.
    pub test_role: bool,
    /// Every `fn` item span (including nested fns and trait-method
    /// declarations).
    pub fns: Vec<FnSpan>,
    /// Spans covered by `#[cfg(test)]` items or `#[test]` functions.
    pub test_spans: Vec<(usize, usize)>,
    /// Iteration-loop body spans (`loop`, `while`, `for … in`).
    pub loops: Vec<(usize, usize)>,
    /// Spans of complete argument lists passed to `epg-parallel` entry
    /// points (`.parallel_for(…)` etc.) — the worker-closure context.
    pub par_calls: Vec<(usize, usize)>,
    /// Timed spans: worker-closure argument spans, and loops that call
    /// `.iteration(` (`RunLog::iteration`, how a kernel reports a round)
    /// or invoke an `epg-parallel` entry point directly.
    pub hot: Vec<(usize, usize)>,
    /// Every `epg_*::` path-root occurrence outside comments/strings.
    pub epg_refs: Vec<PathRef>,
    /// Every call site (`name(`, `.name(`, `Type::name(`) in code text.
    pub calls: Vec<CallSite>,
    /// Every `struct` item with its named fields.
    pub structs: Vec<StructModel>,
    /// `impl` block spans; `name` is the self type (`impl T` and
    /// `impl Trait for T` both yield `T`).
    pub impls: Vec<FnSpan>,
    pub(crate) code: Code,
}

impl FileModel {
    /// Builds the model for one scanned file.
    pub fn build(path: String, lines: Vec<Line>, test_role: bool) -> FileModel {
        let code = Code::new(&lines);
        let fns = parse_fns(&code);
        let test_spans = parse_test_spans(&code, &fns);
        let loops = parse_loops(&code);
        let par_calls = parse_par_calls(&code);
        let hot = hot_spans(&code, &loops, &par_calls);
        let epg_refs = parse_epg_refs(&code);
        let calls = parse_calls(&code);
        let structs = parse_structs(&code);
        let impls = parse_impls(&code);
        FileModel {
            path,
            lines,
            test_role,
            fns,
            test_spans,
            loops,
            par_calls,
            hot,
            epg_refs,
            calls,
            structs,
            impls,
            code,
        }
    }

    /// 1-based lines whose code text contains `token` (substring match
    /// with identifier boundaries at whichever ends of the token are
    /// identifier characters). Each line appears once.
    pub fn token_lines(&self, token: &str) -> Vec<usize> {
        self.first_token_per_line(token).map(|(line, _)| line).collect()
    }

    /// Each line's first occurrence of `token` (boundaries as in
    /// [`FileModel::token_lines`]): its 1-based line and the code text
    /// after it on that line.
    pub(crate) fn first_token_per_line<'a>(
        &'a self,
        token: &'a str,
    ) -> impl Iterator<Item = (usize, &'a str)> + 'a {
        let code = &self.code;
        let mut last = 0;
        token_offsets(&code.text, token).filter_map(move |off| {
            let line = code.line_of(off);
            if line == last {
                return None;
            }
            last = line;
            let rest = &code.text[off + token.len()..];
            Some((line, &rest[..rest.find('\n').unwrap_or(rest.len())]))
        })
    }

    /// Whether `line` falls inside a timed span ([`FileModel::hot`]).
    pub fn in_hot(&self, line: usize) -> bool {
        self.hot.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// Whether `line` falls inside test-only code (`#[cfg(test)]` item or
    /// `#[test]` fn) or the whole file is test-role.
    pub fn in_test(&self, line: usize) -> bool {
        self.test_role || self.test_spans.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// Whether `line` falls inside a `fn` with the given name (signature
    /// included, so trait-method declarations count).
    pub fn in_fn_named(&self, line: usize, name: &str) -> bool {
        self.fns.iter().any(|f| f.name == name && f.start <= line && line <= f.end)
    }

    /// Whether `line` falls inside an iteration-loop body or a
    /// worker-closure argument list.
    pub fn in_loop_or_worker(&self, line: usize) -> bool {
        let hit = |spans: &[(usize, usize)]| spans.iter().any(|&(s, e)| s <= line && line <= e);
        hit(&self.loops) || hit(&self.par_calls)
    }

    /// Last line of the innermost brace block open at the **start** of
    /// `line` (the line holding its closing `}`), or the file's last line
    /// when the position sits at top level. The locking rules use this to
    /// bound a lock guard's lexical scope.
    pub fn block_end(&self, line: usize) -> usize {
        let last = self.lines.len().max(1);
        let Some(&off) = self.code.starts.get(line.saturating_sub(1)) else { return last };
        let bytes = self.code.text.as_bytes();
        let mut stack: Vec<usize> = Vec::new();
        for (i, &b) in bytes.iter().enumerate().take(off) {
            match b {
                b'{' => stack.push(i),
                b'}' => {
                    stack.pop();
                }
                _ => {}
            }
        }
        match stack.last() {
            Some(&open) => self.code.line_of(match_brace(bytes, open)),
            None => last,
        }
    }
}

/// Joined code text with per-line byte offsets, for cross-line matching.
#[derive(Debug)]
pub(crate) struct Code {
    /// Every line's code text, each followed by `\n`.
    pub(crate) text: String,
    /// Byte offset in `text` where each line starts.
    pub(crate) starts: Vec<usize>,
}

impl Code {
    fn new(lines: &[Line]) -> Code {
        let mut text = String::new();
        let mut starts = Vec::with_capacity(lines.len());
        for line in lines {
            starts.push(text.len());
            text.push_str(&line.code);
            text.push('\n');
        }
        Code { text, starts }
    }

    /// 1-based line holding byte offset `off`.
    pub(crate) fn line_of(&self, off: usize) -> usize {
        match self.starts.binary_search(&off) {
            Ok(i) => i + 1,
            Err(i) => i, // insertion point; the line starting before `off`
        }
    }
}

/// Path tokens like `std::fs` must not match inside `my::std::fs` — treat
/// a preceding `:` as an identifier continuation too.
fn is_ident_byte_or_colon(b: u8) -> bool {
    is_ident_byte(b) || b == b':'
}

/// Offset of the `}` closing the `{` at `open` (balanced count; literals
/// are already blanked). Falls back to the end of text.
fn match_brace(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    bytes.len().saturating_sub(1)
}

/// Offset of the `)` closing the `(` at `open`.
pub(crate) fn match_paren(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    bytes.len().saturating_sub(1)
}

fn parse_fns(code: &Code) -> Vec<FnSpan> {
    let text = &code.text;
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for pos in token_offsets(text, "fn") {
        let mut i = pos + 2;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let ident_start = i;
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
        if i == ident_start {
            continue; // `fn(...)` pointer type — not an item
        }
        let name = text[ident_start..i].to_string();
        // Scan past generics/params/return type for the body `{` or the
        // `;` of a bodiless declaration, at bracket depth 0.
        let mut paren = 0i64;
        let mut brack = 0i64;
        let mut j = i;
        let mut end = None;
        while j < bytes.len() {
            match bytes[j] {
                b'(' => paren += 1,
                b')' => paren -= 1,
                b'[' => brack += 1,
                b']' => brack -= 1,
                b'{' if paren == 0 && brack == 0 => {
                    end = Some(match_brace(bytes, j));
                    break;
                }
                b';' if paren == 0 && brack == 0 => {
                    end = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let end = end.unwrap_or(bytes.len().saturating_sub(1));
        out.push(FnSpan { name, start: code.line_of(pos), end: code.line_of(end) });
    }
    out
}

fn parse_test_spans(code: &Code, fns: &[FnSpan]) -> Vec<(usize, usize)> {
    let text = &code.text;
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for attr in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0;
        while let Some(pos) = text[from..].find(attr) {
            let start = from + pos;
            from = start + attr.len();
            let attr_line = code.line_of(start);
            // Skip whitespace, further attributes, and visibility to find
            // the annotated item.
            let mut i = start + attr.len();
            loop {
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                if i + 1 < bytes.len() && bytes[i] == b'#' && bytes[i + 1] == b'[' {
                    // Another attribute: skip to its closing bracket.
                    let mut depth = 0i64;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'[' => depth += 1,
                            b']' => {
                                depth -= 1;
                                if depth == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                    continue;
                }
                break;
            }
            // Optional `pub` / `pub(crate)`.
            if text[i..].starts_with("pub") {
                i += 3;
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'(' {
                    i = match_paren(bytes, i) + 1;
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                }
            }
            let word_end =
                (i..bytes.len()).find(|&k| !is_ident_byte(bytes[k])).unwrap_or(bytes.len());
            match &text[i..word_end] {
                "mod" => {
                    if let Some(open) = text[word_end..].find('{') {
                        let close = match_brace(bytes, word_end + open);
                        out.push((attr_line, code.line_of(close)));
                    }
                }
                "fn" => {
                    if let Some(f) = fns.iter().find(|f| f.start >= attr_line) {
                        out.push((attr_line, f.end));
                    }
                }
                _ => {
                    // `#[cfg(test)] use …;` and the like: the item's line.
                    out.push((attr_line, code.line_of(i.min(bytes.len() - 1))));
                }
            }
        }
    }
    out.sort_unstable();
    out
}

fn parse_loops(code: &Code) -> Vec<(usize, usize)> {
    let text = &code.text;
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for kw in ["loop", "while", "for"] {
        for pos in token_offsets(text, kw) {
            let mut i = pos + kw.len();
            // `for<'a>` (higher-ranked bounds) is not a loop.
            if kw == "for" {
                let mut k = i;
                while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                if k < bytes.len() && bytes[k] == b'<' {
                    continue;
                }
            }
            // Find the body `{` at paren/bracket depth 0; a `for` must
            // pass a top-level `in` first (rules out `impl Trait for T`).
            let mut paren = 0i64;
            let mut brack = 0i64;
            let mut saw_in = kw != "for";
            let mut open = None;
            while i < bytes.len() {
                match bytes[i] {
                    b'(' => paren += 1,
                    b')' => paren -= 1,
                    b'[' => brack += 1,
                    b']' => brack -= 1,
                    b'{' if paren == 0 && brack == 0 => {
                        open = Some(i);
                        break;
                    }
                    b';' | b'}' if paren == 0 && brack == 0 => break,
                    b'i' if paren == 0
                        && brack == 0
                        && text[i..].starts_with("in")
                        && !is_ident_byte(*bytes.get(i + 2).unwrap_or(&b' '))
                        && (i == 0 || !is_ident_byte(bytes[i - 1])) =>
                    {
                        saw_in = true;
                    }
                    _ => {}
                }
                i += 1;
            }
            if let (Some(open), true) = (open, saw_in) {
                let close = match_brace(bytes, open);
                out.push((code.line_of(pos), code.line_of(close)));
            }
        }
    }
    out.sort_unstable();
    out
}

/// The `epg-parallel` entry points whose closure arguments are worker
/// code (plus `Partial::collect`, epg-engine-api's fixed-shape form of
/// `parallel_reduce_ranges`). Token-level: a call to any method with one
/// of these names counts.
pub(crate) const PAR_ENTRY_POINTS: &[&str] = &[
    ".region(",
    ".parallel_for(",
    ".parallel_for_ranges(",
    ".parallel_reduce(",
    ".parallel_reduce_ranges(",
    ".reduce_ranges(",
    "Partial::collect(",
    ".parallel_sum_f64(",
    ".parallel_any(",
    ".parallel_max_f64(",
];

/// Every entry-point call in `text` as `(start offset, offset of its
/// '(', entry point)`. A turbofish may follow any segment of the path, so
/// `Partial::<()>::collect(` and `.parallel_for::<F>(` match too.
pub(crate) fn par_entries(text: &str) -> Vec<(usize, usize, &'static str)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for &tok in PAR_ENTRY_POINTS {
        // The first path segment is literal; matching resumes from it.
        let head = &tok[..1 + tok[1..].find([':', '(']).unwrap_or(tok.len() - 1)];
        let mut from = 0;
        while let Some(pos) = text[from..].find(head) {
            let start = from + pos;
            from = start + head.len();
            if let Some(open) = match_entry(bytes, start, tok.as_bytes()) {
                out.push((start, open, tok));
            }
        }
    }
    out
}

/// Offset of the `(` ending entry point `tok` matched at `i`; a `::<…>`
/// turbofish may sit before any `::` or `(` of the path.
fn match_entry(b: &[u8], mut i: usize, tok: &[u8]) -> Option<usize> {
    for &t in tok {
        if matches!(t, b':' | b'(') && b[i..].starts_with(b"::<") {
            let mut depth = 0;
            let close = b[i + 2..].iter().position(|&c| {
                depth += i32::from(c == b'<') - i32::from(c == b'>');
                depth == 0
            })?;
            i += close + 3;
        }
        if b.get(i) != Some(&t) {
            return None;
        }
        i += 1;
    }
    Some(i - 1)
}

fn parse_par_calls(code: &Code) -> Vec<(usize, usize)> {
    let bytes = code.text.as_bytes();
    let mut out: Vec<(usize, usize)> = par_entries(&code.text)
        .into_iter()
        .map(|(start, open, _)| (code.line_of(start), code.line_of(match_paren(bytes, open))))
        .collect();
    out.sort_unstable();
    out
}

fn hot_spans(
    code: &Code,
    loops: &[(usize, usize)],
    par_calls: &[(usize, usize)],
) -> Vec<(usize, usize)> {
    let marks: Vec<usize> =
        token_offsets(&code.text, ".iteration(").map(|off| code.line_of(off)).collect();
    let marked = |s: usize, e: usize| {
        marks.iter().copied().chain(par_calls.iter().map(|&(l, _)| l)).any(|l| s <= l && l <= e)
    };
    let mut spans: Vec<(usize, usize)> =
        loops.iter().copied().filter(|&(s, e)| marked(s, e)).collect();
    spans.extend_from_slice(par_calls);
    spans.sort_unstable();
    spans.dedup();
    spans
}

fn parse_epg_refs(code: &Code) -> Vec<PathRef> {
    let text = &code.text;
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find("epg_") {
        let start = from + pos;
        from = start + 4;
        if start > 0 && is_ident_byte_or_colon(bytes[start - 1]) {
            continue;
        }
        let mut end = start + 4;
        while end < bytes.len() && is_ident_byte(bytes[end]) {
            end += 1;
        }
        if !text[end..].starts_with("::") {
            continue; // a local identifier that merely starts with epg_
        }
        out.push(PathRef { krate: text[start..end].replace('_', "-"), line: code.line_of(start) });
    }
    out
}

/// Words that can directly precede `(` without being a call.
const CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "unsafe", "let", "pub", "fn", "impl", "use", "mod", "where", "struct", "enum", "trait",
    "type", "dyn", "ref", "mut", "crate", "super", "self", "Self",
];

fn parse_calls(code: &Code) -> Vec<CallSite> {
    let text = &code.text;
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for (j, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        let mut s = j;
        while s > 0 && is_ident_byte(bytes[s - 1]) {
            s -= 1;
        }
        if s == j {
            continue; // `(` not preceded by an identifier
        }
        let name = &text[s..j];
        if CALL_KEYWORDS.contains(&name) {
            continue;
        }
        let prev = if s > 0 { bytes[s - 1] } else { b'\n' };
        if prev == b'!' {
            continue; // macro invocation
        }
        // `fn name(` is a definition, not a call.
        let mut k = s;
        while k > 0 && bytes[k - 1].is_ascii_whitespace() {
            k -= 1;
        }
        if text[..k].ends_with("fn") && (k < 3 || !is_ident_byte(bytes[k - 3])) {
            continue;
        }
        let kind = if prev == b'.' {
            CallKind::Method
        } else if s >= 2 && bytes[s - 1] == b':' && bytes[s - 2] == b':' {
            let mut q = s - 2;
            while q > 0 && is_ident_byte(bytes[q - 1]) {
                q -= 1;
            }
            let qual = &text[q..s - 2];
            // Capitalized qualifier = a type (`Flight::new`); lowercase =
            // a module path (`check::next_id`), resolved like a free call.
            if qual.starts_with(|c: char| c.is_ascii_uppercase()) || qual == "Self" {
                CallKind::Qualified(qual.to_string())
            } else {
                CallKind::Free
            }
        } else {
            CallKind::Free
        };
        out.push(CallSite { name: name.to_string(), kind, line: code.line_of(s) });
    }
    out
}

/// Smart-pointer wrappers stripped when reading a field's type head.
const TYPE_WRAPPERS: &[&str] = &["Arc", "Box", "Rc", "Cell", "RefCell"];

/// First meaningful type identifier of a field type: skips `&`/`dyn`/
/// `mut`, then unwraps `Arc<…>`-style wrappers one level at a time.
fn type_head(mut ty: &str) -> String {
    loop {
        ty = ty.trim_start().trim_start_matches('&').trim_start();
        for kw in ["dyn ", "mut "] {
            if let Some(rest) = ty.strip_prefix(kw) {
                ty = rest;
            }
        }
        ty = ty.trim_start();
        let end = ty.find(|c: char| !c.is_ascii_alphanumeric() && c != '_').unwrap_or(ty.len());
        let head = &ty[..end];
        let rest = ty[end..].trim_start();
        if TYPE_WRAPPERS.contains(&head) && rest.starts_with('<') {
            ty = &rest[1..];
            continue;
        }
        return head.to_string();
    }
}

fn parse_structs(code: &Code) -> Vec<StructModel> {
    let text = &code.text;
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for pos in token_offsets(text, "struct") {
        let mut i = pos + 6;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
        if i == name_start {
            continue;
        }
        let name = text[name_start..i].to_string();
        // Walk to the body `{` at angle-bracket depth 0; `(` (tuple) and
        // `;` (unit) end the item without named fields.
        let mut angle = 0i64;
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'<' => angle += 1,
                b'>' => angle -= 1,
                b'{' if angle <= 0 => {
                    open = Some(i);
                    break;
                }
                b'(' | b';' if angle <= 0 => break,
                _ => {}
            }
            i += 1;
        }
        let start = code.line_of(pos);
        let Some(open) = open else {
            let body = (bytes.get(i) == Some(&b'(')).then(|| (i, match_paren(bytes, i)));
            let end = code.line_of(i.min(bytes.len().saturating_sub(1)));
            out.push(StructModel { name, fields: Vec::new(), start, end, body });
            continue;
        };
        let close = match_brace(bytes, open);
        let fields = parse_fields(code, open + 1, close);
        let end = code.line_of(close);
        out.push(StructModel { name, fields, start, end, body: Some((open, close)) });
    }
    out
}

/// Parses `name: Type` declarations between `lo` and `hi` byte offsets
/// (a struct body), splitting on top-level commas.
fn parse_fields(code: &Code, lo: usize, hi: usize) -> Vec<FieldModel> {
    let text = &code.text;
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut piece_start = lo;
    let mut i = lo;
    while i <= hi {
        let b = if i < hi { bytes[i] } else { b',' };
        match b {
            b'(' | b'[' | b'{' | b'<' => depth += 1,
            b')' | b']' | b'}' | b'>' => depth -= 1,
            b',' if depth <= 0 => {
                if let Some(f) = parse_field(code, &text[piece_start..i], piece_start) {
                    out.push(f);
                }
                piece_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

fn parse_field(code: &Code, piece: &str, off: usize) -> Option<FieldModel> {
    let mut rest = piece;
    // Skip attributes and visibility.
    loop {
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix("#[") {
            let close = after.find(']')?;
            rest = &after[close + 1..];
            continue;
        }
        if let Some(after) = rest.strip_prefix("pub") {
            if after.starts_with(|c: char| c.is_whitespace() || c == '(') {
                let after = after.trim_start();
                rest = match after.strip_prefix('(') {
                    Some(inner) => &inner[inner.find(')')? + 1..],
                    None => after,
                };
                continue;
            }
        }
        break;
    }
    let name_end = rest.find(|c: char| !c.is_ascii_alphanumeric() && c != '_')?;
    let name = &rest[..name_end];
    let after = rest[name_end..].trim_start();
    let ty = after.strip_prefix(':')?;
    if name.is_empty() || ty.starts_with(':') {
        return None; // empty piece or a `path::to` fragment, not `name: Ty`
    }
    let line_off = off + (piece.len() - piece.trim_start().len());
    Some(FieldModel {
        name: name.to_string(),
        ty_head: type_head(ty),
        line: code.line_of(line_off),
    })
}

fn parse_impls(code: &Code) -> Vec<FnSpan> {
    let text = &code.text;
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for pos in token_offsets(text, "impl") {
        // `-> impl Trait` / `(impl Trait` are types, not items.
        let mut p = pos;
        while p > 0 && bytes[p - 1].is_ascii_whitespace() {
            p -= 1;
        }
        if p > 0 && matches!(bytes[p - 1], b'>' | b'(' | b',' | b'=' | b'+' | b':' | b'&') {
            continue;
        }
        let mut i = pos + 4;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        // Skip the impl's own generics.
        if i < bytes.len() && bytes[i] == b'<' {
            let mut angle = 0i64;
            while i < bytes.len() {
                match bytes[i] {
                    b'<' => angle += 1,
                    b'>' => {
                        angle -= 1;
                        if angle == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        // Head text runs to the body `{` at angle depth 0.
        let head_start = i;
        let mut angle = 0i64;
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'<' => angle += 1,
                b'>' => angle -= 1,
                b'{' if angle <= 0 => {
                    open = Some(i);
                    break;
                }
                b';' if angle <= 0 => break,
                _ => {}
            }
            i += 1;
        }
        let Some(open) = open else { continue };
        let head = &text[head_start..open];
        let ty_text = match head.split(" for ").nth(1) {
            Some(after_for) => after_for,
            None => head,
        };
        let ty_text = ty_text.split("where").next().unwrap_or(ty_text);
        let name = type_head(ty_text.rsplit("::").next().unwrap_or(ty_text));
        if name.is_empty() {
            continue;
        }
        let close = match_brace(bytes, open);
        out.push(FnSpan { name, start: code.line_of(pos), end: code.line_of(close) });
    }
    out
}

// ---------------------------------------------------------------------------
// Manifest parsing and crate discovery
// ---------------------------------------------------------------------------

impl Workspace {
    /// Discovers every member crate under `root` and models every file of
    /// `scanned` — the tree's `.rs` files as `lint_workspace` scanned them
    /// once, each a workspace-relative `/`-separated path and its lines.
    ///
    /// Reads `root/Cargo.toml`: a `[workspace]` `members` list (literal
    /// paths and trailing-`/*` globs) yields one crate per member with a
    /// `Cargo.toml`; a bare `[package]` manifest yields the root itself
    /// as the only crate. A missing or memberless manifest yields no
    /// crates. Each file's model goes to the innermost member crate
    /// holding it, or to [`Workspace::loose`] when no member does. A file
    /// under a `tests/`, `benches/` or `examples/` directory of its crate
    /// (of the root, for a loose file) is test-role.
    pub fn load(root: &Path, scanned: impl IntoIterator<Item = (String, Vec<Line>)>) -> Workspace {
        let mut ws = Workspace::default();
        if let Ok(top) = std::fs::read_to_string(root.join("Cargo.toml")) {
            let mut dirs = member_dirs(&top, root);
            if dirs.is_empty() && top.contains("[package]") {
                dirs.push(String::new()); // the root itself is the crate
            }
            ws.crates = dirs.iter().filter_map(|dir| load_crate(root, dir)).collect();
        }
        for (path, lines) in scanned {
            // The innermost owner leaves the shortest crate-relative path.
            let (owner, rel) = ws
                .crates
                .iter()
                .enumerate()
                .filter_map(|(i, c)| Some((Some(i), crate_relative(&c.dir, &path)?)))
                .min_by_key(|&(_, rel)| rel.len())
                .unwrap_or((None, &path));
            let test_role = ["tests/", "benches/", "examples/"]
                .iter()
                .any(|p| rel.starts_with(p) || rel.contains(&format!("/{p}")));
            let model = FileModel::build(path, lines, test_role);
            owner.map_or(&mut ws.loose, |i| &mut ws.crates[i].files).push(model);
        }
        ws
    }

    /// Every modeled file: the member crates' in crate order, then the
    /// loose ones.
    pub fn files(&self) -> impl Iterator<Item = &FileModel> {
        self.crates.iter().flat_map(|c| &c.files).chain(&self.loose)
    }
}

/// `path` relative to the crate directory `dir`, when the file is inside it.
fn crate_relative<'a>(dir: &str, path: &'a str) -> Option<&'a str> {
    if dir.is_empty() {
        return Some(path);
    }
    path.strip_prefix(dir)?.strip_prefix('/')
}

/// Expands the `[workspace] members = […]` list into crate directories
/// (workspace-relative, `/`-separated). Only trailing `/*` globs are
/// supported — the only form the workspace uses.
fn member_dirs(top: &str, root: &Path) -> Vec<String> {
    let mut members: Vec<String> = Vec::new();
    let mut in_members = false;
    for raw in top.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if !in_members {
            if line.starts_with("members") && line.contains('=') {
                in_members = true;
            } else {
                continue;
            }
        }
        for piece in line.split('"').skip(1).step_by(2) {
            members.push(piece.to_string());
        }
        if line.contains(']') {
            break;
        }
    }
    let mut dirs = Vec::new();
    for m in members {
        if let Some(prefix) = m.strip_suffix("/*") {
            let Ok(entries) = std::fs::read_dir(root.join(prefix)) else { continue };
            let mut found: Vec<String> = entries
                .flatten()
                .filter(|e| e.path().join("Cargo.toml").is_file())
                .map(|e| format!("{}/{}", prefix, e.file_name().to_string_lossy()))
                .collect();
            found.sort();
            dirs.extend(found);
        } else if root.join(&m).join("Cargo.toml").is_file() {
            dirs.push(m);
        }
    }
    dirs
}

/// Manifest sections whose keys are dependency declarations.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ManifestSection {
    Deps,
    DevDeps,
    Other,
}

fn load_crate(root: &Path, dir: &str) -> Option<CrateModel> {
    let manifest_path =
        if dir.is_empty() { "Cargo.toml".to_string() } else { format!("{dir}/Cargo.toml") };
    let text = std::fs::read_to_string(root.join(&manifest_path)).ok()?;

    let mut name = String::new();
    let mut deps = Vec::new();
    let mut dev_deps = Vec::new();
    let mut section = ManifestSection::Other;
    let mut in_package = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            section = match line {
                "[dependencies]" => ManifestSection::Deps,
                "[dev-dependencies]" => ManifestSection::DevDeps,
                _ => ManifestSection::Other,
            };
            in_package = line == "[package]";
            continue;
        }
        if in_package && name.is_empty() {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    name = v.trim().trim_matches('"').to_string();
                }
            }
        }
        if section == ManifestSection::Other || line.is_empty() {
            continue;
        }
        // `foo = …`, `foo.workspace = true`: the dep name is the key up
        // to the first `.`, `=`, or whitespace.
        let key: String =
            line.chars().take_while(|&c| c != '.' && c != '=' && !c.is_whitespace()).collect();
        if key.is_empty() {
            continue;
        }
        let dep = Dep { name: key, line: idx + 1 };
        match section {
            ManifestSection::Deps => deps.push(dep),
            ManifestSection::DevDeps => dev_deps.push(dep),
            ManifestSection::Other => {}
        }
    }
    if name.is_empty() {
        return None;
    }
    Some(CrateModel {
        name,
        dir: dir.to_string(),
        manifest_path,
        manifest_lines: text.lines().map(str::to_string).collect(),
        deps,
        dev_deps,
        files: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn file(src: &str) -> FileModel {
        FileModel::build("crates/epg-x/src/lib.rs".into(), scan(src), false)
    }

    #[test]
    fn fn_spans_cover_signature_and_body() {
        let f = file("fn alpha(x: u32) -> u32 {\n    x + 1\n}\n\nfn beta() {}\n");
        assert_eq!(f.fns.len(), 2);
        assert_eq!((f.fns[0].name.as_str(), f.fns[0].start, f.fns[0].end), ("alpha", 1, 3));
        assert_eq!((f.fns[1].name.as_str(), f.fns[1].start, f.fns[1].end), ("beta", 5, 5));
    }

    #[test]
    fn bodiless_trait_method_spans_its_signature() {
        let src =
            "trait T {\n    fn load_file(\n        &mut self,\n    ) -> std::io::Result<()>;\n}\n";
        let f = file(src);
        let lf = f.fns.iter().find(|s| s.name == "load_file").unwrap();
        assert_eq!((lf.start, lf.end), (2, 4));
        assert!(f.in_fn_named(4, "load_file"));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let f = file("type F = fn(usize) -> bool;\nstruct S(fn());\n");
        assert!(f.fns.is_empty(), "{:?}", f.fns);
    }

    #[test]
    fn multiline_params_with_closures_resolve_body() {
        let src = "fn outer<F: Fn(usize) -> bool>(\n    f: F,\n) -> bool {\n    f(1)\n}\n";
        let f = file(src);
        assert_eq!((f.fns[0].start, f.fns[0].end), (1, 5));
    }

    #[test]
    fn cfg_test_mod_is_a_test_span() {
        let src = "fn real() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        x.unwrap();\n    }\n}\n";
        let f = file(src);
        assert!(!f.in_test(1));
        assert!(f.in_test(7));
    }

    #[test]
    fn test_attr_fn_is_a_test_span() {
        let src = "#[test]\nfn check() {\n    y.unwrap();\n}\nfn real() {}\n";
        let f = file(src);
        assert!(f.in_test(3));
        assert!(!f.in_test(5));
    }

    #[test]
    fn loop_while_for_bodies_are_spans() {
        let src = "fn f(xs: &[u32]) {\n    loop {\n        break;\n    }\n    while xs.len() > 0 {\n        g();\n    }\n    for x in xs {\n        h(x);\n    }\n}\n";
        let f = file(src);
        assert_eq!(f.loops, vec![(2, 4), (5, 7), (8, 10)]);
        assert!(f.in_loop_or_worker(3));
        assert!(!f.in_loop_or_worker(1));
    }

    #[test]
    fn impl_for_and_hrtb_are_not_loops() {
        let src = "impl Clone for Foo {\n    fn clone(&self) -> Foo {\n        Foo\n    }\n}\nfn g<F>(f: F)\nwhere\n    for<'a> F: Fn(&'a u32),\n{\n}\n";
        let f = file(src);
        assert!(f.loops.is_empty(), "{:?}", f.loops);
    }

    #[test]
    fn parallel_call_args_are_worker_spans() {
        let src = "fn f(pool: &ThreadPool) {\n    pool.parallel_for(n, sched, |v| {\n        out[v] = 1;\n    });\n    plain();\n}\n";
        let f = file(src);
        assert_eq!(f.par_calls, vec![(2, 4)]);
        assert!(f.in_loop_or_worker(3));
        assert!(!f.in_loop_or_worker(5));
        // A turbofish after any path segment is still the entry point.
        let src = "fn f(pool: &ThreadPool) {\n    let p = Partial::<()>::collect(pool, n, s, |lo, hi| {\n        send(lo, hi)\n    });\n    pool.parallel_for::<F>(n, s, |v| {\n        out[v] = 1;\n    });\n    plain();\n}\n";
        let f = file(src);
        assert_eq!(f.par_calls, vec![(2, 4), (5, 7)]);
        assert!(f.in_loop_or_worker(3) && f.in_loop_or_worker(6) && f.in_hot(3));
        assert!(!f.in_loop_or_worker(8));
    }

    #[test]
    fn reduce_entry_points_are_worker_spans_too() {
        // The step protocol's way out of a region: closures passed to
        // `parallel_reduce_ranges`, to `Partial::collect` (its
        // `(found, edges, max_degree)` form) and to
        // `WorkerBitmaps::reduce_ranges` are worker code.
        let src = "fn f(pool: &ThreadPool) {\n    let a = pool.parallel_reduce_ranges(n, s, id, |lo, hi| {\n        work(lo, hi)\n    }, add);\n    let b = Partial::collect(pool, n, s, |lo, hi| {\n        expand(lo, hi)\n    });\n    let c = marks.reduce_ranges(pool, n, s, id, |lo, hi| {\n        scatter(lo, hi)\n    }, add);\n    plain();\n}\n";
        let f = file(src);
        assert_eq!(f.par_calls, vec![(2, 4), (5, 7), (8, 10)]);
        assert!(f.in_loop_or_worker(3) && f.in_loop_or_worker(6) && f.in_loop_or_worker(9));
        assert!(!f.in_loop_or_worker(11));
    }

    #[test]
    fn epg_refs_require_path_sep_and_skip_strings() {
        let src = "use epg_graph::Csr;\nlet epg_out = 1;\nlet s = \"epg_harness::x\";\nepg_trace::Event::new();\n";
        let f = file(src);
        let got: Vec<(String, usize)> =
            f.epg_refs.iter().map(|r| (r.krate.clone(), r.line)).collect();
        assert_eq!(got, vec![("epg-graph".into(), 1), ("epg-trace".into(), 4)]);
    }

    #[test]
    fn token_lines_dedup_and_respect_boundaries() {
        let src = "a.unwrap(); b.unwrap();\nmy_unwrap();\nstd::fs::read(x);\nnot_std::fs();\n";
        let f = file(src);
        assert_eq!(f.token_lines(".unwrap()"), vec![1]);
        assert_eq!(f.token_lines("std::fs"), vec![3], "prefix `not_std::fs` must not match");
    }

    #[test]
    fn call_sites_classify_free_method_and_qualified() {
        let src = "fn f(x: &X) {\n    helper(1);\n    x.compute(2);\n    Flight::new();\n    std::mem::drop(x);\n    check::next_id();\n    println!(\"skip\");\n    Self::reset();\n}\n";
        let f = file(src);
        let got: Vec<(&str, CallKind, usize)> =
            f.calls.iter().map(|c| (c.name.as_str(), c.kind.clone(), c.line)).collect();
        assert_eq!(
            got,
            vec![
                ("helper", CallKind::Free, 2),
                ("compute", CallKind::Method, 3),
                ("new", CallKind::Qualified("Flight".into()), 4),
                ("drop", CallKind::Free, 5),
                ("next_id", CallKind::Free, 6),
                ("reset", CallKind::Qualified("Self".into()), 8),
            ]
        );
    }

    #[test]
    fn fn_definitions_and_keywords_are_not_calls() {
        let src = "pub fn alpha(x: u32) -> u32 {\n    if (x > 1) && matches!(x, 2) {\n        return beta(x);\n    }\n    x\n}\n";
        let f = file(src);
        let names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["beta"]);
    }

    #[test]
    fn struct_fields_expose_unwrapped_type_heads() {
        let src = "pub struct Flight {\n    slot: Mutex<Option<u32>>,\n    cv: Condvar,\n    pub shared: Arc<RwLock<Vec<u8>>>,\n    n: usize,\n}\nstruct Unit;\nstruct Pair(u32, u32);\n";
        let f = file(src);
        assert_eq!(f.structs.len(), 3);
        let s = &f.structs[0];
        assert_eq!((s.name.as_str(), s.start, s.end), ("Flight", 1, 6));
        let got: Vec<(&str, &str, usize)> =
            s.fields.iter().map(|fl| (fl.name.as_str(), fl.ty_head.as_str(), fl.line)).collect();
        assert_eq!(
            got,
            vec![
                ("slot", "Mutex", 2),
                ("cv", "Condvar", 3),
                ("shared", "RwLock", 4),
                ("n", "usize", 5),
            ]
        );
        assert!(f.structs[1].fields.is_empty());
        assert!(f.structs[2].fields.is_empty());
    }

    #[test]
    fn impl_spans_name_the_self_type() {
        let src = "impl Flight {\n    fn new() -> Flight {\n        todo()\n    }\n}\n\nimpl<T> Drop for Guard<'_, T> {\n    fn drop(&mut self) {}\n}\n\nfn ret() -> impl Iterator<Item = u32> {\n    std::iter::empty()\n}\n";
        let f = file(src);
        let got: Vec<(&str, usize, usize)> =
            f.impls.iter().map(|i| (i.name.as_str(), i.start, i.end)).collect();
        assert_eq!(got, vec![("Flight", 1, 5), ("Guard", 7, 9)]);
    }

    #[test]
    fn block_end_bounds_the_innermost_brace_scope() {
        let src = "fn f() {\n    let a = {\n        let g = m.lock();\n        g.v\n    };\n    after(a);\n}\n";
        let f = file(src);
        assert_eq!(f.block_end(3), 5, "inner block closes on line 5");
        assert_eq!(f.block_end(6), 7, "fn body closes on line 7");
        assert_eq!(f.block_end(1), f.lines.len(), "top level extends to the last line");
    }

    #[test]
    fn member_globs_and_literals_expand() {
        let dir = std::env::temp_dir().join("epg-lint-model-members");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/a/src")).unwrap();
        std::fs::create_dir_all(dir.join("solo/src")).unwrap();
        std::fs::write(
            dir.join("Cargo.toml"),
            "[workspace]\nmembers = [\n    \"crates/*\",\n    \"solo\",\n]\n",
        )
        .unwrap();
        std::fs::write(dir.join("crates/a/Cargo.toml"), "[package]\nname = \"a\"\n").unwrap();
        std::fs::write(
            dir.join("solo/Cargo.toml"),
            "[package]\nname = \"solo\"\n\n[dependencies]\na = { path = \"../crates/a\" }\n\n[dev-dependencies]\nproptest.workspace = true\n",
        )
        .unwrap();
        let scanned =
            ["crates/a/src/lib.rs", "examples/e.rs", "solo/src/lib.rs", "solo/tests/t.rs"]
                .iter()
                .map(|p| (p.to_string(), scan("pub fn f() {}\n")));
        let ws = Workspace::load(&dir, scanned);
        let names: Vec<&str> = ws.crates.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "solo"]);
        let solo = &ws.crates[1];
        assert_eq!(solo.deps, vec![Dep { name: "a".into(), line: 5 }]);
        assert_eq!(solo.dev_deps, vec![Dep { name: "proptest".into(), line: 8 }]);
        let files: Vec<(&str, bool)> =
            solo.files.iter().map(|f| (f.path.as_str(), f.test_role)).collect();
        assert_eq!(files, [("solo/src/lib.rs", false), ("solo/tests/t.rs", true)]);
        assert_eq!(ws.crates[0].files.len(), 1);
        let loose: Vec<(&str, bool)> =
            ws.loose.iter().map(|f| (f.path.as_str(), f.test_role)).collect();
        assert_eq!(loose, [("examples/e.rs", true)], "non-members are modeled for the line rules");
        assert_eq!(ws.files().count(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
