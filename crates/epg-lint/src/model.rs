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
//!   `epg-parallel` entry points (worker closures), structs with their
//!   fields, impls, call sites, and every `epg_*::`-rooted path occurrence.
//!   One left-to-right walk over the file's code text builds all of it
//!   ([`FileModel::build`]) and records every brace and paren pair on the
//!   way, which later queries ([`FileModel::block_end`]) read.
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
    /// Builds the model for one scanned file: one walk over its code text,
    /// then the spans that read the delimiter pairs the walk recorded.
    pub fn build(path: String, lines: Vec<Line>, test_role: bool) -> FileModel {
        let mut code = Code::new(&lines);
        let w = walk(&code);
        (code.pairs, code.innermost) = (w.pairs, w.innermost);
        let mut loops = w.loops;
        loops.sort_unstable();
        let mut par_calls: Vec<(usize, usize)> =
            w.par.iter().map(|&(line, open)| (line, code.line_of(code.close_of(open)))).collect();
        par_calls.sort_unstable();
        let mut test_spans: Vec<(usize, usize)> =
            w.attrs.iter().filter_map(|&(at, len)| test_span(&code, &w.fns, at, len)).collect();
        test_spans.sort_unstable();
        // Timed spans: the entry-point argument spans, and the loops
        // holding a `.iteration(` mark or the start of an entry-point call.
        let marks: Vec<usize> = w.marks.into_iter().chain(par_calls.iter().map(|p| p.0)).collect();
        let mut hot: Vec<(usize, usize)> = loops
            .iter()
            .copied()
            .filter(|&(s, e)| marks.iter().any(|&l| s <= l && l <= e))
            .collect();
        hot.extend_from_slice(&par_calls);
        hot.sort_unstable();
        hot.dedup();
        FileModel {
            path,
            lines,
            test_role,
            fns: w.fns,
            test_spans,
            loops,
            par_calls,
            hot,
            epg_refs: w.epg_refs,
            calls: w.calls,
            structs: w.structs,
            impls: w.impls.into_iter().flatten().collect(),
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
        match self.code.innermost.get(line.saturating_sub(1)) {
            Some(&Some(pair)) => self.code.line_of(self.code.pairs[pair].1),
            _ => self.lines.len().max(1),
        }
    }
}

/// Joined code text with per-line byte offsets, for cross-line matching,
/// and the delimiter structure the model's walk recorded over it.
#[derive(Debug)]
pub(crate) struct Code {
    /// Every line's code text, each followed by `\n`.
    pub(crate) text: String,
    /// Byte offset in `text` where each line starts.
    pub(crate) starts: Vec<usize>,
    /// Every `{…}` and `(…)` as `(open, close)` offsets, in opener order.
    /// Braces and parens are counted apart, as two stacks; an opener left
    /// unclosed closes at the last byte.
    pairs: Vec<(usize, usize)>,
    /// Per line: the index in `pairs` of the innermost `{` open at the
    /// line's start.
    innermost: Vec<Option<usize>>,
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
        Code { text, starts, pairs: Vec::new(), innermost: Vec::new() }
    }

    /// 1-based line holding byte offset `off`.
    pub(crate) fn line_of(&self, off: usize) -> usize {
        match self.starts.binary_search(&off) {
            Ok(i) => i + 1,
            Err(i) => i, // insertion point; the line starting before `off`
        }
    }

    /// Offset of the `}` or `)` closing the opener at `open`.
    pub(crate) fn close_of(&self, open: usize) -> usize {
        match self.pairs.binary_search_by_key(&open, |&(o, _)| o) {
            Ok(i) => self.pairs[i].1,
            Err(_) => self.text.len().saturating_sub(1),
        }
    }
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && b[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// End of the identifier run starting at `i` (`i` itself when none does).
fn ident_end(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && is_ident_byte(b[i]) {
        i += 1;
    }
    i
}

/// An item head the walk has read whose body opener it has not reached.
/// Depths are the walk's running counts at the head; a head's body opener
/// is the first one at the same depth (`fn`, loops: parens and brackets)
/// or at no deeper angle-bracket depth (`struct`, `impl`).
enum Head {
    /// `fn name`: the body `{`, or the `;` of a bodiless declaration.
    Fn { slot: usize, at: (i64, i64) },
    /// `loop`/`while`/`for`: the body `{`; a `;` or `}` first means no
    /// loop, and a `for` must pass an `in` first (`impl Trait for T`).
    Loop { line: usize, at: (i64, i64), saw_in: bool },
    /// `struct Name`: a `{…}` or `(…)` body, or the `;` of a unit struct.
    Struct { slot: usize, angle: i64 },
    /// `impl`: the body `{`; `head`, where the self-type text starts, is
    /// unset until the impl's own generics close.
    Impl { slot: usize, line: usize, angle: i64, head: Option<usize> },
}

/// A model entry whose end the closer of its body sets.
#[derive(Clone, Copy)]
enum Slot {
    Fn(usize),
    Loop(usize),
    Struct(usize),
    Impl(usize),
}

/// The state and output of [`walk`].
#[derive(Default)]
struct Walk {
    /// 1-based line of the byte being read.
    line: usize,
    paren: i64,
    brack: i64,
    angle: i64,
    /// Depth over all of `( [ { <`, which the struct-field split reads.
    nest: i64,
    /// Indices in `pairs` of the open `{` and the open `(`.
    braces: Vec<usize>,
    parens: Vec<usize>,
    heads: Vec<Head>,
    /// Each open body an entry waits on, by index in `pairs`.
    waiting: Vec<(usize, Slot)>,
    /// Braced struct bodies being split into fields: the struct's slot, the
    /// body's `nest`, and where the current field starts.
    splits: Vec<(usize, i64, usize)>,
    /// The identifier run read last, as offsets.
    last: (usize, usize),
    pairs: Vec<(usize, usize)>,
    innermost: Vec<Option<usize>>,
    fns: Vec<FnSpan>,
    loops: Vec<(usize, usize)>,
    structs: Vec<StructModel>,
    /// One per `impl` head; `None` when it turns out to be no impl item.
    impls: Vec<Option<FnSpan>>,
    epg_refs: Vec<PathRef>,
    calls: Vec<CallSite>,
    /// Entry-point calls: their line and the offset of their `(`.
    par: Vec<(usize, usize)>,
    /// Lines of `.iteration(` calls.
    marks: Vec<usize>,
    /// `#[cfg(test)]`/`#[test]` attributes: offset and length.
    attrs: Vec<(usize, usize)>,
}

/// The one left-to-right walk over a file's code text. It pairs every
/// `{`/`(` with its closer on a stack per kind and keeps running depths.
/// An item head marks the next body opener at its depth, and the item
/// ends on the line where that opener's closer pops. Call sites,
/// `epg_*::` paths, entry-point calls and `.iteration(` marks come off the
/// same identifier stream. Literals are already blanked, so no delimiter
/// inside one is counted.
fn walk(code: &Code) -> Walk {
    let b = code.text.as_bytes();
    let mut w = Walk { line: 1, innermost: vec![None], ..Walk::default() };
    let mut i = 0;
    while i < b.len() {
        let e = ident_end(b, i);
        if e > i {
            w.word(code, i, e);
            i = e;
            continue;
        }
        match b[i] {
            b'\n' => {
                w.innermost.push(w.braces.last().copied());
                w.line += 1;
            }
            b'{' => {
                let pair = w.open(i);
                w.braces.push(pair);
                w.nest += 1;
                w.settle(code, i, pair);
            }
            b'(' => {
                let pair = w.open(i);
                w.parens.push(pair);
                (w.paren, w.nest) = (w.paren + 1, w.nest + 1);
                w.call(code, i);
                w.settle(code, i, pair);
            }
            b'}' => {
                w.settle(code, i, 0);
                w.close(code, i, true);
                w.nest -= 1;
            }
            b')' => {
                w.close(code, i, false);
                (w.paren, w.nest) = (w.paren - 1, w.nest - 1);
            }
            b'[' => (w.brack, w.nest) = (w.brack + 1, w.nest + 1),
            b']' => (w.brack, w.nest) = (w.brack - 1, w.nest - 1),
            b'<' => (w.angle, w.nest) = (w.angle + 1, w.nest + 1),
            b'>' => {
                (w.angle, w.nest) = (w.angle - 1, w.nest - 1);
                w.settle(code, i, 0);
            }
            b';' => w.settle(code, i, 0),
            b',' => {
                for k in 0..w.splits.len() {
                    let (slot, depth, from) = w.splits[k];
                    if w.nest <= depth {
                        w.field(code, slot, from, i);
                        w.splits[k].2 = i + 1;
                    }
                }
            }
            b'#' => {
                for attr in ["#[cfg(test)]", "#[test]"] {
                    if code.text[i..].starts_with(attr) {
                        w.attrs.push((i, attr.len()));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Unclosed bodies and unresolved heads run to the last byte.
    let end = b.len().saturating_sub(1);
    w.line = code.line_of(end);
    while !w.braces.is_empty() || !w.parens.is_empty() {
        w.close(code, end, !w.braces.is_empty());
    }
    for head in std::mem::take(&mut w.heads) {
        match head {
            Head::Fn { slot, .. } => w.fns[slot].end = w.line,
            Head::Struct { slot, .. } => w.structs[slot].end = w.line,
            Head::Loop { .. } | Head::Impl { .. } => {}
        }
    }
    w.innermost.truncate(code.starts.len());
    w
}

impl Walk {
    fn open(&mut self, at: usize) -> usize {
        self.pairs.push((at, usize::MAX));
        self.pairs.len() - 1
    }

    /// The closer at `j` pops its opener and ends every entry waiting on it.
    fn close(&mut self, code: &Code, j: usize, brace: bool) {
        let Some(pair) = (if brace { &mut self.braces } else { &mut self.parens }).pop() else {
            return;
        };
        self.pairs[pair].1 = j;
        while let Some(k) = self.waiting.iter().rposition(|w| w.0 == pair) {
            let slot = self.waiting.remove(k).1;
            self.end(code, slot, j);
        }
    }

    fn end(&mut self, code: &Code, slot: Slot, close: usize) {
        let line = self.line;
        match slot {
            Slot::Fn(k) => self.fns[k].end = line,
            Slot::Loop(k) => self.loops[k].1 = line,
            Slot::Impl(k) => self.impls[k].iter_mut().for_each(|i| i.end = line),
            Slot::Struct(k) => {
                self.structs[k].body.iter_mut().for_each(|body| body.1 = close);
                // A tuple body ends on its `(` line; a braced one splits.
                if let Some(p) = self.splits.iter().rposition(|s| s.0 == k) {
                    let (_, depth, from) = self.splits.remove(p);
                    if self.nest <= depth {
                        self.field(code, k, from, close);
                    }
                    self.structs[k].end = line;
                }
            }
        }
    }

    fn field(&mut self, code: &Code, slot: usize, from: usize, to: usize) {
        if let Some(f) = parse_field(code, &code.text[from..to], from) {
            self.structs[slot].fields.push(f);
        }
    }

    /// Offers the delimiter at `j` (opening `pair`, for `{` and `(`) to
    /// every waiting head; a head it opens or ends leaves the list.
    fn settle(&mut self, code: &Code, j: usize, pair: usize) {
        if self.heads.is_empty() {
            return;
        }
        let mut heads = std::mem::take(&mut self.heads);
        heads.retain_mut(|h| !self.reach(code, h, j, pair));
        self.heads = heads;
    }

    /// Whether the delimiter at `j` resolves `head`.
    fn reach(&mut self, code: &Code, head: &mut Head, j: usize, pair: usize) -> bool {
        let c = code.text.as_bytes()[j];
        let at = (self.paren, self.brack);
        match *head {
            Head::Fn { slot, at: depth } if depth == at => match c {
                b'{' => self.waiting.push((pair, Slot::Fn(slot))),
                b';' => self.fns[slot].end = self.line,
                _ => return false,
            },
            Head::Loop { line, at: depth, saw_in } if depth == at => match c {
                b'{' if saw_in => {
                    self.loops.push((line, 0));
                    self.waiting.push((pair, Slot::Loop(self.loops.len() - 1)));
                }
                b'{' | b';' | b'}' => {}
                _ => return false,
            },
            Head::Struct { slot, angle } if self.angle <= angle => match c {
                b'{' | b'(' => {
                    if c == b'{' {
                        self.splits.push((slot, self.nest, j + 1));
                    } else {
                        self.structs[slot].end = self.line;
                    }
                    self.structs[slot].body = Some((j, 0));
                    self.waiting.push((pair, Slot::Struct(slot)));
                }
                b';' => self.structs[slot].end = self.line,
                _ => return false,
            },
            Head::Impl { slot, line, angle, head: Some(h) } if self.angle <= angle => match c {
                b'{' => {
                    let name = impl_self_type(&code.text[h..j]);
                    if !name.is_empty() {
                        self.impls[slot] = Some(FnSpan { name, start: line, end: 0 });
                        self.waiting.push((pair, Slot::Impl(slot)));
                    }
                }
                b';' => {}
                _ => return false,
            },
            Head::Impl { angle, ref mut head, .. } if c == b'>' && self.angle == angle => {
                head.get_or_insert(j + 1);
                return false;
            }
            _ => return false,
        }
        true
    }

    /// Reads the identifier run `s..e`: item heads, a `for` head's `in`,
    /// `.iteration(` marks, `epg_*::` paths and entry-point calls.
    fn word(&mut self, code: &Code, s: usize, e: usize) {
        let (text, b) = (code.text.as_str(), code.text.as_bytes());
        let word = &text[s..e];
        self.last = (s, e);
        let at = (self.paren, self.brack);
        let name = || {
            let from = skip_ws(b, e);
            let to = ident_end(b, from);
            (to > from).then(|| text[from..to].to_string())
        };
        match word {
            "fn" => {
                if let Some(name) = name() {
                    self.heads.push(Head::Fn { slot: self.fns.len(), at });
                    self.fns.push(FnSpan { name, start: self.line, end: 0 });
                }
            }
            "loop" | "while" => self.heads.push(Head::Loop { line: self.line, at, saw_in: true }),
            // `for<'a>` (higher-ranked bounds) is not a loop.
            "for" if b.get(skip_ws(b, e)) != Some(&b'<') => {
                self.heads.push(Head::Loop { line: self.line, at, saw_in: false });
            }
            "in" => {
                for head in &mut self.heads {
                    if let Head::Loop { at: depth, saw_in, .. } = head {
                        *saw_in |= *depth == at;
                    }
                }
            }
            "struct" => {
                if let Some(name) = name() {
                    self.heads.push(Head::Struct { slot: self.structs.len(), angle: self.angle });
                    let (start, fields) = (self.line, Vec::new());
                    self.structs.push(StructModel { name, fields, start, end: 0, body: None });
                }
            }
            // `-> impl Trait` / `(impl Trait` are types, not items.
            "impl"
                if !matches!(
                    b[..s].iter().rev().find(|c| !c.is_ascii_whitespace()),
                    Some(b'>' | b'(' | b',' | b'=' | b'+' | b':' | b'&')
                ) =>
            {
                let from = skip_ws(b, e);
                let head = (b.get(from) != Some(&b'<')).then_some(from);
                let (slot, line, angle) = (self.impls.len(), self.line, self.angle);
                self.heads.push(Head::Impl { slot, line, angle, head });
                self.impls.push(None);
            }
            "iteration" if s > 0 && b[s - 1] == b'.' && b.get(e) == Some(&b'(') => {
                self.marks.push(self.line);
            }
            _ => {}
        }
        // `my::epg_x::` is no crate root: a preceding `:` continues a path.
        let rooted = s == 0 || !(is_ident_byte(b[s - 1]) || b[s - 1] == b':');
        if rooted && word.starts_with("epg_") && text[e..].starts_with("::") {
            self.epg_refs.push(PathRef { krate: word.replace('_', "-"), line: self.line });
        }
        if let Some((_, open, _)) = entry_at(b, s, e) {
            self.par.push((self.line, open));
        }
    }

    /// Records the call site, if any, whose `(` is at `j`.
    fn call(&mut self, code: &Code, j: usize) {
        let (text, b) = (code.text.as_str(), code.text.as_bytes());
        let (s, e) = self.last;
        if e != j || s == e {
            return; // `(` not preceded by an identifier
        }
        let name = &text[s..j];
        if CALL_KEYWORDS.contains(&name) {
            return;
        }
        let prev = if s > 0 { b[s - 1] } else { b'\n' };
        if prev == b'!' {
            return; // macro invocation
        }
        // `fn name(` is a definition, not a call.
        let k = b[..s].iter().rposition(|c| !c.is_ascii_whitespace()).map_or(0, |p| p + 1);
        if text[..k].ends_with("fn") && (k < 3 || !is_ident_byte(b[k - 3])) {
            return;
        }
        let kind = if prev == b'.' {
            CallKind::Method
        } else if s >= 2 && b[s - 1] == b':' && b[s - 2] == b':' {
            let q = b[..s - 2].iter().rposition(|&c| !is_ident_byte(c)).map_or(0, |p| p + 1);
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
        self.calls.push(CallSite { name: name.to_string(), kind, line: self.line });
    }
}

/// The span of the item a `#[cfg(test)]`/`#[test]` attribute of `len`
/// bytes at `at` annotates, past further attributes and a visibility: a
/// `mod` to its closing brace, a `fn` through the first fn starting on or
/// after the attribute's line, anything else (`#[cfg(test)] use …;`) to
/// the item's line.
fn test_span(code: &Code, fns: &[FnSpan], at: usize, len: usize) -> Option<(usize, usize)> {
    let (text, b) = (code.text.as_str(), code.text.as_bytes());
    let attr_line = code.line_of(at);
    let mut i = skip_ws(b, at + len);
    while b[i..].starts_with(b"#[") {
        let mut depth = 0;
        while i < b.len() {
            depth += i32::from(b[i] == b'[') - i32::from(b[i] == b']');
            i += 1;
            if depth == 0 && b[i - 1] == b']' {
                break;
            }
        }
        i = skip_ws(b, i);
    }
    if text[i..].starts_with("pub") {
        i = skip_ws(b, i + 3);
        if b.get(i) == Some(&b'(') {
            i = skip_ws(b, code.close_of(i) + 1);
        }
    }
    let word_end = ident_end(b, i);
    match &text[i..word_end] {
        "mod" => {
            let open = word_end + text[word_end..].find('{')?;
            Some((attr_line, code.line_of(code.close_of(open))))
        }
        "fn" => Some((attr_line, fns.get(fns.partition_point(|f| f.start < attr_line))?.end)),
        _ => Some((attr_line, code.line_of(i.min(b.len() - 1)))),
    }
}

/// The `epg-parallel` entry points whose closure arguments are worker
/// code: the pool's loops and reductions, `WorkerBitmaps::reduce_ranges`
/// and `PerWorker::for_ranges`. Token-level: a call to any method with one
/// of these names counts.
pub(crate) const PAR_ENTRY_POINTS: &[&str] = &[
    ".region(",
    ".parallel_for(",
    ".parallel_for_ranges(",
    ".parallel_reduce(",
    ".parallel_reduce_ranges(",
    ".reduce_ranges(",
    ".for_ranges(",
    ".parallel_sum_f64(",
];

/// Every entry-point call in `text` as `(start offset, offset of its
/// '(', entry point)`, in [`PAR_ENTRY_POINTS`] order. A turbofish may
/// follow the method name, so `.parallel_for::<F>(` matches too.
pub(crate) fn par_entries(text: &str) -> Vec<(usize, usize, &'static str)> {
    let b = text.as_bytes();
    let starts =
        (0..b.len()).filter(|&i| is_ident_byte(b[i]) && (i == 0 || !is_ident_byte(b[i - 1])));
    let mut out: Vec<_> = starts.filter_map(|i| entry_at(b, i, ident_end(b, i))).collect();
    out.sort_by_key(|&(start, _, tok)| (PAR_ENTRY_POINTS.iter().position(|&t| t == tok), start));
    out
}

/// The entry-point call whose method name is the identifier run `b[s..e]`:
/// `.name`, then an optional `::<…>` turbofish, then `(`.
fn entry_at(b: &[u8], s: usize, e: usize) -> Option<(usize, usize, &'static str)> {
    if s == 0 || b[s - 1] != b'.' {
        return None;
    }
    let tok = *PAR_ENTRY_POINTS.iter().find(|t| t.as_bytes()[1..t.len() - 1] == b[s..e])?;
    let mut i = e;
    if b[i..].starts_with(b"::<") {
        let mut depth = 0;
        let close = b[i + 2..].iter().position(|&c| {
            depth += i32::from(c == b'<') - i32::from(c == b'>');
            depth == 0
        })?;
        i += close + 3;
    }
    (b.get(i) == Some(&b'(')).then_some((s - 1, i, tok))
}

/// Words that can directly precede `(` without being a call.
const CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "unsafe", "let", "pub", "fn", "impl", "use", "mod", "where", "struct", "enum", "trait",
    "type", "dyn", "ref", "mut", "crate", "super", "self", "Self",
];

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

/// The self type an impl head (the text after its generics) names: `impl
/// T` and `impl Trait for T … where …` both give `T`.
fn impl_self_type(head: &str) -> String {
    let ty = head.split(" for ").nth(1).unwrap_or(head);
    let ty = ty.split("where").next().unwrap_or(ty);
    type_head(ty.rsplit("::").next().unwrap_or(ty))
}

/// Parses one `name: Type` field declaration (a piece of a struct body
/// between top-level commas) starting at byte offset `off`.
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
        // A turbofish, nested generics included, is still the entry point.
        let src = "fn f(pool: &ThreadPool) {\n    let p = pool.parallel_reduce::<Vec<u32>, _, _, _>(n, s, id, |acc, i| {\n        send(acc, i)\n    }, add);\n    pool.parallel_for::<F>(n, s, |v| {\n        out[v] = 1;\n    });\n    plain();\n}\n";
        let f = file(src);
        assert_eq!(f.par_calls, vec![(2, 4), (5, 7)]);
        assert!(f.in_loop_or_worker(3) && f.in_loop_or_worker(6) && f.in_hot(3));
        assert!(!f.in_loop_or_worker(8));
    }

    #[test]
    fn reduce_entry_points_are_worker_spans_too() {
        // Closures passed to `parallel_reduce_ranges` and to
        // `WorkerBitmaps::reduce_ranges` are worker code.
        let src = "fn f(pool: &ThreadPool) {\n    let a = pool.parallel_reduce_ranges(n, s, id, |lo, hi| {\n        work(lo, hi)\n    }, add);\n    let c = marks.reduce_ranges(pool, n, s, id, |lo, hi| {\n        scatter(lo, hi)\n    }, add);\n    plain();\n}\n";
        let f = file(src);
        assert_eq!(f.par_calls, vec![(2, 4), (5, 7)]);
        assert!(f.in_loop_or_worker(3) && f.in_loop_or_worker(6));
        assert!(!f.in_loop_or_worker(8));
    }

    #[test]
    fn per_worker_for_ranges_closures_are_worker_spans() {
        // The step protocol's way out of a region: a body handed its
        // worker's `PerWorker` state is worker code, and the drain after
        // the region is not.
        let src = "fn f(pool: &ThreadPool) {\n    found.for_ranges(pool, n, s, |mine, lo, hi| {\n        mine.list.push(lo)\n    });\n    Found::drain(&mut found, &mut next);\n}\n";
        let f = file(src);
        assert_eq!(f.par_calls, vec![(2, 4)]);
        assert!(f.in_loop_or_worker(3) && f.in_hot(3));
        assert!(!f.in_loop_or_worker(5));
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
