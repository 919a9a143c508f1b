//! Intra-crate call graphs, the one reach query over them, and the rules
//! that are rows of one table.
//!
//! Four rules ask the same question — is a banned token in a region,
//! directly or through calls? — so they are rows of [`ROWS`]: rule id,
//! crate scope, token class, region, and two message templates.
//! `phase-purity` (file I/O outside `load_file`), `timing-discipline`
//! (clock reads outside the measurement owners), `panic-discipline`
//! (aborts in engine loops and worker closures), and
//! `blocking-while-locked` (engine queries, file I/O and condvar waits
//! under a held guard). Allocation in timed spans is measured instead
//! (the `steady_state_alloc` test). One loop checks every row under one
//! rule: **a token is reported once — at its own line when that line is
//! in the row's region, otherwise at every timed call site (hot span) or
//! held-guard line that reaches it**, with the call chain and the token's
//! location in the message. Test-role files and `#[cfg(test)]`/`#[test]`
//! spans are exempt throughout.
//!
//! The graph is built on the token-level item model — no `syn`, no type
//! inference — so resolution is deliberately conservative and documented
//! (DESIGN.md §15):
//!
//! * **Qualified calls** (`Type::name(…)`, `Self::name(…)`) resolve to
//!   `fn name` items inside `impl Type` blocks of the same crate — the
//!   precise case, used for constructors and associated fns.
//! * **Free calls** (`name(…)`, `mod::name(…)`) resolve by bare name to
//!   every same-named `fn` in the crate.
//! * **Method calls** (`.name(…)`) fan out to every same-named `fn` in the
//!   crate (all impls — this is how trait calls reach every implementor),
//!   except names on the [`AMBIENT_METHODS`] denylist: collection/option/
//!   primitive vocabulary that would conflate `map.insert` with a crate's
//!   own `insert` and flood the graph with false edges.
//! * Calls are attributed to the **innermost** enclosing `fn` span, which
//!   attaches closure bodies to their defining fn. Cross-crate edges are
//!   not modeled: each crate's discipline is checked against its own
//!   helpers, and cross-crate blocking concerns are covered by the direct
//!   token rules.
//!
//! Soundness: the graph over-approximates call targets (name fan-out) and
//! under-approximates reachability only through closure *values* invoked
//! via parameters (`f()` on a generic parameter resolves to nothing) and
//! cross-crate calls. Both gaps are deliberate: the first has no
//! token-level answer, the second keeps ownership of findings in the
//! crate that must fix them.

use crate::arch::{is_engine_crate, layer_of};
use crate::locking::{self, cv_wait_receiver, Held, Locks, RULE_BLOCKING};
use crate::model::{CallKind, CrateModel, FileModel, Workspace};
use crate::rules::Finding;
use std::collections::{HashMap, VecDeque};

/// Method names too ambient to resolve by bare name: std collection,
/// option/result, iterator, atomics, locks, and formatting vocabulary.
/// A crate method that shadows one of these is invisible to the graph —
/// the price of not flooding it with `HashMap::insert`-shaped edges.
const AMBIENT_METHODS: &[&str] = &[
    "insert",
    "get",
    "get_mut",
    "remove",
    "len",
    "is_empty",
    "push",
    "pop",
    "clone",
    "cloned",
    "copied",
    "contains",
    "contains_key",
    "extend",
    "append",
    "iter",
    "into_iter",
    "iter_mut",
    "next",
    "map",
    "and_then",
    "then",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "is_some",
    "is_none",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_bytes",
    "to_vec",
    "to_string",
    "into",
    "from",
    "collect",
    "filter",
    "fold",
    "flat_map",
    "sum",
    "min",
    "max",
    "first",
    "last",
    "take",
    "drain",
    "clear",
    "sort",
    "sort_unstable",
    "split",
    "join",
    "find",
    "position",
    "retain",
    "rev",
    "enumerate",
    "zip",
    "chain",
    "count",
    "any",
    "all",
    "lock",
    "read",
    "write",
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "compare_exchange",
    "drop",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "default",
    "elapsed",
    "as_nanos",
    "as_micros",
    "as_millis",
    "as_secs",
    "abs",
    "sqrt",
    "notify_all",
    "notify_one",
    "starts_with",
    "ends_with",
    "trim",
    "parse",
    "with_capacity",
    "resize",
    "fill",
    "copy_from_slice",
    "saturating_sub",
    "saturating_add",
    "min_by_key",
    "max_by_key",
];

/// One `fn` item as a call-graph node.
#[derive(Debug)]
pub struct CgNode {
    /// Index of the owning file in `CrateModel::files`.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// First line of the span.
    pub start: usize,
    /// Last line of the span.
    pub end: usize,
}

/// The intra-crate call graph: one node per `fn` item, edges labeled with
/// the 1-based line of the call site in the caller's file.
#[derive(Debug)]
pub struct CallGraph {
    /// Nodes, in (file, declaration) order.
    pub nodes: Vec<CgNode>,
    /// Outgoing edges per node: `(callee node, call line)`.
    pub edges: Vec<Vec<(usize, usize)>>,
}

impl CallGraph {
    /// Builds the graph for one crate.
    pub fn build(c: &CrateModel) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, f) in c.files.iter().enumerate() {
            for s in &f.fns {
                nodes.push(CgNode { file: fi, name: s.name.clone(), start: s.start, end: s.end });
            }
        }
        let mut g = CallGraph { nodes, edges: Vec::new() };
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, n) in g.nodes.iter().enumerate() {
            by_name.entry(n.name.as_str()).or_default().push(i);
        }
        let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); g.nodes.len()];
        for (fi, f) in c.files.iter().enumerate() {
            for call in &f.calls {
                let Some(caller) = g.node_at(fi, call.line) else { continue };
                let named = by_name.get(call.name.as_str()).map_or(&[][..], Vec::as_slice);
                for &target in named {
                    // Direct recursion adds no reachability.
                    if target == caller || !resolves(c, &g.nodes[target], fi, call.line, &call.kind)
                    {
                        continue;
                    }
                    if !edges[caller].contains(&(target, call.line)) {
                        edges[caller].push((target, call.line));
                    }
                }
            }
        }
        g.edges = edges;
        g
    }

    /// The innermost `fn` node containing `line` of file `fi`.
    pub fn node_at(&self, fi: usize, line: usize) -> Option<usize> {
        self.in_file(fi)
            .filter(|&i| self.nodes[i].start <= line && line <= self.nodes[i].end)
            .min_by_key(|&i| self.nodes[i].end - self.nodes[i].start)
    }

    /// The nodes of file `fi` (nodes are in file order).
    fn in_file(&self, fi: usize) -> std::ops::Range<usize> {
        self.nodes.partition_point(|n| n.file < fi)..self.nodes.partition_point(|n| n.file <= fi)
    }

    /// Breadth-first search over call edges from `starts`, stopping at the
    /// first node `stop` accepts. Returns every visited node's parent in
    /// the BFS tree (a start is its own parent, unvisited nodes are
    /// `None`) and the node the search stopped at.
    pub fn bfs(
        &self,
        starts: &[usize],
        stop: impl Fn(usize) -> bool,
    ) -> (Vec<Option<usize>>, Option<usize>) {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue = VecDeque::new();
        for &s in starts {
            if parent[s].is_none() {
                parent[s] = Some(s);
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            if stop(u) {
                return (parent, Some(u));
            }
            for &(v, _) in &self.edges[u] {
                if parent[v].is_none() {
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        (parent, None)
    }

    /// The call chain from a BFS start down to `node`, as fn names joined
    /// with ` → ` (the start node's name first).
    pub fn chain_names(&self, parents: &[Option<usize>], node: usize) -> String {
        let mut path = vec![node];
        let mut cur = node;
        while let Some(p) = parents[cur] {
            if p == cur {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        path.iter().map(|&i| self.nodes[i].name.as_str()).collect::<Vec<_>>().join(" → ")
    }
}

/// Whether a call of `kind` on `line` of file `fi` reaches `target`, a
/// fn of the called name, per the header's resolution rules.
fn resolves(c: &CrateModel, target: &CgNode, fi: usize, line: usize, kind: &CallKind) -> bool {
    match kind {
        CallKind::Qualified(q) => {
            let ty = if q == "Self" {
                let Some(t) = enclosing_impl(&c.files[fi], line) else { return false };
                t
            } else {
                q.as_str()
            };
            let within = |i: &crate::model::FnSpan| i.start <= target.start && target.end <= i.end;
            c.files[target.file].impls.iter().any(|i| i.name == ty && within(i))
        }
        CallKind::Free | CallKind::Method => {
            target.name.len() >= 3 && !AMBIENT_METHODS.contains(&target.name.as_str())
        }
    }
}

/// Name of the innermost `impl` block containing `line`, if any.
pub(crate) fn enclosing_impl(f: &FileModel, line: usize) -> Option<&str> {
    f.impls
        .iter()
        .filter(|i| i.start <= line && line <= i.end)
        .min_by_key(|i| i.end - i.start)
        .map(|i| i.name.as_str())
}

/// First cycle in a digraph of `n` nodes, as the node sequence of the
/// cycle (each node once; the edge from the last back to the first closes
/// it), rotated to start at its smallest node. `None` when acyclic.
/// Deterministic: DFS in ascending node/edge order.
pub fn find_cycle(n: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, v) in edges {
        if u < n && v < n {
            adj[u].push(v);
        }
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut color = vec![0u8; n];
    let mut stack: Vec<(usize, usize)> = Vec::new(); // (node, next edge index)
    for root in 0..n {
        if color[root] != 0 {
            continue;
        }
        color[root] = 1;
        stack.push((root, 0));
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            if *next >= adj[u].len() {
                color[u] = 2;
                stack.pop();
                continue;
            }
            let v = adj[u][*next];
            *next += 1;
            match color[v] {
                0 => {
                    color[v] = 1;
                    stack.push((v, 0));
                }
                1 => {
                    // Back edge u -> v: the cycle is v..=u on the stack.
                    let from = stack.iter().position(|&(w, _)| w == v).unwrap();
                    let mut cycle: Vec<usize> = stack[from..].iter().map(|&(w, _)| w).collect();
                    let min_at =
                        cycle.iter().enumerate().min_by_key(|&(_, &w)| w).map(|(i, _)| i).unwrap();
                    cycle.rotate_left(min_at);
                    return Some(cycle);
                }
                _ => {}
            }
        }
    }
    None
}

/// Stable rule id: file I/O outside `load_file` in engine code.
pub const RULE_PHASE: &str = "phase-purity";

/// Stable rule id: wall-clock reads outside the measurement owners.
pub const RULE_TIMING: &str = "timing-discipline";

/// Stable rule id: aborts inside engine loops and worker closures.
pub const RULE_PANIC: &str = "panic-discipline";

/// File-I/O tokens: the read phase's vocabulary.
const IO: &[&str] =
    &["std::fs", "std::io", "File::open", "File::create", "BufReader", "BufWriter", "OpenOptions"];

/// A condvar wait: a token only where its receiver is a named `Condvar`
/// field of the crate.
const CV_WAIT: &str = ".wait(";

/// Crates that own measurement: the harness times runs, the trace crate
/// stamps telemetry, and the serve layer stamps per-query latency (it is
/// a timed I/O layer like the harness, not a measured engine).
const TIMING_OWNERS: &[&str] = &["epg-harness", "epg-trace", "epg-serve"];

/// Where a row reports a token at the token's own line. Any other token
/// of the row is reported at the anchors that reach it: the lines holding
/// a guard for `Guarded`, the call sites in timed spans otherwise.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Region {
    /// Everywhere in scope.
    Anywhere,
    /// Outside `load_file`, the read phase the harness times separately.
    OutsideLoadFile,
    /// Inside an iteration loop or a worker closure.
    LoopOrWorker,
    /// Where a lock guard is held, except a condvar wait: the locking
    /// family checks that against the one guard the wait releases.
    Guarded,
}

/// One rule of the table.
struct Row {
    rule: &'static str,
    /// The policy crates the rule applies to.
    scope: fn(&str) -> bool,
    /// The token class (grouped only to share [`IO`]).
    tokens: &'static [&'static [&'static str]],
    region: Region,
    /// The finding at the token's own line, with `{tok}` and `{lock}`
    /// filled in.
    direct: &'static str,
    /// The finding at an anchor reaching the token, with `{tok}`,
    /// `{chain}`, `{at}` and `{lock}` filled in; `None` when the region is
    /// everywhere.
    through: Option<&'static str>,
}

/// The rules that ask "is token T in region R, directly or through
/// calls?" (DESIGN.md §10, §11, §15).
const ROWS: &[Row] = &[
    Row {
        rule: RULE_PHASE,
        scope: |name| is_engine_crate(name) || name == "epg-engine-api",
        tokens: &[IO],
        region: Region::OutsideLoadFile,
        direct: "`{tok}` in engine code outside `load_file`: file I/O is the read phase and must \
                 never be reachable from the timed algorithm phase",
        through: Some(
            "`{tok}` is reachable from this timed span via `{chain}` ({at}): the timed algorithm \
             phase re-enters the file-read phase through the call chain; load inputs before the \
             timed region",
        ),
    },
    Row {
        rule: RULE_TIMING,
        scope: |name| !TIMING_OWNERS.contains(&name),
        tokens: &[&["Instant::now", "SystemTime"]],
        region: Region::Anywhere,
        direct: "`{tok}` outside epg-harness/epg-trace/epg-serve: the harness owns the clock; \
                 engines and substrate code must not self-time (designate audited timer modules \
                 in epg-lint.toml)",
        through: None,
    },
    Row {
        rule: RULE_PANIC,
        scope: is_engine_crate,
        tokens: &[&[".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!"]],
        region: Region::LoopOrWorker,
        direct: "`{tok}` inside an engine worker closure or iteration loop; surface the failure \
                 through the supervised TrialOutcome path instead of aborting the timed phase",
        through: Some(
            "`{tok}` is reachable from this timed span via `{chain}` ({at}): a panic below a \
             timed span aborts the trial exactly like an inline one — surface the failure \
             through the supervised TrialOutcome path",
        ),
    },
    Row {
        rule: RULE_BLOCKING,
        scope: |_| true,
        tokens: &[&[".query("], IO, &[CV_WAIT]],
        region: Region::Guarded,
        direct: "`{tok}` while the `{lock}` guard is held: the lock is pinned for the whole \
                 blocking operation and every contender stalls behind it — compute first, then \
                 take the lock to publish",
        through: Some(
            "`{tok}` is reachable via `{chain}` while the `{lock}` guard is held: the callee \
             blocks with the lock still taken — compute first, then take the lock to publish",
        ),
    },
];

/// Runs the call-graph rules over every policy crate on one graph per
/// crate: the [`ROWS`] table, then the locking family.
pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    let mut edges = Vec::new();
    for c in ws.crates.iter().filter(|c| layer_of(&c.name).is_some()) {
        let cx = CrateGraph::build(c);
        out.extend(cx.rows().into_iter().map(|(finding, _, _)| finding));
        locking::check_crate(&cx, out, &mut edges);
    }
    locking::check_cycles(&edges, out);
}

/// The table's findings for one crate, each with the path and line of the
/// token it reports: the finding's own line, or a call site or guard line
/// that reaches the token.
pub fn row_reports(c: &CrateModel) -> Vec<(Finding, String, usize)> {
    CrateGraph::build(c).rows()
}

/// One crate's call graph and the facts every graph rule reads, built
/// once: its locks and, per row, which tokens are reported where they sit
/// and each fn's first token that is not.
pub(crate) struct CrateGraph<'a> {
    pub(crate) c: &'a CrateModel,
    pub(crate) g: CallGraph,
    pub(crate) locks: Locks,
    /// Per row, per file: the tokens reported where they sit, by line (a
    /// line's first token in class order first).
    here: Vec<Vec<Vec<(usize, &'static str)>>>,
    /// Per row, per node: the first token in the node's span that is not
    /// reported where it sits.
    open: Vec<Vec<Option<(usize, &'static str)>>>,
}

/// The token a line answers to under a row: its word, file index and
/// line, and the call chain to it (fn names joined with ` → `, empty when
/// the token is on the line itself).
struct Reached {
    tok: &'static str,
    file: usize,
    line: usize,
    chain: String,
}

impl<'a> CrateGraph<'a> {
    fn build(c: &'a CrateModel) -> CrateGraph<'a> {
        let (g, locks) = (CallGraph::build(c), Locks::build(c));
        let mut cx = CrateGraph { c, g, locks, here: Vec::new(), open: Vec::new() };
        for row in ROWS {
            let mut here = vec![Vec::new(); c.files.len()];
            let mut open: Vec<Option<(usize, &str)>> = vec![None; cx.g.nodes.len()];
            for (fi, f) in c.files.iter().enumerate().filter(|_| cx.applies(row)) {
                for &tok in row.tokens.iter().copied().flatten() {
                    for line in f.token_lines(tok) {
                        let named_cv = || cv_wait_receiver(f, line, &cx.locks.cvs).is_some();
                        if f.in_test(line) || (tok == CV_WAIT && !named_cv()) {
                            continue;
                        }
                        if cx.in_region(row, fi, line, tok) {
                            here[fi].push((line, tok));
                            continue;
                        }
                        for n in cx.g.in_file(fi) {
                            let (node, first) = (&cx.g.nodes[n], open[n].map(|(l, _)| l));
                            if node.start <= line
                                && line <= node.end
                                && first.is_none_or(|l| line < l)
                            {
                                open[n] = Some((line, tok));
                            }
                        }
                    }
                }
                here[fi].sort_by_key(|&(line, _)| line);
            }
            cx.here.push(here);
            cx.open.push(open);
        }
        cx
    }

    /// Whether `row` applies to this crate (a lock rule needs a guard).
    fn applies(&self, row: &Row) -> bool {
        let guarded = || self.locks.guards.iter().any(|g| !g.is_empty());
        (row.scope)(&self.c.name) && (row.region != Region::Guarded || guarded())
    }

    fn in_region(&self, row: &Row, fi: usize, line: usize, tok: &str) -> bool {
        let f = &self.c.files[fi];
        match row.region {
            Region::Anywhere => true,
            Region::OutsideLoadFile => !f.in_fn_named(line, "load_file"),
            Region::LoopOrWorker => f.in_loop_or_worker(line),
            Region::Guarded => tok != CV_WAIT && self.guard_at(fi, line).is_some(),
        }
    }

    /// The first guard interval held at `line` of file `fi`.
    fn guard_at(&self, fi: usize, line: usize) -> Option<&Held> {
        self.locks.guards[fi].iter().find(|h| h.from <= line && line <= h.to)
    }

    /// The reach query: the token `line` of file `fi` answers to under
    /// row `r`. That is a token on the line itself that is reported where
    /// it sits (depth 0), else the first token reachable through the calls
    /// made on the line — nearest callee first — that is not.
    fn reach(&self, fi: usize, line: usize, r: usize) -> Option<Reached> {
        if let Some(&(_, tok)) = self.here[r][fi].iter().find(|&&(l, _)| l == line) {
            return Some(Reached { tok, file: fi, line, chain: String::new() });
        }
        let caller = self.g.node_at(fi, line)?;
        let starts: Vec<usize> =
            self.g.edges[caller].iter().filter(|&&(_, l)| l == line).map(|&(v, _)| v).collect();
        let (parents, hit) = self.g.bfs(&starts, |n| n != caller && self.open[r][n].is_some());
        let node = hit?;
        let (line, tok) = self.open[r][node]?;
        let chain = self.g.chain_names(&parents, node);
        Some(Reached { tok, file: self.g.nodes[node].file, line, chain })
    }

    /// The table's one loop: every line holding a token reported where it
    /// sits, and every anchor, answered by [`CrateGraph::reach`]. Each
    /// finding comes with the path and line of the token it reports.
    fn rows(&self) -> Vec<(Finding, String, usize)> {
        let mut out = Vec::new();
        for (r, row) in ROWS.iter().enumerate().filter(|(_, row)| self.applies(row)) {
            for (fi, f) in self.c.files.iter().enumerate() {
                let mut lines: Vec<usize> = self.here[r][fi].iter().map(|&(l, _)| l).collect();
                let anchor = |l: usize| match row.region {
                    Region::Guarded => self.guard_at(fi, l).is_some(),
                    _ => f.in_hot(l),
                };
                if row.through.is_some() {
                    let calls = f.calls.iter().map(|call| call.line);
                    lines.extend(calls.filter(|&l| !f.in_test(l) && anchor(l)));
                }
                lines.sort_unstable();
                lines.dedup();
                for line in lines {
                    let Some(hit) = self.reach(fi, line, r) else { continue };
                    let through = row.through.filter(|_| !hit.chain.is_empty());
                    let at = &self.c.files[hit.file].path;
                    let lock = self.guard_at(fi, line).map(Held::lock).unwrap_or_default();
                    let message = through
                        .unwrap_or(row.direct)
                        .replace("{tok}", hit.tok)
                        .replace("{chain}", &hit.chain)
                        .replace("{at}", &format!("{at}:{}", hit.line))
                        .replace("{lock}", &lock);
                    let finding = Finding { file: f.path.clone(), line, rule: row.rule, message };
                    out.push((finding, at.clone(), hit.line));
                }
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::FileModel;
    use crate::scan::scan;

    fn krate(name: &str, files: &[(&str, &str)]) -> CrateModel {
        CrateModel {
            name: name.to_string(),
            dir: format!("crates/{name}"),
            manifest_path: format!("crates/{name}/Cargo.toml"),
            manifest_lines: Vec::new(),
            deps: Vec::new(),
            dev_deps: Vec::new(),
            files: files
                .iter()
                .map(|(p, src)| {
                    FileModel::build(format!("crates/{name}/src/{p}"), scan(src), false)
                })
                .collect(),
        }
    }

    fn run(c: CrateModel) -> Vec<Finding> {
        let ws = Workspace { crates: vec![c], loose: Vec::new() };
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    /// A timed loop calling `step_one`, which calls `$callee`, whose body
    /// starts on line 11.
    macro_rules! deep {
        ($callee:literal, $body:literal) => {
            concat!(
                "pub fn kernel(rec: &mut Recorder) {\n    loop {\n        step_one();\n        ",
                "rec.iteration(0);\n    }\n}\nfn step_one() {\n    ",
                $callee,
                "();\n}\nfn ",
                $callee,
                "() {\n    ",
                $body,
                "\n}\n"
            )
        };
    }

    pub(crate) const GAP: &str = "epg-engine-gap";
    pub(crate) const SERVE: &str = "epg-serve";
    pub(crate) const CLOCK: &str =
        "pub fn f() {\n    let t = std::time::Instant::now();\n    drop(t);\n}\n";
    /// A query under a held guard.
    const QUERY: &str = "pub struct Reg {\n    inner: Mutex<u32>,\n}\nimpl Reg {\n    pub fn refresh(&self, engine: &dyn QueryEngine) {\n        let mut inner = self.inner.lock();\n        *inner = engine.query(Algorithm::Bfs);\n    }\n}\n";

    /// A crate, whether its one file is test-role, the file, and every
    /// `(line, rule, message fragment)` reported on it.
    pub(crate) type Case =
        (&'static str, bool, &'static str, &'static [(usize, &'static str, &'static str)]);

    /// The row table's cases. Per row: a token in the region (depth 0), a
    /// token two calls deep (its chain at the call site), a callee token
    /// already in its own region (once, at the token), and the exemptions —
    /// test spans, test-role files, out-of-scope crates. The named tests
    /// below, `crate::phases`, `crate::panics` and `crate::locking` hold the
    /// rest of each row's cases.
    #[rustfmt::skip]
    const ROW_CASES: &[Case] = &[
        // phase-purity
        (GAP, false, deep!("step_two", "let _ = std::fs::read(\"x\");"), &[(11, RULE_PHASE, "outside `load_file`")]),
        (GAP, true, deep!("load_file", "std::fs::read(\"x\");"), &[]),
        // timing-discipline: the clock is banned everywhere in scope, so a
        // read is reported where it sits and never at its callers.
        (GAP, false, deep!("step_two", "let t = std::time::Instant::now();"), &[(11, RULE_TIMING, "`Instant::now`")]),
        ("epg-graph", false, "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        let _ = std::time::Instant::now();\n    }\n}\n", &[]),
        // panic-discipline: in the region, two calls deep (its chain at
        // the call site), in a helper's own worker closure (once, there),
        // and the exemptions.
        (GAP, false, "fn run(rec: &mut R, n: usize) {\n    while n > 0 {\n        let prev = opt(n).unwrap();\n        rec.iteration(0);\n    }\n}\n", &[(3, RULE_PANIC, "`.unwrap()` inside an engine worker closure or iteration loop")]),
        (GAP, false, deep!("step_two", "opt().unwrap();"), &[(3, RULE_PANIC, "via `step_one → step_two` (crates/epg-engine-gap/src/lib.rs:11)")]),
        (GAP, false, deep!("step_two", "let v = opt().expect(\"some\");"), &[(3, RULE_PANIC, "`.expect(` is reachable from this timed span via `step_one → step_two` (crates/epg-engine-gap/src/lib.rs:11)")]),
        (GAP, false, deep!("step_two", "pool().parallel_for(8, s, |v| {\n        let x = opt(v).unwrap();\n    });"), &[(12, RULE_PANIC, "`.unwrap()` inside")]),
        (GAP, false, "fn kernel() {}\n#[cfg(test)]\nmod tests {\n    fn t(rec: &mut R) {\n        loop {\n            let v = opt().unwrap();\n            rec.iteration(0);\n        }\n    }\n}\n", &[]),
        (GAP, true, deep!("step_two", "opt().unwrap();"), &[]),
        // blocking-while-locked
        (SERVE, false, "pub struct Reg {\n    inner: Mutex<u32>,\n}\nimpl Reg {\n    pub fn refresh(&self) {\n        let mut inner = self.inner.lock();\n        *inner = self.step_one();\n    }\n    fn step_one(&self) -> u32 {\n        self.step_two()\n    }\n    fn step_two(&self) -> u32 {\n        let _ = std::fs::read(\"x\");\n        0\n    }\n}\n", &[(7, RULE_BLOCKING, "`std::fs` is reachable via `step_one → step_two` while the `Reg.inner` guard")]),
        (SERVE, false, "pub struct Reg {\n    inner: Mutex<u32>,\n    log: Mutex<u32>,\n}\nimpl Reg {\n    pub fn refresh(&self, engine: &dyn QueryEngine) {\n        let mut log = self.log.lock();\n        *log = self.recompute(engine);\n    }\n    fn recompute(&self, engine: &dyn QueryEngine) -> u32 {\n        let inner = self.inner.lock();\n        engine.query(*inner)\n    }\n}\n", &[(12, RULE_BLOCKING, "`.query(` while the `Reg.inner` guard")]),
        // A wait that releases its own guard still parks a caller holding
        // another lock.
        (SERVE, false, "pub struct Reg {\n    inner: Mutex<u32>,\n    state: Mutex<u32>,\n    cv: Condvar,\n}\nimpl Reg {\n    pub fn sweep(&self) {\n        let inner = self.inner.lock();\n        self.pause();\n    }\n    fn pause(&self) {\n        let mut state = self.state.lock();\n        while *state == 0 {\n            self.cv.wait(&mut state);\n        }\n    }\n}\n", &[(9, RULE_BLOCKING, "`.wait(` is reachable via `pause`")]),
        (SERVE, false, "pub struct Reg {\n    inner: Mutex<u32>,\n}\n#[cfg(test)]\nmod tests {\n    impl Reg {\n        fn t(&self, e: &E) {\n            let g = self.inner.lock();\n            e.query(1);\n        }\n    }\n}\n", &[]),
        ("parking_lot", false, QUERY, &[]),
        (SERVE, true, QUERY, &[]),
    ];

    /// Lints each case's one file as crate `name` and checks the `(line,
    /// rule)` list it reports, in order, and each message's fragment.
    pub(crate) fn check_cases(cases: &[Case]) {
        for (i, &(name, test_role, src, want)) in cases.iter().enumerate() {
            let mut c = krate(name, &[]);
            c.files.push(FileModel::build(
                format!("crates/{name}/src/lib.rs"),
                scan(src),
                test_role,
            ));
            let mut got = run(c);
            got.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
            got.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
            let lines: Vec<(usize, &str)> = got.iter().map(|f| (f.line, f.rule)).collect();
            let expected: Vec<(usize, &str)> = want.iter().map(|&(l, r, _)| (l, r)).collect();
            assert_eq!(lines, expected, "case {i} ({name}): {got:#?}");
            for (f, &(_, _, fragment)) in got.iter().zip(want) {
                assert!(f.message.contains(fragment), "case {i}: {}", f.message);
            }
        }
    }

    #[test]
    fn rows_report_each_token_once() {
        check_cases(ROW_CASES);
    }

    #[test]
    fn io_inside_load_file_reached_from_a_loop_is_a_phase_hole() {
        check_cases(&[(
            GAP,
            false,
            deep!("load_file", "std::fs::read(\"x\");"),
            &[(3, RULE_PHASE, "via `step_one → load_file` (crates/epg-engine-gap/src/lib.rs:11)")],
        )]);
    }

    /// The helper's unwrap sits in its own loop: reported there, never
    /// again at the timed call site.
    #[test]
    fn lexically_covered_tokens_are_not_doubled() {
        check_cases(&[(
            GAP,
            false,
            deep!("step_two", "for x in [1] {\n        x_opt(x).unwrap();\n    }"),
            &[(12, RULE_PANIC, "`.unwrap()` inside")],
        )]);
    }

    #[test]
    fn non_engine_crates_are_out_of_scope() {
        check_cases(&[(SERVE, false, deep!("step_two", "opt().unwrap();"), &[])]);
    }

    #[test]
    fn qualified_calls_resolve_within_the_named_impl_only() {
        let src = "struct A;\nstruct B;\nimpl A {\n    fn new() -> A {\n        A\n    }\n}\nimpl B {\n    fn new() -> B {\n        B\n    }\n}\nfn use_a() {\n    let _ = A::new();\n}\n";
        let c = krate("epg-serve", &[("x.rs", src)]);
        let g = CallGraph::build(&c);
        let use_a = g.nodes.iter().position(|n| n.name == "use_a").unwrap();
        let a_new = g.nodes.iter().position(|n| n.name == "new" && n.start == 4).unwrap();
        assert_eq!(g.edges[use_a], vec![(a_new, 14)]);
    }

    #[test]
    fn ambient_method_names_resolve_to_nothing() {
        let src = "struct C;\nimpl C {\n    fn insert(&self) {}\n}\nfn caller(m: &mut std::collections::HashMap<u32, u32>) {\n    m.insert(1, 2);\n}\n";
        let c = krate("epg-serve", &[("x.rs", src)]);
        let g = CallGraph::build(&c);
        let caller = g.nodes.iter().position(|n| n.name == "caller").unwrap();
        assert!(g.edges[caller].is_empty(), "{:?}", g.edges[caller]);
    }

    #[test]
    fn closure_calls_attach_to_the_defining_fn() {
        let src = "fn helper() {}\nfn outer() {\n    let f = |x: u32| {\n        helper();\n        x\n    };\n    f(1);\n}\n";
        let c = krate("epg-serve", &[("x.rs", src)]);
        let g = CallGraph::build(&c);
        let outer = g.nodes.iter().position(|n| n.name == "outer").unwrap();
        let helper = g.nodes.iter().position(|n| n.name == "helper").unwrap();
        assert_eq!(g.edges[outer], vec![(helper, 4)]);
    }

    #[test]
    fn transitive_panic_reaches_through_two_helpers() {
        let a = "pub fn kernel(pool: &ThreadPool, rec: &mut Recorder) {\n    let mut n = 2;\n    while n > 0 {\n        if pool.is_cancelled() {\n            break;\n        }\n        step_one();\n        n -= 1;\n        rec.iteration(n);\n    }\n}\n";
        let b =
            "pub fn step_one() {\n    step_two();\n}\nfn step_two() {\n    opt().unwrap();\n}\n";
        let f = run(krate("epg-engine-gap", &[("a.rs", a), ("b.rs", b)]));
        let hit = f.iter().find(|x| x.rule == RULE_PANIC).expect("transitive panic finding");
        assert_eq!((hit.file.as_str(), hit.line), ("crates/epg-engine-gap/src/a.rs", 7));
        assert!(hit.message.contains("step_one → step_two"), "{}", hit.message);
        assert!(hit.message.contains("b.rs:5"), "{}", hit.message);
    }

    #[test]
    fn find_cycle_reports_none_on_a_dag_and_the_loop_on_a_ring() {
        assert_eq!(find_cycle(3, &[(0, 1), (1, 2)]), None);
        assert_eq!(find_cycle(3, &[(1, 2), (2, 1)]), Some(vec![1, 2]));
        assert_eq!(find_cycle(4, &[(2, 3), (3, 1), (1, 2), (0, 1)]), Some(vec![1, 2, 3]));
        assert_eq!(find_cycle(1, &[(0, 0)]), Some(vec![0]));
        assert_eq!(find_cycle(0, &[]), None);
    }
}
