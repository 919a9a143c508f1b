//! The `locking` rule family: lock-order, blocking, condvar, and
//! guard-scope discipline over named `Mutex`/`RwLock` fields.
//!
//! The serving layer (PR 9) is the first subsystem whose locks live for
//! the process lifetime, so a latent inversion or a blocking call under a
//! lock is a production deadlock or a convoy, not a benchmark artifact.
//! TSan only sees interleavings that happen; these rules check the shape
//! of the code (DESIGN.md §15):
//!
//! * `lock-order-cycle` — a global acquisition graph over named lock
//!   *fields* (`(crate, struct, field)` nodes; local `Mutex` bindings are
//!   out of scope). Acquiring `B` while holding `A` — directly or through
//!   the intra-crate call graph — adds edge `A → B`; any cycle is a
//!   deadlock two threads can reach by taking the edges in opposite
//!   orders. Field-level nodes cannot distinguish two *instances* of the
//!   same field, so self-edges are not reported.
//! * `blocking-while-locked` — no `QueryEngine::query` call, file I/O, or
//!   foreign `Condvar` wait may be reachable (directly or through calls)
//!   while a lock guard is held. Its tokens are a row of the call-graph
//!   table ([`crate::callgraph`]), with this module's guard intervals as
//!   the row's region; the wait *on the line holding the guard* stays
//!   here, because waiting on a condvar with the held guard itself is the
//!   condvar protocol and is exempt — when it is the only lock held.
//! * `condvar-wait-loop` — every wait on a named `Condvar` field must sit
//!   inside a loop: condvars wake spuriously, and a missed predicate
//!   re-check sleeps forever.
//! * `guard-across-span` — no guard may be live across a pool-dispatch
//!   entry point, a `Recorder::record` telemetry emission, or a condvar
//!   notify: dispatch and telemetry extend the critical section into
//!   foreign code, and notifying while holding the lock wakes threads
//!   straight into contention (waiters re-check the predicate under the
//!   lock, so notify-after-unlock never loses a wakeup).
//!
//! Guard liveness is lexical: a `let g = place.lock();` guard lives from
//! its binding to the end of the innermost enclosing brace block, or to
//! an explicit `drop(g)`; a chained temporary (`place.lock().field`) lives
//! only on its own line. Receivers resolve through the enclosing `impl`
//! (`self.field`) or fan out to every struct with that field name.
//! Test-role files and `#[cfg(test)]` spans are exempt.

use crate::callgraph::{enclosing_impl, find_cycle, CrateGraph};
use crate::flow::{last_ident, let_bindings, place_chain};
use crate::model::{par_entries, CrateModel, FileModel};
use crate::rules::Finding;

/// Stable rule id: cycle in the global lock-acquisition graph.
pub const RULE_LOCK_CYCLE: &str = "lock-order-cycle";

/// Stable rule id: blocking operation reachable under a held guard.
pub const RULE_BLOCKING: &str = "blocking-while-locked";

/// Stable rule id: condvar wait outside a predicate loop.
pub const RULE_CV_LOOP: &str = "condvar-wait-loop";

/// Stable rule id: guard live across a dispatch/telemetry/wake boundary.
pub const RULE_GUARD_SPAN: &str = "guard-across-span";

/// Tokens that acquire a guard from a lock field.
const ACQUIRE_TOKENS: &[&str] = &[".lock()", ".read()", ".write()"];

/// Tokens a live guard must not span: pool dispatch, telemetry emission,
/// and condvar notification.
const BOUNDARY_TOKENS: &[&str] = &[".record(", ".notify_all(", ".notify_one("];

/// One named lock: a `Mutex`/`RwLock` struct field.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct LockKey {
    krate: String,
    strukt: String,
    field: String,
}

impl LockKey {
    fn display(&self) -> String {
        format!("{}.{}", self.strukt, self.field)
    }
}

/// One guard-liveness interval inside a fn.
pub(crate) struct Held {
    keys: Vec<LockKey>,
    /// Binding name for `let` guards; `None` for one-line temporaries.
    guard: Option<String>,
    pub(crate) from: usize,
    pub(crate) to: usize,
}

impl Held {
    /// The guarded lock(s), as `Struct.field` joined with `/`.
    pub(crate) fn lock(&self) -> String {
        self.keys.iter().map(LockKey::display).collect::<Vec<_>>().join("/")
    }
}

/// One acquisition-graph edge with the site that creates it.
pub(crate) struct LockEdge {
    from: LockKey,
    to: LockKey,
    file: String,
    line: usize,
    /// Call chain for transitive edges, empty for direct ones.
    via: String,
}

/// One crate's named locks and condvars, and the guard intervals of each
/// of its files.
pub(crate) struct Locks {
    fields: Vec<(String, String)>,
    pub(crate) cvs: Vec<String>,
    /// Per file: every guard interval, in line order. Empty for test-role
    /// files.
    pub(crate) guards: Vec<Vec<Held>>,
}

impl Locks {
    /// Collects the crate's lock fields, condvar fields and guards.
    pub(crate) fn build(c: &CrateModel) -> Locks {
        let fields = lock_fields(c);
        let live = |f: &FileModel| !f.test_role && !fields.is_empty();
        let guards =
            c.files
                .iter()
                .map(|f| if live(f) { held_intervals(c, f, &fields) } else { Vec::new() });
        let guards = guards.collect();
        Locks { fields, cvs: condvar_fields(c), guards }
    }
}

/// Runs the locking family over one policy crate; lock-order edges
/// accumulate in `edges` for [`check_cycles`] across crates.
pub(crate) fn check_crate(cx: &CrateGraph, out: &mut Vec<Finding>, edges: &mut Vec<LockEdge>) {
    let (c, locks) = (cx.c, &cx.locks);
    if !locks.cvs.is_empty() {
        for f in c.files.iter().filter(|f| !f.test_role) {
            check_cv_loops(f, &locks.cvs, out);
        }
    }
    if locks.fields.is_empty() {
        return;
    }
    // Acquisitions per call-graph node, for transitive lock-order edges.
    let node_acqs: Vec<Vec<LockKey>> =
        cx.g.nodes
            .iter()
            .map(|n| {
                let f = &c.files[n.file];
                (n.start..=n.end)
                    .filter(|&l| !f.in_test(l))
                    .flat_map(|l| acquisitions(c, f, l, &locks.fields))
                    .flat_map(|a| a.keys)
                    .collect()
            })
            .collect();
    for (fi, held) in locks.guards.iter().enumerate() {
        for h in held {
            for line in h.from..=h.to {
                if !c.files[fi].in_test(line) {
                    check_line(cx, fi, &node_acqs, held, h, line, out, edges);
                }
            }
        }
    }
}

/// All `Mutex`/`RwLock` fields of the crate's structs.
fn lock_fields(c: &CrateModel) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for f in &c.files {
        for s in &f.structs {
            for fl in &s.fields {
                if fl.ty_head == "Mutex" || fl.ty_head == "RwLock" {
                    out.push((s.name.clone(), fl.name.clone()));
                }
            }
        }
    }
    out
}

/// All `Condvar` field names of the crate's structs.
fn condvar_fields(c: &CrateModel) -> Vec<String> {
    let mut out = Vec::new();
    for f in &c.files {
        for s in &f.structs {
            for fl in &s.fields {
                if fl.ty_head == "Condvar" && !out.contains(&fl.name) {
                    out.push(fl.name.clone());
                }
            }
        }
    }
    out
}

/// One resolved acquisition on a line.
struct Acq {
    keys: Vec<LockKey>,
    /// Whether the acquisition ends its statement (`….lock();`) — the
    /// shape of a named guard binding.
    statement_final: bool,
}

/// Acquisitions of named lock fields on `line` (1-based) of `f`.
fn acquisitions(
    c: &CrateModel,
    f: &FileModel,
    line: usize,
    locks: &[(String, String)],
) -> Vec<Acq> {
    let Some(code) = f.lines.get(line - 1).map(|l| l.code.as_str()) else { return Vec::new() };
    let mut out = Vec::new();
    for tok in ACQUIRE_TOKENS {
        let mut from = 0;
        while let Some(pos) = code[from..].find(tok) {
            let at = from + pos;
            from = at + tok.len();
            let keys = resolve_receiver(c, f, line, code, at, locks);
            if keys.is_empty() {
                continue; // a local binding or an unrelated read()/write()
            }
            let rest = code[at + tok.len()..].trim_start();
            out.push(Acq { keys, statement_final: rest.is_empty() || rest.starts_with(';') });
        }
    }
    out
}

/// Lock keys a receiver chain ending at byte `at` can denote. `self.field`
/// resolves through the enclosing impl; longer chains (or no impl match)
/// fan out to every struct declaring the field.
fn resolve_receiver(
    c: &CrateModel,
    f: &FileModel,
    line: usize,
    code: &str,
    at: usize,
    locks: &[(String, String)],
) -> Vec<LockKey> {
    let Some(chain) = place_chain(code, at) else { return Vec::new() };
    let Some(field) = last_ident(chain) else { return Vec::new() };
    let mut cands: Vec<&(String, String)> = locks.iter().filter(|(_, fl)| fl == field).collect();
    if cands.is_empty() {
        return Vec::new();
    }
    if cands.len() > 1 && chain.starts_with("self.") {
        if let Some(ty) = enclosing_impl(f, line) {
            let narrowed: Vec<&(String, String)> =
                cands.iter().copied().filter(|(s, _)| s == ty).collect();
            if !narrowed.is_empty() {
                cands = narrowed;
            }
        }
    }
    cands
        .into_iter()
        .map(|(s, fl)| LockKey { krate: c.name.clone(), strukt: s.clone(), field: fl.clone() })
        .collect()
}

/// Guard-liveness intervals of one file, each bounded by the innermost fn
/// holding its acquisition.
fn held_intervals(c: &CrateModel, f: &FileModel, locks: &[(String, String)]) -> Vec<Held> {
    let mut out = Vec::new();
    for line in 1..=f.lines.len() {
        let acqs = acquisitions(c, f, line, locks);
        if acqs.is_empty() || f.in_test(line) {
            continue;
        }
        let within = f.fns.iter().filter(|s| s.start <= line && line <= s.end);
        let Some(span_end) = within.map(|s| s.end).min() else { continue };
        let code = f.lines.get(line - 1).map(|l| l.code.as_str()).unwrap_or("");
        for acq in acqs {
            let mut names = Vec::new();
            let_bindings(code, &mut names);
            if acq.statement_final && !names.is_empty() {
                let guard = names.last().unwrap().clone();
                let mut to = f.block_end(line).min(span_end);
                for l in line + 1..=to {
                    let lc = f.lines.get(l - 1).map(|x| x.code.as_str()).unwrap_or("");
                    if lc.contains(&format!("drop({guard})")) {
                        to = l.saturating_sub(1).max(line);
                        break;
                    }
                }
                out.push(Held { keys: acq.keys, guard: Some(guard), from: line, to });
            } else {
                out.push(Held { keys: acq.keys, guard: None, from: line, to: line });
            }
        }
    }
    out
}

/// `condvar-wait-loop`: every wait on a named `Condvar` field must fall
/// inside a loop body.
fn check_cv_loops(f: &FileModel, cvs: &[String], out: &mut Vec<Finding>) {
    for line in f.token_lines(".wait(") {
        if f.in_test(line) {
            continue;
        }
        let Some(field) = cv_wait_receiver(f, line, cvs) else { continue };
        if !f.loops.iter().any(|&(s, e)| s <= line && line <= e) {
            out.push(Finding {
                file: f.path.clone(),
                line,
                rule: RULE_CV_LOOP,
                message: format!(
                    "`{field}.wait(…)` outside a predicate loop: condvars wake spuriously and a \
                     missed re-check sleeps forever — wrap the wait in `while !condition {{ \
                     cv.wait(&mut guard) }}`"
                ),
            });
        }
    }
}

/// The condvar field name a `.wait(` on `line` is called on, if any.
pub(crate) fn cv_wait_receiver(f: &FileModel, line: usize, cvs: &[String]) -> Option<String> {
    let code = f.lines.get(line - 1).map(|l| l.code.as_str())?;
    let mut from = 0;
    while let Some(pos) = code[from..].find(".wait(") {
        let at = from + pos;
        from = at + 6;
        if let Some(chain) = place_chain(code, at) {
            if let Some(field) = last_ident(chain) {
                if cvs.iter().any(|c| c == field) {
                    return Some(field.to_string());
                }
            }
        }
    }
    None
}

/// Checks one held line for a foreign condvar wait, boundary tokens, and
/// new acquisitions (lock-order edges).
#[allow(clippy::too_many_arguments)]
fn check_line(
    cx: &CrateGraph,
    fi: usize,
    node_acqs: &[Vec<LockKey>],
    held: &[Held],
    h: &Held,
    line: usize,
    out: &mut Vec<Finding>,
    edges: &mut Vec<LockEdge>,
) {
    let (c, g, f) = (cx.c, &cx.g, &cx.c.files[fi]);
    let code = f.lines.get(line - 1).map(|l| l.code.as_str()).unwrap_or("");
    let held_now: Vec<&Held> = held.iter().filter(|x| x.from <= line && line <= x.to).collect();
    let lock_disp = h.lock();

    // Condvar waits: the own-guard wait is the condvar protocol; waiting
    // on a foreign condvar (or with a second lock held) blocks contenders.
    if let Some(field) = cv_wait_receiver(f, line, &cx.locks.cvs) {
        let args = wait_args(code);
        let own = h.guard.as_deref().is_some_and(|gd| args.contains(gd));
        let sole = held_now.len() == 1;
        if !(own && sole) {
            out.push(Finding {
                file: f.path.clone(),
                line,
                rule: RULE_BLOCKING,
                message: format!(
                    "`{field}.wait(…)` while the `{lock_disp}` guard is held: the wait parks this \
                     thread with a foreign lock still taken — only the guard passed to the wait \
                     is released"
                ),
            });
        }
    }

    // Boundary tokens: telemetry, notify, dispatch.
    let dispatch = par_entries(code).into_iter().map(|(_, _, tok)| tok);
    for tok in BOUNDARY_TOKENS.iter().copied().filter(|tok| code.contains(tok)).chain(dispatch) {
        out.push(Finding {
            file: f.path.clone(),
            line,
            rule: RULE_GUARD_SPAN,
            message: format!(
                "`{tok}…)` while the `{lock_disp}` guard is held: the guard outlives its critical \
                 section across a dispatch/telemetry/wake boundary — drop it first (waiters \
                 re-check the predicate under the lock, so notify-after-unlock is safe)"
            ),
        });
    }

    // New acquisitions under the guard: direct lock-order edges.
    for acq in acquisitions(c, f, line, &cx.locks.fields) {
        if line == h.from {
            continue; // the interval's own acquisition
        }
        for from_key in &h.keys {
            for to_key in &acq.keys {
                if from_key != to_key {
                    edges.push(LockEdge {
                        from: from_key.clone(),
                        to: to_key.clone(),
                        file: f.path.clone(),
                        line,
                        via: String::new(),
                    });
                }
            }
        }
    }

    // Transitive: calls made while the guard is held.
    let Some(caller) = g.node_at(fi, line) else { return };
    let starts: Vec<usize> =
        g.edges[caller].iter().filter(|&&(_, l)| l == line).map(|&(v, _)| v).collect();
    if starts.is_empty() {
        return;
    }
    let (parents, _) = g.bfs(&starts, |_| false);
    for ni in 0..g.nodes.len() {
        if parents[ni].is_none() || ni == caller {
            continue;
        }
        // Reached acquisitions → transitive lock-order edges.
        for to_key in &node_acqs[ni] {
            for from_key in &h.keys {
                if from_key != to_key {
                    edges.push(LockEdge {
                        from: from_key.clone(),
                        to: to_key.clone(),
                        file: f.path.clone(),
                        line,
                        via: g.chain_names(&parents, ni),
                    });
                }
            }
        }
    }
}

/// The argument text of the first `.wait(` on the line.
fn wait_args(code: &str) -> &str {
    let Some(pos) = code.find(".wait(") else { return "" };
    let rest = &code[pos + 6..];
    &rest[..rest.find(')').unwrap_or(rest.len())]
}

/// Detects cycles in the accumulated acquisition graph and reports one
/// finding per cycle, anchored at the lexically first edge site.
pub(crate) fn check_cycles(edges: &[LockEdge], out: &mut Vec<Finding>) {
    let mut keys: Vec<&LockKey> = Vec::new();
    for e in edges {
        for k in [&e.from, &e.to] {
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    keys.sort();
    keys.dedup();
    let idx = |k: &LockKey| keys.iter().position(|&x| x == k).unwrap();
    let mut pairs: Vec<(usize, usize)> = edges.iter().map(|e| (idx(&e.from), idx(&e.to))).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut remaining = pairs;
    // Peel one cycle at a time so independent cycles each get a finding.
    while let Some(cycle) = find_cycle(keys.len(), &remaining) {
        let on_cycle = |u: usize, v: usize| {
            cycle.iter().enumerate().any(|(i, &a)| {
                let b = cycle[(i + 1) % cycle.len()];
                (a, b) == (u, v)
            })
        };
        // One site per cycle edge, in ring order: the lexically first
        // LockEdge that created it.
        let mut sites: Vec<&LockEdge> = Vec::new();
        for (i, &a) in cycle.iter().enumerate() {
            let b = cycle[(i + 1) % cycle.len()];
            if let Some(site) = edges
                .iter()
                .filter(|e| (idx(&e.from), idx(&e.to)) == (a, b))
                .min_by(|x, y| (&x.file, x.line).cmp(&(&y.file, y.line)))
            {
                sites.push(site);
            }
        }
        let ring: Vec<String> =
            cycle.iter().chain(cycle.first()).map(|&i| keys[i].display()).collect();
        let edge_desc: Vec<String> = sites
            .iter()
            .map(|e| {
                if e.via.is_empty() {
                    format!("{}:{}", e.file, e.line)
                } else {
                    format!("{}:{} via `{}`", e.file, e.line, e.via)
                }
            })
            .collect();
        let anchor = sites
            .iter()
            .min_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)))
            .expect("cycle has at least one edge site");
        out.push(Finding {
            file: anchor.file.clone(),
            line: anchor.line,
            rule: RULE_LOCK_CYCLE,
            message: format!(
                "lock-acquisition cycle `{}` (edges: {}): two threads taking these locks in \
                 opposite orders deadlock — impose one global acquisition order",
                ring.join(" → "),
                edge_desc.join(", "),
            ),
        });
        remaining.retain(|&(u, v)| !on_cycle(u, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workspace;
    use crate::scan::scan;

    fn krate(name: &str, src: &str) -> CrateModel {
        CrateModel {
            name: name.to_string(),
            dir: format!("crates/{name}"),
            manifest_path: format!("crates/{name}/Cargo.toml"),
            manifest_lines: Vec::new(),
            deps: Vec::new(),
            dev_deps: Vec::new(),
            files: vec![FileModel::build(format!("crates/{name}/src/lib.rs"), scan(src), false)],
        }
    }

    /// The call-graph families: this module's rules plus the
    /// `blocking-while-locked` row.
    fn run(c: CrateModel) -> Vec<Finding> {
        let ws = Workspace { crates: vec![c], loose: Vec::new() };
        let mut out = Vec::new();
        crate::callgraph::check(&ws, &mut out);
        out
    }

    fn rules_of(f: &[Finding]) -> Vec<&str> {
        f.iter().map(|x| x.rule).collect()
    }

    const STRUCTS: &str = "pub struct Reg {\n    inner: Mutex<u32>,\n    cv: Condvar,\n}\npub struct Store {\n    slots: Mutex<Vec<u32>>,\n}\n";

    #[test]
    fn wait_outside_a_loop_is_flagged_and_own_guard_wait_is_not_blocking() {
        let src = format!(
            "{STRUCTS}impl Reg {{\n    pub fn pause(&self) {{\n        let mut inner = self.inner.lock();\n        self.cv.wait(&mut inner);\n    }}\n}}\n"
        );
        let f = run(krate("epg-serve", &src));
        assert_eq!(rules_of(&f), vec![RULE_CV_LOOP], "{f:?}");
        assert_eq!(f[0].line, 11);
    }

    #[test]
    fn wait_inside_a_predicate_loop_passes() {
        let src = format!(
            "{STRUCTS}impl Reg {{\n    pub fn pause(&self) {{\n        let mut inner = self.inner.lock();\n        while *inner == 0 {{\n            self.cv.wait(&mut inner);\n        }}\n    }}\n}}\n"
        );
        assert!(run(krate("epg-serve", &src)).is_empty());
    }

    #[test]
    fn engine_query_under_a_guard_is_blocking() {
        let src = format!(
            "{STRUCTS}impl Reg {{\n    pub fn refresh(&self, engine: &dyn QueryEngine) {{\n        let mut inner = self.inner.lock();\n        *inner = engine.query(Algorithm::Bfs);\n    }}\n}}\n"
        );
        let f = run(krate("epg-serve", &src));
        assert_eq!(rules_of(&f), vec![RULE_BLOCKING]);
        assert_eq!(f[0].line, 11);
        assert!(f[0].message.contains("Reg.inner"), "{}", f[0].message);
    }

    #[test]
    fn blocking_reached_through_a_helper_reports_the_chain() {
        let src = format!(
            "{STRUCTS}impl Reg {{\n    pub fn refresh(&self, engine: &dyn QueryEngine) {{\n        let mut inner = self.inner.lock();\n        *inner = self.recompute(engine);\n    }}\n    fn recompute(&self, engine: &dyn QueryEngine) -> u32 {{\n        engine.query(Algorithm::Bfs)\n    }}\n}}\n"
        );
        let f = run(krate("epg-serve", &src));
        assert_eq!(rules_of(&f), vec![RULE_BLOCKING]);
        assert!(f[0].message.contains("via `recompute`"), "{}", f[0].message);
    }

    #[test]
    fn notify_under_the_guard_is_a_span_violation_and_drop_clears_it() {
        let bad = format!(
            "{STRUCTS}impl Reg {{\n    pub fn publish(&self) {{\n        let mut inner = self.inner.lock();\n        *inner = 1;\n        self.cv.notify_all();\n    }}\n}}\n"
        );
        let f = run(krate("epg-serve", &bad));
        assert_eq!(rules_of(&f), vec![RULE_GUARD_SPAN]);
        assert_eq!(f[0].line, 12);

        let good = format!(
            "{STRUCTS}impl Reg {{\n    pub fn publish(&self) {{\n        let mut inner = self.inner.lock();\n        *inner = 1;\n        drop(inner);\n        self.cv.notify_all();\n    }}\n}}\n"
        );
        assert!(run(krate("epg-serve", &good)).is_empty());
    }

    #[test]
    fn block_scoped_guard_does_not_leak_past_its_block() {
        let src = format!(
            "{STRUCTS}impl Reg {{\n    pub fn publish(&self) {{\n        {{\n            let mut inner = self.inner.lock();\n            *inner = 1;\n        }}\n        self.cv.notify_all();\n    }}\n}}\n"
        );
        assert!(run(krate("epg-serve", &src)).is_empty());
    }

    #[test]
    fn chained_temporary_lives_only_on_its_line() {
        let src = format!(
            "{STRUCTS}impl Reg {{\n    pub fn bump(&self) {{\n        let v = *self.inner.lock() + 1;\n        self.cv.notify_all();\n    }}\n}}\n"
        );
        assert!(run(krate("epg-serve", &src)).is_empty());
    }

    #[test]
    fn interprocedural_lock_cycle_is_detected() {
        let src = format!(
            "{STRUCTS}impl Reg {{\n    pub fn sweep(&self, store: &Store) {{\n        let mut inner = self.inner.lock();\n        store.absorb(&mut inner);\n    }}\n    fn note(&self) {{\n        let mut inner = self.inner.lock();\n        *inner += 1;\n    }}\n}}\nimpl Store {{\n    pub fn absorb(&self, pending: &mut u32) {{\n        let mut slots = self.slots.lock();\n        slots.push(*pending);\n    }}\n    pub fn flush(&self, reg: &Reg) {{\n        let slots = self.slots.lock();\n        reg.note();\n    }}\n}}\n"
        );
        let f = run(krate("epg-serve", &src));
        assert_eq!(rules_of(&f), vec![RULE_LOCK_CYCLE], "{f:?}");
        assert!(f[0].message.contains("Reg.inner → Store.slots → Reg.inner"), "{}", f[0].message);
        assert!(f[0].message.contains("via `absorb`"), "{}", f[0].message);
    }

    #[test]
    fn nested_acquisition_without_a_cycle_is_not_a_finding() {
        let src = format!(
            "{STRUCTS}impl Reg {{\n    pub fn sweep(&self, store: &Store) {{\n        let mut inner = self.inner.lock();\n        store.absorb(&mut inner);\n    }}\n}}\nimpl Store {{\n    pub fn absorb(&self, pending: &mut u32) {{\n        let mut slots = self.slots.lock();\n        slots.push(*pending);\n    }}\n}}\n"
        );
        assert!(run(krate("epg-serve", &src)).is_empty());
    }

    #[test]
    fn local_mutex_bindings_are_out_of_scope() {
        let src = "pub fn reduce() {\n    let partials = Mutex::new(Vec::new());\n    let mut p = partials.lock();\n    p.push(1);\n    rec.record(1);\n}\n";
        assert!(run(krate("epg-parallel", src)).is_empty());
    }

    #[test]
    fn test_spans_and_vendored_crates_are_exempt() {
        let src = format!(
            "{STRUCTS}#[cfg(test)]\nmod tests {{\n    impl Reg {{\n        fn t(&self) {{\n            let mut inner = self.inner.lock();\n            self.cv.wait(&mut inner);\n        }}\n    }}\n}}\n"
        );
        assert!(run(krate("epg-serve", &src)).is_empty());
        let vendored = format!(
            "{STRUCTS}impl Reg {{\n    pub fn pause(&self) {{\n        let mut inner = self.inner.lock();\n        self.cv.wait(&mut inner);\n    }}\n}}\n"
        );
        assert!(run(krate("parking_lot", &vendored)).is_empty());
    }
}
