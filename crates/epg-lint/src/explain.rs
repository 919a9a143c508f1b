//! `--explain <rule-id>`: the rule catalog as living documentation.
//!
//! Every stable rule id across the four families — PR 1's line rules,
//! PR 5's architecture rules, PR 6's concurrency dataflow rules, PR 10's
//! locking rules — has an entry here with its rationale, an example
//! violation, and the fix pattern. A test pins the catalog to the rule ids the checkers emit,
//! so a new rule cannot ship undocumented.

/// One rule's documentation, rendered by [`render`].
#[derive(Debug)]
pub struct RuleDoc {
    /// The stable id printed in findings (`[rule-id]`).
    pub id: &'static str,
    /// The rule family: `line`, `architecture`, `concurrency`, or
    /// `locking`.
    pub family: &'static str,
    /// What the rule proves and why the comparison needs it.
    pub rationale: &'static str,
    /// A minimal violating snippet.
    pub example: &'static str,
    /// The idiomatic fix, plus the escape hatch when the code is right.
    pub fix: &'static str,
}

/// The full catalog, ordered by family then id.
pub const CATALOG: &[RuleDoc] = &[
    // --- line rules (PR 1) -------------------------------------------------
    RuleDoc {
        id: "safety-comment",
        family: "line",
        rationale: "Every `unsafe` block or fn must carry a `// SAFETY:` comment on or above \
                    it. The pool's job dispatch and DisjointWriter's aliasing argument are \
                    load-bearing: an undocumented unsafe block is an unreviewable one.",
        example: "unsafe { *slot.get_raw(v) = dist };",
        fix: "Write the invariant, not the mechanics: `// SAFETY: v is owned by this worker's \
              range; ranges are disjoint by construction.` No allowlist escape — the comment \
              is the escape.",
    },
    RuleDoc {
        id: "unsafe-impl",
        family: "line",
        rationale: "`unsafe impl Send`/`Sync` asserts thread-safety the compiler cannot check; \
                    such assertions are contained to `epg-parallel`, the one crate whose job \
                    is to be audited for them.",
        example: "unsafe impl<T> Sync for MyCell<T> {}  // in an engine crate",
        fix: "Move the abstraction into epg-parallel behind a safe API, or use the existing \
              DisjointWriter/atomics. Audited exceptions: an `epg-lint.toml` entry with the \
              audit reason.",
    },
    RuleDoc {
        id: "raw-ptr-field",
        family: "line",
        rationale: "Struct fields of raw-pointer type (`*const T`/`*mut T`) outside \
                    epg-parallel smuggle aliasing obligations into crates that are not \
                    audited for them.",
        example: "struct Frontier { data: *mut u32 }  // in an engine crate",
        fix: "Hold a slice, an index range, or a DisjointWriter handle instead; the substrate \
              owns the pointers. Escape hatch: `epg-lint.toml` with the audit reason.",
    },
    RuleDoc {
        id: "cas-ordering",
        family: "line",
        rationale: "A compare-exchange failure ordering stronger than its success ordering is \
                    either a typo or a misunderstanding; both read as bugs in review and cost \
                    cycles on ARM-class memory models.",
        example: "x.compare_exchange(a, b, Ordering::Relaxed, Ordering::SeqCst)",
        fix: "Derive the failure ordering from the success ordering \
              (`cas_failure_order(success)` in epg-parallel) — failure needs at most the \
              success ordering's load half.",
    },
    RuleDoc {
        id: "static-mut",
        family: "line",
        rationale: "`static mut` is unsynchronized global state — a data race waiting for a \
                    second thread, and the engines always have a second thread.",
        example: "static mut SCRATCH: Vec<u32> = Vec::new();",
        fix: "Use an atomic, a `OnceLock`/lazy init, or pass state through the pool's worker \
              arguments. No allowlist escape: the workspace bans it outright.",
    },
    // --- architecture rules (PR 5) ----------------------------------------
    RuleDoc {
        id: "layering",
        family: "architecture",
        rationale: "The crate DAG is the experiment's control surface: engines depend only on \
                    the substrate and the API crate, never on the harness or each other, so \
                    one engine cannot observe or perturb another.",
        example: "# crates/epg-engine-gap/Cargo.toml\n[dependencies]\nepg-harness = { path = \
                  \"../epg-harness\" }",
        fix: "Move the shared code down a layer (epg-graph, epg-parallel, epg-engine-api) or \
              up into the harness. The allowed edges are the `ENGINE_ALLOWED` table in \
              `arch.rs`.",
    },
    RuleDoc {
        id: "phase-purity",
        family: "architecture",
        rationale: "File I/O belongs to the read phase only. An engine that touches the \
                    filesystem inside its run path hides I/O latency inside its measured \
                    kernel time — the SoK's classic unfair-comparison fault.",
        example: "let edges = std::fs::read_to_string(path)?;  // inside Engine::run",
        fix: "Load in `load_file`/the dataset layer; pass the engine an in-memory `Csr`. \
              Escape hatch: `epg-lint.toml` for tooling crates that are I/O by design.",
    },
    RuleDoc {
        id: "timing-discipline",
        family: "architecture",
        rationale: "The harness owns the clock. Engines reading `Instant::now` (or friends) \
                    can self-report flattering timings; one timer in one place keeps the five \
                    engines comparable.",
        example: "let t0 = std::time::Instant::now();  // inside an engine crate",
        fix: "Report iterations/phases through `RunRecorder`; the harness timestamps around \
              the call. Designated timer modules (trace telemetry, bench drivers) are audited \
              in `epg-lint.toml`.",
    },
    RuleDoc {
        id: "panic-discipline",
        family: "architecture",
        rationale: "Engine hot paths must fail through the supervised `TrialOutcome` path, \
                    not `unwrap`/`expect`/`panic!` — a panic inside a worker poisons the pool \
                    and turns one engine's bug into every engine's DNF.",
        example: "let d = dist[u].checked_add(w).unwrap();  // inside an iteration loop",
        fix: "Propagate an error to the trial supervisor or use a checked/saturating \
              operation. Escape hatch: `epg-lint.toml` with a reason when the invariant is \
              locally provable.",
    },
    // --- concurrency dataflow rules (PR 6) --------------------------------
    RuleDoc {
        id: "shared-mutable-capture",
        family: "concurrency",
        rationale: "A worker closure assigning directly to a captured place (`out[v] = …`, \
                    `total += …`) races: every worker executes the same closure. This is the \
                    static twin of the `check-disjoint` dynamic detector — mutation of shared \
                    state must go through DisjointWriter, atomics, or a lock.",
        example: "pool.parallel_for(n, sched, |v| {\n    dist[v] = level;  // `dist` captured \
                  by every worker\n});",
        fix: "Route the write through `DisjointWriter` (with its SAFETY argument), an atomic \
              cell, or a per-worker buffer merged after the region. API-mediated writes \
              (`*w.get_raw(v) = …`) are recognized and not flagged.",
    },
    RuleDoc {
        id: "atomic-ordering",
        family: "concurrency",
        rationale: "Extends `cas-ordering` to the sites it cannot see: `SeqCst` inside hot \
                    loop bodies or worker closures (and anywhere in the epg-parallel \
                    substrate) where acquire/release suffices, and `Relaxed` loads of \
                    cross-thread flags (cancel/stop/done/…) that need an Acquire load to \
                    observe the writes published before the flag was raised.",
        example: "while active.load(Ordering::Relaxed) {\n    counter.fetch_add(1, \
                  Ordering::SeqCst);\n}",
        fix: "Publish with Release, observe with Acquire; use Relaxed only for counters with \
              no payload. The audited `CancelToken::is_cancelled` fast path is the one \
              built-in exception; others need an `epg-lint.toml` entry with the audit \
              argument.",
    },
    RuleDoc {
        id: "hot-loop-alloc",
        family: "concurrency",
        rationale: "Allocation inside a timed span — an iteration loop, a loop dispatching \
                    parallel work, or a worker closure — is hidden work that skews the \
                    engine comparison. `Vec::new` plus push-growth pays its reallocations \
                    inside the measured region.",
        example: "while !frontier.is_empty() {\n    let next: Vec<u32> = frontier.iter()\n        \
                  .flat_map(|v| out_edges(v)).collect();  // allocates every level\n    …\n}",
        fix: "Hoist buffers out of the loop and reuse them (`Vec::with_capacity` outside, \
              `clear()` inside), or collect per-worker and merge once. Bounded one-shot \
              allocations that are part of the algorithm's output get a reasoned \
              `epg-lint.toml` entry.",
    },
    // --- locking rules (PR 10) ---------------------------------------------
    RuleDoc {
        id: "lock-order-cycle",
        family: "locking",
        rationale: "Two threads acquiring the same named locks in opposite orders deadlock \
                    under the right interleaving. The checker builds a global \
                    lock-acquisition graph over `Mutex`/`RwLock` struct fields — an edge A→B \
                    wherever B is acquired while A's guard is live, directly or through \
                    callees — and any cycle is a finding, whether or not today's schedule \
                    ever hits it.",
        example: "fn sweep(&self) {\n    let reg = self.registry.lock();\n    \
                  self.store.lock();  // Registry.inner → Store.slots\n}\nfn flush(&self) {\n    \
                  let s = self.store.lock();\n    self.registry.lock();  // Store.slots → \
                  Registry.inner\n}",
        fix: "Pick one global acquisition order and restructure the violating path — usually \
              by copying what's needed out of the first lock before taking the second. \
              Same-field self-edges are not reported (two instances of one struct are \
              indistinguishable statically); those need a runtime ordering argument in a \
              SAFETY comment.",
    },
    RuleDoc {
        id: "blocking-while-locked",
        family: "locking",
        rationale: "A traversal, `QueryEngine` call, `Condvar::wait`, or file I/O executed \
                    while a service lock is held turns that lock into a convoy: every other \
                    request serializes behind one caller's slow operation. Reachability is \
                    transitive — a helper that blocks three calls down is found and reported \
                    as a call chain.",
        example: "let mut cache = self.cache.lock();\nlet result = \
                  self.engine.query(req);  // traversal under the cache lock\ncache.insert(key, \
                  result);",
        fix: "Shrink the critical section: clone/move what's needed out of the guard scope, \
              run the blocking operation unlocked, then re-lock to publish. \
              `Condvar::wait(&mut guard)` on the lock's own (and only) guard is the blessed \
              wait idiom and is not flagged.",
    },
    RuleDoc {
        id: "condvar-wait-loop",
        family: "locking",
        rationale: "`Condvar::wait` returns on spurious wakeups and on notifications meant \
                    for other predicates; a wait outside a predicate loop proceeds on \
                    unverified state. Every wait must re-check its condition.",
        example: "let mut slot = self.slot.lock();\nif slot.is_none() {\n    \
                  self.cv.wait(&mut slot);  // single-shot wait\n}",
        fix: "Wrap the wait in the predicate loop: `while slot.is_none() { \
              self.cv.wait(&mut slot); }` — the loop body is the wakeup filter. There is no \
              allowlist escape; spurious wakeups are not an audit question.",
    },
    RuleDoc {
        id: "guard-across-span",
        family: "locking",
        rationale: "A guard held across a `Tracer` span boundary folds lock-wait time into \
                    the recorded span; held across a pool dispatch it serializes the region \
                    it fans out; held across a `notify` it wakes threads into a mutex the \
                    notifier still owns, burning a scheduler round-trip per wakeup.",
        example: "let mut st = self.inner.state.lock();\nst.gen += 1;\n\
                  self.work_cv.notify_all();  // woken workers block on `st`",
        fix: "End the guard before the boundary: close the scope (or `drop(guard)`), then \
              notify/dispatch/record. For state that must be read under the lock, copy it \
              out first — the notify itself never needs the lock.",
    },
];

/// Looks up a rule id in the catalog.
pub fn lookup(id: &str) -> Option<&'static RuleDoc> {
    CATALOG.iter().find(|d| d.id == id)
}

/// All stable rule ids, catalog order — for error messages and tests.
pub fn rule_ids() -> Vec<&'static str> {
    CATALOG.iter().map(|d| d.id).collect()
}

/// Renders one catalog entry as the `--explain` output.
pub fn render(doc: &RuleDoc) -> String {
    let mut out = String::new();
    out.push_str(&format!("{} ({} rule)\n\n", doc.id, doc.family));
    out.push_str(&format!("WHY\n  {}\n\n", wrap(doc.rationale)));
    out.push_str("EXAMPLE VIOLATION\n");
    for line in doc.example.lines() {
        out.push_str(&format!("  {line}\n"));
    }
    out.push_str(&format!("\nFIX\n  {}\n", wrap(doc.fix)));
    out
}

/// Re-wraps catalog prose (which carries source-indentation runs) into
/// single-spaced text indented to match the section header.
fn wrap(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_every_emitted_rule_id() {
        let emitted = [
            "safety-comment",
            "unsafe-impl",
            "raw-ptr-field",
            "cas-ordering",
            "static-mut",
            "layering",
            "phase-purity",
            "timing-discipline",
            "panic-discipline",
            crate::flow::RULE_CAPTURE,
            crate::flow::RULE_ORDERING,
            crate::flow::RULE_ALLOC,
            crate::locking::RULE_LOCK_CYCLE,
            crate::locking::RULE_BLOCKING,
            crate::locking::RULE_CV_LOOP,
            crate::locking::RULE_GUARD_SPAN,
        ];
        for id in emitted {
            assert!(lookup(id).is_some(), "rule `{id}` has no --explain entry");
        }
        assert_eq!(CATALOG.len(), emitted.len(), "catalog has undocumented extras");
    }

    #[test]
    fn ids_are_unique_and_render_is_complete() {
        let ids = rule_ids();
        let mut deduped = ids.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), ids.len());
        for doc in CATALOG {
            let text = render(doc);
            assert!(text.contains(doc.id));
            assert!(text.contains("WHY"));
            assert!(text.contains("EXAMPLE VIOLATION"));
            assert!(text.contains("FIX"));
        }
    }

    #[test]
    fn unknown_ids_miss() {
        assert!(lookup("no-such-rule").is_none());
    }
}
