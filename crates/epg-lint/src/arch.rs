//! The `layering` rule family: the crate DAG must flow strictly downward.
//!
//! The paper's comparison is only fair if the five engine crates are
//! interchangeable behind `epg-engine-api` — an engine that reached into a
//! sibling engine, or into the harness that times it, could share state or
//! skew measurement. The layer map below is the workspace's declared
//! architecture (DESIGN.md §10):
//!
//! ```text
//! 0  epg-trace, epg-lint
//! 1  epg-parallel
//! 2  epg-graph
//! 3  epg-generator, epg-engine-api
//! 4  epg-machine, epg-engine-* (the five engines)
//! 5  epg-serve
//! 6  epg-harness
//! 7  epg (facade)
//! ```
//!
//! Checked twice: against the **declared DAG** (`[dependencies]` and
//! `[dev-dependencies]` in each `Cargo.toml`) and against **actual
//! occurrences** (`use epg_*` imports and inline `epg_*::` paths in
//! non-test code), so a path that sneaks around an undeclared dependency
//! (e.g. through the facade) is caught at the line that uses it. Engine
//! crates are additionally restricted to an explicit allowed set — the
//! API they implement and the substrate beneath it.

use crate::model::{CrateModel, Workspace};
use crate::rules::Finding;

/// Stable rule id for this family.
pub const RULE_LAYERING: &str = "layering";

/// Whether `name` is one of the five engine crates (not the API crate).
pub fn is_engine_crate(name: &str) -> bool {
    name.starts_with("epg-engine-") && name != "epg-engine-api"
}

/// The only crates an engine's `[dependencies]` (and non-test code) may
/// reference: the API it implements and the substrate beneath it.
pub const ENGINE_ALLOWED: &[&str] = &["epg-engine-api", "epg-graph", "epg-parallel", "epg-trace"];

/// The crate's layer in the declared architecture, or `None` for crates
/// outside the policy (vendored stand-ins).
pub fn layer_of(name: &str) -> Option<u8> {
    if is_engine_crate(name) {
        return Some(4);
    }
    Some(match name {
        "epg-trace" | "epg-lint" => 0,
        "epg-parallel" => 1,
        "epg-graph" => 2,
        "epg-generator" | "epg-engine-api" => 3,
        "epg-machine" => 4,
        "epg-serve" => 5,
        "epg-harness" => 6,
        "epg" => 7,
        _ => return None,
    })
}

/// Runs the layering checks over the whole workspace model.
pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    for c in &ws.crates {
        let Some(own) = layer_of(&c.name) else { continue };
        check_declared(c, own, out);
        check_occurrences(c, own, out);
    }
}

fn violation(c: &CrateModel, dep: &str) -> Option<String> {
    let own = layer_of(&c.name)?;
    let dl = layer_of(dep)?;
    if is_engine_crate(&c.name) && !ENGINE_ALLOWED.contains(&dep) {
        return Some(format!(
            "engine crate `{}` may reference only {} (never a sibling engine or the harness \
             that times it); found `{dep}`",
            c.name,
            ENGINE_ALLOWED.join("/"),
        ));
    }
    if dl >= own {
        return Some(format!(
            "`{}` (layer {own}) may not reference `{dep}` (layer {dl}); the crate DAG flows \
             strictly downward",
            c.name,
        ));
    }
    None
}

fn check_declared(c: &CrateModel, own: u8, out: &mut Vec<Finding>) {
    for dep in &c.deps {
        if let Some(msg) = violation(c, &dep.name) {
            out.push(Finding {
                file: c.manifest_path.clone(),
                line: dep.line,
                rule: RULE_LAYERING,
                message: format!("{msg} (declared dependency)"),
            });
        }
    }
    // Dev-dependencies serve tests, so the engine allowed-set does not
    // apply (engines legitimately generate inputs with epg-generator in
    // unit tests) — but the layer order still does.
    for dep in &c.dev_deps {
        let Some(dl) = layer_of(&dep.name) else { continue };
        if dl >= own {
            out.push(Finding {
                file: c.manifest_path.clone(),
                line: dep.line,
                rule: RULE_LAYERING,
                message: format!(
                    "`{}` (layer {own}) may not dev-depend on `{}` (layer {dl}); the crate DAG \
                     flows strictly downward",
                    c.name, dep.name
                ),
            });
        }
    }
}

fn check_occurrences(c: &CrateModel, _own: u8, out: &mut Vec<Finding>) {
    for f in &c.files {
        if f.test_role {
            continue;
        }
        for r in &f.epg_refs {
            if r.krate == c.name || f.in_test(r.line) {
                continue;
            }
            if let Some(msg) = violation(c, &r.krate) {
                out.push(Finding {
                    file: f.path.clone(),
                    line: r.line,
                    rule: RULE_LAYERING,
                    message: format!("{msg} (path occurrence)"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Dep, FileModel};
    use crate::scan::scan;

    fn krate(name: &str, deps: &[(&str, usize)], src: &str) -> CrateModel {
        CrateModel {
            name: name.to_string(),
            dir: format!("crates/{name}"),
            manifest_path: format!("crates/{name}/Cargo.toml"),
            manifest_lines: Vec::new(),
            deps: deps.iter().map(|&(n, l)| Dep { name: n.into(), line: l }).collect(),
            dev_deps: Vec::new(),
            files: vec![FileModel::build(format!("crates/{name}/src/lib.rs"), scan(src), false)],
        }
    }

    fn run(c: CrateModel) -> Vec<Finding> {
        let ws = Workspace { crates: vec![c], loose: Vec::new() };
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    #[test]
    fn engine_depending_on_harness_is_flagged() {
        let f = run(krate("epg-engine-gap", &[("epg-harness", 9)], ""));
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].file.as_str(), f[0].line), ("crates/epg-engine-gap/Cargo.toml", 9));
        assert!(f[0].message.contains("sibling engine or the harness"), "{}", f[0].message);
    }

    #[test]
    fn engine_depending_on_sibling_engine_is_flagged() {
        let f = run(krate("epg-engine-gap", &[("epg-engine-graphmat", 11)], ""));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE_LAYERING);
    }

    #[test]
    fn engine_allowed_set_passes() {
        let deps =
            [("epg-engine-api", 9), ("epg-graph", 10), ("epg-parallel", 11), ("epg-trace", 12)];
        assert!(run(krate("epg-engine-gap", &deps, "")).is_empty());
    }

    #[test]
    fn substrate_depending_upward_is_flagged() {
        let f = run(krate("epg-graph", &[("epg-harness", 7)], ""));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("strictly downward"), "{}", f[0].message);
    }

    #[test]
    fn use_occurrence_of_forbidden_crate_is_flagged() {
        let src = "use epg_harness::runner::Runner;\n\npub fn f() {\n    epg_graph::csr();\n}\n";
        let f = run(krate("epg-engine-gap", &[], src));
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].file.as_str(), f[0].line), ("crates/epg-engine-gap/src/lib.rs", 1));
        assert!(f[0].message.ends_with("(path occurrence)"), "{}", f[0].message);
    }

    #[test]
    fn test_module_occurrences_are_exempt() {
        let src =
            "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    use epg_generator::GraphSpec;\n}\n";
        assert!(run(krate("epg-engine-gap", &[], src)).is_empty());
    }

    #[test]
    fn dev_dep_below_own_layer_passes_for_engines() {
        let mut c = krate("epg-engine-gap", &[], "");
        c.dev_deps = vec![Dep { name: "epg-generator".into(), line: 20 }];
        assert!(run(c).is_empty());
    }

    #[test]
    fn dev_dep_at_or_above_own_layer_is_flagged() {
        let mut c = krate("epg-graph", &[], "");
        c.dev_deps = vec![Dep { name: "epg-harness".into(), line: 21 }];
        let f = run(c);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("dev-depend"), "{}", f[0].message);
    }

    #[test]
    fn vendored_crates_are_outside_the_policy() {
        assert!(run(krate("epg-engine-gap", &[("rand", 5), ("parking_lot", 6)], "")).is_empty());
        assert!(run(krate("rand", &[("epg-harness", 3)], "")).is_empty());
    }
}
