//! `epg-lint` entry point: runs the full workspace analysis (line rules
//! plus the layering / phase-purity / timing-discipline / panic-discipline
//! / concurrency families), prints findings `file:line: [rule] message`
//! (or `--json`), and exits nonzero when any survive the allowlist
//! (`1` findings, `2` config error, `3` stale exceptions under
//! `--strict`). `--explain <rule-id>` prints the rule catalog entry.
//!
//! Usage: `epg-lint [root] [--json] [--strict] [--explain <rule-id>]`

use epg_lint::LintOptions;
use std::path::PathBuf;

const USAGE: &str = "usage: epg-lint [root] [--json] [--strict] [--explain <rule-id>]";

fn main() {
    let mut root: Option<PathBuf> = None;
    let mut opts = LintOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            "--explain" => match args.next() {
                Some(id) => std::process::exit(explain(&id)),
                None => {
                    eprintln!("epg-lint: --explain needs a rule id");
                    eprintln!("rules: {}", epg_lint::explain::rule_ids().join(", "));
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if !other.starts_with('-') && root.is_none() => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("epg-lint: unknown argument {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let root = root.unwrap_or_else(epg_lint::workspace_root);
    std::process::exit(epg_lint::run_lint(&root, &opts));
}

/// Prints one rule's catalog entry; exit `0`, or `2` on an unknown id
/// (with the full id list, so the error is also the discovery path).
fn explain(id: &str) -> i32 {
    match epg_lint::explain::lookup(id) {
        Some(doc) => {
            print!("{}", epg_lint::explain::render(doc));
            0
        }
        None => {
            eprintln!("epg-lint: unknown rule `{id}`");
            eprintln!("rules: {}", epg_lint::explain::rule_ids().join(", "));
            2
        }
    }
}
