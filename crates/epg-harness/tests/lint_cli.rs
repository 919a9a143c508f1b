//! `epg lint` facade: the exit-code contract, end to end (and, at the
//! bottom, which commands the `epg` binary accepts at all).
//!
//! `epg lint` must pass `run_lint`'s code through verbatim — `0` clean,
//! `1` findings, `2` configuration errors, `3` stale allowlist entries
//! under `--strict` — so CI and scripts can branch on *why* the lint
//! failed without parsing output. Spawns the real `epg` binary via
//! `CARGO_BIN_EXE_epg`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn epg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_epg")).args(args).output().expect("spawn epg")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("exit code, not a signal")
}

/// The epg-lint mini fixture workspace, which seeds one violation per
/// architectural rule.
fn mini_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../epg-lint/tests/fixtures/mini")
}

fn temp_root(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp lint root");
    dir
}

#[test]
fn findings_exit_1_with_report_on_stdout() {
    let root = mini_fixture();
    let out = epg(&["lint", "--root", root.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "layering",
        "hot-loop-alloc",
        "lock-order-cycle",
        "blocking-while-locked",
        "condvar-wait-loop",
        "guard-across-span",
    ] {
        assert!(stdout.contains(rule), "missing [{rule}] in:\n{stdout}");
    }
}

#[test]
fn clean_tree_exits_0() {
    let root = temp_root("lint-clean");
    let out = epg(&["lint", "--root", root.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));
}

#[test]
fn stale_allowlist_is_exit_3_only_under_strict() {
    let root = temp_root("lint-stale");
    std::fs::write(
        root.join("epg-lint.toml"),
        "[[allow]]\nfile = \"src/nothing.rs\"\nrule = \"static-mut\"\nreason = \"test: never matches\"\n",
    )
    .expect("write allowlist");
    let strict = epg(&["lint", "--strict", "--root", root.to_str().unwrap()]);
    assert_eq!(exit_code(&strict), 3, "stale-only strict runs get the distinct code");
    assert!(String::from_utf8_lossy(&strict.stdout).contains("stale"));
    let lax = epg(&["lint", "--root", root.to_str().unwrap()]);
    assert_eq!(exit_code(&lax), 0, "without --strict, stale entries only warn");
}

#[test]
fn malformed_allowlist_is_exit_2() {
    let root = temp_root("lint-broken");
    std::fs::write(root.join("epg-lint.toml"), "[[allow]]\nrule = \"static-mut\"\n")
        .expect("write allowlist");
    let out = epg(&["lint", "--root", root.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2, "a broken allowlist must fail, not silently pass");
}

/// Every command `epg` dispatches, as the usage string spells them.
const COMMANDS: [&str; 8] =
    ["setup", "gen", "run", "all", "reproduce", "serve", "trace summarize", "lint"];

#[test]
fn reproduce_lists_its_17_ids_and_rejects_an_unknown_one_before_creating_anything() {
    let list = epg(&["reproduce", "--list"]);
    assert_eq!(exit_code(&list), 0);
    let stdout = String::from_utf8_lossy(&list.stdout);
    let ids: Vec<&str> = stdout.lines().collect();
    assert_eq!(ids.len(), 17, "{stdout}");
    assert!(ids.contains(&"fig9_table3") && ids.contains(&"ablation_weights"), "{stdout}");

    let out_dir = temp_root("cli-reproduce").join("x");
    let out = epg(&["reproduce", "fig2", "fig10", "--out", out_dir.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown artefact `fig10`"), "{stderr}");
    assert!(ids.iter().all(|id| stderr.contains(id)), "the ids help discovery:\n{stderr}");
    assert!(!out_dir.exists(), "epg created {} for an id it rejected", out_dir.display());
}

#[test]
fn an_unknown_command_leaves_no_out_directory() {
    let out_dir = temp_root("cli-nosuch").join("x");
    let out = epg(&["nosuch", "--out", out_dir.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command: nosuch"));
    assert!(!out_dir.exists(), "epg created {} for a command it rejected", out_dir.display());
}

#[test]
fn retired_bench_commands_and_flags_are_rejected_with_usage() {
    // Under `lint`, whose exit 1 means findings, a usage error is exit 2.
    for (args, code, why) in [
        (&["bench"][..], 1, "unknown command: bench"),
        (&["serve-bench"][..], 1, "unknown command: serve-bench"),
        // `reproduce table1 table2 fig7` prints and writes what these did;
        // `epg all` writes the Granula charts under `out/granula/`.
        (&["graphalytics"][..], 1, "unknown command: graphalytics"),
        (&["granula"][..], 1, "unknown command: granula"),
        (&["run", "--gate"][..], 1, "unknown flag: --gate"),
        (&["run", "--quick"][..], 1, "unknown flag: --quick"),
        (&["run", "--check"][..], 1, "unknown flag: --check"),
        // `epg-lint.toml` is the one exception list, the findings lines the
        // one report, and DESIGN.md's rule tables the one catalog.
        (&["lint", "--baseline", "lint.baseline"][..], 2, "unknown flag: --baseline"),
        (&["lint", "--json"][..], 2, "unknown flag: --json"),
        (&["lint", "--explain", "x"][..], 2, "unknown flag: --explain"),
    ] {
        let out = epg(args);
        assert_eq!(exit_code(&out), code, "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why) && stderr.contains("usage: epg <"), "{args:?}:\n{stderr}");
    }
}

#[test]
fn out_of_range_scale_and_zero_threads_are_usage_errors() {
    let out_dir = temp_root("cli-ranges").join("x");
    for (args, why) in [
        (&["gen", "--scale", "0"][..], "--scale N asks for 2^N vertices"),
        (&["run", "--scale", "40"][..], "--scale N asks for 2^N vertices"),
        (&["all", "--scale", "0"][..], "--scale N asks for 2^N vertices"),
        (&["serve", "--scale", "40"][..], "--scale N asks for 2^N vertices"),
        (&["reproduce", "fig2", "--scale", "33"][..], "--scale N asks for 2^N vertices"),
        (&["serve", "--threads", "0"][..], "--threads: at least 1"),
        (&["reproduce", "ablation_delta", "--scale", "6", "--threads", "0"][..], "--threads"),
        (&["run", "--threads", "0"][..], "--threads: at least 1"),
    ] {
        let out = epg(&[args, &["--out", out_dir.to_str().unwrap()]].concat());
        assert_eq!(exit_code(&out), 1, "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why) && stderr.contains("usage: epg <"), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
        assert!(!out_dir.exists(), "{args:?} created {}", out_dir.display());
    }
}

#[test]
fn all_writes_the_csv_plots_granula_charts_and_report() {
    // Phases 2-5 in one command; the per-engine Granula charts are among
    // the files it writes.
    let dir = temp_root("cli-all");
    let out = epg(&["all", "--scale", "6", "--roots", "1", "--out", dir.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("results.csv").is_file());
    assert!(dir.join("plots").join("bfs_time.svg").is_file());
    assert!(dir.join("granula").read_dir().expect("granula/").count() >= 4);
    assert!(dir.join("report.md").is_file());
}

#[test]
fn lint_rejects_other_commands_flags_with_usage() {
    // `lint` takes `--strict` and `--root` only; another command's flag is
    // a usage error, not silently ignored.
    for (args, why) in [
        (&["lint", "--scale", "14"][..], "unknown flag: --scale"),
        (&["lint", "--threads", "2", "--listen", "x"][..], "unknown flag: --threads"),
        (&["lint", "--strict", "--out", "x"][..], "unknown flag: --out"),
    ] {
        let out = epg(args);
        assert_eq!(exit_code(&out), 2, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran the analysis");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why) && stderr.contains("usage: epg <"), "{args:?}:\n{stderr}");
    }
}

#[test]
fn usage_and_doc_header_list_exactly_the_commands_that_exist() {
    let help = epg(&["help"]);
    assert_eq!(exit_code(&help), 0);
    let usage = String::from_utf8_lossy(&help.stdout);
    let listed = usage.split_once('<').and_then(|(_, rest)| rest.split_once('>')).unwrap().0;
    assert_eq!(listed.split('|').collect::<Vec<_>>(), COMMANDS);

    // The module doc: each `//! epg <words> [flags] # gloss` line names a command.
    let is_word = |w: &&str| w.starts_with(|c: char| c.is_ascii_lowercase());
    let mut documented: Vec<String> = include_str!("../src/bin/epg.rs")
        .lines()
        .filter_map(|line| line.strip_prefix("//! epg "))
        .map(|rest| rest.split_whitespace().take_while(is_word).collect::<Vec<_>>().join(" "))
        .collect();
    documented.dedup();
    assert_eq!(documented, COMMANDS);

    // And each one dispatches and reads the flags it is given: a missing
    // --snap or --input file is the error, never an unknown command or
    // flag; `lint` analyses the empty tmp tree.
    let tmp = temp_root("cli-commands");
    let (snap, out_dir) = (tmp.join("missing.snap"), tmp.join("out"));
    let (snap, out_dir) = (snap.to_str().unwrap(), out_dir.to_str().unwrap());
    for cmd in COMMANDS {
        let mut args: Vec<&str> = cmd.split(' ').collect();
        match cmd {
            "setup" => {}
            "reproduce" => args.push("--list"),
            "trace summarize" => args.extend(["--input", snap]),
            "lint" => args.extend(["--root", tmp.to_str().unwrap()]),
            _ => args.extend(["--snap", snap, "--out", out_dir]),
        }
        let stderr = String::from_utf8_lossy(&epg(&args).stderr).into_owned();
        assert!(!stderr.contains("unknown"), "`epg {cmd}`:\n{stderr}");
    }
}

#[test]
fn a_flag_the_command_does_not_read_is_a_usage_error() {
    // Each of these used to parse and then be ignored: `serve` builds GAP
    // with its default SSSP kernel, and `run` has no landmark stage.
    let out_dir = temp_root("cli-unread-flags").join("x");
    let out = out_dir.to_str().unwrap();
    for (args, why) in [
        (&["serve", "--sssp-kernel", "radix", "--out", out][..], "unknown flag: --sssp-kernel"),
        (&["run", "--landmarks", "4", "--out", out][..], "unknown flag: --landmarks"),
        (&["gen", "--threads", "4", "--out", out][..], "unknown flag: --threads"),
        (&["reproduce", "fig2", "--trial-budget-ms", "5"][..], "unknown flag: --trial-budget-ms"),
        (&["all", "--input", "x.jsonl", "--out", out][..], "unknown flag: --input"),
        (&["setup", "--scale", "8"][..], "unknown flag: --scale"),
        (&["trace", "summarize", "--out", out][..], "unknown flag: --out"),
        (&["run", "--sssp-kernel", "dijkstra", "--out", out][..], "unknown kernel `dijkstra`"),
    ] {
        let result = epg(args);
        assert_eq!(exit_code(&result), 1, "{args:?}");
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert!(stderr.contains(why) && stderr.contains("usage: epg <"), "{args:?}:\n{stderr}");
        assert!(!out_dir.exists(), "{args:?} created {}", out_dir.display());
    }
}
