//! `epg-perfbench`: the repository's one benchmark. It generates every
//! input from a seed, times calls into the crates' public functions from
//! outside, checks the outputs, and prints every metric by name with its
//! unit. `bench/README.md` says why each workload and metric exists.
//!
//! ```text
//! epg-perfbench run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! epg-perfbench run --all   [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! epg-perfbench run --sets N [--workload NAME] [--seed N] [--seconds S] [--quick]
//! epg-perfbench manifest
//! ```

mod check;
mod host;
mod ingest;
mod inputs;
mod kernels;
mod probes;
mod report;
mod run;
mod serve;
mod span;
mod spec;
mod stats;

use run::{Ctx, Opts};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: epg-perfbench run (--workload NAME | --all | --sets N) \
[--seed N] [--seconds S] [--trace 0|1] [--quick]\n       epg-perfbench manifest";

/// Seconds a `--quick` run measures unless told otherwise.
const QUICK_SECONDS: f64 = 0.2;

struct Cli {
    workload: Option<String>,
    all: bool,
    sets: Option<usize>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        sets: None,
        seed: 42,
        seconds: None,
        trace: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--all" => cli.all = true,
            "--quick" => cli.quick = true,
            "--sets" => cli.sets = Some(value()?.parse().map_err(|e| format!("--sets: {e}"))?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !spec::workload_names().contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; known: {}",
                spec::workload_names().join(", ")
            ));
        }
    }
    if cli.sets == Some(0) {
        return Err("--sets needs at least one set".into());
    }
    if cli.workload.is_none() && !cli.all && cli.sets.is_none() {
        return Err("name a workload, or pass --all or --sets N".into());
    }
    Ok(cli)
}

impl Cli {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick { QUICK_SECONDS } else { spec::RUN_SECONDS as f64 })
    }
}

/// Runs one workload in this process.
fn execute<'a>(opts: &'a Opts, host: &'a host::Host) -> Ctx<'a> {
    let mut ctx = Ctx::new(opts, host);
    let workload_span = ctx.tracer.open(0, 0, "bench", "workload");
    ctx.root = workload_span.id;
    if let Some(plan) = kernels::plan(&opts.workload, opts.quick) {
        kernels::run(&mut ctx, &plan);
    } else if let Some(plan) = serve::plan(&opts.workload, opts.quick) {
        serve::run(&mut ctx, &plan);
    } else {
        ingest::run(&mut ctx);
    }
    ctx.tracer.close(&mut ctx.spans, workload_span);
    let failed_share = ctx.outcome.failed_share();
    ctx.metrics.set("bench.failed_share", failed_share, ctx.outcome.attempted as usize);
    ctx
}

/// Runs one workload in this process and prints its result.
fn run_one(cli: &Cli, workload: &str) -> i32 {
    let opts = Opts {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds(),
        trace: cli.trace.unwrap_or(false),
        quick: cli.quick,
    };
    let host = host::Host::probe();
    report::print(&mut execute(&opts, &host))
}

/// Runs one workload in a fresh process; returns its exit code and, when
/// it printed one, its result line.
fn run_child(cli: &Cli, workload: &str, seed: u64, trace: bool) -> (i32, Option<String>) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &cli.seconds().to_string(), "--trace", if trace { "1" } else { "0" }]);
    if cli.quick {
        cmd.arg("--quick");
    }
    let out = cmd.stdout(Stdio::piped()).stderr(Stdio::inherit()).output().expect("child runs");
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let last = text.lines().last().filter(|l| l.starts_with('{')).map(str::to_string);
    (out.status.code().unwrap_or(1), last)
}

/// Every workload, each in a fresh process: untraced for the end-to-end
/// metrics, then traced for the per-layer ones, unless `--trace` picks one.
fn run_all(cli: &Cli) -> i32 {
    let modes: &[bool] = match cli.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut worst = 0;
    for workload in spec::workload_names() {
        for &trace in modes {
            worst = worst.max(run_child(cli, workload, cli.seed, trace).0);
        }
    }
    worst
}

/// `N` complete untraced sets, set `i` on seed `seed + i` as the driver's
/// runs are, then each end-to-end metric's median, range and spread per
/// workload; fails when a spread exceeds the metric's bound.
fn run_sets(cli: &Cli, sets: usize) -> i32 {
    let workloads: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => spec::workload_names(),
    };
    let mut worst = 0;
    let mut table = report::SetsTable::default();
    for set in 0..sets {
        for &workload in &workloads {
            let (code, line) = run_child(cli, workload, cli.seed.wrapping_add(set as u64), false);
            worst = worst.max(code);
            match line.as_deref().and_then(report::parse_result_line) {
                Some(result) => table.add(workload, &result),
                None => worst = worst.max(1),
            }
        }
    }
    println!("{}", table.render(sets));
    if !cli.quick && !table.within_bounds() {
        eprintln!("epg-perfbench: a metric's spread across sets exceeds its bound");
        worst = worst.max(1);
    }
    worst
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("manifest") if args.len() == 1 => {
            print!("{}", spec::manifest_json());
            0
        }
        Some("run") => match parse_cli(&args[1..]) {
            Ok(cli) => match (cli.sets, cli.all, &cli.workload) {
                (Some(sets), _, _) => run_sets(&cli, sets),
                (None, true, _) => run_all(&cli),
                (None, false, Some(w)) => run_one(&cli, w),
                (None, false, None) => unreachable!("parse_cli demands a selection"),
            },
            Err(why) => {
                eprintln!("epg-perfbench: {why}\n{USAGE}");
                2
            }
        },
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    ExitCode::from(code.clamp(0, 255) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let c = cli(&["--workload", "kron_bfs", "--seed", "7", "--seconds", "8", "--trace", "1"])
            .unwrap();
        assert_eq!(c.workload.as_deref(), Some("kron_bfs"));
        assert_eq!((c.seed, c.seconds(), c.trace), (7, 8.0, Some(true)));
        assert_eq!(cli(&["--all"]).unwrap().seconds(), spec::RUN_SECONDS as f64);
        assert_eq!(cli(&["--all", "--quick"]).unwrap().seconds(), QUICK_SECONDS);
        assert_eq!(cli(&["--sets", "5"]).unwrap().sets, Some(5));
    }

    /// Both directions: a run emits no name `BENCHMARK.json` does not
    /// declare, every untraced run measures every end-to-end metric (none
    /// of them 0), and every declared per-layer metric is measured by at
    /// least one workload's traced run.
    #[test]
    fn emitted_names_are_exactly_the_declared_names() {
        use std::collections::BTreeSet;
        let host = host::Host::probe();
        let end_to_end: BTreeSet<String> =
            spec::END_TO_END.iter().map(|m| m.name.to_string()).collect();
        let per_layer: BTreeSet<String> = spec::per_layer().into_iter().map(|m| m.name).collect();
        let mut traced_names = BTreeSet::new();
        for workload in spec::workload_names() {
            for trace in [false, true] {
                let opts = Opts {
                    workload: workload.to_string(),
                    seed: 42,
                    seconds: QUICK_SECONDS,
                    trace,
                    quick: true,
                };
                let ctx = execute(&opts, &host);
                assert!(
                    ctx.outcome.correct() && ctx.outcome.attempted > 0,
                    "{workload}: {:?}",
                    ctx.notes
                );
                let names: BTreeSet<String> = ctx.metrics.names().map(str::to_string).collect();
                for name in &names {
                    assert!(
                        end_to_end.contains(name) || per_layer.contains(name),
                        "{workload} emits undeclared {name}"
                    );
                }
                for name in &end_to_end {
                    let (value, _) =
                        ctx.metrics.get(name).unwrap_or_else(|| panic!("{workload} lacks {name}"));
                    assert!(value > 0.0 && value.is_finite(), "{workload} {name} = {value}");
                }
                if trace {
                    assert!(span::SelfTimes::of(&ctx.spans).closure_error() <= 0.01, "{workload}");
                    traced_names.extend(names);
                }
            }
        }
        let unmeasured: Vec<&String> = per_layer.difference(&traced_names).collect();
        assert!(unmeasured.is_empty(), "declared but never measured: {unmeasured:?}");
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "yes", "--all"],
            &["--seconds", "0", "--all"],
            &["--seconds", "61", "--all"],
            &["--sets", "0"],
            &["--seed"],
            &[],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }
}
