//! Output: the host stamp, the metric table, the per-layer self-time
//! table and span file of a traced run, the one-line JSON result the
//! driver reads, and the table `--sets` prints.

use crate::check::Outcome;
use crate::host;
use crate::run::Ctx;
use crate::span::{self, SelfTimes};
use crate::spec;
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The metrics a run's result line carries: every end-to-end metric of an
/// untraced run, every per-layer metric of a traced one (0 where the
/// workload does not exercise the layer).
fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        spec::per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)).collect()
    }
}

/// The last line of a run's standard output.
pub fn result_line(outcome: &Outcome, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// What `--sets` needs back from a child's result line.
#[derive(Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
}

/// Reads a line [`result_line`] wrote (its own format, not general JSON).
pub fn parse_result_line(line: &str) -> Option<RunResult> {
    let correct = line.strip_prefix("{\"correct\": ")?.starts_with("true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut metrics = Vec::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry.trim_start_matches('"').split_once("\": {\"value\": ")?;
        let value = rest.split_once(',')?.0.parse().ok()?;
        metrics.push((name.to_string(), value));
    }
    Some(RunResult { correct, metrics })
}

/// Prints the run and returns the process exit code: non-zero when any
/// operation failed, a declared end-to-end metric is missing, or a metric
/// was emitted that `BENCHMARK.json` does not declare.
pub fn print(ctx: &mut Ctx<'_>) -> i32 {
    let opts = ctx.opts;
    let trace = opts.trace;
    println!(
        "epg-perfbench workload={} seed={} seconds={} trace={} quick={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(trace),
        opts.quick
    );
    println!(
        "host nproc={} threads={} oversubscribed={} calib_s={} host_factor={} commit={} page_cache=warm",
        ctx.host.nproc,
        ctx.host.threads,
        ctx.host.oversubscribed(),
        ctx.metrics.get("bench.calib_s").map_or(0.0, |(v, _)| v),
        ctx.metrics.get("bench.host_factor").map_or(0.0, |(v, _)| v),
        ctx.host.commit
    );
    for note in &ctx.notes {
        println!("note {note}");
    }

    let mut code = ctx.outcome.exit_code();
    let all_declared: Vec<String> =
        declared(false).into_iter().chain(declared(true)).map(|(name, _)| name).collect();
    for name in ctx.metrics.names().filter(|n| !all_declared.iter().any(|d| d == n)) {
        eprintln!("epg-perfbench: metric {name} is not declared in BENCHMARK.json");
        code = 1;
    }
    let mut line_metrics = Vec::new();
    for (name, unit) in declared(trace) {
        let (value, n) = match ctx.metrics.get(&name) {
            Some(found) => found,
            None if trace => (0.0, 0),
            None => {
                eprintln!("epg-perfbench: end-to-end metric {name} was not measured");
                code = 1;
                continue;
            }
        };
        if n > 0 {
            println!("metric {name} = {value} {unit} (n {n})");
        }
        line_metrics.push((name, value, unit));
    }
    if !trace {
        // Layer numbers an untraced run measured anyway, for the reader.
        for layer in spec::per_layer() {
            if let Some((value, n)) = ctx.metrics.get(&layer.name) {
                println!("layer-metric {} = {value} {} (n {n})", layer.name, layer.unit);
            }
        }
    }

    if trace {
        let st = SelfTimes::of(&ctx.spans);
        for (layer, ns) in &st.by_layer {
            let share = *ns as f64 / st.root_ns.max(1) as f64;
            println!(
                "self-time {layer} = {} s ({:.1} % of the workload span)",
                *ns as f64 / 1e9,
                share * 100.0
            );
        }
        println!(
            "self-time total {} s = workload span {} s + concurrent-thread overlap {} s (closure error {:.6})",
            st.total_self_ns() as f64 / 1e9,
            st.root_ns as f64 / 1e9,
            st.overlap_ns as f64 / 1e9,
            st.closure_error()
        );
        if st.closure_error() > 0.01 {
            eprintln!("epg-perfbench: per-layer self times do not sum to the workload span");
            code = 1;
        }
        let dir = host::out_dir();
        let path = dir.join(format!("{}.spans.jsonl", opts.workload));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, span::to_jsonl(&ctx.spans)))
        {
            Ok(()) => println!("spans {} written to {}", ctx.spans.len(), path.display()),
            Err(why) => {
                eprintln!("epg-perfbench: cannot write {}: {why}", path.display());
                code = 1;
            }
        }
    }
    // The driver reads a result only from a run that exits 0.
    if code == 0 || !ctx.outcome.correct() {
        println!("{}", result_line(&ctx.outcome, &line_metrics));
    }
    code
}

/// End-to-end values per (workload, metric) across sets.
#[derive(Default)]
pub struct SetsTable(BTreeMap<(String, String), Vec<f64>>);

impl SetsTable {
    pub fn add(&mut self, workload: &str, result: &RunResult) {
        for (name, value) in &result.metrics {
            self.0.entry((workload.to_string(), name.clone())).or_default().push(*value);
        }
    }

    /// Spread of one metric's values: the interquartile distance over the
    /// median from four sets on (the driver's rule), else the largest
    /// pairwise deviation.
    fn spread(values: &[f64]) -> f64 {
        if values.len() >= 4 {
            stats::quartile_spread(values)
        } else {
            stats::max_pairwise_deviation(values)
        }
    }

    pub fn within_bounds(&self) -> bool {
        self.0.iter().filter(|((_, metric), _)| metric != "setup_s").all(|((_, metric), values)| {
            values.len() < 2 || Self::spread(values) <= spec::bound_of(metric)
        })
    }

    pub fn render(&self, sets: usize) -> String {
        let mut out = format!(
            "| workload | metric | median | min | max | max pairwise dev | quartile spread | bound | n={sets} |\n\
             |---|---|---|---|---|---|---|---|---|\n"
        );
        for ((workload, metric), values) in &self.0 {
            let quartile = if values.len() >= 2 { stats::quartile_spread(values) } else { 0.0 };
            let bound = spec::bound_of(metric);
            let verdict =
                if values.len() < 2 || Self::spread(values) <= bound { "ok" } else { "WIDE" };
            let _ = writeln!(
                out,
                "| {workload} | {metric} | {:.5} | {:.5} | {:.5} | {:.4} | {:.4} | {bound} | {verdict} |",
                stats::median(values),
                values.iter().copied().fold(f64::INFINITY, f64::min),
                values.iter().copied().fold(0.0, f64::max),
                stats::max_pairwise_deviation(values),
                quartile,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let outcome = Outcome { attempted: 1000, failed: 0 };
        let metrics = vec![
            ("latency_ms".to_string(), 1.2034, "ms"),
            ("setup_s".to_string(), 0.8127, "s"),
            ("epg-parallel.regions".to_string(), 6150.0, "count"),
        ];
        let line = result_line(&outcome, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"epg-parallel.regions\": {\"value\": 6150, \"unit\": \"count\"}}}"
        );
        let back = parse_result_line(&line).unwrap();
        assert!(back.correct);
        assert_eq!(
            back.metrics,
            vec![
                ("latency_ms".to_string(), 1.2034),
                ("setup_s".to_string(), 0.8127),
                ("epg-parallel.regions".to_string(), 6150.0)
            ]
        );
        let failed = result_line(&Outcome { attempted: 2, failed: 1 }, &metrics);
        assert!(!parse_result_line(&failed).unwrap().correct);
        assert_eq!(parse_result_line("host nproc=2"), None);
    }

    #[test]
    fn sets_table_judges_spread_against_the_bound() {
        let mut t = SetsTable::default();
        let run = |sweep: f64| RunResult {
            correct: true,
            metrics: vec![("sweep_s".to_string(), sweep), ("setup_s".to_string(), sweep * 3.0)],
        };
        for sweep in [1.00, 1.02, 0.99, 1.01, 1.03] {
            t.add("kron_bfs", &run(sweep));
        }
        assert!(t.within_bounds());
        assert!(t.render(5).contains("| kron_bfs | sweep_s | 1.01000 | 0.99000 | 1.03000 |"));
        for sweep in [1.5, 1.6, 0.7] {
            t.add("kron_bfs", &run(sweep));
        }
        assert!(!t.within_bounds());
        assert!(t.render(8).contains("WIDE"));
    }
}
