//! What the rows of [`super::ARTEFACTS`] run: the one panel shape Figs. 2-4
//! share, and the artefacts that are programs of their own.

use super::claims::NOMINAL_RATE;
use super::{mean, paper_ref, say, shape_row, sig3, Ctx, Panel, SecondPanel};
use crate::dataset::Dataset;
use crate::graphalytics::{self, Cell, GRAPHALYTICS_ENGINES, TABLE1_ALGOS};
use crate::logs;
use crate::plot::{bar_chart, boxplot, engine_boxes, iteration_bars, line_chart, Scale};
use crate::registry::EngineKind;
use crate::runner::{run_experiment, RunInfo};
use crate::stats::Summary;
use crate::supervise::{supervise_trial, verify_output, Expected, SupervisorConfig, TrialOutcome};
use epg_engine_api::StoppingCriterion;
use epg_engine_api::{Algorithm, AlgorithmResult, Counters, Engine, Phase, RunOutput, RunParams};
use epg_engine_gap::{GapConfig, GapEngine, WeightRepr};
use epg_engine_powergraph::{PowerGraphConfig, PowerGraphEngine};
use epg_graph::{Csr, VertexId};
use epg_machine::rapl::{EnergyReport, PowerRapl};
use epg_machine::MachineModel;
use epg_parallel::{Schedule, ThreadPool};
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The thread count every per-root figure projects to (the paper's runs).
const PROJECTED_THREADS: usize = 32;

/// The thread counts of Figs. 5-6.
const SCALING_THREADS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 72];

/// Loads `ds` into `engine` and builds its structure.
fn construct(engine: &mut dyn Engine, kind: EngineKind, ds: &Dataset, pool: &ThreadPool) {
    engine.load_edge_list(ds.edges_for(kind));
    engine.construct(pool);
}

/// `algo` on `engine` under [`supervise_trial`] from each of the first
/// `reps` of `roots` (`reps` times for an algorithm without a root), each
/// output checked by [`verify_output`] against `want`. Returns the passing
/// outputs and the time column: their seconds' [`Summary`], or the outcome
/// and reason of the first trial that did not pass in place of a time.
fn trials(
    engine: &mut dyn Engine,
    algo: Algorithm,
    mut params: RunParams<'_>,
    roots: &[VertexId],
    reps: usize,
    want: &Expected<'_>,
) -> (Vec<RunOutput>, String) {
    let rooted = roots.iter().take(reps).map(|&r| Some(r)).collect();
    let runs: Vec<_> = if algo.is_rooted() { rooted } else { vec![None; reps] };
    let (mut outputs, mut secs) = (Vec::new(), Vec::new());
    for root in runs {
        params.root = root;
        let verify = |out: &RunOutput| verify_output(want, algo, &params, out, params.pool);
        let cfg = SupervisorConfig::default();
        let trial = supervise_trial(params.pool, &cfg, || engine.run(algo, &params), Some(&verify));
        let Some(out) = trial.output.filter(|_| trial.outcome == TrialOutcome::Ok) else {
            let why = trial.error.unwrap_or_default();
            return (outputs, format!("{}: {why}", trial.outcome.label()));
        };
        outputs.push(out);
        secs.push(trial.seconds);
    }
    (outputs, Summary::of(&secs).to_string())
}
/// Figs. 2, 3 and 4: see [`Panel`].
pub(super) fn kernel_panel(ctx: &mut Ctx, id: &str, panel: &Panel) -> io::Result<()> {
    let (algo, abbrev) = (panel.algo, panel.algo.abbrev());
    let ds = ctx.kron(22, 13, algo == Algorithm::Sssp)?;
    let result = run_experiment(&ctx.experiment(&[algo], ctx.opts.roots), &ds);
    let model = MachineModel::paper_machine();
    // Every engine was asked; the ones without the algorithm or without a
    // construction phase of their own show as zeros.
    for kind in EngineKind::ALL {
        ctx.fact("runs", kind.name(), result.run_times(kind, algo).len() as f64);
        ctx.fact("construct_phases", kind.name(), result.construct_times(kind).len() as f64);
    }

    say!(ctx, "== left: {abbrev} time over {} roots, projected to 32 threads ==", ctx.opts.roots);
    let runs_of = |kind: EngineKind| result.runs.iter().filter(move |r| r.engine == kind);
    let groups = engine_boxes(panel.engines, |kind| {
        runs_of(kind).map(|r| r.projected(&model, PROJECTED_THREADS).total_s).collect()
    });
    // Every engine of a panel runs its algorithm: one group each, in order.
    for (&kind, (name, projected)) in panel.engines.iter().zip(&groups) {
        let first = runs_of(kind).next().expect("a panel engine runs the panel's algorithm");
        let local = Summary::of(&result.run_times(kind, algo));
        say!(ctx, "{}", shape_row(name, (panel.paper_seconds)(name), projected.mean, "s/root"));
        say!(ctx, "    local: {local}  rsd={:.4}", local.relative_stddev());
        ctx.fact("seconds", name, local.median);
        ctx.fact("edges", name, first.output.counters.edges_traversed as f64);
        ctx.fact("serial_share", name, first.output.trace.serial_fraction());
    }
    let title = format!("{abbrev} Time (projected, 32 threads)");
    let file = format!("{id}_{}_time.svg", abbrev.to_lowercase());
    ctx.write_artefact(&file, &boxplot(&title, "Time (seconds)", &groups, Scale::Log))?;

    // Graph500's own headline statistic, where it ran.
    let g500_times = result.run_times(EngineKind::Graph500, algo);
    if !g500_times.is_empty() {
        let edges = ds.raw.num_edges() as u64;
        let teps = epg_engine_graph500::teps::TepsStats::from_times(edges, &g500_times);
        let (hmean, min, max, runs) = (teps.harmonic_mean, teps.min, teps.max, teps.runs);
        say!(ctx, "\nGraph500 TEPS (local): harmonic mean {hmean:.3e} (min {min:.3e}, max {max:.3e}, {runs} runs)");
    }

    match panel.second {
        SecondPanel::Construction(paper) => {
            say!(ctx, "\n== right: {abbrev} data structure construction ==");
            let groups = engine_boxes(panel.engines, |kind| result.construct_times(kind));
            for (name, s) in &groups {
                say!(ctx, "{}", shape_row(name, paper_ref::lookup(paper, name), s.mean, "s"));
            }
            let fused: Vec<&str> = (panel.engines.iter().map(|k| k.name()))
                .filter(|&engine| groups.iter().all(|(name, _)| name != engine))
                .collect();
            let fused = fused.join(", ");
            say!(ctx, "{fused}: omitted — construction fused with the file read (§III-B)");
            let title = format!("{abbrev} Data Structure Construction");
            let svg = boxplot(&title, "Time (seconds)", &groups, Scale::Log);
            ctx.write_artefact(&format!("{id}_construction.svg"), &svg)?;
        }
        SecondPanel::Iterations(paper) => {
            say!(ctx, "\n== right: {abbrev} iterations (native stopping criteria) ==");
            let bars = iteration_bars(panel.engines, &result);
            for (name, iters) in &bars {
                say!(ctx, "{}", shape_row(name, paper_ref::lookup(paper, name), *iters, "iters"));
                ctx.fact("iterations", name, *iters);
            }
            let svg = bar_chart(&format!("{abbrev} Iterations"), "Iterations", &bars);
            ctx.write_artefact(&format!("{id}_{}_iterations.svg", abbrev.to_lowercase()), &svg)?;
        }
    }

    say!(ctx, "\nwork behind the first root's run:");
    for &kind in panel.engines {
        let edges = ctx.facts.get(&format!("edges.{}", kind.name()));
        say!(ctx, "  {:<10} {edges:>12} edges traversed", kind.name());
    }
    Ok(())
}

/// Runs the Graphalytics comparator on `ds` and records each cell that is
/// not N/A as `reported.<ALGO>.<label>.<engine>`.
fn graphalytics_cells(ctx: &mut Ctx, algos: &[Algorithm], ds: &Dataset, label: &str) -> Vec<Cell> {
    let cells = graphalytics::run_graphalytics(&GRAPHALYTICS_ENGINES, algos, ds, ctx.opts.threads);
    for c in &cells {
        if let Some(seconds) = c.reported_seconds {
            let of = format!("{}.{label}.{}", c.algorithm.abbrev(), c.engine.name());
            ctx.fact("reported", &of, seconds);
        }
    }
    cells
}

/// Prints one paper-layout row of Graphalytics times: a value or `N/A`.
fn print_cells(
    ctx: &mut Ctx,
    values: impl Iterator<Item = Option<f64>>,
    width: usize,
    prec: usize,
) -> io::Result<()> {
    for v in values {
        match v {
            Some(x) => write!(ctx.out, "{x:>width$.prec$}")?,
            None => write!(ctx.out, "{:>width$}", "N/A")?,
        }
    }
    say!(ctx);
    Ok(())
}

/// Table I. Paper setting: the real datasets, 32 threads, ONE run per
/// cell. Default here: the stand-ins at 1/256.
pub(super) fn table1(ctx: &mut Ctx) -> io::Result<()> {
    let (cit, dota) = ctx.stand_ins(256)?;
    let mut cells = graphalytics_cells(ctx, &TABLE1_ALGOS, &cit, "cit");
    cells.extend(graphalytics_cells(ctx, &TABLE1_ALGOS, &dota, "dota"));

    say!(ctx, "== Table I (ours): Graphalytics single-run times, seconds ==");
    let names = [cit.name.clone(), dota.name.clone()];
    say!(ctx, "{}", graphalytics::format_table(&cells, &GRAPHALYTICS_ENGINES, &names));

    say!(ctx, "== Table I (paper, full-size datasets on 72T Haswell) ==");
    say!(ctx, "system      dataset            BFS    CDLP      LCC     PR   SSSP    WCC");
    for (sys, ds, vals) in paper_ref::TABLE1 {
        write!(ctx.out, "{sys:<12}{ds:<14}")?;
        print_cells(ctx, vals.into_iter(), 8, 1)?;
    }

    // The excerpt under Table I: each system's PageRank on dota-league,
    // and GraphMat's own log for it. A trial that failed is a missing cell.
    for c in cells.iter().filter(|c| c.algorithm == Algorithm::PageRank && c.dataset == dota.name) {
        let (Some(reported), Some(p)) = (c.reported_seconds, c.true_phases) else { continue };
        // How much of the file read sits inside the reported number.
        let read_share = ((reported - p.run_s - p.output_s) / p.read_s).max(0.0);
        ctx.fact("read_share", c.engine.name(), read_share);
        if c.engine != EngineKind::GraphMat {
            continue;
        }
        say!(ctx, "\n== GraphMat log excerpt (ours), as below Table I ==");
        let entries = [
            logs::LogEntry { phase: Phase::ReadFile, seconds: p.read_s },
            logs::LogEntry { phase: Phase::Construct, seconds: p.construct_s },
            logs::LogEntry { phase: Phase::Run, seconds: p.run_s },
            logs::LogEntry { phase: Phase::Output, seconds: p.output_s },
        ];
        let title = format!("PageRank on {}", dota.name);
        let style = epg_engine_api::logfmt::LogStyle::GraphMat;
        write!(ctx.out, "{}", logs::render_log(style, &title, &entries))?;
        say!(
            ctx,
            "\nreported {reported:.4}s but {:.4}s of that is the file read: ignore it and\n\
             GraphMat completes {:.1}x faster — the paper's fairness complaint.",
            p.read_s,
            reported / (reported - p.read_s).max(1e-9)
        );
    }
    Ok(())
}

/// Table II. Paper setting: Kronecker scale 22, 32 threads, one run.
pub(super) fn table2(ctx: &mut Ctx) -> io::Result<()> {
    use Algorithm::{Bfs, Cdlp, Lcc, PageRank, Wcc};
    use EngineKind::{GraphBig, GraphMat, PowerGraph};
    let ds = ctx.kron(22, 12, false)?;
    let cells = graphalytics_cells(ctx, &[Cdlp, PageRank, Lcc, Wcc, Bfs], &ds, "kron");

    let header = "Graphalytics                  GraphMat  GraphBIG PowerGraph";
    say!(ctx, "== Table II (ours): {}, seconds, one run ==\n{header}", ds.name);
    for algo in [Cdlp, PageRank, Lcc, Wcc, Bfs] {
        write!(ctx.out, "{:<28}", algo.name())?;
        let time = |engine| {
            let cell = cells.iter().find(|c| c.engine == engine && c.algorithm == algo);
            cell.and_then(|c| c.reported_seconds)
        };
        print_cells(ctx, [GraphMat, GraphBig, PowerGraph].into_iter().map(time), 10, 3)?;
    }
    say!(ctx, "\n== Table II (paper, scale 22 on 72T Haswell) ==\n{header}");
    for (name, gm, gb, pg) in paper_ref::TABLE2 {
        say!(ctx, "{name:<28}{gm:>10.1}{gb:>10.1}{pg:>11.1}");
    }
    say!(
        ctx,
        "\nnote: PowerGraph BFS is N/A here: the stock toolkits provide no BFS\n\
         (§III-D); Graphalytics bundles its own driver for the paper's Table II."
    );
    Ok(())
}

/// Fig. 1. Each cyan box of the paper's figure is one shell script of the
/// original (one `epg` subcommand here); the green ellipses are generated
/// files.
pub(super) fn fig1(ctx: &mut Ctx) -> io::Result<()> {
    // (x, y, label, gloss)
    let boxes = [
        (40.0, 60.0, "1. setup", "engine registry"),
        (240.0, 60.0, "2. gen", "dataset homogenizer"),
        (440.0, 60.0, "3. run", "experiment runner"),
        (440.0, 220.0, "4. parse", "log -> CSV"),
        (240.0, 220.0, "5. analyze", "stats + SVG plots"),
    ];
    let files = [
        (340.0, 150.0, "*.snap / *.bin"),
        (560.0, 150.0, "engine logs"),
        (560.0, 300.0, "results.csv"),
        (240.0, 320.0, "plots/*.svg"),
        (80.0, 300.0, "summary.txt"),
    ];
    // Flow between consecutive phases.
    let arrows = [
        (190.0, 88.0, 240.0, 88.0),
        (390.0, 88.0, 440.0, 88.0),
        (515.0, 116.0, 515.0, 220.0),
        (440.0, 248.0, 390.0, 248.0),
    ];
    let mut svg = String::from(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"720\" height=\"400\" \
         font-family=\"sans-serif\" font-size=\"13\">\n\
         <rect width=\"720\" height=\"400\" fill=\"white\"/>\n\
         <text x=\"360\" y=\"28\" text-anchor=\"middle\" font-size=\"17\">\
         easy-parallel-graph-rs pipeline (paper Fig. 1)</text>\n",
    );
    for (x, y, label, gloss) in boxes {
        let (cx, y1, y2) = (x + 75.0, y + 24.0, y + 42.0);
        let _ = write!(
            svg,
            "<rect x=\"{x}\" y=\"{y}\" width=\"150\" height=\"56\" rx=\"6\" \
             fill=\"paleturquoise\" stroke=\"black\"/>\n\
             <text x=\"{cx}\" y=\"{y1}\" text-anchor=\"middle\" font-weight=\"bold\">{label}</text>\n\
             <text x=\"{cx}\" y=\"{y2}\" text-anchor=\"middle\" font-size=\"11\">{gloss}</text>\n",
        );
    }
    for (x, y, label) in files {
        let ty = y + 4.0;
        let _ = write!(
            svg,
            "<ellipse cx=\"{x}\" cy=\"{y}\" rx=\"70\" ry=\"20\" fill=\"palegreen\" \
             stroke=\"black\"/>\n\
             <text x=\"{x}\" y=\"{ty}\" text-anchor=\"middle\" font-size=\"11\">{label}</text>\n",
        );
    }
    svg.push_str(
        "<defs><marker id=\"a\" markerWidth=\"8\" markerHeight=\"8\" refX=\"6\" refY=\"3\" \
         orient=\"auto\"><path d=\"M0,0 L6,3 L0,6 z\"/></marker></defs>\n",
    );
    for (x1, y1, x2, y2) in arrows {
        let _ = writeln!(
            svg,
            "<line x1=\"{x1}\" y1=\"{y1}\" x2=\"{x2}\" y2=\"{y2}\" stroke=\"black\" \
             stroke-width=\"1.5\" marker-end=\"url(#a)\"/>"
        );
    }
    svg.push_str("</svg>\n");
    ctx.write_artefact("fig1_pipeline.svg", &svg)?;
    say!(
        ctx,
        "Fig. 1 (pipeline overview) written. Each cyan box = one `epg` \
         subcommand;\ngreen ellipses = generated files. See README \
         'Architecture' for the crate map."
    );
    Ok(())
}

/// One row per engine of a Figs. 5-6 series, one column per thread count.
fn scaling_table(
    ctx: &mut Ctx,
    title: &str,
    series: &[(String, Vec<f64>)],
    (width, prec): (usize, usize),
) -> io::Result<()> {
    say!(ctx, "\n== {title} ==");
    write!(ctx.out, "{:<12}", "engine")?;
    for n in SCALING_THREADS {
        write!(ctx.out, "{n:>width$}")?;
    }
    say!(ctx);
    for (name, values) in series {
        write!(ctx.out, "{name:<12}")?;
        for v in values {
            write!(ctx.out, "{v:>width$.prec$}")?;
        }
        say!(ctx);
    }
    Ok(())
}

/// Figs. 5-6. Paper setting: Kronecker scale 23, 4 trials ("Because of
/// timing considerations, only four trials were run"). Each engine runs
/// locally on one root; the measured trace is projected onto the paper's
/// Haswell by the machine model (DESIGN.md's substitution table — we do
/// not own a 72-thread machine).
pub(super) fn fig5_6(ctx: &mut Ctx) -> io::Result<()> {
    use EngineKind::{Gap, Graph500, GraphBig, GraphMat};
    let ds = ctx.kron(23, 14, false)?;
    say!(ctx, "edges = {}", ds.symmetric.num_edges());
    let mut cfg = ctx.experiment(&[Algorithm::Bfs], 1);
    cfg.trials = 4;
    let result = run_experiment(&cfg, &ds);
    let model = MachineModel::paper_machine();
    for kind in EngineKind::ALL {
        let trials = result.runs.iter().filter(|r| r.engine == kind).count();
        ctx.fact("trials", kind.name(), trials as f64);
    }

    let x_labels: Vec<String> = SCALING_THREADS.iter().map(|n| n.to_string()).collect();
    let linear = SCALING_THREADS.iter().map(|&n| n as f64).collect();
    let mut speedup_series = vec![("Linear".to_string(), linear)];
    let mut eff_series = vec![("Ideal".to_string(), vec![1.0; SCALING_THREADS.len()])];
    let mut absolute = Vec::new();
    for kind in [GraphBig, Graph500, GraphMat, Gap] {
        let name = kind.name();
        let runs: Vec<_> = result.runs.iter().filter(|r| r.engine == kind).collect();
        // Average the trials' traces by averaging their projections.
        let mut speedups = vec![0.0f64; SCALING_THREADS.len()];
        for run in &runs {
            let rate = run.calibrated_rate(&model);
            let curve = model.speedup_curve(&run.output.trace, rate, &SCALING_THREADS);
            for (mean, (_, s)) in speedups.iter_mut().zip(curve) {
                *mean += s / runs.len() as f64;
            }
        }
        // The curve the projection-basis claims judge: the first trial's
        // trace (they are identical) at the nominal rate.
        let nominal = model.speedup_curve(&runs[0].output.trace, NOMINAL_RATE, &SCALING_THREADS);
        let steps = nominal.windows(2).map(|w| w[1].1 / w[0].1);
        ctx.fact("nominal_speedup72", name, nominal[nominal.len() - 1].1);
        ctx.fact("nominal_speedup_floor", name, steps.fold(f64::INFINITY, f64::min));
        ctx.fact("speedup72", name, speedups[speedups.len() - 1]);
        let effs = speedups.iter().zip(SCALING_THREADS).map(|(s, n)| s / n as f64).collect();
        let seconds = SCALING_THREADS.map(|n| runs[0].projected(&model, n).total_s).to_vec();
        speedup_series.push((name.to_string(), speedups));
        eff_series.push((name.to_string(), effs));
        absolute.push((name.to_string(), seconds));
    }

    scaling_table(ctx, "Fig. 5: speedup T1/Tn", &speedup_series[1..], (8, 2))?;
    let svg = line_chart("BFS Speedup", "Speedup", &x_labels, &speedup_series, Scale::Log);
    ctx.write_artefact("fig5_bfs_speedup.svg", &svg)?;
    scaling_table(ctx, "Fig. 6: parallel efficiency T1/(n*Tn)", &eff_series[1..], (8, 3))?;
    let svg =
        line_chart("BFS Parallel Efficiency", "T1/(n*Tn)", &x_labels, &eff_series, Scale::Linear);
    ctx.write_artefact("fig6_bfs_efficiency.svg", &svg)?;
    // Normalization hides that GAP does far less work; in absolute terms
    // it stays fastest at every thread count.
    scaling_table(ctx, "projected absolute BFS time (seconds)", &absolute, (11, 6))
}

/// Fig. 7: "Graphalytics outputs one HTML page per software package", for
/// the real-world stand-ins (default 1/512) and the Kronecker graph.
pub(super) fn fig7(ctx: &mut Ctx) -> io::Result<()> {
    let (cit, dota) = ctx.stand_ins(512)?;
    let datasets = [(cit, "cit"), (dota, "dota"), (ctx.kron(22, 11, false)?, "kron")];
    let mut cells = Vec::new();
    for (ds, label) in &datasets {
        cells.extend(graphalytics_cells(ctx, &TABLE1_ALGOS, ds, label));
    }
    for system in GRAPHALYTICS_ENGINES {
        let html = graphalytics::html_report(system, &cells);
        ctx.write_artefact(&format!("fig7_graphalytics_{}.html", system.name()), &html)?;
    }
    say!(
        ctx,
        "wrote one HTML page per system (Fig. 7 shows GraphBIG's), covering\n\
         {} datasets x {} algorithms, one run per cell.",
        datasets.len(),
        TABLE1_ALGOS.len()
    );
    Ok(())
}

/// Fig. 8: mean kernel times for {BFS, PageRank, SSSP} × {dota, Patents} ×
/// {GAP, GraphBIG, GraphMat, PowerGraph}. Paper setting: the real
/// datasets, 32 threads, 32 roots. Default here: the stand-ins at 1/256.
pub(super) fn fig8(ctx: &mut Ctx) -> io::Result<()> {
    use EngineKind::{Gap, GraphBig, GraphMat, PowerGraph};
    const ENGINES: [EngineKind; 4] = [Gap, GraphBig, GraphMat, PowerGraph];
    const PANELS: [Algorithm; 3] = [Algorithm::Bfs, Algorithm::PageRank, Algorithm::Sssp];
    let (patents, dota) = ctx.stand_ins(256)?;
    let mut cfg = ctx.experiment(&PANELS, ctx.opts.roots);
    cfg.engines = ENGINES.to_vec();
    let results =
        [(run_experiment(&cfg, &dota), "dota"), (run_experiment(&cfg, &patents), "Patents")];
    for (result, dataset) in &results {
        let mut runs = result.runs.iter();
        let run = runs
            .find(|r| r.engine == GraphMat && r.algorithm == Algorithm::PageRank)
            .expect("GraphMat runs PageRank");
        ctx.fact(
            "serial_share",
            &format!("{dataset}.GraphMat"),
            run.output.trace.serial_fraction(),
        );
    }

    for algo in PANELS {
        say!(ctx, "== Fig. 8 panel: {} (mean seconds) ==", algo.name());
        say!(ctx, "system                dota       Patents");
        let mut bars = Vec::new();
        for engine in ENGINES {
            write!(ctx.out, "{:<12}", engine.name())?;
            for (result, dataset) in &results {
                let times = result.run_times(engine, algo);
                if times.is_empty() {
                    write!(ctx.out, "{:>14}", "absent")?;
                    continue;
                }
                write!(ctx.out, "{:>14.5}", mean(&times))?;
                bars.push((format!("{}/{dataset}", engine.name()), mean(&times)));
                let of = format!("{}.{dataset}.{}", algo.abbrev(), engine.name());
                ctx.fact("seconds", &of, mean(&times));
            }
            say!(ctx);
        }
        let title = format!("{} (real-world stand-ins)", algo.abbrev());
        let file = format!("fig8_{}.svg", algo.abbrev().to_lowercase());
        ctx.write_artefact(&file, &bar_chart(&title, "Time (s)", &bars))?;
        say!(ctx);
    }
    Ok(())
}

/// Fig. 9 + Table III: BFS per engine per root, the machine model
/// calibrated from each measured run, the RAPL simulator integrated at 32
/// target threads. Paper setting: Kronecker scale 22, 32 threads, 32
/// roots, real RAPL MSRs via PAPI (DESIGN.md substitutions).
pub(super) fn fig9_table3(ctx: &mut Ctx) -> io::Result<()> {
    use EngineKind::{Gap, Graph500, GraphBig, GraphMat};
    let ds = ctx.kron(22, 13, false)?;
    let result = run_experiment(&ctx.experiment(&[Algorithm::Bfs], ctx.opts.roots), &ds);
    let model = MachineModel::paper_machine();

    let header = "engine          time (s)   power (W)    energy (J) sleep energy(J)    vs sleep";
    say!(ctx, "== Table III (ours): per-root averages at 32 projected threads ==\n{header}");
    let mut cpu_groups = Vec::new();
    let mut ram_groups = Vec::new();
    for kind in [Gap, Graph500, GraphBig, GraphMat] {
        let name = kind.name();
        let runs: Vec<_> = result.runs.iter().filter(|r| r.engine == kind).collect();
        // Each root's trace through the paper's Fig. 10 API.
        let energy_at = |rate: &dyn Fn(&RunInfo) -> f64| -> Vec<EnergyReport> {
            let measure = |r: &&RunInfo| {
                let mut rapl = PowerRapl::init(&model, rate(r), PROJECTED_THREADS);
                rapl.start();
                rapl.record(&r.output.trace);
                rapl.end()
            };
            runs.iter().map(measure).collect()
        };
        let column = |reports: &[EnergyReport], f: &dyn Fn(&EnergyReport) -> f64| -> Vec<f64> {
            reports.iter().map(f).collect()
        };
        // Printed: at the rate calibrated from each root's own wall time.
        let reports = energy_at(&|r| r.calibrated_rate(&model));
        let seconds = mean(&column(&reports, &|r| r.duration_s));
        let energy = mean(&column(&reports, &|r| r.total_j()));
        let sleep = mean(&column(&reports, &|r| model.sleep_baseline(r.duration_s).total_j()));
        let (cpu_w, ram_w) =
            (column(&reports, &|r| r.avg_cpu_w), column(&reports, &|r| r.avg_ram_w));
        let (s, j, z, watts, vs) =
            (sig3(seconds), sig3(energy), sig3(sleep), mean(&cpu_w), energy / sleep);
        say!(ctx, "{name:<12}{s:>12}{watts:>12.2}{j:>14}{z:>16}{vs:>12.3}");
        cpu_groups.push((name.to_string(), Summary::of(&cpu_w)));
        ram_groups.push((name.to_string(), Summary::of(&ram_w)));
        ctx.fact("seconds", name, seconds);
        ctx.fact("joules", name, energy);
        // Judged by the projection-basis claims: the same traces at the
        // nominal rate, so the verdict does not move with the host.
        let nominal = energy_at(&|_| NOMINAL_RATE);
        let (s, j) = (column(&nominal, &|r| r.duration_s), column(&nominal, &|r| r.total_j()));
        ctx.fact("nominal_seconds", name, mean(&s));
        ctx.fact("nominal_joules", name, mean(&j));
        ctx.fact("nominal_watts", name, mean(&j) / mean(&s));
    }
    say!(ctx, "\n== Table III (paper) ==\n{header}");
    for (name, t, w, j, sj, inc) in paper_ref::TABLE3 {
        say!(ctx, "{name:<12}{t:>12.5}{w:>12.2}{j:>14.3}{sj:>16.4}{inc:>12.3}");
    }

    say!(ctx, "\n== Fig. 9: average power per root (simulated RAPL) ==");
    for (groups, paper, label) in
        [(&cpu_groups, &paper_ref::FIG9_CPU_W, "CPU"), (&ram_groups, &paper_ref::FIG9_RAM_W, "RAM")]
    {
        say!(ctx, "{label} power:");
        for (name, s) in groups {
            say!(ctx, "  {}", shape_row(name, paper_ref::lookup(paper, name), s.median, "W"));
        }
    }
    let sleep = model.sleep_baseline(10.0);
    let (cpu, ram) = (sleep.avg_cpu_w, sleep.avg_ram_w);
    say!(ctx, "sleep baseline: CPU {cpu:.1} W, RAM {ram:.1} W (paper baseline: unistd sleep(10))");
    let y = "Average Power (Watts)";
    let svg = boxplot("CPU Average Power During BFS", y, &cpu_groups, Scale::Linear);
    ctx.write_artefact("fig9_cpu_power.svg", &svg)?;
    let svg = boxplot("RAM Power During BFS", y, &ram_groups, Scale::Linear);
    ctx.write_artefact("fig9_ram_power.svg", &svg)
}

/// A GAP engine with its default configuration, constructed on `ds`.
fn gap_on(ds: &Dataset, pool: &ThreadPool) -> GapEngine {
    let mut engine = GapEngine::new();
    construct(&mut engine, EngineKind::Gap, ds, pool);
    engine
}

/// Mean edges traversed and iterations of `outputs`.
fn mean_counters(outputs: &[RunOutput]) -> (u64, u32) {
    let mut sum = Counters::default();
    outputs.iter().for_each(|out| sum.merge(&out.counters));
    let n = outputs.len().max(1);
    (sum.edges_traversed / n as u64, sum.iterations / n as u32)
}

/// Small Δ approaches Dijkstra (many buckets, little parallelism per
/// bucket); huge Δ approaches Bellman-Ford (one bucket, wasted
/// relaxations). The sweet spot depends on the weight distribution, so the
/// sweep ends with the Δ `construct` derives from the graph.
pub(super) fn ablation_delta(ctx: &mut Ctx) -> io::Result<()> {
    let (ds, reps) = (ctx.kron(22, 13, true)?, ctx.opts.roots);
    let pool = ThreadPool::new(ctx.opts.threads);
    let g = Csr::from_edge_list_parallel(&ds.symmetric, &pool);
    let (want, mut engine) = (Expected::new(&g), gap_on(&ds, &pool));
    let derived = (format!("derived ({:.4})", engine.derived_delta()), None);
    let sweep = [0.01f32, 0.05, 0.1, 0.25, 0.5, 1.0, 4.0, 1000.0].map(|d| (d.to_string(), Some(d)));
    say!(ctx, "delta             edge relaxations       buckets    time (s)");
    for (label, delta) in sweep.into_iter().chain([derived]) {
        engine.config.delta = delta;
        let params = RunParams::new(&pool, None);
        let (runs, time) = trials(&mut engine, Algorithm::Sssp, params, &ds.roots, reps, &want);
        let (relaxed, buckets) = mean_counters(&runs);
        say!(ctx, "{label:<18}{relaxed:>16}{buckets:>14}    {time}");
    }
    say!(
        ctx,
        "\nsmall delta => many buckets (serial bottleneck); huge delta => few\n\
         buckets but re-relaxation waste. GAP takes delta per graph (§V); the\n\
         derived row is mean positive weight / mean out-degree."
    );
    Ok(())
}

/// §V: "Advances in parallel SSSP and BFS contain parameterizations (Δ for
/// SSSP and α and β for BFS) which affects performance depending on graph
/// structure. These are provided in GAP." §IV-C notes the paper ran the
/// default α=15, β=18 untuned.
pub(super) fn ablation_dobfs(ctx: &mut Ctx) -> io::Result<()> {
    let (ds, reps) = (ctx.kron(22, 13, false)?, ctx.opts.roots);
    let pool = ThreadPool::new(ctx.opts.threads);
    let g = Csr::from_edge_list_parallel(&ds.symmetric, &pool);
    let (want, mut engine) = (Expected::new(&g), gap_on(&ds, &pool));
    let top_down = GapConfig { direction_optimizing: false, ..Default::default() };
    let mut configs = vec![
        ("top-down only".to_string(), top_down),
        ("direction-optimizing (15,18)".to_string(), GapConfig::default()),
    ];
    for (alpha, beta) in [(1, 18), (4, 18), (64, 18), (15, 2), (15, 64), (256, 1024)] {
        let cfg = GapConfig { alpha, beta, ..Default::default() };
        configs.push((format!("alpha={alpha}, beta={beta}"), cfg));
    }
    say!(ctx, "configuration                edges traversed     steps    time (s)");
    let mut edges_by_config = Vec::new();
    for (label, cfg) in configs {
        engine.config = cfg;
        let params = RunParams::new(&pool, None);
        let (runs, time) = trials(&mut engine, Algorithm::Bfs, params, &ds.roots, reps, &want);
        let (edges, steps) = mean_counters(&runs);
        say!(ctx, "{label:<28}{edges:>16}{steps:>10}    {time}");
        edges_by_config.push(edges);
    }
    say!(
        ctx,
        "\ndirection optimization cut traversed edges by {:.1}x on this graph\n\
         (the mechanism behind GAP's Fig. 2 lead).",
        edges_by_config[0] as f64 / edges_by_config[1] as f64
    );
    Ok(())
}

/// §IV-C attributes PowerGraph's dense-graph advantage to its partitioning
/// and its overhead to replication: sweep the partition count on the
/// sparse and the dense stand-in (default 1/512).
pub(super) fn ablation_partitions(ctx: &mut Ctx) -> io::Result<()> {
    let ((sparse, dense), reps) = (ctx.stand_ins(512)?, ctx.opts.roots);
    let pool = ThreadPool::new(ctx.opts.threads);
    for (ds, density) in [(&sparse, "sparse"), (&dense, "dense")] {
        let g = Csr::from_edge_list_parallel(&ds.symmetric, &pool);
        let want = Expected::new(&g);
        say!(ctx, "== {} ==", ds.name);
        say!(ctx, " partitions  repl factor      mirrors     SSSP edges    SSSP time (s)");
        for p in [1usize, 2, 4, 8, 16, 32] {
            let mut e = PowerGraphEngine::with_config(PowerGraphConfig { num_partitions: p });
            construct(&mut e, EngineKind::PowerGraph, ds, &pool);
            let params = RunParams::new(&pool, None);
            let (runs, time) = trials(&mut e, Algorithm::Sssp, params, &ds.roots, reps, &want);
            let (rf, mirrors) = (e.graph().replication_factor(), e.graph().num_mirrors());
            let edges = runs.first().map_or(0, |out| out.counters.edges_traversed);
            say!(ctx, "{p:>11} {rf:>12.3} {mirrors:>12} {edges:>14}    {time}");
            ctx.fact("replication", &format!("{density}.{p}"), rf);
        }
        say!(ctx);
    }
    say!(
        ctx,
        "replication factor grows with partition count and graph density —\n\
         every apply pays one sync message per mirror, which is the paper's\n\
         'significant overhead' (§IV-C); but more partitions also spread the\n\
         dense graph's hub work, which is why dota flatters PowerGraph."
    );
    Ok(())
}

/// The engines differ in their worksharing choices (GAP-style guided vs
/// GraphBIG-style dynamic): a skew-sensitive kernel (per-vertex
/// degree-weighted work on a Kronecker graph) under each schedule and
/// chunk size, on a real pool of at least two threads.
pub(super) fn ablation_sched(ctx: &mut Ctx) -> io::Result<()> {
    let (ds, reps) = (ctx.kron(20, 12, false)?, ctx.opts.roots.max(1));
    let g = Csr::from_edge_list(&ds.symmetric);
    let pool = ThreadPool::new(ctx.opts.threads.max(2));
    let schedules: [(&str, Schedule); 6] = [
        ("static", Schedule::Static { chunk: None }),
        ("static,64", Schedule::Static { chunk: Some(64) }),
        ("dynamic,16", Schedule::Dynamic { chunk: 16 }),
        ("dynamic,256", Schedule::Dynamic { chunk: 256 }),
        ("guided,16", Schedule::Guided { min_chunk: 16 }),
        ("guided,256", Schedule::Guided { min_chunk: 256 }),
    ];
    say!(ctx, "schedule                checksum    chunks    time (s)");
    for (name, sched) in schedules {
        let before = pool.stats().chunks;
        let sum = AtomicU64::new(0);
        let mut secs = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            pool.parallel_for_ranges(g.num_vertices(), sched, |_tid, lo, hi| {
                // A wrapping sum over vertices: the same whatever the split.
                let mut local = 0u64;
                for v in lo..hi {
                    let row = g.neighbors(v as VertexId).iter();
                    let hash = row.fold(0u64, |h, &t| h.wrapping_add(t as u64).rotate_left(1));
                    local = local.wrapping_add(hash);
                }
                sum.fetch_add(local, Ordering::Relaxed);
            });
            secs.push(t0.elapsed().as_secs_f64());
        }
        let (sum, chunks) = (sum.load(Ordering::Relaxed), pool.stats().chunks - before);
        say!(ctx, "{name:<14}{sum:>18x}{:>10}    {}", chunks / reps as u64, Summary::of(&secs));
    }
    say!(
        ctx,
        "\nstatic splits leave the thread owning the hub range as a straggler;\n\
         dynamic/guided rebalance at the cost of queue traffic — the tradeoff\n\
         behind GAP's guided vs GraphBIG's dynamic defaults."
    );
    Ok(())
}

/// §IV-A's homogenization: the L1 threshold swept against GraphMat's
/// native "no vertex changes" (∞-norm) criterion on every engine that
/// runs PageRank — how much of Fig. 4's iteration gap is stopping rule.
pub(super) fn ablation_stopping(ctx: &mut Ctx) -> io::Result<()> {
    use EngineKind::{Gap, GraphBig, GraphMat, PowerGraph};
    let ds = ctx.kron(22, 12, false)?;
    let pool = ThreadPool::new(ctx.opts.threads);
    let criteria: [(&str, Option<StoppingCriterion>); 6] = [
        ("native", None),
        ("L1 < 1e-4", Some(StoppingCriterion::L1Norm(1e-4))),
        ("L1 < 1e-6", Some(StoppingCriterion::L1Norm(1e-6))),
        ("L1 < 6e-8 (paper)", Some(StoppingCriterion::paper_default())),
        ("L1 < 1e-10", Some(StoppingCriterion::L1Norm(1e-10))),
        ("no-change", Some(StoppingCriterion::NoChange)),
    ];
    let mut engines = [Gap, GraphBig, GraphMat, PowerGraph].map(|kind| (kind, kind.create()));
    write!(ctx.out, "{:<20}", "criterion")?;
    for (kind, engine) in &mut engines {
        construct(engine.as_mut(), *kind, &ds, &pool);
        write!(ctx.out, "{:>12}", kind.name())?;
    }
    say!(ctx, "   (iterations)");
    for (label, stopping) in criteria {
        write!(ctx.out, "{label:<20}")?;
        for (_, engine) in &mut engines {
            let params = RunParams { stopping, ..RunParams::new(&pool, None) };
            let out = engine.run(Algorithm::PageRank, &params);
            let iterations = out.result.iterations().expect("PageRank counts iterations");
            write!(ctx.out, "{iterations:>12}")?;
        }
        say!(ctx);
    }
    say!(
        ctx,
        "\n'native' = each system's own rule: GraphMat iterates until no rank\n\
         changes (its column jumps), the rest stop at L1 < 6e-8 — the exact\n\
         inconsistency §IV-A homogenizes away."
    );
    Ok(())
}

/// §IV-A: "the GAP Benchmark Suite can be recompiled to store weights as
/// integers or floating-point values. This may affect performance in
/// addition to runtime behavior in cases where weights like 0.2 are cast
/// to 0." Both effects: the SSSP result distortion and the timing.
pub(super) fn ablation_weights(ctx: &mut Ctx) -> io::Result<()> {
    // Kronecker weights are uniform (0,1]: truncation maps almost all to 0.
    let (ds, reps) = (ctx.kron(22, 13, true)?, ctx.opts.roots);
    let pool = ThreadPool::new(ctx.opts.threads);
    let mut distances = Vec::new();
    for (label, weight_repr) in
        [("float (default)", WeightRepr::Float), ("int (truncated)", WeightRepr::Int)]
    {
        let mut e = GapEngine::with_config(GapConfig { weight_repr, ..Default::default() });
        construct(&mut e, EngineKind::Gap, &ds, &pool);
        // Checked against Dijkstra on the weights the engine stores.
        let mut g = Csr::from_edge_list_parallel(&ds.symmetric, &pool);
        if weight_repr == WeightRepr::Int {
            g.weights.iter_mut().flatten().for_each(|w| *w = w.trunc());
        }
        let (params, want) = (RunParams::new(&pool, None), Expected::new(&g));
        let (runs, time) = trials(&mut e, Algorithm::Sssp, params, &ds.roots, reps, &want);
        let first = runs.into_iter().next().map(|o| (o.counters.edges_traversed, o.result));
        let Some((relaxed, AlgorithmResult::Distances(d))) = first else {
            say!(ctx, "{label:<18} {time}");
            return Ok(());
        };
        let finite: Vec<f64> = d.iter().filter(|x| x.is_finite()).map(|&x| x as f64).collect();
        let mean_d = mean(&finite);
        say!(
            ctx,
            "{label:<18} relaxations {relaxed}, mean finite distance {mean_d:.4}, time {time}"
        );
        distances.push(d);
    }
    let (float_d, int_d) = (&distances[0], &distances[1]);
    let changed = float_d
        .iter()
        .zip(int_d)
        .filter(|(a, b)| (**a - **b).abs() > 1e-6 && (a.is_finite() || b.is_finite()))
        .count();
    let zeroed = int_d.iter().filter(|&&x| x == 0.0).count();
    say!(
        ctx,
        "\ntruncation changed {changed} of {} distances; {zeroed} vertices now sit\n\
         at distance 0 (uniform (0,1] weights all truncate to 0 — the paper's\n\
         'weights like 0.2 are cast to 0' hazard, degenerating SSSP into a\n\
         reachability sweep).",
        float_d.len()
    );
    Ok(())
}

/// Two of the concrete items §V lists as future work: "algorithms like
/// triangle counting and betweenness centrality are widely implemented
/// but not supported by either Graphalytics nor easy-parallel-graph-*".
/// Its third, "heuristic parameter tuning", is GAP's per-graph Δ and the
/// `ablation_delta` / `ablation_dobfs` sweeps.
pub(super) fn extensions(ctx: &mut Ctx) -> io::Result<()> {
    let (ds, reps) = (ctx.kron(20, 12, true)?, ctx.opts.roots);
    let pool = ThreadPool::new(ctx.opts.threads);
    let g = Csr::from_edge_list_parallel(&ds.symmetric, &pool);
    let want = Expected::new(&g);

    say!(ctx, "== Triangle counting (each triangle once) ==");
    let mut counts = Vec::new();
    for kind in EngineKind::ALL {
        let mut e = kind.create();
        if !e.supports(Algorithm::TriangleCount) {
            say!(ctx, "{:<12} {:>12}", kind.name(), "N/A");
            continue;
        }
        construct(e.as_mut(), kind, &ds, &pool);
        let params = RunParams::new(&pool, None);
        let (runs, time) = trials(e.as_mut(), Algorithm::TriangleCount, params, &[], reps, &want);
        let Some(AlgorithmResult::Triangles(count)) = runs.first().map(|o| o.result.clone()) else {
            say!(ctx, "{:<12} {time}", kind.name());
            continue;
        };
        say!(ctx, "{:<12} {count:>12} triangles in {time}", kind.name());
        ctx.fact("triangles", kind.name(), count as f64);
        counts.push(count);
    }
    let agree = counts.windows(2).all(|w| w[0] == w[1]);
    say!(ctx, "{}\n", if agree { "all supporting engines agree." } else { "ENGINES DISAGREE." });

    say!(ctx, "== Betweenness centrality (sampled sources) ==");
    for kind in [EngineKind::Gap, EngineKind::GraphBig] {
        let mut e = kind.create();
        construct(e.as_mut(), kind, &ds, &pool);
        let params = RunParams { bc_sources: Some(16), ..RunParams::new(&pool, None) };
        let (runs, time) = trials(e.as_mut(), Algorithm::Bc, params, &[], reps, &want);
        let Some(AlgorithmResult::Centrality(bc)) = runs.first().map(|out| &out.result) else {
            say!(ctx, "{:<12} {time}", kind.name());
            continue;
        };
        let mut top: Vec<(usize, f64)> = bc.iter().copied().enumerate().collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<_> = top.iter().take(3).map(|&(v, s)| (v, s.round())).collect();
        say!(ctx, "{:<12} 16 sources in {time}; top vertices: {top:?}", kind.name());
    }

    let gap = gap_on(&ds, &pool);
    let (alpha, beta, delta) = (gap.config.alpha, gap.config.beta, gap.derived_delta());
    say!(ctx, "\ndefaults: alpha={alpha}, beta={beta}, delta={delta:.4} (derived)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::PaperDatasets;
    use epg_engine_api::{FaultKind::WrongResult, FaultPlan, FaultyEngine};

    fn kron7() -> (Dataset, ThreadPool, Csr) {
        let ds = Dataset::from_spec(&PaperDatasets::kronecker(7, false), 3);
        let g = Csr::from_edge_list(&ds.symmetric);
        (ds, ThreadPool::new(1), g)
    }

    /// `ablation_delta` / `ablation_dobfs` used to divide by `--roots` even
    /// when the dataset had fewer: `--roots 64` halved every average.
    #[test]
    fn root_means_divide_by_the_roots_that_ran() {
        let (ds, pool, g) = kron7();
        let (want, mut engine) = (Expected::new(&g), gap_on(&ds, &pool));
        let mut means = |reps| {
            let params = RunParams::new(&pool, None);
            trials(&mut engine, Algorithm::Bfs, params, &ds.roots, reps, &want)
        };
        let ((all, _), (more_than_all, time)) = (means(ds.roots.len()), means(2 * ds.roots.len()));
        let counters = mean_counters(&all);
        assert!(counters.0 > 0 && counters.1 > 0);
        assert_eq!(counters, mean_counters(&more_than_all));
        assert!(time.ends_with(&format!("n={}", ds.roots.len())), "{time}");
    }

    /// A wrong answer is not a time: the row names the verifier's reason.
    #[test]
    fn a_wrong_result_prints_its_failure_and_no_time() {
        let (ds, pool, g) = kron7();
        let wrong = FaultPlan::new().with_fault(0, WrongResult).with_fault(1, WrongResult);
        let mut engine = FaultyEngine::new(EngineKind::Gap.create(), wrong);
        construct(&mut engine, EngineKind::Gap, &ds, &pool);
        let (params, want) = (RunParams::new(&pool, None), Expected::new(&g));
        let (runs, time) = trials(&mut engine, Algorithm::TriangleCount, params, &[], 3, &want);
        assert!(runs.is_empty() && !time.contains("n="), "{time}");
        assert!(time.starts_with("panicked: result failed verification: "), "{time}");
        assert!(time.contains(" triangles, but the graph has "), "{time}");
    }
}
