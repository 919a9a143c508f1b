//! `epg reproduce`: every table and figure of the paper from one table.
//!
//! §III asks for homogenized execution, parsing and analysis — "no more
//! than a single shell command" per phase. This module applies that to
//! the reproduction itself. [`ARTEFACTS`] has one row per paper artefact
//! (what it runs, on which dataset, which files it writes) and
//! [`claims::CLAIMS`] one row per sentence of the paper this repository
//! checks (its basis and a predicate over the [`Facts`] the artefact recorded).
//! [`run`] prints each selected artefact's tables and ends with the
//! claims ledger — one line per claim: holds or deviates, with the
//! measured margin — which it also writes to `<out>/claims.md`.
//!
//! Printed per cell where applicable: the paper's published value (their
//! C/C++ systems on a 72-thread Haswell), our local measurement, and the
//! machine-model projection onto the paper's machine. Absolute numbers
//! are not expected to match; the claims are (EXPERIMENTS.md records both).

mod artefacts;
pub mod claims;
pub mod paper_ref;

use crate::dataset::{Dataset, PaperDatasets};
use crate::registry::EngineKind;
use crate::runner::ExperimentConfig;
use claims::{Claim, Verdict, CLAIMS};
use epg_engine_api::Algorithm;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::PathBuf;

/// What `epg reproduce` was asked for, beyond the artefact ids.
#[derive(Clone, Debug)]
pub struct Options {
    /// Run at the paper's original sizes (hours of CPU).
    pub full: bool,
    /// `--scale N`: every dataset at about 2^N vertices.
    pub scale: Option<u32>,
    /// Local thread-pool size.
    pub threads: usize,
    /// Roots / repetitions per experiment (the paper: 32).
    pub roots: usize,
    /// RNG seed of every generated dataset.
    pub seed: u64,
    /// Artefacts go to `<out_dir>/figures/`, the ledger to `<out_dir>/claims.md`.
    pub out_dir: PathBuf,
}

impl Options {
    /// The Kronecker exponent to generate: `--scale`, else the paper's
    /// under `--full`, else the artefact's default.
    pub fn kron_scale(&self, paper: u32, default: u32) -> u32 {
        self.scale.unwrap_or(if self.full { paper } else { default })
    }

    /// The divisor that shrinks a real-world stand-in of `full_vertices`
    /// vertices: to about 2^N vertices under `--scale N` (never above the
    /// original size), else 1 under `--full`, else the artefact's default.
    pub fn stand_in_div(&self, full_vertices: usize, default: u32) -> u32 {
        match self.scale {
            Some(scale) => full_vertices.checked_shr(scale).unwrap_or(0).max(1) as u32,
            None if self.full => 1,
            None => default,
        }
    }
}

/// What an artefact measured, by name (`<metric>.<qualifiers>.<engine>`),
/// for its claims — and the tests — to judge. Nothing else of a run is
/// kept, so `reproduce all` holds one artefact's results at a time.
#[derive(Default)]
pub struct Facts(Vec<(String, f64)>);

impl Facts {
    /// The fact recorded under `name`, if the artefact produced one (an
    /// engine that does not implement an algorithm leaves no fact).
    pub fn find(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|f| f.1)
    }

    /// The fact recorded under `name`; a claim that asks for one its
    /// artefact never records is a bug in the two tables.
    pub fn get(&self, name: &str) -> f64 {
        self.find(name).unwrap_or_else(|| panic!("no fact named `{name}` was recorded"))
    }

    /// The facts named `<prefix>.<x>`, as `(x, value)` in ascending value
    /// order (ties in recording order).
    pub fn ranked(&self, prefix: &str) -> Vec<(&str, f64)> {
        let mut ranked: Vec<(&str, f64)> = self
            .0
            .iter()
            .filter_map(|(n, v)| Some((n.strip_prefix(prefix)?.strip_prefix('.')?, *v)))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranked
    }
}

/// One algorithm on the Kronecker graph (paper scale 22, default 13),
/// once per root: a per-engine box plot of the kernel time projected to
/// 32 threads, and a second panel. Figs. 2, 3 and 4 are rows of this shape.
pub struct Panel {
    algo: Algorithm,
    /// The engines plotted, in the figure's order.
    engines: &'static [EngineKind],
    /// The paper's seconds per root for an engine, where it printed them.
    paper_seconds: fn(&str) -> Option<f64>,
    second: SecondPanel,
}

/// A [`Panel`]'s right-hand plot; the slices are the paper's values.
enum SecondPanel {
    /// Construction times of the engines that have a construction phase.
    Construction(&'static [(&'static str, f64)]),
    /// Mean iterations to each engine's native stopping criterion.
    Iterations(&'static [(&'static str, f64)]),
}

enum Body {
    Panel(Panel),
    /// An artefact that is a program of its own.
    Custom(fn(&mut Ctx) -> io::Result<()>),
}

/// One table, figure or ablation of the paper.
pub struct Artefact {
    /// The name `epg reproduce <id>` selects it by.
    pub id: &'static str,
    /// What it shows.
    pub title: &'static str,
    /// The files it writes under `<out>/figures/`.
    pub outputs: &'static [&'static str],
    body: Body,
}

use EngineKind::{Gap, Graph500, GraphBig, GraphMat, PowerGraph};

/// Every paper artefact `epg reproduce` regenerates, in the paper's order.
pub const ARTEFACTS: [Artefact; 17] = [
    Artefact {
        id: "table1",
        title: "Table I: Graphalytics single-run times on the real-world stand-ins, \
                and the GraphMat log excerpt that exposes the phase-confounding pitfall",
        outputs: &[],
        body: Body::Custom(artefacts::table1),
    },
    Artefact {
        id: "table2",
        title: "Table II: Graphalytics on the Kronecker graph",
        outputs: &[],
        body: Body::Custom(artefacts::table2),
    },
    Artefact {
        id: "fig1",
        title: "Fig. 1: the framework-overview diagram",
        outputs: &["fig1_pipeline.svg"],
        body: Body::Custom(artefacts::fig1),
    },
    Artefact {
        id: "fig2",
        title: "Fig. 2: BFS time per root + data-structure construction",
        outputs: &["fig2_bfs_time.svg", "fig2_construction.svg"],
        body: Body::Panel(Panel {
            algo: Algorithm::Bfs,
            engines: &[Gap, Graph500, GraphBig, GraphMat],
            paper_seconds: paper_ref::table3_seconds,
            second: SecondPanel::Construction(&paper_ref::FIG2_CONSTRUCT),
        }),
    },
    Artefact {
        id: "fig3",
        title: "Fig. 3: SSSP time per root + construction, same roots as Fig. 2",
        outputs: &["fig3_sssp_time.svg", "fig3_construction.svg"],
        body: Body::Panel(Panel {
            algo: Algorithm::Sssp,
            engines: &[Gap, GraphBig, GraphMat, PowerGraph],
            paper_seconds: |_| None,
            second: SecondPanel::Construction(&[]),
        }),
    },
    Artefact {
        id: "fig4",
        title: "Fig. 4: PageRank time + iterations under native stopping criteria",
        outputs: &["fig4_pr_time.svg", "fig4_pr_iterations.svg"],
        body: Body::Panel(Panel {
            algo: Algorithm::PageRank,
            engines: &[Gap, PowerGraph, GraphBig, GraphMat],
            paper_seconds: |_| None,
            second: SecondPanel::Iterations(&paper_ref::FIG4_ITERS),
        }),
    },
    Artefact {
        id: "fig5_6",
        title: "Figs. 5-6: BFS strong-scaling speedup and parallel efficiency, 4 trials",
        outputs: &["fig5_bfs_speedup.svg", "fig6_bfs_efficiency.svg"],
        body: Body::Custom(artefacts::fig5_6),
    },
    Artefact {
        id: "fig7",
        title: "Fig. 7: the Graphalytics per-system HTML report pages",
        outputs: &[
            "fig7_graphalytics_GraphBIG.html",
            "fig7_graphalytics_PowerGraph.html",
            "fig7_graphalytics_GraphMat.html",
        ],
        body: Body::Custom(artefacts::fig7),
    },
    Artefact {
        id: "fig8",
        title: "Fig. 8: BFS, PageRank and SSSP on the real-world stand-ins",
        outputs: &["fig8_bfs.svg", "fig8_pr.svg", "fig8_sssp.svg"],
        body: Body::Custom(artefacts::fig8),
    },
    Artefact {
        id: "fig9_table3",
        title: "Fig. 9 + Table III: power and energy during BFS (simulated RAPL)",
        outputs: &["fig9_cpu_power.svg", "fig9_ram_power.svg"],
        body: Body::Custom(artefacts::fig9_table3),
    },
    Artefact {
        id: "ablation_delta",
        title: "Ablation: delta-stepping bucket width (§V)",
        outputs: &[],
        body: Body::Custom(artefacts::ablation_delta),
    },
    Artefact {
        id: "ablation_dobfs",
        title: "Ablation: direction-optimizing BFS on/off and alpha/beta sensitivity (§V)",
        outputs: &[],
        body: Body::Custom(artefacts::ablation_dobfs),
    },
    Artefact {
        id: "ablation_partitions",
        title: "Ablation: PowerGraph vertex-cut partition count (§IV-C)",
        outputs: &[],
        body: Body::Custom(artefacts::ablation_partitions),
    },
    Artefact {
        id: "ablation_sched",
        title: "Ablation: static / dynamic / guided worksharing on skewed work",
        outputs: &[],
        body: Body::Custom(artefacts::ablation_sched),
    },
    Artefact {
        id: "ablation_stopping",
        title: "Ablation: PageRank stopping criteria (§IV-A)",
        outputs: &[],
        body: Body::Custom(artefacts::ablation_stopping),
    },
    Artefact {
        id: "ablation_weights",
        title: "Ablation: GAP's float vs integer weights (§IV-A)",
        outputs: &[],
        body: Body::Custom(artefacts::ablation_weights),
    },
    Artefact {
        id: "extensions",
        title: "§V future work: triangle counting and betweenness centrality",
        outputs: &[],
        body: Body::Custom(artefacts::extensions),
    },
];

/// What an artefact's code sees: the options, where its tables go, and
/// the facts it has recorded so far.
pub struct Ctx<'a> {
    /// The invocation's options.
    pub opts: &'a Options,
    out: &'a mut dyn Write,
    facts: Facts,
}

/// Appends one line to the artefact's printed tables.
macro_rules! say {
    ($ctx:expr) => { writeln!($ctx.out)? };
    ($ctx:expr, $($arg:tt)*) => { writeln!($ctx.out, $($arg)*)? };
}
use say;

impl Ctx<'_> {
    /// The homogenized Kronecker graph at [`Options::kron_scale`].
    fn kron(&mut self, paper: u32, default: u32, weighted: bool) -> io::Result<Dataset> {
        let scale = self.opts.kron_scale(paper, default);
        let ds = Dataset::from_spec(&PaperDatasets::kronecker(scale, weighted), self.opts.seed);
        self.describe(&ds)?;
        Ok(ds)
    }

    /// The cit-Patents (sparse, unweighted) and dota-league (dense,
    /// weighted) stand-ins, each shrunk by [`Options::stand_in_div`].
    fn stand_ins(&mut self, default_div: u32) -> io::Result<(Dataset, Dataset)> {
        let div = |full_vertices| self.opts.stand_in_div(full_vertices, default_div);
        let cit = PaperDatasets::cit_patents(div(PaperDatasets::CIT_PATENTS_VERTICES));
        let dota = PaperDatasets::dota_league(div(PaperDatasets::DOTA_LEAGUE_VERTICES));
        let pair =
            (Dataset::from_spec(&cit, self.opts.seed), Dataset::from_spec(&dota, self.opts.seed));
        self.describe(&pair.0)?;
        self.describe(&pair.1)?;
        Ok(pair)
    }

    fn describe(&mut self, ds: &Dataset) -> io::Result<()> {
        let (n, m) = (ds.raw.num_vertices, ds.raw.num_edges());
        say!(self, "dataset {}: {n} vertices, {m} edges", ds.name);
        Ok(())
    }

    /// Records `<metric>.<of>` for the artefact's claims.
    fn fact(&mut self, metric: &str, of: &str, value: f64) {
        self.facts.0.push((format!("{metric}.{of}"), value));
    }

    /// Every engine on `algorithms`, once per root for the first
    /// `max_roots` roots, at the invocation's thread count.
    fn experiment(&self, algorithms: &[Algorithm], max_roots: usize) -> ExperimentConfig {
        ExperimentConfig {
            algorithms: algorithms.to_vec(),
            threads: self.opts.threads,
            max_roots: Some(max_roots),
            ..ExperimentConfig::new()
        }
    }

    /// Writes `<out>/figures/<name>`.
    fn write_artefact(&self, name: &str, content: &str) -> io::Result<()> {
        let path = self.opts.out_dir.join("figures").join(name);
        std::fs::write(&path, content)?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }
}

/// `x` to three significant digits in plain decimal notation (whole
/// numbers and non-finite values as they are).
fn sig3(x: f64) -> String {
    if x.fract() == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (2 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

/// A labeled (paper value, our value) pair.
fn shape_row(label: &str, paper: Option<f64>, ours: f64, unit: &str) -> String {
    let paper = paper.map_or("n/a".to_string(), sig3);
    format!("{label:<24} paper: {paper:>10} {unit}   ours: {:>10} {unit}", sig3(ours))
}

/// Mean of a non-empty slice.
fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// A claim judged against one run's facts: a line of the ledger.
pub struct LedgerLine {
    /// The claim judged.
    pub claim: &'static Claim,
    /// What the facts said.
    pub verdict: Verdict,
}

/// The ledger as a markdown table, one line per claim, then what each
/// claim says.
pub fn render_ledger(lines: &[LedgerLine]) -> String {
    if lines.is_empty() {
        return "No claim rests on the artefacts selected.\n".to_string();
    }
    let mut md =
        String::from("| claim | artefact | basis | verdict | margin |\n|---|---|---|---|---|\n");
    for LedgerLine { claim, verdict } in lines {
        let (id, artefact, basis) = (claim.id, claim.artefact, claim.basis.label());
        let word = if verdict.holds { "holds" } else { "**deviates**" };
        let _ = writeln!(md, "| `{id}` | {artefact} | {basis} | {word} | {} |", verdict.margin);
    }
    md.push('\n');
    for LedgerLine { claim, .. } in lines {
        let _ = writeln!(md, "- `{}`: {}", claim.id, claim.sentence);
    }
    md
}

/// The artefacts `ids` name (`all` = every one), or a message listing
/// the ids that exist.
pub fn select(ids: &[String]) -> Result<Vec<&'static Artefact>, String> {
    let known = || ARTEFACTS.iter().map(|a| a.id).collect::<Vec<_>>().join(" ");
    if ids.is_empty() {
        return Err(format!("reproduce: name an artefact or `all`; ids: {}", known()));
    }
    let mut selected = Vec::new();
    for id in ids {
        match ARTEFACTS.iter().find(|a| a.id == id) {
            Some(a) => selected.push(a),
            None if id == "all" => selected.extend(&ARTEFACTS),
            None => return Err(format!("reproduce: unknown artefact `{id}`; ids: {}", known())),
        }
    }
    Ok(selected)
}

/// Regenerates one artefact: prints its tables to `out`, writes its
/// files, and judges its claims against the facts it recorded.
pub fn reproduce_one(
    artefact: &Artefact,
    opts: &Options,
    out: &mut dyn Write,
) -> io::Result<(Facts, Vec<LedgerLine>)> {
    eprintln!("reproduce {}: {}", artefact.id, artefact.title);
    let figures = opts.out_dir.join("figures");
    std::fs::create_dir_all(&figures)?;
    writeln!(out, "==== {} — {} ====", artefact.id, artefact.title)?;
    let mut ctx = Ctx { opts, out, facts: Facts::default() };
    match &artefact.body {
        Body::Panel(panel) => artefacts::kernel_panel(&mut ctx, artefact.id, panel)?,
        Body::Custom(body) => body(&mut ctx)?,
    }
    let facts = ctx.facts;
    writeln!(out)?;
    if let Some(missing) = artefact.outputs.iter().find(|name| !figures.join(name).exists()) {
        return Err(io::Error::other(format!("{} did not write {missing}", artefact.id)));
    }
    let ledger = CLAIMS
        .iter()
        .filter(|claim| claim.artefact == artefact.id)
        .map(|claim| LedgerLine { claim, verdict: (claim.judge)(&facts) })
        .collect();
    Ok((facts, ledger))
}

/// `epg reproduce <ids>`: regenerates each selected artefact in turn,
/// then prints the claims ledger and writes it to `<out>/claims.md`.
/// Unknown ids and sizes no generator accepts are rejected before anything
/// runs or is created.
pub fn run(ids: &[String], opts: &Options, out: &mut dyn Write) -> io::Result<Vec<LedgerLine>> {
    let invalid = |msg| io::Error::new(io::ErrorKind::InvalidInput, msg);
    let selected = select(ids).map_err(invalid)?;
    if opts.scale.is_some_and(|scale| !(1..=32).contains(&scale)) {
        return Err(invalid("reproduce: --scale N asks for 2^N vertices; N is 1..=32".to_string()));
    }
    let mut ledger = Vec::new();
    for artefact in selected {
        ledger.extend(reproduce_one(artefact, opts, out)?.1);
    }
    let rendered = render_ledger(&ledger);
    write!(out, "==== claims ledger ====\n{rendered}")?;
    std::fs::write(opts.out_dir.join("claims.md"), rendered)?;
    Ok(ledger)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(scale: Option<u32>, full: bool) -> Options {
        Options { full, scale, threads: 1, roots: 8, seed: 1, out_dir: PathBuf::from("x") }
    }

    /// Replaces `epg-bench`'s `scale_selection`: explicit > `--full` >
    /// default, and `--scale N` means 2^N vertices for the stand-ins too.
    #[test]
    fn scale_means_two_to_the_n_vertices_for_every_dataset() {
        let default = options(None, false);
        assert_eq!((default.kron_scale(22, 14), default.stand_in_div(61_670, 256)), (14, 256));
        let full = options(None, true);
        assert_eq!((full.kron_scale(22, 14), full.stand_in_div(61_670, 256)), (22, 1));
        let explicit = options(Some(10), true);
        assert_eq!(explicit.kron_scale(22, 14), 10);
        let div = explicit.stand_in_div(PaperDatasets::CIT_PATENTS_VERTICES, 256);
        assert_eq!(PaperDatasets::CIT_PATENTS_VERTICES / div as usize, 1024);
        // Larger than the original (or than the word size): the original.
        assert_eq!(options(Some(2048), false).stand_in_div(61_670, 256), 1);
        assert_eq!(options(Some(20), false).stand_in_div(61_670, 256), 1);
    }

    #[test]
    fn shape_row_formats() {
        // Three significant digits: a 73.5 µs projection is not "0.0001".
        let row = shape_row("BFS", Some(0.016), 0.0000735, "s");
        assert!(row.contains("0.0160") && row.contains("0.0000735"), "{row}");
        assert!(shape_row("BFS", None, 131.3667, "W").contains("n/a"));
        assert_eq!(
            (sig3(131.3667), sig3(2.5), sig3(5238.0)),
            ("131".into(), "2.50".into(), "5238".into())
        );
    }
}
