//! The claims table: each sentence of the paper this repository checks,
//! stated once. EXPERIMENTS.md's summary rows, `tests/paper_shapes.rs` and
//! the ledger `epg reproduce` prints all refer to these rows by id.

use super::{sig3, Facts};

/// What a claim's verdict depends on, least to most host-dependent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Basis {
    /// Counters, traces and which cells exist: deterministic per seed.
    Counters,
    /// The machine model over the traces at [`NOMINAL_RATE`]: deterministic.
    Projection,
    /// This run's wall clock, directly or through a rate calibrated from it.
    WallTime,
}

impl Basis {
    /// The ledger's word for it.
    pub fn label(self) -> &'static str {
        match self {
            Basis::Counters => "counters",
            Basis::Projection => "projection",
            Basis::WallTime => "wall time",
        }
    }

    /// Whether the same seed and scale give the same verdict on any host.
    pub fn is_deterministic(self) -> bool {
        self != Basis::WallTime
    }
}

/// Work units per second per thread for projection-basis facts, in the
/// ballpark the paper machine calibrates to. Calibrating from a run's own
/// wall time would feed host timing noise into the curves' *shape*; the
/// shapes these claims state are properties of the traces.
pub const NOMINAL_RATE: f64 = 5e8;

/// Whether the facts bear a claim out, and by how much.
pub struct Verdict {
    /// The predicate's value.
    pub holds: bool,
    /// The measured quantities behind it.
    pub margin: String,
}

/// One sentence of the paper, checked.
pub struct Claim {
    /// Stable name: the ledger's, EXPERIMENTS.md's and the tests'.
    pub id: &'static str,
    /// The [`super::Artefact`] whose facts judge it.
    pub artefact: &'static str,
    /// What the paper says.
    pub sentence: &'static str,
    /// What the verdict depends on.
    pub basis: Basis,
    /// The predicate.
    pub judge: fn(&Facts) -> Verdict,
}

fn verdict(holds: bool, margin: String) -> Verdict {
    Verdict { holds, margin }
}

/// `a < b`, the margin their names, values and ratio.
fn below(f: &Facts, a: &str, b: &str) -> Verdict {
    let (x, y) = (f.get(a), f.get(b));
    verdict(x < y, format!("{a} {} vs {b} {} ({:.2}x)", sig3(x), sig3(y), x / y))
}

/// The facts `<prefix>.<x>` in ascending order, as `x value < x value …`.
fn order(f: &Facts, prefix: &str) -> String {
    let ranked = f.ranked(prefix);
    ranked.iter().map(|(x, v)| format!("{x} {}", sig3(*v))).collect::<Vec<_>>().join(" < ")
}

/// Whether `name` is the smallest (`last == false`) or largest of the
/// facts `<prefix>.<x>`; the margin is their order.
fn extreme(f: &Facts, prefix: &str, last: bool, name: &str) -> Verdict {
    let ranked = f.ranked(prefix);
    let found = if last { ranked.last() } else { ranked.first() };
    verdict(found.is_some_and(|(x, _)| *x == name), format!("{prefix}: {}", order(f, prefix)))
}

/// LCC costs every Graphalytics system more than any other kernel it runs
/// on `dataset`.
fn lcc_dominates(f: &Facts, dataset: &str) -> Verdict {
    let mut holds = true;
    let mut margins = Vec::new();
    for engine in ["GraphBIG", "PowerGraph", "GraphMat"] {
        let time = |algo: &str| f.find(&format!("reported.{algo}.{dataset}.{engine}"));
        let lcc = time("LCC").unwrap_or(f64::NAN);
        let (other, t) = ["BFS", "CDLP", "PR", "WCC"]
            .into_iter()
            .filter_map(|algo| Some((algo, time(algo)?)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("every system runs PageRank and WCC");
        holds &= lcc > t;
        margins.push(format!("{engine} LCC {:.1}x its {other}", lcc / t));
    }
    verdict(holds, margins.join(", "))
}

/// `engine`'s `algo` time relative to `baseline`'s falls from the sparse
/// cit-Patents to the dense dota-league.
fn dense_flatters(f: &Facts, algo: &str, engine: &str, baseline: &str) -> Verdict {
    let ratio = |dataset: &str| {
        let seconds = |e: &str| f.get(&format!("seconds.{algo}.{dataset}.{e}"));
        seconds(engine) / seconds(baseline)
    };
    let (dense, sparse) = (ratio("dota"), ratio("Patents"));
    verdict(
        dense < sparse,
        format!("{engine}/{baseline} {algo}: dota-league {dense:.2}x, cit-Patents {sparse:.2}x"),
    )
}

/// Every claim, grouped by artefact in [`super::ARTEFACTS`]' order.
pub const CLAIMS: [Claim; 25] = [
    Claim {
        id: "phase_confounding",
        artefact: "table1",
        sentence: "Graphalytics' reported time covers different phases per system: GraphMat's \
                   includes the file read, GraphBIG's and PowerGraph's do not (Table I excerpt)",
        basis: Basis::Counters,
        judge: |f| {
            let share = |engine| f.get(&format!("read_share.{engine}"));
            verdict(
                share("GraphMat") > 0.99 && share("GraphBIG") < 0.01 && share("PowerGraph") < 0.01,
                format!(
                    "share of the file read inside the reported time: {}",
                    order(f, "read_share")
                ),
            )
        },
    },
    Claim {
        id: "sssp_na_unweighted",
        artefact: "table1",
        sentence: "SSSP is N/A on the unweighted cit-Patents and runs on dota-league (Table I)",
        basis: Basis::Counters,
        judge: |f| {
            let cells = |dataset| f.ranked(&format!("reported.SSSP.{dataset}")).len();
            let (cit, dota) = (cells("cit"), cells("dota"));
            verdict(
                cit == 0 && dota == 3,
                format!("SSSP cells: {cit} of 3 on cit-Patents, {dota} of 3 on dota-league"),
            )
        },
    },
    Claim {
        id: "lcc_dominates_dense",
        artefact: "table1",
        sentence: "LCC is every system's most expensive kernel on the dense dota-league (Table I)",
        basis: Basis::WallTime,
        judge: |f| lcc_dominates(f, "dota"),
    },
    Claim {
        id: "lcc_dominates_kron",
        artefact: "table2",
        sentence: "LCC is every system's most expensive kernel on the Kronecker graph (Table II)",
        basis: Basis::WallTime,
        judge: |f| lcc_dominates(f, "kron"),
    },
    Claim {
        id: "powergraph_slowest_graphalytics",
        artefact: "table2",
        sentence: "PowerGraph is the slowest of the three systems on PageRank and WCC (Table II)",
        basis: Basis::WallTime,
        judge: |f| {
            let (pr, wcc) = ("reported.PR.kron", "reported.WCC.kron");
            let slowest = |prefix| extreme(f, prefix, true, "PowerGraph").holds;
            verdict(
                slowest(pr) && slowest(wcc),
                format!("PR {}; WCC {}", order(f, pr), order(f, wcc)),
            )
        },
    },
    Claim {
        id: "dobfs_cuts_edges",
        artefact: "fig2",
        sentence: "GAP wins BFS by direction optimization: it examines under half the edges a \
                   top-down BFS does (§IV-C, Fig. 2)",
        basis: Basis::Counters,
        judge: |f| {
            let (gap, topdown) = (f.get("edges.GAP"), f.get("edges.Graph500"));
            verdict(
                gap * 2.0 < topdown,
                format!(
                    "GAP examined {gap} edges, Graph500's top-down {topdown} ({:.1}x)",
                    topdown / gap
                ),
            )
        },
    },
    Claim {
        id: "graphmat_serial_overhead",
        artefact: "fig2",
        sentence: "GraphMat's sparse-matrix machinery carries per-iteration serial overhead the \
                   CSR engines do not pay (§IV-C)",
        basis: Basis::Counters,
        judge: |f| below(f, "serial_share.GAP", "serial_share.GraphMat"),
    },
    Claim {
        id: "graphbig_bfs_100x",
        artefact: "fig2",
        sentence: "GraphBIG's BFS is two orders of magnitude slower than GAP's (Fig. 2, Table III)",
        basis: Basis::WallTime,
        judge: |f| {
            let ratio = f.get("seconds.GraphBIG") / f.get("seconds.GAP");
            verdict(ratio >= 100.0, format!("GraphBIG / GAP = {ratio:.1}x (paper: 98x)"))
        },
    },
    Claim {
        id: "graph500_bfs_only",
        artefact: "fig3",
        sentence: "Graph500 implements BFS only: it is absent from the SSSP figure (Fig. 3)",
        basis: Basis::Counters,
        judge: |f| {
            verdict(f.get("runs.Graph500") == 0.0, format!("SSSP runs: {}", order(f, "runs")))
        },
    },
    Claim {
        id: "fused_construction",
        artefact: "fig3",
        sentence: "GraphBIG and PowerGraph build while they read the file, so they have no \
                   construction time to plot; GAP and GraphMat do (§III-B, Figs. 2-3)",
        basis: Basis::Counters,
        judge: |f| {
            let phases = |engine| f.get(&format!("construct_phases.{engine}"));
            verdict(
                phases("GraphBIG") + phases("PowerGraph") == 0.0
                    && phases("GAP").min(phases("GraphMat")) > 0.0,
                format!("construction phases timed: {}", order(f, "construct_phases")),
            )
        },
    },
    Claim {
        id: "gap_wins_sssp",
        artefact: "fig3",
        sentence: "GAP is the clear winner on SSSP (Fig. 3)",
        basis: Basis::WallTime,
        judge: |f| extreme(f, "seconds", false, "GAP"),
    },
    Claim {
        id: "graphmat_pr_iterates_longest",
        artefact: "fig4",
        sentence: "GraphMat, run until no rank changes, iterates at least as long as every \
                   engine that stops at the L1 threshold (§IV-A, Fig. 4)",
        basis: Basis::Counters,
        judge: |f| {
            let most = f.ranked("iterations").last().map_or(f64::NAN, |r| r.1);
            verdict(f.get("iterations.GraphMat") >= most, order(f, "iterations"))
        },
    },
    Claim {
        id: "graphbig_slowest_pr",
        artefact: "fig4",
        sentence: "GraphBIG is by far the slowest engine on PageRank (Fig. 4)",
        basis: Basis::WallTime,
        judge: |f| extreme(f, "seconds", true, "GraphBIG"),
    },
    Claim {
        id: "poor_strong_scaling",
        artefact: "fig5_6",
        sentence: "Strong scaling is generally poor at this size: no engine is near linear at 72 \
                   threads (§IV-B, Figs. 5-6)",
        basis: Basis::Projection,
        judge: |f| {
            let best = f.ranked("nominal_speedup72").last().map_or(f64::NAN, |r| r.1);
            verdict(
                best < 40.0 && best / 72.0 < 0.6,
                format!("best 72-thread speedup {best:.1}x (efficiency {:.2})", best / 72.0),
            )
        },
    },
    Claim {
        id: "graphmat_rivals_gap_72t",
        artefact: "fig5_6",
        sentence: "GraphMat is close behind GAP at large thread counts and slightly ahead at 72 \
                   (§IV-B)",
        basis: Basis::Projection,
        judge: |f| {
            let (gm, gap) = (f.get("nominal_speedup72.GraphMat"), f.get("nominal_speedup72.GAP"));
            verdict(gm >= gap * 0.9, format!("72-thread speedup: GraphMat {gm:.1}x, GAP {gap:.1}x"))
        },
    },
    Claim {
        id: "graphbig_scales_worst",
        artefact: "fig5_6",
        sentence: "GraphBIG sits below GraphMat in Fig. 5's speedup curves",
        basis: Basis::Projection,
        judge: |f| below(f, "nominal_speedup72.GraphBIG", "nominal_speedup72.GraphMat"),
    },
    Claim {
        id: "gap_top_normalized_speedup",
        artefact: "fig5_6",
        sentence: "GAP has the highest normalized speedup T1/Tn (Fig. 5)",
        basis: Basis::WallTime,
        judge: |f| extreme(f, "speedup72", true, "GAP"),
    },
    Claim {
        id: "powergraph_no_bfs",
        artefact: "fig8",
        sentence: "PowerGraph provides no BFS: the leftmost panel has no PowerGraph bar (Fig. 8)",
        basis: Basis::Counters,
        judge: |f| {
            let bar = |dataset| f.find(&format!("seconds.BFS.{dataset}.PowerGraph"));
            let bars = bar("dota").iter().chain(bar("Patents").iter()).count();
            verdict(bars == 0, format!("{bars} PowerGraph bars in the BFS panel"))
        },
    },
    Claim {
        id: "graphmat_overhead_amortizes_dense",
        artefact: "fig8",
        sentence: "GraphMat's sparse-matrix overhead pays off on the denser graph: the serial \
                   share of its PageRank work shrinks from cit-Patents to dota-league (§IV-C)",
        basis: Basis::Counters,
        judge: |f| below(f, "serial_share.dota.GraphMat", "serial_share.Patents.GraphMat"),
    },
    Claim {
        id: "dense_flatters_powergraph",
        artefact: "fig8",
        sentence: "PowerGraph does relatively better on the dense dota-league: its SSSP slowdown \
                   against GAP shrinks from cit-Patents to dota-league (Fig. 8)",
        basis: Basis::WallTime,
        judge: |f| dense_flatters(f, "SSSP", "PowerGraph", "GAP"),
    },
    Claim {
        id: "dense_flatters_graphmat",
        artefact: "fig8",
        sentence: "GraphMat does relatively better on the dense dota-league: its PageRank time \
                   against GraphBIG's shrinks from cit-Patents to dota-league (Fig. 8)",
        basis: Basis::WallTime,
        judge: |f| dense_flatters(f, "PR", "GraphMat", "GraphBIG"),
    },
    Claim {
        id: "fastest_uses_least_energy",
        artefact: "fig9_table3",
        sentence: "The fastest code is also the most energy efficient (Table III)",
        basis: Basis::Projection,
        judge: |f| {
            let first = |prefix| f.ranked(prefix).first().map_or("", |r| r.0);
            verdict(
                first("nominal_seconds") == first("nominal_joules"),
                format!("s: {}; J: {}", order(f, "nominal_seconds"), order(f, "nominal_joules")),
            )
        },
    },
    Claim {
        id: "graphmat_lowest_power",
        artefact: "fig9_table3",
        sentence: "GraphMat draws the lowest average power during BFS (Fig. 9, Table III)",
        basis: Basis::Projection,
        judge: |f| extreme(f, "nominal_watts", false, "GraphMat"),
    },
    Claim {
        id: "energy_order_is_time_order",
        artefact: "fig9_table3",
        sentence: "Ranking the engines by time and by energy gives the same order (Table III)",
        basis: Basis::WallTime,
        judge: |f| {
            let names = |prefix| f.ranked(prefix).into_iter().map(|r| r.0).collect::<Vec<_>>();
            verdict(
                names("seconds") == names("joules"),
                format!("s: {}; J: {}", order(f, "seconds"), order(f, "joules")),
            )
        },
    },
    Claim {
        id: "replication_grows_with_density",
        artefact: "ablation_partitions",
        sentence: "PowerGraph's vertex-cut replication factor, which every apply pays in mirror \
                   synchronization, grows with graph density (§IV-C)",
        basis: Basis::Counters,
        judge: |f| below(f, "replication.sparse.8", "replication.dense.8"),
    },
];
