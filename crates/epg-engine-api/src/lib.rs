//! The common engine protocol.
//!
//! §III-A of the paper: experiments run "author-provided implementations
//! with modifications only to insert performance analysis hooks or to
//! ensure homogeneous stopping criteria". This crate is those hooks: a
//! phase-separated run protocol every engine implements, shared work
//! counters, the execution traces the machine model consumes, homogenized
//! stopping criteria, and the per-engine log formats the harness's parser
//! phase handles.
//!
//! The phase protocol mirrors the two Graph500 kernels plus the I/O the
//! paper insists on separating (Table I's GraphMat example):
//!
//! 1. [`Engine::load_file`] — file bytes → unstructured data in RAM;
//! 2. [`Engine::construct`] — RAM edge list → the engine's structure
//!    (not separable for GraphBIG/PowerGraph, which is itself a finding
//!    the paper reports — see [`Engine::separable_construction`]);
//! 3. [`Engine::run`] — the algorithm kernel, timed per root.

#![warn(missing_docs)]
pub mod cdlp;
pub mod counters;
pub mod fault;
pub mod logfmt;
pub mod query;
pub mod record;
pub mod result;
pub mod stopping;

pub use counters::{Counters, RegionRecord, Trace};
pub use fault::{FaultKind, FaultPlan, FaultyEngine};
pub use query::QueryEngine;
pub use record::{sum_counter_deltas, Found, RecorderCtx, RunLog};
pub use result::{AlgorithmResult, RunOutput};
pub use stopping::{Convergence, StoppingCriterion};
// Re-exported so engine crates and tests use telemetry types without
// depending on epg-trace themselves.
pub use epg_trace::{Dir, Recorder, RunRecorder, TraceEvent};

use epg_graph::{EdgeList, VertexId};
use epg_parallel::{CancelToken, ThreadPool};
use std::path::Path;

/// The algorithms the paper measures. BFS/SSSP/PR are the framework's core
/// trio (§III-D); CDLP/LCC/WCC appear in the Graphalytics comparisons
/// (Tables I and II).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Breadth-first search (rooted).
    Bfs,
    /// Single-source shortest paths (rooted, needs weights).
    Sssp,
    /// PageRank.
    PageRank,
    /// Community detection by label propagation.
    Cdlp,
    /// Local clustering coefficient.
    Lcc,
    /// Weakly connected components.
    Wcc,
    /// Betweenness centrality (§V extension: "algorithms like triangle
    /// counting and betweenness centrality are widely implemented but not
    /// supported by either Graphalytics nor easy-parallel-graph-*" — we
    /// support them).
    Bc,
    /// Global triangle count (§V extension).
    TriangleCount,
}

impl Algorithm {
    /// Every algorithm the framework knows, Table I columns first.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Bfs,
        Algorithm::Cdlp,
        Algorithm::Lcc,
        Algorithm::PageRank,
        Algorithm::Sssp,
        Algorithm::Wcc,
        Algorithm::Bc,
        Algorithm::TriangleCount,
    ];

    /// The framework's core trio (§III-D).
    pub const CORE: [Algorithm; 3] = [Algorithm::Bfs, Algorithm::Sssp, Algorithm::PageRank];

    /// The §V future-work extensions implemented by this reproduction.
    pub const EXTENSIONS: [Algorithm; 2] = [Algorithm::Bc, Algorithm::TriangleCount];

    /// Table-header abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            Algorithm::Bfs => "BFS",
            Algorithm::Sssp => "SSSP",
            Algorithm::PageRank => "PR",
            Algorithm::Cdlp => "CDLP",
            Algorithm::Lcc => "LCC",
            Algorithm::Wcc => "WCC",
            Algorithm::Bc => "BC",
            Algorithm::TriangleCount => "TC",
        }
    }

    /// Full name for prose output.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Bfs => "Breadth First Search",
            Algorithm::Sssp => "Single Source Shortest Paths",
            Algorithm::PageRank => "PageRank",
            Algorithm::Cdlp => "Community Detection (Label Propagation)",
            Algorithm::Lcc => "Local Clustering Coefficient",
            Algorithm::Wcc => "Weakly Connected Components",
            Algorithm::Bc => "Betweenness Centrality",
            Algorithm::TriangleCount => "Triangle Counting",
        }
    }

    /// Rooted algorithms take one of the 32 sampled roots per run.
    pub fn is_rooted(self) -> bool {
        matches!(self, Algorithm::Bfs | Algorithm::Sssp)
    }

    /// SSSP requires weights; Graphalytics skips it on unweighted graphs
    /// (the N/A cells of Table I).
    pub fn needs_weights(self) -> bool {
        matches!(self, Algorithm::Sssp)
    }

    /// Parses an abbreviation (case-insensitive).
    pub fn from_abbrev(s: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.abbrev().eq_ignore_ascii_case(s))
    }
}

/// CDLP's fixed round count: Graphalytics' CDLP iteration parameter,
/// which every engine's CDLP runs and the oracle tests compare against.
pub const CDLP_ROUNDS: u32 = 10;

/// Selectable SSSP kernel for engines that ship more than one (currently
/// GAP). The paper's engines each run a single Δ-stepping variant; the
/// raw-speed tier adds two sequential priority-queue kernels so the
/// differential suites can cross-check all of them against the oracle on
/// adversarial graph shapes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SsspKernel {
    /// Bucketed Δ-stepping (the paper's GAP kernel; parallel).
    #[default]
    DeltaStepping,
    /// Sequential Dijkstra over a monotone u64-key radix heap, using an
    /// order-preserving f32→u64 distance key mapping.
    RadixHeap,
    /// Bounded multi-source shortest paths (arXiv:2504.17033): recursive
    /// pivot/partial-order-queue Dijkstra variant with adaptive
    /// constant-degree preprocessing.
    Bmssp,
}

impl SsspKernel {
    /// Every kernel, in probe order. The differential and proptest suites
    /// iterate this array; `tests` below pin it against the enum via an
    /// exhaustive match so a new variant cannot ship without coverage.
    pub const ALL: [SsspKernel; 3] =
        [SsspKernel::DeltaStepping, SsspKernel::RadixHeap, SsspKernel::Bmssp];

    /// Stable CLI / CSV / JSON label.
    pub fn name(self) -> &'static str {
        match self {
            SsspKernel::DeltaStepping => "delta",
            SsspKernel::RadixHeap => "radix",
            SsspKernel::Bmssp => "bmssp",
        }
    }

    /// Parses a CLI label (case-insensitive).
    pub fn from_name(s: &str) -> Option<SsspKernel> {
        SsspKernel::ALL.into_iter().find(|k| k.name().eq_ignore_ascii_case(s))
    }
}

/// Execution phases, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Reading the input file from disk into RAM.
    ReadFile,
    /// Building the engine's graph data structure.
    Construct,
    /// Running the algorithm kernel.
    Run,
    /// Writing results (Graphalytics counts this; we report it separately).
    Output,
}

impl Phase {
    /// All phases in order.
    pub const ALL: [Phase; 4] = [Phase::ReadFile, Phase::Construct, Phase::Run, Phase::Output];

    /// CSV column label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::ReadFile => "read_file",
            Phase::Construct => "construct",
            Phase::Run => "run",
            Phase::Output => "output",
        }
    }
}

/// Per-run parameters handed to [`Engine::run`].
pub struct RunParams<'a> {
    /// Root vertex for rooted algorithms; ignored otherwise.
    pub root: Option<VertexId>,
    /// Thread pool to run on (its size is the experiment's thread count).
    pub pool: &'a ThreadPool,
    /// PageRank stopping criterion. Engines default to their native
    /// behavior when `None` (GraphMat: run until no vertex changes; the
    /// rest: L1 < 6e-8) — the homogenization §IV-A describes.
    pub stopping: Option<StoppingCriterion>,
    /// Iteration cap for iterative kernels.
    pub max_iterations: u32,
    /// Betweenness-centrality source count: `None` runs exact Brandes from
    /// every vertex; `Some(k)` samples `k` sources and scales (GAP-style
    /// approximate BC).
    pub bc_sources: Option<usize>,
    /// Telemetry sink. Defaults to [`RecorderCtx::none`], which makes
    /// every emission a no-op (see the `record` module).
    pub recorder: RecorderCtx<'a>,
    /// Per-request cancellation budget for reentrant query adapters
    /// ([`QueryEngine`]): when set, the adapter attaches it to the pool
    /// `ThreadPool::exclusive` hands it (a private lane on a 1-thread
    /// pool) for the duration of this run (and restores the previous token
    /// afterwards), so a query past its SLO unwinds cooperatively.
    /// Batch trials leave it `None` — the supervisor in `epg-harness`
    /// manages the pool token itself for those.
    pub cancel: Option<CancelToken>,
}

impl<'a> RunParams<'a> {
    /// Standard parameters: paper defaults, given a pool and optional root.
    pub fn new(pool: &'a ThreadPool, root: Option<VertexId>) -> RunParams<'a> {
        RunParams {
            root,
            pool,
            stopping: None,
            max_iterations: 300,
            bc_sources: None,
            recorder: RecorderCtx::none(),
            cancel: None,
        }
    }
}

/// Static description of an engine (the §III-C inventory row).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineInfo {
    /// Display name ("GAP", "Graph500", ...).
    pub name: &'static str,
    /// Graph representation ("CSR", "DCSC", "vertex-cut CSR", ...).
    pub representation: &'static str,
    /// Parallelism mechanism description.
    pub parallelism: &'static str,
    /// Whether the engine is distributed-capable (PowerGraph) — the paper
    /// runs it on a single node but notes the overhead it carries.
    pub distributed_capable: bool,
    /// Whether the reference build requires a proprietary compiler
    /// (GraphMat needs ICC; a §VI cost/portability consideration).
    pub requires_proprietary_compiler: bool,
}

/// The engine protocol. One instance holds one loaded graph and can run
/// many algorithm invocations against it (32 roots per experiment).
pub trait Engine {
    /// Static metadata.
    fn info(&self) -> EngineInfo;

    /// Whether this engine implements `algo`. PowerGraph famously ships no
    /// BFS toolkit; Graph500 is BFS-only.
    fn supports(&self, algo: Algorithm) -> bool;

    /// Whether file reading and structure construction are separate phases.
    /// False for GraphBIG and PowerGraph, which "read in the input file and
    /// build a graph simultaneously" (§III-B).
    fn separable_construction(&self) -> bool {
        true
    }

    /// Phase 1: read a homogenized input file into RAM (an edge list for
    /// most engines; GraphBIG/PowerGraph also construct here). Engines use
    /// the pool for parallel decode/parse of the input bytes — the paper
    /// measures this phase separately precisely because it dominates
    /// end-to-end time for several systems.
    fn load_file(&mut self, path: &Path, pool: &ThreadPool) -> std::io::Result<()>;

    /// In-memory variant of phase 1 for tests and benches: stages a copy of
    /// `el` and drops any structure built before.
    fn load_edge_list(&mut self, el: &EdgeList);

    /// Phase 2: build the engine's graph structure from the loaded data.
    /// Engines may use the pool to parallelize construction.
    ///
    /// One rule holds for every engine, so that after construction an
    /// engine holds its graph structure and nothing else:
    /// - `load_*` stages the input (a fused engine's `load_file` builds
    ///   the structure itself and stages nothing);
    /// - `construct` builds from the staged input and releases it;
    /// - `construct` with nothing staged keeps the structure already
    ///   built, so calling it twice is one build;
    /// - `construct` panics only when there is neither a staged input nor
    ///   a built structure.
    fn construct(&mut self, pool: &ThreadPool);

    /// Phase 3: run an algorithm kernel. Panics if `supports(algo)` is
    /// false or the graph is not constructed.
    fn run(&mut self, algo: Algorithm, params: &RunParams<'_>) -> RunOutput;

    /// Log-file dialect for the harness's writer/parser phase.
    fn log_style(&self) -> logfmt::LogStyle {
        logfmt::LogStyle::Generic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abbrevs_roundtrip() {
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::from_abbrev(a.abbrev()), Some(a));
            assert_eq!(Algorithm::from_abbrev(&a.abbrev().to_lowercase()), Some(a));
        }
        assert_eq!(Algorithm::from_abbrev("nope"), None);
    }

    #[test]
    fn rooted_and_weighted_sets() {
        assert!(Algorithm::Bfs.is_rooted());
        assert!(Algorithm::Sssp.is_rooted());
        assert!(!Algorithm::PageRank.is_rooted());
        assert!(Algorithm::Sssp.needs_weights());
        assert!(!Algorithm::Bfs.needs_weights());
    }

    #[test]
    fn kernel_names_roundtrip() {
        for k in SsspKernel::ALL {
            assert_eq!(SsspKernel::from_name(k.name()), Some(k));
            assert_eq!(SsspKernel::from_name(&k.name().to_uppercase()), Some(k));
        }
        assert_eq!(SsspKernel::from_name("spfa"), None);
        assert_eq!(SsspKernel::default(), SsspKernel::DeltaStepping);
    }

    // Census: the match is exhaustive, so adding a kernel variant without
    // giving it an ordinal is a compile error, and forgetting to add it to
    // `ALL` fails the seen-all assertion.
    #[test]
    fn kernel_all_is_exhaustive() {
        fn ordinal(k: SsspKernel) -> usize {
            match k {
                SsspKernel::DeltaStepping => 0,
                SsspKernel::RadixHeap => 1,
                SsspKernel::Bmssp => 2,
            }
        }
        let mut seen = [false; SsspKernel::ALL.len()];
        for k in SsspKernel::ALL {
            seen[ordinal(k)] = true;
        }
        assert!(seen.iter().all(|&s| s), "SsspKernel::ALL misses a variant");
    }

    #[test]
    fn phase_labels_unique() {
        let labels: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), Phase::ALL.len());
    }
}
