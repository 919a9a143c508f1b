//! The PowerGraph toolkit algorithms as vertex programs.
//!
//! Note the deliberate omission: **no BFS**. "PowerGraph ... doesn't
//! provide an reference implementation of BFS in its toolkits" (§III-D),
//! which is why PowerGraph is absent from Figs. 2, 5, 6 and the BFS panel
//! of Fig. 8.

use crate::gas::{superstep, EdgeDir, Scratch, Signal, VertexProgram};
use crate::partition::PartitionedGraph;
use epg_engine_api::cdlp::LabelBag;
use epg_engine_api::{AlgorithmResult, Dir, RunLog, RunOutput, RunParams, StoppingCriterion};
use epg_graph::{VertexId, Weight, INF_DIST};

// --------------------------------------------------------------- SSSP ----

/// The toolkit's SSSP (`sssp.cpp`): no gather; a vertex whose distance
/// changed signals an out-neighbour with `dist + w` only when that improves
/// the neighbour, and a vertex's messages combine by min.
struct SsspProgram;

impl VertexProgram for SsspProgram {
    type Data = f32;
    type Gather = f32;
    fn gather_dir(&self) -> EdgeDir {
        EdgeDir::None
    }
    fn gather(&self, _v: VertexId, _other: &f32, _w: Weight) -> f32 {
        unreachable!("the toolkit's SSSP does not gather")
    }
    fn merge(&self, a: f32, b: f32) -> f32 {
        a.min(b)
    }
    fn apply(&self, _v: VertexId, data: &mut f32, acc: Option<f32>) -> bool {
        match acc {
            Some(a) if a < *data => {
                *data = a;
                true
            }
            _ => false,
        }
    }
    fn scatter_dir(&self) -> EdgeDir {
        EdgeDir::Out
    }
    fn scatter(&self, dist: &f32, other: &f32, w: Weight) -> Signal<f32> {
        let candidate = dist + w;
        if candidate < *other {
            Signal::Message(candidate)
        } else {
            Signal::Skip
        }
    }
}

/// SSSP: the root is signalled with distance 0, and every superstep applies
/// the vertices holding messages and scatters from those that changed,
/// until no message is sent.
pub fn sssp(g: &PartitionedGraph, params: &RunParams<'_>) -> RunOutput {
    let (pool, rec) = (params.pool, params.recorder);
    let root = params.root.expect("SSSP needs a root");
    let n = g.num_vertices;
    let mut dist = vec![INF_DIST; n];
    let mut log = RunLog::new(rec);
    rec.alloc_hwm("powergraph.sssp.dist", n as u64 * 4);
    let mut scratch = Scratch::new(g, pool);
    // The toolkit signals the root with distance 0. An isolated root has no
    // replica to hold the message and no edge to scatter along: it takes
    // the distance directly.
    let mut active = if scratch.signal(g, root, 0.0) {
        vec![root]
    } else {
        dist[root as usize] = 0.0;
        Vec::new()
    };
    let mut round = 0u32;
    while !active.is_empty() {
        round += 1;
        superstep(&SsspProgram, g, &active, &mut dist, &mut scratch, pool, &mut log);
        // Message-driven superstep: the signalled set pushes work forward.
        if log.iteration(pool, round, active.len() as u64, Dir::Push).is_break() {
            break;
        }
        std::mem::swap(&mut active, &mut scratch.next);
    }
    log.counters.bytes_read = log.counters.edges_traversed * 16;
    log.finish(AlgorithmResult::Distances(dist))
}

// ----------------------------------------------------------- PageRank ----

const DAMPING: f64 = 0.85;

/// Vertex data for PageRank: rank plus out-degree (mirrors need both).
#[derive(Clone, Copy)]
struct PrData {
    rank: f64,
    out_deg: u32,
}

struct PrProgram {
    base: f64,
    sink_mass: f64,
}

impl VertexProgram for PrProgram {
    type Data = PrData;
    type Gather = f64;
    fn gather_dir(&self) -> EdgeDir {
        EdgeDir::In
    }
    fn gather(&self, _v: VertexId, other: &PrData, _w: Weight) -> f64 {
        other.rank / other.out_deg.max(1) as f64
    }
    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }
    fn apply(&self, _v: VertexId, data: &mut PrData, acc: Option<f64>) -> bool {
        let new = self.base + DAMPING * (acc.unwrap_or(0.0) + self.sink_mass);
        let changed = (data.rank as f32) != (new as f32);
        data.rank = new;
        changed
    }
    fn scatter_dir(&self) -> EdgeDir {
        EdgeDir::None // the engine drives all-active synchronous rounds
    }
}

/// PageRank: synchronous all-active rounds with the homogenized L1
/// criterion by default.
pub fn pagerank(g: &PartitionedGraph, params: &RunParams<'_>) -> RunOutput {
    let n = g.num_vertices;
    let pool = params.pool;
    let rec = params.recorder;
    let stopping = params.stopping.unwrap_or(StoppingCriterion::paper_default());
    let mut log = RunLog::new(rec);
    if n == 0 {
        return log.finish(AlgorithmResult::Ranks { ranks: Vec::new(), iterations: 0 });
    }
    rec.alloc_hwm("powergraph.pr.data", n as u64 * 16);
    let mut out_deg = vec![0u32; n];
    for p in &g.partitions {
        for (l, &u) in p.vertices().iter().enumerate() {
            out_deg[u as usize] += p.out_edges(l).len() as u32;
        }
    }
    let mut data: Vec<PrData> =
        (0..n).map(|v| PrData { rank: 1.0 / n as f64, out_deg: out_deg[v] }).collect();
    let all: Vec<VertexId> = (0..n as VertexId).collect();
    let base = (1.0 - DAMPING) / n as f64;
    let mut iterations = 0u32;
    // Prev-rank snapshot for the L1 convergence delta, reused across
    // iterations so the timed loop never reallocates it.
    let mut prev = vec![0.0f64; n];
    let mut scratch = Scratch::new(g, pool);
    loop {
        iterations += 1;
        let sink_mass: f64 =
            data.iter().filter(|d| d.out_deg == 0).map(|d| d.rank).sum::<f64>() / n as f64;
        for (p, d) in prev.iter_mut().zip(data.iter()) {
            *p = d.rank;
        }
        let prog = PrProgram { base, sink_mass };
        superstep(&prog, g, &all, &mut data, &mut scratch, pool, &mut log);
        let l1: f64 = data.iter().zip(&prev).map(|(d, &p)| (d.rank - p).abs()).sum();
        // Gather over in-edges with every vertex active: a pull round.
        let stop = log.iteration(pool, iterations, n as u64, Dir::Pull);
        if stop.is_break()
            || stopping.is_converged(l1, scratch.changed.len() as u64)
            || iterations >= params.max_iterations
        {
            break;
        }
    }
    log.counters.bytes_read = log.counters.edges_traversed * 16;
    let ranks = data.iter().map(|d| d.rank).collect();
    log.finish(AlgorithmResult::Ranks { ranks, iterations })
}

// --------------------------------------------------------------- CDLP ----

struct CdlpProgram;

impl VertexProgram for CdlpProgram {
    type Data = u64;
    type Gather = LabelBag;
    fn gather_dir(&self) -> EdgeDir {
        EdgeDir::Both
    }
    fn gather(&self, _v: VertexId, other: &u64, _w: Weight) -> LabelBag {
        LabelBag::one(*other)
    }
    fn merge(&self, a: LabelBag, b: LabelBag) -> LabelBag {
        a.merge(b)
    }
    fn apply(&self, _v: VertexId, data: &mut u64, acc: Option<LabelBag>) -> bool {
        acc.map(LabelBag::mode).is_some_and(|l| std::mem::replace(data, l) != l)
    }
    fn scatter_dir(&self) -> EdgeDir {
        EdgeDir::None
    }
}

/// CDLP: fixed-round synchronous label propagation (Graphalytics
/// semantics, both edge directions).
pub fn cdlp(g: &PartitionedGraph, params: &RunParams<'_>, iterations: u32) -> RunOutput {
    let (pool, rec) = (params.pool, params.recorder);
    let n = g.num_vertices;
    let mut labels: Vec<u64> = (0..n as u64).collect();
    let all: Vec<VertexId> = (0..n as VertexId).collect();
    let mut log = RunLog::new(rec);
    rec.alloc_hwm("powergraph.cdlp.labels", n as u64 * 8);
    let mut scratch = Scratch::new(g, pool);
    for round in 0..iterations {
        superstep(&CdlpProgram, g, &all, &mut labels, &mut scratch, pool, &mut log);
        if log.iteration(pool, round + 1, n as u64, Dir::Push).is_break() {
            break;
        }
    }
    log.counters.bytes_read = log.counters.edges_traversed * 16;
    log.finish(AlgorithmResult::Labels(labels))
}

// ---------------------------------------------------------------- WCC ----

struct WccProgram;

impl VertexProgram for WccProgram {
    type Data = u64;
    type Gather = u64;
    fn gather_dir(&self) -> EdgeDir {
        EdgeDir::Both
    }
    fn gather(&self, _v: VertexId, other: &u64, _w: Weight) -> u64 {
        *other
    }
    fn merge(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }
    fn apply(&self, _v: VertexId, data: &mut u64, acc: Option<u64>) -> bool {
        match acc {
            Some(a) if a < *data => {
                *data = a;
                true
            }
            _ => false,
        }
    }
    fn scatter_dir(&self) -> EdgeDir {
        EdgeDir::Both
    }
}

/// WCC: min-label GAS until fixpoint.
pub fn wcc(g: &PartitionedGraph, params: &RunParams<'_>) -> RunOutput {
    let (pool, rec) = (params.pool, params.recorder);
    let n = g.num_vertices;
    let mut comp: Vec<u64> = (0..n as u64).collect();
    let mut active: Vec<VertexId> = (0..n as VertexId).collect();
    let mut log = RunLog::new(rec);
    let mut round = 0u32;
    rec.alloc_hwm("powergraph.wcc.comp", n as u64 * 8);
    let mut scratch = Scratch::new(g, pool);
    while !active.is_empty() {
        round += 1;
        superstep(&WccProgram, g, &active, &mut comp, &mut scratch, pool, &mut log);
        if log.iteration(pool, round, active.len() as u64, Dir::Push).is_break() {
            break;
        }
        std::mem::swap(&mut active, &mut scratch.next);
    }
    log.counters.bytes_read = log.counters.edges_traversed * 16;
    log.finish(AlgorithmResult::Components(comp.into_iter().map(|c| c as VertexId).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::CDLP_ROUNDS;
    use epg_graph::{oracle, Csr, EdgeList};
    use epg_parallel::ThreadPool;

    fn graph(seed: u64) -> EdgeList {
        epg_generator::uniform::generate(150, 1000, true, seed).symmetrized().deduplicated()
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let el = graph(1);
        let pool = ThreadPool::new(3);
        let g = PartitionedGraph::build(&el, 4, &pool);
        let out = sssp(&g, &RunParams::new(&pool, Some(2)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        let want = oracle::dijkstra(&Csr::from_edge_list(&el), 2);
        for v in 0..want.len() {
            assert_eq!(d[v].to_bits(), want[v].to_bits(), "vertex {v}");
        }
    }

    #[test]
    fn pagerank_matches_oracle() {
        let el = graph(2);
        let pool = ThreadPool::new(2);
        let g = PartitionedGraph::build(&el, 4, &pool);
        let out = pagerank(&g, &RunParams::new(&pool, None));
        let AlgorithmResult::Ranks { ranks, iterations } = out.result else { panic!() };
        assert!(iterations > 1);
        let (want, _) = oracle::pagerank(&Csr::from_edge_list(&el), 6e-8, 300);
        for v in 0..want.len() {
            assert!((ranks[v] - want[v]).abs() < 1e-5, "vertex {v}");
        }
    }

    #[test]
    fn toolkit_results_are_bit_identical_across_thread_counts() {
        // Whichever worker gathers a partition, merges a master or marks an
        // activation, no schedule may reach a float sum, a min, a label
        // vote, the next active set or the work booked for it. `{:?}`
        // prints every f64 exactly, so equal strings are equal bits. On the
        // dense dota-league stand-in, CDLP's first rounds are nearly all ties.
        let cfg = epg_generator::kronecker::KroneckerConfig { scale: 9, ..Default::default() };
        let kron = epg_generator::kronecker::generate(&cfg, 5).symmetrized().deduplicated();
        let cfg = epg_generator::dota_league::DotaLeagueConfig {
            num_vertices: 300,
            avg_degree: 40,
            ..Default::default()
        };
        let dota = epg_generator::dota_league::generate(&cfg, 5);
        for (el, p) in [&kron, &dota].into_iter().flat_map(|el| [1, 8, 64].map(|p| (el, p))) {
            let root = epg_graph::degree::sample_roots(el, 1, 2)[0];
            let g = PartitionedGraph::build(el, p, &ThreadPool::new(2));
            let run = |threads: usize| {
                let pool = ThreadPool::new(threads);
                let (params, rooted) =
                    (RunParams::new(&pool, None), RunParams::new(&pool, Some(root)));
                let outs = [
                    pagerank(&g, &params),
                    sssp(&g, &rooted),
                    wcc(&g, &params),
                    cdlp(&g, &params, CDLP_ROUNDS),
                ];
                outs.map(|out| format!("{:?}", (out.result, out.counters, out.trace)))
            };
            let want = run(1);
            for threads in [1, 2, 3, 1, 2, 3] {
                assert_eq!(run(threads), want, "{p} partitions, {threads} threads");
            }
        }
    }

    #[test]
    fn toolkits_run_on_edgeless_and_empty_graphs() {
        let pool = ThreadPool::new(2);
        for n in [0usize, 4] {
            let g = PartitionedGraph::build(&EdgeList::new(n, Vec::new()), 4, &pool);
            let params = RunParams::new(&pool, None);
            let AlgorithmResult::Ranks { ranks, .. } = pagerank(&g, &params).result else {
                panic!()
            };
            assert_eq!(ranks.len(), n);
            let AlgorithmResult::Components(c) = wcc(&g, &params).result else { panic!() };
            assert_eq!(c, (0..n as VertexId).collect::<Vec<_>>());
            let AlgorithmResult::Labels(l) = cdlp(&g, &params, 3).result else { panic!() };
            assert_eq!(l, (0..n as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn cdlp_matches_oracle() {
        let el = graph(3);
        let pool = ThreadPool::new(2);
        let g = PartitionedGraph::build(&el, 4, &pool);
        let out = cdlp(&g, &RunParams::new(&pool, None), CDLP_ROUNDS);
        let AlgorithmResult::Labels(l) = out.result else { panic!() };
        assert_eq!(l, oracle::cdlp(&Csr::from_edge_list(&el), CDLP_ROUNDS));
    }

    #[test]
    fn wcc_matches_oracle() {
        let el = epg_generator::uniform::generate(200, 260, false, 4);
        let pool = ThreadPool::new(3);
        let g = PartitionedGraph::build(&el, 4, &pool);
        let out = wcc(&g, &RunParams::new(&pool, None));
        let AlgorithmResult::Components(c) = out.result else { panic!() };
        assert_eq!(c, oracle::wcc(&Csr::from_edge_list(&el)));
    }

    #[test]
    fn sssp_work_is_pinned_on_a_path_and_a_star() {
        // Every vertex changes once, so each of its out-edges is scanned
        // once. A step is one merge/apply region over the vertices holding
        // messages (a static chunk per thread at most) and one scatter
        // region (a chunk per partition); there is no gather region.
        let (pool, p) = (ThreadPool::new(2), 4u64);
        let run = |el: &EdgeList, root| {
            let g = PartitionedGraph::build(el, p as usize, &pool);
            let before = pool.stats();
            let out = sssp(&g, &RunParams::new(&pool, Some(root)));
            let after = pool.stats();
            let AlgorithmResult::Distances(d) = out.result else { panic!() };
            let c = out.counters;
            (
                d,
                c.edges_traversed,
                c.iterations,
                after.regions - before.regions,
                after.chunks - before.chunks,
            )
        };
        // A weighted path 0 - 1 - ... - 9 (edge i-1 - i weighs i): one
        // vertex per step, and no vertex signals back.
        let k = 10u64;
        let path = EdgeList::weighted(
            k as usize,
            (1..k as VertexId).map(|v| (v - 1, v)).collect(),
            (1..k).map(|w| w as f32).collect(),
        );
        let (d, edges, iterations, regions, chunks) = run(&path.symmetrized(), 0);
        assert_eq!(d, (0..k).map(|v| (v * (v + 1) / 2) as f32).collect::<Vec<_>>());
        assert_eq!((edges, iterations), (2 * (k - 1), k as u32));
        assert_eq!((regions, chunks), (2 * k, k * (1 + p)));
        // A star rooted at its hub: the hub scans its k out-edges and
        // signals every leaf; each leaf scans its edge back and signals
        // nothing.
        let k = 50u64;
        let star = EdgeList::weighted(
            k as usize + 1,
            (1..=k as VertexId).map(|v| (0, v)).collect(),
            (1..=k).map(|w| w as f32).collect(),
        );
        let (d, edges, iterations, regions, chunks) = run(&star.symmetrized(), 0);
        assert_eq!(d, (0..=k).map(|v| v as f32).collect::<Vec<_>>());
        assert_eq!((edges, iterations), (2 * k, 2));
        assert_eq!((regions, chunks), (4, (1 + p) + (2 + p)));
    }

    #[test]
    fn sssp_from_isolated_root_terminates() {
        let el = EdgeList::weighted(3, vec![(1, 2)], vec![1.0]);
        let pool = ThreadPool::new(1);
        let g = PartitionedGraph::build(&el, 2, &pool);
        let out = sssp(&g, &RunParams::new(&pool, Some(0)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        assert_eq!(d[0], 0.0);
        assert!(d[1].is_infinite() && d[2].is_infinite());
    }
}
