//! The standard algorithms written as GraphMat vertex programs.

use crate::program::GraphProgram;
use crate::spmv::{run_iteration, Scratch, SpmvStats};
use epg_engine_api::StoppingCriterion;
use epg_engine_api::{AlgorithmResult, Convergence, Dir, RunLog, RunOutput, RunParams};
use epg_graph::{Dcsc, VertexId, Weight, INF_DIST, NO_VERTEX};
use epg_parallel::{DisjointWriter, PerWorker, Schedule};

/// Books one SpMSpV iteration: its work, its two regions, one iteration.
fn charge(log: &mut RunLog<'_>, stats: &SpmvStats) {
    log.counters.edges_traversed += stats.edges;
    log.counters.vertices_touched += stats.touched;
    log.counters.iterations += 1;
    log.parallel(stats.edges.max(1), stats.max_column.max(1), stats.edges * 12);
    // The serial portion of GraphMat's backend as the machine model sees
    // it: sparse-vector bookkeeping in proportion to the destinations
    // touched — the constant overhead the paper attributes to "the sparse
    // matrix operations" on small inputs.
    log.serial(stats.touched.max(1), stats.touched * 16);
}

/// Allocates a run's [`Scratch`] — its dense accumulator is one REDUCE
/// slot per vertex, which [`run_iteration`] fills and empties every
/// iteration — and reports the accumulator together with the vertex values
/// as the run's allocation high-water mark.
fn scratch<P: GraphProgram>(params: &RunParams<'_>, label: &str, n: usize) -> Scratch<P> {
    let per_vertex = size_of::<P::VertexValue>() + size_of::<Option<P::Accum>>();
    params.recorder.alloc_hwm(label, (n * per_vertex) as u64);
    Scratch::new(n, params.pool)
}

// ---------------------------------------------------------------- BFS ----

#[derive(Clone, Copy)]
struct BfsValue {
    parent: VertexId,
    level: u32,
}

struct BfsProgram {
    depth: u32,
}

impl GraphProgram for BfsProgram {
    type VertexValue = BfsValue;
    type Message = VertexId;
    type Accum = VertexId;
    fn send(&self, v: VertexId, _value: &BfsValue) -> VertexId {
        v
    }
    fn process(&self, msg: &VertexId, _w: Weight, _dst: VertexId) -> VertexId {
        *msg
    }
    fn reduce(&self, a: VertexId, b: VertexId) -> VertexId {
        a.min(b) // deterministic parent choice
    }
    fn apply(&self, acc: VertexId, _v: VertexId, value: &mut BfsValue) -> bool {
        if value.level == u32::MAX {
            value.level = self.depth;
            value.parent = acc;
            true
        } else {
            false
        }
    }
}

/// BFS as iterated sparse matrix-vector products.
pub fn bfs(a: &Dcsc, n: usize, params: &RunParams<'_>) -> RunOutput {
    let (pool, rec) = (params.pool, params.recorder);
    let root = params.root.expect("BFS needs a root");
    let mut values = vec![BfsValue { parent: NO_VERTEX, level: u32::MAX }; n];
    values[root as usize].level = 0;
    let mut active = vec![root];
    let mut log = RunLog::new(rec);
    let mut depth = 0;
    let mut scratch = scratch::<BfsProgram>(params, "graphmat.bfs.values+accum", n);
    while !active.is_empty() {
        depth += 1;
        let prog = BfsProgram { depth };
        let stats = run_iteration(&prog, &[a], &active, &mut values, &mut scratch, pool);
        charge(&mut log, &stats);
        // SpMSpV pushes along out-edge columns of the active set.
        if log.iteration(pool, depth, active.len() as u64, Dir::Push).is_break() {
            break;
        }
        std::mem::swap(&mut active, &mut scratch.next);
    }
    log.counters.bytes_read = log.counters.edges_traversed * 12;
    log.counters.bytes_written = log.counters.vertices_touched * 8;
    log.finish(AlgorithmResult::BfsTree {
        parent: values.iter().map(|v| v.parent).collect(),
        level: values.iter().map(|v| v.level).collect(),
    })
}

// --------------------------------------------------------------- SSSP ----

struct SsspProgram;

impl GraphProgram for SsspProgram {
    type VertexValue = Weight;
    type Message = Weight;
    type Accum = Weight;
    fn send(&self, _v: VertexId, value: &Weight) -> Weight {
        *value
    }
    fn process(&self, msg: &Weight, w: Weight, _dst: VertexId) -> Weight {
        msg + w
    }
    fn reduce(&self, a: Weight, b: Weight) -> Weight {
        a.min(b)
    }
    fn apply(&self, acc: Weight, _v: VertexId, value: &mut Weight) -> bool {
        if acc < *value {
            *value = acc;
            true
        } else {
            false
        }
    }
}

/// SSSP as iterated min-plus SpMSpV (Bellman-Ford over the semiring).
pub fn sssp(a: &Dcsc, n: usize, params: &RunParams<'_>) -> RunOutput {
    let (pool, rec) = (params.pool, params.recorder);
    let root = params.root.expect("SSSP needs a root");
    let mut dist = vec![INF_DIST; n];
    dist[root as usize] = 0.0;
    let mut active = vec![root];
    let mut log = RunLog::new(rec);
    let mut round = 0u32;
    let mut scratch = scratch::<SsspProgram>(params, "graphmat.sssp.dist+accum", n);
    while !active.is_empty() {
        round += 1;
        let stats = run_iteration(&SsspProgram, &[a], &active, &mut dist, &mut scratch, pool);
        charge(&mut log, &stats);
        if log.iteration(pool, round, active.len() as u64, Dir::Push).is_break() {
            break;
        }
        std::mem::swap(&mut active, &mut scratch.next);
    }
    log.counters.bytes_read = log.counters.edges_traversed * 12;
    log.counters.bytes_written = log.counters.vertices_touched * 4;
    log.finish(AlgorithmResult::Distances(dist))
}

// ----------------------------------------------------------- PageRank ----

const DAMPING: f64 = 0.85;

/// PageRank as dense SpMV over the pull matrix. GraphMat's native stopping
/// criterion is "no vertex's rank changes" (§IV-A); pass an explicit
/// criterion through [`RunParams::stopping`] to homogenize.
///
/// The first pass counts out-degrees — the "run algorithm 1 (count degree)"
/// phase in the paper's GraphMat log excerpt.
pub fn pagerank(a: &Dcsc, at: &Dcsc, n: usize, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let rec = params.recorder;
    // GraphMat's native criterion is NoChange (∞-norm at f32 granularity).
    let stopping = params.stopping.unwrap_or(StoppingCriterion::NoChange);
    let mut log = RunLog::new(rec);
    if n == 0 {
        return log.finish(AlgorithmResult::Ranks { ranks: Vec::new(), iterations: 0 });
    }
    rec.alloc_hwm("graphmat.pr.rank+next+contrib", n as u64 * 24);

    // Algorithm 1: count degree (an SpMV over columns of A).
    let mut out_deg = vec![0u32; n];
    for (i, &c) in a.col_ids.iter().enumerate() {
        out_deg[c as usize] = (a.col_ptr[i + 1] - a.col_ptr[i]) as u32;
    }
    log.serial(a.num_nonempty_cols() as u64, a.num_nonempty_cols() as u64 * 8);

    // Algorithm 2: compute PageRank.
    let base = (1.0 - DAMPING) / n as f64;
    let m = a.nnz() as u64;
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut contrib = vec![0.0f64; n];
    let max_col =
        (0..at.num_nonempty_cols()).map(|i| at.col_ptr[i + 1] - at.col_ptr[i]).max().unwrap_or(0)
            as u64;
    let (mut sinks, mut convergence) =
        (PerWorker::new(pool.num_threads(), || None), Convergence::new(pool));
    let sched = Schedule::Static { chunk: None };
    let mut iterations = 0u32;
    loop {
        iterations += 1;
        let sink =
            |lo, hi| (lo..hi).fold(0.0, |acc, v| acc + if out_deg[v] == 0 { rank[v] } else { 0.0 });
        let sink_mass = sinks.reduce_ranges(pool, n, sched, || 0.0, sink, |a, b| a + b) / n as f64;
        {
            let w = DisjointWriter::new(&mut contrib);
            let (rank_ref, deg_ref) = (&rank, &out_deg);
            // SAFETY: parallel_for hands each index v to exactly one worker.
            pool.parallel_for(n, sched, |v| unsafe {
                w.write(v, if deg_ref[v] > 0 { rank_ref[v] / deg_ref[v] as f64 } else { 0.0 });
            });
        }
        let fill = base + DAMPING * sink_mass;
        {
            let w = DisjointWriter::new(&mut next);
            // SAFETY: parallel_for hands each index v to exactly one worker.
            pool.parallel_for(n, sched, |v| unsafe {
                w.write(v, fill);
            });
        }
        {
            // Dense SpMV over the materialized in-edge columns; each column
            // id is unique, so writes are disjoint.
            let w = DisjointWriter::new(&mut next);
            let contrib_ref = &contrib;
            pool.parallel_for_ranges(
                at.num_nonempty_cols(),
                Schedule::Guided { min_chunk: 16 },
                |_tid, lo, hi| {
                    for ci in lo..hi {
                        let sum: f64 =
                            at.col_entries(ci).map(|(u, _)| contrib_ref[u as usize]).sum();
                        // SAFETY: one write per distinct column id.
                        unsafe {
                            w.write(at.col_ids[ci] as usize, fill + DAMPING * sum);
                        }
                    }
                },
            );
        }
        let (l1, changed) = convergence.measure(pool, sched, &rank, &next);
        std::mem::swap(&mut rank, &mut next);
        log.counters.edges_traversed += m;
        log.counters.vertices_touched += n as u64;
        log.parallel(m.max(1), max_col.max(1), m * 12 + n as u64 * 24);
        log.parallel(n as u64, 1, n as u64 * 16);
        // Dense SpMV over the pull matrix: every vertex is active.
        let stop = log.iteration(pool, iterations, n as u64, Dir::Pull);
        if stop.is_break()
            || stopping.is_converged(l1, changed)
            || iterations >= params.max_iterations
        {
            break;
        }
    }
    log.counters.iterations = iterations;
    log.counters.bytes_read = log.counters.edges_traversed * 12;
    log.counters.bytes_written = log.counters.vertices_touched * 8;
    log.finish(AlgorithmResult::Ranks { ranks: rank, iterations })
}

// --------------------------------------------------------------- CDLP ----

struct CdlpProgram;

impl GraphProgram for CdlpProgram {
    type VertexValue = u64;
    type Message = u64;
    type Accum = Vec<u64>;
    fn send(&self, _v: VertexId, value: &u64) -> u64 {
        *value
    }
    fn process(&self, msg: &u64, _w: Weight, _dst: VertexId) -> Vec<u64> {
        vec![*msg]
    }
    fn reduce(&self, mut a: Vec<u64>, mut b: Vec<u64>) -> Vec<u64> {
        a.append(&mut b);
        a
    }
    fn apply(&self, acc: Vec<u64>, _v: VertexId, value: &mut u64) -> bool {
        // Most frequent label; ties broken toward the smallest label.
        let mut freq: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for l in acc {
            *freq.entry(l).or_insert(0) += 1;
        }
        if let Some((&l, _)) = freq.iter().max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0))) {
            *value = l;
        }
        true
    }
}

/// CDLP: synchronous label propagation over both edge orientations for a
/// fixed number of rounds (Graphalytics semantics).
pub fn cdlp(a: &Dcsc, at: &Dcsc, n: usize, params: &RunParams<'_>, iterations: u32) -> RunOutput {
    let pool = params.pool;
    let mut labels: Vec<u64> = (0..n as u64).collect();
    let all: Vec<VertexId> = (0..n as VertexId).collect();
    let mut scratch = scratch::<CdlpProgram>(params, "graphmat.cdlp.labels+accum", n);
    let mut log = RunLog::new(params.recorder);
    for round in 0..iterations {
        let stats = run_iteration(&CdlpProgram, &[a, at], &all, &mut labels, &mut scratch, pool);
        charge(&mut log, &stats);
        if log.iteration(pool, round + 1, n as u64, Dir::Push).is_break() {
            break;
        }
    }
    log.counters.bytes_read = log.counters.edges_traversed * 16;
    log.counters.bytes_written = log.counters.vertices_touched * 8;
    log.finish(AlgorithmResult::Labels(labels))
}

// ---------------------------------------------------------------- WCC ----

struct WccProgram;

impl GraphProgram for WccProgram {
    type VertexValue = u64;
    type Message = u64;
    type Accum = u64;
    fn send(&self, _v: VertexId, value: &u64) -> u64 {
        *value
    }
    fn process(&self, msg: &u64, _w: Weight, _dst: VertexId) -> u64 {
        *msg
    }
    fn reduce(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }
    fn apply(&self, acc: u64, _v: VertexId, value: &mut u64) -> bool {
        if acc < *value {
            *value = acc;
            true
        } else {
            false
        }
    }
}

/// WCC: min-label propagation over both orientations until fixpoint.
pub fn wcc(a: &Dcsc, at: &Dcsc, n: usize, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let mut comp: Vec<u64> = (0..n as u64).collect();
    let mut active: Vec<VertexId> = (0..n as VertexId).collect();
    let mut scratch = scratch::<WccProgram>(params, "graphmat.wcc.comp+accum", n);
    let mut log = RunLog::new(params.recorder);
    let mut round = 0u32;
    while !active.is_empty() {
        round += 1;
        let stats = run_iteration(&WccProgram, &[a, at], &active, &mut comp, &mut scratch, pool);
        charge(&mut log, &stats);
        if log.iteration(pool, round, active.len() as u64, Dir::Push).is_break() {
            break;
        }
        std::mem::swap(&mut active, &mut scratch.next);
    }
    log.counters.bytes_read = log.counters.edges_traversed * 16;
    log.counters.bytes_written = log.counters.vertices_touched * 8;
    log.finish(AlgorithmResult::Components(comp.into_iter().map(|c| c as VertexId).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::EdgeList;
    use epg_parallel::ThreadPool;

    #[test]
    fn bfs_parent_choice_is_min_sender() {
        // Both 0 and 1 discover 2 in the same step: parent must be 0.
        let el = EdgeList::new(4, vec![(3, 0), (3, 1), (0, 2), (1, 2)]);
        let pool = ThreadPool::new(4);
        let m = Dcsc::from_edge_list(&el, &pool);
        let out = bfs(&m, 4, &RunParams::new(&pool, Some(3)));
        let AlgorithmResult::BfsTree { parent, level } = out.result else { panic!() };
        assert_eq!(level, vec![1, 1, 2, 0]);
        assert_eq!(parent[2], 0);
    }

    #[test]
    fn wcc_active_set_shrinks_monotonically_to_empty() {
        let el = EdgeList::new(6, vec![(0, 1), (1, 2), (3, 4)]);
        let pool = ThreadPool::new(2);
        let m = Dcsc::from_edge_list(&el, &pool);
        let mt = m.transpose(&pool);
        let out = wcc(&m, &mt, 6, &RunParams::new(&pool, None));
        let AlgorithmResult::Components(c) = out.result else { panic!() };
        assert_eq!(c, vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn pagerank_trace_includes_degree_pass() {
        let el = EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0)]);
        let pool = ThreadPool::new(1);
        let m = Dcsc::from_edge_list(&el, &pool);
        let mt = m.transpose(&pool);
        let out = pagerank(&m, &mt, 3, &RunParams::new(&pool, None));
        // First trace record is the serial degree-count pass.
        assert!(!out.trace.records[0].parallel);
    }

    #[test]
    fn cdlp_runs_fixed_iterations() {
        let el = EdgeList::new(4, vec![(0, 1), (1, 0), (2, 3), (3, 2)]);
        let pool = ThreadPool::new(2);
        let m = Dcsc::from_edge_list(&el, &pool);
        let mt = m.transpose(&pool);
        let out = cdlp(&m, &mt, 4, &RunParams::new(&pool, None), 7);
        assert_eq!(out.counters.iterations, 7);
    }
}
