//! The synchronous Gather-Apply-Scatter engine.
//!
//! One superstep of PowerGraph's synchronous engine over a vertex-cut
//! partitioning:
//!
//! 1. **Gather** — every partition computes, in parallel, a *partial*
//!    gather for each active vertex it hosts (only its local edges);
//! 2. **Merge** — partials travel to the master, which merges them (this is
//!    where the replication factor turns into synchronization work);
//! 3. **Apply** — masters fold the gathered value into vertex data;
//! 4. **Sync** — changed masters broadcast the new value to their mirrors
//!    (charged as memory/communication traffic in the trace);
//! 5. **Scatter** — partitions scan the local edges of changed vertices and
//!    activate neighbors.
//!
//! The step's buffers are dense: each partition emits one list of
//! `(position in the active set, partial)`, the master folds those lists
//! **in partition order** into one slot per active vertex (so a float
//! merge does not depend on which worker finished first), apply takes its
//! slot, and scatter marks activations in one bitmap over the vertices.

use crate::partition::{Partition, PartitionedGraph};
use epg_engine_api::{Partial, RunLog};
use epg_graph::{VertexId, Weight};
use epg_parallel::{DisjointWriter, Schedule, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};

/// A stored edge: (global id of the far end, weight).
type Edge = (VertexId, Weight);

/// Which incident edges a program's gather/scatter covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeDir {
    /// In-edges only.
    In,
    /// Out-edges only.
    Out,
    /// Both directions.
    Both,
    /// No edges (skip the step entirely).
    None,
}

/// A PowerGraph-style vertex program.
pub trait VertexProgram: Sync {
    /// Per-vertex state.
    type Data: Clone + Send + Sync;
    /// Gather accumulator.
    type Gather: Clone + Send + Sync;

    /// Edges covered by gather.
    fn gather_dir(&self) -> EdgeDir;
    /// Gather along one edge: `other` is the data of the neighbor on the
    /// far side, `w` the edge weight.
    fn gather(&self, v: VertexId, other: &Self::Data, w: Weight) -> Self::Gather;
    /// Merge two gather partials (associative, commutative).
    fn merge(&self, a: Self::Gather, b: Self::Gather) -> Self::Gather;
    /// Apply at the master. Returns true if the vertex value changed (which
    /// triggers mirror sync and scatter).
    fn apply(&self, v: VertexId, data: &mut Self::Data, acc: Option<Self::Gather>) -> bool;
    /// Edges covered by scatter (neighbors along them activate when the
    /// vertex changed).
    fn scatter_dir(&self) -> EdgeDir;
}

/// Result of one superstep.
pub struct StepStats {
    /// Vertices whose apply changed their value.
    pub changed: Vec<VertexId>,
    /// Edges gathered + scattered.
    pub edge_work: u64,
    /// Mirror synchronization messages sent.
    pub sync_messages: u64,
}

/// The local (in-edges, out-edges) of local vertex `l` that `dir` covers;
/// the side it does not cover comes back empty.
fn covered(part: &Partition, l: usize, dir: EdgeDir) -> (&[Edge], &[Edge]) {
    let ins: &[Edge] =
        if dir == EdgeDir::Out || dir == EdgeDir::None { &[] } else { part.in_edges(l) };
    let outs: &[Edge] =
        if dir == EdgeDir::In || dir == EdgeDir::None { &[] } else { part.out_edges(l) };
    (ins, outs)
}

/// Runs one synchronous GAS superstep over `active` (deduplicated),
/// updating `data` in place and returning the next active set (sorted,
/// deduplicated) plus step statistics. Work, sync costs and regions are
/// booked on `log`.
pub fn superstep<P: VertexProgram>(
    prog: &P,
    g: &PartitionedGraph,
    active: &[VertexId],
    data: &mut [P::Data],
    pool: &ThreadPool,
    log: &mut RunLog<'_>,
) -> (Vec<VertexId>, StepStats) {
    let nparts = g.partitions.len();
    let per_partition = Schedule::Dynamic { chunk: 1 };

    // ---- Gather (parallel over partitions) ----
    // One slot per active vertex, indexed by its position in `active`.
    let mut edge_work = 0u64;
    let mut merged: Vec<Option<P::Gather>> = vec![None; active.len()];
    let dir = prog.gather_dir();
    if dir != EdgeDir::None {
        let data_ref: &[P::Data] = data;
        let gathered = Partial::collect(pool, nparts, per_partition, |lo, hi| {
            let mut found = Vec::with_capacity(hi - lo);
            let (mut edges, mut max_degree) = (0u64, 0u64);
            for pi in lo..hi {
                let part = &g.partitions[pi];
                // This replica set's partials: (index into `active`, value).
                let mut local: Vec<(u32, P::Gather)> =
                    Vec::with_capacity(part.vertices().len().min(active.len()));
                for (ai, &v) in active.iter().enumerate() {
                    let Some(l) = g.local_id(v, pi) else { continue };
                    let (ins, outs) = covered(part, l, dir);
                    let mut acc: Option<P::Gather> = None;
                    for &(other, w) in ins.iter().chain(outs) {
                        let gval = prog.gather(v, &data_ref[other as usize], w);
                        acc = Some(match acc {
                            Some(a) => prog.merge(a, gval),
                            None => gval,
                        });
                    }
                    let vwork = (ins.len() + outs.len()) as u64;
                    edges += vwork;
                    max_degree = max_degree.max(vwork);
                    if let Some(a) = acc {
                        local.push((ai as u32, a));
                    }
                }
                found.push((pi, local));
            }
            Partial { found, edges, max_degree }
        });
        // ---- Merge at masters (the replication synchronization) ----
        // Partials arrive in worker-completion order; folding them in
        // partition order makes a float merge independent of the schedule.
        edge_work = gathered.edges;
        let mut partials = gathered.found;
        partials.sort_unstable_by_key(|&(pi, _)| pi);
        let mut nmerged = 0u64;
        for (ai, acc) in partials.into_iter().flat_map(|(_, local)| local) {
            let slot = &mut merged[ai as usize];
            *slot = Some(match slot.take() {
                Some(prev) => prog.merge(prev, acc),
                None => {
                    nmerged += 1;
                    acc
                }
            });
        }
        log.parallel(edge_work.max(1), gathered.max_degree.max(1), edge_work * 16);
        log.serial(nmerged + 1, nmerged * 16);
    }

    // ---- Apply at masters (parallel over active) ----
    let cell = DisjointWriter::new(data);
    let slots = DisjointWriter::new(&mut merged);
    let applied =
        Partial::collect(pool, active.len(), Schedule::Static { chunk: None }, |lo, hi| {
            let mut found = Vec::with_capacity(hi - lo);
            for ai in lo..hi {
                let v = active[ai];
                // SAFETY: one thread per index of `active`, which is
                // deduplicated, so `ai` and `v` are each touched once.
                let (d, acc) = unsafe { (cell.get_raw(v as usize), slots.get_raw(ai).take()) };
                if prog.apply(v, d, acc) {
                    found.push(v);
                }
            }
            Partial { found, edges: 0, max_degree: 0 }
        });
    let mut changed = applied.found;
    changed.sort_unstable();

    // ---- Sync to mirrors ----
    let sync_messages: u64 =
        changed.iter().map(|&v| g.replicas[v as usize].len().saturating_sub(1) as u64).sum();
    log.counters.bytes_written += sync_messages * 16;
    log.serial(sync_messages.max(1), sync_messages * 16);

    // ---- Scatter (parallel over partitions) ----
    let dir = prog.scatter_dir();
    let (next, scatter_work) = if dir != EdgeDir::None && !changed.is_empty() {
        // Activations from every partition land in one bitmap over the
        // vertices; reading it back yields them sorted and deduplicated.
        let activated: Vec<AtomicU64> =
            (0..g.num_vertices.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        let activate = |u: VertexId| {
            let (word, bit) = (&activated[u as usize / 64], 1u64 << (u % 64));
            // Relaxed: the bits publish nothing, and the region's join
            // orders them before the read-back. Hubs are signalled many
            // times over; the load spares them the repeated RMW.
            if word.load(Ordering::Relaxed) & bit == 0 {
                word.fetch_or(bit, Ordering::Relaxed);
            }
        };
        let scatter = |lo: usize, hi: usize| {
            let mut edges = 0u64;
            for pi in lo..hi {
                let part = &g.partitions[pi];
                for &v in &changed {
                    let Some(l) = g.local_id(v, pi) else { continue };
                    let (ins, outs) = covered(part, l, dir);
                    edges += (outs.len() + ins.len()) as u64;
                    ins.iter().chain(outs).for_each(|&(u, _)| activate(u));
                }
            }
            edges
        };
        let work = pool.parallel_reduce_ranges(nparts, per_partition, || 0, scatter, |a, b| a + b);
        let mut next: Vec<VertexId> = Vec::new();
        for (wi, word) in activated.into_iter().enumerate() {
            let mut bits = word.into_inner();
            while bits != 0 {
                next.push((wi * 64) as VertexId + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        log.parallel(work.max(1), 1, work * 8);
        (next, work)
    } else {
        (Vec::new(), 0)
    };

    log.counters.edges_traversed += edge_work + scatter_work;
    log.counters.vertices_touched += active.len() as u64;
    log.counters.iterations += 1;

    (next, StepStats { changed, edge_work, sync_messages })
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::RecorderCtx;
    use epg_graph::EdgeList;
    use proptest::prelude::*;

    /// Min-distance program (SSSP step).
    struct MinDist;
    impl VertexProgram for MinDist {
        type Data = f32;
        type Gather = f32;
        fn gather_dir(&self) -> EdgeDir {
            EdgeDir::In
        }
        fn gather(&self, _v: VertexId, other: &f32, w: Weight) -> f32 {
            other + w
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
    }

    /// Min-label program over both directions (WCC step).
    struct MinLabel;
    impl VertexProgram for MinLabel {
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

    /// Integer sum over out-edges, activating along in-edges: the two
    /// directions the other programs leave uncovered.
    struct IntSum;
    impl VertexProgram for IntSum {
        type Data = u64;
        type Gather = u64;
        fn gather_dir(&self) -> EdgeDir {
            EdgeDir::Out
        }
        fn gather(&self, v: VertexId, other: &u64, w: Weight) -> u64 {
            other.wrapping_mul(w as u64).wrapping_add(v as u64)
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.wrapping_add(b)
        }
        fn apply(&self, _v: VertexId, data: &mut u64, acc: Option<u64>) -> bool {
            let new = acc.unwrap_or(7);
            let changed = new % 3 != *data % 3;
            *data = new;
            changed
        }
        fn scatter_dir(&self) -> EdgeDir {
            EdgeDir::In
        }
    }

    /// What a superstep returns and leaves behind.
    #[derive(Debug, PartialEq)]
    struct Outcome<D> {
        data: Vec<D>,
        next: Vec<VertexId>,
        changed: Vec<VertexId>,
        edge_work: u64,
        sync_messages: u64,
    }

    /// One GAS superstep straight off the edge list — no partitions, no
    /// threads; only the sync count needs the replica table. Valid for
    /// programs whose merge is exactly associative and commutative.
    fn reference_step<P: VertexProgram>(
        prog: &P,
        el: &EdgeList,
        replicas: &[Vec<u16>],
        active: &[VertexId],
        data: &[P::Data],
    ) -> Outcome<P::Data> {
        let covers = |dir: EdgeDir, side: EdgeDir| dir == side || dir == EdgeDir::Both;
        let mut is_active = vec![false; el.num_vertices];
        active.iter().for_each(|&v| is_active[v as usize] = true);
        let mut acc: Vec<Option<P::Gather>> = vec![None; el.num_vertices];
        let mut edge_work = 0;
        let mut gather = |v: VertexId, other: VertexId, w: Weight| {
            let gval = prog.gather(v, &data[other as usize], w);
            let slot = &mut acc[v as usize];
            *slot = Some(match slot.take() {
                Some(a) => prog.merge(a, gval),
                None => gval,
            });
            edge_work += 1;
        };
        for (u, v, w) in el.iter() {
            if covers(prog.gather_dir(), EdgeDir::In) && is_active[v as usize] {
                gather(v, u, w);
            }
            if covers(prog.gather_dir(), EdgeDir::Out) && is_active[u as usize] {
                gather(u, v, w);
            }
        }
        let mut data = data.to_vec();
        let mut is_changed = vec![false; el.num_vertices];
        for &v in active {
            is_changed[v as usize] = prog.apply(v, &mut data[v as usize], acc[v as usize].take());
        }
        let changed: Vec<VertexId> =
            (0..el.num_vertices as VertexId).filter(|&v| is_changed[v as usize]).collect();
        let sync_messages =
            changed.iter().map(|&v| replicas[v as usize].len().saturating_sub(1) as u64).sum();
        let mut next = Vec::new();
        for &(u, v) in &el.edges {
            if covers(prog.scatter_dir(), EdgeDir::Out) && is_changed[u as usize] {
                next.push(v);
            }
            if covers(prog.scatter_dir(), EdgeDir::In) && is_changed[v as usize] {
                next.push(u);
            }
        }
        next.sort_unstable();
        next.dedup();
        Outcome { data, next, changed, edge_work, sync_messages }
    }

    fn engine_step<P: VertexProgram>(
        prog: &P,
        g: &PartitionedGraph,
        active: &[VertexId],
        data: &[P::Data],
        pool: &ThreadPool,
    ) -> Outcome<P::Data> {
        let mut data = data.to_vec();
        let mut log = RunLog::new(RecorderCtx::none());
        let (next, stats) = superstep(prog, g, active, &mut data, pool, &mut log);
        let StepStats { changed, edge_work, sync_messages } = stats;
        Outcome { data, next, changed, edge_work, sync_messages }
    }

    /// A small weighted multigraph (self-loops and parallel edges
    /// included; integer weights, so sums are exact) plus two bytes of
    /// randomness per vertex: its initial value and whether it is active.
    fn arb_case() -> impl Strategy<Value = (EdgeList, Vec<(u8, bool)>)> {
        (1usize..=40).prop_flat_map(|n| {
            let edge = ((0..n as VertexId, 0..n as VertexId), 1u8..10);
            let edges = proptest::collection::vec(edge, 0..200).prop_map(move |ews| {
                let (edges, weights): (Vec<_>, Vec<_>) =
                    ews.into_iter().map(|(e, w)| (e, w as f32)).unzip();
                EdgeList::weighted(n, edges, weights)
            });
            (edges, proptest::collection::vec((0u8..=255, 0u8..2), n..=n))
                .prop_map(|(el, per)| (el, per.into_iter().map(|(x, a)| (x, a == 1)).collect()))
        })
    }

    proptest! {
        #[test]
        fn superstep_matches_a_partition_free_sequential_step((el, per) in arb_case()) {
            let pool = ThreadPool::new(3);
            let n = el.num_vertices as VertexId;
            let sparse: Vec<VertexId> = (0..n).filter(|&v| per[v as usize].1).collect();
            let all: Vec<VertexId> = (0..n).collect();
            // A third of the distances start unreached.
            let dist: Vec<f32> =
                per.iter().map(|&(x, _)| if x % 3 == 0 { f32::INFINITY } else { x as f32 }).collect();
            let labels: Vec<u64> = per.iter().map(|&(x, _)| x as u64 % 16).collect();
            for p in [1, 3, 8, 64] {
                let g = PartitionedGraph::build(&el, p);
                for active in [&sparse, &all] {
                    prop_assert_eq!(
                        engine_step(&MinDist, &g, active, &dist, &pool),
                        reference_step(&MinDist, &el, &g.replicas, active, &dist)
                    );
                    prop_assert_eq!(
                        engine_step(&MinLabel, &g, active, &labels, &pool),
                        reference_step(&MinLabel, &el, &g.replicas, active, &labels)
                    );
                    prop_assert_eq!(
                        engine_step(&IntSum, &g, active, &labels, &pool),
                        reference_step(&IntSum, &el, &g.replicas, active, &labels)
                    );
                }
            }
        }
    }

    #[test]
    fn superstep_relaxes_and_activates() {
        let el = EdgeList::weighted(4, vec![(0, 1), (1, 2), (0, 3)], vec![1.0, 1.0, 5.0]);
        let g = PartitionedGraph::build(&el, 2);
        let pool = ThreadPool::new(2);
        let mut dist = vec![0.0f32, f32::INFINITY, f32::INFINITY, f32::INFINITY];
        let mut log = RunLog::new(RecorderCtx::none());
        // Activate 1 and 3 (the root's out-neighbors, as a scatter would).
        let (next, stats) = superstep(&MinDist, &g, &[1, 3], &mut dist, &pool, &mut log);
        assert_eq!(dist[1], 1.0);
        assert_eq!(dist[3], 5.0);
        assert_eq!(stats.changed, vec![1, 3]);
        // 1 changed -> activates its out-neighbor 2.
        assert_eq!(next, vec![2]);
        assert!(log.counters.edges_traversed > 0);
    }

    #[test]
    fn fixpoint_reaches_shortest_paths() {
        let el = epg_generator::uniform::generate(120, 900, true, 7).symmetrized().deduplicated();
        let g = PartitionedGraph::build(&el, 4);
        let pool = ThreadPool::new(3);
        let n = el.num_vertices;
        let mut dist = vec![f32::INFINITY; n];
        dist[0] = 0.0;
        let mut log = RunLog::new(RecorderCtx::none());
        // Seed with the root's out-neighbors: applying at the root itself
        // changes nothing (no gather can improve distance 0), so the engine
        // signals its neighbors first.
        let mut active = g.out_neighbors(0);
        let mut rounds = 0;
        while !active.is_empty() && rounds < 10_000 {
            rounds += 1;
            let (next, _) = superstep(&MinDist, &g, &active, &mut dist, &pool, &mut log);
            active = next;
        }
        let csr = epg_graph::Csr::from_edge_list(&el);
        let want = epg_graph::oracle::dijkstra(&csr, 0);
        for v in 0..n {
            if want[v].is_infinite() {
                assert!(dist[v].is_infinite());
            } else {
                assert!((dist[v] - want[v]).abs() < 1e-3, "vertex {v}");
            }
        }
    }

    #[test]
    fn sync_messages_track_mirrors_of_changed() {
        let edges: Vec<_> = (1..64u32).map(|v| (0, v)).collect();
        let el = EdgeList::new(64, edges).symmetrized();
        let g = PartitionedGraph::build(&el, 8);
        let pool = ThreadPool::new(2);
        let mut dist = vec![f32::INFINITY; 64];
        dist[1] = 0.0;
        let mut log = RunLog::new(RecorderCtx::none());
        // Hub 0 gathers from vertex 1 and changes; it has many mirrors.
        let (_, stats) = superstep(&MinDist, &g, &[0], &mut dist, &pool, &mut log);
        assert_eq!(stats.changed, vec![0]);
        assert_eq!(
            stats.sync_messages,
            g.replicas[0].len() as u64 - 1,
            "hub sync must touch every mirror"
        );
    }
}
