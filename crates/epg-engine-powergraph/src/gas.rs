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

use crate::partition::PartitionedGraph;
use epg_engine_api::{Partial, RunLog};
use epg_graph::{VertexId, Weight};
use epg_parallel::{DisjointWriter, Schedule, ThreadPool};
use std::collections::HashMap;

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

/// Runs one synchronous GAS superstep over `active`, updating `data` in
/// place and returning the next active set (sorted, deduplicated) plus
/// step statistics. Work, sync costs and regions are booked on `log`.
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
    let mut edge_work = 0u64;
    let mut merged: HashMap<VertexId, P::Gather> = HashMap::new();
    if prog.gather_dir() != EdgeDir::None {
        let data_ref: &[P::Data] = data;
        let gathered = Partial::collect(pool, nparts, per_partition, |lo, hi| {
            let mut found = Vec::with_capacity(hi - lo);
            let (mut edges, mut max_degree) = (0u64, 0u64);
            for pi in lo..hi {
                let part = &g.partitions[pi];
                let mut local: HashMap<VertexId, P::Gather> = HashMap::new();
                for &v in active {
                    if !g.replicas[v as usize].contains(&(pi as u16)) {
                        continue;
                    }
                    let mut acc: Option<P::Gather> = None;
                    let mut vwork = 0u64;
                    let dir = prog.gather_dir();
                    if dir == EdgeDir::In || dir == EdgeDir::Both {
                        if let Some(ins) = part.in_edges.get(&v) {
                            for &(src, w) in ins {
                                vwork += 1;
                                let gval = prog.gather(v, &data_ref[src as usize], w);
                                acc = Some(match acc {
                                    Some(a) => prog.merge(a, gval),
                                    None => gval,
                                });
                            }
                        }
                    }
                    if dir == EdgeDir::Out || dir == EdgeDir::Both {
                        if let Some(outs) = part.out_edges.get(&v) {
                            for &(dst, w) in outs {
                                vwork += 1;
                                let gval = prog.gather(v, &data_ref[dst as usize], w);
                                acc = Some(match acc {
                                    Some(a) => prog.merge(a, gval),
                                    None => gval,
                                });
                            }
                        }
                    }
                    edges += vwork;
                    max_degree = max_degree.max(vwork);
                    if let Some(a) = acc {
                        local.insert(v, a);
                    }
                }
                found.push(local);
            }
            Partial { found, edges, max_degree }
        });
        // ---- Merge at masters (the replication synchronization) ----
        edge_work = gathered.edges;
        for (v, acc) in gathered.found.into_iter().flatten() {
            let acc = match merged.remove(&v) {
                Some(prev) => prog.merge(prev, acc),
                None => acc,
            };
            merged.insert(v, acc);
        }
        log.parallel(edge_work.max(1), gathered.max_degree.max(1), edge_work * 16);
        log.serial(merged.len() as u64 + 1, merged.len() as u64 * 16);
    }

    // ---- Apply at masters (parallel over active) ----
    let cell = DisjointWriter::new(data);
    let applied =
        Partial::collect(pool, active.len(), Schedule::Static { chunk: None }, |lo, hi| {
            let mut found = Vec::with_capacity(hi - lo);
            for &v in &active[lo..hi] {
                // SAFETY: `active` is deduplicated, one thread per index.
                let d = unsafe { cell.get_raw(v as usize) };
                if prog.apply(v, d, merged.get(&v).cloned()) {
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
    let mut next: Vec<VertexId> = Vec::new();
    let mut scatter_work = 0u64;
    if prog.scatter_dir() != EdgeDir::None && !changed.is_empty() {
        let scattered = Partial::collect(pool, nparts, per_partition, |lo, hi| {
            let mut found: Vec<VertexId> = Vec::with_capacity(changed.len());
            let mut edges = 0u64;
            let dir = prog.scatter_dir();
            for part in &g.partitions[lo..hi] {
                for &v in &changed {
                    if dir == EdgeDir::Out || dir == EdgeDir::Both {
                        if let Some(outs) = part.out_edges.get(&v) {
                            edges += outs.len() as u64;
                            found.extend(outs.iter().map(|&(d, _)| d));
                        }
                    }
                    if dir == EdgeDir::In || dir == EdgeDir::Both {
                        if let Some(ins) = part.in_edges.get(&v) {
                            edges += ins.len() as u64;
                            found.extend(ins.iter().map(|&(s, _)| s));
                        }
                    }
                }
            }
            Partial { found, edges, max_degree: 0 }
        });
        scatter_work = scattered.edges;
        next = scattered.found;
        next.sort_unstable();
        next.dedup();
        log.parallel(scatter_work.max(1), 1, scatter_work * 8);
    }

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
        let mut active: Vec<VertexId> = g
            .partitions
            .iter()
            .flat_map(|p| p.out_edges.get(&0).into_iter().flatten().map(|&(d, _)| d))
            .collect();
        active.sort_unstable();
        active.dedup();
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
