//! The synchronous Gather-Apply-Scatter engine.
//!
//! One superstep of PowerGraph's synchronous engine over a vertex-cut
//! partitioning:
//!
//! 1. **Gather** — every partition computes, in parallel, a *partial*
//!    gather for each active vertex it hosts (only its local edges). A
//!    program that signals with messages does not gather: the messages the
//!    previous step's scatter left in the vertex's replica slots take the
//!    partials' place;
//! 2. **Merge** — each master folds its replicas' partials or messages (this
//!    is where the replication factor turns into synchronization work);
//! 3. **Apply** — the master folds the merged value into vertex data;
//! 4. **Sync** — changed masters broadcast the new value to their mirrors
//!    (charged as memory/communication traffic in the trace);
//! 5. **Scatter** — partitions scan the local edges of changed vertices and
//!    activate neighbors, or signal them: a message is merged into the
//!    neighbour's replica slot in the scanning partition, where the next
//!    step's merge finds it.
//!
//! The step's buffers are dense and live for the run ([`Scratch`]): a
//! partial or a message lands in its replica's slot, keyed like the CSR/CSC
//! ([`Partition::base`] + local id); merge and apply share one region over
//! the active set, where a master takes its slots **in partition order**
//! (so a float merge does not depend on which worker ran what); scatter
//! marks activations in the scattering worker's own bitmap over the
//! vertices, and one serial drain ORs the workers' bitmaps into the next
//! active set.

use crate::partition::{Partition, PartitionedGraph};
use epg_engine_api::RunLog;
use epg_graph::{VertexId, Weight};
use epg_parallel::{DisjointWriter, Marks, PerWorker, Schedule, ThreadPool, WorkerBitmaps};

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

/// What scatter does for one neighbour of a changed vertex.
pub enum Signal<G> {
    /// Leave the neighbour alone.
    Skip,
    /// Activate the neighbour: it gathers in the next step.
    Activate,
    /// Activate the neighbour and send it a message. A vertex's messages
    /// merge, and the merged message reaches its next apply in place of a
    /// gather, so only a program that does not gather may send one.
    Message(G),
}

/// A PowerGraph-style vertex program.
pub trait VertexProgram: Sync {
    /// Per-vertex state.
    type Data: Clone + Send + Sync;
    /// Gather accumulator, and the message type of a program that signals.
    type Gather: Clone + Send + Sync;

    /// Edges covered by gather.
    fn gather_dir(&self) -> EdgeDir;
    /// Gather along one edge: `other` is the data of the neighbor on the
    /// far side, `w` the edge weight.
    fn gather(&self, v: VertexId, other: &Self::Data, w: Weight) -> Self::Gather;
    /// Merge two gather partials or two messages (associative,
    /// commutative).
    fn merge(&self, a: Self::Gather, b: Self::Gather) -> Self::Gather;
    /// Apply at the master. Returns true if the vertex value changed (which
    /// triggers mirror sync and scatter).
    fn apply(&self, v: VertexId, data: &mut Self::Data, acc: Option<Self::Gather>) -> bool;
    /// Edges covered by scatter.
    fn scatter_dir(&self) -> EdgeDir;
    /// Scatter along one covered edge of a changed vertex: `data` is the
    /// vertex's new data, `other` the data of the neighbour on the far side,
    /// `w` the edge weight. The default activates every neighbour.
    fn scatter(&self, _data: &Self::Data, _other: &Self::Data, _w: Weight) -> Signal<Self::Gather> {
        Signal::Activate
    }
}

/// A run's superstep buffers, allocated once and handed to every
/// [`superstep`]: one slot per replica for a gather partial or the messages
/// scatter sent it, each pool worker's gather (work, max degree) partial,
/// changed list and merge count, one activation bitmap and scatter edge
/// count per pool worker, and the changed list and next active set drained
/// from them.
pub struct Scratch<G> {
    slots: Vec<Option<G>>,
    gathered: PerWorker<Option<(u64, u64)>>,
    applied: PerWorker<(Vec<VertexId>, u64)>,
    marks: WorkerBitmaps<u64>,
    /// The vertices whose apply changed their value in the last
    /// [`superstep`], ascending.
    pub changed: Vec<VertexId>,
    /// The next superstep's active set, ascending and distinct, as the last
    /// [`superstep`] left it.
    pub next: Vec<VertexId>,
}

impl<G: Clone> Scratch<G> {
    /// Empty buffers for supersteps over `g` on `pool`.
    pub fn new(g: &PartitionedGraph, pool: &ThreadPool) -> Scratch<G> {
        Scratch {
            slots: vec![None; g.num_replicas()],
            gathered: PerWorker::new(pool.num_threads(), || None),
            applied: PerWorker::new(pool.num_threads(), Default::default),
            marks: WorkerBitmaps::new(pool.num_threads(), g.num_vertices),
            changed: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Signals `v` with `msg` before a run's first superstep, as the
    /// toolkit's `engine.signal` does: the message waits in the slot of
    /// `v`'s master replica, and the caller puts `v` in the first active
    /// set. False, with nothing signalled, when `v` is isolated (no replica
    /// can hold a message).
    pub fn signal(&mut self, g: &PartitionedGraph, v: VertexId, msg: G) -> bool {
        let master = g.master[v as usize] as usize;
        let Some(l) = g.local_id(v, master) else { return false };
        self.slots[g.partitions[master].base() + l] = Some(msg);
        true
    }
}

/// Result of one superstep.
pub struct StepStats {
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

/// Runs one synchronous GAS superstep over `active` (ascending and
/// distinct; for a signalling program, the vertices holding messages),
/// updating `data` in place and leaving the vertices it changed and the
/// next active set (both ascending and distinct) in [`Scratch::changed`]
/// and [`Scratch::next`]. Work, sync costs and regions are booked on `log`.
///
/// # Panics
/// If a program that gathers sends a message.
pub fn superstep<P: VertexProgram>(
    prog: &P,
    g: &PartitionedGraph,
    active: &[VertexId],
    data: &mut [P::Data],
    scratch: &mut Scratch<P::Gather>,
    pool: &ThreadPool,
    log: &mut RunLog<'_>,
) -> StepStats {
    let nparts = g.partitions.len();
    let per_partition = Schedule::Dynamic { chunk: 1 };
    debug_assert!(active.is_sorted(), "the active set ascends");
    let Scratch { slots, gathered, applied, marks, changed, next } = scratch;
    let slots = DisjointWriter::new(slots);

    // ---- Gather (parallel over partitions) ----
    let dir = prog.gather_dir();
    let gathers = dir != EdgeDir::None;
    let (mut gather_work, mut max_degree) = (0u64, 0u64);
    if gathers {
        let data_ref: &[P::Data] = data;
        let all_active = active.len() == g.num_vertices;
        (gather_work, max_degree) = gathered.reduce_ranges(
            pool,
            nparts,
            per_partition,
            || (0, 0),
            |lo, hi| {
                let (mut edges, mut max_degree) = (0u64, 0u64);
                for pi in lo..hi {
                    let part = &g.partitions[pi];
                    let mut gather = |(l, v): (usize, VertexId)| {
                        let (ins, outs) = covered(part, l, dir);
                        let vwork = (ins.len() + outs.len()) as u64;
                        (edges, max_degree) = (edges + vwork, max_degree.max(vwork));
                        let gvals = ins.iter().chain(outs);
                        let gvals = gvals.map(|&(u, w)| prog.gather(v, &data_ref[u as usize], w));
                        let acc = gvals.reduce(|a, b| prog.merge(a, b));
                        // SAFETY: a partition's slots are its own and one
                        // worker takes the partition; `active` is
                        // deduplicated, so each local id comes up once.
                        unsafe { slots.write(part.base() + l, acc) };
                    };
                    if all_active {
                        part.vertices().iter().copied().enumerate().for_each(&mut gather);
                    } else {
                        active
                            .iter()
                            .filter_map(|&v| Some((g.local_id(v, pi)?, v)))
                            .for_each(gather);
                    }
                }
                (edges, max_degree)
            },
            |a, b| (a.0 + b.0, a.1.max(b.1)),
        );
    }

    // ---- Merge and apply at masters (parallel over active) ----
    // A master takes its replicas' partials or messages in partition order,
    // so a float merge is independent of the schedule.
    let cell = DisjointWriter::new(data);
    let sched = Schedule::Static { chunk: None };
    applied.for_ranges(pool, active.len(), sched, |(changed, nmerged), lo, hi| {
        for &v in &active[lo..hi] {
            let partials = g.replicas_of(v).filter_map(|(pi, l)| {
                // SAFETY: a replica belongs to one vertex and `active` is
                // deduplicated, so each slot is taken by one worker.
                unsafe { slots.get_raw(g.partitions[pi].base() + l) }.take()
            });
            let acc = partials.reduce(|a, b| prog.merge(a, b));
            *nmerged += acc.is_some() as u64;
            // SAFETY: one worker per vertex of the deduplicated `active`.
            if prog.apply(v, unsafe { cell.get_raw(v as usize) }, acc) {
                changed.push(v);
            }
        }
    });
    // Static blocks drained in worker order: `changed` ascends as `active` does.
    changed.clear();
    let mut nmerged = 0;
    for (mine, n) in applied.iter_mut() {
        changed.append(mine);
        nmerged += std::mem::take(n);
    }
    // Booked in step order: the gather region, then the merge as the master's serial work.
    if gathers {
        log.parallel(gather_work.max(1), max_degree.max(1), gather_work * 16);
    }
    log.serial(nmerged + 1, nmerged * 16);

    // ---- Sync to mirrors ----
    let sync_messages: u64 = changed.iter().map(|&v| g.num_mirrors_of(v)).sum();
    log.counters.bytes_written += sync_messages * 16;
    log.serial(sync_messages.max(1), sync_messages * 16);

    // ---- Scatter (parallel over partitions) ----
    // Each worker marks the neighbours it activates or signals in its own
    // bitmap over the vertices; the drain ORs them into the next active
    // set, sorted and distinct. A message merges into the neighbour's slot
    // in the scanning partition, and the next step's merge takes it.
    let dir = prog.scatter_dir();
    let mut scatter_work = 0;
    if dir != EdgeDir::None && !changed.is_empty() {
        let data: &[P::Data] = data;
        let scatter = |mine: &mut Marks<'_>, edges: &mut u64, lo: usize, hi: usize| {
            for pi in lo..hi {
                let part = &g.partitions[pi];
                for &v in changed.iter() {
                    let Some(l) = g.local_id(v, pi) else { continue };
                    let (ins, outs) = covered(part, l, dir);
                    *edges += (outs.len() + ins.len()) as u64;
                    let dv = &data[v as usize];
                    for &(u, w) in ins.iter().chain(outs) {
                        match prog.scatter(dv, &data[u as usize], w) {
                            Signal::Skip => continue,
                            Signal::Activate => {}
                            Signal::Message(m) => {
                                assert!(!gathers, "a program that gathers cannot send messages");
                                // An edge's partition hosts both its ends,
                                // so `u` has a slot here.
                                if let Some(lu) = g.local_id(u, pi) {
                                    // SAFETY: a partition's slots are its own
                                    // and one worker takes the partition.
                                    let slot = unsafe { slots.get_raw(part.base() + lu) };
                                    *slot = Some(match slot.take() {
                                        Some(a) => prog.merge(a, m),
                                        None => m,
                                    });
                                }
                            }
                        }
                        mine.set(u as usize);
                    }
                }
            }
        };
        marks.for_ranges(pool, nparts, per_partition, scatter);
        scatter_work = marks.drain_into(next, |a, b| a + b);
        log.parallel(scatter_work.max(1), 1, scatter_work * 8);
    } else {
        next.clear();
    }

    let edge_work = gather_work + scatter_work;
    log.counters.edges_traversed += edge_work;
    log.counters.vertices_touched += active.len() as u64;
    log.counters.iterations += 1;

    StepStats { edge_work, sync_messages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::place;
    use epg_engine_api::RecorderCtx;
    use epg_graph::EdgeList;
    use proptest::prelude::*;

    /// Min-distance gather over in-edges.
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

    /// Min-distance messages (the toolkit's SSSP step): no gather, and a
    /// changed vertex signals an out-neighbour only with a distance that
    /// improves it.
    struct MinMsg;
    impl VertexProgram for MinMsg {
        type Data = f32;
        type Gather = f32;
        fn gather_dir(&self) -> EdgeDir {
            EdgeDir::None
        }
        fn gather(&self, _v: VertexId, _other: &f32, _w: Weight) -> f32 {
            unreachable!("MinMsg does not gather")
        }
        fn merge(&self, a: f32, b: f32) -> f32 {
            a.min(b)
        }
        fn apply(&self, v: VertexId, data: &mut f32, acc: Option<f32>) -> bool {
            MinDist.apply(v, data, acc)
        }
        fn scatter_dir(&self) -> EdgeDir {
            EdgeDir::Out
        }
        fn scatter(&self, data: &f32, other: &f32, w: Weight) -> Signal<f32> {
            let candidate = data + w;
            if candidate < *other {
                Signal::Message(candidate)
            } else {
                Signal::Skip
            }
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

    /// A float sum over both directions. `f64` addition is not associative,
    /// so only a step that folds every vertex's partials in the promised
    /// order matches the reference bit for bit.
    struct FloatSum;
    impl VertexProgram for FloatSum {
        type Data = f64;
        type Gather = f64;
        fn gather_dir(&self) -> EdgeDir {
            EdgeDir::Both
        }
        fn gather(&self, _v: VertexId, other: &f64, w: Weight) -> f64 {
            other / w as f64
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn apply(&self, _v: VertexId, data: &mut f64, acc: Option<f64>) -> bool {
            let new = acc.unwrap_or(0.5);
            let changed = new != *data;
            *data = new;
            changed
        }
        fn scatter_dir(&self) -> EdgeDir {
            EdgeDir::Out
        }
    }

    /// Float-sum messages over both directions, sent only to neighbours
    /// holding no more than the sender: the order in which a partition
    /// merges messages, and a master its slots, shows in the sum's bits.
    struct FloatMsg;
    impl VertexProgram for FloatMsg {
        type Data = f64;
        type Gather = f64;
        fn gather_dir(&self) -> EdgeDir {
            EdgeDir::None
        }
        fn gather(&self, _v: VertexId, _other: &f64, _w: Weight) -> f64 {
            unreachable!("FloatMsg does not gather")
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn apply(&self, _v: VertexId, data: &mut f64, acc: Option<f64>) -> bool {
            let Some(new) = acc else { return false };
            let changed = new != *data;
            *data = new;
            changed
        }
        fn scatter_dir(&self) -> EdgeDir {
            EdgeDir::Both
        }
        fn scatter(&self, data: &f64, other: &f64, w: Weight) -> Signal<f64> {
            if other <= data {
                Signal::Message(data / w as f64)
            } else {
                Signal::Skip
            }
        }
    }

    /// Messages waiting in the replica slots, by partition then vertex:
    /// `None` where the partition hosts no replica of the vertex.
    type Pending<G> = Vec<Vec<Option<G>>>;

    /// What a superstep returns and leaves behind.
    #[derive(Debug, PartialEq)]
    struct Outcome<D, G> {
        data: Vec<D>,
        pending: Pending<G>,
        next: Vec<VertexId>,
        changed: Vec<VertexId>,
        edge_work: u64,
        sync_messages: u64,
    }

    /// One GAS superstep straight off the edge list and its placement into
    /// `p` partitions — no local ids, no CSR, no threads. A partition's
    /// partial for `v` is the message waiting there, or folds `v`'s
    /// in-edges there, then its out-edges, each in input order; a vertex's
    /// partials fold in ascending partition order. Scatter walks each
    /// partition's changed vertices in ascending order, each one's in-edges
    /// there and then its out-edges, in input order, and merges a message
    /// into the neighbour's slot in that partition. That is the association
    /// the engine promises, so even a float merge must match bit for bit.
    fn reference_step<P: VertexProgram>(
        prog: &P,
        el: &EdgeList,
        p: usize,
        active: &[VertexId],
        data: &[P::Data],
        pending: &Pending<P::Gather>,
    ) -> Outcome<P::Data, P::Gather> {
        let (edge_part, _) = place(el, p);
        let n = el.num_vertices;
        let covers = |dir: EdgeDir, side: EdgeDir| dir == side || dir == EdgeDir::Both;
        let mut is_active = vec![false; n];
        active.iter().for_each(|&v| is_active[v as usize] = true);
        let fold = |slot: &mut Option<P::Gather>, x: P::Gather| {
            *slot = Some(match slot.take() {
                Some(a) => prog.merge(a, x),
                None => x,
            });
        };
        // Per partition, every vertex's local (far end, weight) lists.
        let mut ins = vec![vec![Vec::new(); n]; p];
        let mut outs = vec![vec![Vec::new(); n]; p];
        for ((u, v, w), &pi) in el.iter().zip(&edge_part) {
            outs[pi as usize][u as usize].push((v, w));
            ins[pi as usize][v as usize].push((u, w));
        }
        let hosted = |pi: usize, v: usize| !ins[pi][v].is_empty() || !outs[pi][v].is_empty();
        let mut pending = pending.clone();
        let mut acc: Vec<Option<P::Gather>> = vec![None; n];
        let mut edge_work = 0;
        for pi in 0..p {
            for v in (0..n).filter(|&v| is_active[v]) {
                let mut partial = pending[pi][v].take();
                let gather = prog.gather_dir();
                let sides = [(EdgeDir::In, &ins[pi][v]), (EdgeDir::Out, &outs[pi][v])];
                for (side, edges) in sides {
                    for &(u, w) in edges.iter().filter(|_| covers(gather, side)) {
                        fold(&mut partial, prog.gather(v as VertexId, &data[u as usize], w));
                        edge_work += 1;
                    }
                }
                partial.into_iter().for_each(|x| fold(&mut acc[v], x));
            }
        }
        let mut data = data.to_vec();
        let mut is_changed = vec![false; n];
        for &v in active {
            is_changed[v as usize] = prog.apply(v, &mut data[v as usize], acc[v as usize].take());
        }
        let changed: Vec<VertexId> =
            (0..n as VertexId).filter(|&v| is_changed[v as usize]).collect();
        let sync_messages = changed
            .iter()
            .map(|&v| (0..p).filter(|&pi| hosted(pi, v as usize)).count().saturating_sub(1) as u64)
            .sum();
        let mut next = Vec::new();
        for pi in 0..p {
            for &v in &changed {
                let v = v as usize;
                let sides = [(EdgeDir::In, &ins[pi][v]), (EdgeDir::Out, &outs[pi][v])];
                for (side, edges) in sides {
                    for &(u, w) in edges.iter().filter(|_| covers(prog.scatter_dir(), side)) {
                        edge_work += 1;
                        match prog.scatter(&data[v], &data[u as usize], w) {
                            Signal::Skip => continue,
                            Signal::Activate => {}
                            Signal::Message(m) => fold(&mut pending[pi][u as usize], m),
                        }
                        next.push(u);
                    }
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        Outcome { data, pending, next, changed, edge_work, sync_messages }
    }

    fn engine_step<P: VertexProgram>(
        prog: &P,
        g: &PartitionedGraph,
        active: &[VertexId],
        data: &[P::Data],
        pending: &Pending<P::Gather>,
        pool: &ThreadPool,
    ) -> Outcome<P::Data, P::Gather> {
        let mut scratch = Scratch::new(g, pool);
        let replicas = |pi: usize| {
            let part = &g.partitions[pi];
            (part.base()..).zip(part.vertices().iter().map(|&v| v as usize))
        };
        for pi in 0..g.partitions.len() {
            for (slot, v) in replicas(pi) {
                scratch.slots[slot] = pending[pi][v].clone();
            }
        }
        let mut data = data.to_vec();
        let mut log = RunLog::new(RecorderCtx::none());
        let stats = superstep(prog, g, active, &mut data, &mut scratch, pool, &mut log);
        let mut pending = vec![vec![None; g.num_vertices]; g.partitions.len()];
        for (pi, row) in pending.iter_mut().enumerate() {
            for (slot, v) in replicas(pi) {
                row[v] = scratch.slots[slot].take();
            }
        }
        let StepStats { edge_work, sync_messages } = stats;
        let (next, changed) = (scratch.next, scratch.changed);
        Outcome { data, pending, next, changed, edge_work, sync_messages }
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

    /// No message anywhere: the state a gathering program runs in.
    fn no_messages<G: Clone>(g: &PartitionedGraph) -> Pending<G> {
        vec![vec![None; g.num_vertices]; g.partitions.len()]
    }

    /// `msg(v, pi)` waiting at every replica of every vertex of `active`.
    fn messages<G: Clone>(
        g: &PartitionedGraph,
        active: &[VertexId],
        msg: impl Fn(VertexId, usize) -> G,
    ) -> Pending<G> {
        let mut pending = no_messages(g);
        for &v in active {
            for (pi, _) in g.replicas_of(v) {
                pending[pi][v as usize] = Some(msg(v, pi));
            }
        }
        pending
    }

    /// The engine's step and the reference's agree on `g`'s partitioning.
    fn agrees<P: VertexProgram>(
        prog: &P,
        el: &EdgeList,
        g: &PartitionedGraph,
        active: &[VertexId],
        data: &[P::Data],
        pending: &Pending<P::Gather>,
        pool: &ThreadPool,
    ) -> Result<(), TestCaseError>
    where
        P::Data: std::fmt::Debug + PartialEq,
        P::Gather: std::fmt::Debug + PartialEq,
    {
        let p = g.partitions.len();
        prop_assert_eq!(
            engine_step(prog, g, active, data, pending, pool),
            reference_step(prog, el, p, active, data, pending)
        );
        Ok(())
    }

    proptest! {
        #[test]
        fn superstep_matches_a_sequential_step_that_merges_in_partition_order(
            (el, per) in arb_case()
        ) {
            let pool = ThreadPool::new(3);
            let n = el.num_vertices as VertexId;
            let sparse: Vec<VertexId> = (0..n).filter(|&v| per[v as usize].1).collect();
            let all: Vec<VertexId> = (0..n).collect();
            // A third of the distances start unreached.
            let dist: Vec<f32> =
                per.iter().map(|&(x, _)| if x % 3 == 0 { f32::INFINITY } else { x as f32 }).collect();
            let labels: Vec<u64> = per.iter().map(|&(x, _)| x as u64 % 16).collect();
            // Magnitudes 1e-4..1e4 apart, so partial sums round differently
            // in any other order.
            let float = |x: u8| (x as f64 + 0.1) * 10f64.powi(x as i32 % 9 - 4);
            let floats: Vec<f64> = per.iter().map(|&(x, _)| float(x)).collect();
            for p in [1, 3, 8, 64] {
                let g = PartitionedGraph::build(&el, p, &pool);
                for active in [&sparse, &all] {
                    agrees(&MinDist, &el, &g, active, &dist, &no_messages(&g), &pool)?;
                    agrees(&MinLabel, &el, &g, active, &labels, &no_messages(&g), &pool)?;
                    agrees(&IntSum, &el, &g, active, &labels, &no_messages(&g), &pool)?;
                    agrees(&FloatSum, &el, &g, active, &floats, &no_messages(&g), &pool)?;
                    // Every replica of an active vertex holds a message; a
                    // distance may or may not improve its vertex's.
                    let x = |v: VertexId| per[v as usize].0 as usize;
                    let min = messages(&g, active, |v, pi| ((x(v) * 7 + pi * 13) % 300) as f32);
                    agrees(&MinMsg, &el, &g, active, &dist, &min, &pool)?;
                    let sums = messages(&g, active, |v, pi| float((x(v) + pi) as u8));
                    agrees(&FloatMsg, &el, &g, active, &floats, &sums, &pool)?;
                }
            }
        }
    }

    /// Runs `MinMsg` from `root` to its fixpoint; the steps' stats and
    /// changed lists, in order.
    fn min_msg_run(
        g: &PartitionedGraph,
        root: VertexId,
        dist: &mut [f32],
        pool: &ThreadPool,
        log: &mut RunLog<'_>,
    ) -> Vec<(StepStats, Vec<VertexId>)> {
        let mut scratch = Scratch::new(g, pool);
        assert!(scratch.signal(g, root, 0.0), "root {root} is isolated");
        let (mut active, mut steps) = (vec![root], Vec::new());
        while !active.is_empty() {
            let stats = superstep(&MinMsg, g, &active, dist, &mut scratch, pool, log);
            steps.push((stats, scratch.changed.clone()));
            std::mem::swap(&mut active, &mut scratch.next);
        }
        steps
    }

    #[test]
    fn superstep_relaxes_and_activates() {
        let el = EdgeList::weighted(4, vec![(0, 1), (1, 2), (0, 3)], vec![1.0, 1.0, 5.0]);
        let pool = ThreadPool::new(2);
        let g = PartitionedGraph::build(&el, 2, &pool);
        let mut dist = vec![f32::INFINITY; 4];
        let mut log = RunLog::new(RecorderCtx::none());
        let mut scratch = Scratch::new(&g, &pool);
        assert!(scratch.signal(&g, 0, 0.0));
        // The root takes its message and signals both out-neighbours.
        superstep(&MinMsg, &g, &[0], &mut dist, &mut scratch, &pool, &mut log);
        assert_eq!((dist[0], &scratch.changed, &scratch.next), (0.0, &vec![0], &vec![1, 3]));
        let active = std::mem::take(&mut scratch.next);
        let stats = superstep(&MinMsg, &g, &active, &mut dist, &mut scratch, &pool, &mut log);
        assert_eq!((dist[1], dist[3]), (1.0, 5.0));
        assert_eq!(scratch.changed, vec![1, 3]);
        // 1 changed -> signals its out-neighbor 2; 3 has no out-edge.
        assert_eq!(scratch.next, vec![2]);
        // The root scanned two out-edges, 1 and 3 one between them, and
        // nothing was gathered.
        assert_eq!((stats.edge_work, log.counters.edges_traversed), (1, 3));
    }

    #[test]
    fn fixpoint_reaches_shortest_paths() {
        let el = epg_generator::uniform::generate(120, 900, true, 7).symmetrized().deduplicated();
        let pool = ThreadPool::new(3);
        let g = PartitionedGraph::build(&el, 4, &pool);
        let n = el.num_vertices;
        let mut dist = vec![f32::INFINITY; n];
        let mut log = RunLog::new(RecorderCtx::none());
        min_msg_run(&g, 0, &mut dist, &pool, &mut log);
        let csr = epg_graph::Csr::from_edge_list(&el);
        let want = epg_graph::oracle::dijkstra(&csr, 0);
        for v in 0..n {
            assert_eq!(dist[v].to_bits(), want[v].to_bits(), "vertex {v}");
        }
    }

    #[test]
    fn sync_messages_track_mirrors_of_changed() {
        let edges: Vec<_> = (1..64u32).map(|v| (0, v)).collect();
        let el = EdgeList::new(64, edges).symmetrized();
        let pool = ThreadPool::new(2);
        let g = PartitionedGraph::build(&el, 8, &pool);
        let mut dist = vec![f32::INFINITY; 64];
        let mut log = RunLog::new(RecorderCtx::none());
        // Leaf 1 signals hub 0, which changes; it has many mirrors. The
        // hub's own messages then reach every other leaf.
        let steps = min_msg_run(&g, 1, &mut dist, &pool, &mut log);
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[1].1, vec![0]);
        assert_eq!(
            steps[1].0.sync_messages,
            g.replicas_of(0).count() as u64 - 1,
            "hub sync must touch every mirror"
        );
    }

    /// A program that both gathers and signals.
    struct GatherAndSignal;
    impl VertexProgram for GatherAndSignal {
        type Data = f32;
        type Gather = f32;
        fn gather_dir(&self) -> EdgeDir {
            EdgeDir::In
        }
        fn gather(&self, v: VertexId, other: &f32, w: Weight) -> f32 {
            MinDist.gather(v, other, w)
        }
        fn merge(&self, a: f32, b: f32) -> f32 {
            a.min(b)
        }
        fn apply(&self, v: VertexId, data: &mut f32, acc: Option<f32>) -> bool {
            MinDist.apply(v, data, acc)
        }
        fn scatter_dir(&self) -> EdgeDir {
            EdgeDir::Out
        }
        fn scatter(&self, data: &f32, other: &f32, w: Weight) -> Signal<f32> {
            MinMsg.scatter(data, other, w)
        }
    }

    #[test]
    #[should_panic(expected = "a program that gathers cannot send messages")]
    fn a_program_that_gathers_and_signals_is_refused() {
        let el = EdgeList::weighted(3, vec![(0, 1), (1, 2)], vec![1.0, 1.0]);
        let pool = ThreadPool::new(1);
        let g = PartitionedGraph::build(&el, 1, &pool);
        let mut dist = vec![0.0, f32::INFINITY, f32::INFINITY];
        let mut log = RunLog::new(RecorderCtx::none());
        let mut scratch = Scratch::new(&g, &pool);
        // Vertex 1 gathers distance 1 and changes; its scatter improves 2.
        superstep(&GatherAndSignal, &g, &[1], &mut dist, &mut scratch, &pool, &mut log);
    }
}
