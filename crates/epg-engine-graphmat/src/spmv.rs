//! The SpMSpV backend: one `GraphProgram` iteration as a masked sparse
//! matrix-vector product over the DCSC matrix.
//!
//! GraphMat partitions the matrix 1-D by rows, so a destination belongs to
//! exactly one partition and neither atomics nor a merge are needed. Here
//! the rows are cut into one contiguous **row block** per pool thread and
//! an iteration is two regions:
//!
//! 1. SEND: the active vertices become the sparse input vector — one
//!    `(column index, message)` per active vertex and matrix that has the
//!    column — read from the pre-iteration values.
//! 2. One worker per row block walks that vector, takes each column's
//!    share of the block's rows (rows ascend inside a column, so the share
//!    is a `partition_point` pair), PROCESSes and REDUCEs into one dense
//!    accumulator slot per row, and APPLYs the rows it touched.
//!
//! The matrix stays one column-major DCSC, so every block walks the whole
//! sparse vector and probes every active column; that pass is the price of
//! a block, which is why there is one per thread and not several (at 2
//! threads, 1 / 2 / 4 blocks per thread ran the scale-16 Kronecker BFS in
//! 10.1 / 12.6 / 17.2 ms and the 784-level grid BFS in 26 / 28 / 39 ms).
//! That is verified at 2 threads only. The scan is O(threads × |active|)
//! work that does not parallelise, and equal-row blocks do not balance a
//! skewed in-degree distribution (a Kronecker block can hold most of the
//! edges); `charge()` models neither, so the 32 / 72-thread projection
//! sees neither. Blocks of equal nnz, computable once from the `Dcsc`,
//! are the fix to measure on a wider host.
//!
//! A block sees the vector in order, so a destination's contributions are
//! REDUCEd in the order of the active list (then of `matrices`) at every
//! thread count. The sparse vector, the accumulator and each block's list
//! of touched rows are allocated once per run ([`Scratch`]); APPLY
//! `take()`s every slot it filled, so no step is O(rows) per iteration.
//! What stays is GraphMat's real per-iteration bookkeeping — filling the
//! sparse vector, the per-block touched lists, two fork/joins — the
//! constant overhead the paper sees in the small-graph results (§IV-C).

use crate::program::GraphProgram;
use epg_graph::{Dcsc, VertexId};
use epg_parallel::{DisjointWriter, PerWorker, Schedule, ThreadPool};

/// Work accounting for one iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpmvStats {
    /// Matrix entries processed.
    pub edges: u64,
    /// Longest single column streamed (span bound).
    pub max_column: u64,
    /// Destinations touched (accumulator size).
    pub touched: u64,
}

/// A run's iteration buffers, allocated once: the sparse message vector,
/// the dense accumulator (one REDUCE slot per vertex), each worker's block
/// rows and tallies, and the next active set drained from them.
pub struct Scratch<P: GraphProgram> {
    sent: Vec<Option<(usize, P::Message)>>,
    acc: Vec<Option<P::Accum>>,
    blocks: PerWorker<(Vec<VertexId>, SpmvStats)>,
    /// The next iteration's active set, ascending and distinct, as the last
    /// [`run_iteration`] left it.
    pub next: Vec<VertexId>,
}

impl<P: GraphProgram> Scratch<P> {
    /// Empty buffers for iterations over `n` vertices on `pool`.
    pub fn new(n: usize, pool: &ThreadPool) -> Scratch<P> {
        let blocks = PerWorker::new(pool.num_threads(), Default::default);
        Scratch { sent: Vec::new(), acc: vec![None; n], blocks, next: Vec::new() }
    }
}

/// Runs one program iteration.
///
/// `matrices` lists the orientations to push along — `[A]` for pure
/// out-edge propagation, `[A, Aᵀ]` for programs whose semantics cover both
/// neighborhoods (CDLP, WCC) — each with one row per vertex. Leaves the
/// next active set (sorted, deduplicated) in [`Scratch::next`] and returns
/// the iteration's work stats. `values` is updated in place by APPLY; all
/// SENDs observe pre-iteration values (synchronous semantics).
pub fn run_iteration<P: GraphProgram>(
    prog: &P,
    matrices: &[&Dcsc],
    active: &[VertexId],
    values: &mut [P::VertexValue],
    scratch: &mut Scratch<P>,
    pool: &ThreadPool,
) -> SpmvStats {
    let (n, k) = (values.len(), matrices.len());
    let Scratch { sent, acc, blocks, next } = scratch;
    assert_eq!(acc.len(), n, "one accumulator slot per vertex");
    assert!(k > 0 && matrices.iter().all(|m| m.dim == n), "one matrix row per vertex");
    next.clear();

    // --- SEND: slot `i * k + j` is active[i]'s message along matrices[j] ---
    sent.clear();
    sent.resize(active.len() * k, None);
    {
        let values: &[P::VertexValue] = values;
        let slots = DisjointWriter::new(sent);
        let sched = Schedule::Static { chunk: None };
        blocks.for_ranges(pool, active.len(), sched, |(_, mine), lo, hi| {
            // SAFETY: the schedule's ranges are pairwise disjoint, and so
            // are their images `lo * k .. hi * k`.
            let out = unsafe { slots.range_mut(lo * k, hi * k) };
            for (&u, out) in active[lo..hi].iter().zip(out.chunks_exact_mut(k)) {
                let msg = prog.send(u, &values[u as usize]);
                for (m, slot) in matrices.iter().zip(out) {
                    let Some(ci) = m.col_index(u) else { continue };
                    let len = (m.col_ptr[ci + 1] - m.col_ptr[ci]) as u64;
                    mine.edges += len;
                    mine.max_column = mine.max_column.max(len);
                    *slot = Some((ci, msg.clone()));
                }
            }
        });
    }
    // No active column: nothing to process, and every tally is still zero.
    if blocks.iter_mut().all(|(_, mine)| mine.edges == 0) {
        return SpmvStats::default();
    }

    // --- PROCESS + REDUCE + APPLY: block `b` runs on worker `b` ---
    let nblocks = pool.num_threads();
    let rows_per_block = n.div_ceil(nblocks);
    {
        let acc = DisjointWriter::new(acc);
        let values = DisjointWriter::new(values);
        let sched = Schedule::Static { chunk: Some(1) };
        blocks.for_ranges(pool, nblocks, sched, |(rows, mine), b, _| {
            let (rlo, rhi) = ((b * rows_per_block).min(n), ((b + 1) * rows_per_block).min(n));
            // SAFETY: a row lies in exactly one block and the schedule hands
            // a block to exactly one worker, so both ranges are this
            // worker's alone for the region.
            let (acc, values) = unsafe { (acc.range_mut(rlo, rhi), values.range_mut(rlo, rhi)) };
            mine.touched += run_block(prog, matrices, sent, rlo, acc, values, rows);
        });
    }
    // Worker `b` holds block `b`'s rows, so worker order is row order.
    let mut stats = SpmvStats::default();
    for (rows, mine) in blocks.iter_mut() {
        next.append(rows);
        let SpmvStats { edges, max_column, touched } = std::mem::take(mine);
        (stats.edges, stats.touched) = (stats.edges + edges, stats.touched + touched);
        stats.max_column = stats.max_column.max(max_column);
    }
    stats
}

/// One row block's share of the iteration: rows `rlo .. rlo + acc.len()`,
/// whose accumulator slots and values are `acc` and `values`. `rows` comes
/// in empty and leaves holding the rows APPLY activated, ascending; every
/// slot of `acc` is `None` again. Returns how many rows were touched.
fn run_block<P: GraphProgram>(
    prog: &P,
    matrices: &[&Dcsc],
    sent: &[Option<(usize, P::Message)>],
    rlo: usize,
    acc: &mut [Option<P::Accum>],
    values: &mut [P::VertexValue],
    rows: &mut Vec<VertexId>,
) -> u64 {
    let rhi = rlo + acc.len();
    // PROCESS + REDUCE; `rows` collects each row at its first contribution.
    for msgs in sent.chunks_exact(matrices.len()) {
        for (m, slot) in matrices.iter().zip(msgs) {
            let Some((ci, msg)) = slot else { continue };
            let (lo, hi) = (m.col_ptr[*ci], m.col_ptr[*ci + 1]);
            // The first block starts at row 0 and the last ends at row `dim`:
            // their ends of the column need no search.
            let from = if rlo == 0 {
                lo
            } else {
                lo + m.row_ids[lo..hi].partition_point(|&r| (r as usize) < rlo)
            };
            let to = if rhi == m.dim {
                hi
            } else {
                from + m.row_ids[from..hi].partition_point(|&r| (r as usize) < rhi)
            };
            for (&dst, &w) in m.row_ids[from..to].iter().zip(&m.values[from..to]) {
                let contrib = prog.process(msg, w, dst);
                let slot = &mut acc[dst as usize - rlo];
                *slot = Some(match slot.take() {
                    Some(prev) => prog.reduce(prev, contrib),
                    None => {
                        rows.push(dst);
                        contrib
                    }
                });
            }
        }
    }
    let touched = rows.len() as u64;
    // APPLY empties every slot it reads and keeps the rows it activates.
    rows.retain(|&v| {
        let i = v as usize - rlo;
        acc[i].take().is_some_and(|reduced| prog.apply(reduced, v, &mut values[i]))
    });
    rows.sort_unstable();
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::EdgeList;
    use proptest::prelude::*;

    /// One iteration on fresh buffers: the next active set and the stats.
    fn step<P: GraphProgram>(
        prog: &P,
        matrices: &[&Dcsc],
        active: &[VertexId],
        values: &mut [P::VertexValue],
        pool: &ThreadPool,
    ) -> (Vec<VertexId>, SpmvStats) {
        let mut scratch = Scratch::new(values.len(), pool);
        let stats = run_iteration(prog, matrices, active, values, &mut scratch, pool);
        assert!(scratch.acc.iter().all(Option::is_none), "APPLY left an accumulator slot filled");
        (scratch.next, stats)
    }

    /// Min-plus program = Bellman-Ford step.
    struct MinPlus;
    impl GraphProgram for MinPlus {
        type VertexValue = f32;
        type Message = f32;
        type Accum = f32;
        fn send(&self, _v: VertexId, value: &f32) -> f32 {
            *value
        }
        fn process(&self, msg: &f32, w: f32, _dst: VertexId) -> f32 {
            msg + w
        }
        fn reduce(&self, a: f32, b: f32) -> f32 {
            a.min(b)
        }
        fn apply(&self, acc: f32, _v: VertexId, value: &mut f32) -> bool {
            if acc < *value {
                *value = acc;
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn one_iteration_relaxes_root_edges() {
        let el = EdgeList::weighted(4, vec![(0, 1), (0, 2), (2, 3)], vec![1.0, 4.0, 1.0]);
        let pool = ThreadPool::new(2);
        let m = Dcsc::from_edge_list(&el, &pool);
        let mut dist = vec![f32::INFINITY; 4];
        dist[0] = 0.0;
        let (next, stats) = step(&MinPlus, &[&m], &[0], &mut dist, &pool);
        assert_eq!(next, vec![1, 2]);
        assert_eq!(dist, vec![0.0, 1.0, 4.0, f32::INFINITY]);
        assert_eq!(stats.edges, 2);
        assert_eq!(stats.touched, 2);
    }

    #[test]
    fn iterating_to_fixpoint_gives_shortest_paths() {
        let el =
            EdgeList::weighted(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)], vec![1.0, 1.0, 5.0, 1.0]);
        let pool = ThreadPool::new(3);
        let m = Dcsc::from_edge_list(&el, &pool);
        let mut dist = vec![f32::INFINITY; 4];
        dist[0] = 0.0;
        let mut active = vec![0];
        let mut scratch = Scratch::new(4, &pool);
        while !active.is_empty() {
            run_iteration(&MinPlus, &[&m], &active, &mut dist, &mut scratch, &pool);
            std::mem::swap(&mut active, &mut scratch.next);
        }
        assert_eq!(dist, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn reduce_merges_parallel_contributions() {
        // Two sources reach the same destination in one iteration; the
        // smaller must win regardless of thread interleaving.
        let el = EdgeList::weighted(3, vec![(0, 2), (1, 2)], vec![5.0, 3.0]);
        let pool = ThreadPool::new(4);
        let m = Dcsc::from_edge_list(&el, &pool);
        let mut dist = vec![0.0, 0.0, f32::INFINITY];
        let (next, stats) = step(&MinPlus, &[&m], &[0, 1], &mut dist, &pool);
        assert_eq!(next, vec![2]);
        assert_eq!(dist[2], 3.0);
        assert_eq!(stats.touched, 1);
    }

    #[test]
    fn dual_matrix_pushes_both_directions() {
        let el = EdgeList::weighted(3, vec![(1, 0), (1, 2)], vec![1.0, 1.0]);
        let pool = ThreadPool::new(2);
        let m = Dcsc::from_edge_list(&el, &pool);
        let mt = m.transpose(&pool);
        // Activate vertex 0; pushing along A alone reaches nothing (0 has
        // no out-edges), along [A, Aᵀ] it reaches 1.
        let mut dist = vec![0.0, f32::INFINITY, f32::INFINITY];
        let (next, _) = step(&MinPlus, &[&m, &mt], &[0], &mut dist, &pool);
        assert_eq!(next, vec![1]);
    }

    #[test]
    fn empty_active_set_is_noop() {
        let el = EdgeList::new(2, vec![(0, 1)]);
        let pool = ThreadPool::new(1);
        let m = Dcsc::from_edge_list(&el, &pool);
        let mut vals = vec![1.0f32, 2.0];
        let (next, stats) = step(&MinPlus, &[&m], &[], &mut vals, &pool);
        assert!(next.is_empty());
        assert_eq!(stats, SpmvStats::default());
        assert_eq!(vals, vec![1.0, 2.0]);
    }

    /// Min-label program (a WCC step).
    struct MinLabel;
    impl GraphProgram for MinLabel {
        type VertexValue = u64;
        type Message = u64;
        type Accum = u64;
        fn send(&self, _v: VertexId, value: &u64) -> u64 {
            *value
        }
        fn process(&self, msg: &u64, _w: f32, _dst: VertexId) -> u64 {
            *msg
        }
        fn reduce(&self, a: u64, b: u64) -> u64 {
            a.min(b)
        }
        fn apply(&self, acc: u64, _v: VertexId, value: &mut u64) -> bool {
            let lower = acc < *value;
            *value = (*value).min(acc);
            lower
        }
    }

    /// Collects the senders' ids in REDUCE order — the one program here
    /// whose result depends on that order — and activates on an odd count.
    struct ListAppend;
    impl GraphProgram for ListAppend {
        type VertexValue = Vec<u64>;
        type Message = u64;
        type Accum = Vec<u64>;
        fn send(&self, v: VertexId, _value: &Vec<u64>) -> u64 {
            v as u64
        }
        fn process(&self, msg: &u64, _w: f32, _dst: VertexId) -> Vec<u64> {
            vec![*msg]
        }
        fn reduce(&self, mut a: Vec<u64>, mut b: Vec<u64>) -> Vec<u64> {
            a.append(&mut b);
            a
        }
        fn apply(&self, acc: Vec<u64>, _v: VertexId, value: &mut Vec<u64>) -> bool {
            *value = acc;
            value.len() % 2 == 1
        }
    }

    /// What an iteration returns and leaves behind.
    #[derive(Debug, PartialEq)]
    struct Outcome<V> {
        values: Vec<V>,
        next: Vec<VertexId>,
        stats: SpmvStats,
    }

    fn engine_step<P: GraphProgram>(
        prog: &P,
        matrices: &[&Dcsc],
        active: &[VertexId],
        values: &[P::VertexValue],
        pool: &ThreadPool,
    ) -> Outcome<P::VertexValue> {
        let mut values = values.to_vec();
        let (next, stats) = step(prog, matrices, active, &mut values, pool);
        Outcome { values, next, stats }
    }

    /// One iteration with no blocks and no threads: every active vertex in
    /// order, every matrix in order, every entry of the column in storage
    /// order, then APPLY over the vertices in ascending order.
    fn reference_step<P: GraphProgram>(
        prog: &P,
        matrices: &[&Dcsc],
        active: &[VertexId],
        values: &[P::VertexValue],
    ) -> Outcome<P::VertexValue> {
        let mut acc: Vec<Option<P::Accum>> = vec![None; values.len()];
        let mut stats = SpmvStats::default();
        for &u in active {
            let msg = prog.send(u, &values[u as usize]);
            for m in matrices {
                let column: Vec<_> = m.triples().filter(|&(_, c, _)| c == u).collect();
                stats.edges += column.len() as u64;
                stats.max_column = stats.max_column.max(column.len() as u64);
                for (dst, _, w) in column {
                    let contrib = prog.process(&msg, w, dst);
                    let slot = &mut acc[dst as usize];
                    *slot = Some(match slot.take() {
                        Some(prev) => prog.reduce(prev, contrib),
                        None => contrib,
                    });
                }
            }
        }
        let mut values = values.to_vec();
        let mut next = Vec::new();
        for (v, reduced) in acc.into_iter().enumerate() {
            let Some(reduced) = reduced else { continue };
            stats.touched += 1;
            if prog.apply(reduced, v as VertexId, &mut values[v]) {
                next.push(v as VertexId);
            }
        }
        Outcome { values, next, stats }
    }

    /// A small weighted graph on 0..=40 vertices (so fewer rows than a
    /// 7-thread pool has blocks, one row, and none at all occur) plus two
    /// bytes of randomness per vertex: its initial value and whether it is
    /// in the sparse active set.
    fn arb_case() -> impl Strategy<Value = (EdgeList, Vec<(u8, bool)>)> {
        (0usize..=40).prop_flat_map(|n| {
            let end = n.max(1) as VertexId;
            let edge = ((0..end, 0..end), 1u8..10);
            let edges = proptest::collection::vec(edge, 0..200).prop_map(move |ews| {
                let (edges, weights): (Vec<_>, Vec<_>) =
                    ews.into_iter().filter(|_| n > 0).map(|(e, w)| (e, w as f32)).unzip();
                EdgeList::weighted(n, edges, weights)
            });
            (edges, proptest::collection::vec((0u8..=255, 0u8..3), n..=n))
                .prop_map(|(el, per)| (el, per.into_iter().map(|(x, a)| (x, a == 0)).collect()))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn iteration_matches_a_sequential_reference_step((el, per) in arb_case()) {
            let build = ThreadPool::new(2);
            let a = Dcsc::from_edge_list(&el, &build);
            let at = a.transpose(&build);
            let n = el.num_vertices as VertexId;
            let sparse: Vec<VertexId> = (0..n).filter(|&v| per[v as usize].1).collect();
            let all: Vec<VertexId> = (0..n).collect();
            // A third of the distances start unreached.
            let dist: Vec<f32> =
                per.iter().map(|&(x, _)| if x % 3 == 0 { f32::INFINITY } else { x as f32 }).collect();
            let labels: Vec<u64> = per.iter().map(|&(x, _)| x as u64 % 16).collect();
            let lists: Vec<Vec<u64>> = vec![Vec::new(); el.num_vertices];
            for threads in [1, 2, 3, 7] {
                let pool = ThreadPool::new(threads);
                for active in [&[][..], &sparse, &all] {
                    prop_assert_eq!(
                        engine_step(&MinPlus, &[&a], active, &dist, &pool),
                        reference_step(&MinPlus, &[&a], active, &dist)
                    );
                    prop_assert_eq!(
                        engine_step(&MinLabel, &[&a, &at], active, &labels, &pool),
                        reference_step(&MinLabel, &[&a, &at], active, &labels)
                    );
                    // The reference REDUCEs in ascending source order, so
                    // equal lists are ascending at every thread count.
                    let appended = engine_step(&ListAppend, &[&a, &at], active, &lists, &pool);
                    prop_assert!(appended.values.iter().all(|l| l.is_sorted()));
                    prop_assert_eq!(
                        appended,
                        reference_step(&ListAppend, &[&a, &at], active, &lists)
                    );
                }
            }
        }
    }
}
