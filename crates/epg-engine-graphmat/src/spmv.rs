//! The SpMSpV backend: one `GraphProgram` iteration as a masked sparse
//! matrix-vector product over the DCSC matrix.
//!
//! Active vertices form the sparse input vector; their matrix columns are
//! streamed in parallel, PROCESS/REDUCE results land in per-thread sparse
//! accumulators, accumulators merge, and APPLY runs once per touched
//! destination. The per-iteration bin/merge machinery is GraphMat's real
//! constant overhead — visible in the paper's small-graph results (§IV-C).

use crate::program::GraphProgram;
use epg_engine_api::Partial;
use epg_graph::{Dcsc, VertexId};
use epg_parallel::{DisjointWriter, Schedule, ThreadPool};
use std::collections::HashMap;

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

/// Runs one program iteration.
///
/// `matrices` lists the orientations to push along — `[A]` for pure
/// out-edge propagation, `[A, Aᵀ]` for programs whose semantics cover both
/// neighborhoods (CDLP, WCC). Returns the next active set (sorted,
/// deduplicated) and the iteration's work stats. `values` is updated in
/// place by APPLY; all SENDs observe pre-iteration values (synchronous
/// semantics).
pub fn run_iteration<P: GraphProgram>(
    prog: &P,
    matrices: &[&Dcsc],
    active: &[VertexId],
    values: &mut [P::VertexValue],
    pool: &ThreadPool,
) -> (Vec<VertexId>, SpmvStats) {
    // --- SEND + PROCESS + per-range REDUCE ---
    let values_ref: &[P::VertexValue] = values;
    let sent = Partial::collect(pool, active.len(), Schedule::Guided { min_chunk: 8 }, |lo, hi| {
        let mut found = Vec::with_capacity(1);
        let mut acc: HashMap<VertexId, P::Accum> = HashMap::new();
        let (mut edges, mut max_degree) = (0u64, 0u64);
        for &u in &active[lo..hi] {
            let msg = prog.send(u, &values_ref[u as usize]);
            for m in matrices {
                let Ok(ci) = m.col_ids.binary_search(&u) else { continue };
                let len = (m.col_ptr[ci + 1] - m.col_ptr[ci]) as u64;
                edges += len;
                max_degree = max_degree.max(len);
                for (dst, w) in m.col_entries(ci) {
                    reduce_into(prog, &mut acc, dst, prog.process(&msg, w, dst));
                }
            }
        }
        found.push(acc);
        Partial { found, edges, max_degree }
    });

    // --- merge the per-range accumulators ---
    let mut merged: HashMap<VertexId, P::Accum> = HashMap::new();
    for (dst, contrib) in sent.found.into_iter().flatten() {
        reduce_into(prog, &mut merged, dst, contrib);
    }
    let stats =
        SpmvStats { edges: sent.edges, max_column: sent.max_degree, touched: merged.len() as u64 };

    // --- APPLY, parallel over touched destinations (unique per key) ---
    let entries: Vec<(VertexId, P::Accum)> = merged.into_iter().collect();
    let cell = DisjointWriter::new(values);
    let applied =
        Partial::collect(pool, entries.len(), Schedule::Static { chunk: None }, |lo, hi| {
            let mut found = Vec::with_capacity(hi - lo);
            for (v, acc) in &entries[lo..hi] {
                // SAFETY: keys are unique after the merge, so each index is
                // mutated by exactly one thread.
                let val = unsafe { cell.get_raw(*v as usize) };
                if prog.apply(acc.clone(), *v, val) {
                    found.push(*v);
                }
            }
            Partial { found, edges: 0, max_degree: 0 }
        });
    let mut next = applied.found;
    next.sort_unstable();
    next.dedup();
    (next, stats)
}

/// REDUCEs `contrib` into `acc[dst]` (or installs it as the first value).
fn reduce_into<P: GraphProgram>(
    prog: &P,
    acc: &mut HashMap<VertexId, P::Accum>,
    dst: VertexId,
    contrib: P::Accum,
) {
    let merged = match acc.remove(&dst) {
        Some(prev) => prog.reduce(prev, contrib),
        None => contrib,
    };
    acc.insert(dst, merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::EdgeList;

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
        let m = Dcsc::from_edge_list(&el);
        let pool = ThreadPool::new(2);
        let mut dist = vec![f32::INFINITY; 4];
        dist[0] = 0.0;
        let (next, stats) = run_iteration(&MinPlus, &[&m], &[0], &mut dist, &pool);
        assert_eq!(next, vec![1, 2]);
        assert_eq!(dist, vec![0.0, 1.0, 4.0, f32::INFINITY]);
        assert_eq!(stats.edges, 2);
        assert_eq!(stats.touched, 2);
    }

    #[test]
    fn iterating_to_fixpoint_gives_shortest_paths() {
        let el =
            EdgeList::weighted(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)], vec![1.0, 1.0, 5.0, 1.0]);
        let m = Dcsc::from_edge_list(&el);
        let pool = ThreadPool::new(3);
        let mut dist = vec![f32::INFINITY; 4];
        dist[0] = 0.0;
        let mut active = vec![0];
        while !active.is_empty() {
            let (next, _) = run_iteration(&MinPlus, &[&m], &active, &mut dist, &pool);
            active = next;
        }
        assert_eq!(dist, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn reduce_merges_parallel_contributions() {
        // Two sources reach the same destination in one iteration; the
        // smaller must win regardless of thread interleaving.
        let el = EdgeList::weighted(3, vec![(0, 2), (1, 2)], vec![5.0, 3.0]);
        let m = Dcsc::from_edge_list(&el);
        let pool = ThreadPool::new(4);
        let mut dist = vec![0.0, 0.0, f32::INFINITY];
        let (next, stats) = run_iteration(&MinPlus, &[&m], &[0, 1], &mut dist, &pool);
        assert_eq!(next, vec![2]);
        assert_eq!(dist[2], 3.0);
        assert_eq!(stats.touched, 1);
    }

    #[test]
    fn dual_matrix_pushes_both_directions() {
        let el = EdgeList::weighted(3, vec![(1, 0), (1, 2)], vec![1.0, 1.0]);
        let m = Dcsc::from_edge_list(&el);
        let mt = m.transpose();
        let pool = ThreadPool::new(2);
        // Activate vertex 0; pushing along A alone reaches nothing (0 has
        // no out-edges), along [A, Aᵀ] it reaches 1.
        let mut dist = vec![0.0, f32::INFINITY, f32::INFINITY];
        let (next, _) = run_iteration(&MinPlus, &[&m, &mt], &[0], &mut dist, &pool);
        assert_eq!(next, vec![1]);
    }

    #[test]
    fn empty_active_set_is_noop() {
        let el = EdgeList::new(2, vec![(0, 1)]);
        let m = Dcsc::from_edge_list(&el);
        let pool = ThreadPool::new(1);
        let mut vals = vec![1.0f32, 2.0];
        let (next, stats) = run_iteration(&MinPlus, &[&m], &[], &mut vals, &pool);
        assert!(next.is_empty());
        assert_eq!(stats, SpmvStats::default());
        assert_eq!(vals, vec![1.0, 2.0]);
    }
}
