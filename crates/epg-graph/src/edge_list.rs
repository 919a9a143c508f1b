//! Unsorted edge lists (COO format).
//!
//! The Graph500 specification hands its construction kernel "an unsorted
//! edge list stored in RAM"; this type is that list. It is also the common
//! interchange format of the dataset homogenizer: generators produce an
//! `EdgeList`, each engine constructs its own structure from it.

use crate::csr::{edge_balanced_cuts, on_workers, worker_range, workers};
use crate::{Csr, VertexId, Weight};
use epg_parallel::{DisjointWriter, ThreadPool};

/// An edge list with optional per-edge weights.
///
/// Invariant: if `weights` is `Some`, `weights.len() == edges.len()`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EdgeList {
    /// Number of vertices (vertex ids are `0..num_vertices`).
    pub num_vertices: usize,
    /// Directed edges `(src, dst)`.
    pub edges: Vec<(VertexId, VertexId)>,
    /// Optional weights, parallel to `edges`.
    pub weights: Option<Vec<Weight>>,
}

impl EdgeList {
    /// Creates an unweighted edge list.
    pub fn new(num_vertices: usize, edges: Vec<(VertexId, VertexId)>) -> Self {
        debug_assert!(edges
            .iter()
            .all(|&(u, v)| (u as usize) < num_vertices && (v as usize) < num_vertices));
        EdgeList { num_vertices, edges, weights: None }
    }

    /// Creates a weighted edge list. Panics if lengths differ.
    pub fn weighted(
        num_vertices: usize,
        edges: Vec<(VertexId, VertexId)>,
        weights: Vec<Weight>,
    ) -> Self {
        assert_eq!(edges.len(), weights.len(), "weights must parallel edges");
        EdgeList { num_vertices, edges, weights: Some(weights) }
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True if the list carries weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Weight of edge `i`, defaulting to 1.0 for unweighted lists.
    pub fn weight(&self, i: usize) -> Weight {
        self.weights.as_ref().map_or(1.0, |w| w[i])
    }

    /// Iterates `(src, dst, weight)` with weight 1.0 when unweighted.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.edges.iter().enumerate().map(move |(i, &(u, v))| (u, v, self.weight(i)))
    }

    /// Returns a copy with every edge also present reversed, making the
    /// graph symmetric (undirected). Self-loops are not duplicated.
    pub fn symmetrized(&self) -> EdgeList {
        let mut el = self.clone();
        el.symmetrize();
        el
    }

    /// Adds every non-loop edge's reverse in place: edge `(u, v)` becomes
    /// `(u, v), (v, u)` at its position, a self-loop stays once, and weights
    /// follow their edge. The list grows to its final length first and is
    /// filled back to front, so no second list is allocated: the write
    /// position never falls behind the edge being read.
    pub fn symmetrize(&mut self) {
        let m = self.edges.len();
        let len = m + self.edges.iter().filter(|&&(u, v)| u != v).count();
        let EdgeList { edges, weights, .. } = self;
        edges.resize(len, (0, 0));
        if let Some(ws) = weights.as_mut() {
            ws.resize(len, 0.0);
        }
        let mut j = len;
        for i in (0..m).rev() {
            let (u, v) = edges[i];
            let w = weights.as_ref().map(|ws| ws[i]);
            let mut put = |e| {
                j -= 1;
                edges[j] = e;
                if let (Some(ws), Some(w)) = (weights.as_mut(), w) {
                    ws[j] = w;
                }
            };
            if u != v {
                put((v, u));
            }
            put((u, v));
        }
        debug_assert_eq!(j, 0);
    }

    /// True if the list is what [`EdgeList::deduplicated`] returns: edges
    /// strictly ascending by `(src, dst)` and no self-loop. On the pool each
    /// worker checks a fixed edge range and the pair across its start.
    fn is_simple_sorted(&self, pool: Option<&ThreadPool>) -> bool {
        let (m, nworkers) = (self.edges.len(), workers(pool));
        let ranges_hold = on_workers(pool, |w| {
            let (lo, hi) = worker_range(m, w, nworkers);
            self.edges[lo..hi].iter().all(|&(u, v)| u != v)
                && self.edges[lo.saturating_sub(1)..hi].windows(2).all(|e| e[0] < e[1])
        });
        ranges_hold.into_iter().all(|holds| holds)
    }

    /// Removes duplicate edges and self-loops, leaving the edges ascending
    /// by `(src, dst)`; a duplicate keeps the weight of its **first
    /// occurrence in input order**. Used by homogenization for engines that
    /// require simple graphs. A list already in that form costs a linear
    /// check and a copy; any other, [`Csr`]'s counting build and a sort
    /// inside each adjacency list — never a sort over the whole array.
    pub fn deduplicated(&self) -> EdgeList {
        self.deduplicated_on(None)
    }

    /// [`EdgeList::deduplicated`], on `pool` when one is given and
    /// **byte-identical at every thread count**: the two-pass CSR build,
    /// the row squeeze [`crate::Dcsc`] shares over edge-balanced vertex
    /// cuts, then each cut counts the edges it keeps, the counts are
    /// scanned, and each cut writes its edges at its offset.
    pub fn deduplicated_on(&self, pool: Option<&ThreadPool>) -> EdgeList {
        if self.is_simple_sorted(pool) {
            return self.clone();
        }
        let mut g = Csr::build(self, pool);
        let kept = g.squeeze_rows(pool, false);
        // Row `u`'s kept entries ascend strictly, so at most one is `u -> u`.
        let row = |u: usize| g.offsets[u]..g.offsets[u] + kept[u];
        let cuts = edge_balanced_cuts(self.num_vertices, |u| g.offsets[u], workers(pool));
        let count = |lo, hi| {
            let has_loop = |u: usize| g.targets[row(u)].binary_search(&(u as VertexId)).is_ok();
            (lo..hi).map(|u| kept[u] - has_loop(u) as usize).sum()
        };
        let fill = |lo, hi, edges: &mut [_], mut weights: Option<&mut [Weight]>| {
            let mut at = 0;
            for u in lo..hi {
                for k in row(u).filter(|&k| g.targets[k] != u as VertexId) {
                    edges[at] = (u as VertexId, g.targets[k]);
                    if let (Some(ws), Some(from)) = (weights.as_deref_mut(), g.weights.as_ref()) {
                        ws[at] = from[k];
                    }
                    at += 1;
                }
            }
        };
        self.emitted(&cuts, pool, count, fill)
    }

    /// `self.symmetrized().deduplicated()` for a list `deduplicated`
    /// returned (checked), without the doubled list or a sort: its transpose
    /// ascends too, so every vertex's list is a two-way merge of its out-
    /// and in-neighbors. Of `(u, v)` and `(v, u)` the first in input order is
    /// the one with `src < dst`; the pair carries its weight both ways.
    pub fn undirected(&self) -> EdgeList {
        self.undirected_with_degrees(None).0
    }

    /// [`EdgeList::undirected`], on `pool` when one is given and
    /// **byte-identical at every thread count**, with every vertex's total
    /// degree in it — twice its list's length, the list holding no loop —
    /// for [`crate::degree::sample_roots_by_degree`]. The out-lists are read
    /// off the ascending list itself, the in-lists are its two-pass reversed
    /// CSR; each edge-balanced cut of vertices counts its merged lists, the
    /// counts are scanned, and each cut merges its lists again at its offset.
    pub fn undirected_with_degrees(&self, pool: Option<&ThreadPool>) -> (EdgeList, Vec<u32>) {
        assert!(self.is_simple_sorted(pool), "undirected() takes the output of deduplicated()");
        let n = self.num_vertices;
        let outs = self.source_offsets(pool);
        let ins = Csr::build_reversed(self, pool);
        // Vertex `u`'s out-edges and in-neighbors, both ascending.
        let lists = |u: usize| {
            (&self.edges[outs[u]..outs[u + 1]], &ins.targets[ins.offsets[u]..ins.offsets[u + 1]])
        };
        let cuts = edge_balanced_cuts(n, |u| outs[u] + ins.offsets[u], workers(pool));
        let mut degrees = vec![0u32; n];
        let dw = DisjointWriter::new(&mut degrees);
        let count = |lo, hi| {
            // SAFETY: the cuts' vertex ranges are disjoint.
            let degrees = unsafe { dw.range_mut(lo, hi) };
            let mut total = 0;
            for u in lo..hi {
                let (mut len, (fwd, rev)) = (0, lists(u));
                merge_ascending(fwd, rev, |_, _, _| len += 1);
                degrees[u - lo] = 2 * len as u32;
                total += len;
            }
            total
        };
        let fill = |lo, hi, edges: &mut [_], mut weights: Option<&mut [Weight]>| {
            let mut at = 0;
            for u in lo..hi {
                let (fwd, rev) = lists(u);
                merge_ascending(fwd, rev, |v, f, r| {
                    edges[at] = (u as VertexId, v);
                    if let (Some(ws), Some(out_ws), Some(in_ws)) =
                        (weights.as_deref_mut(), self.weights.as_ref(), ins.weights.as_ref())
                    {
                        let fwd = f.map(|f| out_ws[outs[u] + f]);
                        let rev = r.map(|r| in_ws[ins.offsets[u] + r]);
                        let first = if (u as VertexId) < v { fwd.or(rev) } else { rev.or(fwd) };
                        ws[at] = first.expect("v came from one of the two lists");
                    }
                    at += 1;
                });
            }
        };
        let el = self.emitted(&cuts, pool, count, fill);
        drop(dw);
        (el, degrees)
    }

    /// `offsets[u]..offsets[u + 1]` indexes `u`'s edges in a list ascending
    /// by source, read off the list in one pass over fixed edge ranges: the
    /// edge at `i` opens the rows after its predecessor's source up to its
    /// own, and the last range closes the rows after the last source.
    fn source_offsets(&self, pool: Option<&ThreadPool>) -> Vec<usize> {
        let (n, m, nworkers) = (self.num_vertices, self.edges.len(), workers(pool));
        let mut offsets = vec![0usize; n + 1];
        let ow = DisjointWriter::new(&mut offsets);
        on_workers(pool, |w| {
            let (lo, hi) = worker_range(m, w, nworkers);
            let tail = (w + 1 == nworkers).then_some(m);
            for i in (lo..hi).chain(tail) {
                let from = if i == 0 { 0 } else { self.edges[i - 1].0 as usize + 1 };
                let to = if i == m { n } else { self.edges[i].0 as usize };
                for u in from..=to {
                    // SAFETY: row `u` is opened by the one edge whose
                    // predecessor's source is below `u` and whose source is
                    // not, or by the tail: one index `i` of one range.
                    unsafe { ow.write_unchecked(u, i) };
                }
            }
        });
        drop(ow);
        offsets
    }

    /// The list of `self.num_vertices` whose edges the vertex cuts
    /// `cuts[w]..cuts[w + 1]` emit, in cut order: `count(lo, hi)` is how
    /// many edges the vertices `lo..hi` emit, and `fill(lo, hi, edges,
    /// weights)` writes exactly those into slices of that length. Counts,
    /// a scan of the per-cut totals, then the fill: both arrays are
    /// allocated once, at their final length, by the caller's thread.
    fn emitted(
        &self,
        cuts: &[usize],
        pool: Option<&ThreadPool>,
        count: impl Fn(usize, usize) -> usize + Sync,
        fill: impl Fn(usize, usize, &mut [(VertexId, VertexId)], Option<&mut [Weight]>) + Sync,
    ) -> EdgeList {
        let mut starts = vec![0];
        for total in on_workers(pool, |w| count(cuts[w], cuts[w + 1])) {
            starts.push(starts[starts.len() - 1] + total);
        }
        let m = starts[starts.len() - 1];
        let mut edges = vec![(0, 0); m];
        let mut weights = self.weights.as_ref().map(|_| vec![0.0; m]);
        {
            let ew = DisjointWriter::new(edges.as_mut_slice());
            let ww = weights.as_mut().map(|ws| DisjointWriter::new(ws.as_mut_slice()));
            on_workers(pool, |w| {
                let (lo, hi) = (starts[w], starts[w + 1]);
                // SAFETY: the cuts' slot ranges `starts[w]..starts[w + 1]`
                // are disjoint.
                let es = unsafe { ew.range_mut(lo, hi) };
                // SAFETY: as above.
                let ws = ww.as_ref().map(|ww| unsafe { ww.range_mut(lo, hi) });
                fill(cuts[w], cuts[w + 1], es, ws);
            });
        }
        EdgeList { num_vertices: self.num_vertices, edges, weights }
    }

    /// Out-degree of every vertex.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for &(u, _) in &self.edges {
            deg[u as usize] += 1;
        }
        deg
    }

    /// Total degree (in + out) of every vertex; self-loops count twice.
    pub fn total_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        deg
    }

    /// Strips weights, if any.
    pub fn unweighted(&self) -> EdgeList {
        EdgeList { num_vertices: self.num_vertices, edges: self.edges.clone(), weights: None }
    }

    /// Approximate resident size in bytes (the Graph500 input-kernel sizing).
    pub fn size_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<(VertexId, VertexId)>()
            + self.weights.as_ref().map_or(0, |w| w.len() * std::mem::size_of::<Weight>())
    }
}

/// Merges the targets of `fwd` and the ids of `rev`, both ascending:
/// `each(v, f, r)` for every id in either, ascending, with its index in
/// `fwd` and in `rev`, whichever hold it.
fn merge_ascending(
    fwd: &[(VertexId, VertexId)],
    rev: &[VertexId],
    mut each: impl FnMut(VertexId, Option<usize>, Option<usize>),
) {
    let (mut i, mut j) = (0, 0);
    loop {
        let (a, b) = (fwd.get(i).map(|e| e.1), rev.get(j).copied());
        let v = match (a, b) {
            (Some(a), Some(b)) => a.min(b),
            (Some(v), None) | (None, Some(v)) => v,
            (None, None) => return,
        };
        let (f, r) = ((a == Some(v)).then_some(i), (b == Some(v)).then_some(j));
        i += f.is_some() as usize;
        j += r.is_some() as usize;
        each(v, f, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::weighted(
            4,
            vec![(0, 1), (1, 2), (2, 3), (0, 1), (3, 3)],
            vec![0.5, 1.5, 2.5, 9.0, 4.0],
        )
    }

    #[test]
    fn basic_accessors() {
        let el = sample();
        assert_eq!(el.num_edges(), 5);
        assert!(el.is_weighted());
        assert_eq!(el.weight(2), 2.5);
        let unw = el.unweighted();
        assert!(!unw.is_weighted());
        assert_eq!(unw.weight(2), 1.0);
    }

    #[test]
    fn symmetrize_doubles_non_loops() {
        let el = sample();
        let sym = el.symmetrized();
        // 4 non-loop edges doubled + 1 self loop kept once = 9.
        assert_eq!(sym.num_edges(), 9);
        assert!(sym.edges.contains(&(1, 0)));
        assert!(sym.edges.contains(&(3, 2)));
        // Weights follow their edge.
        let idx = sym.edges.iter().position(|&e| e == (2, 1)).unwrap();
        assert_eq!(sym.weight(idx), 1.5);
        // Each reverse sits right after its edge, in input order.
        assert_eq!(
            sym.edges,
            [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (0, 1), (1, 0), (3, 3)]
        );
        assert_eq!(sym.weights, Some(vec![0.5, 0.5, 1.5, 1.5, 2.5, 2.5, 9.0, 9.0, 4.0]));
        // Loops first, loops only, unweighted, empty: in place as well.
        let mut loops_first = EdgeList::new(3, vec![(2, 2), (0, 0), (0, 2), (1, 1)]);
        loops_first.symmetrize();
        assert_eq!(loops_first.edges, [(2, 2), (0, 0), (0, 2), (2, 0), (1, 1)]);
        assert_eq!(loops_first.weights, None);
        let mut empty = EdgeList::weighted(2, vec![], vec![]);
        empty.symmetrize();
        assert_eq!(empty, EdgeList::weighted(2, vec![], vec![]));
    }

    #[test]
    fn dedup_removes_loops_and_duplicates() {
        let el = sample();
        let d = el.deduplicated();
        assert_eq!(d.num_edges(), 3);
        assert!(!d.edges.contains(&(3, 3)));
        // The (0,1) duplicate keeps the weight of its first occurrence.
        let idx = d.edges.iter().position(|&e| e == (0, 1)).unwrap();
        assert_eq!(d.weight(idx), 0.5);
    }

    #[test]
    fn dedup_of_a_simple_sorted_list_is_a_copy() {
        let simple =
            EdgeList::weighted(5, vec![(0, 1), (0, 4), (2, 1), (4, 3)], vec![1., 2., 3., 4.]);
        assert_eq!(simple.deduplicated(), simple);
        // One duplicate at the very end, and one self-loop, each take the
        // general path and come out as the simple list again.
        let with = |e: (VertexId, VertexId), w: Weight| {
            let mut el = simple.clone();
            el.edges.push(e);
            el.weights.as_mut().unwrap().push(w);
            el
        };
        for spoiled in [with((4, 3), 9.0), with((4, 4), 9.0)] {
            assert_eq!(spoiled.deduplicated(), simple);
        }
        assert_eq!(EdgeList::new(3, vec![]).deduplicated(), EdgeList::new(3, vec![]));
    }

    #[test]
    fn undirected_takes_the_weight_of_the_ascending_edge() {
        // (0,2) and (2,0) both present: both directions carry (0,2)'s weight.
        let el = EdgeList::weighted(3, vec![(0, 2), (1, 0), (2, 0)], vec![1.0, 2.0, 3.0]);
        let und = el.undirected();
        assert_eq!(und.edges, vec![(0, 1), (0, 2), (1, 0), (2, 0)]);
        assert_eq!(und.weights, Some(vec![2.0, 1.0, 2.0, 1.0]));
        assert_eq!(und, el.symmetrized().deduplicated());
    }

    #[test]
    #[should_panic(expected = "takes the output of deduplicated")]
    fn undirected_refuses_an_unsorted_list() {
        let _ = EdgeList::new(3, vec![(1, 2), (0, 1)]).undirected();
    }

    #[test]
    fn degrees() {
        let el = sample();
        assert_eq!(el.out_degrees(), vec![2, 1, 1, 1]);
        assert_eq!(el.total_degrees(), vec![2, 3, 2, 3]);
    }

    #[test]
    fn iter_yields_unit_weights_when_unweighted() {
        let el = EdgeList::new(3, vec![(0, 1), (1, 2)]);
        let ws: Vec<Weight> = el.iter().map(|(_, _, w)| w).collect();
        assert_eq!(ws, vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "weights must parallel edges")]
    fn weighted_length_mismatch_panics() {
        let _ = EdgeList::weighted(2, vec![(0, 1)], vec![]);
    }
}
