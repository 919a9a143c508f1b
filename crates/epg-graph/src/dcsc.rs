//! Doubly-compressed sparse column matrices.
//!
//! GraphMat stores the graph as a sparse matrix in DCSC (doubly-compressed
//! sparse column) form — only columns that actually contain nonzeros are
//! materialized — and expresses every algorithm as generalized sparse
//! matrix-vector products (§III-C item 4). This module is the storage half
//! of our mini-GraphBLAS; the semiring/SpMV half lives in
//! `epg-engine-graphmat`.

use crate::csr::Rows;
use crate::{Csr, EdgeList, VertexId, Weight};
use epg_parallel::ThreadPool;

/// A doubly-compressed sparse column matrix over `Weight`.
///
/// Semantics: entry `(r, c)` is an edge `c -> r`, so a column holds the
/// out-edges of one vertex and SpMV `y = A * x` propagates values along
/// edge direction (GraphMat's convention for push-style iteration is the
/// transpose). The engine keeps both orientations, one matrix for both
/// when its list is declared its own transpose
/// ([`crate::EdgeList::own_transpose`]; [`Dcsc::is_own_transpose`] checks
/// the declaration in debug builds).
#[derive(Clone, Debug, PartialEq)]
pub struct Dcsc {
    /// Matrix dimension (square: num_vertices).
    pub dim: usize,
    /// Ids of the non-empty columns, ascending.
    pub col_ids: Vec<VertexId>,
    /// `col_ptr[i]..col_ptr[i+1]` indexes `row_ids`/`values` for `col_ids[i]`.
    pub col_ptr: Vec<usize>,
    /// Row indices within each column, ascending within a column.
    pub row_ids: Vec<VertexId>,
    /// Nonzero values.
    pub values: Vec<Weight>,
}

impl Dcsc {
    /// Builds a DCSC matrix whose entry `(dst, src)` holds each edge's
    /// weight (1.0 when unweighted). Duplicate edges keep the last value in
    /// input order. The result does not depend on the pool's thread count.
    pub fn from_edge_list(el: &EdgeList, pool: &ThreadPool) -> Dcsc {
        Dcsc::compact(Csr::from_edge_list_parallel(el, pool), pool)
    }

    /// DCSC is CSR plus a compaction: every adjacency list of `g` becomes a
    /// column — strictly ascending, a duplicate keeping its last value — and
    /// the empty ones are dropped. `g`'s arrays are reused; entries move
    /// only behind a column that lost duplicates.
    fn compact(mut g: Csr, pool: &ThreadPool) -> Dcsc {
        let dim = g.num_vertices();
        let kept = g.squeeze_rows(Some(pool), true);
        let Csr { offsets, targets: mut row_ids, weights: mut values } = g;
        let mut col_ids = Vec::new();
        let mut col_ptr = vec![0usize];
        let mut at = 0;
        for (c, &len) in kept.iter().enumerate().filter(|&(_, &len)| len > 0) {
            let from = offsets[c];
            if from != at {
                row_ids.copy_within(from..from + len, at);
                if let Some(vals) = values.as_mut() {
                    vals.copy_within(from..from + len, at);
                }
            }
            at += len;
            col_ids.push(c as VertexId);
            col_ptr.push(at);
        }
        row_ids.truncate(at);
        let mut values = values.unwrap_or_else(|| vec![1.0; at]);
        values.truncate(at);
        Dcsc { dim, col_ids, col_ptr, row_ids, values }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_ids.len()
    }

    /// Number of materialized (non-empty) columns.
    pub fn num_nonempty_cols(&self) -> usize {
        self.col_ids.len()
    }

    /// Index of vertex `src`'s column among the materialized ones, if it
    /// has one. `col_ids` is ascending and distinct, so a column's index
    /// never exceeds its id: the first probe lands at `min(src, len - 1)`
    /// — a hit whenever every column up to `src` is materialized, as on
    /// symmetrized graphs — and the binary search only runs below it.
    pub fn col_index(&self, src: VertexId) -> Option<usize> {
        let top = (src as usize).min(self.col_ids.len().checked_sub(1)?);
        match self.col_ids[top].cmp(&src) {
            std::cmp::Ordering::Equal => Some(top),
            std::cmp::Ordering::Less => None,
            std::cmp::Ordering::Greater => self.col_ids[..top].binary_search(&src).ok(),
        }
    }

    /// Iterates the nonzeros of the column for vertex `src`, if materialized.
    pub fn column(&self, src: VertexId) -> &[VertexId] {
        match self.col_index(src) {
            Some(i) => &self.row_ids[self.col_ptr[i]..self.col_ptr[i + 1]],
            None => &[],
        }
    }

    /// Iterates `(row, value)` for materialized column index `i`
    /// (0-based over non-empty columns).
    pub fn col_entries(&self, i: usize) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        (self.col_ptr[i]..self.col_ptr[i + 1]).map(move |k| (self.row_ids[k], self.values[k]))
    }

    /// Iterates all nonzeros as `(row, col, value)`.
    pub fn triples(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.col_ids
            .iter()
            .enumerate()
            .flat_map(move |(i, &c)| self.col_entries(i).map(move |(r, v)| (r, c, v)))
    }

    /// Builds the transpose (edges reversed): a counting scatter of the
    /// nonzeros by row, read straight from the matrix's own arrays, then
    /// the same compaction — columns ascend here, so every transposed
    /// column arrives ascending and nothing is sorted.
    pub fn transpose(&self, pool: &ThreadPool) -> Dcsc {
        Dcsc::compact(self.columns().reversed(self.dim, Some(&self.values), Some(pool)), pool)
    }

    /// True when the matrix is its own transpose: `self.transpose(pool) ==
    /// *self`, values compared by bit pattern. Then every column holds the
    /// in-edges of its vertex as well as its out-edges, and one matrix
    /// serves both orientations. `O(V + E)` with one cursor per vertex,
    /// the same answer at every thread count: the check
    /// [`Csr::is_own_transpose`] makes, over the columns.
    pub fn is_own_transpose(&self, pool: &ThreadPool) -> bool {
        self.columns().is_own_transpose(self.dim, Some(&self.values), pool)
    }

    fn columns(&self) -> Rows<'_> {
        Rows { ptr: &self.col_ptr, ids: Some(&self.col_ids), targets: &self.row_ids }
    }

    /// Approximate resident size in bytes. DCSC's advantage over CSR — no
    /// O(V) offsets array when few columns are populated — is visible here.
    pub fn size_bytes(&self) -> usize {
        self.col_ids.len() * std::mem::size_of::<VertexId>()
            + self.col_ptr.len() * std::mem::size_of::<usize>()
            + self.row_ids.len() * std::mem::size_of::<VertexId>()
            + self.values.len() * std::mem::size_of::<Weight>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(el: &EdgeList) -> Dcsc {
        Dcsc::from_edge_list(el, &ThreadPool::new(2))
    }

    fn sample() -> EdgeList {
        EdgeList::weighted(
            6,
            vec![(0, 1), (0, 3), (4, 2), (4, 5), (4, 0)],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
    }

    #[test]
    fn compresses_empty_columns() {
        let m = build(&sample());
        assert_eq!(m.dim, 6);
        assert_eq!(m.nnz(), 5);
        // Only vertices 0 and 4 have out-edges.
        assert_eq!(m.num_nonempty_cols(), 2);
        assert_eq!(m.col_ids, vec![0, 4]);
    }

    #[test]
    fn column_lookup() {
        let m = build(&sample());
        assert_eq!(m.column(0), &[1, 3]);
        assert_eq!(m.column(4), &[0, 2, 5]);
        assert_eq!(m.column(1), &[] as &[VertexId]);
        assert_eq!(m.column(5), &[] as &[VertexId]);
    }

    #[test]
    fn col_index_probes_at_the_id_then_searches_below() {
        // Columns 2, 3, 7, 9 of a 12-vertex matrix: indices 0..4.
        let el = EdgeList::new(12, vec![(2, 0), (3, 0), (7, 1), (9, 11), (9, 4)]);
        let m = build(&el);
        assert_eq!(m.col_ids, vec![2, 3, 7, 9]);
        for (i, &c) in m.col_ids.iter().enumerate() {
            assert_eq!(m.col_index(c), Some(i), "stored column {c}");
        }
        assert_eq!(m.col_index(9), Some(3)); // last column, id >= len
        assert_eq!(m.col_index(0), None); // below the stored ids
        assert_eq!(m.col_index(1), None);
        assert_eq!(m.col_index(5), None); // between, id >= len
        assert_eq!(m.col_index(8), None);
        assert_eq!(m.col_index(10), None); // above
        assert_eq!(m.col_index(VertexId::MAX), None);
        // Every column materialized: the first probe is the answer.
        let full = build(&EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0)]));
        assert_eq!(
            (0..4).map(|v| full.col_index(v)).collect::<Vec<_>>(),
            [Some(0), Some(1), Some(2), None]
        );
        // A hole below the id, inside the index range: columns 0, 2, 3.
        let holed = build(&EdgeList::new(4, vec![(0, 1), (2, 1), (3, 1)]));
        assert_eq!(
            (0..4).map(|v| holed.col_index(v)).collect::<Vec<_>>(),
            [Some(0), None, Some(1), Some(2)]
        );
        let empty = build(&EdgeList::new(4, vec![]));
        assert_eq!(empty.col_index(0), None);
        assert_eq!(empty.col_index(3), None);
    }

    #[test]
    fn triples_are_the_edge_list() {
        let el = sample();
        let mut a: Vec<_> = el.iter().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        let mut b: Vec<_> = build(&el).triples().map(|(r, c, w)| (c, r, w.to_bits())).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn transpose_involution() {
        let pool = ThreadPool::new(2);
        let m = Dcsc::from_edge_list(&sample(), &pool);
        assert_eq!(m.transpose(&pool).transpose(&pool), m);
    }

    #[test]
    fn duplicate_edges_deduplicate() {
        let el = EdgeList::weighted(3, vec![(0, 1), (0, 1)], vec![1.0, 2.0]);
        let m = build(&el);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.values, vec![2.0], "the last value in input order is the one kept");
    }

    #[test]
    fn empty_matrix() {
        let m = build(&EdgeList::new(4, vec![]));
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.num_nonempty_cols(), 0);
        assert_eq!(m.column(2), &[] as &[VertexId]);
    }

    #[test]
    fn unweighted_values_are_one() {
        let m = build(&EdgeList::new(3, vec![(1, 2)]));
        assert_eq!(m.values, vec![1.0]);
    }
}
