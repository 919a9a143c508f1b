//! openG-style property graph storage.
//!
//! GraphBIG is built on IBM System G's `openG` framework, which — unlike
//! the flat CSR of GAP/Graph500 — stores a vector of vertex objects whose
//! adjacency lives in **linked lists** (`std::list` in openG) so that the
//! graph can mutate dynamically. The pointer-chasing this causes is a real
//! architectural property the paper's comparison exposes (GraphBIG's wide
//! performance variation and its slow kernels at scale, §IV-C), so we
//! reproduce it with arena-backed linked lists rather than aliasing CSR.
//!
//! What is modelled is the list walk and the fat vertex record: every
//! traversal follows `next` from the vertex's head, one dependent load per
//! edge, and a vertex carries its list ends, degrees and properties inline.
//! Where the cells sit is *not* part of the model. openG's vertex objects
//! own their edge containers, so neither direction's list is scattered by
//! the order edges arrived in: [`PropertyGraph::from_edge_list`] places each
//! vertex's cells in one run of the arena, in list order, for out- and
//! in-lists alike. [`PropertyGraph::add_edge`] is the dynamic-mutation path:
//! it appends one cell at the arena's end and links it from the list's tail,
//! before or after a bulk build, and never moves an existing cell.

use crate::{EdgeList, VertexId, Weight};

/// Arena index sentinel for "end of list".
const NIL: u32 = u32::MAX;

/// Mutable per-vertex algorithm properties, mirroring openG's pattern of
/// attaching a property record to every vertex.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VertexProperty {
    /// BFS/SSSP parent.
    pub parent: VertexId,
    /// BFS level or SSSP distance.
    pub distance: Weight,
    /// PageRank value / CDLP label / WCC component, depending on kernel.
    pub value: f64,
    /// Scratch value for the next iteration.
    pub next_value: f64,
    /// Visited/active flag.
    pub active: bool,
}

/// One out-edge list node.
#[derive(Clone, Debug)]
struct EdgeCell {
    target: VertexId,
    weight: Weight,
    next: u32,
}

/// One in-edge list node.
#[derive(Clone, Debug)]
struct InCell {
    source: VertexId,
    next: u32,
}

/// One vertex record: properties plus linked-list heads/tails.
#[derive(Clone, Debug)]
pub struct VertexRecord {
    out_head: u32,
    out_tail: u32,
    out_degree: u32,
    in_head: u32,
    in_tail: u32,
    in_degree: u32,
    /// Algorithm property record.
    pub prop: VertexProperty,
}

impl Default for VertexRecord {
    fn default() -> Self {
        VertexRecord {
            out_head: NIL,
            out_tail: NIL,
            out_degree: 0,
            in_head: NIL,
            in_tail: NIL,
            in_degree: 0,
            prop: VertexProperty::default(),
        }
    }
}

/// The property graph: a vector of vertex objects over edge arenas.
#[derive(Clone, Debug, Default)]
pub struct PropertyGraph {
    /// All vertex records, indexed by `VertexId`.
    pub vertices: Vec<VertexRecord>,
    out_arena: Vec<EdgeCell>,
    in_arena: Vec<InCell>,
}

impl PropertyGraph {
    /// Creates an empty graph with `n` isolated vertices.
    pub fn with_vertices(n: usize) -> PropertyGraph {
        PropertyGraph {
            vertices: vec![VertexRecord::default(); n],
            out_arena: Vec::new(),
            in_arena: Vec::new(),
        }
    }

    /// Inserts one directed edge: openG's dynamic-mutation path, usable on
    /// an empty graph or after a bulk build. The new cells go at the arenas'
    /// ends and are linked from the two lists' tails, so insertion order is
    /// preserved per vertex and no existing cell moves.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, w: Weight) {
        // One edge is one cell in each arena, so both cells share an index.
        let cell = cell_index(self.out_arena.len());
        self.out_arena.push(EdgeCell { target: dst, weight: w, next: NIL });
        let rec = &mut self.vertices[src as usize];
        if rec.out_tail == NIL {
            rec.out_head = cell;
        } else {
            self.out_arena[rec.out_tail as usize].next = cell;
        }
        rec.out_tail = cell;
        rec.out_degree += 1;

        self.in_arena.push(InCell { source: src, next: NIL });
        let rec = &mut self.vertices[dst as usize];
        if rec.in_tail == NIL {
            rec.in_head = cell;
        } else {
            self.in_arena[rec.in_tail as usize].next = cell;
        }
        rec.in_tail = cell;
        rec.in_degree += 1;
    }

    /// Builds the graph from a whole edge list — what the GraphBIG engine
    /// does with its parsed input file, which is why its file read and
    /// construction cannot be timed apart (§III-B). A stable two-pass
    /// counting build: degrees are counted into the vertex records and
    /// prefix-summed into list heads, then every edge's two cells are placed
    /// at their vertices' cursors. Each list is therefore one contiguous run
    /// of its arena, in the same per-vertex order `add_edge` × m would give.
    pub fn from_edge_list(el: &EdgeList) -> PropertyGraph {
        let m = el.num_edges();
        cell_index(m); // the cursors below count up to `m`
        let mut vertices = vec![VertexRecord::default(); el.num_vertices];
        for &(u, v) in &el.edges {
            vertices[u as usize].out_degree += 1;
            vertices[v as usize].in_degree += 1;
        }
        let (mut out_at, mut in_at) = (0, 0);
        for rec in &mut vertices {
            if rec.out_degree > 0 {
                rec.out_head = out_at;
                out_at += rec.out_degree;
            }
            if rec.in_degree > 0 {
                rec.in_head = in_at;
                in_at += rec.in_degree;
            }
        }
        let mut out_arena = vec![EdgeCell { target: 0, weight: 0.0, next: NIL }; m];
        let mut in_arena = vec![InCell { source: 0, next: NIL }; m];
        // `tail` is the cursor: the last cell placed so far, NIL before the
        // first — the same meaning `add_edge` gives it.
        for (u, v, w) in el.iter() {
            let rec = &mut vertices[u as usize];
            let at = if rec.out_tail == NIL { rec.out_head } else { rec.out_tail + 1 };
            let next = if at + 1 < rec.out_head + rec.out_degree { at + 1 } else { NIL };
            out_arena[at as usize] = EdgeCell { target: v, weight: w, next };
            rec.out_tail = at;

            let rec = &mut vertices[v as usize];
            let at = if rec.in_tail == NIL { rec.in_head } else { rec.in_tail + 1 };
            let next = if at + 1 < rec.in_head + rec.in_degree { at + 1 } else { NIL };
            in_arena[at as usize] = InCell { source: u, next };
            rec.in_tail = at;
        }
        PropertyGraph { vertices, out_arena, in_arena }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.out_arena.len()
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.vertices[v as usize].out_degree as usize
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.vertices[v as usize].in_degree as usize
    }

    /// Out-neighbors of `v` with weights, walked through the linked list.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let mut cur = self.vertices[v as usize].out_head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let cell = &self.out_arena[cur as usize];
                cur = cell.next;
                Some((cell.target, cell.weight))
            }
        })
    }

    /// In-neighbor sources of `v`, walked through the linked list.
    pub fn in_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let mut cur = self.vertices[v as usize].in_head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let cell = &self.in_arena[cur as usize];
                cur = cell.next;
                Some(cell.source)
            }
        })
    }

    /// Bytes held by the vertex records and both arenas; larger than a CSR
    /// of the same graph because every cell carries a link and every vertex
    /// its list ends and properties. A figure for tests and reports only.
    pub fn size_bytes(&self) -> usize {
        self.vertices.len() * std::mem::size_of::<VertexRecord>()
            + self.out_arena.len() * std::mem::size_of::<EdgeCell>()
            + self.in_arena.len() * std::mem::size_of::<InCell>()
    }
}

/// The index of the cell that follows `len` existing ones. Cell indices
/// are `u32` and `u32::MAX` marks the end of a list, so an arena that would
/// reach it is refused instead of aliasing the sentinel or wrapping.
fn cell_index(len: usize) -> u32 {
    assert!(
        len < NIL as usize,
        "PropertyGraph cannot index cell {len}: cell indices are u32 and must stay below the \
         end-of-list sentinel u32::MAX ({NIL})"
    );
    len as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let el = EdgeList::weighted(4, vec![(0, 1), (1, 2), (1, 3)], vec![0.5, 1.0, 2.0]);
        let g = PropertyGraph::from_edge_list(&el);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(1), 2);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![(1, 0.5)]);
        assert_eq!(g.in_neighbors(2).collect::<Vec<_>>(), vec![1]);
        assert_eq!(g.in_neighbors(0).count(), 0);
    }

    #[test]
    fn insertion_order_preserved_per_vertex() {
        let mut g = PropertyGraph::with_vertices(4);
        g.add_edge(0, 3, 1.0);
        g.add_edge(1, 2, 2.0); // interleaved: `add_edge` appends in arrival order
        g.add_edge(0, 1, 3.0);
        g.add_edge(0, 2, 4.0);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![(3, 1.0), (1, 3.0), (2, 4.0)]);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![(2, 2.0)]);
    }

    /// What a graph *is*, wherever its cells sit: every vertex's two list
    /// walks.
    type Lists = Vec<(Vec<(VertexId, Weight)>, Vec<VertexId>)>;

    fn lists(g: &PropertyGraph) -> Lists {
        (0..g.num_vertices() as VertexId)
            .map(|v| (g.neighbors(v).collect(), g.in_neighbors(v).collect()))
            .collect()
    }

    #[test]
    fn incremental_insertion_matches_bulk() {
        // Arrival order interleaves the lists, so the two builds place their
        // cells differently; they must hold the same lists.
        let el = EdgeList::new(3, vec![(2, 1), (0, 1), (2, 0), (0, 2), (2, 1)]);
        let bulk = PropertyGraph::from_edge_list(&el);
        let mut inc = PropertyGraph::with_vertices(3);
        for (u, v, w) in el.iter() {
            inc.add_edge(u, v, w);
        }
        assert_ne!(bulk.vertices[2].in_head, inc.vertices[2].in_head, "placements differ");
        assert_eq!(lists(&bulk), lists(&inc));
        assert_eq!(lists(&bulk)[2].0, vec![(1, 1.0), (0, 1.0), (1, 1.0)]);
        assert_eq!(lists(&bulk)[1].1, vec![2, 0, 2]);
    }

    /// Every list is `head, head + 1, …, tail` in list order.
    fn assert_runs_contiguous(g: &PropertyGraph) {
        let out_next: Vec<u32> = g.out_arena.iter().map(|c| c.next).collect();
        let in_next: Vec<u32> = g.in_arena.iter().map(|c| c.next).collect();
        for (v, rec) in g.vertices.iter().enumerate() {
            for (head, tail, degree, next) in [
                (rec.out_head, rec.out_tail, rec.out_degree, &out_next),
                (rec.in_head, rec.in_tail, rec.in_degree, &in_next),
            ] {
                if degree == 0 {
                    assert_eq!((head, tail), (NIL, NIL), "vertex {v}: empty list");
                    continue;
                }
                assert_eq!(head + degree - 1, tail, "vertex {v}: run length");
                for at in head..tail {
                    assert_eq!(next[at as usize], at + 1, "vertex {v}: cell {at}");
                }
                assert_eq!(next[tail as usize], NIL, "vertex {v}: last cell");
            }
        }
    }

    #[test]
    fn bulk_build_lays_every_list_in_one_run() {
        // A multigraph with duplicates, self-loops and isolated vertices, in
        // an arrival order that interleaves every list.
        let n = 23;
        let mut x = 0x9e37_79b9_u32;
        let mut step = || {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 16) % 17 // vertices 17..23 stay isolated
        };
        let edges: Vec<_> = (0..400).map(|_| (step(), step())).collect();
        assert!(edges.iter().any(|&(u, v)| u == v));
        let g = PropertyGraph::from_edge_list(&EdgeList::new(n, edges));
        assert_runs_contiguous(&g);
        assert_eq!(g.num_edges(), 400);

        assert_runs_contiguous(&PropertyGraph::from_edge_list(&EdgeList::new(0, vec![])));
        assert_runs_contiguous(&PropertyGraph::from_edge_list(&EdgeList::new(5, vec![])));
    }

    #[test]
    fn add_edge_after_bulk_links_from_the_tail_and_moves_nothing() {
        let el = EdgeList::new(4, vec![(1, 0), (0, 2), (1, 2), (0, 1)]);
        let mut g = PropertyGraph::from_edge_list(&el);
        let before = g.clone();
        g.add_edge(0, 2, 7.0);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![(2, 1.0), (1, 1.0), (2, 7.0)]);
        assert_eq!(g.in_neighbors(2).collect::<Vec<_>>(), vec![0, 1, 0]);
        // The new cells are at the arenas' ends; every old cell is where it
        // was, and only the two tails' links changed.
        assert_eq!(g.vertices[0].out_tail, 4);
        assert_eq!(g.vertices[2].in_tail, 4);
        for at in 0..4 {
            assert_eq!(g.out_arena[at].target, before.out_arena[at].target);
            assert_eq!(g.in_arena[at].source, before.in_arena[at].source);
        }
        for v in [1, 3] {
            assert!(g.neighbors(v).eq(before.neighbors(v)));
            assert!(g.in_neighbors(v).eq(before.in_neighbors(v)));
        }
    }

    #[test]
    fn cell_index_stops_short_of_the_sentinel() {
        // Stub lengths stand in for a four-billion-edge arena: this is the
        // check `from_edge_list` makes on `m` and `add_edge` on each cell.
        assert_eq!(cell_index(0), 0);
        assert_eq!(cell_index(NIL as usize - 1), NIL - 1);
        for len in [NIL as usize, usize::MAX] {
            let err = std::panic::catch_unwind(|| cell_index(len)).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("u32::MAX") && msg.contains(&len.to_string()), "{msg}");
        }
    }

    #[test]
    fn degrees_track_insertions() {
        let el = EdgeList::new(5, vec![(0, 1), (0, 2), (3, 0), (4, 0), (1, 0)]);
        let g = PropertyGraph::from_edge_list(&el);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 3);
        assert_eq!(g.in_neighbors(0).collect::<Vec<_>>(), vec![3, 4, 1]);
    }

    #[test]
    fn property_graph_is_bigger_than_flat() {
        let edges: Vec<_> =
            (0..100).map(|i| (i as VertexId, ((i + 1) % 100) as VertexId)).collect();
        let el = EdgeList::new(100, edges);
        let pg = PropertyGraph::from_edge_list(&el);
        let csr = crate::Csr::from_edge_list(&el);
        assert!(pg.size_bytes() > csr.size_bytes());
    }

    #[test]
    fn self_loops_count_in_both_directions() {
        let mut g = PropertyGraph::with_vertices(2);
        g.add_edge(1, 1, 0.5);
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.in_degree(1), 1);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![(1, 0.5)]);
    }
}
