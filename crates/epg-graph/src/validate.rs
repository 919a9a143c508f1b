//! Result validation in the style of the Graph500 specification.
//!
//! Graph500 Benchmark 1 requires every BFS run to be validated against five
//! structural properties of the returned parent tree, outside the timed
//! kernel. The harness runs these on every engine's BFS output after the
//! trial's clock stops; integration tests run them too.
//!
//! # Algorithm
//!
//! [`validate_bfs_tree`] is linear in vertices plus edges:
//!
//! 1. **Levels** (serial, O(n)): every vertex with a parent walks up to the
//!    first vertex whose level is known, through one reused path buffer,
//!    and the path is labelled on the way back down. A level array the
//!    search reported alongside its tree must equal these, vertex by
//!    vertex (unreached is `u32::MAX` on both sides).
//! 2. **Edge scan** (O(m), the only part [`validate_bfs_tree_parallel`]
//!    spreads over the pool): each edge `(u, v)` is checked against rules
//!    4 and 5, and `v` is flagged when `parent[v] == u` — the tree edge
//!    `parent[v] -> v` exists in the graph.
//! 3. **Vertex pass** (serial, O(n)): a reached vertex whose flag is unset
//!    has a phantom tree edge (rule 2); its level must be its parent's
//!    plus one (rule 3).
//!
//! # Error precedence
//!
//! One input has one verdict, whichever driver and thread count produced
//! it: [`ValidationError::BadRoot`]; else the `BrokenTree` of the lowest
//! start vertex whose walk fails; else the `WrongLevel` of the lowest
//! vertex, when a level array is given; else the `PhantomEdge` / `LevelSkew` of
//! the lowest vertex; else the first `EdgeSpansLevels` / `Unreached` in
//! ascending `(u, position in u's adjacency)`.

use crate::{Csr, VertexId, Weight, INF_DIST, NO_VERTEX};
use epg_parallel::{Schedule, ThreadPool};
use std::sync::atomic::{AtomicBool, Ordering};

/// A validation failure, identifying which spec rule was violated.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// Rule 1: the BFS tree contains a cycle or a vertex claims an
    /// out-of-range parent.
    BrokenTree {
        /// Vertex at which the walk to the root failed.
        vertex: VertexId,
    },
    /// Rule 2: tree edge (parent(v), v) does not exist in the graph.
    PhantomEdge {
        /// Child vertex of the phantom tree edge.
        vertex: VertexId,
        /// Claimed parent.
        parent: VertexId,
    },
    /// Rule 3: levels of tree neighbors differ by more than one, or a
    /// vertex's level is not parent's level + 1.
    LevelSkew {
        /// Vertex whose level is inconsistent with its parent's.
        vertex: VertexId,
    },
    /// Rule 4: a graph edge spans more than one BFS level.
    EdgeSpansLevels {
        /// Edge source.
        src: VertexId,
        /// Edge destination.
        dst: VertexId,
    },
    /// Rule 5: a vertex in the root's component was not reached.
    Unreached {
        /// The unreached vertex.
        vertex: VertexId,
    },
    /// The root's own entry is malformed.
    BadRoot,
    /// The reported level of a vertex is not the one its parent chain
    /// gives it.
    WrongLevel {
        /// First vertex whose reported level disagrees.
        vertex: VertexId,
        /// The level the search reported.
        reported: u32,
        /// The level the parent tree gives (`u32::MAX`: unreached).
        derived: u32,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::BrokenTree { vertex } => write!(f, "cycle/invalid parent at {vertex}"),
            ValidationError::PhantomEdge { vertex, parent } => {
                write!(f, "tree edge ({parent},{vertex}) not in graph")
            }
            ValidationError::LevelSkew { vertex } => write!(f, "level skew at {vertex}"),
            ValidationError::EdgeSpansLevels { src, dst } => {
                write!(f, "edge ({src},{dst}) spans >1 level")
            }
            ValidationError::Unreached { vertex } => write!(f, "vertex {vertex} unreached"),
            ValidationError::BadRoot => write!(f, "root entry malformed"),
            ValidationError::WrongLevel { vertex, reported, derived } => {
                write!(f, "level[{vertex}] = {reported}, but the parent tree puts it at {derived}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates a BFS parent array against the (assumed symmetric) graph,
/// per the Graph500 Benchmark 1 validation rules. `parent[root]` must be
/// `root` or `NO_VERTEX`; an out-of-range `root` is a
/// [`ValidationError::BadRoot`].
pub fn validate_bfs_tree(
    g: &Csr,
    root: VertexId,
    parent: &[VertexId],
) -> Result<(), ValidationError> {
    check_tree(g, root, parent, None, |scan| scan.range(0, g.num_vertices()))
}

/// [`validate_bfs_tree`] with the edge scan spread over `pool`; the same
/// verdict at every thread count. When the search's `level` array is
/// given, it must also equal the levels the parent tree implies
/// ([`ValidationError::WrongLevel`]); it must then have one entry per
/// vertex, like `parent`. A cancel token that trips on the pool abandons
/// ranges of the scan, so the verdict of a cancelled pool means nothing —
/// callers running under a token check `pool.is_cancelled()`.
pub fn validate_bfs_tree_parallel(
    g: &Csr,
    root: VertexId,
    parent: &[VertexId],
    level: Option<&[u32]>,
    pool: &ThreadPool,
) -> Result<(), ValidationError> {
    check_tree(g, root, parent, level, |scan| {
        pool.parallel_reduce_ranges(
            g.num_vertices(),
            Schedule::Guided { min_chunk: 64 },
            || None,
            |lo, hi| scan.range(lo, hi),
            // Ranges are disjoint in `u`, so the lowest `u` is the first
            // fault of the serial scan.
            |a, b| [a, b].into_iter().flatten().min_by_key(|&(u, _)| u),
        )
    })
}

/// The first rule-4/5 violation of an edge scan, with the source vertex of
/// the offending edge (the reduction's key).
type EdgeFault = Option<(VertexId, ValidationError)>;

/// The per-range kernel both drivers run.
struct EdgeScan<'a> {
    g: &'a Csr,
    parent: &'a [VertexId],
    level: &'a [u32],
    /// `in_graph[v]`: the scan met the edge `parent[v] -> v`.
    in_graph: &'a [AtomicBool],
}

impl EdgeScan<'_> {
    /// Scans the out-edges of `lo..hi`. Flags are marked for the whole
    /// range even past its first fault: the vertex pass outranks it.
    fn range(&self, lo: usize, hi: usize) -> EdgeFault {
        let mut fault = None;
        for u in lo as VertexId..hi as VertexId {
            let lu = self.level[u as usize];
            for &v in self.g.neighbors(u) {
                if self.parent[v as usize] == u {
                    // Relaxed: the flag publishes nothing but itself, and
                    // the region join orders it before the vertex pass.
                    self.in_graph[v as usize].store(true, Ordering::Relaxed);
                }
                if fault.is_some() {
                    continue;
                }
                // Rule 4: graph edges connect vertices whose levels differ
                // by <= 1, and (rule 5) never reached with unreached.
                let lv = self.level[v as usize];
                match (lu == u32::MAX, lv == u32::MAX) {
                    (true, true) => {}
                    (false, false) => {
                        if lu.abs_diff(lv) > 1 {
                            fault = Some((u, ValidationError::EdgeSpansLevels { src: u, dst: v }));
                        }
                    }
                    _ => {
                        let vertex = if lu == u32::MAX { u } else { v };
                        fault = Some((u, ValidationError::Unreached { vertex }));
                    }
                }
            }
        }
        fault
    }
}

/// Derives levels by walking up parents to the first vertex with a known
/// level. A walk longer than `n` has met a cycle.
fn derive_levels(root: VertexId, parent: &[VertexId]) -> Result<Vec<u32>, ValidationError> {
    let n = parent.len();
    let mut level = vec![u32::MAX; n];
    level[root as usize] = 0;
    let mut path = Vec::new();
    for v0 in 0..n as VertexId {
        if parent[v0 as usize] == NO_VERTEX || level[v0 as usize] != u32::MAX {
            continue;
        }
        path.clear();
        path.push(v0);
        let mut v = v0;
        loop {
            let p = parent[v as usize];
            if p == NO_VERTEX || p as usize >= n {
                return Err(ValidationError::BrokenTree { vertex: v });
            }
            if level[p as usize] != u32::MAX {
                break;
            }
            if path.len() > n {
                return Err(ValidationError::BrokenTree { vertex: v0 });
            }
            path.push(p);
            v = p;
        }
        let mut l = level[parent[v as usize] as usize];
        for &u in path.iter().rev() {
            l += 1;
            level[u as usize] = l;
        }
    }
    Ok(level)
}

/// The validation both drivers share; `drive` runs the edge scan over
/// `0..n` its own way and returns the fault with the lowest source.
/// `reported`, when given, is compared with the derived levels.
fn check_tree(
    g: &Csr,
    root: VertexId,
    parent: &[VertexId],
    reported: Option<&[u32]>,
    drive: impl FnOnce(&EdgeScan<'_>) -> EdgeFault,
) -> Result<(), ValidationError> {
    let n = g.num_vertices();
    assert_eq!(parent.len(), n, "parent array length mismatch");
    match parent.get(root as usize) {
        Some(&p) if p == root || p == NO_VERTEX => {}
        _ => return Err(ValidationError::BadRoot),
    }
    let level = derive_levels(root, parent)?;
    if let Some(reported) = reported {
        assert_eq!(reported.len(), n, "level array length mismatch");
        if let Some(v) = (0..n).find(|&v| reported[v] != level[v]) {
            return Err(ValidationError::WrongLevel {
                vertex: v as VertexId,
                reported: reported[v],
                derived: level[v],
            });
        }
    }
    let in_graph: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let fault = drive(&EdgeScan { g, parent, level: &level, in_graph: &in_graph });

    // Rule 2 + 3: every tree edge exists and connects consecutive levels.
    for v in 0..n as VertexId {
        let p = parent[v as usize];
        if p == NO_VERTEX || v == root {
            continue;
        }
        if !in_graph[v as usize].load(Ordering::Relaxed) {
            return Err(ValidationError::PhantomEdge { vertex: v, parent: p });
        }
        if level[v as usize] != level[p as usize] + 1 {
            return Err(ValidationError::LevelSkew { vertex: v });
        }
    }
    fault.map_or(Ok(()), |(_, e)| Err(e))
}

/// Validates SSSP distances for positive weights: `dist[root] == 0`; no
/// edge can further relax any distance (no overestimate, and nothing
/// reachable is left unreached); and every other reached vertex has an
/// in-edge `(u, v, w)` with `dist[u] + w == dist[v]`, so each distance is
/// the length of some path (no underestimate). Both comparisons allow 1e-4
/// for differing f32 summation orders across engines. A `dist` of the
/// wrong length or an out-of-range `root` is an `Err`.
pub fn validate_sssp_distances(g: &Csr, root: VertexId, dist: &[Weight]) -> Result<(), String> {
    const TOLERANCE: Weight = 1e-4;
    let n = g.num_vertices();
    if dist.len() != n {
        return Err(format!("{} distances for {n} vertices", dist.len()));
    }
    match dist.get(root as usize) {
        None => return Err(format!("root {root} out of range for {n} vertices")),
        Some(&d) if d != 0.0 => return Err(format!("dist[root] = {d} != 0")),
        Some(_) => {}
    }
    // `tight[v]`: an edge into `v` has `dist[u] + w == dist[v]`.
    let mut tight = vec![false; n];
    tight[root as usize] = true;
    for u in 0..n as VertexId {
        if dist[u as usize] == INF_DIST {
            continue;
        }
        for (v, w) in g.neighbors_weighted(u) {
            let via = dist[u as usize] + w;
            if dist[v as usize] > via + TOLERANCE {
                return Err(format!(
                    "edge ({u},{v},{w}) relaxes dist[{v}]: {} > {} + {w}",
                    dist[v as usize], dist[u as usize]
                ));
            }
            if dist[v as usize] >= via - TOLERANCE {
                tight[v as usize] = true;
            }
        }
    }
    match (0..n).find(|&v| dist[v] != INF_DIST && !tight[v]) {
        Some(v) => Err(format!(
            "dist[{v}] = {} is shorter than every path: no edge (u,{v},w) has dist[u] + w = \
             dist[{v}]",
            dist[v]
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{oracle, EdgeList};

    fn ring(n: usize) -> Csr {
        let edges: Vec<_> = (0..n as VertexId).map(|v| (v, (v + 1) % n as VertexId)).collect();
        Csr::from_edge_list(&EdgeList::new(n, edges).symmetrized())
    }

    #[test]
    fn oracle_bfs_tree_validates() {
        let g = ring(16);
        let r = oracle::bfs(&g, 3);
        validate_bfs_tree(&g, 3, &r.parent).unwrap();
    }

    #[test]
    fn detects_cycle_in_tree() {
        let g = ring(4);
        // 1 and 2 point at each other: cycle not reaching the root.
        let parent = vec![NO_VERTEX, 2, 1, 0];
        let err = validate_bfs_tree(&g, 0, &parent).unwrap_err();
        assert!(matches!(err, ValidationError::BrokenTree { .. }));
    }

    #[test]
    fn detects_phantom_edge() {
        let g = ring(6);
        let mut r = oracle::bfs(&g, 0);
        r.parent[3] = 0; // (0,3) is not an edge of a 6-ring
        let err = validate_bfs_tree(&g, 0, &r.parent).unwrap_err();
        assert!(matches!(err, ValidationError::PhantomEdge { .. }));
    }

    #[test]
    fn detects_unreached_vertex_in_component() {
        let g = ring(5);
        let mut r = oracle::bfs(&g, 0);
        r.parent[2] = NO_VERTEX; // pretend 2 was never reached
        let err = validate_bfs_tree(&g, 0, &r.parent).unwrap_err();
        assert!(matches!(err, ValidationError::Unreached { .. }));
    }

    #[test]
    fn detects_level_skew() {
        // Ring of 8 rooted at 0; claim parent[4] = 3 but make 4's level wrong
        // by attaching 3 to the root directly... simplest: corrupt parent of 2
        // to be 0's neighbor 7 creating level mismatch on a valid edge.
        let g = ring(8);
        let mut r = oracle::bfs(&g, 0);
        // Path 0-1-2; set parent[2]=3 where 3 has level 3: edge (3,2) exists,
        // but level(2) must then be 4 while edge (1,2) spans levels 1..4.
        r.parent[2] = 3;
        assert!(validate_bfs_tree(&g, 0, &r.parent).is_err());
    }

    #[test]
    fn detects_a_parent_outside_the_tree() {
        let g = ring(4);
        // Vertex 1 hangs off vertex 2, which the search never reached.
        let unreached = [0, 2, NO_VERTEX, NO_VERTEX];
        assert_eq!(
            validate_bfs_tree(&g, 0, &unreached),
            Err(ValidationError::BrokenTree { vertex: 2 })
        );
        // Vertex 1 hangs off a vertex the graph does not have.
        let missing = [0, 7, NO_VERTEX, NO_VERTEX];
        assert_eq!(
            validate_bfs_tree(&g, 0, &missing),
            Err(ValidationError::BrokenTree { vertex: 1 })
        );
    }

    #[test]
    fn detects_an_edge_spanning_two_levels() {
        // A triangle searched depth-first: 0 → 1 → 2 puts 2 at level 2, but
        // the edge (0, 2) puts it at level 1.
        let g = Csr::from_edge_list(&EdgeList::new(3, vec![(0, 1), (1, 2), (0, 2)]).symmetrized());
        let err = validate_bfs_tree(&g, 0, &[0, 0, 1]).unwrap_err();
        assert_eq!(err, ValidationError::EdgeSpansLevels { src: 0, dst: 2 });
    }

    #[test]
    fn a_root_with_another_parent_is_a_bad_root() {
        let g = ring(4);
        let mut r = oracle::bfs(&g, 0);
        r.parent[0] = 1;
        assert_eq!(validate_bfs_tree(&g, 0, &r.parent), Err(ValidationError::BadRoot));
    }

    #[test]
    fn unreachable_component_is_fine() {
        let el = EdgeList::new(5, vec![(0, 1), (2, 3)]).symmetrized();
        let g = Csr::from_edge_list(&el);
        let r = oracle::bfs(&g, 0);
        validate_bfs_tree(&g, 0, &r.parent).unwrap();
    }

    #[test]
    fn sssp_validation_accepts_dijkstra_rejects_garbage() {
        let el =
            EdgeList::weighted(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)], vec![1.0, 1.0, 5.0, 2.0])
                .symmetrized();
        let g = Csr::from_edge_list(&el);
        let d = oracle::dijkstra(&g, 0);
        validate_sssp_distances(&g, 0, &d).unwrap();
        let mut bad = d.clone();
        bad[3] = 100.0;
        assert!(validate_sssp_distances(&g, 0, &bad).is_err());
        // One vertex long by more than the tolerance is caught too.
        let mut long = d.clone();
        long[3] += 0.01;
        assert!(validate_sssp_distances(&g, 0, &long).unwrap_err().contains("relaxes dist[3]"));
    }

    #[test]
    fn sssp_validation_rejects_underestimates() {
        // A weighted path 0-1-2-3: all-zero distances relax nothing, but no
        // path is that short.
        let el =
            EdgeList::weighted(4, vec![(0, 1), (1, 2), (2, 3)], vec![1.5, 2.0, 0.5]).symmetrized();
        let g = Csr::from_edge_list(&el);
        let err = validate_sssp_distances(&g, 0, &[0.0; 4]).unwrap_err();
        assert!(err.contains("dist[1] = 0 is shorter than every path"), "{err}");
        // One vertex short by more than the tolerance is caught too.
        let mut d = oracle::dijkstra(&g, 0);
        assert_eq!(d, [0.0, 1.5, 3.5, 4.0]);
        d[3] -= 0.01;
        assert!(validate_sssp_distances(&g, 0, &d).unwrap_err().contains("dist[3]"));
    }

    #[test]
    fn sssp_distances_shifted_off_the_root_are_rejected() {
        // Every distance 0.5 longer still relaxes no edge and keeps a tight
        // in-edge under each vertex; only `dist[root]` gives it away.
        let el = EdgeList::weighted(3, vec![(0, 1), (1, 2)], vec![1.0, 2.0]).symmetrized();
        let g = Csr::from_edge_list(&el);
        let d: Vec<Weight> = oracle::dijkstra(&g, 0).iter().map(|x| x + 0.5).collect();
        assert_eq!(validate_sssp_distances(&g, 0, &d), Err("dist[root] = 0.5 != 0".to_string()));
    }

    #[test]
    fn out_of_range_root_is_a_bad_root() {
        let g = ring(4);
        let r = oracle::bfs(&g, 0);
        assert_eq!(validate_bfs_tree(&g, 4, &r.parent), Err(ValidationError::BadRoot));
        assert_eq!(validate_bfs_tree(&g, NO_VERTEX, &r.parent), Err(ValidationError::BadRoot));
    }

    #[test]
    fn empty_graph_has_no_valid_root() {
        let g = Csr::from_edge_list(&EdgeList::new(0, Vec::new()));
        assert_eq!(validate_bfs_tree(&g, 0, &[]), Err(ValidationError::BadRoot));
        let pool = ThreadPool::new(2);
        let bad_root = Err(ValidationError::BadRoot);
        assert_eq!(validate_bfs_tree_parallel(&g, 0, &[], None, &pool), bad_root);
    }

    #[test]
    fn reported_levels_must_match_the_tree() {
        let g = ring(6);
        let pool = ThreadPool::new(2);
        let r = oracle::bfs(&g, 0);
        assert_eq!(validate_bfs_tree_parallel(&g, 0, &r.parent, Some(&r.level), &pool), Ok(()));
        // The parent tree alone is valid; the levels beside it are not.
        let mut level = r.level.clone();
        level[0] += 1;
        assert_eq!(
            validate_bfs_tree_parallel(&g, 0, &r.parent, Some(&level), &pool),
            Err(ValidationError::WrongLevel { vertex: 0, reported: 1, derived: 0 })
        );
        // An unreached vertex must be reported unreached.
        let el = EdgeList::new(3, vec![(0, 1)]).symmetrized();
        let g = Csr::from_edge_list(&el);
        let r = oracle::bfs(&g, 0);
        let mut level = r.level.clone();
        level[2] = 0;
        let err = validate_bfs_tree_parallel(&g, 0, &r.parent, Some(&level), &pool).unwrap_err();
        assert_eq!(err, ValidationError::WrongLevel { vertex: 2, reported: 0, derived: u32::MAX });
        assert!(err.to_string().starts_with("level[2] = 0, but the parent tree"), "{err}");
    }

    /// A hub whose adjacency lists its 2^15 leaves in scattered order: a
    /// per-child search of the hub's list made this case quadratic.
    #[test]
    fn shuffled_star_validates_and_names_its_phantom_edge() {
        const LEAVES: VertexId = 1 << 15;
        // An odd multiplier permutes 0..2^15.
        let edges: Vec<_> = (0..LEAVES).map(|i| (0, 1 + i * 40_503 % LEAVES)).collect();
        let g = Csr::from_edge_list(&EdgeList::new(LEAVES as usize + 1, edges).symmetrized());
        let pool = ThreadPool::new(3);
        let oracle::BfsResult { mut parent, level } = oracle::bfs(&g, 0);
        assert_eq!(validate_bfs_tree(&g, 0, &parent), Ok(()));
        assert_eq!(validate_bfs_tree_parallel(&g, 0, &parent, Some(&level), &pool), Ok(()));
        // Leaf 9 claims leaf 5 for a parent; leaves share no edge.
        parent[9] = 5;
        let phantom = Err(ValidationError::PhantomEdge { vertex: 9, parent: 5 });
        assert_eq!(validate_bfs_tree(&g, 0, &parent), phantom);
        assert_eq!(validate_bfs_tree_parallel(&g, 0, &parent, None, &pool), phantom);
    }

    #[test]
    fn sssp_out_of_range_root_is_an_error() {
        let g = ring(4);
        let d = oracle::dijkstra(&g, 0);
        assert!(validate_sssp_distances(&g, 4, &d).is_err());
        let empty = Csr::from_edge_list(&EdgeList::new(0, Vec::new()));
        assert!(validate_sssp_distances(&empty, 0, &[]).is_err());
    }

    #[test]
    fn sssp_short_distance_array_is_an_error() {
        let g = ring(4);
        let d = oracle::dijkstra(&g, 0);
        assert!(validate_sssp_distances(&g, 0, &d[..3]).is_err());
    }

    #[test]
    fn sssp_long_distance_array_is_an_error() {
        let g = ring(4);
        let mut d = oracle::dijkstra(&g, 0);
        d.push(0.0);
        assert!(validate_sssp_distances(&g, 0, &d).is_err());
    }
}
