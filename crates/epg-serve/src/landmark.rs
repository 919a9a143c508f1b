//! The landmark (oracle) index: precomputed distance rows, exact-only.
//!
//! Landmark (ALT-style) distance oracles trade preprocessing for O(k)
//! query time: precompute the full distance array from `k` landmark
//! vertices, then bound any `(s, t)` distance by the triangle
//! inequality — `|d(L,s) − d(L,t)| ≤ d(s,t) ≤ d(L,s) + d(L,t)` for
//! every landmark `L`. The usual formulation serves the bounds as an
//! *estimate*; this service refuses to estimate. [`LandmarkIndex::
//! estimate`] answers only when the answer is provably exact:
//!
//! * `s` (or, on symmetrized graphs, `t`) **is** a landmark — the
//!   precomputed row holds the answer directly;
//! * some landmark reaches exactly one of the endpoints — on an
//!   undirected graph the endpoints are then in different components
//!   and the distance is exactly `+∞`;
//! * the best upper bound meets the best lower bound — the bounds pinch
//!   and the common value is the distance (this genuinely fires with
//!   ≥ 2 landmarks when one lies on the `s→t` shortest path and
//!   another sees `s` and `t` at extremal offsets).
//!
//! Everything else returns `None` and the service falls through to the
//! exact cache/kernel pipeline, so enabling landmarks can change
//! latency but never answers. Landmarks are the highest-out-degree
//! vertices — on skewed (Kronecker) graphs the hubs most shortest paths
//! cross.
//!
//! **Symmetry requirement**: the `t`-is-a-landmark row lookup and the
//! different-components rule read `d(t, s)` as `d(s, t)`, which is only
//! valid on symmetrized graphs — the homogenizer's `Dataset::symmetric`,
//! which `epg serve` and `bench/` load. Feed a directed graph and
//! these two rules are unsound; `LandmarkIndex::build` is therefore
//! explicit opt-in via `ServeConfig::landmarks > 0`.

use crate::cache::SourceArray;
use epg_engine_api::Algorithm;
use epg_graph::VertexId;
use std::collections::HashMap;
use std::sync::Arc;

/// Precomputed per-landmark distance rows for BFS hops and (optionally)
/// weighted SSSP distances.
pub struct LandmarkIndex {
    landmarks: Vec<VertexId>,
    slot_of: HashMap<VertexId, usize>,
    /// `hops[k][v]`: BFS levels from landmark `k` (always present).
    hops: Vec<Arc<SourceArray>>,
    /// `dists[k][v]`: SSSP distances from landmark `k`; empty when the
    /// engine's query surface has no SSSP (then SSSP estimates always
    /// fall through).
    dists: Vec<Arc<SourceArray>>,
}

impl LandmarkIndex {
    /// Builds an index over the `k` highest-out-degree vertices.
    ///
    /// `compute` runs one full traversal (through whatever pipeline the
    /// caller serves exact queries with) and may return `None` on
    /// failure, which drops that landmark from the index entirely —
    /// a partial index stays sound, it just pins fewer queries.
    /// `with_sssp` additionally precomputes weighted distance rows.
    pub fn build(
        k: usize,
        num_vertices: usize,
        degree_of: impl Fn(VertexId) -> usize,
        mut compute: impl FnMut(Algorithm, VertexId) -> Option<Arc<SourceArray>>,
        with_sssp: bool,
    ) -> LandmarkIndex {
        let mut by_degree: Vec<VertexId> = (0..num_vertices as VertexId).collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse((degree_of(v), std::cmp::Reverse(v))));
        let mut index = LandmarkIndex {
            landmarks: Vec::new(),
            slot_of: HashMap::new(),
            hops: Vec::new(),
            dists: Vec::new(),
        };
        for &v in by_degree.iter().take(k.min(num_vertices)) {
            let Some(hops) = compute(Algorithm::Bfs, v) else { continue };
            let sssp = if with_sssp {
                match compute(Algorithm::Sssp, v) {
                    Some(d) => Some(d),
                    None => continue, // keep hops/dists rows aligned
                }
            } else {
                None
            };
            index.slot_of.insert(v, index.landmarks.len());
            index.landmarks.push(v);
            index.hops.push(hops);
            if let Some(d) = sssp {
                index.dists.push(d);
            }
        }
        index
    }

    /// The landmark vertices, in selection (degree) order.
    pub fn landmarks(&self) -> &[VertexId] {
        &self.landmarks
    }

    /// Bytes of the precomputed rows' values, hop and distance rows both.
    pub fn resident_bytes(&self) -> usize {
        self.hops.iter().chain(&self.dists).map(|row| row.size_bytes()).sum()
    }

    /// Returns the exact `(s, t)` distance if the precomputed rows pin
    /// it; `None` means "fall through to the exact pipeline".
    pub fn estimate(&self, algo: Algorithm, s: VertexId, t: VertexId) -> Option<f64> {
        let rows = match algo {
            Algorithm::Bfs => &self.hops,
            Algorithm::Sssp if !self.dists.is_empty() => &self.dists,
            _ => return None,
        };
        if rows.is_empty() {
            return None;
        }
        if let Some(&i) = self.slot_of.get(&s) {
            return Some(rows[i].value_at(t));
        }
        if let Some(&i) = self.slot_of.get(&t) {
            // d(t, s) == d(s, t) on symmetrized graphs (module docs).
            return Some(rows[i].value_at(s));
        }
        let mut ub = f64::INFINITY;
        let mut lb = 0.0f64;
        for row in rows {
            let ds = row.value_at(s);
            let dt = row.value_at(t);
            match (ds.is_finite(), dt.is_finite()) {
                // The landmark reaches one endpoint and not the other:
                // on an undirected graph they sit in different
                // components, so the distance is exactly +∞.
                (true, false) | (false, true) => return Some(f64::INFINITY),
                // Reaches neither: this landmark knows nothing about
                // the (possibly shared) component of s and t.
                (false, false) => continue,
                (true, true) => {
                    ub = ub.min(ds + dt);
                    lb = lb.max((ds - dt).abs());
                }
            }
        }
        (ub.is_finite() && ub == lb).then_some(ub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path graph 0–1–2–…–(n−1): BFS levels from `root` are |v−root|.
    fn path_levels(n: u32, root: u32) -> Arc<SourceArray> {
        Arc::new(SourceArray::Levels((0..n).map(|v| v.abs_diff(root)).collect()))
    }

    /// Index over a 5-vertex path with the given landmarks.
    fn path_index(landmarks: &[u32]) -> LandmarkIndex {
        // Degrees: give requested landmarks the top degrees in order.
        let rank = |v: u32| landmarks.iter().position(|&l| l == v);
        LandmarkIndex::build(
            landmarks.len(),
            5,
            |v| rank(v).map_or(0, |r| 100 - r),
            |algo, v| {
                assert_eq!(algo, Algorithm::Bfs);
                Some(path_levels(5, v))
            },
            false,
        )
    }

    #[test]
    fn picks_highest_degree_vertices_in_order() {
        let idx = path_index(&[2, 0]);
        assert_eq!(idx.landmarks(), &[2, 0]);
        assert_eq!(idx.resident_bytes(), 2 * 5 * 4, "two rows of five levels");
    }

    #[test]
    fn landmark_endpoint_answers_from_the_row() {
        let idx = path_index(&[2]);
        assert_eq!(idx.estimate(Algorithm::Bfs, 2, 4), Some(2.0), "s is a landmark");
        assert_eq!(idx.estimate(Algorithm::Bfs, 4, 2), Some(2.0), "t is a landmark (symmetric)");
    }

    #[test]
    fn pinched_triangle_bounds_are_exact() {
        // Landmarks 0 and 2 on the path 0–1–2–3–4, query (1, 3):
        // via 2 (on the shortest path): ub = 1 + 1 = 2;
        // via 0 (behind s): lb = |1 − 3| = 2. Pinched ⇒ exactly 2.
        let idx = path_index(&[2, 0]);
        assert_eq!(idx.estimate(Algorithm::Bfs, 1, 3), Some(2.0));
    }

    #[test]
    fn loose_bounds_fall_through() {
        // A single landmark at 0 cannot pin (1, 3): ub = 4, lb = 2.
        let idx = path_index(&[0]);
        assert_eq!(idx.estimate(Algorithm::Bfs, 1, 3), None);
    }

    #[test]
    fn cross_component_queries_are_exactly_infinite() {
        // Two components {0,1} and {2,3}: the landmark 0 reaches 1 but
        // not 2, so d(1, 2) is exactly +∞.
        let rows = Arc::new(SourceArray::Levels(vec![0, 1, u32::MAX, u32::MAX]));
        let idx = LandmarkIndex::build(
            1,
            4,
            |v| if v == 0 { 10 } else { 0 },
            |_, v| {
                assert_eq!(v, 0);
                Some(Arc::clone(&rows))
            },
            false,
        );
        assert_eq!(idx.estimate(Algorithm::Bfs, 1, 2), Some(f64::INFINITY));
        // Both unseen: no information, fall through.
        assert_eq!(idx.estimate(Algorithm::Bfs, 2, 3), None);
    }

    #[test]
    fn failed_landmark_builds_are_skipped() {
        let idx = LandmarkIndex::build(
            2,
            5,
            |v| 10 - v as usize,
            |_, v| (v != 0).then(|| path_levels(5, v)),
            false,
        );
        // Vertex 0 (highest degree) failed to build; only 1 remains.
        assert_eq!(idx.landmarks(), &[1]);
    }

    #[test]
    fn sssp_estimates_require_distance_rows() {
        let idx = path_index(&[2]);
        assert_eq!(idx.estimate(Algorithm::Sssp, 2, 4), None, "no SSSP rows built");
        assert_eq!(idx.estimate(Algorithm::PageRank, 0, 0), None, "not a distance algo");
    }
}
