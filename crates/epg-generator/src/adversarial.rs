//! Adversarial SSSP case families.
//!
//! Each family is engineered to punish one class of shortest-path
//! algorithm shortcut, and together they form the stress corpus for the
//! raw-speed kernel tier (DESIGN.md §13):
//!
//! - [`spfa_killer`]: a spine of detour gadgets where the direct edge is
//!   always slightly worse than a two-hop detour, forcing label-correcting
//!   queues (SPFA, naive Bellman-Ford) to re-relax the whole downstream
//!   spine once per gadget.
//! - [`wrong_dijkstra_killer`]: a hub reached by a chain of sources whose
//!   arrival order at the hub is the reverse of the relaxation order,
//!   so any "settle on first arrival" shortcut broadcasts a wrong label
//!   to a wide fan before the correction lands.
//! - [`grid_swirl`]: a square grid whose cheap edges trace an inward
//!   spiral — the shortest-path tree is a single long snake, maximizing
//!   Δ-stepping bucket rounds and frontier-based algorithms' depth.
//! - [`almost_line`]: a long path with a sprinkle of heavier chords; the
//!   diameter stays near n, the worst case for level-synchronous engines.
//! - [`max_dense_zero`]: every ordered pair at weight 0.0 — all distances
//!   tie at zero, stressing tie-breaking and monotone-queue edge cases.
//!
//! Every generator is a pure function of the edge *index* (hashed through
//! `kronecker::mix64`), so the serial and parallel paths produce
//! byte-identical edge lists regardless of thread count — unlike the
//! stream-split RNG generators, which document a serial/parallel
//! divergence. All families are weighted (they exist for SSSP).

use crate::kronecker::{mix64, GEN_BLOCK};
use epg_graph::{EdgeList, VertexId, Weight};
use epg_parallel::{DisjointWriter, Schedule, ThreadPool};

/// Maps a hash to a uniform float in [0, 1).
#[inline]
fn unit01(h: u64) -> f32 {
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// Materializes `m` edges of an index-pure family serially.
fn materialize(
    num_vertices: usize,
    m: usize,
    f: impl Fn(usize) -> ((VertexId, VertexId), Weight),
) -> EdgeList {
    let mut edges = Vec::with_capacity(m);
    let mut weights = Vec::with_capacity(m);
    for i in 0..m {
        let ((u, v), w) = f(i);
        edges.push((u, v));
        weights.push(w);
    }
    EdgeList { num_vertices, edges, weights: Some(weights) }
}

/// Materializes the same index-pure family on the pool. Because each edge
/// is a pure function of its index, the output is byte-identical to
/// [`materialize`] for every thread count.
fn materialize_parallel(
    num_vertices: usize,
    m: usize,
    pool: &ThreadPool,
    f: impl Fn(usize) -> ((VertexId, VertexId), Weight) + Sync,
) -> EdgeList {
    let mut edges = vec![(0 as VertexId, 0 as VertexId); m];
    let mut weights = vec![0.0 as Weight; m];
    {
        let ew = DisjointWriter::new(&mut edges);
        let ww = DisjointWriter::new(weights.as_mut_slice());
        let nblocks = m.div_ceil(GEN_BLOCK);
        pool.parallel_for(nblocks, Schedule::Dynamic { chunk: 1 }, |b| {
            let lo = b * GEN_BLOCK;
            let hi = ((b + 1) * GEN_BLOCK).min(m);
            // SAFETY: blocks map 1:1 to disjoint index ranges.
            let (es, ws) = unsafe { (ew.range_mut(lo, hi), ww.range_mut(lo, hi)) };
            for k in 0..hi - lo {
                let ((u, v), w) = f(lo + k);
                es[k] = (u, v);
                ws[k] = w;
            }
        });
    }
    EdgeList { num_vertices, edges, weights: Some(weights) }
}

// ---------------------------------------------------------------- spfa_killer

/// Vertex/edge layout for [`spfa_killer`]: spine `0..=levels`, one mid
/// vertex per gadget, three edges per gadget.
fn spfa_dims(levels: usize) -> (usize, usize) {
    if levels == 0 {
        return (1, 0);
    }
    (2 * levels + 1, 3 * levels)
}

fn spfa_edge(levels: usize, seed: u64, i: usize) -> ((VertexId, VertexId), Weight) {
    let gadget = i / 3;
    let mid = (levels + 1 + gadget) as VertexId;
    let a = gadget as VertexId;
    let b = (gadget + 1) as VertexId;
    // The direct edge shrinks geometrically so later gadgets sit in ever
    // finer distance strata; the detour is 10% cheaper than direct, with
    // a hashed jitter that keeps the two detour halves asymmetric.
    let direct = 2.0_f32 * 0.95_f32.powi(gadget as i32);
    let jitter = 0.05 * unit01(mix64(seed ^ mix64(gadget as u64 + 1)));
    match i % 3 {
        0 => ((a, b), direct),
        1 => ((a, mid), direct * (0.45 + jitter)),
        _ => ((mid, b), direct * (0.45 - jitter)),
    }
}

/// Generates the SPFA-killer spine with `levels` detour gadgets.
pub fn spfa_killer(levels: usize, seed: u64) -> EdgeList {
    let (n, m) = spfa_dims(levels);
    materialize(n, m, |i| spfa_edge(levels, seed, i))
}

/// Parallel [`spfa_killer`]; byte-identical to the serial path.
pub fn spfa_killer_parallel(levels: usize, seed: u64, pool: &ThreadPool) -> EdgeList {
    let (n, m) = spfa_dims(levels);
    materialize_parallel(n, m, pool, |i| spfa_edge(levels, seed, i))
}

// ------------------------------------------------------ wrong_dijkstra_killer

/// Layout for [`wrong_dijkstra_killer`]: source 0, chain vertices
/// `1..=chain`, hub `chain + 1`, fan targets after the hub.
fn wrong_dims(chain: usize, fan: usize) -> (usize, usize) {
    if chain == 0 {
        return (1, 0);
    }
    (chain + 2 + fan, 2 * chain + fan)
}

fn wrong_edge(chain: usize, i: usize) -> ((VertexId, VertexId), Weight) {
    let hub = (chain + 1) as VertexId;
    if i < 2 * chain {
        let idx = i / 2 + 1; // chain vertex 1..=chain
        let x = idx as VertexId;
        if i.is_multiple_of(2) {
            // Source reaches x_idx at cost idx: relaxation order 1, 2, ...
            ((0, x), idx as f32)
        } else {
            // x_idx reaches the hub at (chain - idx) + 1/(idx + 1): the
            // hub's tentative label *improves* with every later arrival,
            // so settling it on first touch is wrong by almost `chain`.
            ((x, hub), (chain - idx) as f32 + 1.0 / (idx as f32 + 1.0))
        }
    } else {
        let t = (chain + 2 + (i - 2 * chain)) as VertexId;
        ((hub, t), 0.01)
    }
}

/// Generates the wrong-label hub graph: `chain` sources feed a hub whose
/// label improves with each arrival, then a `fan` of downstream targets.
pub fn wrong_dijkstra_killer(chain: usize, fan: usize) -> EdgeList {
    let (n, m) = wrong_dims(chain, fan);
    materialize(n, m, |i| wrong_edge(chain, i))
}

/// Parallel [`wrong_dijkstra_killer`]; byte-identical to the serial path.
pub fn wrong_dijkstra_killer_parallel(chain: usize, fan: usize, pool: &ThreadPool) -> EdgeList {
    let (n, m) = wrong_dims(chain, fan);
    materialize_parallel(n, m, pool, |i| wrong_edge(chain, i))
}

// ----------------------------------------------------------------- grid_swirl

/// Position of cell `(r, c)` along the inward clockwise spiral of a
/// `width × width` grid (0 at the top-left corner).
fn spiral_index(r: usize, c: usize, width: usize) -> usize {
    let k = r.min(c).min(width - 1 - r).min(width - 1 - c);
    let before = width * width - (width - 2 * k) * (width - 2 * k);
    let side = width - 2 * k;
    if side == 1 {
        return before;
    }
    if r == k {
        before + (c - k)
    } else if c == width - 1 - k {
        before + (side - 1) + (r - k)
    } else if r == width - 1 - k {
        before + 2 * (side - 1) + (width - 1 - k - c)
    } else {
        before + 3 * (side - 1) + (width - 1 - k - r)
    }
}

fn grid_dims(width: usize) -> (usize, usize) {
    if width == 0 {
        return (0, 0);
    }
    // Both directions of every horizontal and vertical adjacency.
    (width * width, 4 * width * (width - 1))
}

fn grid_edge(width: usize, seed: u64, i: usize) -> ((VertexId, VertexId), Weight) {
    let half = 2 * width * (width - 1);
    let (a, b) = if i < half {
        // Horizontal adjacency j between (r, c) and (r, c + 1).
        let j = i / 2;
        let (r, c) = (j / (width - 1), j % (width - 1));
        let (p, q) = (r * width + c, r * width + c + 1);
        if i.is_multiple_of(2) {
            (p, q)
        } else {
            (q, p)
        }
    } else {
        // Vertical adjacency j between (r, c) and (r + 1, c).
        let j = (i - half) / 2;
        let (r, c) = (j / width, j % width);
        let (p, q) = (r * width + c, (r + 1) * width + c);
        if i.is_multiple_of(2) {
            (p, q)
        } else {
            (q, p)
        }
    };
    let sa = spiral_index(a / width, a % width, width);
    let sb = spiral_index(b / width, b % width, width);
    // Following the spiral is nearly free; cutting across it costs real
    // distance, so the shortest-path tree snakes through all n cells.
    let w =
        if sb == sa + 1 { 0.001 } else { 0.5 + 0.5 * unit01(mix64(seed ^ mix64(i as u64 + 1))) };
    ((a as VertexId, b as VertexId), w)
}

/// Generates the `width × width` spiral grid.
pub fn grid_swirl(width: usize, seed: u64) -> EdgeList {
    let (n, m) = grid_dims(width);
    materialize(n, m, |i| grid_edge(width, seed, i))
}

/// Parallel [`grid_swirl`]; byte-identical to the serial path.
pub fn grid_swirl_parallel(width: usize, seed: u64, pool: &ThreadPool) -> EdgeList {
    let (n, m) = grid_dims(width);
    materialize_parallel(n, m, pool, |i| grid_edge(width, seed, i))
}

// ---------------------------------------------------------------- almost_line

fn line_dims(num_vertices: usize, extra_edges: usize) -> (usize, usize) {
    if num_vertices == 0 {
        return (0, 0);
    }
    (num_vertices, num_vertices - 1 + extra_edges)
}

fn line_edge(num_vertices: usize, seed: u64, i: usize) -> ((VertexId, VertexId), Weight) {
    let path = num_vertices - 1;
    if i < path {
        let h = mix64(seed ^ mix64(i as u64 + 1));
        ((i as VertexId, (i + 1) as VertexId), 0.9 + 0.2 * unit01(h))
    } else {
        // Hashed chords whose weight scales with the span they skip, so
        // no chord collapses the diameter — it stays ~n, the worst case
        // for level-synchronous engines.
        let h = mix64(seed ^ mix64((path + i) as u64 + 101));
        let u = (h % num_vertices as u64) as VertexId;
        let v = (mix64(h) % num_vertices as u64) as VertexId;
        let span = u.abs_diff(v).max(1) as f32;
        ((u, v), span * (1.0 + unit01(mix64(h ^ 0x9e37))))
    }
}

/// Generates a near-line graph: an `num_vertices`-long path plus
/// `extra_edges` heavier hashed chords.
pub fn almost_line(num_vertices: usize, extra_edges: usize, seed: u64) -> EdgeList {
    let (n, m) = line_dims(num_vertices, extra_edges);
    materialize(n, m, |i| line_edge(num_vertices, seed, i))
}

/// Parallel [`almost_line`]; byte-identical to the serial path.
pub fn almost_line_parallel(
    num_vertices: usize,
    extra_edges: usize,
    seed: u64,
    pool: &ThreadPool,
) -> EdgeList {
    let (n, m) = line_dims(num_vertices, extra_edges);
    materialize_parallel(n, m, pool, |i| line_edge(num_vertices, seed, i))
}

// ------------------------------------------------------------- max_dense_zero

fn dense_dims(num_vertices: usize) -> (usize, usize) {
    (num_vertices, num_vertices.saturating_sub(1) * num_vertices)
}

fn dense_edge(num_vertices: usize, i: usize) -> ((VertexId, VertexId), Weight) {
    let u = i / (num_vertices - 1);
    let r = i % (num_vertices - 1);
    let v = r + usize::from(r >= u);
    ((u as VertexId, v as VertexId), 0.0)
}

/// Generates the complete directed graph on `num_vertices` vertices with
/// every weight exactly 0.0.
pub fn max_dense_zero(num_vertices: usize) -> EdgeList {
    let (n, m) = dense_dims(num_vertices);
    materialize(n, m, |i| dense_edge(num_vertices, i))
}

/// Parallel [`max_dense_zero`]; byte-identical to the serial path.
pub fn max_dense_zero_parallel(num_vertices: usize, pool: &ThreadPool) -> EdgeList {
    let (n, m) = dense_dims(num_vertices);
    materialize_parallel(n, m, pool, |i| dense_edge(num_vertices, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, Csr};

    #[test]
    fn spfa_detour_always_beats_direct() {
        let el = spfa_killer(40, 7);
        let g = Csr::from_edge_list(&el);
        let d = oracle::dijkstra(&g, 0);
        // Distance along the spine must use every detour: strictly less
        // than the sum of direct edges.
        let direct_sum: f32 = (0..40).map(|i| 2.0 * 0.95_f32.powi(i)).sum();
        assert!(d[40] < direct_sum * 0.95, "detours unused: {} vs {}", d[40], direct_sum);
        assert!(d[40] > 0.0);
    }

    #[test]
    fn wrong_dijkstra_hub_label_improves_with_later_arrivals() {
        let chain = 30;
        let el = wrong_dijkstra_killer(chain, 50);
        let g = Csr::from_edge_list(&el);
        let d = oracle::dijkstra(&g, 0);
        let hub = chain + 1;
        // The best hub path goes through the *last* chain vertex.
        let want = chain as f32 + 1.0 / (chain as f32 + 1.0);
        assert_eq!(d[hub].to_bits(), want.to_bits());
        for t in 0..50 {
            assert_eq!(d[chain + 2 + t].to_bits(), (want + 0.01).to_bits());
        }
    }

    #[test]
    fn spiral_index_is_a_permutation() {
        for width in [1usize, 2, 3, 5, 8] {
            let mut seen = vec![false; width * width];
            for r in 0..width {
                for c in 0..width {
                    let s = spiral_index(r, c, width);
                    assert!(!seen[s], "duplicate spiral index {s} at ({r},{c})");
                    seen[s] = true;
                }
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn grid_swirl_shortest_paths_snake_through_the_spiral() {
        let width = 9;
        let el = grid_swirl(width, 3);
        let g = Csr::from_edge_list(&el);
        let d = oracle::dijkstra(&g, 0);
        // The spiral's last cell is ~n cheap hops away: its distance must
        // be far below a single cross-cut edge (≥ 0.5).
        let mut last = 0;
        let mut best = 0;
        for r in 0..width {
            for c in 0..width {
                let s = spiral_index(r, c, width);
                if s > best {
                    best = s;
                    last = r * width + c;
                }
            }
        }
        assert!(d[last] < 0.5, "spiral not cheap: {}", d[last]);
        assert!((d[last] - best as f32 * 0.001).abs() < 1e-4);
    }

    #[test]
    fn almost_line_keeps_long_diameter() {
        let el = almost_line(200, 10, 5);
        let g = Csr::from_edge_list(&el);
        let d = oracle::dijkstra(&g, 0);
        // Path weights are ≥ 0.9, chords ≥ 1.5: the end of the line is at
        // least ~0.9 * a long hop count away.
        assert!(d[199] > 60.0, "diameter collapsed: {}", d[199]);
        assert!(d[199].is_finite());
    }

    #[test]
    fn max_dense_zero_is_complete_and_all_zero() {
        let el = max_dense_zero(12);
        assert_eq!(el.num_edges(), 12 * 11);
        let g = Csr::from_edge_list(&el);
        let d = oracle::dijkstra(&g, 7);
        assert!(d.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zero_size_families_are_empty_but_valid() {
        assert_eq!(spfa_killer(0, 1).num_edges(), 0);
        assert_eq!(wrong_dijkstra_killer(0, 0).num_edges(), 0);
        assert_eq!(grid_swirl(0, 1).num_edges(), 0);
        assert_eq!(grid_swirl(1, 1).num_edges(), 0);
        assert_eq!(almost_line(0, 5, 1).num_edges(), 0);
        assert_eq!(almost_line(1, 0, 1).num_edges(), 0);
        assert_eq!(max_dense_zero(0).num_edges(), 0);
        assert_eq!(max_dense_zero(1).num_edges(), 0);
    }

    #[test]
    fn parallel_matches_serial_bytewise() {
        for nthreads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(nthreads);
            assert_eq!(spfa_killer(100, 9), spfa_killer_parallel(100, 9, &pool));
            assert_eq!(
                wrong_dijkstra_killer(64, 128),
                wrong_dijkstra_killer_parallel(64, 128, &pool)
            );
            assert_eq!(grid_swirl(20, 9), grid_swirl_parallel(20, 9, &pool));
            assert_eq!(almost_line(3000, 100, 9), almost_line_parallel(3000, 100, 9, &pool));
            assert_eq!(max_dense_zero(50), max_dense_zero_parallel(50, &pool));
        }
    }
}
