//! Sequential oracle implementations.
//!
//! Textbook, obviously-correct versions of every algorithm the paper
//! measures: BFS, SSSP (Dijkstra), PageRank, plus the Graphalytics trio
//! CDLP, LCC, and WCC used in Tables I and II. The five engines are
//! cross-checked against these in unit and integration tests. None of these
//! are timed by the harness — they exist purely for verification.

use crate::{Csr, VertexId, Weight, INF_DIST, NO_VERTEX};
use std::collections::VecDeque;

/// Breadth-first search result: per-vertex level and parent.
#[derive(Clone, Debug, PartialEq)]
pub struct BfsResult {
    /// Hop distance from the root; `u32::MAX` when unreached.
    pub level: Vec<u32>,
    /// BFS-tree parent; `NO_VERTEX` for the root and unreached vertices.
    pub parent: Vec<VertexId>,
}

/// Sequential BFS from `root`.
pub fn bfs(g: &Csr, root: VertexId) -> BfsResult {
    let n = g.num_vertices();
    let mut level = vec![u32::MAX; n];
    let mut parent = vec![NO_VERTEX; n];
    let mut queue = VecDeque::new();
    level[root as usize] = 0;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if level[v as usize] == u32::MAX {
                level[v as usize] = level[u as usize] + 1;
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    BfsResult { level, parent }
}

/// Sequential Dijkstra from `root`. Requires non-negative weights
/// (unweighted graphs use weight 1.0 per edge).
pub fn dijkstra(g: &Csr, root: VertexId) -> Vec<Weight> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// f32 ordered wrapper; weights are finite and non-negative here.
    #[derive(PartialEq)]
    struct D(Weight);
    impl Eq for D {}
    impl PartialOrd for D {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for D {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&o.0)
        }
    }

    let n = g.num_vertices();
    let mut dist = vec![INF_DIST; n];
    let mut heap = BinaryHeap::new();
    dist[root as usize] = 0.0;
    heap.push(Reverse((D(0.0), root)));
    while let Some(Reverse((D(d), u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for (v, w) in g.neighbors_weighted(u) {
            debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            let nd = d + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((D(nd), v)));
            }
        }
    }
    dist
}

/// Damping factor used by every PageRank in the paper's systems.
pub const PR_DAMPING: f64 = 0.85;

/// The paper's homogenized stopping threshold: L1 change below
/// `6e-8` (~machine epsilon for f32), §IV-A.
pub const PR_EPSILON: f64 = 6e-8;

/// Sequential PageRank by power iteration with the paper's L1 stopping
/// criterion. Returns `(ranks, iterations)`. Sink vertices redistribute
/// their rank uniformly. `max_iters` bounds runaway configurations.
pub fn pagerank(g: &Csr, epsilon: f64, max_iters: u32) -> (Vec<f64>, u32) {
    let n = g.num_vertices();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let gt = g.transpose();
    let out_deg: Vec<usize> = (0..n as VertexId).map(|v| g.out_degree(v)).collect();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let base = (1.0 - PR_DAMPING) / n as f64;
    let mut iters = 0;
    while iters < max_iters {
        iters += 1;
        let sink_mass: f64 =
            (0..n).filter(|&v| out_deg[v] == 0).map(|v| rank[v]).sum::<f64>() / n as f64;
        for v in 0..n {
            let incoming: f64 = gt
                .neighbors(v as VertexId)
                .iter()
                .map(|&u| rank[u as usize] / out_deg[u as usize] as f64)
                .sum();
            next[v] = base + PR_DAMPING * (incoming + sink_mass);
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < epsilon {
            break;
        }
    }
    (rank, iters)
}

/// Sequential community detection by label propagation (Graphalytics CDLP):
/// synchronous updates, each vertex takes the smallest label among the most
/// frequent labels of its in- and out-neighbors, for `iterations` rounds.
pub fn cdlp(g: &Csr, iterations: u32) -> Vec<u64> {
    let n = g.num_vertices();
    let gt = g.transpose();
    let mut label: Vec<u64> = (0..n as u64).collect();
    let mut next = label.clone();
    let mut freq: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    for _ in 0..iterations {
        for v in 0..n {
            freq.clear();
            for &u in g.neighbors(v as VertexId).iter().chain(gt.neighbors(v as VertexId)) {
                *freq.entry(label[u as usize]).or_insert(0) += 1;
            }
            next[v] = freq
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .map(|(&l, _)| l)
                .unwrap_or(label[v]);
        }
        std::mem::swap(&mut label, &mut next);
    }
    label
}

/// Sequential local clustering coefficient per vertex (Graphalytics LCC):
/// over the *undirected* neighborhood, `lcc(v) = |edges among N(v)| /
/// (d(v) * (d(v)-1))` counting directed edges among neighbors.
pub fn lcc(g: &Csr) -> Vec<f64> {
    let n = g.num_vertices();
    let gt = g.transpose();
    // Undirected neighborhoods, deduplicated and sorted.
    let mut nbrs: Vec<Vec<VertexId>> = Vec::with_capacity(n);
    for v in 0..n as VertexId {
        let mut set: Vec<VertexId> =
            g.neighbors(v).iter().chain(gt.neighbors(v)).copied().filter(|&u| u != v).collect();
        set.sort_unstable();
        set.dedup();
        nbrs.push(set);
    }
    let mut out = vec![0.0f64; n];
    for v in 0..n {
        let nb = &nbrs[v];
        let d = nb.len();
        if d < 2 {
            continue;
        }
        // Count directed edges among neighbors via sorted intersection.
        let mut tri = 0u64;
        for &u in nb {
            // Edges u -> w for w in nb: intersect out-neighbors of u with nb.
            let mut a = nbrs_out_sorted(g, u);
            a.retain(|&w| w != u);
            tri += sorted_intersection_count(&a, nb);
        }
        out[v] = tri as f64 / (d as f64 * (d - 1) as f64);
    }
    out
}

fn nbrs_out_sorted(g: &Csr, v: VertexId) -> Vec<VertexId> {
    let mut a = g.neighbors(v).to_vec();
    a.sort_unstable();
    a.dedup();
    a
}

fn sorted_intersection_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut c) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Sequential weakly connected components: returns the smallest vertex id
/// in each vertex's component (the Graphalytics convention).
pub fn wcc(g: &Csr) -> Vec<VertexId> {
    let n = g.num_vertices();
    let gt = g.transpose();
    let mut comp = vec![NO_VERTEX; n];
    let mut queue = VecDeque::new();
    for start in 0..n as VertexId {
        if comp[start as usize] != NO_VERTEX {
            continue;
        }
        comp[start as usize] = start;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u).iter().chain(gt.neighbors(u)) {
                if comp[v as usize] == NO_VERTEX {
                    comp[v as usize] = start;
                    queue.push_back(v);
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    /// 0-1-2 path plus 3-4 pair plus isolated 5, symmetric.
    fn two_components() -> Csr {
        Csr::from_edge_list(&EdgeList::new(6, vec![(0, 1), (1, 2), (3, 4)]).symmetrized())
    }

    #[test]
    fn bfs_levels_and_parents() {
        let g = two_components();
        let r = bfs(&g, 0);
        assert_eq!(r.level[..3], [0, 1, 2]);
        assert_eq!(r.level[3], u32::MAX);
        assert_eq!(r.parent[0], NO_VERTEX);
        assert_eq!(r.parent[1], 0);
        assert_eq!(r.parent[2], 1);
    }

    #[test]
    fn dijkstra_matches_bfs_on_unit_weights() {
        let g = two_components();
        let d = dijkstra(&g, 0);
        let b = bfs(&g, 0);
        for v in 0..6 {
            if b.level[v] == u32::MAX {
                assert!(d[v].is_infinite());
            } else {
                assert_eq!(d[v], b.level[v] as Weight);
            }
        }
    }

    #[test]
    fn dijkstra_prefers_cheap_detour() {
        // 0 -> 1 cost 10; 0 -> 2 -> 1 cost 3.
        let el = EdgeList::weighted(3, vec![(0, 1), (0, 2), (2, 1)], vec![10.0, 1.0, 2.0]);
        let g = Csr::from_edge_list(&el);
        let d = dijkstra(&g, 0);
        assert_eq!(d[1], 3.0);
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hub_highest() {
        // Star with edges pointing into vertex 0.
        let el = EdgeList::new(5, vec![(1, 0), (2, 0), (3, 0), (4, 0)]);
        let g = Csr::from_edge_list(&el);
        let (pr, iters) = pagerank(&g, PR_EPSILON, 200);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        assert!(iters > 1);
        for v in 1..5 {
            assert!(pr[0] > pr[v]);
        }
    }

    #[test]
    fn pagerank_uniform_on_cycle() {
        let el = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (pr, _) = pagerank(&Csr::from_edge_list(&el), PR_EPSILON, 200);
        for v in 0..4 {
            assert!((pr[v] - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn cdlp_converges_on_cliques() {
        // Two triangles.
        let el =
            EdgeList::new(6, vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).symmetrized();
        let labels = cdlp(&Csr::from_edge_list(&el), 10);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn lcc_triangle_is_one_path_is_zero() {
        let tri =
            Csr::from_edge_list(&EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0)]).symmetrized());
        for c in lcc(&tri) {
            assert!((c - 1.0).abs() < 1e-12);
        }
        let path = two_components();
        let c = lcc(&path);
        assert_eq!(c[1], 0.0); // middle of a path: neighbors not adjacent
        assert_eq!(c[0], 0.0); // degree 1
    }

    #[test]
    fn lcc_directed_counts_each_direction() {
        // Undirected triangle base, but only one directed edge 1->2 among
        // neighbors of 0: lcc(0) = 1 directed edge / (2*1) = 0.5.
        let el = EdgeList::new(3, vec![(0, 1), (1, 0), (0, 2), (2, 0), (1, 2)]);
        let c = lcc(&Csr::from_edge_list(&el));
        assert!((c[0] - 0.5).abs() < 1e-12, "lcc(0) = {}", c[0]);
    }

    #[test]
    fn wcc_ignores_direction() {
        let g = Csr::from_edge_list(&EdgeList::new(6, vec![(0, 1), (1, 2), (3, 4)]));
        let comp = wcc(&g);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_eq!(comp[5], 5);
        // Component id is the minimum member.
        assert_eq!(comp[0], 0);
        assert_eq!(comp[3], 3);
    }
}

/// Sequential betweenness centrality (Brandes' algorithm, unweighted, over
/// out-edges) from `sources`, each source's dependencies scaled by n / the
/// source count: exact from every vertex, the sampled estimate from fewer.
/// Unnormalized; endpoints excluded. This is the oracle for the §V
/// extension algorithms.
pub fn betweenness(g: &Csr, sources: impl ExactSizeIterator<Item = VertexId>) -> Vec<f64> {
    let n = g.num_vertices();
    let scale = n as f64 / sources.len() as f64;
    let mut bc = vec![0.0f64; n];
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![-1i64; n];
    let mut delta = vec![0.0f64; n];
    let mut stack: Vec<VertexId> = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    for s in sources {
        // Reset per-source state.
        sigma.iter_mut().for_each(|x| *x = 0.0);
        dist.iter_mut().for_each(|x| *x = -1);
        delta.iter_mut().for_each(|x| *x = 0.0);
        stack.clear();
        sigma[s as usize] = 1.0;
        dist[s as usize] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            stack.push(u);
            for &v in g.neighbors(u) {
                if dist[v as usize] < 0 {
                    dist[v as usize] = dist[u as usize] + 1;
                    queue.push_back(v);
                }
                if dist[v as usize] == dist[u as usize] + 1 {
                    sigma[v as usize] += sigma[u as usize];
                }
            }
        }
        // Accumulate dependencies in reverse BFS order.
        while let Some(w) = stack.pop() {
            for &v in g.neighbors(w) {
                if dist[v as usize] == dist[w as usize] + 1 {
                    delta[w as usize] +=
                        sigma[w as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
                }
            }
            if w != s {
                bc[w as usize] += delta[w as usize] * scale;
            }
        }
    }
    bc
}

/// Sequential exact triangle count over the *undirected* simple version of
/// the graph (self-loops and duplicates ignored; each triangle counted
/// once), by ordered neighbor-set intersection.
pub fn triangle_count(g: &Csr) -> u64 {
    let n = g.num_vertices();
    let gt = g.transpose();
    // Undirected adjacency restricted to higher-numbered neighbors.
    let mut higher: Vec<Vec<VertexId>> = Vec::with_capacity(n);
    for v in 0..n as VertexId {
        let mut set: Vec<VertexId> =
            g.neighbors(v).iter().chain(gt.neighbors(v)).copied().filter(|&u| u > v).collect();
        set.sort_unstable();
        set.dedup();
        higher.push(set);
    }
    let mut count = 0u64;
    for u in 0..n {
        let hu = &higher[u];
        for &v in hu {
            count += sorted_intersection_count(hu, &higher[v as usize]);
        }
    }
    count
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::EdgeList;

    #[test]
    fn bc_path_graph_center_is_highest() {
        // Path 0-1-2-3-4: vertex 2 lies on the most shortest paths.
        let el = EdgeList::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]).symmetrized();
        let bc = betweenness(&Csr::from_edge_list(&el), 0..5);
        // Exact values for an undirected path (counted per direction):
        // bc(1) = bc(3) = 6, bc(2) = 8, endpoints 0.
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[4], 0.0);
        assert_eq!(bc[1], 6.0);
        assert_eq!(bc[2], 8.0);
        assert_eq!(bc[3], 6.0);
    }

    #[test]
    fn bc_star_hub_dominates() {
        let el = EdgeList::new(5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]).symmetrized();
        let bc = betweenness(&Csr::from_edge_list(&el), 0..5);
        // Hub carries all 4*3 = 12 cross-leaf shortest paths.
        assert_eq!(bc[0], 12.0);
        for v in 1..5 {
            assert_eq!(bc[v], 0.0);
        }
    }

    #[test]
    fn bc_clique_is_zero() {
        // Complete graph: every pair adjacent, no intermediaries.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in 0..5u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let bc = betweenness(&Csr::from_edge_list(&EdgeList::new(5, edges)), 0..5);
        assert!(bc.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn triangles_on_known_shapes() {
        let tri = EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0)]);
        assert_eq!(triangle_count(&Csr::from_edge_list(&tri)), 1);
        let square = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]).symmetrized();
        assert_eq!(triangle_count(&Csr::from_edge_list(&square)), 0);
        // K4 has 4 triangles.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                edges.push((u, v));
            }
        }
        assert_eq!(triangle_count(&Csr::from_edge_list(&EdgeList::new(4, edges))), 4);
    }

    #[test]
    fn triangles_ignore_direction_duplicates_and_loops() {
        let el = EdgeList::new(3, vec![(0, 1), (1, 0), (1, 2), (2, 0), (0, 0), (1, 2)]);
        assert_eq!(triangle_count(&Csr::from_edge_list(&el)), 1);
    }

    #[test]
    fn lcc_consistent_with_triangle_count_on_undirected_simple_graphs() {
        // Sum over v of (lcc(v) * d(v)(d(v)-1)) counts each triangle 6 times
        // in a symmetric simple graph (each directed wedge closure).
        let el = crate::EdgeList::new(
            12,
            vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (5, 6), (8, 9)],
        )
        .symmetrized()
        .deduplicated();
        let g = Csr::from_edge_list(&el);
        let lcc = lcc(&g);
        let gt = g.transpose();
        let closed: f64 = (0..g.num_vertices() as VertexId)
            .map(|v| {
                let mut nb: Vec<VertexId> = g
                    .neighbors(v)
                    .iter()
                    .chain(gt.neighbors(v))
                    .copied()
                    .filter(|&u| u != v)
                    .collect();
                nb.sort_unstable();
                nb.dedup();
                let d = nb.len() as f64;
                lcc[v as usize] * d * (d - 1.0)
            })
            .sum();
        assert!((closed / 6.0 - triangle_count(&g) as f64).abs() < 1e-9);
    }
}
