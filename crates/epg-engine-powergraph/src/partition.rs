//! Vertex-cut partitioning with master/mirror replication.
//!
//! PowerGraph's signature idea (Gonzalez et al., OSDI'12): instead of
//! cutting edges, *vertices* are cut — each edge lives in exactly one
//! partition, and a vertex spans every partition that holds one of its
//! edges. One replica is the *master*; the rest are *mirrors* that must be
//! synchronized after every apply. The paper credits this scheme for
//! PowerGraph's relatively better showing on the dense, hub-heavy
//! dota-league graph (§IV-C) while charging it with "significant overhead".
//!
//! We implement the greedy oblivious heuristic: place an edge in a
//! partition that already hosts both endpoints, else one endpoint (the
//! least-loaded such), else the least-loaded partition overall.
//!
//! Each partition stores its edges the way PowerGraph's `local_graph`
//! does: the replicas it hosts get dense *local ids* (ascending global id),
//! and the edges sit in a CSR (by local source) and a CSC (by local
//! destination) over them. Both are filled by `epg-graph`'s stable counting
//! sort ([`group_by_key`]), keyed by partition then local id, so the
//! adjacency of every `(partition, vertex)` is in input-edge order.
//! [`PartitionedGraph::local_id`] maps a global id to a partition's local
//! id in O(1); [`PartitionedGraph::replicas_of`] walks the same table to
//! list a vertex's replicas in partition order.

use epg_graph::csr::group_by_key;
use epg_graph::{EdgeList, VertexId, Weight};
use std::sync::Arc;

/// Adjacency lists of every partition's local vertices, CSR-style: a
/// partition owns the keys from its `base` on, one per local id, and the
/// list of key `k` is `adj[off[k]..off[k + 1]]` — so a partition's lists are
/// one contiguous stretch. Neighbors are stored by *global* id, because
/// vertex data is.
#[derive(Debug)]
struct Adjacency {
    off: Vec<usize>,
    adj: Vec<(VertexId, Weight)>,
}

impl Adjacency {
    #[inline]
    fn of(&self, k: usize) -> &[(VertexId, Weight)] {
        &self.adj[self.off[k]..self.off[k + 1]]
    }

    /// Groups the input edges by key with `epg-graph`'s stable counting
    /// sort, so every list keeps input order: `keys` holds one key per
    /// edge, `neighbors` yields that edge's (neighbor, weight).
    fn group(
        nkeys: usize,
        keys: &[u32],
        neighbors: impl Iterator<Item = (VertexId, Weight)>,
    ) -> Arc<Self> {
        let keys = keys.iter().map(|&k| k as usize);
        let mut adj = vec![(0, 0.0); keys.len()];
        let off = group_by_key(nkeys, keys.clone(), keys.zip(neighbors), |slot, e| adj[slot] = e);
        Arc::new(Adjacency { off, adj })
    }
}

/// One partition's slice of the graph: a CSR and a CSC over local ids.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Global id of each local vertex, ascending; the index is the local id.
    vertices: Vec<VertexId>,
    /// Key of local vertex 0 in `outs` and `ins`.
    base: usize,
    /// (global dst, weight) by local src.
    outs: Arc<Adjacency>,
    /// (global src, weight) by local dst.
    ins: Arc<Adjacency>,
}

impl Partition {
    /// The replicas hosted here, ascending by global id; a vertex's
    /// position is its local id.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Local out-edges of local vertex `l`: (global dst, weight), in input
    /// order.
    #[inline]
    pub fn out_edges(&self, l: usize) -> &[(VertexId, Weight)] {
        self.outs.of(self.base + l)
    }

    /// Local in-edges of local vertex `l`: (global src, weight), in input
    /// order.
    #[inline]
    pub fn in_edges(&self, l: usize) -> &[(VertexId, Weight)] {
        self.ins.of(self.base + l)
    }

    /// Key of local vertex 0: local vertex `l` here is replica
    /// `base() + l` of the graph's [`PartitionedGraph::num_replicas`], the
    /// key its CSR/CSC lists are grouped under.
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of edges assigned here.
    #[inline]
    pub fn num_edges(&self) -> usize {
        let off = &self.outs.off;
        off[self.base + self.vertices.len()] - off[self.base]
    }
}

/// Global id -> local id, per partition: the partitions hosting `v` are the
/// set bits of `presence[v]`, and `lvid[off[v] + k]` is `v`'s local id in
/// the `k`-th of them.
#[derive(Clone, Debug)]
struct LocalIds {
    presence: Vec<u64>,
    off: Vec<usize>,
    lvid: Vec<u32>,
}

impl LocalIds {
    #[inline]
    fn get(&self, v: VertexId, pi: usize) -> Option<usize> {
        let bits = self.presence[v as usize];
        let bit = 1u64 << pi;
        if bits & bit == 0 {
            return None;
        }
        let rank = (bits & (bit - 1)).count_ones() as usize;
        Some(self.lvid[self.off[v as usize] + rank] as usize)
    }
}

/// The partitioned graph.
#[derive(Clone, Debug)]
pub struct PartitionedGraph {
    /// Total number of vertices.
    pub num_vertices: usize,
    /// Total number of edges.
    pub num_edges: usize,
    /// The partitions.
    pub partitions: Vec<Partition>,
    /// For each vertex, the master partition (meaningless for isolated
    /// vertices, which have no replicas).
    pub master: Vec<u16>,
    ids: LocalIds,
}

/// The set bits of `b`, ascending (for a presence word, the partitions it
/// names).
fn bits(mut b: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = b.trailing_zeros() as usize;
        b &= b.wrapping_sub(1);
        (i < 64).then_some(i)
    })
}

/// Greedy oblivious placement: the partition of every edge (by input
/// index) and, per vertex, the bitset of partitions hosting it.
pub(crate) fn place(el: &EdgeList, p: usize) -> (Vec<u8>, Vec<u64>) {
    // Bitsets of partitions per vertex (p <= 64 supported; the paper
    // runs a single node, so partition counts stay small).
    assert!(p <= 64, "at most 64 partitions supported");
    let mut presence: Vec<u64> = vec![0; el.num_vertices];
    let mut edge_part: Vec<u8> = Vec::with_capacity(el.num_edges());
    let mut load = vec![0usize; p];

    // Capacity bound: without it the greedy rule degenerates (every
    // edge of a connected graph chases its neighbors into one
    // partition). Real implementations balance with a load cap.
    let all_mask: u64 = if p == 64 { u64::MAX } else { (1u64 << p) - 1 };
    // Tight slack: a loose cap lets the neighbor-affinity preference
    // fill partitions to the brim in discovery order and starve the
    // last one; a few edges of headroom keeps loads within a constant
    // of perfectly balanced while still honoring affinity.
    let capacity = el.num_edges().div_ceil(p) + 8;
    // Partitions still under the cap; a bit clears when its load gets there.
    let mut under_cap = all_mask;
    for &(u, v) in &el.edges {
        let pu = presence[u as usize];
        let pv = presence[v as usize];
        let both = pu & pv & under_cap;
        let either = (pu | pv) & under_cap;
        let candidates: u64 = if both != 0 {
            both
        } else if either != 0 {
            either
        } else if under_cap != 0 {
            under_cap
        } else {
            all_mask
        };
        // Least-loaded among the (never zero) candidates, lowest index on a tie.
        let best = bits(candidates).min_by_key(|&i| load[i]).unwrap_or_default();
        edge_part.push(best as u8);
        load[best] += 1;
        if load[best] >= capacity {
            under_cap &= !(1u64 << best);
        }
        presence[u as usize] |= 1 << best;
        presence[v as usize] |= 1 << best;
    }
    (edge_part, presence)
}

impl PartitionedGraph {
    /// Partitions an edge list into `num_partitions` vertex-cut partitions.
    pub fn build(el: &EdgeList, num_partitions: usize) -> PartitionedGraph {
        assert!(num_partitions >= 1, "need at least one partition");
        let n = el.num_vertices;
        let p = num_partitions;
        let (edge_part, presence) = place(el, p);

        // Master: hashed choice among replicas (PowerGraph hashes vertex id).
        let master: Vec<u16> = presence
            .iter()
            .enumerate()
            .map(|(v, &b)| bits(b).nth((v * 2654435761) % b.count_ones().max(1) as usize))
            .map(|pi| pi.unwrap_or(0) as u16)
            .collect();

        // Local ids: scanning vertices in ascending order hands each
        // partition its replicas ascending too.
        let mut vertices: Vec<Vec<VertexId>> = vec![Vec::new(); p];
        let mut off = Vec::with_capacity(n + 1);
        let mut lvid: Vec<u32> =
            Vec::with_capacity(presence.iter().map(|b| b.count_ones() as usize).sum());
        for (v, &b) in presence.iter().enumerate() {
            off.push(lvid.len());
            for pi in bits(b) {
                let hosted = &mut vertices[pi];
                lvid.push(hosted.len() as u32);
                hosted.push(v as VertexId);
            }
        }
        off.push(lvid.len());
        let ids = LocalIds { presence, off, lvid };

        // Every edge's ends as keys — its partition's base plus the local id
        // there; the CSR groups the edges by src key, the CSC by dst key.
        let mut base = vec![0usize; p + 1];
        for (pi, hosted) in vertices.iter().enumerate() {
            base[pi + 1] = base[pi] + hosted.len();
        }
        assert!(base[p] <= u32::MAX as usize, "keys are kept in 32 bits");
        let key = |x, pi: u8| {
            let pi = pi as usize;
            (base[pi] + ids.get(x, pi).expect("an edge's partition hosts its ends")) as u32
        };
        let keys = el.edges.iter().zip(&edge_part).map(|(&(u, v), &pi)| (key(u, pi), key(v, pi)));
        let (by_src, by_dst): (Vec<u32>, Vec<u32>) = keys.unzip();
        let outs = Adjacency::group(base[p], &by_src, el.iter().map(|(_, v, w)| (v, w)));
        let ins = Adjacency::group(base[p], &by_dst, el.iter().map(|(u, _, w)| (u, w)));
        let part =
            |(vertices, &base)| Partition { vertices, base, outs: outs.clone(), ins: ins.clone() };
        let partitions = vertices.into_iter().zip(&base).map(part).collect();
        PartitionedGraph { num_vertices: n, num_edges: el.num_edges(), partitions, master, ids }
    }

    /// Local id of `v` in partition `pi` (its index in that partition's
    /// [`Partition::vertices`]), or `None` when `pi` hosts no replica of it.
    #[inline]
    pub fn local_id(&self, v: VertexId, pi: usize) -> Option<usize> {
        self.ids.get(v, pi)
    }

    /// `v`'s replicas as (partition, local id there), ascending by
    /// partition; none for an isolated vertex.
    #[inline]
    pub fn replicas_of(&self, v: VertexId) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (v, ids) = (v as usize, &self.ids);
        bits(ids.presence[v]).zip(ids.lvid[ids.off[v]..ids.off[v + 1]].iter().map(|&l| l as usize))
    }

    /// Replicas of all vertices together; [`Partition::base`] numbers them.
    pub fn num_replicas(&self) -> usize {
        self.ids.lvid.len()
    }

    /// `v`'s mirrors (replicas beyond the master) — one value-sync message
    /// each whenever `v`'s apply changes it.
    #[inline]
    pub fn num_mirrors_of(&self, v: VertexId) -> u64 {
        self.ids.presence[v as usize].count_ones().saturating_sub(1) as u64
    }

    /// `v`'s out-neighbors across all partitions, sorted and deduplicated —
    /// the set a root signals before the first superstep.
    pub fn out_neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = self
            .replicas_of(v)
            .flat_map(|(pi, l)| self.partitions[pi].out_edges(l).iter().map(|&(d, _)| d))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Average number of replicas per non-isolated vertex — PowerGraph's
    /// replication factor, the driver of its synchronization overhead.
    pub fn replication_factor(&self) -> f64 {
        match self.ids.presence.iter().filter(|&&b| b != 0).count() {
            0 => 0.0,
            hosted => self.num_replicas() as f64 / hosted as f64,
        }
    }

    /// Total mirror count — each is one value-synchronization message per
    /// apply.
    pub fn num_mirrors(&self) -> u64 {
        (0..self.num_vertices as VertexId).map(|v| self.num_mirrors_of(v)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        epg_generator::uniform::generate(100, 1200, true, 3).symmetrized().deduplicated()
    }

    /// Every `(src, dst, weight)` a partition holds, read through its CSR.
    fn out_triples(part: &Partition) -> Vec<(VertexId, VertexId, u32)> {
        let mut got = Vec::new();
        for (l, &u) in part.vertices().iter().enumerate() {
            got.extend(part.out_edges(l).iter().map(|&(v, w)| (u, v, w.to_bits())));
        }
        got
    }

    #[test]
    fn every_edge_lands_in_exactly_one_partition() {
        let el = sample();
        let pg = PartitionedGraph::build(&el, 8);
        let total: usize = pg.partitions.iter().map(|p| p.num_edges()).sum();
        assert_eq!(total, el.num_edges());
        // Recover the multiset of edges.
        let mut got: Vec<(VertexId, VertexId, u32)> =
            pg.partitions.iter().flat_map(out_triples).collect();
        let mut want: Vec<(VertexId, VertexId, u32)> =
            el.iter().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn in_and_out_adjacency_agree() {
        let el = sample();
        let pg = PartitionedGraph::build(&el, 4);
        for part in &pg.partitions {
            let locals = 0..part.vertices().len();
            let outs: usize = locals.clone().map(|l| part.out_edges(l).len()).sum();
            let ins: usize = locals.map(|l| part.in_edges(l).len()).sum();
            assert_eq!(outs, ins);
            assert_eq!(outs, part.num_edges());
        }
    }

    #[test]
    fn replicas_cover_all_edge_endpoints() {
        let el = sample();
        let pg = PartitionedGraph::build(&el, 8);
        for (pi, part) in pg.partitions.iter().enumerate() {
            for (l, &u) in part.vertices().iter().enumerate() {
                assert!(
                    pg.replicas_of(u).any(|r| r == (pi, l)),
                    "vertex {u} present in partition {pi} but not registered"
                );
            }
        }
    }

    #[test]
    fn master_is_one_of_the_replicas() {
        let el = sample();
        let pg = PartitionedGraph::build(&el, 8);
        for v in 0..pg.num_vertices as VertexId {
            if pg.replicas_of(v).next().is_some() {
                assert!(pg.replicas_of(v).any(|(pi, _)| pi == pg.master[v as usize] as usize));
            }
        }
    }

    #[test]
    fn hub_vertices_replicate_more() {
        // A star graph: the hub must appear in many partitions, leaves in 1.
        let edges: Vec<_> = (1..200u32).map(|v| (0, v)).collect();
        let el = EdgeList::new(200, edges);
        let pg = PartitionedGraph::build(&el, 8);
        assert!(pg.replicas_of(0).count() > 1, "hub not cut");
        let leaf_avg: f64 =
            (1..200).map(|v| pg.replicas_of(v).count()).sum::<usize>() as f64 / 199.0;
        assert!(leaf_avg < 1.5);
        assert!(pg.replication_factor() > 1.0);
    }

    #[test]
    fn single_partition_degenerates_gracefully() {
        let el = sample();
        let pg = PartitionedGraph::build(&el, 1);
        assert_eq!(pg.partitions.len(), 1);
        assert!((pg.replication_factor() - 1.0).abs() < 1e-12);
        assert_eq!(pg.num_mirrors(), 0);
    }

    #[test]
    fn load_is_roughly_balanced() {
        let el = sample();
        let pg = PartitionedGraph::build(&el, 8);
        let loads: Vec<usize> = pg.partitions.iter().map(|p| p.num_edges()).collect();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(max <= min * 3 + 16, "imbalanced: {loads:?}");
    }

    /// Greedy placement is pinned to what the hash-map layout produced:
    /// loads, mirror count and an FNV-1a fingerprint of edge index ->
    /// partition, on a raw (duplicates and self-loops kept) uniform graph.
    #[test]
    fn placement_is_pinned() {
        let el = epg_generator::uniform::generate(100, 1200, true, 3);
        let pins: [(usize, &[usize], u64, u64); 3] = [
            (1, &[1200], 0, 0x74b4429a2fdd70e5),
            (4, &[300, 301, 299, 300], 171, 0x04848d0ed8e819cc),
            (8, &[151, 150, 150, 151, 150, 149, 149, 150], 277, 0x89bf115da63c6c93),
        ];
        for (p, loads, mirrors, fingerprint) in pins {
            let (edge_part, _) = place(&el, p);
            let fp = edge_part
                .iter()
                .fold(0xcbf29ce484222325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3));
            assert_eq!(fp, fingerprint, "p = {p}");
            let pg = PartitionedGraph::build(&el, p);
            let got: Vec<usize> = pg.partitions.iter().map(|p| p.num_edges()).collect();
            assert_eq!(got, loads, "p = {p}");
            assert_eq!(pg.num_mirrors(), mirrors, "p = {p}");
        }
    }

    /// The layout's invariants on one graph: local ids index `vertices`
    /// exactly for the replicas, and each `(partition, vertex)` adjacency
    /// is that partition's share of the input, in input order.
    fn check_layout(el: &EdgeList, p: usize) {
        let pg = PartitionedGraph::build(el, p);
        assert_eq!(pg.partitions.len(), p);
        for v in 0..el.num_vertices as VertexId {
            for pi in 0..p {
                let part = &pg.partitions[pi];
                match pg.local_id(v, pi) {
                    Some(l) => assert_eq!(part.vertices()[l], v),
                    None => assert!(!part.vertices().contains(&v)),
                }
            }
            // The replica table agrees with the probe, ascending by partition.
            let probed: Vec<(usize, usize)> =
                (0..p).filter_map(|pi| Some((pi, pg.local_id(v, pi)?))).collect();
            assert_eq!(pg.replicas_of(v).collect::<Vec<_>>(), probed);
            assert_eq!(pg.num_mirrors_of(v), probed.len().saturating_sub(1) as u64);
        }
        assert_eq!(pg.num_replicas(), pg.partitions.iter().map(|p| p.vertices().len()).sum());
        let (edge_part, _) = place(el, p);
        let n = el.num_vertices;
        let mut want_out = vec![vec![Vec::new(); n]; p];
        let mut want_in = vec![vec![Vec::new(); n]; p];
        for ((u, v, w), &pi) in el.iter().zip(&edge_part) {
            want_out[pi as usize][u as usize].push((v, w));
            want_in[pi as usize][v as usize].push((u, w));
        }
        for (pi, part) in pg.partitions.iter().enumerate() {
            assert!(part.vertices().windows(2).all(|w| w[0] < w[1]), "local ids ascend");
            for v in 0..n {
                let (outs, ins): (&[_], &[_]) = match pg.local_id(v as VertexId, pi) {
                    Some(l) => (part.out_edges(l), part.in_edges(l)),
                    None => (&[], &[]),
                };
                assert_eq!(outs, want_out[pi][v], "out-edges of {v} in partition {pi}");
                assert_eq!(ins, want_in[pi][v], "in-edges of {v} in partition {pi}");
            }
        }
    }

    #[test]
    fn layout_invariants_hold() {
        // Raw generator output: parallel edges and self-loops included.
        let el = epg_generator::uniform::generate(100, 1200, true, 3);
        for p in [1, 3, 8, 64] {
            check_layout(&el, p);
        }
        check_layout(&sample(), 8);
    }

    #[test]
    fn sixty_four_partitions_use_the_top_bit() {
        // Disjoint edges have no affinity: least-loaded placement spreads
        // them over all 64 partitions.
        let el = EdgeList::new(1280, (0..640u32).map(|i| (2 * i, 2 * i + 1)).collect());
        let pg = PartitionedGraph::build(&el, 64);
        assert!(pg.partitions.iter().all(|p| p.num_edges() == 10));
        check_layout(&el, 64);
        // A star big enough to fill 63 partitions to the cap cuts its hub
        // 64 ways; the hub's rank in partition 63 counts all 63 bits below.
        let el = EdgeList::new(40_001, (1..40_001u32).map(|v| (0, v)).collect());
        let pg = PartitionedGraph::build(&el, 64);
        assert_eq!(pg.replicas_of(0).count(), 64);
        let l = pg.local_id(0, 63).expect("hub hosted by the last partition");
        assert_eq!(pg.partitions[63].vertices()[l], 0);
        assert_eq!(pg.partitions[63].out_edges(l).len(), pg.partitions[63].num_edges());
        assert!(pg.partitions[63].num_edges() > 0);
    }

    #[test]
    fn more_partitions_than_edges_leaves_some_empty() {
        let el = EdgeList::weighted(5, vec![(0, 1), (1, 2), (3, 3)], vec![1.0, 2.0, 3.0]);
        let pg = PartitionedGraph::build(&el, 8);
        assert!(pg.partitions.iter().any(|p| p.vertices().is_empty() && p.num_edges() == 0));
        assert_eq!(pg.partitions.iter().map(|p| p.num_edges()).sum::<usize>(), 3);
        check_layout(&el, 8);
    }

    #[test]
    fn edgeless_and_empty_graphs_build() {
        for n in [0usize, 5] {
            let el = EdgeList::new(n, Vec::new());
            let pg = PartitionedGraph::build(&el, 4);
            assert_eq!(pg.num_vertices, n);
            assert_eq!(pg.replication_factor(), 0.0);
            assert_eq!(pg.num_mirrors(), 0);
            assert!(pg.partitions.iter().all(|p| p.vertices().is_empty() && p.num_edges() == 0));
            assert!((0..n as VertexId).all(|v| pg.local_id(v, 0).is_none()));
            assert!((0..n as VertexId).all(|v| pg.out_neighbors(v).is_empty()));
            check_layout(&el, 4);
        }
    }
}
