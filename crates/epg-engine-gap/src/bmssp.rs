//! Bounded multi-source shortest paths (BMSSP) — the recursive SSSP
//! kernel of Duan, Mao, Mao, Shu and Yin, "Breaking the Sorting Barrier
//! for Directed Single-Source Shortest Paths" (arXiv:2504.17033).
//!
//! The recursion `bmssp(l, B, S)` completes every vertex whose shortest
//! path stays below the bound `B` and runs through the source set `S`,
//! either fully (returning `B` itself) or partially (returning a smaller
//! bound `B'` under which everything is complete). Each level finds pivot
//! sources via `k` rounds of Bellman-Ford-style relaxation
//! ([`Ctx::find_pivots`]), feeds them to a partial-order block queue
//! ([`PullQueue`]), and repeatedly pulls the smallest batch for the level
//! below; level 0 is a truncated Dijkstra ([`Ctx::base_case`]).
//!
//! Two ports from the paper's real-weight setting to f32 matter here:
//!
//! - **Composite keys.** Every ordering decision uses
//!   `(dist_to_key(d) << 32) | vertex` — the order-preserving f32→u64
//!   mapping from [`crate::radix`] widened with the vertex id. Keys are
//!   totally ordered and distinct per vertex, so tied distances (zero
//!   weights, duplicate weights) cannot stall the bound-shrinking
//!   argument the recursion's termination rests on.
//! - **Tie-robust truncation.** The base case only truncates at a *clean
//!   cut*: after `k+1` settles it keeps settling until the smallest
//!   pending key exceeds the largest settled one, so the returned bound
//!   never strands an equal-distance vertex below itself (all-zero-weight
//!   graphs like `max_dense_zero` exercise exactly this).
//!
//! The adaptive constant-degree preprocessing of the paper (§2) is
//! applied when the graph's maximum out-degree exceeds a small cap: each
//! vertex becomes a zero-weight cycle of slots carrying at most
//! [`CD_FAN`] original out-edges each, with all in-edges retargeted to
//! the head slot; distances map back through the head.

use crate::radix::dist_to_key;
use epg_engine_api::{AlgorithmResult, Dir, RunLog, RunOutput, RunParams};
use epg_graph::{Csr, VertexId, Weight, INF_DIST};
use epg_parallel::ThreadPool;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Expansion trigger: graphs whose maximum out-degree stays at or below
/// this run in place (the "adaptive" half of the preprocessing).
const CD_CAP: usize = 8;
/// Original out-edges carried per slot vertex after expansion.
const CD_FAN: usize = 4;
/// Clamp for `2^(l·t)` block/workload sizes, far above any real level.
const MAX_SHIFT: usize = 30;

// ---------------------------------------------------------------------
// Constant-degree preprocessing
// ---------------------------------------------------------------------

/// Flat adjacency worked on by the recursion: either a plain copy of the
/// CSR or its constant-degree expansion.
struct FlatGraph {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
    /// Original vertex → head slot; `None` when no expansion happened.
    heads: Option<Vec<VertexId>>,
    /// Expanded vertex count.
    n: usize,
}

impl FlatGraph {
    #[inline]
    fn edges(&self, u: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let (lo, hi) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
        self.targets[lo..hi].iter().copied().zip(self.weights[lo..hi].iter().copied())
    }
}

/// Copies or expands `g`. Expansion replaces each vertex with
/// `ceil(out_degree / CD_FAN)` slots joined in a zero-weight cycle; slot
/// `j` carries original out-edges `[j·CD_FAN, (j+1)·CD_FAN)` retargeted
/// to head slots, so every slot has out-degree ≤ CD_FAN + 1 and in-edges
/// concentrate on heads whose distances equal the original vertex's.
fn build_graph(g: &Csr) -> FlatGraph {
    let n = g.num_vertices();
    let max_deg = (0..n).fold(0usize, |m, v| m.max(g.out_degree(v as VertexId)));
    if max_deg <= CD_CAP {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(g.num_edges());
        let mut weights = Vec::with_capacity(g.num_edges());
        for v in 0..n {
            for (u, w) in g.neighbors_weighted(v as VertexId) {
                targets.push(u);
                weights.push(w);
            }
            offsets.push(targets.len());
        }
        return FlatGraph { offsets, targets, weights, heads: None, n };
    }

    let slot_count = |d: usize| d.div_ceil(CD_FAN).max(1);
    let mut heads: Vec<VertexId> = Vec::with_capacity(n);
    let mut slots = 0usize;
    for v in 0..n {
        heads.push(slots as VertexId);
        slots += slot_count(g.out_degree(v as VertexId));
    }
    let mut offsets = Vec::with_capacity(slots + 1);
    offsets.push(0);
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    for v in 0..n {
        let deg = g.out_degree(v as VertexId);
        let q = slot_count(deg);
        let mut out = g.neighbors_weighted(v as VertexId);
        for j in 0..q {
            for _ in 0..CD_FAN {
                let Some((u, w)) = out.next() else { break };
                targets.push(heads[u as usize]);
                weights.push(w);
            }
            if q > 1 {
                // Zero-weight cycle edge to the next slot (wrapping), so
                // every slot's distance equals the head's.
                let next = heads[v] + ((j + 1) % q) as VertexId;
                targets.push(next);
                weights.push(0.0);
            }
            offsets.push(targets.len());
        }
    }
    FlatGraph { offsets, targets, weights, heads: Some(heads), n: slots }
}

// ---------------------------------------------------------------------
// Partial-order block queue (Lemma 3.3, simplified)
// ---------------------------------------------------------------------

/// Block-list priority structure over composite u64 keys, simplified
/// from the paper's Lemma 3.3: `d0` holds batch-prepended blocks (each
/// batch strictly below everything stored at prepend time, so the block
/// sequence is fully ordered), `d1` holds inserted keys partitioned by
/// exclusive upper bounds with median splits. `pull` removes up to `cap`
/// smallest keys and returns a separating bound. Amortized costs differ
/// from the paper's (blocks stay sorted); the interface and invariants
/// are the ones the recursion needs.
struct PullQueue {
    cap: usize,
    bound: u64,
    d0: VecDeque<Vec<u64>>,
    d1: Vec<Vec<u64>>,
    /// `d1_upper[i]` is the exclusive upper bound of `d1[i]`; ascending,
    /// last always equal to `bound`.
    d1_upper: Vec<u64>,
    len: usize,
}

impl PullQueue {
    fn new(cap: usize, bound: u64) -> PullQueue {
        PullQueue {
            cap: cap.max(1),
            bound,
            d0: VecDeque::new(),
            d1: Vec::new(),
            d1_upper: Vec::new(),
            len: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Smallest stored key, if any (front blocks hold each list's
    /// minimum).
    fn min_key(&self) -> Option<u64> {
        let m0 = self.d0.front().and_then(|b| b.first().copied());
        let m1 = self.d1.first().and_then(|b| b.first().copied());
        match (m0, m1) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// Inserts one key below the bound. A key encodes a (distance,
    /// vertex) pair, so per-block dedup gives the paper's set semantics.
    fn insert(&mut self, key: u64) {
        if key >= self.bound {
            return;
        }
        if self.d1.is_empty() {
            self.d1.push(Vec::new());
            self.d1_upper.push(self.bound);
        }
        // First block whose exclusive upper bound covers the key.
        let i = self.d1_upper.partition_point(|&u| u <= key);
        match self.d1[i].binary_search(&key) {
            Ok(_) => return,
            Err(pos) => self.d1[i].insert(pos, key),
        }
        self.len += 1;
        if self.d1[i].len() > self.cap {
            // Median split; keys are distinct so the boundary is clean.
            let mid = self.d1[i].len() / 2;
            let right = self.d1[i].split_off(mid);
            let boundary = right[0];
            self.d1_upper.insert(i, boundary);
            self.d1.insert(i + 1, right);
        }
    }

    /// Prepends a batch of keys, all strictly smaller than every key
    /// currently stored (the recursion only prepends keys below the
    /// separating bound of the last pull).
    fn batch_prepend(&mut self, mut items: Vec<u64>) {
        items.retain(|&k| k < self.bound);
        items.sort_unstable();
        items.dedup();
        let mut hi = items.len();
        while hi > 0 {
            let lo = hi.saturating_sub(self.cap);
            let chunk = items[lo..hi].to_vec();
            self.len += chunk.len();
            self.d0.push_front(chunk);
            hi = lo;
        }
    }

    /// Removes up to `cap` smallest keys. Returns `(sep, keys)` where
    /// every returned key is ≤ `sep`, every remaining key is ≥ `sep`, and
    /// `sep == bound` exactly when the structure drained.
    fn pull(&mut self) -> (u64, Vec<u64>) {
        // Candidate prefix runs; each is sorted and holds its list's
        // smallest keys, so the global cap-smallest live inside them.
        let mut run0: Vec<u64> = Vec::new();
        while run0.len() < self.cap {
            match self.d0.pop_front() {
                Some(b) => run0.extend_from_slice(&b),
                None => break,
            }
        }
        let mut run1: Vec<u64> = Vec::new();
        let mut popped_upper = self.bound;
        while run1.len() < self.cap && !self.d1.is_empty() {
            run1.extend_from_slice(&self.d1.remove(0));
            popped_upper = self.d1_upper.remove(0);
        }

        // Two-pointer select of the cap smallest; equal keys across the
        // two runs collapse into one pulled copy.
        let mut pulled: Vec<u64> = Vec::with_capacity(self.cap);
        let (mut i, mut j) = (0usize, 0usize);
        let mut consumed = 0usize;
        while pulled.len() < self.cap && (i < run0.len() || j < run1.len()) {
            if i < run0.len() && j < run1.len() && run0[i] == run1[j] {
                pulled.push(run0[i]);
                i += 1;
                j += 1;
                consumed += 2;
            } else if i < run0.len() && (j >= run1.len() || run0[i] < run1[j]) {
                pulled.push(run0[i]);
                i += 1;
                consumed += 1;
            } else {
                pulled.push(run1[j]);
                j += 1;
                consumed += 1;
            }
        }
        self.len -= consumed;

        // Leftover suffixes go back to their own lists (cross-list order
        // is not maintained, per-list order is).
        if i < run0.len() {
            let mut hi = run0.len();
            while hi > i {
                let lo = hi.saturating_sub(self.cap).max(i);
                self.d0.push_front(run0[lo..hi].to_vec());
                hi = lo;
            }
        }
        if j < run1.len() {
            let leftover = &run1[j..];
            let mut blocks: Vec<Vec<u64>> = Vec::new();
            let mut uppers: Vec<u64> = Vec::new();
            let mut at = 0usize;
            while at < leftover.len() {
                let end = (at + self.cap).min(leftover.len());
                blocks.push(leftover[at..end].to_vec());
                uppers.push(if end < leftover.len() { leftover[end] } else { popped_upper });
                at = end;
            }
            // Reinstate as the new prefix of d1.
            blocks.append(&mut self.d1);
            uppers.append(&mut self.d1_upper);
            self.d1 = blocks;
            self.d1_upper = uppers;
        }

        let mut sep = self.bound;
        if let Some(front) = self.d0.front() {
            sep = sep.min(front[0]);
        }
        if let Some(first) = self.d1.first() {
            if let Some(&k) = first.first() {
                sep = sep.min(k);
            }
        }
        (sep, pulled)
    }
}

// ---------------------------------------------------------------------
// The recursion
// ---------------------------------------------------------------------

struct Ctx<'a> {
    g: &'a FlatGraph,
    pool: &'a ThreadPool,
    dist: Vec<Weight>,
    /// Completed = member of exactly one returned U set; distances of
    /// completed vertices are final.
    complete: Vec<bool>,
    /// Stamped membership marks (W sets and forest visits) — stamps make
    /// the arrays reentrant across nested `find_pivots` calls.
    mark: Vec<u64>,
    mark2: Vec<u64>,
    stamp: u64,
    k: usize,
    t: usize,
    log: RunLog<'a>,
    completed: u64,
    cancelled: bool,
    poll: u32,
}

impl Ctx<'_> {
    /// Composite ordering key: order-preserving distance bits, then
    /// vertex id. Distinct per vertex, monotone in distance.
    #[inline]
    fn key(&self, v: VertexId) -> u64 {
        (dist_to_key(self.dist[v as usize]) << 32) | v as u64
    }

    /// Counts a unit of work; every 1024th reports progress (the vertices
    /// completed so far stand in for a frontier) and polls the token.
    #[inline]
    fn poll_cancel(&mut self) -> bool {
        self.poll = self.poll.wrapping_add(1);
        if !self.cancelled && self.poll & 1023 == 0 {
            let report = self.log.iteration(self.pool, self.poll >> 10, self.completed, Dir::Push);
            self.cancelled = report.is_break();
        }
        self.cancelled
    }

    fn mark_complete(&mut self, v: VertexId) {
        self.complete[v as usize] = true;
        self.completed += 1;
    }

    /// Algorithm 2: truncated Dijkstra from the single source `x` under
    /// bound `b`. Relaxation uses `≤` so vertices whose exact distance a
    /// `find_pivots` round already installed still get queued and settled
    /// (their out-edges must be relaxed onward). Settles through distance
    /// ties (see module docs) so the returned bound is a clean cut: every
    /// vertex reachable below it through `x` is complete.
    fn base_case(&mut self, b: u64, x: VertexId) -> (u64, Vec<VertexId>) {
        self.log.counters.iterations = self.log.counters.iterations.saturating_add(1);
        let g = self.g;
        let mut u0: Vec<VertexId> = Vec::new();
        let mut heap: BinaryHeap<Reverse<(u64, VertexId)>> = BinaryHeap::new();
        heap.push(Reverse((self.key(x), x)));
        let mut max_settled = 0u64;
        let mut bp = b;
        while let Some(&Reverse((kk, u))) = heap.peek() {
            if u0.len() > self.k && kk > max_settled {
                // Clean cut: nothing pending ties the settled prefix. The
                // peeked key is the minimum over all remaining entries
                // (stale ones included), so it is an honest bound.
                bp = kk;
                break;
            }
            heap.pop();
            if self.poll_cancel() {
                break;
            }
            if kk >= b || kk != self.key(u) || self.complete[u as usize] {
                continue;
            }
            u0.push(u);
            self.mark_complete(u);
            max_settled = kk;
            let du = self.dist[u as usize];
            for (v, w) in g.edges(u) {
                self.log.counters.edges_traversed += 1;
                let nd = du + w;
                let dv = self.dist[v as usize];
                if nd < dv {
                    self.dist[v as usize] = nd;
                }
                if nd <= dv && !self.complete[v as usize] {
                    let vk = self.key(v);
                    if vk < b {
                        heap.push(Reverse((vk, v)));
                    }
                }
            }
        }
        (bp, u0)
    }

    /// Algorithm 1: `k` rounds of relaxation from `S`. Returns `(P, W)`:
    /// the pivot sources whose tight-edge trees reach ≥ k vertices (or
    /// all of `S` when `W` outgrew `k·|S|`), and the touched set `W`.
    fn find_pivots(&mut self, b: u64, s: &[VertexId]) -> (Vec<VertexId>, Vec<VertexId>) {
        let g = self.g;
        self.stamp += 1;
        let stamp = self.stamp;
        let mut w: Vec<VertexId> = Vec::new();
        for &x in s {
            if self.mark[x as usize] != stamp {
                self.mark[x as usize] = stamp;
                w.push(x);
            }
        }
        let mut frontier = w.clone();
        let cap = self.k.saturating_mul(s.len().max(1));
        for _ in 0..self.k {
            if frontier.is_empty() || self.poll_cancel() {
                break;
            }
            let mut next: Vec<VertexId> = Vec::new();
            for &u in &frontier {
                let du = self.dist[u as usize];
                for (v, wt) in g.edges(u) {
                    self.log.counters.edges_traversed += 1;
                    let nd = du + wt;
                    let dv = self.dist[v as usize];
                    if nd < dv {
                        self.dist[v as usize] = nd;
                    }
                    // ≤ keeps ties in W, mirroring the paper's forest.
                    if nd <= dv && self.mark[v as usize] != stamp && self.key(v) < b {
                        self.mark[v as usize] = stamp;
                        next.push(v);
                        w.push(v);
                    }
                }
            }
            if w.len() > cap {
                return (s.to_vec(), w);
            }
            frontier = next;
        }
        // Tight-edge forest over W: BFS from each source over edges that
        // realize current distances, crediting each vertex to one root.
        self.stamp += 1;
        let stamp2 = self.stamp;
        let mut sizes: Vec<usize> = vec![0; s.len()];
        let mut queue: VecDeque<(VertexId, u32)> = VecDeque::new();
        for (i, &x) in s.iter().enumerate() {
            if self.mark2[x as usize] != stamp2 {
                self.mark2[x as usize] = stamp2;
                queue.push_back((x, i as u32));
            }
        }
        while let Some((u, ri)) = queue.pop_front() {
            sizes[ri as usize] += 1;
            let du = self.dist[u as usize];
            for (v, wt) in g.edges(u) {
                if self.mark[v as usize] == stamp
                    && self.mark2[v as usize] != stamp2
                    && self.dist[v as usize] == du + wt
                {
                    self.mark2[v as usize] = stamp2;
                    queue.push_back((v, ri));
                }
            }
        }
        let p: Vec<VertexId> =
            s.iter().enumerate().filter(|&(i, _)| sizes[i] >= self.k).map(|(_, &x)| x).collect();
        (p, w)
    }

    /// Algorithm 3: the main recursion.
    fn bmssp(&mut self, l: usize, b: u64, s: Vec<VertexId>) -> (u64, Vec<VertexId>) {
        if self.cancelled {
            return (b, Vec::new());
        }
        if l == 0 {
            debug_assert!(s.len() <= 1, "level-0 sources are singletons (pull cap is 1)");
            return match s.first() {
                None => (b, Vec::new()),
                Some(&x) => self.base_case(b, x),
            };
        }
        self.log.counters.iterations = self.log.counters.iterations.saturating_add(1);
        let g = self.g;
        let (p, w) = self.find_pivots(b, &s);
        let m_cap = 1usize << ((l - 1) * self.t).min(MAX_SHIFT);
        let target = self.k.saturating_mul(1usize << (l * self.t).min(MAX_SHIFT));
        let mut d = PullQueue::new(m_cap, b);
        for &x in &p {
            if !self.complete[x as usize] {
                d.insert(self.key(x));
            }
        }
        let mut u_all: Vec<VertexId> = Vec::new();
        let mut bprime = b;
        while !d.is_empty() {
            if self.poll_cancel() {
                break;
            }
            let (bi, pulled) = d.pull();
            // Live, incomplete members only; a key is live when its
            // distance bits still match the vertex's tentative distance.
            let mut si: Vec<VertexId> = Vec::with_capacity(pulled.len());
            for &kk in &pulled {
                let v = (kk & 0xffff_ffff) as VertexId;
                if kk == self.key(v) && !self.complete[v as usize] {
                    si.push(v);
                }
            }
            let (bpi, ui) = self.bmssp(l - 1, bi, si.clone());
            // Relax out-edges of the newly completed set. `≤` matters:
            // the recursion may already have installed this exact
            // distance, but the parent still owns requeueing the vertex.
            let mut prepend: Vec<u64> = Vec::new();
            for &u in &ui {
                let du = self.dist[u as usize];
                for (v, wt) in g.edges(u) {
                    self.log.counters.edges_traversed += 1;
                    let nd = du + wt;
                    let dv = self.dist[v as usize];
                    if nd < dv {
                        self.dist[v as usize] = nd;
                    }
                    if nd <= dv && !self.complete[v as usize] {
                        let vk = self.key(v);
                        if vk >= bpi && vk < bi {
                            prepend.push(vk);
                        } else {
                            // Covers the paper's [B_i, B) insert range
                            // (insert() drops keys ≥ b itself) and, below
                            // bpi, a safety net for same-distance-bits
                            // ties the child's bound may sit above; the
                            // partial-exit bound accounts for them via
                            // min_key().
                            d.insert(vk);
                        }
                    }
                }
            }
            // Sources the child truncated out stay pending.
            for &x in &si {
                if !self.complete[x as usize] {
                    let xk = self.key(x);
                    if xk >= bpi && xk < bi {
                        prepend.push(xk);
                    }
                }
            }
            d.batch_prepend(prepend);
            u_all.extend_from_slice(&ui);
            if u_all.len() > target {
                // Partial execution: the workload bound tripped. The
                // returned bound must sit below every key still pending,
                // child's bound and abandoned queue entries alike.
                bprime = d.min_key().map_or(bpi, |m| m.min(bpi));
                break;
            }
        }
        // Vertices the pivot search itself settled (within k relaxation
        // hops of S) that fall under the final bound.
        for &x in &w {
            if !self.complete[x as usize] && self.key(x) < bprime {
                self.mark_complete(x);
                u_all.push(x);
            }
        }
        (bprime, u_all)
    }
}

/// Runs BMSSP from `params.root`. The pool is used for cooperative cancellation
/// polling only — the kernel is single-threaded and its trace records a
/// serial region, like [`crate::radix::dijkstra_radix_heap`].
pub fn bmssp_sssp(g: &Csr, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let root = params.root.expect("SSSP needs a root");
    let n = g.num_vertices();
    let mut log = RunLog::new(params.recorder);
    if n == 0 {
        log.serial(1, 0);
        return log.finish(AlgorithmResult::Distances(Vec::new()));
    }
    let fg = build_graph(g);
    let np = fg.n;
    // Paper constants on the (possibly expanded) vertex count: k = the
    // pivot-tree threshold, t = the per-level branching exponent, and
    // ⌈log n / t⌉ recursion levels so k·2^{L·t} ≥ n and the top-level
    // call can never exit partially.
    let lg = (np.max(2) as f64).log2();
    let k = (lg.powf(1.0 / 3.0).floor() as usize).max(1);
    let t = (lg.powf(2.0 / 3.0).floor() as usize).max(1);
    let top = ((lg / t as f64).ceil() as usize).max(1);
    let src = fg.heads.as_ref().map_or(root, |h| h[root as usize]);
    let mut ctx = Ctx {
        g: &fg,
        pool,
        dist: vec![INF_DIST; np],
        complete: vec![false; np],
        mark: vec![0; np],
        mark2: vec![0; np],
        stamp: 0,
        k,
        t,
        log,
        completed: 0,
        cancelled: false,
        poll: 0,
    };
    ctx.dist[src as usize] = 0.0;
    ctx.bmssp(top, u64::MAX, vec![src]);

    let out: Vec<Weight> = match &fg.heads {
        None => ctx.dist,
        Some(h) => (0..n).map(|v| ctx.dist[h[v] as usize]).collect(),
    };
    let mut log = ctx.log;
    log.counters.vertices_touched = ctx.completed;
    log.counters.bytes_read = log.counters.edges_traversed * 12;
    log.counters.bytes_written = ctx.completed * 8;
    log.counters.iterations = log.counters.iterations.max(1);
    log.serial(log.counters.edges_traversed.max(1), log.counters.bytes_read + ctx.completed * 8);
    let _ = log.iteration(pool, (ctx.poll >> 10) + 1, ctx.completed, Dir::Push);
    log.finish(AlgorithmResult::Distances(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, EdgeList};

    fn assert_exact(el: &EdgeList, root: VertexId) {
        let g = Csr::from_edge_list(el);
        let pool = ThreadPool::new(2);
        let out = bmssp_sssp(&g, &RunParams::new(&pool, Some(root)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        let want = oracle::dijkstra(&g, root);
        assert_eq!(d.len(), want.len());
        for v in 0..want.len() {
            assert_eq!(d[v].to_bits(), want[v].to_bits(), "vertex {v}: {} vs {}", d[v], want[v]);
        }
    }

    #[test]
    fn matches_dijkstra_exactly_on_random_graph() {
        assert_exact(&epg_generator::uniform::generate(300, 2400, true, 21).symmetrized(), 7);
    }

    #[test]
    fn matches_on_low_degree_graph_without_expansion() {
        // A path stays below CD_CAP, so no expansion happens.
        let el = EdgeList::weighted(
            6,
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 4)],
            vec![1.0, 0.5, 0.25, 2.0, 0.1, 0.1],
        );
        let g = Csr::from_edge_list(&el);
        assert!(build_graph(&g).heads.is_none());
        assert_exact(&el, 0);
    }

    #[test]
    fn expansion_triggers_on_high_degree_hub_and_stays_exact() {
        // Star hub with out-degree 40 > CD_CAP: heads mapping kicks in.
        let edges: Vec<(VertexId, VertexId)> = (1..41).map(|v| (0, v)).collect();
        let weights: Vec<f32> = (1..41).map(|v| v as f32 * 0.125).collect();
        let el = EdgeList::weighted(41, edges, weights);
        let g = Csr::from_edge_list(&el);
        let fg = build_graph(&g);
        assert!(fg.heads.is_some());
        assert!(fg.n > 41, "hub must expand into multiple slots");
        assert_exact(&el, 0);
    }

    #[test]
    fn all_zero_weights_terminate_and_match() {
        // Dense all-pairs zero-weight graph: every distance ties at 0.0 —
        // the composite-key clean-cut rule is what makes this terminate.
        let n = 12u32;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let m = edges.len();
        let el = EdgeList::weighted(n as usize, edges, vec![0.0; m]);
        assert_exact(&el, 3);
    }

    #[test]
    fn disconnected_vertices_stay_infinite() {
        let el = EdgeList::weighted(5, vec![(0, 1)], vec![2.5]);
        let g = Csr::from_edge_list(&el);
        let pool = ThreadPool::new(1);
        let out = bmssp_sssp(&g, &RunParams::new(&pool, Some(0)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        assert_eq!(d[1], 2.5);
        assert!(d[2].is_infinite() && d[3].is_infinite() && d[4].is_infinite());
        assert!(out.counters.iterations >= 1);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Csr::from_edge_list(&EdgeList::new(0, vec![]));
        let pool = ThreadPool::new(1);
        let out = bmssp_sssp(&g, &RunParams::new(&pool, Some(0)));
        let AlgorithmResult::Distances(d) = out.result else { panic!() };
        assert!(d.is_empty());
    }

    // Model check: the block queue behaves like a sorted set under a
    // scripted insert / batch_prepend / pull interleaving.
    #[test]
    fn pull_queue_matches_sorted_set_model() {
        let bound = 1_000u64;
        for cap in [1usize, 2, 3, 7] {
            let mut q = PullQueue::new(cap, bound);
            let mut model: Vec<u64> = Vec::new();
            let push = |q: &mut PullQueue, model: &mut Vec<u64>, k: u64| {
                q.insert(k);
                if k < bound && !model.contains(&k) {
                    model.push(k);
                }
            };
            for k in [500, 320, 900, 44, 701, 320, 999, 1_000, 1_200, 45, 46, 47, 48] {
                push(&mut q, &mut model, k);
            }
            // First pull takes the cap smallest.
            model.sort_unstable();
            let (sep1, got) = q.pull();
            let take = cap.min(model.len());
            assert_eq!(got, model[..take].to_vec());
            let mut rest = model[take..].to_vec();
            assert!(got.iter().all(|&k| k <= sep1));
            assert!(rest.iter().all(|&k| k >= sep1));
            // Prepend strictly below everything remaining, then drain.
            let batch: Vec<u64> = vec![1, 2, 3];
            for &k in &batch {
                assert!(rest.iter().all(|&r| r > k));
            }
            q.batch_prepend(batch.clone());
            rest.splice(0..0, batch);
            let mut drained: Vec<u64> = Vec::new();
            while !q.is_empty() {
                let before = drained.len();
                let (sep, got) = q.pull();
                assert!(got.iter().all(|&k| k <= sep));
                drained.extend(got);
                assert!(drained.len() > before, "pull must make progress");
            }
            assert_eq!(drained, rest, "cap {cap}");
            let (sep, empty) = q.pull();
            assert_eq!((sep, empty.len()), (bound, 0));
        }
    }
}
