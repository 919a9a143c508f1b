//! Compressed sparse row adjacency.
//!
//! CSR is the representation shared (with implementation differences the
//! paper notes in §V) by Graph500, GAP, and GraphBIG. Construction uses the
//! counting-sort scheme of the Graph500 reference code so that the engines'
//! "data structure construction" phase does real, representative work.
//! [`group_by_key`] is that scheme, once, serial or on a pool: CSR build and
//! transpose here, and through them [`crate::Dcsc`] and
//! [`EdgeList::deduplicated`]; PowerGraph's per-partition adjacency calls it
//! directly.

use crate::{EdgeList, VertexId, Weight};
use epg_parallel::{DisjointWriter, ThreadPool};

/// Compressed-sparse-row graph. Always stores out-edges; build the transpose
/// for in-edges (pull-direction algorithms such as direction-optimizing BFS
/// and pull PageRank need both).
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `targets` (and `weights`).
    pub offsets: Vec<usize>,
    /// Concatenated adjacency lists.
    pub targets: Vec<VertexId>,
    /// Optional weights parallel to `targets`.
    pub weights: Option<Vec<Weight>>,
}

/// Fixed per-worker partition used by the two-pass kernels: worker `w` of
/// `nworkers` owns `[w·B, (w+1)·B) ∩ [0, len)` with `B = ceil(len/nworkers)`.
/// The split depends only on `len` and `nworkers` — never on scheduler
/// state — which is what makes the parallel builds deterministic.
pub(crate) fn worker_range(len: usize, w: usize, nworkers: usize) -> (usize, usize) {
    let block = len.div_ceil(nworkers).max(1);
    let lo = (w * block).min(len);
    let hi = (lo + block).min(len);
    (lo, hi)
}

/// Workers of `pool`; one without a pool.
pub(crate) fn workers(pool: Option<&ThreadPool>) -> usize {
    pool.map_or(1, ThreadPool::num_threads)
}

/// `f(w)` for every worker `w` of `pool` in one region — once, `w = 0`,
/// inline without a pool — each result in slot `w`.
pub(crate) fn on_workers<T: Clone + Default + Send>(
    pool: Option<&ThreadPool>,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let Some(pool) = pool else { return vec![f(0)] };
    let mut out = vec![T::default(); pool.num_threads()];
    let ow = DisjointWriter::new(&mut out);
    // SAFETY: slot `w` is worker `w`'s alone.
    pool.region(|w| unsafe { ow.write_unchecked(w, f(w)) });
    out
}

/// `cuts[w]..cuts[w + 1]` is worker `w`'s range of `rows` rows of
/// `nworkers`, row `j` starting at entry `ptr(j)` (non-decreasing, `ptr(0)
/// = 0`, `ptr(rows)` entries in all): the fixed `worker_range` rule over
/// entry indices, rounded to row boundaries, each cut landing on the row
/// that straddles an `m / nworkers` boundary. Nothing depends on scheduler
/// state.
pub(crate) fn edge_balanced_cuts(
    rows: usize,
    ptr: impl Fn(usize) -> usize,
    nworkers: usize,
) -> Vec<usize> {
    let m = ptr(rows);
    let block = m.div_ceil(nworkers).max(1);
    // The first row `j` with `ptr(j) >= at`.
    let first_at = |at: usize| {
        let (mut lo, mut hi) = (0, rows + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if ptr(mid) < at {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let mut cuts: Vec<usize> = (0..=nworkers).map(|w| first_at((w * block).min(m))).collect();
    cuts[0] = 0;
    cuts[nworkers] = rows; // sweep empty tail rows into the last range
    cuts
}

/// Turns a worker-major count matrix (`counts[w*n + k]` = occurrences of
/// key `k` counted by worker `w`) into the `offsets` array, and rewrites
/// `counts` in place into per-(worker, key) write cursors: after this call,
/// `counts[w*n + k]` is the first slot worker `w` may fill for key `k`, and
/// the cursor ranges of successive workers for the same key are adjacent
/// and in worker order.
fn scan_count_matrix(counts: &mut [u64], n: usize, m: usize, pool: &ThreadPool) -> Vec<usize> {
    let nworkers = pool.num_threads();
    // Reduce worker rows into per-key totals, each worker owning a
    // disjoint key range.
    let mut deg = vec![0u64; n];
    {
        let counts_ref: &[u64] = counts;
        let dw = DisjointWriter::new(&mut deg);
        pool.region(|t| {
            let (vlo, vhi) = worker_range(n, t, nworkers);
            // SAFETY: key ranges are pairwise disjoint across workers.
            let out = unsafe { dw.range_mut(vlo, vhi) };
            for (k, v) in (vlo..vhi).enumerate() {
                out[k] = (0..nworkers).map(|w| counts_ref[w * n + v]).sum();
            }
        });
    }
    let total = pool.exclusive_scan(&mut deg);
    debug_assert_eq!(total as usize, m);
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.extend(deg.iter().map(|&x| x as usize));
    offsets.push(m);
    // Scan each key's column down the worker rows so every (worker, key)
    // pair gets its own disjoint slot range, laid out in worker order — the
    // parallel scatter then reproduces the global item order exactly.
    {
        let deg_ref: &[u64] = &deg;
        let cw = DisjointWriter::new(counts);
        pool.region(|t| {
            let (vlo, vhi) = worker_range(n, t, nworkers);
            for v in vlo..vhi {
                let mut run = deg_ref[v];
                for w in 0..nworkers {
                    // SAFETY: column `v` lies in this worker's disjoint
                    // key range, so each index is touched once.
                    let slot = unsafe { cw.get_raw(w * n + v) };
                    let c = *slot;
                    *slot = run;
                    run += c;
                }
            }
        });
    }
    offsets
}

/// Stable counting sort by a key in `0..nkeys` — count, prefix-sum,
/// scatter — of `m` items: `items(lo, hi)` yields `(key, payload)` for the
/// items `lo..hi` in input order and `keys(lo, hi)` those keys alone (in
/// any order; counting wants nothing else). `place(slot, payload)` runs
/// **exactly once for every slot in `0..m`**, which is what the callers'
/// `DisjointWriter` writes rest on, and slots `offsets[k]..offsets[k + 1]`
/// of the returned array (length `nkeys + 1`) take key `k`'s items in
/// input order.
///
/// Without a pool of two or more threads this is one serial pass. With one
/// it is the GBBS scheme, with no shared atomics anywhere: each worker
/// counts a fixed contiguous range of items into its own row of a count
/// matrix, a scan turns the rows into disjoint cursors laid out in worker
/// order, and the same ranges are scattered through them, `place` running
/// concurrently. The result is identical at every thread count.
pub fn group_by_key<T, K: Iterator<Item = usize>, I: Iterator<Item = (usize, T)>>(
    (nkeys, m): (usize, usize),
    pool: Option<&ThreadPool>,
    keys: impl Fn(usize, usize) -> K + Sync,
    items: impl Fn(usize, usize) -> I + Sync,
    place: impl Fn(usize, T) + Sync,
) -> Vec<usize> {
    let Some(pool) = pool.filter(|p| p.num_threads() > 1 && m > 0) else {
        let mut cursor = vec![0usize; nkeys + 1];
        keys(0, m).for_each(|k| cursor[k + 1] += 1);
        for k in 0..nkeys {
            cursor[k + 1] += cursor[k];
        }
        let offsets = cursor.clone();
        items(0, m).for_each(|(k, payload)| {
            place(cursor[k], payload);
            cursor[k] += 1;
        });
        return offsets;
    };
    let nworkers = pool.num_threads();
    // Pass 1: private histograms, one count-matrix row per worker.
    let mut counts = vec![0u64; nworkers * nkeys];
    {
        let cw = DisjointWriter::new(&mut counts);
        pool.region(|w| {
            let (lo, hi) = worker_range(m, w, nworkers);
            // SAFETY: row `w` of the count matrix belongs to worker `w`
            // alone; rows are pairwise disjoint.
            let row = unsafe { cw.range_mut(w * nkeys, (w + 1) * nkeys) };
            keys(lo, hi).for_each(|k| row[k] += 1);
        });
    }
    let offsets = scan_count_matrix(&mut counts, nkeys, m, pool);
    // Pass 2: re-read the same fixed ranges; each (worker, key) pair fills
    // its own precomputed slot range, and those ranges partition `0..m`.
    {
        let cw = DisjointWriter::new(&mut counts);
        pool.region(|w| {
            let (lo, hi) = worker_range(m, w, nworkers);
            // SAFETY: cursor row `w` is private to worker `w`.
            let row = unsafe { cw.range_mut(w * nkeys, (w + 1) * nkeys) };
            items(lo, hi).for_each(|(k, payload)| {
                place(row[k] as usize, payload);
                row[k] += 1;
            });
        });
    }
    offsets
}

/// A compressed row format: row `j` spans `ptr[j]..ptr[j + 1]` of
/// `targets` and belongs to vertex `ids[j]`, or to vertex `j` itself
/// without `ids` — a [`Csr`]'s rows, or a [`crate::Dcsc`]'s columns.
pub(crate) struct Rows<'a> {
    pub(crate) ptr: &'a [usize],
    pub(crate) ids: Option<&'a [VertexId]>,
    pub(crate) targets: &'a [VertexId],
}

impl Rows<'_> {
    /// The CSR over `n` vertices of every entry reversed, `weights[i]`
    /// following entry `i`. Entries scatter in index order, so each
    /// reversed row lists its sources in row order.
    pub(crate) fn reversed(
        self,
        n: usize,
        weights: Option<&[Weight]>,
        pool: Option<&ThreadPool>,
    ) -> Csr {
        let Rows { ptr, ids, targets } = self;
        let items = |lo: usize, hi: usize| {
            // Row of entry `lo`: the last `j` with `ptr[j] <= lo`
            // (well-defined since `ptr[0] = 0 <= lo`); later rows are read
            // off `ptr` as the range is walked.
            let mut j = ptr.partition_point(|&o| o <= lo) - 1;
            (lo..hi).zip(&targets[lo..hi]).map(move |(i, &t)| {
                while ptr[j + 1] <= i {
                    j += 1;
                }
                (t as usize, (ids.map_or(j as VertexId, |ids| ids[j]), i))
            })
        };
        let keys = |lo: usize, hi: usize| targets[lo..hi].iter().map(|&t| t as usize);
        Csr::grouped((n, targets.len()), weights, pool, keys, items)
    }

    /// Vertex id of row `j`.
    fn id(&self, j: usize) -> usize {
        self.ids.map_or(j, |ids| ids[j] as usize)
    }

    /// True when the matrix over `n` vertices equals its transpose — the
    /// rows of the [`Rows::reversed`] entries — `weights[i]` following entry
    /// `i` and compared by bit pattern: [`Csr::is_own_transpose`] and
    /// [`crate::Dcsc::is_own_transpose`].
    ///
    /// One cursor per vertex: every entry `(u, v, w)`, visited in row
    /// order, must be the next unread entry of `v`'s row with the same
    /// weight bits. `O(V + E)`; a worker's first mismatch ends its share.
    /// On the pool each worker takes the sources of one edge-balanced cut
    /// ([`Rows::cut_fills_its_stretch`]), as many cuts as threads while the
    /// matrix has that many entries per vertex.
    pub(crate) fn is_own_transpose(
        &self,
        n: usize,
        weights: Option<&[Weight]>,
        pool: &ThreadPool,
    ) -> bool {
        // A cut's `n` cursors are paid for by at least `n` entries, so they
        // never outweigh the transpose they stand in for.
        let ncuts = pool.num_threads().min(self.targets.len() / n.max(1)).max(1);
        let cuts = edge_balanced_cuts(self.ptr.len() - 1, |j| self.ptr[j], ncuts);
        // Every cut's cursors in one allocation, made here: a buffer a
        // worker allocates lands in its thread's arena, which may keep the
        // pages after the buffer is freed.
        let mut cursors = vec![0usize; ncuts * n];
        let cw = DisjointWriter::new(&mut cursors);
        let holds = on_workers(Some(pool), |w| {
            if w >= ncuts {
                return true;
            }
            // SAFETY: cursor row `w` is worker `w`'s alone.
            let cursor = unsafe { cw.range_mut(w * n, (w + 1) * n) };
            self.cut_fills_its_stretch(weights, (cuts[w], cuts[w + 1]), cursor)
        });
        holds.into_iter().all(|h| h)
    }

    /// Whether the entries of rows `lo..hi`, in row order, are each the
    /// next unread entry of their target's row with their weight bits, and
    /// together read every row exactly across its stretch: from where its
    /// entries from sources below row `lo`'s id end to where those below
    /// row `hi`'s end.
    ///
    /// When every cut passes, each entry has met its own slot: a cursor
    /// only advances, one slot per entry, from where its stretch starts to
    /// where it ends, and the cuts' stretches meet end to start along each
    /// row. So the `m` entries fill all `m` slots, none through the cursor
    /// of a vertex without a row (a column [`crate::Dcsc`] does not
    /// materialize), and every row holds the sources of its in-entries in
    /// row order: the transpose's row. A stretch ends where a binary search
    /// says; on a row that does not ascend, which no row of a matrix equal
    /// to its transpose does, the stretches may not tile the row, and then
    /// some cursor would have to move back: the check fails, as it should.
    fn cut_fills_its_stretch(
        &self,
        weights: Option<&[Weight]>,
        (lo, hi): (usize, usize),
        cursor: &mut [usize],
    ) -> bool {
        let (ptr, targets, n) = (self.ptr, self.targets, cursor.len());
        let rows = ptr.len() - 1;
        // Where row `j`'s entries from sources below vertex `id` end.
        let below = |j: usize, id: usize| match id {
            0 => ptr[j],
            _ if id >= n => ptr[j + 1],
            _ => ptr[j] + targets[ptr[j]..ptr[j + 1]].partition_point(|&t| (t as usize) < id),
        };
        // The first source id of the cut starting at row `c`: the cuts'
        // stretches meet, and span each row from its start to its end.
        let bound = |c: usize| match c {
            0 => 0,
            _ if c == rows => n,
            _ => self.id(c),
        };
        let (from, to) = (bound(lo), bound(hi));
        for j in 0..rows {
            cursor[self.id(j)] = below(j, from);
        }
        for j in lo..hi {
            let u = self.id(j) as VertexId;
            for (i, &v) in (ptr[j]..).zip(&targets[ptr[j]..ptr[j + 1]]) {
                let at = cursor[v as usize];
                if targets.get(at) != Some(&u)
                    || weights.is_some_and(|ws| ws[at].to_bits() != ws[i].to_bits())
                {
                    return false;
                }
                cursor[v as usize] = at + 1;
            }
        }
        (0..rows).all(|j| cursor[self.id(j)] == below(j, to))
    }
}

impl Csr {
    /// The CSR that groups `m` edges by one end: `items(lo, hi)` yields
    /// `(that end, (the other end, index))` for the edges `lo..hi`,
    /// `keys(lo, hi)` the first of these alone, and an edge's weight is
    /// `from[index]`.
    fn grouped<K: Iterator<Item = usize>, I: Iterator<Item = (usize, (VertexId, usize))>>(
        (n, m): (usize, usize),
        from: Option<&[Weight]>,
        pool: Option<&ThreadPool>,
        keys: impl Fn(usize, usize) -> K + Sync,
        items: impl Fn(usize, usize) -> I + Sync,
    ) -> Csr {
        let mut targets = vec![0 as VertexId; m];
        let mut weights = from.map(|_| vec![0.0 as Weight; m]);
        let offsets = {
            let tw = DisjointWriter::new(&mut targets);
            let ww = weights.as_mut().map(|w| DisjointWriter::new(w.as_mut_slice()));
            // SAFETY: `group_by_key` hands out every slot in `0..m` once:
            // the callers' `keys` and `items` agree on every range.
            group_by_key((n, m), pool, keys, items, |slot, (t, i)| unsafe {
                tw.write_unchecked(slot, t);
                if let (Some(ww), Some(from)) = (&ww, from) {
                    ww.write_unchecked(slot, from[i]);
                }
            })
        };
        Csr { offsets, targets, weights }
    }

    /// Builds a CSR from an edge list via counting sort. `O(V + E)`.
    pub fn from_edge_list(el: &EdgeList) -> Csr {
        Csr::build(el, None)
    }

    /// [`Csr::from_edge_list`] on the pool: the two-pass build of
    /// [`group_by_key`]. The output preserves the global edge order within
    /// each adjacency list and is **byte-identical to the serial build at
    /// every thread count** — no [`Csr::sort_adjacency`] pass is needed to
    /// canonicalize.
    pub fn from_edge_list_parallel(el: &EdgeList, pool: &ThreadPool) -> Csr {
        Csr::build(el, Some(pool))
    }

    pub(crate) fn build(el: &EdgeList, pool: Option<&ThreadPool>) -> Csr {
        Csr::grouped(
            (el.num_vertices, el.edges.len()),
            el.weights.as_deref(),
            pool,
            |lo, hi| el.edges[lo..hi].iter().map(|e| e.0 as usize),
            |lo, hi| (lo..hi).zip(&el.edges[lo..hi]).map(|(i, &(u, v))| (u as usize, (v, i))),
        )
    }

    /// The CSR of `el`'s edges reversed, each `(u, v)` listed at `v` with
    /// the sources in input order: on a list ascending by `(src, dst)`, the
    /// transpose of its CSR, without building that CSR first.
    pub(crate) fn build_reversed(el: &EdgeList, pool: Option<&ThreadPool>) -> Csr {
        Csr::grouped(
            (el.num_vertices, el.edges.len()),
            el.weights.as_deref(),
            pool,
            |lo, hi| el.edges[lo..hi].iter().map(|e| e.1 as usize),
            |lo, hi| (lo..hi).zip(&el.edges[lo..hi]).map(|(i, &(u, v))| (v as usize, (u, i))),
        )
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// True if edges carry weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Neighbors of `v` with weights (1.0 when unweighted).
    pub fn neighbors_weighted(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let range = self.offsets[v as usize]..self.offsets[v as usize + 1];
        let ws = self.weights.as_deref();
        range.map(move |i| (self.targets[i], ws.map_or(1.0, |w| w[i])))
    }

    /// Builds the transposed graph (in-edges become out-edges). `O(V + E)`.
    pub fn transpose(&self) -> Csr {
        self.transposed(None)
    }

    /// [`Csr::transpose`] on the pool, **byte-identical to it at every
    /// thread count**: both scatter edges in global edge-index order, so
    /// each transposed adjacency list holds its sources ascending.
    pub fn transpose_parallel(&self, pool: &ThreadPool) -> Csr {
        self.transposed(Some(pool))
    }

    fn transposed(&self, pool: Option<&ThreadPool>) -> Csr {
        self.rows().reversed(self.num_vertices(), self.weights.as_deref(), pool)
    }

    /// True when the CSR is its own transpose: `self.transpose() == *self`,
    /// weights compared by bit pattern. Then the in-edges of every vertex
    /// are its out-edges in the order the transpose would list them, and
    /// one set of arrays serves both directions, as GAP's `CSRGraph` shares
    /// them for an undirected graph. `O(V + E)`, the same answer at every
    /// thread count; the check is `Rows::is_own_transpose`, which
    /// [`crate::Dcsc::is_own_transpose`] shares.
    pub fn is_own_transpose(&self, pool: &ThreadPool) -> bool {
        self.rows().is_own_transpose(self.num_vertices(), self.weights.as_deref(), pool)
    }

    fn rows(&self) -> Rows<'_> {
        Rows { ptr: &self.offsets, ids: None, targets: &self.targets }
    }

    /// Calls `f(buffers, v, targets of v, weights of v)` once per vertex.
    /// With a pool, vertices are split at edge-balanced cuts
    /// ([`edge_balanced_cuts`]): skewed degrees still balance by edges, and
    /// — like the construction kernels — nothing depends on scheduler state
    /// or chunk claims. Each worker hands every one of its rows the same
    /// `buffers`, empty at the start of the call, so a row that needs
    /// them reuses what an earlier row grew instead of allocating.
    fn for_each_row_mut<S: Default>(
        &mut self,
        pool: Option<&ThreadPool>,
        f: impl Fn(&mut S, usize, &mut [VertexId], Option<&mut [Weight]>) + Sync,
    ) {
        let cuts = edge_balanced_cuts(self.num_vertices(), |v| self.offsets[v], workers(pool));
        let Csr { offsets, targets, weights } = self;
        let tw = DisjointWriter::new(targets.as_mut_slice());
        let ww = weights.as_mut().map(|w| DisjointWriter::new(w.as_mut_slice()));
        on_workers(pool, |t| {
            let mut buffers = S::default();
            for v in cuts[t]..cuts[t + 1] {
                let (lo, hi) = (offsets[v], offsets[v + 1]);
                // SAFETY: per-vertex spans [lo, hi) are disjoint because the
                // vertex cut ranges handed to workers are disjoint.
                let ts = unsafe { tw.range_mut(lo, hi) };
                // SAFETY: as above.
                let ws = ww.as_ref().map(|ww| unsafe { ww.range_mut(lo, hi) });
                f(&mut buffers, v, ts, ws);
            }
        });
    }

    /// Sorts each adjacency list (weights permuted alongside). Sorted lists
    /// are required by the LCC intersection kernels.
    pub fn sort_adjacency(&mut self) {
        self.for_each_row_mut(None, sort_row);
    }

    /// [`Csr::sort_adjacency`] on the pool: each worker sorts its vertices'
    /// disjoint `targets`/`weights` spans in place, to the same order.
    pub fn sort_adjacency_parallel(&mut self, pool: &ThreadPool) {
        self.for_each_row_mut(Some(pool), sort_row);
    }

    /// Makes every adjacency list strictly ascending — of parallel edges
    /// the first in input order stays ([`EdgeList::deduplicated`]) or the
    /// last ([`crate::Dcsc`]) — and returns how many entries of each list
    /// remain, at its front.
    pub(crate) fn squeeze_rows(
        &mut self,
        pool: Option<&ThreadPool>,
        keep_last: bool,
    ) -> Vec<usize> {
        let mut kept = vec![0usize; self.num_vertices()];
        let kw = DisjointWriter::new(&mut kept);
        // SAFETY: `for_each_row_mut` visits every vertex once.
        self.for_each_row_mut(pool, |buffers, v, ts, ws| unsafe {
            kw.write_unchecked(v, squeeze_row(buffers, ts, ws, keep_last))
        });
        kept
    }

    /// Converts back to an edge list (in adjacency order).
    pub fn to_edge_list(&self) -> EdgeList {
        let n = self.num_vertices();
        let edges = (0..n as VertexId)
            .flat_map(|u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .collect();
        EdgeList { num_vertices: n, edges, weights: self.weights.clone() }
    }

    /// Approximate resident size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self.weights.as_ref().map_or(0, |w| w.len() * std::mem::size_of::<Weight>())
    }
}

/// One adjacency list into ascending order, ties between parallel edges
/// broken by the weight's bit pattern; a weighted list is sorted in the
/// worker's `pairs`.
fn sort_row(
    pairs: &mut Vec<(VertexId, Weight)>,
    _v: usize,
    ts: &mut [VertexId],
    ws: Option<&mut [Weight]>,
) {
    let Some(ws) = ws else { return ts.sort_unstable() };
    pairs.clear();
    pairs.extend(ts.iter().copied().zip(ws.iter().copied()));
    pairs.sort_unstable_by_key(|&(t, w)| (t, w.to_bits()));
    for (k, &(t, w)) in pairs.iter().enumerate() {
        ts[k] = t;
        ws[k] = w;
    }
}

/// One adjacency list for [`Csr::squeeze_rows`]; a list already strictly
/// ascending — any list of a homogenized graph — is only read. A weighted
/// list is sorted through the worker's two buffers: `keys`, one `u64` per
/// entry holding its target above its place in the list, so parallel edges
/// stay in input order without a stable sort's extra buffer, and a copy of the
/// list's weights that the places index.
fn squeeze_row(
    (keys, weights): &mut (Vec<u64>, Vec<Weight>),
    ts: &mut [VertexId],
    ws: Option<&mut [Weight]>,
    keep_last: bool,
) -> usize {
    if ts.windows(2).all(|w| w[0] < w[1]) {
        return ts.len();
    }
    let Some(ws) = ws else {
        ts.sort_unstable();
        let mut kept = 1;
        for k in 1..ts.len() {
            if ts[k] != ts[kept - 1] {
                ts[kept] = ts[k];
                kept += 1;
            }
        }
        return kept;
    };
    assert!(u32::try_from(ts.len()).is_ok(), "an adjacency list holds under 2^32 entries");
    keys.clear();
    keys.extend(ts.iter().zip(0u64..).map(|(&t, place)| u64::from(t) << 32 | place));
    keys.sort_unstable();
    weights.clear();
    weights.extend_from_slice(ws);
    let mut kept = 0;
    for &key in keys.iter() {
        let (t, w) = ((key >> 32) as VertexId, weights[key as u32 as usize]);
        if kept > 0 && ts[kept - 1] == t {
            if keep_last {
                ws[kept - 1] = w;
            }
        } else {
            ts[kept] = t;
            ws[kept] = w;
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::weighted(
            5,
            vec![(0, 1), (0, 2), (1, 3), (3, 0), (3, 4), (2, 2)],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
    }

    #[test]
    fn build_and_degrees() {
        let g = Csr::from_edge_list(&sample());
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 2);
        assert_eq!(g.out_degree(4), 0);
        assert_eq!(g.neighbors(1), &[3]);
    }

    #[test]
    fn weights_follow_edges() {
        let g = Csr::from_edge_list(&sample());
        let nbrs: Vec<_> = g.neighbors_weighted(3).collect();
        assert_eq!(nbrs, vec![(0, 4.0), (4, 5.0)]);
    }

    #[test]
    fn transpose_reverses() {
        let g = Csr::from_edge_list(&sample());
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        // In-neighbors of 0 = {3}; of 2 = {0, 2}.
        assert_eq!(t.neighbors(0), &[3]);
        let mut in2 = t.neighbors(2).to_vec();
        in2.sort_unstable();
        assert_eq!(in2, vec![0, 2]);
        // Transposing twice restores the original edges (as sets per vertex).
        let mut tt = t.transpose();
        let mut orig = g.clone();
        tt.sort_adjacency();
        orig.sort_adjacency();
        assert_eq!(tt, orig);
    }

    #[test]
    fn own_transpose_cursors_stop_at_their_rows_end() {
        // Row 0 is empty, so the cursor of 0 starts where row 2 does, at
        // the entry 2 -> 2: the edge 2 -> 0 must not claim that slot too.
        let pool = ThreadPool::new(1);
        let g = Csr::from_edge_list(&EdgeList::new(4, vec![(2, 2), (2, 0)]));
        assert!(!g.is_own_transpose(&pool));
        let g = Csr::from_edge_list(&EdgeList::new(4, vec![(2, 2), (2, 0), (0, 2)]));
        assert!(!g.is_own_transpose(&pool), "row 2 does not ascend");
        let g = Csr::from_edge_list(&EdgeList::new(4, vec![(0, 2), (2, 0), (2, 2)]));
        assert!(g.is_own_transpose(&pool));
    }

    #[test]
    fn sort_adjacency_keeps_weight_pairing() {
        let el = EdgeList::weighted(3, vec![(0, 2), (0, 1)], vec![9.0, 7.0]);
        let mut g = Csr::from_edge_list(&el);
        g.sort_adjacency();
        let nbrs: Vec<_> = g.neighbors_weighted(0).collect();
        assert_eq!(nbrs, vec![(1, 7.0), (2, 9.0)]);
    }

    #[test]
    fn edge_list_roundtrip_preserves_multiset() {
        let el = sample();
        let g = Csr::from_edge_list(&el);
        let back = g.to_edge_list();
        let mut a: Vec<_> = el.iter().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        let mut b: Vec<_> = back.iter().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0, vec![]));
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = Csr::from_edge_list(&EdgeList::new(4, vec![(1, 2)]));
        assert_eq!(g.out_degree(0), 0);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.neighbors(1), &[2]);
    }
}

#[cfg(test)]
mod parallel_build_tests {
    use super::*;
    use epg_parallel::ThreadPool;

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        // No sort pass: the two-pass build preserves global edge order, so
        // every field must match the serial counting sort exactly.
        for nthreads in [1, 2, 3, 4, 8] {
            let pool = ThreadPool::new(nthreads);
            let el = crate::EdgeList::weighted(
                200,
                (0..3000u32).map(|i| (i % 200, (i * 7 + 3) % 200)).collect(),
                (0..3000).map(|i| i as f32 * 0.5).collect(),
            );
            let par = Csr::from_edge_list_parallel(&el, &pool);
            let ser = Csr::from_edge_list(&el);
            assert_eq!(par.offsets, ser.offsets, "nthreads={nthreads}");
            assert_eq!(par.targets, ser.targets, "nthreads={nthreads}");
            assert_eq!(par.weights, ser.weights, "nthreads={nthreads}");
        }
    }

    #[test]
    fn parallel_transpose_is_byte_identical_to_serial() {
        for nthreads in [1, 2, 3, 4, 8] {
            let pool = ThreadPool::new(nthreads);
            let el = crate::EdgeList::weighted(
                150,
                (0..2500u32).map(|i| (i % 150, (i * 11 + 5) % 150)).collect(),
                (0..2500).map(|i| i as f32 * 0.25).collect(),
            );
            let g = Csr::from_edge_list(&el);
            let par = g.transpose_parallel(&pool);
            let ser = g.transpose();
            assert_eq!(par.offsets, ser.offsets, "nthreads={nthreads}");
            assert_eq!(par.targets, ser.targets, "nthreads={nthreads}");
            assert_eq!(par.weights, ser.weights, "nthreads={nthreads}");
        }
    }

    #[test]
    fn two_pass_kernels_report_zero_data_rmw() {
        // Runtime pin of the "no shared atomics" claim: the build and
        // transpose kernels must not report a single data RMW to the pool.
        let pool = ThreadPool::new(4);
        let el = crate::EdgeList::weighted(
            128,
            (0..4000u32).map(|i| (i % 128, (i * 13 + 1) % 128)).collect(),
            (0..4000).map(|i| i as f32).collect(),
        );
        let before = pool.stats();
        let g = Csr::from_edge_list_parallel(&el, &pool);
        let mut t = g.transpose_parallel(&pool);
        t.sort_adjacency_parallel(&pool);
        // DCSC is the same kernels plus a compaction (the input repeats
        // edges, so columns are sorted and shrunk too).
        let m = crate::Dcsc::from_edge_list(&el, &pool);
        assert!(m.nnz() < el.num_edges());
        m.transpose(&pool);
        let after = pool.stats();
        assert!(after.regions > before.regions, "kernels must actually run in parallel regions");
        assert_eq!(
            after.data_rmw - before.data_rmw,
            0,
            "two-pass construction performed atomic RMW ops on shared data"
        );
    }

    #[test]
    fn two_pass_kernels_are_atomic_free_in_source() {
        // Static pin: this file, and the two built on its counting sort,
        // must not regain atomic RMW machinery. The needles are assembled at
        // runtime so the test's own literals do not match themselves in the
        // include_str! snapshot.
        let sources = [
            ("csr.rs", include_str!("csr.rs")),
            ("dcsc.rs", include_str!("dcsc.rs")),
            ("edge_list.rs", include_str!("edge_list.rs")),
        ];
        for needle in ["fetch§add", "fetch§sub", "compare§exchange", "Atomic§U64", "sync::§atomic"]
        {
            let needle = needle.replace('§', "");
            for (file, src) in sources {
                assert!(
                    !src.contains(&needle),
                    "{file} contains `{needle}` — the two-pass kernels must stay atomic-free"
                );
            }
        }
    }

    #[test]
    fn parallel_sort_adjacency_equals_serial() {
        for nthreads in [1, 2, 4] {
            let pool = ThreadPool::new(nthreads);
            for weighted in [false, true] {
                let edges: Vec<_> = (0..2000u32).map(|i| (i % 97, (i * 31 + 7) % 97)).collect();
                let el = if weighted {
                    crate::EdgeList::weighted(
                        97,
                        edges.clone(),
                        (0..2000).map(|i| (i % 13) as f32).collect(),
                    )
                } else {
                    crate::EdgeList::new(97, edges)
                };
                let mut par = Csr::from_edge_list(&el);
                let mut ser = par.clone();
                par.sort_adjacency_parallel(&pool);
                ser.sort_adjacency();
                assert_eq!(par, ser, "nthreads={nthreads} weighted={weighted}");
            }
        }
    }

    #[test]
    fn parallel_transpose_empty_graph() {
        let pool = ThreadPool::new(2);
        let g = Csr::from_edge_list(&crate::EdgeList::new(0, vec![]));
        let t = g.transpose_parallel(&pool);
        assert_eq!(t.num_vertices(), 0);
        assert_eq!(t.num_edges(), 0);
    }

    #[test]
    fn size_bytes_accounts_for_weights() {
        // Pin the accounting: offsets are usize, targets u32, weights f32.
        let el = crate::EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        let g = Csr::from_edge_list(&el);
        let unweighted = 5 * std::mem::size_of::<usize>() + 3 * std::mem::size_of::<VertexId>();
        assert_eq!(g.size_bytes(), unweighted);
        let elw = crate::EdgeList::weighted(4, vec![(0, 1), (1, 2), (2, 3)], vec![1.0, 2.0, 3.0]);
        let gw = Csr::from_edge_list(&elw);
        assert_eq!(gw.size_bytes(), unweighted + 3 * std::mem::size_of::<Weight>());
    }

    #[test]
    fn parallel_build_empty_and_isolated() {
        let pool = ThreadPool::new(2);
        let g = Csr::from_edge_list_parallel(&crate::EdgeList::new(5, vec![(2, 3)]), &pool);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_degree(0), 0);
        assert_eq!(g.neighbors(2), &[3]);
        let g = Csr::from_edge_list_parallel(&crate::EdgeList::new(0, vec![]), &pool);
        assert_eq!(g.num_vertices(), 0);
    }
}
