//! The Graph500 Kronecker generator.
//!
//! Implements the Graph500 specification's synthetic graph: each edge is
//! placed by descending `scale` levels of a 2x2 initiator matrix with
//! probabilities `A=0.57, B=0.19, C=0.19, D=0.05` (a Kronecker graph, the
//! generalization of R-MAT the paper cites), after which vertex labels are
//! scrambled by a pseudorandom permutation so that vertex id gives no hint
//! of degree. Weighted variants draw uniform (0,1] weights, as the SSSP
//! extension of Graph500 does.
//!
//! Each level's quadrant choice compares a 53-bit integer draw `k` with an
//! integer threshold `t = ⌊p·2^53⌋` instead of comparing the float
//! `k·2^-53` with the probability `p`. Both sides of the float compare are
//! exact (`k < 2^53`, and scaling by a power of two loses no bits), so
//! `k·2^-53 > p` holds exactly when `k > p·2^53`, which for an integer `k`
//! is `k > t`: every level picks the same bit, and every edge and weight
//! comes out as it did from the float compare, only without the
//! int-to-float conversion on each of the `2·scale` draws per edge.

use epg_graph::{EdgeList, VertexId, Weight};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Kronecker generator parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct KroneckerConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average directed edges per vertex (Graph500: 16).
    pub edge_factor: u32,
    /// Initiator probabilities; must be positive and sum to 1.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Draw uniform (0,1] edge weights.
    pub weighted: bool,
}

impl Default for KroneckerConfig {
    fn default() -> Self {
        // The paper's parameters (§III-B): A=0.57, B=0.19, C=0.19, D=0.05.
        KroneckerConfig { scale: 16, edge_factor: 16, a: 0.57, b: 0.19, c: 0.19, weighted: false }
    }
}

impl KroneckerConfig {
    /// D = 1 - (A + B + C).
    pub fn d(&self) -> f64 {
        1.0 - (self.a + self.b + self.c)
    }

    /// Number of vertices, `2^scale`.
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Number of directed edges, `edge_factor * 2^scale`.
    pub fn num_edges(&self) -> usize {
        self.edge_factor as usize * self.num_vertices()
    }
}

/// Feistel-style invertible scramble of vertex labels within `0..2^scale`.
/// The Graph500 permutes vertex labels after generation; a bijective bit
/// mixer gives the same effect without materializing a permutation array.
fn scramble(v: u64, scale: u32, key: u64) -> u64 {
    let mask = (1u64 << scale) - 1;
    let mut x = v & mask;
    // Additive offset first so 0 is not a fixed point (multiplication and
    // xor-shift both map 0 to 0); addition is bijective mod 2^scale.
    x = x.wrapping_add(key | 1) & mask;
    // Three rounds of multiply-xor-shift, each reduced back into range.
    for round in 0..3u64 {
        let k = key.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(round);
        // Odd multiplier: bijective mod 2^scale.
        x = x.wrapping_mul(k.wrapping_mul(2).wrapping_add(1)) & mask;
        x ^= x >> (scale / 2).max(1);
        x &= mask;
        // xor-shift above is not bijective on its own for all widths; undoing
        // is unnecessary — we only need *a* permutation, so re-mix with an
        // odd multiply keeps the map bijective: multiply is bijective, the
        // xor-shift is bijective for shifts >= 1 over `scale` bits.
    }
    x & mask
}

/// The conditional quadrant probabilities of one recursion level as
/// 53-bit integer thresholds: the row bit is set when a draw exceeds `ab`,
/// the column bit when it exceeds `col[row]`.
#[derive(Clone, Copy)]
struct Thresholds {
    ab: u64,
    col: [u64; 2],
}

impl Thresholds {
    /// One level's `(row, column)` bits from two 53-bit draws: the column
    /// threshold is indexed by the row bit.
    #[inline]
    fn quadrant(&self, k_row: u64, k_col: u64) -> (bool, bool) {
        let row = k_row > self.ab;
        (row, k_col > self.col[row as usize])
    }
}

/// `⌊p·2^53⌋`. For `p` in `[0, 1)` the product is exact in `f64`, so the
/// cast is exactly the floor.
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64) as u64
}

/// Validates the config and precomputes the thresholds of the conditional
/// quadrant probabilities `a+b`, `a/(a+b)` and `c/(c+d)`.
fn prepare(cfg: &KroneckerConfig) -> Thresholds {
    assert!(cfg.scale >= 1 && cfg.scale <= 32, "scale out of range");
    let (a, b, c, d) = (cfg.a, cfg.b, cfg.c, cfg.d());
    // D is defined as 1-(A+B+C), so positivity of all four is the whole
    // well-formedness condition.
    assert!(a > 0.0 && b > 0.0 && c > 0.0 && d > 0.0, "initiator must be positive");
    Thresholds { ab: threshold(a + b), col: [threshold(a / (a + b)), threshold(c / (c + d))] }
}

/// Draws one edge from `rng`: `scale` levels of the 2x2 recursion, then the
/// label scramble. Shared by the serial and parallel generators so the
/// distribution logic has a single source.
#[inline]
fn draw_edge(
    rng: &mut StdRng,
    cfg: &KroneckerConfig,
    seed: u64,
    t: Thresholds,
) -> (VertexId, VertexId) {
    let (mut u, mut v) = (0u64, 0u64);
    for bit in 0..cfg.scale {
        // The Graph500 v2 recursion with per-level noise-free quadrant
        // choice: pick row bit then column bit conditionally. `>> 11` keeps
        // the 53 bits `rng.gen::<f64>()` would scale into [0, 1), and the
        // integer compare picks the same bit as the float one (module doc).
        let (row, col) = t.quadrant(rng.next_u64() >> 11, rng.next_u64() >> 11);
        u |= (row as u64) << bit;
        v |= (col as u64) << bit;
    }
    let u = scramble(u, cfg.scale, seed ^ 0xA5A5_5A5A) as VertexId;
    let v = scramble(v, cfg.scale, seed ^ 0xA5A5_5A5A) as VertexId;
    (u, v)
}

/// Uniform (0,1] weight: avoid zero-weight edges (paper §IV-A notes the
/// hazards of weights rounding to 0).
#[inline]
fn draw_weight(rng: &mut StdRng) -> Weight {
    (1.0 - rng.gen::<f32>()).max(f32::MIN_POSITIVE) as Weight
}

/// Generates a Kronecker edge list. Deterministic in `seed`.
pub fn generate(cfg: &KroneckerConfig, seed: u64) -> EdgeList {
    let thresholds = prepare(cfg);
    let m = cfg.num_edges();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    let mut weights = cfg.weighted.then(|| Vec::with_capacity(m));
    for _ in 0..m {
        edges.push(draw_edge(&mut rng, cfg, seed, thresholds));
        if let Some(ws) = weights.as_mut() {
            ws.push(draw_weight(&mut rng));
        }
    }
    EdgeList { num_vertices: cfg.num_vertices(), edges, weights }
}

/// Edges per deterministic generation block. Fixed — never derived from the
/// thread count — so parallel output is a pure function of the seed.
pub(crate) const GEN_BLOCK: usize = 8192;

/// SplitMix64 finalizer; decorrelates per-block RNG seeds.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Parallel Kronecker generation. Edges are drawn in fixed blocks of
/// `GEN_BLOCK`, each from its own `StdRng` seeded by `mix64(seed, block)`,
/// so the result is deterministic per seed *regardless of thread count* —
/// though it is a different (equally distributed) stream than the serial
/// [`generate`], whose single-RNG sequence cannot be split.
pub fn generate_parallel(
    cfg: &KroneckerConfig,
    seed: u64,
    pool: &epg_parallel::ThreadPool,
) -> EdgeList {
    use epg_parallel::{DisjointWriter, Schedule};

    let thresholds = prepare(cfg);
    let m = cfg.num_edges();
    let nblocks = m.div_ceil(GEN_BLOCK);
    let mut edges = vec![(0 as VertexId, 0 as VertexId); m];
    let mut weights = cfg.weighted.then(|| vec![0.0 as Weight; m]);
    {
        let ew = DisjointWriter::new(&mut edges);
        let ww = weights.as_mut().map(|w| DisjointWriter::new(w.as_mut_slice()));
        pool.parallel_for(nblocks, Schedule::Dynamic { chunk: 1 }, |b| {
            let lo = b * GEN_BLOCK;
            let hi = ((b + 1) * GEN_BLOCK).min(m);
            let mut rng = StdRng::seed_from_u64(mix64(seed ^ mix64(b as u64 + 1)));
            let (es, mut ws) =
                // SAFETY: blocks map 1:1 to disjoint index ranges.
                unsafe { (ew.range_mut(lo, hi), ww.as_ref().map(|w| w.range_mut(lo, hi))) };
            for k in 0..hi - lo {
                es[k] = draw_edge(&mut rng, cfg, seed, thresholds);
                if let Some(ws) = ws.as_deref_mut() {
                    ws[k] = draw_weight(&mut rng);
                }
            }
        });
    }
    EdgeList { num_vertices: cfg.num_vertices(), edges, weights }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::degree::degree_stats;

    #[test]
    fn sizes_match_spec() {
        let cfg = KroneckerConfig { scale: 10, edge_factor: 16, ..Default::default() };
        let el = generate(&cfg, 1);
        assert_eq!(el.num_vertices, 1024);
        assert_eq!(el.num_edges(), 16 * 1024);
        assert!(!el.is_weighted());
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = KroneckerConfig { scale: 8, ..Default::default() };
        assert_eq!(generate(&cfg, 5), generate(&cfg, 5));
        assert_ne!(generate(&cfg, 5), generate(&cfg, 6));
    }

    #[test]
    fn parallel_deterministic_across_thread_counts() {
        let cfg =
            KroneckerConfig { scale: 10, edge_factor: 8, weighted: true, ..Default::default() };
        let reference = generate_parallel(&cfg, 5, &epg_parallel::ThreadPool::new(1));
        for nthreads in [2, 4] {
            let pool = epg_parallel::ThreadPool::new(nthreads);
            assert_eq!(generate_parallel(&cfg, 5, &pool), reference, "nthreads={nthreads}");
        }
        assert_ne!(generate_parallel(&cfg, 6, &epg_parallel::ThreadPool::new(2)), reference);
        assert_eq!(reference.num_vertices, cfg.num_vertices());
        assert_eq!(reference.num_edges(), cfg.num_edges());
        assert!(reference.weights.as_ref().unwrap().iter().all(|&w| w > 0.0 && w <= 1.0));
    }

    #[test]
    fn parallel_stream_keeps_kronecker_shape() {
        // The block-split stream must preserve the heavy tail, not just run.
        let cfg = KroneckerConfig { scale: 12, edge_factor: 16, ..Default::default() };
        let el = generate_parallel(&cfg, 7, &epg_parallel::ThreadPool::new(4));
        let stats = degree_stats(&el);
        assert!(stats.top1pct_edge_share > 0.10, "share {}", stats.top1pct_edge_share);
    }

    #[test]
    fn weighted_weights_in_unit_interval() {
        let cfg =
            KroneckerConfig { scale: 8, edge_factor: 4, weighted: true, ..Default::default() };
        let el = generate(&cfg, 3);
        let ws = el.weights.as_ref().unwrap();
        assert!(ws.iter().all(|&w| w > 0.0 && w <= 1.0));
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // Kronecker graphs are heavy-tailed: the top 1% of vertices should
        // own far more than 1% of the edges, unlike a uniform graph.
        let cfg = KroneckerConfig { scale: 12, edge_factor: 16, ..Default::default() };
        let el = generate(&cfg, 7);
        let stats = degree_stats(&el);
        assert!(
            stats.top1pct_edge_share > 0.10,
            "expected heavy tail, got share {}",
            stats.top1pct_edge_share
        );
        assert!(stats.max_degree as f64 > 20.0 * stats.mean_degree);
    }

    #[test]
    fn scramble_is_a_permutation() {
        for scale in [1u32, 2, 5, 10] {
            let n = 1u64 << scale;
            let mut seen = vec![false; n as usize];
            for v in 0..n {
                let s = scramble(v, scale, 42);
                assert!(s < n);
                assert!(!seen[s as usize], "collision at {v} (scale {scale})");
                seen[s as usize] = true;
            }
        }
    }

    #[test]
    fn scrambling_spreads_hubs_across_id_space() {
        // Without scrambling, low vertex ids get the highest degrees. After
        // scrambling, the max-degree vertex should usually not be vertex 0.
        let cfg = KroneckerConfig { scale: 10, edge_factor: 16, ..Default::default() };
        let el = generate(&cfg, 9);
        let deg = el.out_degrees();
        let argmax = deg.iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0;
        assert_ne!(argmax, 0, "hub sat at vertex 0; labels look unscrambled");
    }

    /// The integer compare picks the bit the float compare
    /// `k·2^-53 > p` picks, for every draw `k`. The fingerprint goldens
    /// cannot show an off-by-one threshold: it flips one draw in 2^53.
    #[test]
    fn thresholds_decide_exactly_as_the_float_compare() {
        let unit = 1.0 / (1u64 << 53) as f64;
        let top = (1u64 << 53) - 1;
        let mut rng = StdRng::seed_from_u64(55);
        let mut configs = vec![KroneckerConfig::default()];
        for _ in 0..20 {
            let w: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.01..1.0));
            let sum: f64 = w.iter().sum();
            configs.push(KroneckerConfig {
                a: w[0] / sum,
                b: w[1] / sum,
                c: w[2] / sum,
                ..Default::default()
            });
        }
        let mut fractional = 0;
        for cfg in &configs {
            let t = prepare(cfg);
            let (a, b, c, d) = (cfg.a, cfg.b, cfg.c, cfg.d());
            // (probability, its threshold, the row draw that selects it as
            // the column threshold; `None` checks the row bit itself)
            let cases = [
                (a + b, t.ab, None),
                (a / (a + b), t.col[0], Some(0)),
                (c / (c + d), t.col[1], Some(top)),
            ];
            for (p, th, row_draw) in cases {
                let above = |k| match row_draw {
                    None => t.quadrant(k, 0).0,
                    Some(r) => t.quadrant(r, k).1,
                };
                fractional += usize::from(th as f64 != p * (1u64 << 53) as f64);
                let fixed = [0, th.saturating_sub(1), th, th + 1, top];
                let random = (0..100_000).map(|_| rng.next_u64() >> 11);
                for k in fixed.into_iter().chain(random) {
                    assert_eq!(above(k), k as f64 * unit > p, "k {k}, p {p}, threshold {th}");
                }
            }
        }
        assert!(fractional > 0, "no probability with a fractional p·2^53 was checked");
    }

    #[test]
    #[should_panic(expected = "initiator must be positive")]
    fn bad_initiator_rejected() {
        let cfg = KroneckerConfig { a: 0.9, b: 0.3, c: 0.3, ..Default::default() };
        let _ = generate(&cfg, 0);
    }
}
