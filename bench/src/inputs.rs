//! Inputs, all derived from `--seed`: the generated and homogenized
//! dataset, the root lists, and the serve request streams. The program
//! under test receives only these generated inputs, never the seed.

use crate::run::Ctx;
use epg::graph::{degree, VertexId};
use epg::prelude::*;

/// Generates and homogenizes `spec`, recording a span and a layer metric
/// for each of the two steps.
pub fn dataset(ctx: &mut Ctx<'_>, parent: u64, spec: &GraphSpec, pool: &ThreadPool) -> Dataset {
    let seed = ctx.opts.seed;
    let (raw, gen_s) =
        ctx.timed(parent, 0, "epg-generator", "generate", || spec.generate_parallel(seed, pool));
    let generated = raw.num_edges();
    let (ds, homogenize_s) = ctx.timed(parent, 0, "epg-harness", "homogenize", || {
        Dataset::from_edge_list(spec.name(), raw, seed)
    });
    ctx.metrics.set("epg-generator.gen_s", gen_s, 1);
    ctx.metrics.set("epg-generator.gen_medges_s", generated as f64 / gen_s / 1e6, 1);
    ctx.metrics.set("epg-harness.homogenize_s", homogenize_s, 1);
    ds
}

/// SplitMix64: the one hash every derived stream is built from.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How a request stream picks its source from the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Skew {
    /// Every source equally likely: the working set is the whole pool.
    Uniform,
    /// Index `⌊u³·len⌋`: a few sources take most of the traffic.
    Cubic,
}

/// A request stream as a pure function of `(seed, index)`, so any slice
/// of it can be replayed and every client sees a deterministic share.
#[derive(Clone, Debug)]
pub struct Stream {
    pub seed: u64,
    pub sources: Vec<VertexId>,
    pub num_vertices: u32,
    pub skew: Skew,
    /// Every `sssp_every`-th request is `SsspDist`, the rest `BfsDist`.
    pub sssp_every: usize,
}

impl Stream {
    pub fn request(&self, i: usize) -> PointQuery {
        let h = splitmix64(self.seed ^ splitmix64(i as u64));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let len = self.sources.len();
        let slot = match self.skew {
            Skew::Uniform => (u * len as f64) as usize,
            Skew::Cubic => (u * u * u * len as f64) as usize,
        };
        let source = self.sources[slot.min(len - 1)];
        let target = (splitmix64(h) % u64::from(self.num_vertices)) as VertexId;
        if i % self.sssp_every == self.sssp_every - 1 {
            PointQuery::SsspDist { source, target }
        } else {
            PointQuery::BfsDist { source, target }
        }
    }
}

/// `count` distinct degree>1 sources, sampled from the seed.
pub fn sampled_sources(ds: &Dataset, count: usize, seed: u64) -> Vec<VertexId> {
    degree::sample_roots(&ds.symmetric, count, splitmix64(seed))
}

/// The `count` highest-degree vertices (ties by id): the hub sources a
/// skewed serving workload concentrates on.
pub fn hub_sources(ds: &Dataset, count: usize) -> Vec<VertexId> {
    let deg = ds.symmetric.out_degrees();
    let mut by_degree: Vec<VertexId> = (0..ds.symmetric.num_vertices as VertexId).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(deg[v as usize]), v));
    by_degree.truncate(count.max(1));
    by_degree
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Dataset {
        Dataset::from_spec(&GraphSpec::Kronecker { scale: 8, edge_factor: 8, weighted: true }, seed)
    }

    fn stream(seed: u64, skew: Skew) -> Stream {
        let ds = small(seed);
        Stream {
            seed,
            sources: sampled_sources(&ds, 64, seed),
            num_vertices: ds.symmetric.num_vertices as u32,
            skew,
            sssp_every: 4,
        }
    }

    fn bytes(s: &Stream, n: usize) -> Vec<u8> {
        (0..n).flat_map(|i| format!("{:?};", s.request(i)).into_bytes()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_roots() {
        for skew in [Skew::Uniform, Skew::Cubic] {
            assert_eq!(bytes(&stream(7, skew), 500), bytes(&stream(7, skew), 500));
            assert_ne!(bytes(&stream(7, skew), 500), bytes(&stream(8, skew), 500));
        }
        assert_eq!(small(7).roots, small(7).roots);
        assert_ne!(small(7).roots, small(8).roots);
        assert_eq!(sampled_sources(&small(7), 64, 7), sampled_sources(&small(7), 64, 7));
        assert_ne!(sampled_sources(&small(7), 64, 7), sampled_sources(&small(7), 64, 8));
    }

    #[test]
    fn stream_mix_and_skew_are_as_declared() {
        let s = stream(3, Skew::Cubic);
        let reqs: Vec<PointQuery> = (0..4000).map(|i| s.request(i)).collect();
        let sssp = reqs.iter().filter(|q| matches!(q, PointQuery::SsspDist { .. })).count();
        assert_eq!(sssp, 1000);
        // ⌊u³·64⌋ = 0 for u < 0.25: a quarter of the traffic hits slot 0.
        let hot = reqs
            .iter()
            .filter(|q| matches!(q, PointQuery::BfsDist { source, .. } | PointQuery::SsspDist { source, .. } if *source == s.sources[0]))
            .count();
        assert!((800..1200).contains(&hot), "{hot}");
        let hubs = hub_sources(&small(3), 8);
        let deg = small(3).symmetric.out_degrees();
        assert!(hubs.windows(2).all(|w| deg[w[0] as usize] >= deg[w[1] as usize]));
    }
}
