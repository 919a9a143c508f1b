//! Graph generators for `easy-parallel-graph-rs`.
//!
//! Three families (§III-B and the substitution table in DESIGN.md):
//!
//! - [`kronecker`]: the Graph500 synthetic generator — a Kronecker/R-MAT
//!   recursion with initiator `A=0.57, B=0.19, C=0.19, D=0.05`, edge factor
//!   16, and scrambled vertex labels. "A graph with scale S has 2^S
//!   vertices and approximately 16 * 2^S edges."
//! - [`citations`]: a stand-in for SNAP `cit-Patents` (3,774,768 vertices /
//!   16,518,948 edges): a time-ordered preferential-attachment citation DAG,
//!   sparse and **unweighted** — the unweightedness is what produces the
//!   SSSP "N/A" cells in Table I.
//! - [`dota_league`]: a stand-in for the Game Trace Archive `dota-league`
//!   graph (61,670 vertices / 50,870,313 edges, average out-degree 824):
//!   a *dense*, **weighted** co-play multigraph collapsed to weighted edges
//!   with Zipf-popular players.
//!
//! Everything is deterministic in a `u64` seed.

#![warn(missing_docs)]
pub mod adversarial;
pub mod citations;
pub mod dota_league;
pub mod kronecker;
pub mod uniform;

use epg_graph::EdgeList;

/// A named, parameterized workload, the unit the harness's homogenizer
/// materializes into per-engine files.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSpec {
    /// Graph500 Kronecker graph.
    Kronecker {
        /// log2 of the vertex count.
        scale: u32,
        /// Average (directed) edges per vertex; the Graph500 uses 16.
        edge_factor: u32,
        /// Attach uniform (0,1] weights (for SSSP runs).
        weighted: bool,
    },
    /// cit-Patents stand-in. `scale_div` divides both vertex and edge
    /// counts (1 = full size).
    CitPatents {
        /// Divisor applied to the real dataset's size (power of two).
        scale_div: u32,
    },
    /// dota-league stand-in at explicit size.
    DotaLeague {
        /// Number of players (vertices). Full dataset: 61,670.
        num_vertices: usize,
        /// Average out-degree. Full dataset: ~824.
        avg_degree: u32,
    },
    /// Erdős–Rényi style uniform G(n, m), mostly for tests.
    Uniform {
        /// Vertices.
        num_vertices: usize,
        /// Directed edges.
        num_edges: usize,
        /// Attach uniform (0,1] weights.
        weighted: bool,
    },
    /// Adversarial: detour-gadget spine punishing label-correcting queues
    /// (see [`adversarial::spfa_killer`]).
    SpfaKiller {
        /// Number of detour gadgets along the spine.
        levels: usize,
    },
    /// Adversarial: hub whose label improves with every later arrival
    /// (see [`adversarial::wrong_dijkstra_killer`]).
    WrongDijkstraKiller {
        /// Chain vertices feeding the hub.
        chain: usize,
        /// Downstream fan size behind the hub.
        fan: usize,
    },
    /// Adversarial: grid whose cheap edges trace an inward spiral (see
    /// [`adversarial::grid_swirl`]).
    GridSwirl {
        /// Grid side length (vertices = width²).
        width: usize,
    },
    /// Adversarial: long path with a few heavier chords (see
    /// [`adversarial::almost_line`]).
    AlmostLine {
        /// Path length in vertices.
        num_vertices: usize,
        /// Number of hashed chord edges.
        extra_edges: usize,
    },
    /// Adversarial: complete directed graph, all weights 0.0 (see
    /// [`adversarial::max_dense_zero`]).
    MaxDenseZero {
        /// Vertex count (edges = n·(n−1)).
        num_vertices: usize,
    },
}

impl GraphSpec {
    /// Every family name, in declaration order. Paired with
    /// [`GraphSpec::family`]'s exhaustive match and
    /// [`GraphSpec::test_corpus`], this is the registry the correctness
    /// net and the SSSP wall iterate — adding a variant without extending
    /// all three fails the registry tests.
    pub const FAMILIES: [&'static str; 9] = [
        "kronecker",
        "cit_patents",
        "dota_league",
        "uniform",
        "spfa_killer",
        "wrong_dijkstra_killer",
        "grid_swirl",
        "almost_line",
        "max_dense_zero",
    ];

    /// The adversarial SSSP families (subset of [`GraphSpec::FAMILIES`]).
    pub const ADVERSARIAL_FAMILIES: [&'static str; 5] =
        ["spfa_killer", "wrong_dijkstra_killer", "grid_swirl", "almost_line", "max_dense_zero"];

    /// Family name of this spec (size-independent, machine-friendly).
    pub fn family(&self) -> &'static str {
        match self {
            GraphSpec::Kronecker { .. } => "kronecker",
            GraphSpec::CitPatents { .. } => "cit_patents",
            GraphSpec::DotaLeague { .. } => "dota_league",
            GraphSpec::Uniform { .. } => "uniform",
            GraphSpec::SpfaKiller { .. } => "spfa_killer",
            GraphSpec::WrongDijkstraKiller { .. } => "wrong_dijkstra_killer",
            GraphSpec::GridSwirl { .. } => "grid_swirl",
            GraphSpec::AlmostLine { .. } => "almost_line",
            GraphSpec::MaxDenseZero { .. } => "max_dense_zero",
        }
    }

    /// One small instance of every family, sized for exhaustive kernel
    /// differential testing (seconds, not minutes, per kernel × family ×
    /// thread-count combination).
    pub fn test_corpus() -> Vec<GraphSpec> {
        vec![
            GraphSpec::Kronecker { scale: 7, edge_factor: 8, weighted: true },
            GraphSpec::CitPatents { scale_div: 8192 },
            GraphSpec::DotaLeague { num_vertices: 150, avg_degree: 8 },
            GraphSpec::Uniform { num_vertices: 300, num_edges: 2400, weighted: true },
            GraphSpec::SpfaKiller { levels: 60 },
            GraphSpec::WrongDijkstraKiller { chain: 40, fan: 60 },
            GraphSpec::GridSwirl { width: 12 },
            GraphSpec::AlmostLine { num_vertices: 220, extra_edges: 12 },
            GraphSpec::MaxDenseZero { num_vertices: 40 },
        ]
    }

    /// Short identifier used in log and output file names.
    pub fn name(&self) -> String {
        match self {
            GraphSpec::Kronecker { scale, weighted, .. } => {
                format!("kron{scale}{}", if *weighted { "w" } else { "" })
            }
            GraphSpec::CitPatents { scale_div } => format!("cit-Patents_div{scale_div}"),
            GraphSpec::DotaLeague { num_vertices, .. } => format!("dota-league_n{num_vertices}"),
            GraphSpec::Uniform { num_vertices, num_edges, .. } => {
                format!("uniform_{num_vertices}x{num_edges}")
            }
            GraphSpec::SpfaKiller { levels } => format!("spfa-killer_l{levels}"),
            GraphSpec::WrongDijkstraKiller { chain, fan } => {
                format!("wrong-dijkstra_c{chain}f{fan}")
            }
            GraphSpec::GridSwirl { width } => format!("grid-swirl_w{width}"),
            GraphSpec::AlmostLine { num_vertices, extra_edges } => {
                format!("almost-line_{num_vertices}+{extra_edges}")
            }
            GraphSpec::MaxDenseZero { num_vertices } => format!("max-dense-zero_{num_vertices}"),
        }
    }

    /// True when edges carry weights (drives SSSP eligibility, as in
    /// Graphalytics: "does not perform SSSP on unweighted graphs").
    pub fn is_weighted(&self) -> bool {
        match self {
            GraphSpec::Kronecker { weighted, .. } => *weighted,
            GraphSpec::CitPatents { .. } => false,
            GraphSpec::DotaLeague { .. } => true,
            GraphSpec::Uniform { weighted, .. } => *weighted,
            // Adversarial families exist for SSSP — always weighted.
            GraphSpec::SpfaKiller { .. }
            | GraphSpec::WrongDijkstraKiller { .. }
            | GraphSpec::GridSwirl { .. }
            | GraphSpec::AlmostLine { .. }
            | GraphSpec::MaxDenseZero { .. } => true,
        }
    }

    /// Materializes the edge list.
    pub fn generate(&self, seed: u64) -> EdgeList {
        match *self {
            GraphSpec::Kronecker { scale, edge_factor, weighted } => kronecker::generate(
                &kronecker::KroneckerConfig { scale, edge_factor, weighted, ..Default::default() },
                seed,
            ),
            GraphSpec::CitPatents { scale_div } => citations::generate(
                &citations::CitationsConfig::cit_patents_scaled(scale_div),
                seed,
            ),
            GraphSpec::DotaLeague { num_vertices, avg_degree } => dota_league::generate(
                &dota_league::DotaLeagueConfig { num_vertices, avg_degree, ..Default::default() },
                seed,
            ),
            GraphSpec::Uniform { num_vertices, num_edges, weighted } => {
                uniform::generate(num_vertices, num_edges, weighted, seed)
            }
            GraphSpec::SpfaKiller { levels } => adversarial::spfa_killer(levels, seed),
            GraphSpec::WrongDijkstraKiller { chain, fan } => {
                adversarial::wrong_dijkstra_killer(chain, fan)
            }
            GraphSpec::GridSwirl { width } => adversarial::grid_swirl(width, seed),
            GraphSpec::AlmostLine { num_vertices, extra_edges } => {
                adversarial::almost_line(num_vertices, extra_edges, seed)
            }
            GraphSpec::MaxDenseZero { num_vertices } => adversarial::max_dense_zero(num_vertices),
        }
    }

    /// Materializes the edge list using the pool where a parallel generator
    /// exists (Kronecker, Uniform — both deterministic per seed regardless
    /// of thread count, though a different stream than [`GraphSpec::generate`]).
    /// The citation and dota-league stand-ins model inherently sequential
    /// attachment processes and fall back to the serial path.
    pub fn generate_parallel(&self, seed: u64, pool: &epg_parallel::ThreadPool) -> EdgeList {
        match *self {
            GraphSpec::Kronecker { scale, edge_factor, weighted } => kronecker::generate_parallel(
                &kronecker::KroneckerConfig { scale, edge_factor, weighted, ..Default::default() },
                seed,
                pool,
            ),
            GraphSpec::Uniform { num_vertices, num_edges, weighted } => {
                uniform::generate_parallel(num_vertices, num_edges, weighted, seed, pool)
            }
            GraphSpec::CitPatents { .. } | GraphSpec::DotaLeague { .. } => self.generate(seed),
            // The adversarial families are index-pure: their parallel path
            // is byte-identical to the serial one, not merely a different
            // deterministic stream.
            GraphSpec::SpfaKiller { levels } => {
                adversarial::spfa_killer_parallel(levels, seed, pool)
            }
            GraphSpec::WrongDijkstraKiller { chain, fan } => {
                adversarial::wrong_dijkstra_killer_parallel(chain, fan, pool)
            }
            GraphSpec::GridSwirl { width } => adversarial::grid_swirl_parallel(width, seed, pool),
            GraphSpec::AlmostLine { num_vertices, extra_edges } => {
                adversarial::almost_line_parallel(num_vertices, extra_edges, seed, pool)
            }
            GraphSpec::MaxDenseZero { num_vertices } => {
                adversarial::max_dense_zero_parallel(num_vertices, pool)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct_and_stable() {
        let a = GraphSpec::Kronecker { scale: 10, edge_factor: 16, weighted: false };
        let b = GraphSpec::Kronecker { scale: 10, edge_factor: 16, weighted: true };
        assert_eq!(a.name(), "kron10");
        assert_eq!(b.name(), "kron10w");
        assert_ne!(GraphSpec::CitPatents { scale_div: 64 }.name(), a.name());
    }

    #[test]
    fn weightedness_matches_dataset_semantics() {
        assert!(!GraphSpec::CitPatents { scale_div: 64 }.is_weighted());
        assert!(GraphSpec::DotaLeague { num_vertices: 100, avg_degree: 10 }.is_weighted());
    }

    #[test]
    fn generate_is_deterministic_per_seed() {
        let spec = GraphSpec::Kronecker { scale: 8, edge_factor: 8, weighted: true };
        assert_eq!(spec.generate(11), spec.generate(11));
        assert_ne!(spec.generate(11), spec.generate(12));
    }

    #[test]
    fn test_corpus_covers_every_family_exactly_once() {
        let corpus = GraphSpec::test_corpus();
        let mut families: Vec<&str> = corpus.iter().map(|s| s.family()).collect();
        families.sort_unstable();
        let mut want = GraphSpec::FAMILIES.to_vec();
        want.sort_unstable();
        assert_eq!(families, want, "test_corpus must hold one instance per family");
        for f in GraphSpec::ADVERSARIAL_FAMILIES {
            assert!(GraphSpec::FAMILIES.contains(&f), "adversarial family {f} unregistered");
        }
        // Corpus instances must be usable for SSSP differentials.
        for spec in &corpus {
            if spec.family() != "cit_patents" {
                assert!(spec.is_weighted(), "{} must be weighted", spec.name());
            }
        }
    }

    /// FNV-1a over the structural content of an edge list: counts, edge
    /// endpoints, and weight bits. Stable across platforms (no float
    /// formatting, no pointer order).
    fn fingerprint(el: &EdgeList) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        eat(el.num_vertices as u64);
        eat(el.edges.len() as u64);
        for &(u, v) in &el.edges {
            eat(((u as u64) << 32) | v as u64);
        }
        if let Some(w) = &el.weights {
            for x in w {
                eat(x.to_bits() as u64);
            }
        }
        h
    }

    /// Every family's generator is a pure function of (spec, seed): the
    /// golden fingerprints below fail if a generator's output drifts —
    /// a silent drift would invalidate every recorded benchmark and every
    /// cross-session differential. Regenerate goldens deliberately when a
    /// generator change is intended.
    #[test]
    fn corpus_fingerprints_are_seed_stable() {
        let golden: &[(&str, u64)] = &[
            ("kronecker", 0xce239a670c93c3ae),
            ("cit_patents", 0xacab40aeca304c97),
            ("dota_league", 0xb8ca891cff8b3522),
            ("uniform", 0x82503da497939b81),
            ("spfa_killer", 0x5edeea9745befb53),
            ("wrong_dijkstra_killer", 0xc201c74950ea91a9),
            ("grid_swirl", 0x7b91feb15464338a),
            ("almost_line", 0xb7e0e489a73a2e08),
            ("max_dense_zero", 0x420b1633f68d45b3),
        ];
        let corpus = GraphSpec::test_corpus();
        assert_eq!(corpus.len(), golden.len(), "corpus grew: extend the golden table");
        for spec in &corpus {
            let want = golden
                .iter()
                .find(|(f, _)| *f == spec.family())
                .unwrap_or_else(|| panic!("no golden fingerprint for {}", spec.family()))
                .1;
            let el = spec.generate(42);
            assert!(el.num_edges() > 0, "{}: empty corpus instance", spec.name());
            assert_eq!(
                fingerprint(&el),
                want,
                "{}: generator output drifted (fingerprint {:#018x})",
                spec.name(),
                fingerprint(&el)
            );
            // Same seed → same bytes; different seed must not collide for
            // the seeded families.
            assert_eq!(el, spec.generate(42));
        }
    }

    /// `generate_parallel` must be deterministic at every thread count, and
    /// for the index-pure adversarial families byte-identical to the serial
    /// path (the stream-split Kronecker/Uniform generators are a different
    /// — but thread-count-independent — stream).
    #[test]
    fn generate_parallel_is_thread_count_invariant() {
        for spec in GraphSpec::test_corpus() {
            let serial = spec.generate(7);
            let reference = spec.generate_parallel(7, &epg_parallel::ThreadPool::new(1));
            for nthreads in [2usize, 4, 8] {
                let pool = epg_parallel::ThreadPool::new(nthreads);
                assert_eq!(
                    spec.generate_parallel(7, &pool),
                    reference,
                    "{}: parallel generation varies with thread count {nthreads}",
                    spec.name()
                );
            }
            if GraphSpec::ADVERSARIAL_FAMILIES.contains(&spec.family()) {
                assert_eq!(reference, serial, "{}: parallel != serial", spec.name());
            }
        }
    }

    /// The block-seeded stream the harness and the benchmark generate
    /// from is pinned too, at 1 and 2 threads. 9 216 edges are one full
    /// `GEN_BLOCK` and a 1 024-edge tail.
    #[test]
    fn parallel_fingerprints_are_seed_stable() {
        let golden = [
            (
                GraphSpec::Kronecker { scale: 10, edge_factor: 9, weighted: true },
                0x0e70b260d2a6d001,
            ),
            (
                GraphSpec::Kronecker { scale: 10, edge_factor: 9, weighted: false },
                0x0dbf523758cd02d4,
            ),
            (
                GraphSpec::Uniform { num_vertices: 1000, num_edges: 9216, weighted: true },
                0xa0bbfc7867339a29,
            ),
        ];
        for (spec, want) in golden {
            for nthreads in [1, 2] {
                let el = spec.generate_parallel(42, &epg_parallel::ThreadPool::new(nthreads));
                assert_eq!(
                    fingerprint(&el),
                    want,
                    "{} at {nthreads} threads: parallel stream drifted (fingerprint {:#018x})",
                    spec.name(),
                    fingerprint(&el)
                );
            }
        }
    }

    #[test]
    fn corpus_names_are_distinct() {
        let corpus = GraphSpec::test_corpus();
        let mut names: Vec<String> = corpus.iter().map(|s| s.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), corpus.len());
    }
}
