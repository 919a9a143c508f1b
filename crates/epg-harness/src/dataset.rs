//! Phase 2: the dataset homogenizer.
//!
//! "Homogenizing the datasets creates copies of the graph files and
//! auxiliary files in various formats ... to ensure they are correctly
//! formatted for each system and to speed up file I/O whenever possible by
//! using the library designer's serialized data structure file formats"
//! (§III-B). Concretely:
//!
//! - duplicate edges and self-loops are removed (the systems disagree on
//!   multigraph semantics — GraphMat's matrix cannot represent parallel
//!   edges — so fairness requires a simple graph);
//! - a **symmetrized** copy serves the shared-memory engines (the paper's
//!   experiments treat graphs as undirected); Graph500 receives the raw
//!   directed list because its construction kernel symmetrizes itself;
//! - both SNAP text (GraphBIG streams text) and the compact binary format
//!   (everything else) are written.

use crate::registry::EngineKind;
use epg_generator::GraphSpec;
use epg_graph::{degree, ingest, snap, EdgeList, VertexId};
use epg_parallel::ThreadPool;
use std::io;
use std::path::{Path, PathBuf};

/// A fully-materialized workload: the in-memory edge lists plus the
/// on-disk homogenized files.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Short name used in reports and file names.
    pub name: String,
    /// The raw directed, deduplicated edge list.
    pub raw: EdgeList,
    /// The symmetrized, deduplicated edge list most engines consume.
    pub symmetric: EdgeList,
    /// Whether edges carry weights (drives SSSP eligibility).
    pub weighted: bool,
    /// The 32 sampled roots (degree > 1), as in the Graph500 spec.
    pub roots: Vec<VertexId>,
}

/// Number of roots per graph (§III-B: "Each experiment uses 32 roots").
pub const NUM_ROOTS: usize = 32;

impl Dataset {
    /// Generates and homogenizes a synthetic workload.
    pub fn from_spec(spec: &GraphSpec, seed: u64) -> Dataset {
        Dataset::from_edge_list(spec.name(), spec.generate(seed), seed)
    }

    /// Homogenizes an existing edge list (e.g. parsed from a SNAP file —
    /// "any network in the SNAP data format can be used", §III-B), on a
    /// pool of the host's threads built for the call.
    pub fn from_edge_list(name: String, raw: EdgeList, seed: u64) -> Dataset {
        Dataset::from_edge_list_parallel(name, raw, seed, &host_pool())
    }

    /// [`Dataset::from_edge_list`] on `pool`: `raw`, `symmetric` and
    /// `roots` are byte-identical at every thread count to
    /// `raw.deduplicated()`, its `undirected()` and `degree::sample_roots`
    /// of that. The roots are drawn from the degrees the symmetrization
    /// counts, not from a pass over the doubled list.
    pub fn from_edge_list_parallel(
        name: String,
        raw: EdgeList,
        seed: u64,
        pool: &ThreadPool,
    ) -> Dataset {
        // `deduplicated_on` copies; the input goes before `undirected` runs.
        let dedup = raw.deduplicated_on(Some(pool));
        drop(raw);
        let raw = dedup;
        let (symmetric, degrees) = raw.undirected_with_degrees(Some(pool));
        let weighted = raw.is_weighted();
        let roots = degree::sample_roots_by_degree(&degrees, NUM_ROOTS, seed ^ 0x9e3779b97f4a7c15);
        Dataset { name, raw, symmetric, weighted, roots }
    }

    /// Loads and homogenizes a SNAP text file from disk.
    pub fn from_snap_file(path: &Path, seed: u64) -> Result<Dataset, snap::ParseError> {
        let raw = snap::read_snap_file(path)?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "dataset".into());
        Ok(Dataset::from_edge_list(name, raw, seed))
    }

    /// The edge list an engine should consume.
    pub fn edges_for(&self, kind: EngineKind) -> &EdgeList {
        if kind.wants_raw_edges() {
            &self.raw
        } else {
            &self.symmetric
        }
    }

    /// Writes the homogenized files: SNAP text (for the streaming readers)
    /// and binary (serialized fast path), both raw and symmetrized, on a
    /// pool of the host's threads built for the call. Returns the file
    /// paths written.
    pub fn write_files(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.write_files_parallel(dir, &host_pool())
    }

    /// [`Dataset::write_files`] with every copy formatted on `pool`: the
    /// binary ones record-parallel, the SNAP text in fixed edge blocks
    /// written in order. Every file is byte-identical at any thread count
    /// to the serial writers' ([`snap::write_snap`], [`snap::write_binary`]).
    pub fn write_files_parallel(&self, dir: &Path, pool: &ThreadPool) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let base = dir.join(&self.name);
        let paths = [
            (format!("{}.snap", base.display()), Format::SnapText, false),
            (format!("{}.sym.snap", base.display()), Format::SnapText, true),
            (format!("{}.bin", base.display()), Format::Binary, false),
            (format!("{}.sym.bin", base.display()), Format::Binary, true),
        ];
        for (path, fmt, sym) in paths {
            let el = if sym { &self.symmetric } else { &self.raw };
            let path = PathBuf::from(path);
            match fmt {
                Format::SnapText => ingest::write_snap_file_parallel(el, &self.name, &path, pool)?,
                Format::Binary => ingest::write_binary_file_parallel(el, &path, pool)?,
            }
            written.push(path);
        }
        Ok(written)
    }

    /// The homogenized file an engine loads in file-based runs: GraphBIG
    /// streams SNAP text (openG parses text while building); everything
    /// else uses the serialized binary fast path the homogenizer exists to
    /// provide (§III-B).
    pub fn input_path_for(&self, dir: &Path, kind: EngineKind) -> PathBuf {
        let (sym, ext) = match kind {
            EngineKind::Graph500 => (false, "bin"),
            EngineKind::GraphBig => (true, "snap"),
            _ => (true, "bin"),
        };
        if sym {
            dir.join(format!("{}.sym.{ext}", self.name))
        } else {
            dir.join(format!("{}.{ext}", self.name))
        }
    }
}

enum Format {
    SnapText,
    Binary,
}

/// A pool of every thread the host offers, for a call that is not handed
/// one: its results are the same at any thread count.
fn host_pool() -> ThreadPool {
    ThreadPool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The paper's standard workloads. `scale_div = 1` reproduces the
/// original sizes; `epg reproduce` picks divisors that fit CI-class
/// machines (`reproduce::Options` holds the size rule).
pub struct PaperDatasets;

impl PaperDatasets {
    /// Vertices of the original cit-Patents graph.
    pub const CIT_PATENTS_VERTICES: usize = 3_774_768;
    /// Vertices of the original dota-league graph.
    pub const DOTA_LEAGUE_VERTICES: usize = 61_670;

    /// Kronecker graph of the given scale (Figs. 2-4, Table II: scale 22;
    /// Figs. 5-6: scale 23).
    pub fn kronecker(scale: u32, weighted: bool) -> GraphSpec {
        GraphSpec::Kronecker { scale, edge_factor: 16, weighted }
    }

    /// The cit-Patents stand-in (Table I, Fig. 8).
    pub fn cit_patents(scale_div: u32) -> GraphSpec {
        GraphSpec::CitPatents { scale_div }
    }

    /// The dota-league stand-in (Table I, Fig. 8). Its defining trait is
    /// density, so vertices shrink faster than degree (an eighth as fast)
    /// and neither falls below 512 vertices of mean degree 48.
    pub fn dota_league(scale_div: u32) -> GraphSpec {
        GraphSpec::DotaLeague {
            num_vertices: (Self::DOTA_LEAGUE_VERTICES / scale_div as usize).max(512),
            avg_degree: (824 / (scale_div / 8).max(1)).clamp(48, 824),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> GraphSpec {
        GraphSpec::Kronecker { scale: 8, edge_factor: 8, weighted: true }
    }

    #[test]
    fn homogenization_dedups_and_symmetrizes() {
        let ds = Dataset::from_spec(&small_spec(), 3);
        // No self loops or duplicates in either copy.
        for el in [&ds.raw, &ds.symmetric] {
            let mut seen = el.edges.clone();
            seen.sort_unstable();
            let n = seen.len();
            seen.dedup();
            assert_eq!(seen.len(), n, "duplicates survived");
            assert!(el.edges.iter().all(|&(u, v)| u != v), "self loop survived");
        }
        // Symmetric copy contains each raw edge both ways.
        let set: std::collections::HashSet<_> = ds.symmetric.edges.iter().copied().collect();
        for &(u, v) in &ds.raw.edges {
            assert!(set.contains(&(u, v)) && set.contains(&(v, u)));
        }
        assert!(ds.weighted);
    }

    #[test]
    fn homogenized_weights_are_symmetric() {
        // Every engine treats `symmetric` as undirected, so dist(a -> b)
        // must equal dist(b -> a): w(u, v) == w(v, u) on every edge, also
        // where the generator drew both directions with different weights.
        let specs = [
            GraphSpec::Kronecker { scale: 9, edge_factor: 16, weighted: true },
            GraphSpec::Uniform { num_vertices: 300, num_edges: 6000, weighted: true },
        ];
        for spec in &specs {
            for seed in [7, 11] {
                let ds = Dataset::from_spec(spec, seed);
                let weight: std::collections::HashMap<_, _> =
                    ds.symmetric.iter().map(|(u, v, w)| ((u, v), w)).collect();
                let raw: std::collections::HashMap<_, _> =
                    ds.raw.iter().map(|(u, v, w)| ((u, v), w)).collect();
                assert!(raw.keys().any(|&(u, v)| raw.contains_key(&(v, u))), "no two-way pair");
                for (&(u, v), &w) in &weight {
                    assert_eq!(weight[&(v, u)], w, "{} seed {seed}: ({u}, {v})", spec.name());
                    // The pair carries the weight of its (min, max) edge
                    // where the raw list has it, else of the only one.
                    let (a, b) = (u.min(v), u.max(v));
                    assert_eq!(w, *raw.get(&(a, b)).unwrap_or_else(|| &raw[&(b, a)]));
                }
            }
        }
    }

    #[test]
    fn unweighted_datasets_are_what_the_sort_based_homogenizer_gave() {
        // The homogenizer this one replaced: one unstable sort of the whole
        // list per copy. Without weights it had a single possible answer.
        fn sorted_simple(el: &EdgeList) -> EdgeList {
            let mut edges = el.edges.clone();
            edges.sort_unstable();
            edges.dedup();
            edges.retain(|&(u, v)| u != v);
            EdgeList::new(el.num_vertices, edges)
        }
        let pool = epg_parallel::ThreadPool::new(2);
        for spec in [PaperDatasets::kronecker(10, false), GraphSpec::GridSwirl { width: 32 }] {
            let generated = spec.generate_parallel(7, &pool).unweighted();
            let ds = Dataset::from_edge_list(spec.name(), generated.clone(), 7);
            assert_eq!(ds.raw, sorted_simple(&generated), "{}", spec.name());
            // The 32 roots are a function of `symmetric` and the seed alone.
            assert_eq!(ds.symmetric, sorted_simple(&generated.symmetrized()), "{}", spec.name());
        }
    }

    #[test]
    fn homogenization_is_the_serial_composition_at_every_thread_count() {
        // The homogenizer before it took a pool: dedup, undirected, and the
        // roots sampled from the undirected list's own degrees.
        let serial = |raw: &EdgeList, seed: u64| {
            let raw = raw.deduplicated();
            let symmetric = raw.undirected();
            let roots = degree::sample_roots(&symmetric, NUM_ROOTS, seed ^ 0x9e3779b97f4a7c15);
            (raw, symmetric, roots)
        };
        let mut with_loops = epg_generator::uniform::generate(400, 3000, true, 5);
        with_loops.edges.extend((0..400).step_by(7).map(|v| (v, v)));
        with_loops.weights.as_mut().unwrap().extend((0..400).step_by(7).map(|v| v as f32));
        let lists = [
            ("kron-weighted", PaperDatasets::kronecker(9, true).generate(3)),
            ("kron-unweighted", PaperDatasets::kronecker(9, false).generate(3)),
            ("grid-swirl", GraphSpec::GridSwirl { width: 24 }.generate(3)),
            ("uniform-with-loops", with_loops),
        ];
        for (name, raw) in lists {
            for seed in [1, 2] {
                let want = serial(&raw, seed);
                let ds = Dataset::from_edge_list(name.into(), raw.clone(), seed);
                assert_eq!(
                    (&ds.raw, &ds.symmetric, &ds.roots),
                    (&want.0, &want.1, &want.2),
                    "{name}"
                );
                for threads in 1..=3 {
                    let pool = ThreadPool::new(threads);
                    let ds =
                        Dataset::from_edge_list_parallel(name.into(), raw.clone(), seed, &pool);
                    let got = (ds.raw, ds.symmetric, ds.roots);
                    assert!(got == want, "{name} seed {seed} at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn written_files_are_the_same_bytes_at_one_and_three_threads() {
        let ds = Dataset::from_spec(&small_spec(), 8);
        let dirs = [1, 3].map(|t| std::env::temp_dir().join(format!("epg_dataset_bytes_{t}")));
        for (dir, threads) in dirs.iter().zip([1, 3]) {
            ds.write_files_parallel(dir, &ThreadPool::new(threads)).unwrap();
        }
        for file in ["snap", "sym.snap", "bin", "sym.bin"] {
            let [one, three] = dirs
                .each_ref()
                .map(|d| std::fs::read(d.join(format!("{}.{file}", ds.name))).unwrap());
            assert!(one == three, "{file} differs between 1 and 3 threads");
        }
        for dir in dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn roots_are_32_distinct_high_degree() {
        let ds = Dataset::from_spec(&small_spec(), 4);
        assert_eq!(ds.roots.len(), NUM_ROOTS);
        let deg = ds.symmetric.total_degrees();
        for &r in &ds.roots {
            assert!(deg[r as usize] > 1);
        }
    }

    #[test]
    fn engine_input_selection() {
        let ds = Dataset::from_spec(&small_spec(), 5);
        assert_eq!(ds.edges_for(EngineKind::Graph500) as *const _, &ds.raw as *const _);
        assert_eq!(ds.edges_for(EngineKind::Gap) as *const _, &ds.symmetric as *const _);
    }

    #[test]
    fn files_roundtrip() {
        let ds = Dataset::from_spec(&small_spec(), 6);
        let dir = std::env::temp_dir().join("epg_dataset_test");
        let written = ds.write_files(&dir).unwrap();
        assert_eq!(written.len(), 4);
        let back = snap::read_binary_file(&ds.input_path_for(&dir, EngineKind::Gap)).unwrap();
        assert_eq!(back, ds.symmetric);
        let raw_back =
            snap::read_binary_file(&ds.input_path_for(&dir, EngineKind::Graph500)).unwrap();
        assert_eq!(raw_back, ds.raw);
        // GraphBIG streams text.
        assert!(ds.input_path_for(&dir, EngineKind::GraphBig).extension().unwrap() == "snap");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn text_files_are_the_serial_writers_bytes() {
        let weighted = Dataset::from_spec(&small_spec(), 6);
        let unweighted = Dataset::from_spec(&PaperDatasets::kronecker(8, false), 6);
        let empty = EdgeList::new(0, vec![]);
        let empty = Dataset {
            name: "empty".into(),
            raw: empty.clone(),
            symmetric: empty,
            weighted: false,
            roots: vec![],
        };
        let dir = std::env::temp_dir().join("epg_dataset_text_test");
        for ds in [&weighted, &unweighted, &empty] {
            for threads in [1, 2, 4] {
                let pool = epg_parallel::ThreadPool::new(threads);
                ds.write_files_parallel(&dir, &pool).unwrap();
                for (file, el) in [("snap", &ds.raw), ("sym.snap", &ds.symmetric)] {
                    let path = dir.join(format!("{}.{file}", ds.name));
                    let bytes = std::fs::read(&path).unwrap();
                    let mut want = Vec::new();
                    snap::write_snap(el, &ds.name, &mut want).unwrap();
                    assert!(bytes == want, "{} {file} at {threads} threads", ds.name);
                    // Both readers take back the edges and weights; the
                    // vertex count is `max id + 1`, text carrying no other.
                    let serial = snap::read_snap_file(&path).unwrap();
                    assert_eq!(ingest::read_snap_file_parallel(&path, &pool).unwrap(), serial);
                    assert_eq!((&serial.edges, &serial.weights), (&el.edges, &el.weights));
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snap_file_ingestion() {
        let dir = std::env::temp_dir().join("epg_dataset_snap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("toy.snap");
        std::fs::write(&p, "# toy\n0 1\n1 2\n2 0\n0 1\n").unwrap();
        let ds = Dataset::from_snap_file(&p, 1).unwrap();
        assert_eq!(ds.name, "toy");
        assert_eq!(ds.raw.num_edges(), 3); // duplicate dropped
        assert!(!ds.weighted);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paper_dataset_shapes() {
        let dota = PaperDatasets::dota_league(1);
        if let GraphSpec::DotaLeague { num_vertices, avg_degree } = dota {
            assert_eq!(num_vertices, 61_670);
            assert_eq!(avg_degree, 824);
        } else {
            panic!("wrong spec");
        }
        assert!(!PaperDatasets::cit_patents(64).is_weighted());
        assert!(PaperDatasets::kronecker(22, true).is_weighted());
    }
}
