//! The output check. Results are verified outside the timed region with
//! the tolerances `tests/differential.rs` uses; every failure counts
//! against the operations attempted and makes the command exit non-zero.

use epg::graph::{oracle, validate, Csr, VertexId, Weight};
use epg::prelude::AlgorithmResult;

/// L1 distance to the oracle's ranks a PageRank result may have.
const PR_L1_TOLERANCE: f64 = 1e-3;
/// Absolute distance error Δ-stepping's relaxation order may leave.
const SSSP_TOLERANCE: Weight = 1e-3;
/// The oracle PageRank's stopping rule (the paper's homogenized default).
const PR_EPSILON: f64 = 6e-8;
const PR_MAX_ITERS: u32 = 300;

/// Operations attempted and how many of them failed (verification
/// failures, panics, DNFs, rejections and wrong answers alike).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }
}

/// BFS: levels equal the oracle's and the parent array is a valid tree.
pub fn bfs(
    g: &Csr,
    root: VertexId,
    want_level: &[u32],
    got: &AlgorithmResult,
) -> Result<(), String> {
    let AlgorithmResult::BfsTree { parent, level } = got else {
        return Err("BFS returned another result kind".into());
    };
    if level != want_level {
        return Err("BFS levels diverge from the oracle".into());
    }
    validate::validate_bfs_tree(g, root, parent).map_err(|e| format!("invalid BFS tree: {e}"))
}

/// SSSP: distances match Dijkstra and pass the per-edge triangle check.
pub fn sssp(g: &Csr, root: VertexId, want: &[Weight], got: &AlgorithmResult) -> Result<(), String> {
    let AlgorithmResult::Distances(d) = got else {
        return Err("SSSP returned another result kind".into());
    };
    if d.len() != want.len() {
        return Err("SSSP distance array has the wrong length".into());
    }
    for (v, (&have, &expect)) in d.iter().zip(want).enumerate() {
        let agree = if expect.is_infinite() {
            have.is_infinite()
        } else {
            (have - expect).abs() < SSSP_TOLERANCE
        };
        if !agree {
            return Err(format!("SSSP vertex {v}: {have} vs {expect}"));
        }
    }
    validate::validate_sssp_distances(g, root, d)
}

/// The oracle's PageRank ranks for [`pagerank`].
pub fn pagerank_oracle(g: &Csr) -> Vec<f64> {
    oracle::pagerank(g, PR_EPSILON, PR_MAX_ITERS).0
}

/// PageRank: L1 distance to the oracle's ranks.
pub fn pagerank(want: &[f64], got: &AlgorithmResult) -> Result<(), String> {
    let AlgorithmResult::Ranks { ranks, .. } = got else {
        return Err("PageRank returned another result kind".into());
    };
    if ranks.len() != want.len() {
        return Err("PageRank rank array has the wrong length".into());
    }
    let l1: f64 = ranks.iter().zip(want).map(|(a, b)| (a - b).abs()).sum();
    if l1 < PR_L1_TOLERANCE {
        Ok(())
    } else {
        Err(format!("PageRank L1 distance to the oracle = {l1}"))
    }
}

/// Serve answers are bit-compared against the oracle arrays.
pub fn serve_answer(want: f64, got: f64) -> Result<(), String> {
    if want.to_bits() == got.to_bits() {
        Ok(())
    } else {
        Err(format!("served {got}, oracle says {want}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg::prelude::*;

    fn small() -> (Dataset, Csr) {
        let ds = Dataset::from_spec(
            &GraphSpec::Kronecker { scale: 7, edge_factor: 8, weighted: true },
            5,
        );
        let csr = Csr::from_edge_list(&ds.symmetric);
        (ds, csr)
    }

    fn run(ds: &Dataset, algo: Algorithm, root: Option<VertexId>) -> AlgorithmResult {
        let pool = ThreadPool::new(2);
        let mut e = EngineKind::Gap.create();
        e.load_edge_list(ds.edges_for(EngineKind::Gap));
        e.construct(&pool);
        e.run(algo, &RunParams::new(&pool, root)).result
    }

    #[test]
    fn correct_results_pass() {
        let (ds, csr) = small();
        let root = ds.roots[0];
        let want = oracle::bfs(&csr, root).level;
        assert_eq!(bfs(&csr, root, &want, &run(&ds, Algorithm::Bfs, Some(root))), Ok(()));
        let want = oracle::dijkstra(&csr, root);
        assert_eq!(sssp(&csr, root, &want, &run(&ds, Algorithm::Sssp, Some(root))), Ok(()));
        let want = pagerank_oracle(&csr);
        assert_eq!(pagerank(&want, &run(&ds, Algorithm::PageRank, None)), Ok(()));
        assert_eq!(serve_answer(3.0, 3.0), Ok(()));
    }

    /// The check must be able to fail: a corrupted BFS parent array and a
    /// wrong serve answer both count as failures and turn the exit code.
    #[test]
    fn broken_outputs_fail_loudly() {
        let (ds, csr) = small();
        let root = ds.roots[0];
        let want = oracle::bfs(&csr, root).level;
        let AlgorithmResult::BfsTree { mut parent, level } = run(&ds, Algorithm::Bfs, Some(root))
        else {
            panic!("BFS result kind")
        };
        // Re-parent a reached non-root vertex onto itself.
        let victim = (0..parent.len()).find(|&v| v as VertexId != root && level[v] == 2).unwrap();
        parent[victim] = victim as VertexId;
        let corrupted = AlgorithmResult::BfsTree { parent, level };
        let mut outcome = Outcome::default();
        for result in [bfs(&csr, root, &want, &corrupted), serve_answer(4.0, 5.0)] {
            outcome.attempted += 1;
            outcome.failed += u64::from(result.is_err());
        }
        assert_eq!(outcome.failed, 2);
        assert!(outcome.failed_share() > 0.0);
        assert!(!outcome.correct());
        assert_ne!(outcome.exit_code(), 0);

        let mut dist = oracle::dijkstra(&csr, root);
        let want = dist.clone();
        dist[victim] += 1.0;
        assert!(sssp(&csr, root, &want, &AlgorithmResult::Distances(dist)).is_err());
        let ranks = vec![1.0; want.len()];
        let flat = AlgorithmResult::Ranks { ranks, iterations: 1 };
        assert!(pagerank(&pagerank_oracle(&csr), &flat).is_err());
    }
}
