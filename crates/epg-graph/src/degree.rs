//! Degree statistics and root sampling.
//!
//! The paper selects 32 search roots per graph, each with degree greater
//! than one, exactly as the Graph500 specification prescribes (§III-B).
//! This module implements that sampling plus the degree-distribution
//! summaries the analysis phase reports.

use crate::{EdgeList, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Summary of a degree distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of directed edges.
    pub num_edges: usize,
    /// Maximum out-degree.
    pub max_degree: u32,
    /// Mean out-degree.
    pub mean_degree: f64,
    /// Number of isolated (degree-0 in+out) vertices.
    pub isolated: usize,
    /// Gini-style skew proxy: fraction of edges owned by the top 1% of
    /// vertices by degree. Kronecker/power-law graphs score high; meshes low.
    pub top1pct_edge_share: f64,
}

/// Computes degree statistics from an edge list.
pub fn degree_stats(el: &EdgeList) -> DegreeStats {
    let out = el.out_degrees();
    let total = el.total_degrees();
    let max_degree = out.iter().copied().max().unwrap_or(0);
    let isolated = total.iter().filter(|&&d| d == 0).count();
    let mut sorted = out.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let top = (el.num_vertices.max(100) / 100).max(1).min(sorted.len().max(1));
    let top_edges: u64 = sorted.iter().take(top).map(|&d| d as u64).sum();
    DegreeStats {
        num_vertices: el.num_vertices,
        num_edges: el.num_edges(),
        max_degree,
        mean_degree: if el.num_vertices == 0 {
            0.0
        } else {
            el.num_edges() as f64 / el.num_vertices as f64
        },
        isolated,
        top1pct_edge_share: if el.num_edges() == 0 {
            0.0
        } else {
            top_edges as f64 / el.num_edges() as f64
        },
    }
}

/// Samples `count` distinct roots with total degree > 1, as in the Graph500
/// and §III-B ("each root is selected to have a degree greater than 1").
/// Returns fewer than `count` roots only when the graph does not contain
/// enough qualifying vertices.
pub fn sample_roots(el: &EdgeList, count: usize, seed: u64) -> Vec<VertexId> {
    sample_roots_by_degree(&el.total_degrees(), count, seed)
}

/// [`sample_roots`] of a list whose total degrees are `total_degrees`,
/// without reading the list: the same roots for the same degrees and seed.
/// [`EdgeList::undirected_with_degrees`] hands its degrees over this way.
pub fn sample_roots_by_degree(total_degrees: &[u32], count: usize, seed: u64) -> Vec<VertexId> {
    let eligible: Vec<VertexId> =
        (0..total_degrees.len() as VertexId).filter(|&v| total_degrees[v as usize] > 1).collect();
    if eligible.is_empty() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    if eligible.len() <= count {
        return eligible;
    }
    // Floyd's algorithm for distinct sampling without shuffling the pool.
    let mut chosen = std::collections::BTreeSet::new();
    let n = eligible.len();
    for j in n - count..n {
        let t = rng.gen_range(0..=j);
        if !chosen.insert(eligible[t]) {
            chosen.insert(eligible[j]);
        }
    }
    let mut roots: Vec<VertexId> = chosen.into_iter().collect();
    // Deterministic but shuffled order.
    for i in (1..roots.len()).rev() {
        roots.swap(i, rng.gen_range(0..=i));
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n: usize) -> EdgeList {
        EdgeList::new(n, (1..n as VertexId).map(|v| (0, v)).collect())
    }

    #[test]
    fn stats_on_star() {
        let el = star(101);
        let s = degree_stats(&el);
        assert_eq!(s.max_degree, 100);
        assert_eq!(s.isolated, 0);
        assert!((s.mean_degree - 100.0 / 101.0).abs() < 1e-12);
        // Hub owns all edges: top 1% share is 1.
        assert_eq!(s.top1pct_edge_share, 1.0);
    }

    #[test]
    fn stats_empty() {
        let s = degree_stats(&EdgeList::new(0, vec![]));
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.top1pct_edge_share, 0.0);
    }

    #[test]
    fn roots_have_degree_greater_than_one() {
        // Path graph: endpoints have total degree 1, inner vertices 2.
        let el = EdgeList::new(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let roots = sample_roots(&el, 10, 42);
        assert!(!roots.is_empty());
        let deg = el.total_degrees();
        for r in &roots {
            assert!(deg[*r as usize] > 1, "root {r} has degree <= 1");
        }
        assert!(!roots.contains(&0));
        assert!(!roots.contains(&5));
    }

    #[test]
    fn roots_are_distinct_and_deterministic() {
        let el = star(64).symmetrized();
        let a = sample_roots(&el, 32, 7);
        let b = sample_roots(&el, 32, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
    }

    #[test]
    fn different_seeds_differ() {
        let el = star(400).symmetrized();
        assert_ne!(sample_roots(&el, 32, 1), sample_roots(&el, 32, 2));
    }

    #[test]
    fn no_eligible_roots() {
        let el = EdgeList::new(2, vec![(0, 1)]);
        assert!(sample_roots(&el, 4, 0).is_empty());
    }
}
