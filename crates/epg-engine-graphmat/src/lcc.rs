//! LCC as a two-phase matrix kernel: neighborhood extraction from the DCSC
//! columns, then masked intersection counting (GraphMat expresses this as a
//! sequence of matrix products; the dominant cost — per-wedge intersection
//! work — is identical).

use epg_engine_api::{AlgorithmResult, Dir, RunLog, RunOutput, RunParams};
use epg_graph::{Dcsc, VertexId};
use epg_parallel::{DisjointWriter, Schedule};

/// Computes the Graphalytics local clustering coefficient per vertex.
pub fn lcc(a: &Dcsc, at: &Dcsc, n: usize, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let mut log = RunLog::new(params.recorder);

    // Phase 1: undirected neighborhoods (columns of A merged with Aᵀ).
    let mut nbrs: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    {
        let w = DisjointWriter::new(&mut nbrs);
        pool.parallel_for_ranges(n, Schedule::Guided { min_chunk: 32 }, |_tid, lo, hi| {
            for v in lo..hi {
                let vid = v as VertexId;
                let mut nb: Vec<VertexId> = a.column(vid).to_vec();
                nb.extend_from_slice(at.column(vid));
                nb.retain(|&u| u != vid);
                nb.sort_unstable();
                nb.dedup();
                // SAFETY: one writer per index.
                unsafe { w.write(v, nb) };
            }
        });
    }
    let prep: u64 = nbrs.iter().map(|x| x.len() as u64 + 1).sum();
    log.parallel(prep.max(1), 1, prep * 8);

    // Phase 2: wedge closure counting by sorted intersection.
    let mut out = vec![0.0f64; n];
    let w = DisjointWriter::new(&mut out);
    let nbrs = &nbrs;
    let close_wedges = |lo: usize, hi: usize| {
        let (mut work, mut max_cost) = (0u64, 0u64);
        for v in lo..hi {
            let nb = &nbrs[v];
            let d = nb.len();
            if d < 2 {
                continue;
            }
            let mut tri = 0u64;
            let mut cost = 0u64;
            for &u in nb {
                let outs = a.column(u);
                cost += (outs.len() + d) as u64;
                tri += intersect_count(outs, nb, u);
            }
            work += cost;
            max_cost = max_cost.max(cost);
            // SAFETY: one writer per index.
            unsafe { w.write(v, tri as f64 / (d as f64 * (d - 1) as f64)) };
        }
        (work, max_cost)
    };
    let (work, max_cost) = pool.parallel_reduce_ranges(
        n,
        Schedule::Dynamic { chunk: 16 },
        || (0, 0),
        close_wedges,
        |x, y| (x.0 + y.0, x.1.max(y.1)),
    );
    log.counters.edges_traversed = work;
    log.counters.vertices_touched = n as u64;
    log.counters.iterations = 1;
    log.counters.bytes_read = work * 8;
    log.counters.bytes_written = n as u64 * 8;
    log.parallel(work.max(1), max_cost.max(1), work * 8);
    let _ = log.iteration(pool, 1, n as u64, Dir::Pull);
    log.finish(AlgorithmResult::Coefficients(out))
}

fn intersect_count(a: &[VertexId], b: &[VertexId], exclude: VertexId) -> u64 {
    let (mut i, mut j, mut c) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        if a[i] == exclude {
            i += 1;
            continue;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use epg_graph::{oracle, Csr, EdgeList};
    use epg_parallel::ThreadPool;

    #[test]
    fn triangle_is_one() {
        let el = EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0)]).symmetrized();
        let pool = ThreadPool::new(2);
        let a = Dcsc::from_edge_list(&el, &pool);
        let at = a.transpose(&pool);
        let out = lcc(&a, &at, 3, &RunParams::new(&pool, None));
        let AlgorithmResult::Coefficients(c) = out.result else { panic!() };
        assert!(c.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn directed_graph_matches_oracle() {
        let el = epg_generator::uniform::generate(60, 500, false, 11).deduplicated();
        let pool = ThreadPool::new(3);
        let a = Dcsc::from_edge_list(&el, &pool);
        let at = a.transpose(&pool);
        let out = lcc(&a, &at, el.num_vertices, &RunParams::new(&pool, None));
        let AlgorithmResult::Coefficients(c) = out.result else { panic!() };
        let want = oracle::lcc(&Csr::from_edge_list(&el));
        for v in 0..want.len() {
            assert!((c[v] - want[v]).abs() < 1e-12, "vertex {v}: {} vs {}", c[v], want[v]);
        }
    }
}

/// Global triangle count (§V extension): GraphMat's TC program — the same
/// ordered-intersection structure as LCC restricted to higher-numbered
/// neighborhoods, counting each triangle once.
pub fn triangle_count(a: &Dcsc, at: &Dcsc, n: usize, params: &RunParams<'_>) -> RunOutput {
    let pool = params.pool;
    let mut log = RunLog::new(params.recorder);
    let mut higher: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    {
        let w = DisjointWriter::new(&mut higher);
        pool.parallel_for_ranges(n, Schedule::Guided { min_chunk: 32 }, |_tid, lo, hi| {
            for v in lo..hi {
                let vid = v as VertexId;
                let mut set: Vec<VertexId> = a
                    .column(vid)
                    .iter()
                    .chain(at.column(vid))
                    .copied()
                    .filter(|&u| u > vid)
                    .collect();
                set.sort_unstable();
                set.dedup();
                // SAFETY: one writer per index.
                unsafe { w.write(v, set) };
            }
        });
    }
    let higher = &higher;
    let count = |lo: usize, hi: usize| {
        let (mut total, mut work) = (0u64, 0u64);
        for u in lo..hi {
            let hu = &higher[u];
            for &v in hu {
                work += (hu.len() + higher[v as usize].len()) as u64;
                total += intersect_count(hu, &higher[v as usize], VertexId::MAX);
            }
        }
        (total, work)
    };
    let sched = Schedule::Dynamic { chunk: 32 };
    let (total, work) =
        pool.parallel_reduce_ranges(n, sched, || (0, 0), count, |x, y| (x.0 + y.0, x.1 + y.1));
    log.counters.edges_traversed = work;
    log.counters.vertices_touched = n as u64;
    log.counters.iterations = 1;
    log.counters.bytes_read = work * 8;
    log.parallel(work.max(1), 1, work * 8);
    // The final global reduction is a (tiny) serial step in GraphMat.
    log.serial(1, 8);
    let _ = log.iteration(pool, 1, n as u64, Dir::Pull);
    log.finish(AlgorithmResult::Triangles(total))
}

#[cfg(test)]
mod tc_tests {
    use super::*;
    use epg_graph::{oracle, Csr};
    use epg_parallel::ThreadPool;

    #[test]
    fn tc_matches_oracle() {
        let el = epg_generator::uniform::generate(130, 1700, false, 12);
        let pool = ThreadPool::new(3);
        let a = Dcsc::from_edge_list(&el, &pool);
        let at = a.transpose(&pool);
        let out = triangle_count(&a, &at, el.num_vertices, &RunParams::new(&pool, None));
        let AlgorithmResult::Triangles(t) = out.result else { panic!() };
        assert_eq!(t, oracle::triangle_count(&Csr::from_edge_list(&el)));
    }
}
