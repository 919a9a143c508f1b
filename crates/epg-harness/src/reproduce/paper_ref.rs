//! The paper's published reference numbers, printed beside ours by the
//! artefact table (never used to calibrate a result).

/// Table III (Kronecker scale 22, 32 threads, per root):
/// (engine, time s, avg power W, energy J, sleeping energy J, increase).
pub const TABLE3: [(&str, f64, f64, f64, f64, f64); 4] = [
    ("GAP", 0.01636, 72.38, 1.184, 0.4046, 2.926),
    ("Graph500", 0.01884, 97.17, 1.830, 0.4660, 3.928),
    ("GraphBIG", 1.600, 78.01, 112.213, 39.591, 2.834),
    ("GraphMat", 1.424, 70.12, 111.104, 35.234, 3.153),
];

/// Table I (Graphalytics, 32 threads, seconds): (system, dataset,
/// [BFS, CDLP, LCC, PR, SSSP, WCC]), None = N/A.
pub const TABLE1: [(&str, &str, [Option<f64>; 6]); 6] = [
    ("GraphBIG", "cit-Patents", [Some(0.8), Some(11.8), Some(15.5), Some(4.5), None, Some(1.3)]),
    (
        "GraphBIG",
        "dota-league",
        [Some(1.1), Some(3.9), Some(1073.7), Some(2.6), Some(3.0), Some(1.0)],
    ),
    (
        "PowerGraph",
        "cit-Patents",
        [Some(13.8), Some(30.1), Some(23.9), Some(18.8), None, Some(22.1)],
    ),
    (
        "PowerGraph",
        "dota-league",
        [Some(25.6), Some(31.2), Some(458.1), Some(26.7), Some(28.9), Some(22.9)],
    ),
    ("GraphMat", "cit-Patents", [Some(7.5), Some(20.1), Some(9.8), Some(8.1), None, Some(6.6)]),
    (
        "GraphMat",
        "dota-league",
        [Some(2.7), Some(21.2), Some(239.7), Some(6.3), Some(9.4), Some(6.9)],
    ),
];

/// Table II (Graphalytics on Kronecker scale 22, seconds):
/// (algorithm, GraphMat, GraphBIG, PowerGraph).
pub const TABLE2: [(&str, f64, f64, f64); 5] = [
    ("CDLP", 45.8, 7.4, 55.6),
    ("PR", 8.9, 4.7, 46.4),
    ("LCC", 401.0, 1802.7, 299.8),
    ("WCC", 7.4, 2.4, 40.5),
    ("BFS", 10.3, 1.8, 43.0),
];

/// Fig. 9 (approximate medians read off the plot): CPU average power
/// during BFS, watts.
pub const FIG9_CPU_W: [(&str, f64); 4] =
    [("GAP", 72.4), ("Graph500", 97.2), ("GraphBIG", 78.0), ("GraphMat", 70.1)];
/// Fig. 9 DRAM power medians, watts.
pub const FIG9_RAM_W: [(&str, f64); 4] =
    [("GAP", 13.0), ("Graph500", 19.0), ("GraphBIG", 15.0), ("GraphMat", 11.0)];

/// Fig. 2 construction-time medians (seconds, scale 22, approximate).
pub const FIG2_CONSTRUCT: [(&str, f64); 3] = [("GAP", 1.1), ("Graph500", 3.4), ("GraphMat", 2.4)];

/// Fig. 4 PageRank iteration counts (approximate bar heights).
pub const FIG4_ITERS: [(&str, f64); 4] =
    [("GAP", 25.0), ("PowerGraph", 48.0), ("GraphBIG", 48.0), ("GraphMat", 140.0)];

/// The value a two-column reference table holds for `engine`, if any.
pub fn lookup(table: &[(&str, f64)], engine: &str) -> Option<f64> {
    table.iter().find(|(name, _)| *name == engine).map(|row| row.1)
}

/// Table III's per-root BFS seconds for `engine` (Fig. 2's reference).
pub fn table3_seconds(engine: &str) -> Option<f64> {
    TABLE3.iter().find(|row| row.0 == engine).map(|row| row.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_is_self_consistent() {
        // Table III: energy ≈ power x time (the paper's averages of
        // per-root products differ from the product of averages by ~10%).
        for (name, t, w, j, _, inc) in TABLE3 {
            assert!((w * t - j).abs() / j < 0.15, "{name}: {w}*{t} != {j}");
            assert!(inc > 1.0);
        }
    }
}
