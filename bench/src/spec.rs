//! The benchmark's declared surface: workloads, metrics, bounds and the
//! command. `BENCHMARK.json` at the repository root is the rendering of
//! these tables (`epg-perfbench manifest`); a test keeps the two equal.

use std::fmt::Write as _;

/// Seconds one run measures when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 10;

/// The command the driver runs from the repository root.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
    "run",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["bench"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "kron_bfs",
        why: "BFS on Kronecker: few fat levels, so per-edge kernel work and GAP's direction switch dominate and fork/join is negligible",
    },
    Workload {
        name: "kron_sssp",
        why: "weighted SSSP on Kronecker: bucket/priority kernels and CAS-min traffic; GAP's kernel tier and PowerGraph's gather/scatter do the work",
    },
    Workload {
        name: "kron_pr",
        why: "PageRank on Kronecker: dense frontier-less streaming, static vs dynamic scheduling; a BFS-frontier change must not move it",
    },
    Workload {
        name: "grid_bfs",
        why: "BFS on a grid: hundreds of thin levels, so per-level cost (pool fork/join, per-level allocations) dominates and per-edge speed barely matters",
    },
    Workload {
        name: "ingest_files",
        why: "fresh engine, load_file then construct from homogenized files: epg-graph's scanner, codec and CSR builds do the work, the kernels none",
    },
    Workload {
        name: "serve_cold",
        why: "closed-loop point queries over a working set far larger than the source cache: nearly every answer is an exact traversal",
    },
    Workload {
        name: "serve_hot",
        why: "closed-loop point queries skewed over a few sources with landmarks on: cache and landmark hits carry throughput, traversals set the tail",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Every end-to-end metric is reported by every workload and is never 0.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "sweep_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "cell_gmean_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20 },
];

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Crate suffix of each engine layer, in the paper's listing order.
pub const ENGINE_LAYERS: [&str; 5] = [
    "epg-engine-graph500",
    "epg-engine-gap",
    "epg-engine-graphbig",
    "epg-engine-graphmat",
    "epg-engine-powergraph",
];

const ENGINE_METRICS: [(&str, &str, &str); 11] = [
    ("run_s", "s", "lower"),
    ("run_hi_s", "s", "lower"),
    ("edges_run", "count", "lower"),
    ("iters_run", "count", "lower"),
    ("regions_run", "count", "lower"),
    ("chunks_run", "count", "lower"),
    ("ns_edge", "ns", "lower"),
    ("mteps_hmean", "MTEPS", "higher"),
    ("load_s", "s", "lower"),
    ("construct_s", "s", "lower"),
    ("verify_failed", "count", "lower"),
];

const LAYER_METRICS: [(&str, &str, &str); 65] = [
    ("epg-generator.gen_s", "s", "lower"),
    ("epg-generator.gen_medges_s", "Medges/s", "higher"),
    ("epg-harness.homogenize_s", "s", "lower"),
    ("epg-harness.write_files_s", "s", "lower"),
    ("epg-harness.file_mb", "MB", "lower"),
    ("epg-harness.report_s", "s", "lower"),
    ("epg-harness.runner_overhead_share", "ratio", "lower"),
    ("epg-graph.snap_parse_s", "s", "lower"),
    ("epg-graph.snap_parse_mb_s", "MB/s", "higher"),
    ("epg-graph.bin_decode_s", "s", "lower"),
    ("epg-graph.bin_decode_mb_s", "MB/s", "higher"),
    ("epg-graph.csr_build_s", "s", "lower"),
    ("epg-graph.csr_build_medges_s", "Medges/s", "higher"),
    ("epg-graph.csr_transpose_s", "s", "lower"),
    ("epg-graph.csr_sort_s", "s", "lower"),
    ("epg-graph.dedup_s", "s", "lower"),
    ("epg-graph.symmetrize_s", "s", "lower"),
    ("epg-parallel.region_us", "us", "lower"),
    ("epg-parallel.for_static_ns_item", "ns", "lower"),
    ("epg-parallel.for_dynamic_ns_chunk", "ns", "lower"),
    ("epg-parallel.scan_melems_s", "Melems/s", "higher"),
    ("epg-parallel.regions", "count", "lower"),
    ("epg-parallel.chunks", "count", "lower"),
    ("epg-parallel.data_rmw", "count", "lower"),
    ("epg-parallel.forkjoin_share", "ratio", "lower"),
    ("epg-engine-gap.sssp_delta_s", "s", "lower"),
    ("epg-engine-gap.sssp_radix_s", "s", "lower"),
    ("epg-engine-gap.sssp_bmssp_s", "s", "lower"),
    ("epg-engine-api.verify_s", "s", "lower"),
    ("epg-serve.qps", "1/s", "higher"),
    ("epg-serve.p50_ms", "ms", "lower"),
    ("epg-serve.p99_ms", "ms", "lower"),
    ("epg-serve.exact_share", "ratio", "lower"),
    ("epg-serve.cached_share", "ratio", "higher"),
    ("epg-serve.landmark_share", "ratio", "higher"),
    ("epg-serve.batched_share", "ratio", "higher"),
    ("epg-serve.landmark_fallthrough_share", "ratio", "lower"),
    ("epg-serve.cache_evictions", "count", "lower"),
    ("epg-serve.exact_p50_ms", "ms", "lower"),
    ("epg-serve.batched_p50_ms", "ms", "lower"),
    ("epg-serve.cached_p50_us", "us", "lower"),
    ("epg-serve.landmark_p50_us", "us", "lower"),
    ("epg-serve.landmark_build_s", "s", "lower"),
    ("epg-serve.max_ms", "ms", "lower"),
    ("epg-serve.stalls_1s", "count", "lower"),
    ("epg-serve.rejected", "count", "lower"),
    ("epg-serve.dnf", "count", "lower"),
    ("epg-serve.failed", "count", "lower"),
    ("epg-serve.wrong_answers", "count", "lower"),
    ("epg-trace.record_ns", "ns", "lower"),
    ("epg-trace.jsonl_mb_s", "MB/s", "higher"),
    ("epg-machine.project_us", "us", "lower"),
    ("epg-lint.lint_s", "s", "lower"),
    ("epg-lint.lint_ns_line", "ns", "lower"),
    ("bench.calib_s", "s", "lower"),
    ("bench.host_factor", "ratio", "lower"),
    ("bench.setup_wall_s", "s", "lower"),
    ("bench.sweep_wall_s", "s", "lower"),
    ("bench.op_tail_ms", "ms", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.threads", "count", "higher"),
    ("bench.read_fused_s", "s", "lower"),
    ("bench.read_bin_s", "s", "lower"),
    ("bench.construct_s", "s", "lower"),
    ("bench.failed_share", "ratio", "lower"),
];

/// Every per-layer metric, named `<crate>.<metric>`. A workload that does
/// not exercise a layer reports 0 for that layer's metrics.
pub fn per_layer() -> Vec<Layer> {
    let mut out: Vec<Layer> = Vec::new();
    for engine in ENGINE_LAYERS {
        for (metric, unit, better) in ENGINE_METRICS {
            out.push(Layer { name: format!("{engine}.{metric}"), unit, better });
        }
    }
    out.extend(LAYER_METRICS.iter().map(|&(name, unit, better)| Layer {
        name: name.to_string(),
        unit,
        better,
    }));
    out
}

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// Regression bound of an end-to-end metric.
pub fn bound_of(name: &str) -> f64 {
    END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound).expect("declared metric")
}

fn quoted_list(items: &[&str]) -> String {
    items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ")
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted_list(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [{}],", quoted_list(&PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let _ = writeln!(out, "  \"workloads\": [\n{}\n  ],", rows.join(",\n"));
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let _ = writeln!(out, "  \"end_to_end\": [\n{}\n  ],", rows.join(",\n"));
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    let _ = writeln!(out, "  \"per_layer\": [\n{}\n  ]", rows.join(",\n"));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declared_names_units_and_limits_meet_the_contract() {
        let layers = per_layer();
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&layers.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"']), "{}", w.name);
            assert!(seen.insert(w.name.to_string()), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(["lower", "higher"].contains(&m.better));
            assert!(seen.insert(m.name.to_string()), "duplicate {}", m.name);
        }
        for m in &layers {
            assert!(is_name(&m.name) && is_unit(m.unit), "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s declared");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest_json().len() <= 64 * 1024);
        assert!(COMMAND.len() <= 32);
    }

    #[test]
    fn committed_manifest_is_the_rendering_of_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest_json(), "run `epg-perfbench manifest > BENCHMARK.json`");
    }
}
