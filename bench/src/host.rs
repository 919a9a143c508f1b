//! What a run knows about its host: hardware threads and the thread counts
//! the run used, the commit, peak memory, and the reference kernels in the
//! benchmark's own code whose time says how fast the host is right now.

use crate::inputs::splitmix64;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Pool threads (and serve clients) never exceed this.
const MAX_THREADS: usize = 4;

#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    /// Pool threads: `min(nproc, 4)`.
    pub threads: usize,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host { nproc, threads: nproc.min(MAX_THREADS), commit: git_commit(&repo_root()) }
    }

    /// True when the pool threads (the serve clients are as many) outnumber
    /// the hardware threads; `min(nproc, 4)` keeps it false.
    pub fn oversubscribed(&self) -> bool {
        self.threads > self.nproc
    }
}

/// The benchmark package's directory: where `cargo run` says the manifest
/// is, else where it was when the binary was built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

pub fn repo_root() -> PathBuf {
    bench_dir().parent().map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Scratch and span files go here; `bench/.gitignore` covers it.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Seconds one pass of the [`Reference`] takes on the build host while that
/// host runs at its faster speed. A run reports its end-to-end times at this
/// host speed: measured seconds times `NOMINAL_REF_S / reference seconds`.
pub const NOMINAL_REF_S: f64 = 0.002;

const REF_VERTICES: usize = 1 << 15;
const REF_EDGES: usize = 1 << 18;
const REF_SORTED: usize = 1 << 16;
const REF_SEARCHES: u64 = 60_000;
const REF_COUNTERS: usize = 1 << 20;
const REF_INCREMENTS: u64 = 400_000;

/// The host-speed yardstick: three fixed kernels in the benchmark's own
/// code, so no crate of the repository can change them, with the access
/// patterns of the engines: a level-synchronous BFS over a fixed random
/// graph (allocating its level array and frontiers as the engines do),
/// binary searches in a sorted array, and scattered increments into a
/// fresh 4 MiB array. One pass takes about 7 ms.
///
/// The build host runs the same code at speeds a quarter to a half apart
/// for minutes at a time. These kernels slow down with the workloads
/// (`CALIBRATION.md` has the measurements; a streaming sum or an ALU loop
/// does not), so dividing a time by the reference measured next to it takes
/// the host's speed out of the number.
pub struct Reference {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    sorted: Vec<u32>,
}

impl Reference {
    pub fn new() -> Reference {
        let edges: Vec<(u32, u32)> = (0..REF_EDGES as u64)
            .map(|i| {
                let (u, v) = (splitmix64(i), splitmix64(i ^ 0xABCD_EF01));
                ((u % REF_VERTICES as u64) as u32, (v % REF_VERTICES as u64) as u32)
            })
            .collect();
        let mut offsets = vec![0u32; REF_VERTICES + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for v in 0..REF_VERTICES {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; REF_EDGES];
        for &(u, v) in &edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
        }
        Reference { offsets, targets, sorted: (0..REF_SORTED as u32).map(|i| i * 7).collect() }
    }

    fn bfs(&self) {
        let mut level = vec![u32::MAX; REF_VERTICES];
        let mut frontier = vec![0u32];
        level[0] = 0;
        let mut depth = 0;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                let (lo, hi) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
                for &v in &self.targets[lo as usize..hi as usize] {
                    if level[v as usize] == u32::MAX {
                        level[v as usize] = depth;
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        black_box(level);
    }

    fn searches(&self) {
        let mut hits = 0u32;
        for i in 0..REF_SEARCHES {
            let key = (splitmix64(i) % (7 * REF_SORTED as u64)) as u32;
            hits += u32::from(self.sorted.binary_search(&key).is_ok());
        }
        black_box(hits);
    }

    fn scatter(&self) {
        let mut counters = vec![0u32; REF_COUNTERS];
        for i in 0..REF_INCREMENTS {
            counters[(splitmix64(i) % REF_COUNTERS as u64) as usize] += 1;
        }
        black_box(counters);
    }

    /// One pass: the geometric mean of the three kernels' seconds, so that
    /// none of them outweighs the others.
    pub fn measure(&self) -> f64 {
        let kernels: [fn(&Reference); 3] =
            [Reference::bfs, Reference::searches, Reference::scatter];
        let product: f64 = kernels
            .iter()
            .map(|kernel| {
                let t = Instant::now();
                kernel(self);
                t.elapsed().as_secs_f64()
            })
            .product();
        product.cbrt()
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkout is not a repository, so the answer may be "unknown".
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.len() >= 12 && hash.chars().all(|c| c.is_ascii_hexdigit()) {
        hash[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_is_populated() {
        let h = Host::probe();
        assert!(h.nproc >= 1 && h.threads >= 1 && h.threads <= MAX_THREADS.min(h.nproc));
        let pass = Reference::new().measure();
        assert!(pass > 0.0 && pass < 1.0, "{pass}");
        assert!(!h.oversubscribed());
        assert!(peak_rss_mb() > 0.0);
        assert!(h.commit == "unknown" || h.commit.len() == 12);
    }
}
