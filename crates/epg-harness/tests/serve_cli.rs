//! `epg serve` end to end: the real binary, its real dataset, landmarks
//! on. The landmark stage reads d(t, s) as d(s, t), so it is exact only
//! on the symmetrized graph; querying toward the top-degree vertices (the
//! landmarks) makes a service over any other graph answer wrong. Every
//! answer is compared with the sequential oracles on the same dataset's
//! symmetric graph.

use epg_graph::{oracle, Csr};
use epg_harness::dataset::{Dataset, PaperDatasets};
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

const SCALE: u32 = 8;
const LANDMARKS: usize = 4;
/// `epg`'s defaults: weighted Kronecker, seed 42.
const SEED: u64 = 42;

#[test]
fn landmark_answers_match_the_oracles_on_the_symmetric_graph() {
    let ds = Dataset::from_spec(&PaperDatasets::kronecker(SCALE, true), SEED);
    let g = Csr::from_edge_list(&ds.symmetric);
    let n = g.num_vertices() as u32;
    // The landmark order: degree descending, then vertex id ascending.
    let mut hubs: Vec<u32> = (0..n).collect();
    hubs.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
    hubs.truncate(LANDMARKS);

    let sources: Vec<u32> = ds.roots.iter().copied().chain([0, n / 3, n - 1]).collect();
    let mut requests = String::new();
    let mut want = Vec::new();
    for &s in &sources {
        let level = oracle::bfs(&g, s).level;
        let dist = oracle::dijkstra(&g, s);
        for &t in &hubs {
            requests.push_str(&format!("bfs {s} {t}\nsssp {s} {t}\n"));
            let hops = level[t as usize];
            want.push(if hops == u32::MAX { f64::INFINITY } else { f64::from(hops) });
            want.push(f64::from(dist[t as usize]));
        }
    }
    requests.push_str("quit\n");

    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-cli");
    let _ = std::fs::remove_dir_all(&out_dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_epg"))
        .args(["serve", "--scale", &SCALE.to_string(), "--landmarks", &LANDMARKS.to_string()])
        .args(["--out", out_dir.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn epg serve");
    child.stdin.take().unwrap().write_all(requests.as_bytes()).expect("write requests");
    let out = child.wait_with_output().expect("epg serve exits");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), want.len(), "one response per request:\n{stdout}");
    let request_lines: Vec<&str> = requests.lines().collect();
    let mut wrong = Vec::new();
    let mut by_landmark = 0;
    for ((line, request), &want) in lines.iter().zip(&request_lines).zip(&want) {
        let (value, path) = line
            .strip_prefix("ok ")
            .and_then(|rest| rest.split_once(" path="))
            .unwrap_or_else(|| panic!("`{request}` got `{line}`"));
        let got: f64 = value.parse().expect("a number or inf");
        if got != want {
            wrong.push(format!("`{request}`: {value} via {path}, oracle {want}"));
        }
        by_landmark += usize::from(path == "landmark");
    }
    let total = want.len();
    assert!(wrong.is_empty(), "{} of {total} answers wrong:\n{}", wrong.len(), wrong.join("\n"));
    assert!(by_landmark > 0, "no answer took the landmark path");
}
