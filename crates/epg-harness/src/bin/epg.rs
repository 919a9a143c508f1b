//! The `epg` command-line interface: "each of which requires no more than
//! a single shell command" (§III).
//!
//! ```text
//! epg setup                         # phase 1: list the homogenized engines
//! epg gen   --scale 14 [--weighted] # phase 2: generate + homogenize
//! epg run   --scale 14 --threads 2  # phase 3 (also runs 2 if needed)
//! epg run   --sssp-kernel radix     # pick the GAP SSSP kernel (delta|radix|bmssp)
//! epg all   --scale 14              # phases 2-5
//! epg graphalytics --scale 12       # the comparator + HTML report
//! epg granula --scale 12            # Granula-style operation charts, one BFS run per engine
//! epg reproduce <id>...|all [--full] # regenerate the paper's tables and figures, then judge its
//!                                   # claims against them (ledger -> <out>/claims.md)
//! epg reproduce --list              # the 17 artefact ids
//! epg serve --scale 14 [--listen ADDR] [--landmarks N]
//!                                   # resident-graph query service (stdio or TCP line protocol)
//! epg trace summarize --input F     # summarize a *.trace.jsonl file
//! epg lint [--strict] [--root DIR]  # workspace static analysis (DESIGN.md §10-§11)
//! ```

use epg_harness::dataset::{Dataset, PaperDatasets};
use epg_harness::graphalytics;
use epg_harness::pipeline::Pipeline;
use epg_harness::reproduce;
use epg_harness::runner::ExperimentConfig;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    cmd: String,
    subcmd: Option<String>,
    /// `reproduce`'s positional artefact ids.
    ids: Vec<String>,
    scale: Option<u32>,
    full: bool,
    list: bool,
    weighted: bool,
    threads: usize,
    roots: Option<usize>,
    seed: u64,
    out: PathBuf,
    snap_file: Option<PathBuf>,
    input: Option<PathBuf>,
    trial_budget_ms: Option<u64>,
    strict: bool,
    root: Option<PathBuf>,
    sssp_kernel: Option<epg_engine_api::SsspKernel>,
    landmarks: Option<usize>,
    listen: Option<String>,
}

fn parse_args(argv: std::env::Args) -> Result<Args, String> {
    let mut argv = argv;
    let _bin = argv.next();
    let cmd = argv.next().ok_or_else(usage)?;
    let subcmd = if cmd == "trace" {
        Some(argv.next().ok_or("trace needs a subcommand: summarize")?)
    } else {
        None
    };
    let mut a = Args {
        cmd,
        subcmd,
        ids: Vec::new(),
        scale: None,
        full: false,
        list: false,
        weighted: true,
        threads: 1,
        roots: Some(8),
        seed: 42,
        out: PathBuf::from("target/epg-out"),
        snap_file: None,
        input: None,
        trial_budget_ms: None,
        strict: false,
        root: None,
        sssp_kernel: None,
        landmarks: None,
        listen: None,
    };
    let mut it = argv.peekable();
    while let Some(flag) = it.next() {
        if a.cmd == "lint" && !matches!(flag.as_str(), "--strict" | "--root") {
            return Err(format!("unknown flag: {flag}\n{}", usage()));
        }
        let mut val = |name: &str| -> Result<String, String> {
            it.next().ok_or(format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--scale" => {
                a.scale = Some(val("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?)
            }
            "--full" => a.full = true,
            "--list" => a.list = true,
            id if a.cmd == "reproduce" && !id.starts_with("--") => a.ids.push(id.to_string()),
            "--threads" => {
                a.threads = val("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--roots" => {
                a.roots = Some(val("--roots")?.parse().map_err(|e| format!("--roots: {e}"))?)
            }
            "--all-roots" => a.roots = None,
            "--seed" => a.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => a.out = PathBuf::from(val("--out")?),
            "--weighted" => a.weighted = true,
            "--unweighted" => a.weighted = false,
            "--strict" => a.strict = true,
            "--root" => a.root = Some(PathBuf::from(val("--root")?)),
            "--sssp-kernel" => {
                let name = val("--sssp-kernel")?;
                a.sssp_kernel =
                    Some(epg_engine_api::SsspKernel::from_name(&name).ok_or_else(|| {
                        let names: Vec<&str> =
                            epg_engine_api::SsspKernel::ALL.iter().map(|k| k.name()).collect();
                        format!(
                            "--sssp-kernel: unknown kernel `{name}` (one of: {})",
                            names.join(", ")
                        )
                    })?);
            }
            "--landmarks" => {
                a.landmarks =
                    Some(val("--landmarks")?.parse().map_err(|e| format!("--landmarks: {e}"))?)
            }
            "--listen" => a.listen = Some(val("--listen")?),
            "--snap" => a.snap_file = Some(PathBuf::from(val("--snap")?)),
            "--input" => a.input = Some(PathBuf::from(val("--input")?)),
            "--trial-budget-ms" => {
                a.trial_budget_ms = Some(
                    val("--trial-budget-ms")?
                        .parse()
                        .map_err(|e| format!("--trial-budget-ms: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag: {other}\n{}", usage())),
        }
    }
    Ok(a)
}

fn usage() -> String {
    "usage: epg <setup|gen|run|all|graphalytics|granula|reproduce|serve|trace summarize|lint> \
     [<artefact>...|all] [--list] [--full] [--scale N] [--weighted|--unweighted] [--threads N] [--roots N|--all-roots] \
     [--seed N] [--out DIR] [--snap FILE] [--input FILE] [--trial-budget-ms N] \
     [--strict] [--root DIR] \
     [--sssp-kernel delta|radix|bmssp] [--landmarks N] [--listen ADDR]"
        .to_string()
}

fn dataset_for(args: &Args, pipeline: &Pipeline) -> Result<Dataset, String> {
    if let Some(path) = &args.snap_file {
        let ds = Dataset::from_snap_file(path, args.seed).map_err(|e| e.to_string())?;
        ds.write_files(&pipeline.out_dir.join("datasets")).map_err(|e| e.to_string())?;
        Ok(ds)
    } else {
        let spec = PaperDatasets::kronecker(args.scale.unwrap_or(12), args.weighted);
        pipeline.homogenize(&spec, args.seed).map_err(|e| e.to_string())
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("epg: {e}");
            // `lint` owns its exit codes, and 1 there means findings: a
            // usage error is 2, its configuration-error code.
            if std::env::args().nth(1).as_deref() == Some("lint") {
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args(std::env::args())?;
    if args.cmd == "lint" {
        // Static analysis prints its own report and owns the exit code:
        // 0 clean, 1 findings, 2 config error, 3 stale exceptions under
        // --strict (run_lint's code is passed through verbatim).
        let root = args.root.clone().unwrap_or_else(epg_lint::workspace_root);
        std::process::exit(epg_lint::run_lint(&root, args.strict));
    }
    // Only the arms that write artefacts create the out directory.
    let pipeline = || Pipeline::new(args.out.clone()).map_err(|e| e.to_string());
    match args.cmd.as_str() {
        "setup" => {
            print!("{}", Pipeline { out_dir: args.out.clone() }.setup_report());
        }
        "gen" => {
            let pipeline = pipeline()?;
            let ds = dataset_for(&args, &pipeline)?;
            println!(
                "homogenized '{}': {} vertices, {} edges (weighted: {}), 32 roots sampled",
                ds.name,
                ds.raw.num_vertices,
                ds.raw.num_edges(),
                ds.weighted
            );
            println!("files in {}", pipeline.out_dir.join("datasets").display());
            print!("{}", epg_graph::analysis::GraphProfile::of(&ds.raw).to_text());
        }
        "run" | "all" => {
            let pipeline = pipeline()?;
            let ds = dataset_for(&args, &pipeline)?;
            let mut cfg = ExperimentConfig {
                threads: args.threads,
                max_roots: args.roots,
                sssp_kernel: args.sssp_kernel,
                ..ExperimentConfig::new()
            };
            // Per-trial wall-clock budget: over-budget trials are reaped
            // cooperatively and reported as DNF (timeout) rows.
            cfg.supervisor.trial_budget =
                args.trial_budget_ms.map(std::time::Duration::from_millis);
            eprintln!(
                "running {} engines x {} algorithms on '{}' ({} threads)...",
                cfg.engines.len(),
                cfg.algorithms.len(),
                ds.name,
                cfg.threads
            );
            let result = pipeline.run(cfg, &ds);
            let csv = pipeline.parse(&result).map_err(|e| e.to_string())?;
            println!("wrote {}", csv.display());
            if args.cmd == "all" {
                for p in pipeline.analyze(&result, &ds).map_err(|e| e.to_string())? {
                    println!("wrote {}", p.display());
                }
            }
        }
        "granula" => {
            // Granula-style operation charts for every engine on one BFS run.
            let pipeline = pipeline()?;
            let ds = dataset_for(&args, &pipeline)?;
            let cfg = ExperimentConfig {
                threads: args.threads,
                max_roots: Some(1),
                ..ExperimentConfig::new()
            };
            let result = pipeline.run(cfg, &ds);
            for p in pipeline.analyze(&result, &ds).map_err(|e| e.to_string())? {
                if p.to_string_lossy().contains("granula") {
                    println!("--- {} ---", p.display());
                    print!("{}", std::fs::read_to_string(&p).map_err(|e| e.to_string())?);
                }
            }
        }
        "graphalytics" => {
            let pipeline = pipeline()?;
            let ds = dataset_for(&args, &pipeline)?;
            let cells = graphalytics::run_graphalytics(
                &graphalytics::GRAPHALYTICS_ENGINES,
                &graphalytics::TABLE1_ALGOS,
                &ds,
                args.threads,
            );
            print!(
                "{}",
                graphalytics::format_table(
                    &cells,
                    &graphalytics::GRAPHALYTICS_ENGINES,
                    std::slice::from_ref(&ds.name)
                )
            );
            let html_dir = pipeline.out_dir.join("graphalytics");
            std::fs::create_dir_all(&html_dir).map_err(|e| e.to_string())?;
            for k in graphalytics::GRAPHALYTICS_ENGINES {
                let path = html_dir.join(format!("{}.html", k.name()));
                std::fs::write(&path, graphalytics::html_report(k, &cells))
                    .map_err(|e| e.to_string())?;
                println!("wrote {}", path.display());
            }
        }
        "reproduce" if args.list => {
            for artefact in &reproduce::ARTEFACTS {
                println!("{}", artefact.id);
            }
        }
        "reproduce" => {
            let opts = reproduce::Options {
                full: args.full,
                scale: args.scale,
                threads: args.threads,
                roots: args.roots.unwrap_or(epg_harness::dataset::NUM_ROOTS),
                seed: args.seed,
                out_dir: args.out.clone(),
            };
            reproduce::run(&args.ids, &opts, &mut std::io::stdout().lock())
                .map_err(|e| e.to_string())?;
        }
        "serve" => {
            use epg_engine_api::Engine as _;
            use std::sync::Arc;
            let pipeline = pipeline()?;
            let ds = dataset_for(&args, &pipeline)?;
            let pool = Arc::new(epg_parallel::ThreadPool::new(args.threads));
            // The symmetrized list, as `run` gives GAP: the landmark stage
            // reads d(t, s) as d(s, t), which only an undirected graph makes
            // true.
            let mut engine = epg_engine_gap::GapEngine::new();
            engine.load_edge_list(&ds.symmetric);
            engine.construct(&pool);
            let config = epg_serve::ServeConfig {
                landmarks: args.landmarks.unwrap_or(0),
                ..epg_serve::ServeConfig::default()
            };
            let svc =
                Arc::new(epg_serve::ServeService::new(Arc::new(engine.into_query()), pool, config));
            eprintln!(
                "serving '{}' resident ({} vertices, {} threads); \
                 protocol: bfs S T | sssp S T | pr V | stats | quit",
                ds.name, ds.symmetric.num_vertices, args.threads
            );
            if let Some(addr) = &args.listen {
                let listener = std::net::TcpListener::bind(addr)
                    .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
                eprintln!("listening on {addr} (one session per connection)");
                for conn in listener.incoming() {
                    let stream = conn.map_err(|e| e.to_string())?;
                    let svc = Arc::clone(&svc);
                    std::thread::spawn(move || {
                        let peer = stream
                            .peer_addr()
                            .map(|p| p.to_string())
                            .unwrap_or_else(|_| "?".to_string());
                        let reader = match stream.try_clone() {
                            Ok(s) => std::io::BufReader::new(s),
                            Err(e) => {
                                eprintln!("session {peer}: {e}");
                                return;
                            }
                        };
                        match epg_serve::session::serve_session(&svc, reader, stream) {
                            Ok(s) => eprintln!(
                                "session {peer}: {} request(s), {} answered",
                                s.requests, s.answered
                            ),
                            Err(e) => eprintln!("session {peer}: {e}"),
                        }
                    });
                }
            } else {
                let s = epg_serve::session::serve_session(
                    &svc,
                    std::io::stdin().lock(),
                    std::io::stdout().lock(),
                )
                .map_err(|e| e.to_string())?;
                eprintln!("session over: {} request(s), {} answered", s.requests, s.answered);
            }
        }
        "trace" => match args.subcmd.as_deref() {
            Some("summarize") => {
                let path =
                    args.input.as_ref().ok_or("trace summarize needs --input FILE".to_string())?;
                let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                print!("{}", epg_harness::tracefile::summarize(&text));
            }
            other => {
                return Err(format!(
                    "unknown trace subcommand: {}\n{}",
                    other.unwrap_or(""),
                    usage()
                ))
            }
        },
        "--help" | "help" => println!("{}", usage()),
        other => return Err(format!("unknown command: {other}\n{}", usage())),
    }
    Ok(())
}
