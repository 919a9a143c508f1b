//! The client session: a line protocol over any reader/writer pair.
//!
//! One session serves one client. Requests are single lines —
//!
//! ```text
//! bfs <source> <target>     hop distance
//! sssp <source> <target>    weighted shortest-path distance
//! pr <vertex>               PageRank rank
//! stats                     one-line counter snapshot, resident bytes too
//! quit                      end the session
//! ```
//!
//! — and every request gets exactly one response line: `ok <value>
//! path=<label>` for answers (`inf` when unreachable), `err <reason>`
//! for anything else, so a client can drive the service with `nc` or a
//! pipe. The `epg serve` CLI binds sessions to stdio or to accepted TCP
//! connections (thread-per-connection; the [`crate::ServeService`] is
//! shared, so one session's finished traversals answer every other
//! session's queries from the source cache).

use crate::service::{PointQuery, ServeService};
use std::io::{self, BufRead, Write};

/// What one session did, for the CLI's goodbye line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionSummary {
    /// Point queries received (well-formed or not).
    pub requests: u64,
    /// Requests answered with `ok`.
    pub answered: u64,
}

/// One parsed request line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Command {
    Query(PointQuery),
    Stats,
    Quit,
}

fn parse_vertex(tok: Option<&str>) -> Result<u32, String> {
    let tok = tok.ok_or("missing vertex id")?;
    tok.parse::<u32>().map_err(|_| format!("bad vertex id {tok:?}"))
}

fn parse_command(line: &str) -> Result<Command, String> {
    let mut toks = line.split_whitespace();
    let cmd = toks.next().ok_or("empty request")?;
    let parsed = match cmd {
        "bfs" => Command::Query(PointQuery::BfsDist {
            source: parse_vertex(toks.next())?,
            target: parse_vertex(toks.next())?,
        }),
        "sssp" => Command::Query(PointQuery::SsspDist {
            source: parse_vertex(toks.next())?,
            target: parse_vertex(toks.next())?,
        }),
        "pr" => Command::Query(PointQuery::PrRank { vertex: parse_vertex(toks.next())? }),
        "stats" => Command::Stats,
        "quit" | "exit" => Command::Quit,
        other => return Err(format!("unknown command {other:?} (bfs/sssp/pr/stats/quit)")),
    };
    if toks.next().is_some() {
        return Err(format!("trailing arguments after {cmd:?}"));
    }
    Ok(parsed)
}

/// Renders an answer value: finite distances and ranks print plainly,
/// unreachable prints `inf`.
fn render_value(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Runs one session to completion: EOF or `quit` ends it. Every
/// request line produces exactly one response line, flushed.
pub fn serve_session<R: BufRead, W: Write>(
    service: &ServeService,
    input: R,
    mut output: W,
) -> io::Result<SessionSummary> {
    let mut summary = SessionSummary::default();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_command(&line) {
            Ok(Command::Quit) => break,
            Ok(Command::Stats) => {
                let s = service.stats();
                writeln!(
                    output,
                    "ok stats submitted={} answered={} rejected={} dnf={} failed={} \
                     exact={} cached={} landmark={} cache_hits={} cache_misses={} \
                     cache_bytes={} landmark_bytes={}",
                    s.submitted,
                    s.answered,
                    s.rejected,
                    s.dnf,
                    s.failed,
                    s.exact,
                    s.cached,
                    s.landmark,
                    s.cache.hits,
                    s.cache.misses,
                    s.cache.resident_bytes,
                    s.landmark_bytes,
                )?;
            }
            Ok(Command::Query(q)) => {
                summary.requests += 1;
                match service.answer(&q) {
                    Ok(a) => {
                        summary.answered += 1;
                        writeln!(output, "ok {} path={}", render_value(a.value), a.path.label())?;
                    }
                    Err(e) => writeln!(output, "err {e}")?,
                }
            }
            Err(reason) => {
                summary.requests += 1;
                writeln!(output, "err {reason}")?;
            }
        }
        output.flush()?;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use epg_engine_api::{
        Algorithm, AlgorithmResult, EngineInfo, QueryEngine, RunOutput, RunParams,
    };
    use epg_graph::VertexId;
    use epg_parallel::ThreadPool;
    use std::io::Cursor;
    use std::sync::Arc;

    struct Ring {
        n: usize,
    }

    impl QueryEngine for Ring {
        fn info(&self) -> EngineInfo {
            EngineInfo {
                name: "ring-mock",
                representation: "closed form",
                parallelism: "none",
                distributed_capable: false,
                requires_proprietary_compiler: false,
            }
        }

        fn supports(&self, algo: Algorithm) -> bool {
            matches!(algo, Algorithm::Bfs | Algorithm::PageRank)
        }

        fn num_vertices(&self) -> usize {
            self.n
        }

        fn out_degree(&self, _v: VertexId) -> usize {
            2
        }

        fn query(&self, algo: Algorithm, params: &RunParams<'_>) -> RunOutput {
            let root = params.root.unwrap_or(0);
            let result = match algo {
                Algorithm::Bfs => AlgorithmResult::BfsTree {
                    parent: vec![0; self.n],
                    level: (0..self.n as u32)
                        .map(|v| v.abs_diff(root).min(self.n as u32 - v.abs_diff(root)))
                        .collect(),
                },
                Algorithm::PageRank => AlgorithmResult::Ranks {
                    ranks: vec![1.0 / self.n as f64; self.n],
                    iterations: 1,
                },
                _ => unreachable!(),
            };
            RunOutput::new(result, Default::default(), Default::default())
        }
    }

    fn session_over(input: &str) -> (String, SessionSummary) {
        let svc = ServeService::new(
            Arc::new(Ring { n: 8 }),
            Arc::new(ThreadPool::new(1)),
            ServeConfig::default(),
        );
        let mut out = Vec::new();
        let summary = serve_session(&svc, Cursor::new(input.as_bytes()), &mut out).unwrap();
        (String::from_utf8(out).unwrap(), summary)
    }

    #[test]
    fn every_request_gets_exactly_one_response_line() {
        let (out, summary) = session_over("bfs 0 3\nbfs 0 4\npr 2\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "ok 3 path=exact");
        assert_eq!(lines[1], "ok 4 path=cached", "same source served from cache");
        assert_eq!(lines[2], "ok 0.125 path=exact");
        assert_eq!(summary, SessionSummary { requests: 3, answered: 3 });
    }

    #[test]
    fn errors_are_reported_inline_and_do_not_end_the_session() {
        let (out, summary) =
            session_over("bfs 0 99\nsssp 0 1\nfly 1 2\nbfs zero 1\nbfs 1\nbfs 1 2\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("err vertex 99 out of range"));
        assert!(lines[1].starts_with("err unsupported algorithm SSSP"));
        assert!(lines[2].starts_with("err unknown command \"fly\""));
        assert!(lines[3].starts_with("err bad vertex id"));
        assert!(lines[4].starts_with("err missing vertex id"));
        assert!(lines[5].starts_with("ok 1 path="), "session survives errors");
        assert_eq!(summary.requests, 6);
        assert_eq!(summary.answered, 1);
    }

    #[test]
    fn quit_and_blank_lines_behave() {
        let (out, summary) = session_over("\n   \nbfs 0 0\nquit\nbfs 0 1\n");
        assert_eq!(out.lines().count(), 1, "nothing after quit is served");
        assert_eq!(summary, SessionSummary { requests: 1, answered: 1 });
    }

    #[test]
    fn stats_line_reflects_the_counters() {
        let (out, _) = session_over("bfs 0 1\nbfs 0 2\nstats\n");
        let stats_line = out.lines().nth(2).unwrap();
        assert!(stats_line.starts_with("ok stats submitted=2 answered=2"));
        assert!(stats_line.contains("cached=1"));
        // Source 0's eight levels are cached; the session runs no landmarks.
        assert!(stats_line.ends_with(" cache_bytes=32 landmark_bytes=0"), "{stats_line}");
    }

    #[test]
    fn unreachable_prints_inf_and_trailing_args_are_rejected() {
        assert!(render_value(f64::INFINITY) == "inf");
        assert_eq!(render_value(2.5), "2.5");
        assert_eq!(parse_command("pr 1 2"), Err("trailing arguments after \"pr\"".to_string()));
    }
}
