//! Run telemetry files: capturing `*.trace.jsonl` and summarizing it.
//!
//! The runner captures the first observation of every engine × algorithm
//! pair (`Capture`) and drops its JSONL event stream next to the dialect
//! logs. [`summarize`] is the pure renderer behind `epg trace summarize
//! --input FILE`: it parses the stream with the same chatter-tolerant
//! parser the log pipeline uses and prints phase timings, the
//! per-iteration push/pull story, worker utilization, counter totals, and
//! allocation high-water marks.

use crate::logs::LogEntry;
use crate::registry::EngineKind;
use crate::supervise::TrialReport;
use epg_engine_api::{sum_counter_deltas, Algorithm, Phase, Recorder, RecorderCtx, RunRecorder};
use epg_parallel::ThreadPool;
use epg_trace::{jsonl, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Structured telemetry of one engine/algorithm pair (first root, first
/// trial).
pub struct TraceBundle {
    /// Engine.
    pub engine: EngineKind,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Dataset name.
    pub dataset: String,
    /// The recorded event stream (phase spans, iterations, regions,
    /// counter deltas, worker spans, allocation high-water marks).
    pub events: Vec<TraceEvent>,
    /// Events lost to the recorder's ring-buffer cap (oldest dropped).
    pub dropped: u64,
}

/// One trial being recorded: open from [`Capture::start`] (recorder
/// attached to the pool, run phase open) to [`Capture::finish`].
pub(crate) struct Capture<'p> {
    pool: &'p ThreadPool,
    rec: Arc<RunRecorder>,
    /// Where the run phase opened on the trace's clock.
    run_start_ns: u64,
}

impl<'p> Capture<'p> {
    /// Opens a capture for a trial about to run on `pool`. The `setup`
    /// phases (read, construct) happened before any recorder existed;
    /// their spans are reconstructed from the wall clocks so the trace
    /// shows all three phases.
    pub(crate) fn start(pool: &'p ThreadPool, setup: &[LogEntry]) -> Capture<'p> {
        let rec = Arc::new(RunRecorder::new());
        let mut at_ns = 0u64;
        for entry in setup {
            let phase = match entry.phase {
                Phase::ReadFile => "read",
                other => other.label(),
            };
            rec.record(TraceEvent::PhaseStart { phase: phase.into(), at_ns });
            at_ns += (entry.seconds * 1e9) as u64;
            rec.record(TraceEvent::PhaseEnd { phase: phase.into(), at_ns });
        }
        rec.record(TraceEvent::PhaseStart { phase: "run".into(), at_ns });
        pool.set_recorder(Some(rec.clone()));
        Capture { pool, rec, run_start_ns: at_ns }
    }

    /// The capability the trial's `RunParams` carry.
    pub(crate) fn ctx(&self) -> RecorderCtx<'_> {
        RecorderCtx::new(&*self.rec)
    }

    /// Detaches from the pool, closes the run phase with the supervisor's
    /// verdict, flushes the stream to `jsonl` (file-based runs) and hands
    /// it over.
    pub(crate) fn finish(
        self,
        report: &TrialReport,
        engine: EngineKind,
        algorithm: Algorithm,
        dataset: &str,
        jsonl: Option<&Path>,
    ) -> TraceBundle {
        self.pool.set_recorder(None);
        self.rec.record(TraceEvent::PhaseEnd {
            phase: "run".into(),
            at_ns: self.run_start_ns + (report.seconds * 1e9) as u64,
        });
        self.rec.record(TraceEvent::TrialOutcome {
            outcome: report.outcome.label().into(),
            attempts: report.attempts,
        });
        if let Some(path) = jsonl {
            self.rec.write_jsonl(path).ok();
        }
        TraceBundle {
            engine,
            algorithm,
            dataset: dataset.to_string(),
            events: self.rec.events(),
            dropped: self.rec.dropped(),
        }
    }
}

/// Renders a human-readable summary of one JSONL trace stream.
///
/// Deterministic for a given input (workers and allocation labels are
/// sorted), so the output is suitable for golden-file tests.
pub fn summarize(input: &str) -> String {
    let mut parsed = jsonl::parse_jsonl(input);
    // The truncation marker is about the stream, not one of its events.
    let mut dropped = 0u64;
    parsed.events.retain(|ev| match ev {
        TraceEvent::Dropped { events } => {
            dropped += events;
            false
        }
        _ => true,
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace summary: {} events, {} unparseable lines skipped",
        parsed.events.len(),
        parsed.skipped
    );
    if dropped > 0 {
        let _ = writeln!(
            out,
            "TRUNCATED: {dropped} oldest events dropped (the recorder's ring overflowed); \
             every section below covers the surviving tail only"
        );
    }

    // ---- phases: match each end to the most recent unmatched start ----
    let mut open: Vec<(&str, u64)> = Vec::new();
    let mut phases: Vec<(&str, u64)> = Vec::new();
    for ev in &parsed.events {
        match ev {
            TraceEvent::PhaseStart { phase, at_ns } => open.push((phase, *at_ns)),
            TraceEvent::PhaseEnd { phase, at_ns } => {
                if let Some(pos) = open.iter().rposition(|(p, _)| p == phase) {
                    let (p, start) = open.remove(pos);
                    phases.push((p, at_ns.saturating_sub(start)));
                }
            }
            _ => {}
        }
    }
    if !phases.is_empty() {
        let _ = writeln!(out, "\nphases");
        for (phase, ns) in &phases {
            let _ = writeln!(out, "  {:<12} {:>12.6} s", phase, *ns as f64 / 1e9);
        }
    }

    // ---- iterations: a pending "iteration" delta is closed by the next
    // Iteration event (the engines' event-ordering convention) ----
    let mut iter_rows: Vec<String> = Vec::new();
    let mut pending: Option<(u64, u64)> = None; // (edges, vertices)
    for ev in &parsed.events {
        match ev {
            TraceEvent::CountersDelta { region, edges, vertices, .. } if region == "iteration" => {
                pending = Some((*edges, *vertices));
            }
            TraceEvent::Iteration { iter, frontier, dir } => {
                let (edges, vertices) = pending.take().unwrap_or((0, 0));
                iter_rows.push(format!(
                    "  {:>4}  {:<6} {:>12} {:>12} {:>12}",
                    iter,
                    dir.label(),
                    frontier,
                    edges,
                    vertices
                ));
            }
            _ => {}
        }
    }
    if !iter_rows.is_empty() {
        let _ = writeln!(
            out,
            "\niterations\n  {:>4}  {:<6} {:>12} {:>12} {:>12}",
            "iter", "dir", "frontier", "edges", "vertices"
        );
        for row in &iter_rows {
            let _ = writeln!(out, "{row}");
        }
    }

    // ---- counter totals: sum of every delta in the stream ----
    let totals = sum_counter_deltas(&parsed.events);
    let _ = writeln!(
        out,
        "\ncounter totals: edges={} vertices={} bytes_read={} bytes_written={} iterations={}",
        totals.edges_traversed,
        totals.vertices_touched,
        totals.bytes_read,
        totals.bytes_written,
        totals.iterations
    );

    // ---- worker utilization, aggregated over all recorded regions ----
    let mut workers: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for ev in &parsed.events {
        if let TraceEvent::WorkerSpan { worker, busy_ns, idle_ns, .. } = ev {
            let w = workers.entry(*worker).or_insert((0, 0));
            w.0 += busy_ns;
            w.1 += idle_ns;
        }
    }
    if !workers.is_empty() {
        let _ = writeln!(
            out,
            "\nworkers\n  {:>6} {:>12} {:>12} {:>7}",
            "worker", "busy_s", "idle_s", "util%"
        );
        for (worker, (busy, idle)) in &workers {
            let wall = busy + idle;
            let util = if wall == 0 { 100.0 } else { *busy as f64 / wall as f64 * 100.0 };
            let _ = writeln!(
                out,
                "  {:>6} {:>12.6} {:>12.6} {:>7.1}",
                worker,
                *busy as f64 / 1e9,
                *idle as f64 / 1e9,
                util
            );
        }
    }

    // ---- trial outcomes (supervision layer; absent in older traces) ----
    let mut outcome_rows: Vec<String> = Vec::new();
    for ev in &parsed.events {
        if let TraceEvent::TrialOutcome { outcome, attempts } = ev {
            outcome_rows.push(format!("  {outcome:<12} attempts={attempts}"));
        }
    }
    if !outcome_rows.is_empty() {
        let _ = writeln!(out, "\ntrial outcomes");
        for row in &outcome_rows {
            let _ = writeln!(out, "{row}");
        }
    }

    // ---- allocation high-water marks (max per label) ----
    let mut allocs: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in &parsed.events {
        if let TraceEvent::AllocHwm { label, bytes } = ev {
            let e = allocs.entry(label).or_insert(0);
            *e = (*e).max(*bytes);
        }
    }
    if !allocs.is_empty() {
        let _ = writeln!(out, "\nallocation high-water marks");
        for (label, bytes) in &allocs {
            let _ = writeln!(out, "  {label:<28} {bytes:>12} B");
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_trace::{Dir, RunRecorder};

    fn sample_trace() -> String {
        let rec = RunRecorder::new();
        use epg_trace::Recorder;
        rec.record(TraceEvent::PhaseStart { phase: "run".into(), at_ns: 0 });
        rec.record(TraceEvent::AllocHwm { label: "parent".into(), bytes: 1024 });
        rec.record(TraceEvent::Region { work: 100, span: 5, bytes: 800, parallel: true });
        rec.record(TraceEvent::CountersDelta {
            region: "iteration".into(),
            edges: 100,
            vertices: 9,
            bytes_read: 0,
            bytes_written: 0,
            iterations: 1,
        });
        rec.record(TraceEvent::Iteration { iter: 1, frontier: 1, dir: Dir::Push });
        rec.record(TraceEvent::WorkerSpan { region: 0, worker: 0, busy_ns: 900, idle_ns: 100 });
        rec.record(TraceEvent::WorkerSpan { region: 0, worker: 1, busy_ns: 500, idle_ns: 500 });
        rec.record(TraceEvent::CountersDelta {
            region: "finalize".into(),
            edges: 0,
            vertices: 0,
            bytes_read: 1200,
            bytes_written: 108,
            iterations: 0,
        });
        rec.record(TraceEvent::PhaseEnd { phase: "run".into(), at_ns: 2_000_000 });
        rec.record(TraceEvent::TrialOutcome { outcome: "ok".into(), attempts: 1 });
        rec.to_jsonl()
    }

    #[test]
    fn summary_covers_every_section() {
        let text = summarize(&sample_trace());
        assert!(text.contains("trace summary: 10 events, 0 unparseable lines skipped"));
        assert!(text.contains("trial outcomes"));
        assert!(text.contains("ok           attempts=1"));
        assert!(text.contains("phases"));
        assert!(text.contains("run"));
        assert!(text.contains("0.002000 s"));
        assert!(text.contains("push"));
        assert!(text.contains("counter totals: edges=100 vertices=9 bytes_read=1200"));
        assert!(text.contains("workers"));
        assert!(text.contains("90.0"));
        assert!(text.contains("parent"));
        assert!(text.contains("1024"));
    }

    #[test]
    fn an_overflowed_recorder_is_summarized_as_truncated() {
        let full = epg_trace::jsonl::parse_jsonl(&sample_trace()).events;
        let rec = RunRecorder::with_capacity(4);
        for ev in &full {
            epg_trace::Recorder::record(&rec, ev.clone());
        }
        let text = summarize(&rec.to_jsonl());
        assert!(text.contains("trace summary: 4 events, 0 unparseable"), "{text}");
        assert!(text.contains("TRUNCATED: 6 oldest events dropped"), "{text}");
        // The per-iteration delta went with the head: only "finalize" is left.
        assert!(text.contains("counter totals: edges=0 vertices=0 bytes_read=1200"), "{text}");
        assert!(!summarize(&sample_trace()).contains("TRUNCATED"));
    }

    #[test]
    fn chatter_is_counted_not_fatal() {
        let mut input = sample_trace();
        input.push_str("some stray stderr line\n");
        let text = summarize(&input);
        assert!(text.contains("1 unparseable lines skipped"));
    }

    #[test]
    fn empty_input_still_renders_totals() {
        let text = summarize("");
        assert!(text.contains("0 events"));
        assert!(text.contains("counter totals: edges=0"));
    }
}
