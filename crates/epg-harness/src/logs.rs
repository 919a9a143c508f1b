//! Phases 3/4 glue: engine-style log emission and the log parser.
//!
//! The original framework gets its numbers by "parsing log files (for
//! execution time)" with Bash/AWK (§III, §III-E). Each system logs in its
//! own dialect ([`epg_engine_api::logfmt::LogStyle`]); the harness writes
//! those dialect logs from its measured phase times *beside* the CSV — the
//! CSV itself comes straight from the measured records, not from the logs.
//! The parser is the reverse direction, exercised by the round-trip tests
//! (`Pipeline::reparse_logs` and the proptests), which pin that the logs
//! carry the same numbers and survive the chatter lines real logs contain.

use epg_engine_api::logfmt::LogStyle;
use epg_engine_api::Phase;
use std::fmt::Write as _;

/// One timed phase entry destined for a log.
#[derive(Clone, Debug, PartialEq)]
pub struct LogEntry {
    /// Which phase.
    pub phase: Phase,
    /// Measured seconds.
    pub seconds: f64,
}

/// Renders a run's log in the engine's dialect, interleaved with the kind
/// of chatter real logs contain.
pub fn render_log(style: LogStyle, context: &str, entries: &[LogEntry]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== {context} ===");
    match style {
        LogStyle::PowerGraph => {
            let _ = writeln!(out, "INFO:  dc.cpp(init): Cluster of 1 instances created.");
        }
        LogStyle::GraphMat => {
            let _ = writeln!(out, "initialize engine: 8.32081e-05 sec");
        }
        LogStyle::Graph500 => {
            let _ = writeln!(out, "SCALE: parsed from input");
        }
        _ => {}
    }
    for e in entries {
        if let Some(line) = style.format_phase(e.phase, e.seconds, context) {
            let _ = writeln!(out, "{line}");
        }
    }
    if style == LogStyle::GraphMat {
        let _ = writeln!(out, "deinitialize engine: 0.00022006 sec");
    }
    out
}

/// Parses a log back into per-phase totals (multiple lines for one phase
/// accumulate, as GraphMat's multi-algorithm runs do).
pub fn parse_log(style: LogStyle, text: &str) -> Vec<LogEntry> {
    let mut totals: Vec<(Phase, f64)> = Vec::new();
    for line in text.lines() {
        if let Some((phase, secs)) = style.parse_line(line) {
            match totals.iter_mut().find(|(p, _)| *p == phase) {
                Some((_, t)) => *t += secs,
                None => totals.push((phase, secs)),
            }
        }
    }
    totals.into_iter().map(|(phase, seconds)| LogEntry { phase, seconds }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_style() {
        let entries = vec![
            LogEntry { phase: Phase::ReadFile, seconds: 2.65211 },
            LogEntry { phase: Phase::Construct, seconds: 5.91229 },
            LogEntry { phase: Phase::Run, seconds: 0.149445 },
            LogEntry { phase: Phase::Output, seconds: 0.0641179 },
        ];
        for style in [
            LogStyle::Gap,
            LogStyle::Graph500,
            LogStyle::GraphBig,
            LogStyle::GraphMat,
            LogStyle::PowerGraph,
            LogStyle::Generic,
        ] {
            let text = render_log(style, "PageRank on dota-league", &entries);
            let parsed = parse_log(style, &text);
            for want in &entries {
                if style.format_phase(want.phase, 1.0, "x").is_none() {
                    continue; // dialect doesn't log this phase
                }
                let got = parsed
                    .iter()
                    .find(|e| e.phase == want.phase)
                    .unwrap_or_else(|| panic!("{style:?} lost {:?}", want.phase));
                assert!((got.seconds - want.seconds).abs() < 1e-4, "{style:?}");
            }
        }
    }

    #[test]
    fn chatter_is_ignored() {
        let text = "junk line\nINFO: something unrelated 3.4\nTrial Time:          0.5\n";
        let parsed = parse_log(LogStyle::Gap, text);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].phase, Phase::Run);
    }

    #[test]
    fn repeated_phase_lines_accumulate() {
        let text = "Trial Time:          0.5\nTrial Time:          0.25\n";
        let parsed = parse_log(LogStyle::Gap, text);
        assert_eq!(parsed.len(), 1);
        assert!((parsed[0].seconds - 0.75).abs() < 1e-9);
    }
}
