//! The JSONL trace format: one flat JSON object per line, written next
//! to the harness's dialect logs as `*.trace.jsonl`.
//!
//! Like the dialect parsers in `epg-harness::logs`, the reader is
//! hardened against real log files: blank lines are ignored, chatter
//! lines that are not trace events are skipped (and counted), and a
//! truncated final line — a run killed mid-flush — parses to the events
//! before it. The encoder emits only strings, unsigned integers, and
//! booleans, so `render` ∘ `parse` is the identity on every event.

use crate::{Dir, TraceEvent};
use std::fmt::Write as _;

/// Discriminator key present on every line.
const EV_KEY: &str = "ev";

// ------------------------------------------------------------- render ----

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn field_str(out: &mut String, key: &str, val: &str) {
    out.push(',');
    push_json_string(out, key);
    out.push(':');
    push_json_string(out, val);
}

fn field_u64(out: &mut String, key: &str, val: u64) {
    out.push(',');
    push_json_string(out, key);
    let _ = write!(out, ":{val}");
}

fn field_bool(out: &mut String, key: &str, val: bool) {
    out.push(',');
    push_json_string(out, key);
    let _ = write!(out, ":{val}");
}

/// Renders one event as a single JSON line (no trailing newline).
pub fn render_event(ev: &TraceEvent) -> String {
    let mut out = String::from("{");
    push_json_string(&mut out, EV_KEY);
    out.push(':');
    match ev {
        TraceEvent::PhaseStart { phase, at_ns } => {
            push_json_string(&mut out, "phase_start");
            field_str(&mut out, "phase", phase);
            field_u64(&mut out, "at_ns", *at_ns);
        }
        TraceEvent::PhaseEnd { phase, at_ns } => {
            push_json_string(&mut out, "phase_end");
            field_str(&mut out, "phase", phase);
            field_u64(&mut out, "at_ns", *at_ns);
        }
        TraceEvent::Iteration { iter, frontier, dir } => {
            push_json_string(&mut out, "iter");
            field_u64(&mut out, "iter", *iter as u64);
            field_u64(&mut out, "frontier", *frontier);
            field_str(&mut out, "dir", dir.label());
        }
        TraceEvent::Region { work, span, bytes, parallel } => {
            push_json_string(&mut out, "region");
            field_u64(&mut out, "work", *work);
            field_u64(&mut out, "span", *span);
            field_u64(&mut out, "bytes", *bytes);
            field_bool(&mut out, "parallel", *parallel);
        }
        TraceEvent::CountersDelta {
            region,
            edges,
            vertices,
            bytes_read,
            bytes_written,
            iterations,
        } => {
            push_json_string(&mut out, "counters");
            field_str(&mut out, "region", region);
            field_u64(&mut out, "edges", *edges);
            field_u64(&mut out, "vertices", *vertices);
            field_u64(&mut out, "bytes_read", *bytes_read);
            field_u64(&mut out, "bytes_written", *bytes_written);
            field_u64(&mut out, "iterations", *iterations as u64);
        }
        TraceEvent::WorkerSpan { region, worker, busy_ns, idle_ns } => {
            push_json_string(&mut out, "worker");
            field_u64(&mut out, "region", *region);
            field_u64(&mut out, "worker", *worker as u64);
            field_u64(&mut out, "busy_ns", *busy_ns);
            field_u64(&mut out, "idle_ns", *idle_ns);
        }
        TraceEvent::AllocHwm { label, bytes } => {
            push_json_string(&mut out, "alloc");
            field_str(&mut out, "label", label);
            field_u64(&mut out, "bytes", *bytes);
        }
        TraceEvent::TrialOutcome { outcome, attempts } => {
            push_json_string(&mut out, "trial");
            field_str(&mut out, "outcome", outcome);
            field_u64(&mut out, "attempts", *attempts as u64);
        }
        TraceEvent::Query { algo, path, latency_ns, ok } => {
            push_json_string(&mut out, "query");
            field_str(&mut out, "algo", algo);
            field_str(&mut out, "path", path);
            field_u64(&mut out, "latency_ns", *latency_ns);
            field_bool(&mut out, "ok", *ok);
        }
        TraceEvent::Dropped { events } => {
            push_json_string(&mut out, "dropped");
            field_u64(&mut out, "events", *events);
        }
    }
    out.push('}');
    out
}

/// Renders a whole event sequence as JSONL text.
pub fn render_jsonl<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&render_event(ev));
        out.push('\n');
    }
    out
}

// -------------------------------------------------------------- parse ----

#[derive(Debug, PartialEq)]
enum Val {
    Str(String),
    U64(u64),
    Bool(bool),
}

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(s: &'a str) -> Scanner<'a> {
        Scanner { bytes: s.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match b {
                b'"' => return Some(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                // Multi-byte UTF-8 continuation: copy the raw bytes of
                // one char.
                b if b < 0x80 => out.push(b as char),
                b => {
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let chunk = self.bytes.get(start..start + len)?;
                    out.push_str(std::str::from_utf8(chunk).ok()?);
                    self.pos = start + len;
                }
            }
        }
    }

    fn value(&mut self) -> Option<Val> {
        match self.peek()? {
            b'"' => self.string().map(Val::Str),
            b't' => {
                self.literal(b"true")?;
                Some(Val::Bool(true))
            }
            b'f' => {
                self.literal(b"false")?;
                Some(Val::Bool(false))
            }
            b'0'..=b'9' => {
                let start = self.pos;
                while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos]).ok()?.parse().ok().map(Val::U64)
            }
            _ => None,
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Option<()> {
        self.skip_ws();
        if self.bytes.get(self.pos..self.pos + lit.len()) == Some(lit) {
            self.pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    /// Parses a flat `{"k": v, ...}` object covering the whole line.
    fn object(&mut self) -> Option<Vec<(String, Val)>> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                let key = self.string()?;
                self.eat(b':')?;
                let val = self.value()?;
                fields.push((key, val));
                match self.peek()? {
                    b',' => {
                        self.pos += 1;
                    }
                    b'}' => {
                        self.pos += 1;
                        break;
                    }
                    _ => return None,
                }
            }
        }
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Some(fields)
        } else {
            None
        }
    }
}

fn get_str<'a>(fields: &'a [(String, Val)], key: &str) -> Option<&'a str> {
    fields.iter().find_map(|(k, v)| match v {
        Val::Str(s) if k == key => Some(s.as_str()),
        _ => None,
    })
}

fn get_u64(fields: &[(String, Val)], key: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| match v {
        Val::U64(n) if k == key => Some(*n),
        _ => None,
    })
}

fn get_bool(fields: &[(String, Val)], key: &str) -> Option<bool> {
    fields.iter().find_map(|(k, v)| match v {
        Val::Bool(b) if k == key => Some(*b),
        _ => None,
    })
}

/// Parses one line; `None` for anything that is not a complete trace
/// event (chatter, truncation, unknown event kinds).
pub fn parse_line(line: &str) -> Option<TraceEvent> {
    let fields = Scanner::new(line.trim()).object()?;
    let kind = get_str(&fields, EV_KEY)?;
    match kind {
        "phase_start" => Some(TraceEvent::PhaseStart {
            phase: get_str(&fields, "phase")?.to_string(),
            at_ns: get_u64(&fields, "at_ns")?,
        }),
        "phase_end" => Some(TraceEvent::PhaseEnd {
            phase: get_str(&fields, "phase")?.to_string(),
            at_ns: get_u64(&fields, "at_ns")?,
        }),
        "iter" => Some(TraceEvent::Iteration {
            iter: u32::try_from(get_u64(&fields, "iter")?).ok()?,
            frontier: get_u64(&fields, "frontier")?,
            dir: Dir::from_label(get_str(&fields, "dir")?)?,
        }),
        "region" => Some(TraceEvent::Region {
            work: get_u64(&fields, "work")?,
            span: get_u64(&fields, "span")?,
            bytes: get_u64(&fields, "bytes")?,
            parallel: get_bool(&fields, "parallel")?,
        }),
        "counters" => Some(TraceEvent::CountersDelta {
            region: get_str(&fields, "region")?.to_string(),
            edges: get_u64(&fields, "edges")?,
            vertices: get_u64(&fields, "vertices")?,
            bytes_read: get_u64(&fields, "bytes_read")?,
            bytes_written: get_u64(&fields, "bytes_written")?,
            iterations: u32::try_from(get_u64(&fields, "iterations")?).ok()?,
        }),
        "worker" => Some(TraceEvent::WorkerSpan {
            region: get_u64(&fields, "region")?,
            worker: u32::try_from(get_u64(&fields, "worker")?).ok()?,
            busy_ns: get_u64(&fields, "busy_ns")?,
            idle_ns: get_u64(&fields, "idle_ns")?,
        }),
        "alloc" => Some(TraceEvent::AllocHwm {
            label: get_str(&fields, "label")?.to_string(),
            bytes: get_u64(&fields, "bytes")?,
        }),
        "trial" => Some(TraceEvent::TrialOutcome {
            outcome: get_str(&fields, "outcome")?.to_string(),
            attempts: u32::try_from(get_u64(&fields, "attempts")?).ok()?,
        }),
        "query" => Some(TraceEvent::Query {
            algo: get_str(&fields, "algo")?.to_string(),
            path: get_str(&fields, "path")?.to_string(),
            latency_ns: get_u64(&fields, "latency_ns")?,
            ok: get_bool(&fields, "ok")?,
        }),
        "dropped" => Some(TraceEvent::Dropped { events: get_u64(&fields, "events")? }),
        _ => None,
    }
}

/// Result of parsing a JSONL trace file.
#[derive(Debug, Default, PartialEq)]
pub struct Parsed {
    /// Successfully decoded events, file order.
    pub events: Vec<TraceEvent>,
    /// Non-blank lines that were not trace events (chatter or a
    /// truncated tail).
    pub skipped: usize,
}

/// Parses JSONL text, tolerating interleaved chatter and truncation.
pub fn parse_jsonl(text: &str) -> Parsed {
    let mut parsed = Parsed::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Some(ev) => parsed.events.push(ev),
            None => parsed.skipped += 1,
        }
    }
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PhaseStart { phase: "read_file".into(), at_ns: 0 },
            TraceEvent::PhaseEnd { phase: "read_file".into(), at_ns: 31_250_000 },
            TraceEvent::Region { work: 12, span: 3, bytes: 96, parallel: false },
            TraceEvent::CountersDelta {
                region: "finalize".into(),
                edges: 0,
                vertices: 0,
                bytes_read: 4096,
                bytes_written: 512,
                iterations: 7,
            },
            TraceEvent::Iteration { iter: 3, frontier: 250, dir: Dir::Pull },
            TraceEvent::WorkerSpan { region: 42, worker: 0, busy_ns: 12345, idle_ns: 678 },
            TraceEvent::AllocHwm { label: "pr.next \"ranks\"".into(), bytes: u64::MAX },
            TraceEvent::TrialOutcome { outcome: "timeout".into(), attempts: 2 },
            TraceEvent::Query {
                algo: "SSSP".into(),
                path: "batched".into(),
                latency_ns: 48_000,
                ok: true,
            },
            TraceEvent::Dropped { events: 65_536 },
        ]
    }

    #[test]
    fn every_kind_roundtrips() {
        for ev in all_kinds() {
            let line = render_event(&ev);
            assert_eq!(parse_line(&line), Some(ev.clone()), "line: {line}");
        }
    }

    #[test]
    fn whole_file_roundtrips() {
        let text = render_jsonl(&all_kinds());
        let parsed = parse_jsonl(&text);
        assert_eq!(parsed.events, all_kinds());
        assert_eq!(parsed.skipped, 0);
    }

    #[test]
    fn chatter_is_skipped_not_fatal() {
        let mut text = String::from("starting up...\n\n");
        text.push_str(&render_event(&all_kinds()[4]));
        text.push_str("\nWARN something unrelated\n{\"ev\":\"mystery\",\"x\":1}\n");
        let parsed = parse_jsonl(&text);
        assert_eq!(parsed.events, vec![all_kinds()[4].clone()]);
        assert_eq!(parsed.skipped, 3, "two chatter lines + one unknown event");
    }

    #[test]
    fn truncated_tail_parses_prefix() {
        let text = render_jsonl(&all_kinds());
        let cut = text.len() - 17; // mid final line
        let parsed = parse_jsonl(&text[..cut]);
        assert_eq!(parsed.events, all_kinds()[..9].to_vec());
        assert_eq!(parsed.skipped, 1);
    }

    #[test]
    fn escapes_survive() {
        let ev = TraceEvent::AllocHwm { label: "a\"b\\c\nd\te\u{1}ü".into(), bytes: 1 };
        let line = render_event(&ev);
        assert_eq!(parse_line(&line), Some(ev));
    }

    #[test]
    fn rejects_non_objects_and_garbage_values() {
        assert_eq!(parse_line(""), None);
        assert_eq!(parse_line("[1,2]"), None);
        assert_eq!(parse_line("{\"ev\":\"iter\",\"iter\":-3}"), None);
        assert_eq!(parse_line("{\"ev\":\"iter\"}"), None);
        assert_eq!(parse_line("{\"ev\":\"region\",\"work\":1,\"span\":1,\"bytes\":1}"), None);
    }
}
