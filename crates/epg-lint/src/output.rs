//! Machine-readable findings (`--json`, schema `epg-lint/v1`).
//!
//! The JSON is hand-rolled, like `epg-trace`'s JSONL writer — the
//! workspace vendors no serde.

use crate::allowlist::Allow;
use crate::rules::Finding;
use std::fmt::Write as _;

/// Schema identifier embedded in every JSON report.
pub const SCHEMA: &str = "epg-lint/v1";

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Renders findings plus staleness diagnostics as `epg-lint/v1` JSON.
pub fn to_json(findings: &[Finding], stale_allows: &[Allow]) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "{{");
    let _ = writeln!(o, "  \"schema\": \"{}\",", json_escape(SCHEMA));
    let _ = writeln!(o, "  \"count\": {},", findings.len());
    let _ = writeln!(o, "  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let _ = writeln!(
            o,
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}",
            json_escape(&f.file),
            f.line,
            json_escape(f.rule),
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        );
    }
    let _ = writeln!(o, "  ],");
    let _ = writeln!(o, "  \"stale_allowlist\": [");
    for (i, a) in stale_allows.iter().enumerate() {
        let scope = match (&a.file.is_empty(), &a.dir) {
            (false, _) => format!("\"file\": \"{}\"", json_escape(&a.file)),
            (true, Some(d)) => format!("\"dir\": \"{}\"", json_escape(d)),
            (true, None) => "\"file\": \"\"".to_string(),
        };
        let _ = writeln!(
            o,
            "    {{{scope}, \"rule\": \"{}\", \"reason\": \"{}\"}}{}",
            json_escape(&a.rule),
            json_escape(&a.reason),
            if i + 1 < stale_allows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(o, "  ]");
    let _ = writeln!(o, "}}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: usize, rule: &'static str) -> Finding {
        Finding { file: file.into(), line, rule, message: format!("msg for {rule}") }
    }

    #[test]
    fn json_shape_and_escaping() {
        let f = finding("crates/a/src/\"x\".rs", 3, "layering");
        let json = to_json(&[f], &[]);
        assert!(json.contains("\"schema\": \"epg-lint/v1\""));
        assert!(json.contains("\"count\": 1,"));
        assert!(json.contains("\\\"x\\\".rs"));
        assert!(json.contains("\"stale_allowlist\": ["));
    }

    #[test]
    fn empty_report_is_valid_and_stable() {
        let json = to_json(&[], &[]);
        assert!(json.contains("\"count\": 0,"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
