//! Machine-readable findings (`--json`, schema `epg-lint/v1`) and the
//! committed-baseline mode (`--baseline <path>`).
//!
//! The JSON is hand-rolled, like `epg-trace`'s JSONL writer — the
//! workspace vendors no serde. The baseline
//! file is deliberately *not* JSON: it is the human output, one
//! `file:line: [rule] message` finding per line, so `epg lint > lint.baseline`
//! seeds it and `git diff` reviews it. A baseline entry matches a finding
//! on `(file, line, rule)`; when lines shift, regenerate the baseline (the
//! stale entries are reported, and `--strict` turns them into errors, so
//! a baseline can only shrink silently, never rot).

use crate::allowlist::Allow;
use crate::rules::Finding;
use std::fmt::Write as _;

/// Schema identifier embedded in every JSON report.
pub const SCHEMA: &str = "epg-lint/v1";

/// One baseline entry: a finding grandfathered during incremental
/// adoption of a new rule family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Workspace-relative file of the baselined finding.
    pub file: String,
    /// 1-based line of the baselined finding.
    pub line: usize,
    /// Rule id of the baselined finding.
    pub rule: String,
}

impl std::fmt::Display for BaselineEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}]", self.file, self.line, self.rule)
    }
}

/// Parses a baseline file (the human finding format, `#` comments and
/// blank lines ignored).
///
/// # Errors
/// Returns a line-numbered message for lines that do not parse as
/// `file:line: [rule] …` — a corrupt baseline must fail the run rather
/// than silently baseline nothing.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = || format!("baseline:{}: expected `file:line: [rule] …`", idx + 1);
        let open = line.find('[').ok_or_else(err)?;
        let close = line[open..].find(']').ok_or_else(err)? + open;
        let rule = line[open + 1..close].to_string();
        let head = line[..open].trim().trim_end_matches(':');
        let (file, lineno) = head.rsplit_once(':').ok_or_else(err)?;
        let lineno: usize = lineno.trim().parse().map_err(|_| err())?;
        if file.is_empty() || rule.is_empty() {
            return Err(err());
        }
        out.push(BaselineEntry { file: file.to_string(), line: lineno, rule });
    }
    Ok(out)
}

/// Splits `findings` into those not covered by the baseline (still
/// reported) and returns the baseline entries that matched nothing
/// (stale — the debt was paid, so the entry must go).
pub fn apply_baseline(
    findings: Vec<Finding>,
    baseline: &[BaselineEntry],
) -> (Vec<Finding>, Vec<BaselineEntry>) {
    let mut used = vec![false; baseline.len()];
    let kept: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            let hit = baseline
                .iter()
                .position(|b| b.file == f.file && b.line == f.line && b.rule == f.rule);
            match hit {
                Some(i) => {
                    used[i] = true;
                    false
                }
                None => true,
            }
        })
        .collect();
    let stale = baseline.iter().zip(&used).filter(|&(_, &u)| !u).map(|(b, _)| b.clone()).collect();
    (kept, stale)
}

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
pub fn to_json(
    findings: &[Finding],
    stale_allows: &[Allow],
    stale_baseline: &[BaselineEntry],
) -> String {
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
    let _ = writeln!(o, "  ],");
    let _ = writeln!(o, "  \"stale_baseline\": [");
    for (i, b) in stale_baseline.iter().enumerate() {
        let _ = writeln!(
            o,
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\"}}{}",
            json_escape(&b.file),
            b.line,
            json_escape(&b.rule),
            if i + 1 < stale_baseline.len() { "," } else { "" }
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
    fn baseline_round_trips_through_human_output() {
        let f = finding("crates/a/src/x.rs", 12, "phase-purity");
        let text = format!("# seeded\n\n{f}\n");
        let base = parse_baseline(&text).unwrap();
        assert_eq!(
            base,
            vec![BaselineEntry {
                file: "crates/a/src/x.rs".into(),
                line: 12,
                rule: "phase-purity".into()
            }]
        );
        let (kept, stale) = apply_baseline(vec![f], &base);
        assert!(kept.is_empty());
        assert!(stale.is_empty());
    }

    #[test]
    fn unmatched_baseline_entries_are_stale() {
        let base = parse_baseline("crates/a/src/x.rs:9: [layering] old debt\n").unwrap();
        let (kept, stale) =
            apply_baseline(vec![finding("crates/b/src/y.rs", 3, "layering")], &base);
        assert_eq!(kept.len(), 1);
        assert_eq!(stale, base);
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(parse_baseline("not a finding line\n").unwrap_err().contains("baseline:1"));
        assert!(parse_baseline("file.rs:xx: [rule] m\n").is_err());
    }

    #[test]
    fn json_shape_and_escaping() {
        let f = finding("crates/a/src/\"x\".rs", 3, "layering");
        let json = to_json(&[f], &[], &[]);
        assert!(json.contains("\"schema\": \"epg-lint/v1\""));
        assert!(json.contains("\"count\": 1,"));
        assert!(json.contains("\\\"x\\\".rs"));
        assert!(json.contains("\"stale_allowlist\": ["));
        assert!(json.contains("\"stale_baseline\": ["));
    }

    #[test]
    fn empty_report_is_valid_and_stable() {
        let json = to_json(&[], &[], &[]);
        assert!(json.contains("\"count\": 0,"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
