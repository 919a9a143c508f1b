//! The audited-exception allowlist (`epg-lint.toml` at the workspace root).
//!
//! Entries are `[[allow]]` tables; every entry must carry a `reason` so the
//! audit trail lives next to the exception:
//!
//! ```toml
//! [[allow]]
//! file = "crates/epg-foo/src/bar.rs"   # workspace-relative, `/`-separated
//! rule = "unsafe-impl"                 # rule id from the finding
//! contains = "impl Sync for Special"   # optional: substring of the line
//! reason = "audited 2026-08: …"
//!
//! [[allow]]
//! dir = "crates/epg-foo/src/drivers/"  # or a directory prefix scope
//! rule = "timing-discipline"
//! reason = "these drivers are measurement code"
//! ```
//!
//! Exactly one of `file` (exact path) or `dir` (path prefix) scopes each
//! entry. The file is parsed with a purpose-built reader (the environment
//! vendors no toml crate): `[[allow]]` section headers, `key = "value"`
//! pairs, and `#` comments — exactly the subset the format above uses.
//!
//! Entries that silence nothing are *stale*: [`stale`] reports them after a
//! run, and `--strict` (default in CI) turns them into a failure, so the
//! allowlist can only shrink as debts are paid, never rot.

use crate::rules::Finding;

/// One audited exception.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Allow {
    /// Workspace-relative file the exception applies to (exact match).
    /// Empty when the entry is `dir`-scoped.
    pub file: String,
    /// Workspace-relative directory prefix the exception applies to.
    pub dir: Option<String>,
    /// Rule id it silences.
    pub rule: String,
    /// Optional substring the offending source line must contain.
    pub contains: Option<String>,
    /// Why the exception is sound (required, but only by convention —
    /// the parser reports missing reasons as errors).
    pub reason: String,
}

/// Parses allowlist text. Returns the entries or a line-numbered error.
pub fn parse(text: &str) -> Result<Vec<Allow>, String> {
    let mut entries: Vec<Allow> = Vec::new();
    let mut in_entry = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(prev) = entries.last() {
                validate(prev, idx)?;
            }
            entries.push(Allow::default());
            in_entry = true;
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("epg-lint.toml:{}: unknown section {line}", idx + 1));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("epg-lint.toml:{}: expected key = \"value\"", idx + 1));
        };
        if !in_entry {
            return Err(format!("epg-lint.toml:{}: key outside [[allow]] entry", idx + 1));
        }
        let key = key.trim();
        let value = value.trim();
        let Some(value) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
            return Err(format!("epg-lint.toml:{}: value must be double-quoted", idx + 1));
        };
        let entry = entries.last_mut().expect("in_entry implies an open entry");
        match key {
            "file" => entry.file = value.to_string(),
            "dir" => entry.dir = Some(value.to_string()),
            "rule" => entry.rule = value.to_string(),
            "contains" => entry.contains = Some(value.to_string()),
            "reason" => entry.reason = value.to_string(),
            other => {
                return Err(format!("epg-lint.toml:{}: unknown key {other}", idx + 1));
            }
        }
    }
    if let Some(prev) = entries.last() {
        validate(prev, text.lines().count())?;
    }
    Ok(entries)
}

fn validate(entry: &Allow, end_line: usize) -> Result<(), String> {
    match (&entry.file.is_empty(), &entry.dir) {
        (true, None) => {
            return Err(format!(
                "epg-lint.toml: entry before line {end_line} needs `file` or `dir`"
            ));
        }
        (false, Some(_)) => {
            return Err(format!(
                "epg-lint.toml: entry before line {end_line} has both `file` and `dir`; pick one"
            ));
        }
        _ => {}
    }
    if entry.rule.is_empty() {
        return Err(format!("epg-lint.toml: entry before line {end_line} needs a rule"));
    }
    if entry.reason.is_empty() {
        return Err(format!(
            "epg-lint.toml: entry for {}/{} has no reason; audited exceptions must say why",
            if entry.file.is_empty() { entry.dir.as_deref().unwrap_or("") } else { &entry.file },
            entry.rule
        ));
    }
    Ok(())
}

/// The index of the first entry covering `finding`, or `None`.
/// `line_text` is the offending source (or manifest) line, used for
/// `contains` matching.
pub fn match_allow(allows: &[Allow], finding: &Finding, line_text: &str) -> Option<usize> {
    let file = finding.file.replace('\\', "/");
    allows.iter().position(|a| {
        let scope_ok = if !a.file.is_empty() {
            a.file == file
        } else {
            a.dir.as_deref().is_some_and(|d| file.starts_with(d))
        };
        scope_ok
            && a.rule == finding.rule
            && a.contains.as_deref().is_none_or(|needle| line_text.contains(needle))
    })
}

/// The entries whose index never appeared in `used` — exceptions that no
/// longer silence anything and should be deleted.
pub fn stale(allows: &[Allow], used: &[bool]) -> Vec<Allow> {
    allows
        .iter()
        .enumerate()
        .filter(|&(i, _)| !used.get(i).copied().unwrap_or(false))
        .map(|(_, a)| a.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, rule: &'static str) -> Finding {
        Finding { file: file.into(), line: 1, rule, message: String::new() }
    }

    #[test]
    fn parses_entries_and_comments() {
        let text = "# header comment\n\n[[allow]]\nfile = \"crates/a/src/x.rs\" # trailing\nrule = \"unsafe-impl\"\nreason = \"audited\"\n\n[[allow]]\nfile = \"crates/b/src/y.rs\"\nrule = \"static-mut\"\ncontains = \"LEGACY\"\nreason = \"pre-existing\"\n";
        let allows = parse(text).unwrap();
        assert_eq!(allows.len(), 2);
        assert_eq!(allows[0].file, "crates/a/src/x.rs");
        assert_eq!(allows[1].contains.as_deref(), Some("LEGACY"));
    }

    #[test]
    fn empty_file_is_empty_allowlist() {
        assert_eq!(parse("# only comments\n").unwrap(), Vec::new());
    }

    #[test]
    fn missing_reason_is_an_error() {
        let text = "[[allow]]\nfile = \"a.rs\"\nrule = \"static-mut\"\n";
        assert!(parse(text).unwrap_err().contains("reason"));
    }

    #[test]
    fn missing_scope_is_an_error() {
        let text = "[[allow]]\nrule = \"static-mut\"\nreason = \"r\"\n";
        assert!(parse(text).unwrap_err().contains("`file` or `dir`"));
    }

    #[test]
    fn file_and_dir_together_is_an_error() {
        let text = "[[allow]]\nfile = \"a.rs\"\ndir = \"crates/\"\nrule = \"x\"\nreason = \"r\"\n";
        assert!(parse(text).unwrap_err().contains("pick one"));
    }

    #[test]
    fn unknown_key_is_an_error() {
        let text = "[[allow]]\nfile = \"a.rs\"\nrule = \"x\"\nreason = \"y\"\nlines = \"3\"\n";
        assert!(parse(text).unwrap_err().contains("unknown key"));
    }

    #[test]
    fn matching_silences_findings() {
        let allows = parse(
            "[[allow]]\nfile = \"crates/a/src/x.rs\"\nrule = \"static-mut\"\ncontains = \"AUDITED\"\nreason = \"r\"\n",
        )
        .unwrap();
        let f = finding("crates/a/src/x.rs", "static-mut");
        assert_eq!(match_allow(&allows, &f, "static mut X: u8 = 0; // AUDITED"), Some(0));
        assert_eq!(match_allow(&allows, &f, "static mut Y: u8 = 0;"), None, "contains gates");
        let other_rule = finding("crates/a/src/x.rs", "unsafe-impl");
        assert_eq!(match_allow(&allows, &other_rule, "// AUDITED"), None, "rule must match");
    }

    #[test]
    fn dir_scope_matches_by_prefix() {
        let allows = parse(
            "[[allow]]\ndir = \"crates/epg-bench/\"\nrule = \"timing-discipline\"\nreason = \"bench drivers measure\"\n",
        )
        .unwrap();
        let inside = finding("crates/epg-bench/src/bin/ablation.rs", "timing-discipline");
        let outside = finding("crates/epg-graph/src/lib.rs", "timing-discipline");
        assert_eq!(match_allow(&allows, &inside, "Instant::now()"), Some(0));
        assert_eq!(match_allow(&allows, &outside, "Instant::now()"), None);
    }

    #[test]
    fn stale_reports_unused_entries() {
        let allows = parse(
            "[[allow]]\nfile = \"a.rs\"\nrule = \"x\"\nreason = \"r\"\n\n[[allow]]\nfile = \"b.rs\"\nrule = \"y\"\nreason = \"r\"\n",
        )
        .unwrap();
        let s = stale(&allows, &[true, false]);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].file, "b.rs");
    }
}
