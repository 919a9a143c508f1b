//! Property tests for the lexical scanner: lint keywords planted inside
//! string literals, char literals, doc comments, and (nested) block
//! comments must never be misattributed — strings never leak into the
//! comment channel, comments never leak into the code channel, and the
//! rules see none of it. The dual property also holds: a real `unsafe`
//! block stays flaggable no matter how much comment/string noise
//! surrounds it.

use epg_lint::model::FileModel;
use epg_lint::rules::{check_file, Finding};
use epg_lint::scan::{scan, token_offsets, Line};
use proptest::prelude::*;

/// The line rules over one file's scan.
fn lint(path: &str, lines: &[Line]) -> Vec<Finding> {
    check_file(&FileModel::build(path.to_string(), lines.to_vec(), false))
}

fn has_word(text: &str, word: &str) -> bool {
    token_offsets(text, word).next().is_some()
}

/// Keywords every rule keys on; planting any of them in a non-code
/// position must be invisible to the rules.
fn keyword() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("unsafe"),
        Just("unsafe impl Sync for X {}"),
        Just("static mut G: u32 = 0;"),
        Just("compare_exchange(0, 1, Ordering::Relaxed, Ordering::SeqCst)"),
        Just("SAFETY: totally fine"),
        Just("*mut f64"),
    ]
}

fn ident() -> impl Strategy<Value = String> {
    "[a-z]{1,8}"
}

/// Keywords safe to plant in comment-noise: everything except "SAFETY:",
/// which would legitimately satisfy the safety-comment rule for an
/// `unsafe` on the next line.
fn comment_safe_keyword() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("unsafe"),
        Just("unsafe impl Sync for X {}"),
        Just("static mut G: u32 = 0;"),
        Just("compare_exchange(0, 1, Ordering::Relaxed, Ordering::SeqCst)"),
        Just("*mut f64"),
    ]
}

/// One source line that buries `payload` somewhere no rule may look.
fn noise_line() -> impl Strategy<Value = String> {
    (keyword(), comment_safe_keyword(), ident(), 0usize..3).prop_map(
        |(payload, comment_payload, name, kind)| match kind {
            // Plain string literal.
            0 => format!("let {name} = \"{payload}\";"),
            // Raw string literal (payload may contain quotes-free text only,
            // which all keyword() variants satisfy).
            1 => format!("let {name} = r#\"{payload}\"#;"),
            // Line comment that is NOT a SAFETY comment.
            _ => format!("let {name} = 0; // note: {comment_payload}"),
        },
    )
}

/// A block comment spanning `depth` nested levels with keywords inside.
fn nested_block_comment() -> impl Strategy<Value = String> {
    (keyword(), 1usize..4).prop_map(|(payload, depth)| {
        let open = "/*".repeat(depth);
        let close = "*/".repeat(depth);
        format!("{open} {payload}\n still commented {payload} {close}")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn keywords_in_strings_never_reach_rules(lines in proptest::collection::vec(noise_line(), 1..12)) {
        let src = lines.join("\n");
        let scanned = scan(&src);
        prop_assert_eq!(scanned.len(), lines.len(), "scanner must preserve line count");
        for line in &scanned {
            // String contents are blanked: no keyword survives in code...
            prop_assert!(!has_word(&line.code, "unsafe"), "unsafe leaked into code: {:?}", line);
            prop_assert!(!line.code.contains("compare_exchange"), "CAS leaked into code: {:?}", line);
            prop_assert!(!line.code.contains("*mut"), "*mut leaked into code: {:?}", line);
            // ...and string contents never masquerade as comments.
            prop_assert!(!line.comment.contains("totally fine") || line.code.trim_end().ends_with("0;"),
                "string payload leaked into comment channel: {:?}", line);
        }
        prop_assert!(lint("noise.rs", &scanned).is_empty(),
            "noise-only file produced findings: {:?}", lint("noise.rs", &scanned));
    }

    #[test]
    fn nested_block_comments_stay_comments(blocks in proptest::collection::vec(nested_block_comment(), 1..5)) {
        let src = blocks.join("\n");
        let scanned = scan(&src);
        for line in &scanned {
            prop_assert!(!has_word(&line.code, "unsafe"), "unsafe leaked out of a block comment: {:?}", line);
            prop_assert!(!has_word(&line.code, "static"), "static leaked out of a block comment: {:?}", line);
        }
        prop_assert!(lint("blocks.rs", &scanned).is_empty());
    }

    #[test]
    fn doc_comments_are_comment_only(payload in keyword(), name in ident()) {
        let src = format!("/// {payload}\n//! {payload}\nfn {name}() {{}}\n");
        let scanned = scan(&src);
        prop_assert!(!has_word(&scanned[0].code, "unsafe"));
        prop_assert!(!has_word(&scanned[1].code, "unsafe"));
        prop_assert!(scanned[0].comment.contains(payload) || scanned[1].comment.contains(payload));
        prop_assert!(lint("docs.rs", &scanned).is_empty());
    }

    #[test]
    fn real_unsafe_is_still_flagged_through_noise(before in proptest::collection::vec(noise_line(), 0..6),
                                                  after in proptest::collection::vec(noise_line(), 0..6)) {
        // Noise lines above and below must neither hide the violation nor
        // satisfy its SAFETY requirement (noise comments say "note:", not
        // "SAFETY:").
        let mut lines = before.clone();
        lines.push("fn f(p: *mut u8) { unsafe { *p = 1 } }".to_string());
        lines.extend(after.clone());
        let src = lines.join("\n");
        let findings = lint("mixed.rs", &scan(&src));
        prop_assert_eq!(findings.len(), 1, "exactly the planted unsafe must fire: {:?}", findings);
        prop_assert_eq!(findings[0].rule, "safety-comment");
        prop_assert_eq!(findings[0].line, before.len() + 1);
    }

    #[test]
    fn safety_comment_keeps_silencing_through_noise(before in proptest::collection::vec(noise_line(), 0..6)) {
        let mut lines = before.clone();
        lines.push("// SAFETY: p is valid for writes by construction.".to_string());
        lines.push("fn f(p: *mut u8) { unsafe { *p = 1 } }".to_string());
        let src = lines.join("\n");
        let findings = lint("ok.rs", &scan(&src));
        prop_assert!(findings.is_empty(), "SAFETY comment must silence the rule: {:?}", findings);
    }

    #[test]
    fn scanner_never_panics_on_arbitrary_text(s in "[ -~\n]{0,200}") {
        // Total-function property: any printable-ASCII soup (unterminated
        // strings, stray */, lone quotes) scans without panicking and
        // preserves the line count.
        let scanned = scan(&s);
        prop_assert_eq!(scanned.len(), s.matches('\n').count() + 1);
        let _ = lint("soup.rs", &scanned);
    }
}
