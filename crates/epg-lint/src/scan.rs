//! A line-oriented Rust source scanner.
//!
//! Separates each line into *code text* and *comment text* without a full
//! parse: enough lexical structure — line comments, nested block comments,
//! (raw) string literals, char literals vs. lifetimes — that the rules in
//! [`crate::rules`] can match keywords in code without being fooled by a
//! `"static mut"` inside a string or an `unsafe` inside a doc comment.
//! String and char-literal *contents* are blanked in the code text (their
//! delimiters survive), so columns and therefore brace counting stay
//! aligned with the original source.

/// One source line, split by the scanner.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Line {
    /// Characters lexed as code; string/char contents replaced by spaces.
    pub code: String,
    /// Characters lexed as comment (markers included), `//` and `/* */`
    /// alike; doc comments are comments here.
    pub comment: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Block comment with nesting depth.
    Block(u32),
    /// Inside `"…"`; the flag records a pending backslash escape.
    Str,
    /// Inside `r"…"`/`r#"…"#`; the payload is the `#` count.
    RawStr(u8),
    /// Inside `'…'`.
    Char,
}

/// Scans `src` into per-line code/comment text.
pub fn scan(src: &str) -> Vec<Line> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut state = State::Code;
    let mut i = 0usize;
    // True when the previous code character could continue an identifier —
    // distinguishes the raw-string prefix in `r"x"` from the identifier
    // tail in `var"` (not legal Rust, but the scanner must not wedge).
    let mut prev_ident = false;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if let State::LineComment = state {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            prev_ident = false;
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    cur.comment.push_str("//");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::Block(1);
                    cur.comment.push_str("/*");
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    cur.code.push('"');
                    prev_ident = false;
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_ident {
                    // Possible raw/byte string prefix: r", r#", br", b"…
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u8;
                    while chars.get(j) == Some(&'#') && hashes < u8::MAX {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = (c == 'r' || j > i + 1) && chars.get(j) == Some(&'"');
                    let is_plain_byte = c == 'b' && hashes == 0 && chars.get(i + 1) == Some(&'"');
                    if is_raw && (c == 'r' || chars.get(i + 1) == Some(&'r') || hashes > 0) {
                        for &p in &chars[i..=j] {
                            cur.code.push(p);
                        }
                        state = State::RawStr(hashes);
                        prev_ident = false;
                        i = j + 1;
                    } else if is_plain_byte {
                        cur.code.push('b');
                        cur.code.push('"');
                        state = State::Str;
                        prev_ident = false;
                        i += 2;
                    } else {
                        cur.code.push(c);
                        prev_ident = true;
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime: a backslash or a closing
                    // quote two ahead means a literal; otherwise `'a` is a
                    // lifetime and stays code.
                    if next == Some('\\') || chars.get(i + 2) == Some(&'\'') {
                        state = State::Char;
                        cur.code.push('\'');
                        prev_ident = false;
                        i += 1;
                    } else {
                        cur.code.push('\'');
                        prev_ident = false;
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    prev_ident = c.is_alphanumeric() || c == '_';
                    i += 1;
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::Block(depth + 1);
                    cur.comment.push_str("/*");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 { State::Code } else { State::Block(depth - 1) };
                    cur.comment.push_str("*/");
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    cur.code.push(' ');
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        cur.code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let closes = (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'));
                    if closes {
                        cur.code.push('"');
                        for _ in 0..hashes {
                            cur.code.push('#');
                        }
                        state = State::Code;
                        i += 1 + hashes as usize;
                    } else {
                        cur.code.push(' ');
                        i += 1;
                    }
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            State::Char => {
                if c == '\\' {
                    cur.code.push(' ');
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        cur.code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '\'' {
                    cur.code.push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    lines.push(cur);
    lines
}

/// Byte offsets of every occurrence of `token` in `text` with an
/// identifier boundary at whichever ends of the token are identifier
/// characters: `unsafe` skips `unsafe_op` and `not_unsafe`, while
/// `.unwrap()` matches wherever it appears. A preceding `:` is no
/// boundary, so `Instant::now` matches inside `std::time::Instant::now`.
pub fn token_offsets<'a>(text: &'a str, token: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = text.as_bytes();
    let first_ident = token.bytes().next().is_some_and(is_ident_byte);
    let last_ident = token.bytes().last().is_some_and(is_ident_byte);
    let mut from = 0;
    std::iter::from_fn(move || {
        while let Some(pos) = text.get(from..)?.find(token) {
            let start = from + pos;
            let end = start + token.len();
            from = start + 1;
            let before_ok = !first_ident || start == 0 || !is_ident_byte(bytes[start - 1]);
            let after_ok = !last_ident || end == bytes.len() || !is_ident_byte(bytes[end]);
            if before_ok && after_ok {
                return Some(start);
            }
        }
        None
    })
}

/// Whether `b` can continue a Rust identifier (ASCII subset).
pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn has_word(text: &str, word: &str) -> bool {
        token_offsets(text, word).next().is_some()
    }

    fn code_of(src: &str) -> Vec<String> {
        scan(src).into_iter().map(|l| l.code).collect()
    }

    fn comment_of(src: &str) -> Vec<String> {
        scan(src).into_iter().map(|l| l.comment).collect()
    }

    #[test]
    fn line_comments_leave_code() {
        let src = "let x = 1; // unsafe here is comment\nlet y = 2;";
        let code = code_of(src);
        assert!(!has_word(&code[0], "unsafe"));
        assert!(comment_of(src)[0].contains("unsafe"));
        assert_eq!(code[1], "let y = 2;");
    }

    #[test]
    fn string_contents_are_blanked() {
        let code = code_of(r#"let s = "unsafe { static mut }"; call();"#);
        assert!(!has_word(&code[0], "unsafe"));
        assert!(!code[0].contains("static mut"));
        assert!(code[0].contains("call();"));
        assert_eq!(code[0].matches('"').count(), 2);
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let code = code_of(r#"let s = "a\"unsafe\""; unsafe {}"#);
        assert!(has_word(&code[0], "unsafe"));
        // Only the real one, after the string, survives.
        assert_eq!(code[0].matches("unsafe").count(), 1);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = "let s = r#\"unsafe \" quote\"#; static mut X: u8 = 0;";
        let code = code_of(src);
        assert!(!has_word(&code[0], "unsafe"));
        assert!(code[0].contains("static mut"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* one /* two */ still comment unsafe */ b";
        let code = code_of(src);
        assert!(!has_word(&code[0], "unsafe"));
        assert!(code[0].contains('a') && code[0].contains('b'));
    }

    #[test]
    fn multiline_block_comment_spans_lines() {
        let src = "fn f() {\n/* unsafe\nstill unsafe */ let x = 1;\n}";
        let code = code_of(src);
        assert!(code.iter().all(|l| !has_word(l, "unsafe")));
        assert!(code[2].contains("let x = 1;"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } // 'a everywhere";
        let code = code_of(src);
        assert!(code[0].contains("fn f<'a>"));
        assert!(code[0].contains("{ x }"));
    }

    #[test]
    fn char_literals_are_blanked() {
        let src = "let q = '\"'; let u = 'u'; unsafe {}";
        let code = code_of(src);
        assert!(has_word(&code[0], "unsafe"));
        // The quote char must not open a string that eats the rest.
        assert!(code[0].contains("let u ="));
    }

    #[test]
    fn escaped_char_literals() {
        let src = r"let nl = '\n'; let bs = '\\'; let tick = '\''; done();";
        let code = code_of(src);
        assert!(code[0].contains("done();"));
    }

    #[test]
    fn byte_strings_are_strings() {
        let src = "let b = b\"unsafe\"; let r = br#\"static mut\"#; go();";
        let code = code_of(src);
        assert!(!has_word(&code[0], "unsafe"));
        assert!(!code[0].contains("static mut"));
        assert!(code[0].contains("go();"));
    }

    #[test]
    fn identifier_ending_in_r_then_string() {
        let src = "let var = 1; let s = \"x\"; unsafe {}";
        let code = code_of(src);
        assert!(code[0].contains("let var = 1;"));
        assert!(has_word(&code[0], "unsafe"));
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("unsafe {", "unsafe"));
        assert!(!has_word("unsafe_op()", "unsafe"));
        assert!(!has_word("not_unsafe", "unsafe"));
        assert!(has_word("(unsafe)", "unsafe"));
        assert!(!has_word("compare_exchange_weak", "compare_exchange"));
    }

    #[test]
    fn doc_comments_are_comments() {
        let src = "/// # Safety\n/// unsafe is fine here\npub unsafe fn f() {}";
        let lines = scan(src);
        assert!(lines[0].comment.contains("# Safety"));
        assert!(lines[0].code.trim().is_empty());
        assert!(has_word(&lines[2].code, "unsafe"));
    }
}
