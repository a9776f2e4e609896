//! Token-tree lexer for the static-analysis passes.
//!
//! One pass over the source produces two coordinated views:
//!
//! - a flat **token stream** ([`Token`]) with matched delimiters
//!   ([`SourceFile::pair`] maps every `(`/`[`/`{` to its closer and back),
//!   which is what the structural passes (determinism, lock-order,
//!   model-coverage) walk; and
//! - a per-line **code/comment projection** ([`LexedLine`]) with literal
//!   contents blanked out and comment text retained, which the word-level
//!   rules (SAFETY/PANICS waivers, `Ordering::Relaxed`) scan.
//!
//! The lexer handles the constructs a per-line regex cannot: nested block
//! comments, raw strings with hash fences (`r##"…"##`, `br"…"`), byte and
//! escaped char literals vs lifetimes (`'a'` vs `'a`), multi-line string
//! literals, shebang lines, and attribute token groups. It is loss-tolerant
//! by design — unknown characters become punctuation tokens and lexing
//! never fails — because a linter must degrade gracefully on code newer
//! than itself.

/// Token classification. Literal tokens carry no content (the passes never
/// need it; blanking it keeps strings from triggering word rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// `'a`-style lifetime (including `'static`).
    Lifetime,
    /// String literal of any flavor (plain/raw/byte, single or multi line).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal (suffix glued on: `1_000u64` is one token).
    Num,
    /// Single punctuation character (`::` is two `:` tokens).
    Punct,
    /// Opening delimiter: `(`, `[` or `{`.
    Open,
    /// Closing delimiter: `)`, `]` or `}`.
    Close,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    /// Token text. Empty for `Str`/`Char` (content deliberately dropped);
    /// the delimiter character for `Open`/`Close`.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    pub fn is_punct(&self, c: char) -> bool {
        (self.kind == TokKind::Punct || self.kind == TokKind::Open || self.kind == TokKind::Close)
            && self.text.len() == 1
            && self.text.as_bytes()[0] as char == c
    }
}

/// One source line after lexing: `code` has comments and literal contents
/// blanked out (literal delimiters survive, contents become spaces);
/// `comment` holds the comment text that was removed from this line.
#[derive(Debug, Default, Clone)]
pub struct LexedLine {
    pub code: String,
    pub comment: String,
}

/// A lexed file: the flat token stream plus the per-line projection.
#[derive(Debug, Default)]
pub struct SourceFile {
    pub tokens: Vec<Token>,
    pub lines: Vec<LexedLine>,
    /// `pair[i]` is the index of the delimiter matching token `i`
    /// (`Open`→`Close` and `Close`→`Open`); `usize::MAX` for non-delimiter
    /// tokens and unbalanced delimiters.
    pub pair: Vec<usize>,
}

impl SourceFile {
    /// Index of the matching delimiter, if `i` is a matched Open/Close.
    pub fn matching(&self, i: usize) -> Option<usize> {
        self.pair.get(i).copied().filter(|&p| p != usize::MAX)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `r"`, `r#"`, `br"`, `br#"`, `cr"` … : prefix letters, at least one of
/// them `r`, then optional hash fence, then the opening quote.
fn raw_string_start(chars: &[char], i: usize) -> Option<(usize, u32)> {
    let mut j = i;
    while j < chars.len() && matches!(chars[j], 'r' | 'b' | 'c') && j - i < 2 {
        j += 1;
    }
    if !chars[i..j].contains(&'r') {
        return None;
    }
    let mut hashes = 0u32;
    while j < chars.len() && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j < chars.len() && chars[j] == '"' {
        Some((j, hashes))
    } else {
        None
    }
}

/// Lex `src` into tokens and per-line code/comment views. Never fails.
pub fn lex(src: &str) -> SourceFile {
    let chars: Vec<char> = src.chars().collect();
    // `lines()` ignores a trailing newline, so a file ending in `\n` does
    // not grow a phantom empty line (nothing ever tokenizes there).
    let n_lines = src.split('\n').count().min(src.lines().count().max(1));
    let mut out = SourceFile {
        tokens: Vec::new(),
        lines: vec![LexedLine::default(); n_lines],
        pair: Vec::new(),
    };
    let mut i = 0;
    let mut line = 0; // 0-based while lexing; tokens store 1-based

    // Shebang: a `#!` first line that is not the start of an inner
    // attribute (`#![…]`) is skipped as a comment.
    if chars.first() == Some(&'#') && chars.get(1) == Some(&'!') && chars.get(2) != Some(&'[') {
        while i < chars.len() && chars[i] != '\n' {
            out.lines[0].comment.push(chars[i]);
            i += 1;
        }
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                out.lines[line].comment.push(chars[i]);
                i += 1;
            }
            continue;
        }
        // Nested block comment (may span lines).
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 0u32;
            while i < chars.len() {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                    continue;
                }
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.lines[line].comment.push_str("/*");
                    i += 2;
                    continue;
                }
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.lines[line].comment.push_str("*/");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                    continue;
                }
                out.lines[line].comment.push(chars[i]);
                i += 1;
            }
            continue;
        }
        // Identifier / keyword — or a raw-string / byte-string prefix.
        if is_ident_start(c) {
            if matches!(c, 'r' | 'b' | 'c') {
                if let Some((quote, hashes)) = raw_string_start(&chars, i) {
                    // Prefix letters + fence land in code; contents blank.
                    for &p in &chars[i..quote] {
                        out.lines[line].code.push(p);
                    }
                    out.lines[line].code.push('"');
                    let tok_line = line + 1;
                    i = quote + 1;
                    loop {
                        if i >= chars.len() {
                            break;
                        }
                        if chars[i] == '\n' {
                            line += 1;
                            i += 1;
                            continue;
                        }
                        if chars[i] == '"'
                            && (0..hashes as usize).all(|k| chars.get(i + 1 + k) == Some(&'#'))
                        {
                            out.lines[line].code.push('"');
                            i += 1 + hashes as usize;
                            break;
                        }
                        out.lines[line].code.push(' ');
                        i += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokKind::Str,
                        text: String::new(),
                        line: tok_line,
                    });
                    continue;
                }
                // Byte string `b"…"` (no `r`): delegate to the string arm
                // below by emitting the prefix as part of the literal.
                if c == 'b' && chars.get(i + 1) == Some(&'"') {
                    out.lines[line].code.push('b');
                    i += 1;
                    lex_plain_string(&chars, &mut i, &mut line, &mut out);
                    continue;
                }
                // Byte char `b'x'`.
                if c == 'b' && chars.get(i + 1) == Some(&'\'') {
                    out.lines[line].code.push('b');
                    i += 1;
                    lex_char_or_lifetime(&chars, &mut i, &mut line, &mut out, true);
                    continue;
                }
            }
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                out.lines[line].code.push(chars[i]);
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.tokens.push(Token { kind: TokKind::Ident, text, line: line + 1 });
            continue;
        }
        // Number (suffixes glue on; `.` stays separate so `1..n` lexes sanely).
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                out.lines[line].code.push(chars[i]);
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.tokens.push(Token { kind: TokKind::Num, text, line: line + 1 });
            continue;
        }
        // String literal.
        if c == '"' {
            lex_plain_string(&chars, &mut i, &mut line, &mut out);
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            lex_char_or_lifetime(&chars, &mut i, &mut line, &mut out, false);
            continue;
        }
        // Delimiters and punctuation.
        let kind = match c {
            '(' | '[' | '{' => TokKind::Open,
            ')' | ']' | '}' => TokKind::Close,
            _ => TokKind::Punct,
        };
        if !c.is_whitespace() {
            out.tokens.push(Token { kind, text: c.to_string(), line: line + 1 });
        }
        out.lines[line].code.push(c);
        i += 1;
    }

    // Match delimiters. Mismatched kinds or leftovers stay MAX — a linter
    // must not panic on a file mid-edit.
    out.pair = vec![usize::MAX; out.tokens.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (t, tok) in out.tokens.iter().enumerate() {
        match tok.kind {
            TokKind::Open => stack.push(t),
            TokKind::Close => {
                if let Some(o) = stack.pop() {
                    let matches = matches!(
                        (out.tokens[o].text.as_str(), tok.text.as_str()),
                        ("(", ")") | ("[", "]") | ("{", "}")
                    );
                    if matches {
                        out.pair[o] = t;
                        out.pair[t] = o;
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Plain (possibly multi-line) string literal starting at `chars[*i] == '"'`.
fn lex_plain_string(chars: &[char], i: &mut usize, line: &mut usize, out: &mut SourceFile) {
    let tok_line = *line + 1;
    out.lines[*line].code.push('"');
    *i += 1;
    while *i < chars.len() {
        match chars[*i] {
            '\\' => {
                // Skip the escaped char (which may itself be a newline for
                // line-continuation escapes).
                if chars.get(*i + 1) == Some(&'\n') {
                    *line += 1;
                }
                *i += 2;
            }
            '"' => {
                out.lines[*line].code.push('"');
                *i += 1;
                break;
            }
            '\n' => {
                *line += 1;
                *i += 1;
            }
            _ => {
                out.lines[*line].code.push(' ');
                *i += 1;
            }
        }
    }
    out.tokens.push(Token { kind: TokKind::Str, text: String::new(), line: tok_line });
}

/// `'x'`, `'\n'`, `'\u{1F600}'` char literals vs `'a` / `'static` lifetimes.
/// `byte` is true when called for the payload of a `b'…'` literal.
fn lex_char_or_lifetime(
    chars: &[char],
    i: &mut usize,
    line: &mut usize,
    out: &mut SourceFile,
    byte: bool,
) {
    let tok_line = *line + 1;
    debug_assert_eq!(chars[*i], '\'');
    let next = chars.get(*i + 1).copied();
    let is_char = byte
        || match next {
            Some('\\') => true,
            Some(c2) if is_ident_start(c2) => {
                // `'a'` is a char literal, `'a` (no closing quote) a
                // lifetime. Look past the identifier run.
                let mut j = *i + 2;
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                // Single ident char followed by `'` → char literal.
                j == *i + 2 && chars.get(j) == Some(&'\'')
            }
            Some(_) => true, // `'(' `, `'1'`, `'"'` …
            None => false,
        };
    if !is_char {
        // Lifetime.
        out.lines[*line].code.push('\'');
        *i += 1;
        let start = *i;
        while *i < chars.len() && is_ident_continue(chars[*i]) {
            out.lines[*line].code.push(chars[*i]);
            *i += 1;
        }
        let text: String = chars[start..*i].iter().collect();
        out.tokens.push(Token { kind: TokKind::Lifetime, text, line: tok_line });
        return;
    }
    // Char literal: blank contents, keep quotes.
    out.lines[*line].code.push('\'');
    *i += 1;
    while *i < chars.len() {
        match chars[*i] {
            '\\' => {
                out.lines[*line].code.push(' ');
                *i += 2;
            }
            '\'' => {
                out.lines[*line].code.push('\'');
                *i += 1;
                break;
            }
            '\n' => {
                // Unterminated char literal — bail at end of line.
                *line += 1;
                *i += 1;
                break;
            }
            _ => {
                out.lines[*line].code.push(' ');
                *i += 1;
            }
        }
    }
    out.tokens.push(Token { kind: TokKind::Char, text: String::new(), line: tok_line });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(src: &str) -> String {
        lex(src).lines.iter().map(|l| l.code.clone() + "\n").collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let sf = lex("let s = \"unsafe .unwrap()\"; // Ordering::Relaxed");
        assert!(!sf.lines[0].code.contains("unsafe"));
        assert!(!sf.lines[0].code.contains("unwrap"));
        assert!(!sf.lines[0].code.contains("Relaxed"));
        assert!(sf.lines[0].comment.contains("Relaxed"));
        let idents: Vec<&str> = sf
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["let", "s"]);
    }

    #[test]
    fn raw_strings_and_nested_block_comments() {
        let src = "let r = r#\"unsafe { x.unwrap() }\"#;\n/* outer /* unsafe */ still comment */ let x = 1;";
        let sf = lex(src);
        assert!(!sf.lines[0].code.contains("unwrap"), "{}", sf.lines[0].code);
        assert!(!sf.lines[1].code.contains("unsafe"), "{}", sf.lines[1].code);
        assert!(sf.lines[1].code.contains("let x = 1;"), "{}", sf.lines[1].code);
    }

    #[test]
    fn raw_string_with_two_hashes_and_inner_fence() {
        let src = "let r = r##\"has \"# inside\"##; let y = 2;";
        let c = code(src);
        assert!(!c.contains("inside"), "{c}");
        assert!(c.contains("let y = 2;"), "{c}");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let sf = lex("fn f<'a>(c: char) -> bool { c == '\"' || c == '\\'' }");
        assert!(sf.lines[0].code.contains("fn f<'a>"), "{}", sf.lines[0].code);
        assert!(sf.tokens.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert_eq!(sf.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
    }

    #[test]
    fn static_lifetime_is_not_a_char_literal() {
        let sf = lex("fn f(x: &'static str) -> &'static str { x }");
        assert_eq!(sf.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 2);
        assert!(sf.tokens.iter().all(|t| t.kind != TokKind::Char));
    }

    #[test]
    fn shebang_line_is_comment() {
        let sf = lex("#!/usr/bin/env run-cargo-script\nfn main() {}\n");
        assert!(sf.lines[0].code.is_empty());
        assert!(sf.lines[0].comment.contains("env"));
        assert!(sf.tokens.iter().any(|t| t.is_ident("main")));
    }

    #[test]
    fn inner_attribute_is_not_a_shebang() {
        let sf = lex("#![forbid(unsafe_code)]\n");
        assert!(sf.lines[0].code.contains("#![forbid(unsafe_code)]"));
    }

    #[test]
    fn delimiters_pair_up() {
        let sf = lex("fn f(a: [u8; 4]) { g(a[0]); }");
        for (t, tok) in sf.tokens.iter().enumerate() {
            if tok.kind == TokKind::Open {
                let m = sf.matching(t).expect("unmatched open");
                assert_eq!(sf.tokens[m].kind, TokKind::Close);
                assert_eq!(sf.matching(m), Some(t));
            }
        }
    }

    #[test]
    fn multiline_string_blanks_every_line() {
        let src = "let s = \"first unsafe\nsecond .unwrap()\";\nlet t = 3;";
        let c = code(src);
        assert!(!c.contains("unsafe"), "{c}");
        assert!(!c.contains("unwrap"), "{c}");
        assert!(c.contains("let t = 3;"), "{c}");
    }

    #[test]
    fn token_lines_are_one_based_and_correct() {
        let sf = lex("a\nb\n\nc");
        let lines: Vec<(String, usize)> =
            sf.tokens.iter().map(|t| (t.text.clone(), t.line)).collect();
        assert_eq!(lines, vec![("a".into(), 1), ("b".into(), 2), ("c".into(), 4)], "{lines:?}");
    }

    #[test]
    fn byte_char_and_byte_string() {
        let sf = lex("let a = b'x'; let s = b\"unsafe\";");
        assert!(!sf.lines[0].code.contains("unsafe"));
        assert_eq!(sf.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
        assert_eq!(sf.tokens.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn unbalanced_delimiters_do_not_panic() {
        let sf = lex("fn f( { ) ]");
        assert!(!sf.tokens.is_empty());
    }
}
