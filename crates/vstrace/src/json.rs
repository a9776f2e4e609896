//! A minimal validating JSON parser.
//!
//! The workspace's `serde` shim is marker-traits only (offline build — see
//! the workspace README), so the "parse the exported trace back" tests and
//! `scripts/trace_report.sh` validation need a real parser. This is a
//! small recursive-descent implementation of the RFC 8259 grammar; it
//! exists to *validate* exporter output, not to be fast. Nesting deeper
//! than [`MAX_DEPTH`] is an error, so no input can exhaust the stack.

use std::collections::BTreeMap;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 256;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object field lookup (None on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|o| o.get(key))
    }
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.pos,
                got.map(|g| g as char)
            )),
        }
    }

    /// Consume `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|c| c as char), self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(map)),
                other => return Err(format!("expected ',' or '}}' got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                other => return Err(format!("expected ',' or ']' got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) if c < 0x20 => return Err("raw control char in string".into()),
                Some(c) => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(chunk);
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self.bump().ok_or("truncated \\u escape")?;
            code = code * 16 + (d as char).to_digit(16).ok_or("bad hex in \\u escape")?;
        }
        Ok(code)
    }

    /// The character of a `\u` escape whose `u` was just read. A high
    /// surrogate followed by an escaped low one is one character; a
    /// surrogate without its partner decodes to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            let resume = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xdc00..0xe000).contains(&low) {
                let pair = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                return Ok(char::from_u32(pair).unwrap_or('\u{fffd}'));
            }
            self.pos = resume;
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a digit at byte {}", self.pos));
        }
        Ok(())
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            if !matches!(self.peek(), Some(b'1'..=b'9')) {
                return Err(format!("expected a digit at byte {}", self.pos));
            }
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits()?;
        }
        // PANICS: the scanned range holds only ASCII sign/digit/exponent bytes.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Value::Num).map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

/// Escape a string for embedding in JSON output (used by the exporters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Num(-1250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x"}, null], "c": -2}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_num), Some(-2.0));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated", "{'a':1}", ""] {
            assert!(parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    /// Inputs at the edges of RFC 8259: runaway nesting is an error, not a
    /// stack overflow; numbers follow `-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?`;
    /// an escaped surrogate pair is one character.
    #[test]
    fn grammar_edges_follow_rfc_8259() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let nested_objects = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
        let num = |x: f64| Some(Value::Num(x));
        let text = |t: &str| Some(Value::Str(t.into()));
        let deepest = (1..MAX_DEPTH).fold(Value::Arr(Vec::new()), |v, _| Value::Arr(vec![v]));
        let cases: Vec<(String, Option<Value>)> = vec![
            (nested(100_000), None),
            (nested(MAX_DEPTH + 1), None),
            (nested_objects(MAX_DEPTH + 1), None),
            (nested(MAX_DEPTH), Some(deepest)),
            ("01".into(), None),
            ("1.".into(), None),
            ("-.5".into(), None),
            ("-01.e5".into(), None),
            (".5".into(), None),
            ("+1".into(), None),
            ("-".into(), None),
            ("1e".into(), None),
            ("1e+".into(), None),
            ("1.e3".into(), None),
            ("[01]".into(), None),
            ("0".into(), num(0.0)),
            ("-0".into(), num(-0.0)),
            ("10".into(), num(10.0)),
            ("0.25".into(), num(0.25)),
            ("-1.5e-3".into(), num(-1.5e-3)),
            ("2E+2".into(), num(200.0)),
            ("[0,-0.5]".into(), Some(Value::Arr(vec![Value::Num(0.0), Value::Num(-0.5)]))),
            ("\"\\ud83d\\ude00\"".into(), text("😀")),
            ("\"😀\"".into(), text("😀")),
            ("\"\\ud83d\"".into(), text("\u{fffd}")),
            ("\"\\ude00\"".into(), text("\u{fffd}")),
            ("\"\\ud83dx\"".into(), text("\u{fffd}x")),
            ("\"\\ud83d\\u0041\"".into(), text("\u{fffd}A")),
        ];
        for (input, want) in cases {
            let got = parse(&input);
            let shown = &input[..input.len().min(24)];
            match want {
                Some(v) => assert_eq!(got.as_ref(), Ok(&v), "{shown:?}"),
                None => assert!(got.is_err(), "accepted {shown:?} as {got:?}"),
            }
        }
    }

    #[test]
    fn unicode_and_escapes_roundtrip() {
        let v = parse("\"\\u0041µ→\"").unwrap();
        assert_eq!(v, Value::Str("Aµ→".into()));
        let original = "quote\" back\\ nl\n tab\t µ";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap(), Value::Str(original.into()));
    }
}
