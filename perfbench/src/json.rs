//! A JSON value that can be written; documents are read back with
//! `vstrace::json`, the repository's own parser (its `serde` is a shim
//! without a serializer).

use std::fmt::Write;
use vstrace::json::Value;

/// A JSON document under construction. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Written with Rust's shortest round-trip formatting, so a number
    /// parses back to the same `f64`. Non-finite values are written `null`.
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", vstrace::json::escape(s));
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\": ", vstrace::json::escape(k));
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// `value[key]` as a number.
pub fn num(value: &Value, key: &str) -> Result<f64, String> {
    value.get(key).and_then(Value::as_num).ok_or_else(|| format!("missing number {key:?}"))
}

/// `value[key]` as a string.
pub fn text<'a>(value: &'a Value, key: &str) -> Result<&'a str, String> {
    value.get(key).and_then(Value::as_str).ok_or_else(|| format!("missing string {key:?}"))
}

/// `value[key]` as an array.
pub fn arr<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], String> {
    value.get(key).and_then(Value::as_arr).ok_or_else(|| format!("missing array {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_documents_parse_back_exactly() {
        let awkward = [0.1 + 0.2, 1.0e-9, 123_456_789.125, -0.0, 5.0e300];
        let doc = Json::obj([
            ("name", Json::str("quote \" backslash \\ newline \n tab \t")),
            ("values", Json::nums(&awkward)),
            ("count", Json::Int(u64::from(u32::MAX) + 7)),
            ("nan", Json::Num(f64::NAN)),
            ("flag", Json::Bool(true)),
            ("nested", Json::obj([("empty", Json::Arr(Vec::new())), ("none", Json::Null)])),
        ]);
        let parsed = vstrace::json::parse(&doc.render()).expect("writer output must parse");
        assert_eq!(text(&parsed, "name").unwrap(), "quote \" backslash \\ newline \n tab \t");
        let back: Vec<f64> =
            arr(&parsed, "values").unwrap().iter().map(|v| v.as_num().unwrap()).collect();
        for (a, b) in awkward.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} did not round-trip");
        }
        assert_eq!(num(&parsed, "count").unwrap(), 4294967302.0);
        assert_eq!(parsed.get("nan"), Some(&Value::Null));
        assert_eq!(parsed.get("flag"), Some(&Value::Bool(true)));
        assert!(num(&parsed, "name").is_err());
        assert!(parsed.get("nested").and_then(|n| n.get("none")).is_some());
    }
}
