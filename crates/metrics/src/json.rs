//! Hand-rolled JSON: escaping, a document model with a deterministic
//! renderer, and a minimal recursive-descent parser.
//!
//! The workspace has no external JSON dependency (see the offline-shim
//! policy in the root `Cargo.toml`), so every artifact that speaks JSON
//! — `RunReport` in `mvbc-smr`, the `BENCH_*.json` manifests in
//! `mvbc-bench`, the diagnostics of `mvbc-lint` — shares this module
//! instead of carrying its own copy. It lives in `mvbc-metrics` because
//! that is the lowest crate every artifact producer already depends on.
//!
//! Rendering is deterministic: object fields keep insertion order,
//! integral numbers in the `i64` range render without a decimal point,
//! and strings escape through [`escape`]. That determinism is what lets
//! same-seed runs emit byte-identical documents.
//!
//! # Examples
//!
//! ```
//! use mvbc_metrics::json::{parse_json, JsonValue};
//!
//! let doc = JsonValue::Obj(vec![
//!     ("n".to_owned(), JsonValue::Num(7.0)),
//!     ("policy".to_owned(), JsonValue::Str("round-barrier".to_owned())),
//! ]);
//! let text = doc.render();
//! assert_eq!(text, "{\"n\": 7, \"policy\": \"round-barrier\"}");
//! assert_eq!(parse_json(&text).unwrap(), doc);
//! ```

use std::fmt::Write as _;

/// Escapes a string for embedding inside a JSON string literal (the
/// quotes themselves are the caller's).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON value: the shared document model for parsing artifacts back
/// and for building documents programmatically.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (single spaces after `:` and
    /// `,`, no newlines). Deterministic: field order is insertion order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the rendering of this value to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                // Integral values in the exactly-representable range
                // render without a fractional part.
                if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so an unbounded `[[[[…` from a user file would
/// overflow the stack; no document the workspace writes nests past ~6.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a byte offset and description for the first syntax error, or
/// for the first array/object nested more than 128 levels deep.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

/// Parses one value at `pos`, inside `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => {
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            b'\\' => {
                let esc = bytes.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        let c = char::from_u32(code).unwrap_or('\u{fffd}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            b => out.push(b),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_scalars_and_nesting() {
        let v = parse_json(
            r#"{"a": 1, "b": [true, false, null], "c": {"d": "x\ny", "e": -2.5}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        let b = v.get("b").and_then(JsonValue::as_array).unwrap();
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[2], JsonValue::Null);
        let c = v.get("c").unwrap();
        assert_eq!(c.get("d").and_then(JsonValue::as_str), Some("x\ny"));
        assert_eq!(c.get("e").and_then(JsonValue::as_f64), Some(-2.5));
        assert_eq!(c.get("e").and_then(JsonValue::as_u64), None);
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn json_parser_bounds_nesting() {
        // 200 000 unclosed brackets overflowed the stack before the cap.
        let deep = "[".repeat(200_000);
        assert_eq!(parse_json(&deep), Err("nesting deeper than 128 at byte 128".into()));
        let deep_obj = "{\"k\": ".repeat(200);
        assert_eq!(parse_json(&deep_obj), Err("nesting deeper than 128 at byte 768".into()));

        // Exactly MAX_DEPTH levels still parse; one more does not.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse_json(&over).unwrap_err().starts_with("nesting deeper than 128"));
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn render_round_trips_documents() {
        let doc = JsonValue::Obj(vec![
            ("int".into(), JsonValue::Num(42.0)),
            ("neg".into(), JsonValue::Num(-3.0)),
            ("frac".into(), JsonValue::Num(2.5)),
            ("s".into(), JsonValue::Str("quo\"te".into())),
            ("flag".into(), JsonValue::Bool(false)),
            ("none".into(), JsonValue::Null),
            (
                "arr".into(),
                JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Obj(vec![])]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(parse_json(&text).unwrap(), doc);
        // Integral numbers render with no decimal point.
        assert!(text.contains("\"int\": 42"));
        assert!(text.contains("\"frac\": 2.5"));
    }

    #[test]
    fn render_is_deterministic_insertion_order() {
        let doc = JsonValue::Obj(vec![
            ("z".into(), JsonValue::Num(1.0)),
            ("a".into(), JsonValue::Num(2.0)),
        ]);
        assert_eq!(doc.render(), "{\"z\": 1, \"a\": 2}");
        assert_eq!(doc.render(), doc.render());
    }
}
