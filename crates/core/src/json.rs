//! A minimal JSON reader for the offline build (no serde).
//!
//! The campaign-spec wire format, the content-addressed point cache,
//! and the `snoc serve` protocol all exchange JSON; this module is the
//! single parser behind them. Two properties matter more than speed:
//!
//! - **Numbers keep their source text.** Seeds are full 64-bit values
//!   that an `f64` detour would silently round; [`JsonValue::Num`]
//!   stores the raw token and [`JsonValue::as_u64`] /
//!   [`JsonValue::as_f64`] reparse it exactly as requested.
//! - **Objects keep their field order**, so a parse → serialize round
//!   trip of our own canonical output is byte-stable.
//!
//! The writer side stays hand-rolled in each producer (the sweep and
//! spec serializers pin their schemas byte-for-byte in golden tests);
//! this module only adds the shared escaping/compaction helpers.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source token (see module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source field order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match; objects are small here).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Reads the optional object field `key` through `read` (an `as_*`
    /// accessor, or a closure over one): absent or `null` is
    /// `Ok(None)`, so callers pick between a default (`unwrap_or`) and
    /// a missing-field error (`ok_or`).
    ///
    /// # Errors
    ///
    /// A value `read` refuses is `` "`key` must be <expected>" ``.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        expected: &str,
        read: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => read(v)
                .map(Some)
                .ok_or_else(|| format!("`{key}` must be {expected}")),
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number reparsed as `u64` (exact; no float detour).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number reparsed as `usize`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number reparsed as `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed
/// input.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest accepted container nesting. The parser recurses once per
/// level and documents arrive from the network, so the depth is capped
/// well below what any stack can take (our own formats nest 4 deep).
const MAX_DEPTH: usize = 64;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    if depth > MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}", pos = *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&b[start..*pos]).expect("ascii number token");
    // Validate by parsing as f64 (accepts every JSON number form).
    raw.parse::<f64>()
        .map_err(|_| format!("bad number `{raw}` at byte {start}"))?;
    Ok(JsonValue::Num(raw.to_string()))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                        // Surrogate pairs are not produced by our own
                        // serializers; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next delimiter at once:
                // `"` and `\` are ASCII, so they never fall inside a
                // multi-byte sequence and the run stays on character
                // boundaries of the `&str` the document came from.
                let rest = &b[*pos..];
                let len = rest
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .unwrap_or(rest.len());
                out.push_str(
                    std::str::from_utf8(&rest[..len])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?,
                );
                *pos += len;
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// shared by every hand-rolled serializer in the workspace.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Compacts the workspace's line-oriented pretty JSON onto one line by
/// stripping newlines and leading indentation. Valid because our
/// serializers never break a line inside a string (control characters
/// are `\u`-escaped), so every line start is structural.
#[must_use]
pub fn compact(pretty: &str) -> String {
    pretty.lines().map(str::trim_start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("\"a b\"").unwrap().as_str(), Some("a b"));
        assert_eq!(parse("3.5").unwrap().as_f64(), Some(3.5));
        assert_eq!(parse("-2e3").unwrap().as_f64(), Some(-2000.0));
    }

    #[test]
    fn field_reads_absent_and_null_as_none_and_names_the_ill_typed_key() {
        let v = parse(r#"{"n": 7, "s": "x", "z": null}"#).unwrap();
        assert_eq!(v.field("n", "a u64", JsonValue::as_u64), Ok(Some(7)));
        assert_eq!(v.field("z", "a u64", JsonValue::as_u64), Ok(None));
        assert_eq!(v.field("missing", "a u64", JsonValue::as_u64), Ok(None));
        assert_eq!(
            v.field("s", "a u64", JsonValue::as_u64),
            Err("`s` must be a u64".to_string())
        );
        // Not an object: every field is absent.
        assert_eq!(
            parse("3").unwrap().field("n", "a u64", JsonValue::as_u64),
            Ok(None)
        );
    }

    #[test]
    fn u64_numbers_survive_exactly() {
        let big = u64::MAX - 1;
        let v = parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big), "no f64 rounding detour");
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let v = parse(r#"{"b": [1, {"x": null}], "a": "z"}"#).unwrap();
        let JsonValue::Obj(fields) = &v else {
            panic!("object")
        };
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
        assert_eq!(v.get("a").unwrap().as_str(), Some("z"));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("x"), Some(&JsonValue::Null));
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn escape_then_parse_round_trips() {
        // Multi-byte scalars sit directly against every delimiter the
        // run copy stops at.
        let s = "quote\" slash\\ tab\t nl\n unicode é\"日本\\🦀\n€";
        let parsed = parse(&format!("\"{}\"", escape(s))).unwrap();
        assert_eq!(parsed.as_str(), Some(s));
    }

    #[test]
    fn string_parsing_is_linear_in_document_size() {
        // `MAX_BODY` of the campaign server: one 4 MiB string. The
        // per-character revalidation this replaced took 1 s at 256 KiB
        // and grew quadratically.
        let chunk = format!("{}\\n", "é".repeat(31)); // 62 + 2 bytes
        let doc = format!("\"{}\"", chunk.repeat(1 << 16));
        assert_eq!(doc.len(), (4 << 20) + 2);
        let start = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        let text = format!("{}\n", "é".repeat(31)).repeat(1 << 16);
        assert_eq!(parsed.as_str(), Some(text.as_str()));
        assert!(elapsed.as_secs_f64() < 1.0, "4 MiB string took {elapsed:?}");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"open",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn compact_strips_structure_only() {
        let pretty = "{\n  \"a\": [1,\n    2],\n  \"s\": \"x y\"\n}\n";
        assert_eq!(compact(pretty), "{\"a\": [1,2],\"s\": \"x y\"}");
        assert!(parse(&compact(pretty)).is_ok());
    }
}
