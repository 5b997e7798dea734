//! A minimal JSON reader and writer for the offline build (no serde).
//!
//! The campaign-spec wire format, the content-addressed point cache,
//! and the `snoc serve` protocol all exchange JSON; this module holds
//! the single grammar behind them, once, in [`Reader`]: a pull reader
//! that borrows from the document (a string without escapes is a slice
//! of it, a number is its source token) and allocates nothing of its
//! own. The two hot consumers drive it directly — a stored cache line
//! goes straight into its ten scalars, tens of thousands per
//! [`PointCache::open`](crate::PointCache::open), and the `snoc submit`
//! client reads an event's name and counters while [`Reader::skip`]
//! validates the 100 KB result beside them. Everything else calls
//! [`parse`], a tree builder over the same reader; [`JsonValue`] stays
//! owned because specs are read field by field in any order and callers
//! keep values past the text they came from (`snoc-perf` stores one) —
//! a borrowing tree would put a lifetime on all of them to save
//! allocations nobody measures. Two properties matter more than speed:
//!
//! - **Numbers keep their source text.** Seeds are full 64-bit values
//!   that an `f64` detour would silently round; [`JsonValue::Num`]
//!   stores the raw token and [`JsonValue::as_u64`] /
//!   [`JsonValue::as_f64`] reparse it exactly as requested.
//! - **Objects keep their field order**, so a parse → serialize round
//!   trip of our own canonical output is byte-stable.
//!
//! Every document the workspace writes goes through one [`Writer`],
//! which places the separators, escapes strings in place, and renders
//! each `f64` by the [`Floats`] rule its document names once:
//!
//! | document | writer | floats |
//! |---|---|---|
//! | `slim_noc-spec-v1`, setup and fault recipes | `CampaignSpec::to_json`, `canonical_json` | `Shortest`: loads parse back to their bits |
//! | `slim_noc-sweep-v1`/`-v2` | `CampaignResult::to_json`, `SweepPoint::to_json_line` | `Decimals(6)`: the sweep's `JsonF64` rule |
//! | cache store lines and coordinates | `PointCache` | `Bits`: the raw bit pattern |
//! | `snoc serve` events, `/stats`, errors | `snoc_bench::serve` | none of its own |
//! | `slim_noc-resilience-v1`, `verify` rows | `snoc repro … --json` | `Decimals(4)`, `Decimals(2)`: [`format_float`](crate::format_float) (failure fractions as [`Raw`]) |
//!
//! `SimReport::to_json` (the engine fingerprint's input) is written by
//! `snoc_sim`, which sits below this crate.

use crate::report::{push_u64, CompactFloat};
use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;

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

/// Parses one JSON document (trailing whitespace allowed, nothing else)
/// into an owned tree — a visitor over [`Reader`], no scanner of its own.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed
/// input.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut reader = Reader::new(text);
    let value = build(&mut reader)?;
    reader.finish().map(|()| value)
}

fn build(r: &mut Reader<'_>) -> Result<JsonValue, String> {
    Ok(match r.peek() {
        Some(b'{') => {
            let mut fields = Vec::new();
            r.object(|r, key| build(r).map(|v| fields.push((key.into_owned(), v))))?;
            JsonValue::Obj(fields)
        }
        Some(b'[') => {
            let mut items = Vec::new();
            r.array(|r| build(r).map(|v| items.push(v)))?;
            JsonValue::Arr(items)
        }
        Some(b'"') => JsonValue::Str(r.string()?.into_owned()),
        Some(b't' | b'f') => JsonValue::Bool(r.boolean()?),
        Some(b'n') => r.null().map(|()| JsonValue::Null)?,
        _ => JsonValue::Num(r.number()?.to_string()),
    })
}

/// Deepest accepted container nesting. The reader recurses once per
/// level and documents arrive from the network, so the depth is capped
/// well below what any stack can take (our own formats nest 4 deep).
const MAX_DEPTH: usize = 64;

/// A borrowing pull reader over one JSON document: the one JSON grammar
/// of the workspace (module docs). Each method reads exactly one value
/// of its type at the cursor, or fails with a message and a byte offset
/// when something else is there or the value is malformed.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// The first byte of the next value (whitespace skipped, nothing
    /// else consumed): `{`, `[`, `"`, `t`/`f`, `n`, or a number's first.
    pub fn peek(&mut self) -> Option<u8> {
        let b = self.text.as_bytes();
        while self.pos < b.len() && matches!(b[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
        b.get(self.pos).copied()
    }

    /// [`Reader::peek`] where a value must start: its first byte, still
    /// unconsumed.
    fn next_value(&mut self) -> Result<u8, String> {
        let (next, pos) = (self.peek(), self.pos);
        match next {
            _ if self.depth > MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
            }
            None => Err("unexpected end of input".to_string()),
            Some(c) => Ok(c),
        }
    }

    /// [`Reader::next_value`] for a value that starts with one of `first`.
    fn value_start(&mut self, first: &[u8]) -> Result<(), String> {
        match self.next_value()? {
            c if first.contains(&c) => Ok(()),
            c => Err(self.unexpected(c)),
        }
    }

    fn unexpected(&self, c: u8) -> String {
        format!("unexpected byte {c:#04x} at {pos}", pos = self.pos)
    }

    fn literal<T>(&mut self, lit: &str, value: T) -> Result<T, String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected `{lit}` at byte {pos}", pos = self.pos))
        }
    }

    /// Reads `null`.
    pub fn null(&mut self) -> Result<(), String> {
        self.value_start(b"n")?;
        self.literal("null", ())
    }

    /// Reads `true` or `false`.
    pub fn boolean(&mut self) -> Result<bool, String> {
        self.value_start(b"tf")?;
        match self.text.as_bytes()[self.pos] {
            b't' => self.literal("true", true),
            _ => self.literal("false", false),
        }
    }

    /// Reads a number and returns its source token (a seed must not
    /// take an `f64` detour): any `[-]?[0-9.eE+-]*` run `f64` parses.
    pub fn number(&mut self) -> Result<&'a str, String> {
        self.value_start(b"0123456789-")?;
        self.number_token()
    }

    /// The number whose first byte is at the cursor: checked against
    /// `f64`'s grammar ([`float_end`]) in the one pass that finds its
    /// end, never parsed.
    fn number_token(&mut self) -> Result<&'a str, String> {
        let (b, start) = (self.text.as_bytes(), self.pos);
        match float_end(b, start) {
            // The grammar took the whole run.
            Some(end) if !b.get(end).is_some_and(in_number) => {
                self.pos = end;
                Ok(&self.text[start..end])
            }
            _ => {
                let run = b[start..].iter().take_while(|c| in_number(c)).count();
                let raw = &self.text[start..start + run];
                Err(format!("bad number `{raw}` at byte {start}"))
            }
        }
    }

    /// Reads a string: a slice of the document when it holds no escape,
    /// the unescaped copy otherwise.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.value_start(b"\"")?;
        self.quoted()
    }

    /// The string (or object key) whose opening quote is at the cursor.
    fn quoted(&mut self) -> Result<Cow<'a, str>, String> {
        self.pos += 1;
        let b = self.text.as_bytes();
        // Most strings hold no escape: the slice up to the closing
        // quote (ASCII, so it ends on a character boundary).
        let rest = &b[self.pos..];
        if let Some(len) = delimiter(rest) {
            if rest[len] == b'"' {
                let run = &self.text[self.pos..self.pos + len];
                self.pos += len + 1;
                return Ok(Cow::Borrowed(run));
            }
        }
        let mut out = Cow::Borrowed("");
        loop {
            match b.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.to_mut().push(match b.get(self.pos) {
                        Some(&c @ (b'"' | b'\\' | b'/')) => c as char,
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = b
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            // Exactly four hex digits: no sign, no space.
                            let code = hex
                                .iter()
                                .try_fold(0, |code, &c| {
                                    Some(code << 4 | char::from(c).to_digit(16)?)
                                })
                                .ok_or("bad \\u escape: expected four hex digits")?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our own
                            // serializers; map lone surrogates to U+FFFD.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    });
                    self.pos += 1;
                }
                Some(_) => {
                    // Take the whole run up to the next delimiter at
                    // once: `"` and `\` are ASCII, so they never fall
                    // inside a multi-byte sequence and the run stays on
                    // character boundaries of the document.
                    let rest = &b[self.pos..];
                    let len = delimiter(rest).unwrap_or(rest.len());
                    let run = self.text.get(self.pos..self.pos + len);
                    let run = run.ok_or("invalid UTF-8 in string")?;
                    if out.is_empty() {
                        out = Cow::Borrowed(run);
                    } else {
                        out.to_mut().push_str(run);
                    }
                    self.pos += len;
                }
            }
        }
    }

    /// Reads the opening bracket at the cursor, then `each` once per
    /// comma-separated member, then `close`.
    fn members(
        &mut self,
        close: u8,
        mut each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        if self.peek() != Some(close) {
            self.depth += 1;
            loop {
                each(self)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => {
                        let (close, pos) = (close as char, self.pos);
                        return Err(format!("expected `,` or `{close}` at byte {pos}"));
                    }
                }
            }
            self.depth -= 1;
        }
        self.pos += 1;
        Ok(())
    }

    /// Reads an object, handing `field` each key in source order with
    /// the reader at its value; `field` must read exactly that value
    /// (through [`Reader::skip`] when it has no use for it).
    pub fn object(
        &mut self,
        field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.value_start(b"{")?;
        self.fields(field)
    }

    /// The fields of the object whose `{` is at the cursor.
    fn fields(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.members(b'}', |r| {
            if r.peek() != Some(b'"') {
                return Err(format!("expected object key at byte {pos}", pos = r.pos));
            }
            let key = r.quoted()?;
            if r.peek() != Some(b':') {
                return Err(format!("expected `:` at byte {pos}", pos = r.pos));
            }
            r.pos += 1;
            field(r, key)
        })
    }

    /// Reads an array, calling `item` with the reader at each element;
    /// `item` must read exactly that element.
    pub fn array(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.value_start(b"[")?;
        self.members(b']', item)
    }

    /// Reads one value of any type and drops it, validated exactly as
    /// [`parse`] validates it. The `snoc submit` client skips a 100 KB
    /// result this way, so the common case takes one pass over local
    /// state; a value that pass does not take (an escape, an error) is
    /// read again one call per value, which names what it found.
    pub fn skip(&mut self) -> Result<(), String> {
        match plain_end(self.text.as_bytes(), self.pos, self.depth) {
            Some(end) => {
                self.pos = end;
                Ok(())
            }
            None => self.skip_exact(),
        }
    }

    /// [`Reader::skip`] one call per value: the byte the value starts
    /// with picks the reading; nothing is peeked twice.
    fn skip_exact(&mut self) -> Result<(), String> {
        match self.next_value()? {
            b'"' => self.quoted().map(drop),
            b'0'..=b'9' | b'-' => self.number_token().map(drop),
            b'{' => self.fields(|r, _| r.skip_exact()),
            b'[' => self.members(b']', Self::skip_exact),
            b't' => self.literal("true", ()),
            b'f' => self.literal("false", ()),
            b'n' => self.literal("null", ()),
            c => Err(self.unexpected(c)),
        }
    }

    /// Ends the document: only whitespace may remain.
    pub fn finish(mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing data at byte {pos}", pos = self.pos)),
        }
    }
}

/// The end of the value at `pos` when it holds no escape and nothing
/// [`Reader::skip_exact`] would refuse, `None` otherwise: the same
/// grammar and depth cap, with the cursor, the open containers and the
/// strings' plain runs kept in locals.
fn plain_end(b: &[u8], mut pos: usize, depth: usize) -> Option<usize> {
    // The containers open inside the value, innermost in the lowest
    // bit of `objects`, which is set for an object.
    let (mut open, mut objects) = (0, 0u128);
    loop {
        blank(b, &mut pos);
        if depth + open > MAX_DEPTH {
            return None;
        }
        match *b.get(pos)? {
            b'"' => pos = string_end(b, pos)?,
            b'0'..=b'9' | b'-' => {
                pos = float_end(b, pos).filter(|&end| !b.get(end).is_some_and(in_number))?;
            }
            b't' if b[pos..].starts_with(b"true") => pos += 4,
            b'f' if b[pos..].starts_with(b"false") => pos += 5,
            b'n' if b[pos..].starts_with(b"null") => pos += 4,
            c @ (b'{' | b'[') => {
                let object = c == b'{';
                pos += 1;
                blank(b, &mut pos);
                if b.get(pos) == Some(&closer(object)) {
                    pos += 1;
                } else {
                    (open, objects) = (open + 1, objects << 1 | u128::from(object));
                    if object {
                        pos = key_end(b, pos)?;
                    }
                    continue;
                }
            }
            _ => return None,
        }
        // A value is read: close the containers it ends, then go on to
        // the next member.
        loop {
            if open == 0 {
                return Some(pos);
            }
            let object = objects & 1 == 1;
            blank(b, &mut pos);
            match *b.get(pos)? {
                b',' => {
                    pos += 1;
                    if object {
                        pos = key_end(b, pos)?;
                    }
                    break;
                }
                c if c == closer(object) => {
                    pos += 1;
                    (open, objects) = (open - 1, objects >> 1);
                }
                _ => return None,
            }
        }
    }
}

/// Moves `pos` past the whitespace [`Reader::peek`] skips.
fn blank(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn closer(object: bool) -> u8 {
    if object {
        b'}'
    } else {
        b']'
    }
}

/// The end of the string at `pos` when it holds no escape.
fn string_end(b: &[u8], pos: usize) -> Option<usize> {
    let rest = &b[pos + 1..];
    let len = delimiter(rest).filter(|&len| rest[len] == b'"')?;
    Some(pos + len + 2)
}

/// Past an object member's key and its colon.
fn key_end(b: &[u8], mut pos: usize) -> Option<usize> {
    blank(b, &mut pos);
    if b.get(pos) != Some(&b'"') {
        return None;
    }
    pos = string_end(b, pos)?;
    blank(b, &mut pos);
    (b.get(pos) == Some(&b':')).then_some(pos + 1)
}

/// A byte of a number token's run: what [`Reader::number_token`] names
/// in a refusal.
fn in_number(c: &u8) -> bool {
    matches!(c, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}

/// Eight bytes of `b` from `at` as one word, the first in the lowest
/// byte; `None` within eight bytes of the end.
fn word(b: &[u8], at: usize) -> Option<u64> {
    let bytes = b.get(at..at + 8)?;
    Some(u64::from_le_bytes(bytes.try_into().expect("eight bytes")))
}

/// `0x01` in every byte of a word.
const ONES: u64 = u64::from_le_bytes([1; 8]);

/// The high bit of the first byte of `w` that is zero, and perhaps of
/// later bytes (a borrow runs upwards only): the lowest set bit is
/// always the first zero byte.
fn zero_byte(w: u64) -> u64 {
    w.wrapping_sub(ONES) & !w & ONES << 7
}

/// The offset of the first `"` or `\` in `b`: where a string's plain
/// run ends. Eight bytes at a time, the tail byte by byte.
fn delimiter(b: &[u8]) -> Option<usize> {
    let mut at = 0;
    while let Some(w) = word(b, at) {
        let hit =
            zero_byte(w ^ (ONES * u64::from(b'"'))) | zero_byte(w ^ (ONES * u64::from(b'\\')));
        if hit != 0 {
            return Some(at + hit.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = b[at..].iter().position(|&c| c == b'"' || c == b'\\');
    tail.map(|len| at + len)
}

/// The end of the number that `f64::from_str`'s grammar reads from
/// `b[at..]` — a sign, then digits with at most one point and at least
/// one digit, then optionally `e` or `E`, a sign, and at least one
/// digit — or `None` when no prefix there is one.
fn float_end(b: &[u8], mut at: usize) -> Option<usize> {
    let digits = |at: &mut usize| {
        let from = *at;
        while b.get(*at).is_some_and(u8::is_ascii_digit) {
            *at += 1;
        }
        *at - from
    };
    let sign = |at: &mut usize| *at += usize::from(matches!(b.get(*at), Some(b'+' | b'-')));
    sign(&mut at);
    let mut mantissa = digits(&mut at);
    if b.get(at) == Some(&b'.') {
        at += 1;
        mantissa += digits(&mut at);
    }
    if mantissa == 0 {
        return None;
    }
    if matches!(b.get(at), Some(b'e' | b'E')) {
        at += 1;
        sign(&mut at);
        if digits(&mut at) == 0 {
            return None;
        }
    }
    Some(at)
}

/// How a document writes its `f64`s, named once by its [`Writer`]. Every
/// rule but `Bits` writes NaN and ±∞ as `null`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Floats {
    /// [`format_float`](crate::format_float) at this many decimals.
    Decimals(usize),
    /// Rust's shortest round-trip `Display`: parses back to the same bits.
    Shortest,
    /// The raw `f64::to_bits` pattern: exact for every value, NaN included.
    Bits,
}

/// Where a container puts its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// On the container's line: `{"a": 1, "b": [2, 3]}`.
    Inline,
    /// One per line, indented two spaces per open container, and the
    /// closing bracket on a line of its own, an empty container's too.
    Lines,
    /// `Lines` on one line: its separators without the line breaks and
    /// the indentation, `{"a": 1,"b": [2, 3]}`, which is what
    /// [`compact`] makes of a `Lines` container.
    Compact,
}

/// A value a [`Writer`] writes: a string (escaped), a `bool`, an
/// integer, an `f64` (by the writer's [`Floats`]), or [`Raw`] text.
pub trait Value {
    /// Writes `self` at the writer's cursor.
    fn write(self, w: &mut Writer);
}

/// Text that already is JSON, or a `Display` value that prints as a
/// JSON number, written as is.
#[derive(Debug, Clone, Copy)]
pub struct Raw<T>(pub T);

/// The workspace's one JSON writer (module docs). It places every
/// separator itself: [`Writer::object`] and [`Writer::list`] open a
/// container, [`Writer::field`] and [`Writer::item`] write its members,
/// [`Writer::end`] closes it.
#[derive(Debug)]
pub struct Writer {
    /// The document's bytes: UTF-8 throughout, checked once by
    /// [`Writer::finish`], so that digits go in without a check each.
    out: Vec<u8>,
    floats: Floats,
    /// The open containers, innermost last: closing bracket, layout,
    /// and whether a member is written.
    stack: Vec<(u8, Layout, bool)>,
    /// A key is written and its value comes next.
    keyed: bool,
}

impl Writer {
    /// An empty document whose floats follow `floats`.
    #[must_use]
    pub fn new(floats: Floats) -> Self {
        Writer {
            // One allocation holds a store line or a point's event
            // (a 45 nm point alone is near 500 bytes), which would
            // otherwise grow through a run of small reallocations.
            out: Vec::with_capacity(1024),
            floats,
            stack: Vec::new(),
            keyed: false,
        }
    }

    /// Opens an object.
    pub fn object(&mut self, layout: Layout) -> &mut Self {
        self.begin(b'{', b'}', layout)
    }

    /// Opens a list.
    pub fn list(&mut self, layout: Layout) -> &mut Self {
        self.begin(b'[', b']', layout)
    }

    /// Writes `items` as one inline list.
    pub fn list_of<V: Value>(&mut self, items: impl IntoIterator<Item = V>) -> &mut Self {
        self.list(Layout::Inline);
        for item in items {
            self.item(item);
        }
        self.end()
    }

    /// Closes the innermost open container.
    ///
    /// # Panics
    ///
    /// Panics when no container is open.
    pub fn end(&mut self) -> &mut Self {
        let (close, layout, _) = self.stack.pop().expect("an open container");
        if layout == Layout::Lines {
            self.newline();
        }
        self.out.push(close);
        self
    }

    /// Writes an object key; the next value written is its value. Keys
    /// are names fixed in the code, which never need an escape, so they
    /// are copied as they are.
    pub fn key(&mut self, key: &'static str) -> &mut Self {
        debug_assert!(!key.bytes().any(needs_escape), "key `{key}`");
        self.member();
        self.out.push(b'"');
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\": ");
        self.keyed = true;
        self
    }

    /// Writes the object member `key: value`.
    pub fn field(&mut self, key: &'static str, value: impl Value) -> &mut Self {
        self.key(key).item(value)
    }

    /// Writes a list member, or the value of the key just written.
    pub fn item(&mut self, value: impl Value) -> &mut Self {
        self.member();
        value.write(self);
        self
    }

    /// Makes room for at least `additional` more bytes at once.
    pub fn reserve(&mut self, additional: usize) {
        self.out.reserve(additional);
    }

    /// Bytes written so far: where the next value starts.
    #[must_use]
    pub fn written(&self) -> usize {
        self.out.len()
    }

    /// Runs `write` with this writer's floats following `floats`: a
    /// document written inside another keeps its own rule.
    pub(crate) fn with_floats(&mut self, floats: Floats, write: impl FnOnce(&mut Self)) {
        let outer = std::mem::replace(&mut self.floats, floats);
        write(self);
        self.floats = outer;
    }

    /// Closes every container still open and returns the document.
    #[must_use]
    pub fn finish(mut self) -> String {
        while !self.stack.is_empty() {
            self.end();
        }
        String::from_utf8(self.out).expect("the writer writes UTF-8")
    }

    fn begin(&mut self, open: u8, close: u8, layout: Layout) -> &mut Self {
        self.member();
        self.out.push(open);
        self.stack.push((close, layout, false));
        self
    }

    /// Starts a member: nothing after a key; otherwise the separator
    /// from the previous member and, in a `Lines` container, a new line.
    fn member(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        let Some((_, layout, any)) = self.stack.last_mut() else {
            return;
        };
        let lines = *layout == Layout::Lines;
        if std::mem::replace(any, true) {
            self.out.extend_from_slice(if *layout == Layout::Inline {
                b", "
            } else {
                b","
            });
        }
        if lines {
            self.newline();
        }
    }

    fn newline(&mut self) {
        self.out.push(b'\n');
        for _ in &self.stack {
            self.out.extend_from_slice(b"  ");
        }
    }
}

impl<S: AsRef<str> + ?Sized> Value for &S {
    fn write(self, w: &mut Writer) {
        let s = self.as_ref();
        w.out.push(b'"');
        // Copies the runs between escapes whole.
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if !needs_escape(b) {
                continue;
            }
            w.out.extend_from_slice(&s.as_bytes()[run..i]);
            let _ = match b {
                b'"' | b'\\' => w.out.write_all(&[b'\\', b]),
                _ => write!(w.out, "\\u{b:04x}"),
            };
            run = i + 1;
        }
        w.out.extend_from_slice(&s.as_bytes()[run..]);
        w.out.push(b'"');
    }
}

/// A byte a JSON string cannot hold as it is.
fn needs_escape(b: u8) -> bool {
    matches!(b, b'"' | b'\\' | 0..=0x1f)
}

impl Value for f64 {
    fn write(self, w: &mut Writer) {
        match w.floats {
            Floats::Bits => self.to_bits().write(w),
            _ if !self.is_finite() => w.out.extend_from_slice(b"null"),
            Floats::Shortest => Raw(self).write(w),
            Floats::Decimals(digits) => CompactFloat(self, digits).push_to(&mut w.out),
        }
    }
}

impl<T: fmt::Display> Value for Raw<T> {
    fn write(self, w: &mut Writer) {
        let _ = write!(w.out, "{}", self.0);
    }
}

impl Value for u64 {
    fn write(self, w: &mut Writer) {
        push_u64(&mut w.out, self);
    }
}

impl Value for usize {
    fn write(self, w: &mut Writer) {
        (self as u64).write(w);
    }
}

impl Value for bool {
    fn write(self, w: &mut Writer) {
        w.out
            .extend_from_slice(if self { b"true" } else { b"false" });
    }
}

/// A string as the contents of a JSON string literal (quotes,
/// backslashes and control characters escaped), as [`Writer`] writes it.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut w = Writer::new(Floats::Shortest);
    w.item(s);
    let quoted = w.finish();
    quoted[1..quoted.len() - 1].to_string()
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

    /// Edge documents with what `parse` said of each at `13bcf53`, the
    /// last commit whose `parse` scanned for itself — but for the two
    /// `\u` escapes that are not four hex digits, which it accepted
    /// (`\u+041`) or refused with `u32::from_str_radix`'s message.
    #[test]
    fn edge_tokens_are_accepted_and_rejected_as_before_the_reader() {
        let nested = |n: usize, inner: &str| format!("{}{inner}{}", "[".repeat(n), "]".repeat(n));
        let keyed = |n: usize| format!("{}1{}", "{\"k\":".repeat(n), "}".repeat(n));
        let deep = "nesting deeper than 64 at byte";
        const NOT_HEX: &str = "bad \\u escape: expected four hex digits";
        let table: Vec<(String, Result<(), String>)> = [
            ("-", Err("bad number `-` at byte 0")),
            ("--1", Err("bad number `--1` at byte 0")),
            ("1.", Ok(())),
            ("01", Ok(())),
            ("1e", Err("bad number `1e` at byte 0")),
            ("1e+", Err("bad number `1e+` at byte 0")),
            ("1-2", Err("bad number `1-2` at byte 0")),
            ("1e5", Ok(())),
            ("-0", Ok(())),
            ("1.e5", Ok(())),
            ("1e5.5", Err("bad number `1e5.5` at byte 0")),
            ("+1", Err("unexpected byte 0x2b at 0")),
            (".5", Err("unexpected byte 0x2e at 0")),
            ("inf", Err("unexpected byte 0x69 at 0")),
            ("-inf", Err("bad number `-` at byte 0")),
            ("nan", Err("expected `null` at byte 0")),
            ("tru", Err("expected `true` at byte 0")),
            ("falsey", Err("trailing data at byte 5")),
            ("\"", Err("unterminated string")),
            ("\"\\u12\"", Err("truncated \\u escape")),
            ("\"\\u+041\"", Err(NOT_HEX)),
            ("\"\\ud800\"", Ok(())),
            ("\"\\x\"", Err("bad escape Some(120)")),
            ("\"\\u00é\"", Err(NOT_HEX)),
            ("\"é\\\"日\"", Ok(())),
            ("é", Err("unexpected byte 0xc3 at 0")),
            ("[1,]", Err("unexpected byte 0x5d at 3")),
            ("{\"a\": 1,}", Err("expected object key at byte 8")),
            ("1,", Err("trailing data at byte 1")),
            ("1 2", Err("trailing data at byte 2")),
            ("[1 2]", Err("expected `,` or `]` at byte 3")),
            ("{\"a\" 1}", Err("expected `:` at byte 5")),
            ("{1: 2}", Err("expected object key at byte 1")),
            ("", Err("unexpected end of input")),
            (" ", Err("unexpected end of input")),
            ("[", Err("unexpected end of input")),
            ("{", Err("expected object key at byte 1")),
            ("{\"a\":", Err("unexpected end of input")),
            (" [ ] ", Ok(())),
            ("{ }", Ok(())),
        ]
        .into_iter()
        .map(|(doc, want)| (doc.to_string(), want.map_err(str::to_string)))
        .chain([
            // An empty container never reads a value at its own depth.
            (nested(64, ""), Ok(())),
            (nested(65, ""), Ok(())),
            (nested(66, ""), Err(format!("{deep} 65"))),
            (nested(64, "1"), Ok(())),
            (nested(65, "1"), Err(format!("{deep} 65"))),
            (keyed(64), Ok(())),
            (keyed(65), Err(format!("{deep} 325"))),
        ])
        .collect();
        for (doc, want) in table {
            let shown: String = doc.chars().take(24).collect();
            assert_eq!(parse(&doc).map(drop), want, "parse `{shown}`");
            let mut reader = Reader::new(&doc);
            let skipped = reader.skip().and_then(|()| reader.finish());
            assert_eq!(skipped, want, "skip `{shown}`");
        }
    }

    /// Every token of up to seven bytes over the number alphabet that a
    /// number can start with: the grammar accepts exactly what
    /// `f64::from_str` parses.
    #[test]
    fn the_number_grammar_is_f64_from_str_on_every_short_token() {
        const ALPHABET: &[u8] = b"01.eE+-";
        let mut tokens = vec![b"0".to_vec(), b"1".to_vec(), b"-".to_vec()];
        let mut checked = 0;
        while let Some(token) = tokens.pop() {
            let text = std::str::from_utf8(&token).unwrap();
            let parses = text.parse::<f64>().is_ok();
            assert_eq!(
                float_end(&token, 0) == Some(token.len()),
                parses,
                "`{text}`"
            );
            let mut r = Reader::new(text);
            assert_eq!(r.number().is_ok() && r.finish().is_ok(), parses, "`{text}`");
            let mut r = Reader::new(text);
            assert_eq!(r.skip().is_ok() && r.finish().is_ok(), parses, "`{text}`");
            checked += 1;
            if token.len() < 7 {
                tokens.extend(ALPHABET.iter().map(|&c| [&token[..], &[c]].concat()));
            }
        }
        assert_eq!(checked, 3 * (7usize.pow(7) - 1) / 6);
    }

    #[test]
    fn a_u_escape_is_exactly_four_hex_digits() {
        for (doc, want) in [
            (r#""\u0041""#, Ok("A")),
            (r#""\u00e9\u00E9""#, Ok("éé")),
            (
                r#""\u+041""#,
                Err("bad \\u escape: expected four hex digits"),
            ),
            (
                r#""\u 041""#,
                Err("bad \\u escape: expected four hex digits"),
            ),
            (
                r#""\u04G1""#,
                Err("bad \\u escape: expected four hex digits"),
            ),
            (r#""\u04""#, Err("truncated \\u escape")),
            (r#""\u04"#, Err("truncated \\u escape")),
        ] {
            let want = want.map(str::to_string).map_err(str::to_string);
            let parsed = parse(doc).map(|v| v.as_str().unwrap().to_string());
            assert_eq!(parsed, want, "parse {doc}");
            let read = Reader::new(doc).string().map(Cow::into_owned);
            assert_eq!(read, want, "read {doc}");
        }
    }

    #[test]
    fn typed_reads_borrow_and_name_what_they_expected() {
        let doc = r#" {"plain": "as is", "esc": "a\nb", "n": -12.5e3, "t": true, "z": null} "#;
        let mut seen = Vec::new();
        let mut r = Reader::new(doc);
        r.object(|r, key| {
            match &*key {
                "plain" => assert!(matches!(r.string()?, Cow::Borrowed("as is"))),
                "esc" => assert!(matches!(r.string()?, Cow::Owned(s) if s == "a\nb")),
                "n" => assert_eq!(r.number()?, "-12.5e3"),
                "t" => assert!(r.boolean()?),
                _ => r.null()?,
            }
            seen.push(key.into_owned());
            Ok(())
        })
        .unwrap();
        r.finish().unwrap();
        assert_eq!(seen, ["plain", "esc", "n", "t", "z"]);
        // A value of another type is refused, and nothing is consumed.
        let mut r = Reader::new("[true]");
        let refused = |at| Err(format!("unexpected byte {at}"));
        assert_eq!(r.string().map(drop), refused("0x5b at 0"));
        assert_eq!(r.object(|r, _| r.skip()), refused("0x5b at 0"));
        assert_eq!(r.array(|r| r.number().map(drop)), refused("0x74 at 1"));
    }

    #[test]
    fn writer_places_every_separator_by_layout() {
        let mut w = Writer::new(Floats::Shortest);
        w.object(Layout::Lines)
            .field("s", "q\"\\\n\u{1}\u{2028}é")
            .key("empty")
            .list(Layout::Lines)
            .end()
            .key("rows")
            .list(Layout::Lines)
            .item(Raw("{}"));
        w.object(Layout::Inline)
            .field("n", 7u64)
            .field("ok", true)
            .key("xs")
            .list_of([0.5, 1.0 / 3.0]);
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"s\": \"q\\\"\\\\\\u000a\\u0001\u{2028}é\",\n  \"empty\": [\n  ],\n  \
             \"rows\": [\n    {},\n    {\"n\": 7, \"ok\": true, \"xs\": [0.5, 0.3333333333333333]}\n  ]\n}"
        );
        let parsed = parse(&text).unwrap();
        assert_eq!(
            parsed.get("s").unwrap().as_str(),
            Some("q\"\\\n\u{1}\u{2028}é")
        );
        assert_eq!(escape("a\"b\n"), "a\\\"b\\u000a");
    }

    #[test]
    fn each_float_rule_writes_its_form_and_non_finite_as_null() {
        let written = |floats, x: f64| {
            let mut w = Writer::new(floats);
            w.item(x);
            w.finish()
        };
        let third = 1.0 / 3.0;
        assert_eq!(written(Floats::Decimals(6), third), "0.333333");
        assert_eq!(written(Floats::Decimals(2), 2e-9), "2.00e-9");
        assert_eq!(written(Floats::Shortest, third), "0.3333333333333333");
        assert_eq!(written(Floats::Bits, third), third.to_bits().to_string());
        for rule in [Floats::Decimals(6), Floats::Shortest] {
            assert_eq!(written(rule, f64::NAN), "null");
            assert_eq!(written(rule, f64::NEG_INFINITY), "null");
        }
        assert_eq!(
            written(Floats::Bits, f64::NAN),
            f64::NAN.to_bits().to_string()
        );
    }

    #[test]
    fn the_word_search_stops_where_a_byte_search_stops() {
        // Fill bytes one off each delimiter, with and without the high
        // bit, and zero (a borrow source), around zero, one or two stops.
        let fills = [b'a', 0x00, 0x01, b'!', b'#', b'[', b']', 0xa2, 0xdc, 0xff];
        for len in 0..26 {
            for fill in fills {
                for first in 0..=len {
                    for stops in [[b'"', b'"'], [b'\\', b'"'], [b'"', b'\\']] {
                        let mut b = vec![fill; len];
                        for (at, stop) in [first, first + 3].into_iter().zip(stops) {
                            if at < len {
                                b[at] = stop;
                            }
                        }
                        let want = b.iter().position(|&c| c == b'"' || c == b'\\');
                        assert_eq!(delimiter(&b), want, "{b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn compact_strips_structure_only() {
        let pretty = "{\n  \"a\": [1,\n    2],\n  \"s\": \"x y\"\n}\n";
        assert_eq!(compact(pretty), "{\"a\": [1,2],\"s\": \"x y\"}");
        assert!(parse(&compact(pretty)).is_ok());
    }
}
