//! The workspace's one JSON codec.
//!
//! Every document the stack reads or writes goes through this module:
//! run reports, fault plans, sweep specs, campaign reports and manifest
//! lines, engine checkpoints, scheduler snapshots and the audit ledger.
//! The workspace deliberately carries no JSON backend (DESIGN.md §2), so
//! the module is small and has three parts:
//!
//! - **Reading.** [`parse`] is a recursive-descent parser with a fixed
//!   nesting limit ([`MAX_DEPTH`]), so hostile input yields a typed error
//!   instead of a stack overflow. Numbers are kept as their source text,
//!   so `u64` counters round-trip exactly, with no detour through `f64`.
//! - **Writing.** [`Obj`] and [`push_list`] stream into a `String` with
//!   no intermediate tree, in one of four whitespace [`Layout`]s. Floats
//!   follow one of two rules. [`push_float`] writes non-finite values as
//!   `null` (reports). [`push_float_tagged`] writes them as the strings
//!   `"nan"`/`"inf"`/`"-inf"` (checkpoints and scheduler snapshots, which
//!   must restore them). Finite values use Rust's shortest round-trip
//!   `Display` under both rules.
//! - **Decoding.** A [`Cursor`] walks a parsed document and carries the
//!   path from the root, so every shape error names its field
//!   (`` `state.metrics.makespan` is not a number ``).

use std::fmt::{Display, Write as _};

use crate::{ObsError, Result};

/// Deepest array/object nesting [`parse`] accepts. The deepest document
/// the workspace writes (an engine checkpoint) nests nine levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as raw text (parse on demand via
    /// [`as_f64`](Json::as_f64) / [`as_u64`](Json::as_u64)).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match); `None` on other shapes.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A decode cursor at this value; `root` names it in error paths.
    pub fn cursor<'a>(&'a self, root: &str) -> Cursor<'a> {
        Cursor {
            value: self,
            path: root.to_string(),
        }
    }
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns [`ObsError::Parse`] on malformed input or trailing garbage,
/// and [`ObsError::TooDeep`] when arrays/objects nest deeper than
/// [`MAX_DEPTH`].
pub fn parse(src: &str) -> Result<Json> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ObsError {
        ObsError::Parse {
            message: format!("{msg} (at byte {})", self.pos),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(ObsError::TooDeep {
                        limit: MAX_DEPTH,
                        offset: self.pos,
                    });
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Obj(members)),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| self.err("truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| self.err("malformed \\u escape"))?;
                        self.pos += 4;
                        // Surrogates are not produced by our own writer;
                        // map unpairable values to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("unknown escape sequence")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control byte in string")),
                Some(b) => {
                    // Re-assemble multi-byte UTF-8 sequences: the input is
                    // a &str, so continuation bytes are guaranteed valid.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = (start + len).min(self.bytes.len());
                    if let Ok(s) = std::str::from_utf8(&self.bytes[start..end]) {
                        out.push_str(s);
                        self.pos = end;
                    } else {
                        return Err(self.err("invalid UTF-8 in string"));
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if raw.parse::<f64>().is_err() {
            return Err(self.err(&format!("`{raw}` is not a number")));
        }
        Ok(Json::Num(raw.to_string()))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Whitespace layout of one object or array. Each document format fixes
/// its layouts, and the bytes are part of the format: checkpoint digests
/// and job digests hash them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `{"a":1,"b":[1,2]}`: the canonical state encoding of checkpoints
    /// and scheduler snapshots.
    Canonical,
    /// `{"a": 1,"b": [1,2]}`: sub-documents embedded on one line (a run
    /// report inside a campaign job, a fault plan inside a sweep spec).
    Compact,
    /// `{"a": 1, "b": [1, 2]}`: one-line records (campaign jobs, audit
    /// findings).
    Line,
    /// One member per line, indented two spaces per level below the
    /// given level; empty containers stay `{}` / `[]`.
    Pretty(usize),
}

impl Layout {
    fn begin_item(self, out: &mut String, first: bool) {
        if !first {
            out.push_str(if self == Layout::Line { ", " } else { "," });
        }
        if let Layout::Pretty(level) = self {
            newline(out, level + 1);
        }
    }

    fn end(self, out: &mut String, empty: bool) {
        if let Layout::Pretty(level) = self {
            if !empty {
                newline(out, level);
            }
        }
    }

    fn colon(self) -> &'static str {
        match self {
            Layout::Canonical => ":",
            _ => ": ",
        }
    }
}

fn newline(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Streams one JSON object into a `String`: [`open`](Obj::open) writes
/// `{`, each member call writes one `"key": value`, and
/// [`close`](Obj::close) writes `}`.
#[derive(Debug)]
pub struct Obj<'a> {
    out: &'a mut String,
    layout: Layout,
    empty: bool,
}

impl<'a> Obj<'a> {
    /// Opens an object in `layout`.
    pub fn open(out: &'a mut String, layout: Layout) -> Self {
        out.push('{');
        Obj {
            out,
            layout,
            empty: true,
        }
    }

    /// Writes `key` and its separator and returns the buffer, into which
    /// the caller writes exactly one value.
    pub fn key(&mut self, key: &str) -> &mut String {
        self.layout.begin_item(self.out, self.empty);
        self.empty = false;
        push_str(self.out, key);
        self.out.push_str(self.layout.colon());
        self.out
    }

    /// A member whose value is written by [`push_lit`].
    pub fn lit(&mut self, key: &str, value: impl Display) -> &mut Self {
        push_lit(self.key(key), value);
        self
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        push_str(self.key(key), value);
        self
    }

    /// A float member under the `null` rule ([`push_float`]).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        push_float(self.key(key), value);
        self
    }

    /// A float member under the tagged rule ([`push_float_tagged`]).
    pub fn f64_tagged(&mut self, key: &str, value: f64) -> &mut Self {
        push_float_tagged(self.key(key), value);
        self
    }

    /// Writes the closing `}`.
    pub fn close(self) {
        self.layout.end(self.out, self.empty);
        self.out.push('}');
    }
}

/// Writes `items` as a JSON array in `layout`, each element by `each`.
pub fn push_list<T>(
    out: &mut String,
    layout: Layout,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push('[');
    let mut empty = true;
    for item in items {
        layout.begin_item(out, empty);
        empty = false;
        each(out, item);
    }
    layout.end(out, empty);
    out.push(']');
}

/// Writes an integer or boolean by its `Display` form, which is its
/// JSON spelling.
pub fn push_lit(out: &mut String, value: impl Display) {
    let _ = write!(out, "{value}");
}

/// Writes `s` as a quoted JSON string literal.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Writes a float under the report rule: finite values in shortest
/// round-trip form, non-finite values as `null` (JSON has no literal for
/// them; the reading side maps `null` back to NaN).
pub fn push_float(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Writes a float under the state rule: finite values in shortest
/// round-trip form, non-finite values as the strings `"nan"`, `"inf"` or
/// `"-inf"`, so a restore gets back exactly the value that was saved.
pub fn push_float_tagged(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A position in a parsed document: a value plus its path from the root
/// (`state.active[0].threads`), which every decode error names.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    value: &'a Json,
    path: String,
}

impl<'a> Cursor<'a> {
    /// The value under the cursor.
    pub fn value(&self) -> &'a Json {
        self.value
    }

    /// The path from the document root.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// A typed error saying the value is not `expected`.
    pub fn error(&self, expected: &str) -> ObsError {
        ObsError::Parse {
            message: format!("`{}` is not {expected}", self.path),
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self.value, Json::Null)
    }

    /// The member `key` of an object (first match); an error when absent.
    pub fn field(&self, key: &str) -> Result<Cursor<'a>> {
        self.opt(key).ok_or_else(|| ObsError::Parse {
            message: format!("`{}.{key}` is missing", self.path),
        })
    }

    /// The member `key` if the value is an object that has one.
    pub fn opt(&self, key: &str) -> Option<Cursor<'a>> {
        self.value.get(key).map(|value| Cursor {
            value,
            path: format!("{}.{key}", self.path),
        })
    }

    /// Checks that the value is an object whose keys are all in `known`
    /// and none repeats, so a typo or a doubled key is an error naming
    /// it rather than a silently ignored or overwritten setting.
    pub fn strict(&self, known: &[&str]) -> Result<()> {
        let Json::Obj(members) = self.value else {
            return Err(self.error("an object"));
        };
        for (i, (key, _)) in members.iter().enumerate() {
            if !known.contains(&key.as_str()) {
                return Err(ObsError::Parse {
                    message: format!(
                        "unknown key `{key}` in `{}` (expected one of {known:?})",
                        self.path
                    ),
                });
            }
            if members[..i].iter().any(|(k, _)| k == key) {
                return Err(ObsError::Parse {
                    message: format!("duplicate key `{key}` in `{}`", self.path),
                });
            }
        }
        Ok(())
    }

    /// Decodes every element of an array with `each`, in order.
    pub fn list<T>(&self, mut each: impl FnMut(&Cursor<'a>) -> Result<T>) -> Result<Vec<T>> {
        let Json::Arr(items) = self.value else {
            return Err(self.error("an array"));
        };
        let mut out = Vec::with_capacity(items.len());
        // One cursor reused across elements: its path is rewritten in
        // place instead of allocated per element.
        let base = self.path.len();
        let mut at = Cursor {
            value: self.value,
            path: self.path.clone(),
        };
        for (i, item) in items.iter().enumerate() {
            at.value = item;
            at.path.truncate(base);
            let _ = write!(at.path, "[{i}]");
            out.push(each(&at)?);
        }
        Ok(out)
    }

    /// The elements of an array of exactly `N` elements.
    pub fn tuple<const N: usize>(&self) -> Result<[Cursor<'a>; N]> {
        let items = self.list(|c| Ok(c.clone()))?;
        items
            .try_into()
            .map_err(|_| self.error(&format!("an array of {N}")))
    }

    /// Visits every member of an object, in source order: for map-shaped
    /// objects whose keys are data (report counters, gauges, …).
    pub fn entries(&self, mut each: impl FnMut(&'a str, &Cursor<'a>) -> Result<()>) -> Result<()> {
        let Json::Obj(members) = self.value else {
            return Err(self.error("an object"));
        };
        for (key, value) in members {
            each(
                key,
                &Cursor {
                    value,
                    path: format!("{}.{key}", self.path),
                },
            )?;
        }
        Ok(())
    }

    /// The value as a `u64` (a non-negative integer that fits).
    pub fn u64(&self) -> Result<u64> {
        self.value
            .as_u64()
            .ok_or_else(|| self.error("an unsigned integer"))
    }

    /// The value as a `usize` (a non-negative integer that fits).
    pub fn usize(&self) -> Result<usize> {
        self.u64()
            .and_then(|v| usize::try_from(v).map_err(|_| self.error("a usize")))
    }

    /// The value as a `bool`.
    pub fn bool(&self) -> Result<bool> {
        match self.value {
            Json::Bool(b) => Ok(*b),
            _ => Err(self.error("a boolean")),
        }
    }

    /// The value as a string slice.
    pub fn str(&self) -> Result<&'a str> {
        self.value.as_str().ok_or_else(|| self.error("a string"))
    }

    /// A float written under the report rule ([`push_float`]): a number,
    /// or `null` for NaN.
    pub fn f64(&self) -> Result<f64> {
        match self.value {
            Json::Null => Ok(f64::NAN),
            v => v.as_f64().ok_or_else(|| self.error("a number")),
        }
    }

    /// A float written under the state rule ([`push_float_tagged`]): a
    /// number, or one of the strings `"nan"`, `"inf"`, `"-inf"`.
    pub fn f64_tagged(&self) -> Result<f64> {
        match self.value {
            Json::Str(s) if s == "nan" => Ok(f64::NAN),
            Json::Str(s) if s == "inf" => Ok(f64::INFINITY),
            Json::Str(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
            v => v
                .as_f64()
                .ok_or_else(|| self.error("a number or \"nan\"/\"inf\"/\"-inf\"")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": {"b": [1, 2.5, -3e-2]}, "s": "x", "t": true, "n": null}"#).unwrap();
        let arr = v.get("a").and_then(|a| a.get("b")).unwrap();
        match arr {
            Json::Arr(items) => {
                assert_eq!(items[0].as_u64(), Some(1));
                assert_eq!(items[1].as_f64(), Some(2.5));
                assert_eq!(items[2].as_f64(), Some(-0.03));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
    }

    #[test]
    fn large_counters_roundtrip_exactly() {
        let v = parse(r#"{"c": 9007199254740993}"#).unwrap();
        // 2^53 + 1: not representable in f64; the raw-text path keeps it.
        assert_eq!(v.get("c").and_then(Json::as_u64), Some(9007199254740993));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "a \"b\"\\\n\tc — µs\u{1}";
        let mut doc = String::from("{\"k\": ");
        push_str(&mut doc, original);
        doc.push('}');
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_str), Some(original));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse(r#"{"a": 1} trailing"#).is_err());
        assert!(parse(r#"["unterminated"#).is_err());
        assert!(parse(r#"{"a": 1e}"#).is_err());
        assert!(parse("{\"a\": \"\u{1}\"}").is_err());
        assert!(parse(r#"{"seed": 1,, "seed": 2,}"#).is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_a_typed_error() {
        let deep = "[".repeat(200_000);
        assert_eq!(
            parse(&deep),
            Err(ObsError::TooDeep {
                limit: MAX_DEPTH,
                offset: MAX_DEPTH,
            })
        );
        let deep_obj = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(matches!(parse(&deep_obj), Err(ObsError::TooDeep { .. })));
        // Exactly at the limit is still a document.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
    }

    #[test]
    fn cursor_errors_name_the_path() {
        let doc = parse(r#"{"a": {"b": [1, "x"]}, "n": -1}"#).unwrap();
        let root = doc.cursor("doc");
        let err = root
            .field("a")
            .and_then(|a| a.field("b"))
            .and_then(|b| b.list(Cursor::u64))
            .unwrap_err();
        assert!(err.to_string().contains("`doc.a.b[1]`"), "{err}");
        let err = root.field("missing").unwrap_err();
        assert!(
            err.to_string().contains("`doc.missing` is missing"),
            "{err}"
        );
        assert!(root.field("n").and_then(|n| n.u64()).is_err());
        let pair = parse("[1, true]").unwrap();
        let [x, y] = pair.cursor("t").tuple().unwrap();
        assert_eq!((x.u64().unwrap(), y.bool().unwrap()), (1, true));
        assert!(parse("[1]").unwrap().cursor("t").tuple::<2>().is_err());
    }

    fn parse_err(src: &str) -> String {
        match parse(src) {
            Err(e) => e.to_string(),
            Ok(v) => panic!("{src:?} parsed as {v:?}"),
        }
    }

    fn written(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    // -- Reading --------------------------------------------------------

    #[test]
    fn whitespace_around_and_between_tokens_is_allowed() {
        let v = parse(" \t\r\n{ \"a\" :\n[ 1 ,\t2 ] , \"b\" : null }\r\n").unwrap();
        assert_eq!(
            v,
            Json::Obj(vec![
                (
                    "a".into(),
                    Json::Arr(vec![Json::Num("1".into()), Json::Num("2".into())])
                ),
                ("b".into(), Json::Null),
            ])
        );
    }

    #[test]
    fn scalars_are_documents() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("\"s\"").unwrap(), Json::Str("s".into()));
        assert_eq!(parse("-42").unwrap(), Json::Num("-42".into()));
    }

    #[test]
    fn only_one_top_level_document_is_accepted() {
        assert!(parse_err("1 2").contains("trailing characters"));
        assert!(parse_err("{} {}").contains("trailing characters"));
        assert!(parse_err("[]]").contains("trailing characters"));
    }

    #[test]
    fn object_member_order_is_preserved() {
        let Json::Obj(members) = parse(r#"{"b": 1, "a": 2, "c": 3}"#).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "c"]);
    }

    #[test]
    fn repeated_keys_are_kept_and_get_returns_the_first() {
        // The parser keeps every member; rejecting repeats is the job of
        // `Cursor::strict`, which names the key.
        let v = parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert!(matches!(&v, Json::Obj(m) if m.len() == 2));
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn get_on_other_shapes_is_none() {
        for doc in ["[1]", "1", "\"k\"", "null", "true"] {
            assert_eq!(parse(doc).unwrap().get("k"), None, "{doc}");
        }
        assert_eq!(parse("{}").unwrap().get("k"), None);
    }

    #[test]
    fn numbers_keep_their_source_text() {
        for raw in ["1e3", "-0", "0.50", "1E-2", "12345678901234567890"] {
            assert_eq!(parse(raw).unwrap(), Json::Num(raw.into()));
        }
        let v = parse("1e3").unwrap();
        assert_eq!(v.as_f64(), Some(1000.0));
        assert_eq!(v.as_u64(), None, "exponent form is not an integer literal");
    }

    #[test]
    fn as_u64_takes_only_non_negative_integers_that_fit() {
        let u = |s: &str| parse(s).unwrap().as_u64();
        assert_eq!(u("0"), Some(0));
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        assert_eq!(u("18446744073709551616"), None);
        assert_eq!(u("-1"), None);
        assert_eq!(u("1.5"), None);
        assert_eq!(u("1.0"), None);
    }

    #[test]
    fn typed_accessors_reject_other_shapes() {
        let s = parse("\"1\"").unwrap();
        assert_eq!(s.as_f64(), None);
        assert_eq!(s.as_u64(), None);
        let n = parse("1").unwrap();
        assert_eq!(n.as_str(), None);
        assert_eq!(parse("null").unwrap().as_f64(), None);
        assert_eq!(parse("true").unwrap().as_u64(), None);
    }

    #[test]
    fn malformed_numbers_are_errors() {
        for bad in ["-", "1e", "1e+", "--1", "1.2.3", "1-2", "+1", ".5", "0x10"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        assert!(parse_err("[1e]").contains("`1e` is not a number"));
    }

    #[test]
    fn keywords_must_be_spelled_exactly() {
        for bad in [
            "tru", "nul", "fals", "True", "NULL", "nulll", "NaN", "Infinity",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn trailing_commas_are_rejected() {
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a": 1,}"#).is_err());
        assert!(parse("[,1]").is_err());
        assert!(parse("{,}").is_err());
    }

    #[test]
    fn object_keys_must_be_strings_followed_by_a_colon() {
        assert!(parse_err("{1: 2}").contains("expected `\"`"));
        assert!(parse_err(r#"{"a" 1}"#).contains("expected `:`"));
        assert!(parse_err(r#"{"a": 1 "b": 2}"#).contains("expected `,` or `}`"));
        assert!(parse_err("[1 2]").contains("expected `,` or `]`"));
    }

    #[test]
    fn errors_report_the_byte_offset() {
        assert!(parse_err("[1, x]").contains("(at byte 4)"));
        assert!(parse_err("").contains("(at byte 0)"));
        assert!(parse_err("{\"a\": 1} !").contains("(at byte 9)"));
    }

    #[test]
    fn unicode_escapes_decode_in_either_case() {
        let v = parse(r#""\u00e9\u00C9\u0041\u20AC""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{e9}\u{c9}A\u{20ac}"));
    }

    #[test]
    fn all_short_escapes_decode() {
        let v = parse(r#""\"\\\/\n\r\t\b\f""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\n\r\t\u{8}\u{c}"));
    }

    #[test]
    fn lone_surrogate_escape_becomes_the_replacement_char() {
        let v = parse(r#""a\ud800b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\u{fffd}b"));
    }

    #[test]
    fn bad_escapes_are_errors() {
        assert!(parse_err(r#"["\u12", 1]"#).contains("malformed \\u escape"));
        assert!(parse_err(r#""\uzzzz""#).contains("malformed \\u escape"));
        assert!(parse_err(r#""\u12""#).contains("truncated \\u escape"));
        assert!(parse_err(r#""\x""#).contains("unknown escape sequence"));
        assert!(parse_err(r#""\"#).contains("unknown escape sequence"));
    }

    #[test]
    fn multibyte_utf8_passes_through_strings_and_keys() {
        let v = parse(r#"{"µs—€": "𝄞 ü"}"#).unwrap();
        assert_eq!(v.get("µs—€").and_then(Json::as_str), Some("𝄞 ü"));
    }

    #[test]
    fn raw_control_bytes_in_strings_are_errors() {
        assert!(parse_err("\"a\nb\"").contains("raw control byte"));
        assert!(parse_err("\"a\tb\"").contains("raw control byte"));
        // DEL is not a control byte for JSON.
        assert_eq!(parse("\"\u{7f}\"").unwrap().as_str(), Some("\u{7f}"));
    }

    #[test]
    fn the_depth_limit_counts_objects_and_arrays_together() {
        // Alternating `{"k":[{"k":[…]}]}`, innermost an empty array.
        let open = |n: usize| (0..n).map(|i| if i % 2 == 0 { "{\"k\":" } else { "[" });
        let close = |n: usize| {
            (0..n)
                .rev()
                .map(|i| if i % 2 == 0 { "}" } else { "]" })
                .collect::<String>()
        };
        let at_limit = format!(
            "{}{}",
            open(MAX_DEPTH).collect::<String>(),
            close(MAX_DEPTH)
        );
        assert!(parse(&at_limit).is_ok());
        let past = format!(
            "{}{}",
            open(MAX_DEPTH + 1).collect::<String>(),
            close(MAX_DEPTH + 1)
        );
        assert!(matches!(
            parse(&past),
            Err(ObsError::TooDeep {
                limit: MAX_DEPTH,
                ..
            })
        ));
    }

    #[test]
    fn too_deep_offset_is_the_first_bracket_past_the_limit() {
        let src = "[ ".repeat(MAX_DEPTH + 5);
        assert_eq!(
            parse(&src),
            Err(ObsError::TooDeep {
                limit: MAX_DEPTH,
                offset: 2 * MAX_DEPTH,
            })
        );
    }

    #[test]
    fn depth_is_released_when_a_container_closes() {
        // Many siblings, each nested one short of the limit: the depth
        // budget is per path, not per document.
        let branch = format!("{}{}", "[".repeat(MAX_DEPTH - 1), "]".repeat(MAX_DEPTH - 1));
        let doc = format!("[{}]", vec![branch; 50].join(","));
        assert!(parse(&doc).is_ok());
    }

    // -- Writing --------------------------------------------------------

    /// `{"a": 1, "b": [1, 2]}` in `layout`; a pretty list sits one level
    /// below its object.
    fn sample(out: &mut String, layout: Layout) {
        let inner = match layout {
            Layout::Pretty(level) => Layout::Pretty(level + 1),
            other => other,
        };
        let mut o = Obj::open(out, layout);
        o.lit("a", 1);
        push_list(o.key("b"), inner, [1, 2], push_lit);
        o.close();
    }

    #[test]
    fn canonical_layout_has_no_whitespace() {
        assert_eq!(
            written(|o| sample(o, Layout::Canonical)),
            r#"{"a":1,"b":[1,2]}"#
        );
    }

    #[test]
    fn compact_layout_spaces_only_after_colons() {
        assert_eq!(
            written(|o| sample(o, Layout::Compact)),
            r#"{"a": 1,"b": [1,2]}"#
        );
    }

    #[test]
    fn line_layout_spaces_after_colons_and_commas() {
        assert_eq!(
            written(|o| sample(o, Layout::Line)),
            r#"{"a": 1, "b": [1, 2]}"#
        );
    }

    #[test]
    fn pretty_layout_indents_two_spaces_per_level() {
        assert_eq!(
            written(|o| sample(o, Layout::Pretty(0))),
            "{\n  \"a\": 1,\n  \"b\": [\n    1,\n    2\n  ]\n}"
        );
        let nested = written(|out| {
            let mut o = Obj::open(out, Layout::Pretty(0));
            let mut inner = Obj::open(o.key("inner"), Layout::Pretty(1));
            inner.lit("x", true);
            inner.close();
            o.close();
        });
        assert_eq!(nested, "{\n  \"inner\": {\n    \"x\": true\n  }\n}");
    }

    #[test]
    fn empty_containers_stay_closed_in_every_layout() {
        for layout in [
            Layout::Canonical,
            Layout::Compact,
            Layout::Line,
            Layout::Pretty(0),
            Layout::Pretty(3),
        ] {
            assert_eq!(written(|o| Obj::open(o, layout).close()), "{}");
            assert_eq!(
                written(|o| push_list(o, layout, std::iter::empty::<u8>(), |_, _| {})),
                "[]"
            );
        }
    }

    #[test]
    fn every_layout_parses_back_to_the_same_tree() {
        let trees: Vec<Json> = [
            Layout::Canonical,
            Layout::Compact,
            Layout::Line,
            Layout::Pretty(0),
            Layout::Pretty(2),
        ]
        .into_iter()
        .map(|layout| parse(&written(|o| sample(o, layout))).unwrap())
        .collect();
        assert!(trees.windows(2).all(|w| w[0] == w[1]), "{trees:?}");
    }

    #[test]
    fn obj_lit_writes_integers_and_booleans_by_display() {
        let doc = written(|out| {
            let mut o = Obj::open(out, Layout::Canonical);
            o.lit("max", u64::MAX)
                .lit("min", i64::MIN)
                .lit("t", true)
                .lit("f", false);
            o.close();
        });
        assert_eq!(
            doc,
            r#"{"max":18446744073709551615,"min":-9223372036854775808,"t":true,"f":false}"#
        );
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("max").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn push_str_escapes_exactly_quotes_backslashes_and_controls() {
        assert_eq!(
            written(|o| push_str(o, "a\"b\\c\n\r\t\u{1}\u{1f}")),
            r#""a\"b\\c\n\r\t\u0001\u001f""#
        );
        // Slash, DEL and non-ASCII are written as they are.
        assert_eq!(written(|o| push_str(o, "/\u{7f}é")), "\"/\u{7f}é\"");
    }

    #[test]
    fn object_keys_are_escaped_like_values() {
        let doc = written(|out| {
            let mut o = Obj::open(out, Layout::Canonical);
            o.str("k\"\n", "v");
            o.close();
        });
        assert_eq!(doc, r#"{"k\"\n":"v"}"#);
        assert_eq!(
            parse(&doc).unwrap().get("k\"\n"),
            Some(&Json::Str("v".into()))
        );
    }

    const FINITE: [f64; 10] = [
        0.1,
        1.0,
        -2.5,
        0.0,
        -0.0,
        1e300,
        1e-7,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
    ];

    #[test]
    fn finite_floats_roundtrip_bit_for_bit_under_both_rules() {
        for v in FINITE {
            for rule in [push_float, push_float_tagged] {
                let text = written(|o| rule(o, v));
                let back = parse(&text).unwrap().as_f64().unwrap();
                assert_eq!(back.to_bits(), v.to_bits(), "{v:e} wrote {text}");
            }
        }
    }

    #[test]
    fn finite_floats_use_the_shortest_display_form() {
        assert_eq!(written(|o| push_float(o, 0.1)), "0.1");
        assert_eq!(written(|o| push_float(o, 1.0)), "1");
        assert_eq!(written(|o| push_float(o, -0.0)), "-0");
        assert_eq!(written(|o| push_float_tagged(o, 2.5e-3)), "0.0025");
    }

    #[test]
    fn the_report_rule_writes_non_finite_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(written(|o| push_float(o, v)), "null");
        }
    }

    #[test]
    fn the_state_rule_tags_non_finite_values() {
        assert_eq!(written(|o| push_float_tagged(o, f64::NAN)), r#""nan""#);
        assert_eq!(written(|o| push_float_tagged(o, -f64::NAN)), r#""nan""#);
        assert_eq!(written(|o| push_float_tagged(o, f64::INFINITY)), r#""inf""#);
        assert_eq!(
            written(|o| push_float_tagged(o, f64::NEG_INFINITY)),
            r#""-inf""#
        );
    }

    #[test]
    fn the_state_rule_restores_non_finite_values() {
        let doc = written(|out| {
            let mut o = Obj::open(out, Layout::Canonical);
            o.f64_tagged("n", f64::NAN)
                .f64_tagged("p", f64::INFINITY)
                .f64_tagged("m", f64::NEG_INFINITY);
            o.close();
        });
        let v = parse(&doc).unwrap();
        let c = v.cursor("s");
        assert!(c.field("n").unwrap().f64_tagged().unwrap().is_nan());
        assert_eq!(c.field("p").unwrap().f64_tagged(), Ok(f64::INFINITY));
        assert_eq!(c.field("m").unwrap().f64_tagged(), Ok(f64::NEG_INFINITY));
    }

    #[test]
    fn the_report_rule_reads_null_back_as_nan() {
        let doc = written(|out| {
            let mut o = Obj::open(out, Layout::Line);
            o.f64("x", f64::INFINITY).f64("y", 3.5);
            o.close();
        });
        assert_eq!(doc, r#"{"x": null, "y": 3.5}"#);
        let v = parse(&doc).unwrap();
        let c = v.cursor("r");
        assert!(c.field("x").unwrap().f64().unwrap().is_nan());
        assert_eq!(c.field("y").unwrap().f64(), Ok(3.5));
    }

    #[test]
    fn the_two_float_decoders_do_not_accept_each_others_spelling() {
        let v = parse(r#"{"tag": "inf", "word": "Infinity"}"#).unwrap();
        let c = v.cursor("d");
        let err = c.field("tag").unwrap().f64().unwrap_err();
        assert!(err.to_string().contains("`d.tag` is not a number"), "{err}");
        let err = c.field("word").unwrap().f64_tagged().unwrap_err();
        assert!(
            err.to_string().contains("`d.word` is not a number or"),
            "{err}"
        );
        assert!(parse("null").unwrap().cursor("n").f64_tagged().is_err());
    }

    // -- Decoding -------------------------------------------------------

    #[test]
    fn cursor_paths_extend_with_keys_and_indices() {
        let v = parse(r#"{"a": [{"b": 1}, {"b": 2}]}"#).unwrap();
        let root = v.cursor("doc");
        assert_eq!(root.path(), "doc");
        let a = root.field("a").unwrap();
        assert_eq!(a.path(), "doc.a");
        let paths = a
            .list(|item| item.field("b").map(|b| b.path().to_string()))
            .unwrap();
        assert_eq!(paths, ["doc.a[0].b", "doc.a[1].b"]);
    }

    #[test]
    fn strict_accepts_any_subset_of_the_known_keys() {
        let known = ["a", "b", "c"];
        for doc in ["{}", r#"{"b": 1}"#, r#"{"c": 1, "a": 2}"#] {
            assert!(
                parse(doc).unwrap().cursor("d").strict(&known).is_ok(),
                "{doc}"
            );
        }
    }

    #[test]
    fn strict_names_an_unknown_key_and_its_object() {
        let v = parse(r#"{"x": {"a": 1, "typo": 2}}"#).unwrap();
        let err = v
            .cursor("doc")
            .field("x")
            .unwrap()
            .strict(&["a"])
            .unwrap_err();
        assert!(
            err.to_string().contains("unknown key `typo` in `doc.x`"),
            "{err}"
        );
    }

    #[test]
    fn strict_catches_repeats_that_are_not_adjacent() {
        let v = parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap();
        let err = v.cursor("doc").strict(&["a", "b"]).unwrap_err();
        assert!(
            err.to_string().contains("duplicate key `a` in `doc`"),
            "{err}"
        );
    }

    #[test]
    fn strict_rejects_non_objects() {
        let err = parse("[]").unwrap().cursor("doc").strict(&[]).unwrap_err();
        assert_eq!(err.to_string(), "`doc` is not an object");
    }

    #[test]
    fn opt_and_field_on_non_objects() {
        let v = parse("[1]").unwrap();
        let c = v.cursor("doc");
        assert!(c.opt("k").is_none());
        assert_eq!(c.field("k").unwrap_err().to_string(), "`doc.k` is missing");
    }

    #[test]
    fn list_rejects_non_arrays_and_stops_at_the_first_bad_element() {
        let err = parse("{}")
            .unwrap()
            .cursor("xs")
            .list(Cursor::u64)
            .unwrap_err();
        assert_eq!(err.to_string(), "`xs` is not an array");
        let mut seen = 0;
        let err = parse(r#"[1, "two", "three"]"#)
            .unwrap()
            .cursor("xs")
            .list(|c| {
                seen += 1;
                c.u64()
            })
            .unwrap_err();
        assert_eq!(seen, 2);
        assert_eq!(err.to_string(), "`xs[1]` is not an unsigned integer");
        assert_eq!(
            parse("[]").unwrap().cursor("xs").list(Cursor::u64),
            Ok(vec![])
        );
    }

    #[test]
    fn tuple_rejects_longer_arrays_and_non_arrays() {
        let err = parse("[1, 2, 3]")
            .unwrap()
            .cursor("p")
            .tuple::<2>()
            .unwrap_err();
        assert_eq!(err.to_string(), "`p` is not an array of 2");
        assert!(parse("{}").unwrap().cursor("p").tuple::<0>().is_err());
        assert!(parse("[]").unwrap().cursor("p").tuple::<0>().is_ok());
    }

    #[test]
    fn entries_visit_members_in_source_order_with_paths() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let mut seen = Vec::new();
        v.cursor("m")
            .entries(|k, c| {
                seen.push((k.to_string(), c.path().to_string(), c.u64()?));
                Ok(())
            })
            .unwrap();
        assert_eq!(
            seen,
            [
                ("z".to_string(), "m.z".to_string(), 1),
                ("a".to_string(), "m.a".to_string(), 2)
            ]
        );
    }

    #[test]
    fn entries_propagate_the_first_error_and_reject_non_objects() {
        let v = parse(r#"{"ok": 1, "bad": true, "never": 2}"#).unwrap();
        let mut visited = 0;
        let err = v
            .cursor("m")
            .entries(|_, c| {
                visited += 1;
                c.u64().map(drop)
            })
            .unwrap_err();
        assert_eq!(visited, 2);
        assert_eq!(err.to_string(), "`m.bad` is not an unsigned integer");
        assert!(parse("[]")
            .unwrap()
            .cursor("m")
            .entries(|_, _| Ok(()))
            .is_err());
    }

    #[test]
    fn integer_decoders_reject_fractions_negatives_and_overflow() {
        for bad in ["-1", "1.5", "1e2", "18446744073709551616", "\"7\"", "null"] {
            let v = parse(bad).unwrap();
            let err = v.cursor("n").u64().unwrap_err();
            assert_eq!(err.to_string(), "`n` is not an unsigned integer", "{bad}");
            assert!(v.cursor("n").usize().is_err(), "{bad}");
        }
        let max = parse("18446744073709551615").unwrap();
        assert_eq!(max.cursor("n").u64(), Ok(u64::MAX));
    }

    #[test]
    fn bool_and_str_decoders_reject_other_shapes() {
        let one = parse("1").unwrap();
        assert_eq!(
            one.cursor("b").bool().unwrap_err().to_string(),
            "`b` is not a boolean"
        );
        assert_eq!(
            one.cursor("s").str().unwrap_err().to_string(),
            "`s` is not a string"
        );
        assert_eq!(parse("false").unwrap().cursor("b").bool(), Ok(false));
        assert_eq!(parse("\"\"").unwrap().cursor("s").str(), Ok(""));
    }

    #[test]
    fn is_null_holds_only_for_null() {
        assert!(parse("null").unwrap().cursor("v").is_null());
        for doc in ["0", "false", "\"null\"", "[]", "{}"] {
            assert!(!parse(doc).unwrap().cursor("v").is_null(), "{doc}");
        }
    }
}
