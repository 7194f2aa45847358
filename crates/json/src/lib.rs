//! Minimal hand-rolled JSON, shared across the workspace instead of a
//! registry dependency.
//!
//! Two layers, each grown from a previously duplicated hand-rolled
//! implementation:
//!
//! * **Escaping and value rendering** ([`escape`], [`write_f64`]) — the
//!   exact behaviour of the `carbon-trace` JSONL exporter (non-finite
//!   floats serialize as `null` so every emitted line stays valid
//!   JSON).
//! * **A full value tree** ([`Json`] with [`Json::parse`] and
//!   [`Json::render`]) — the workspace's one JSON reader: the
//!   `carbon-serve` protocol's requests and responses, the bench
//!   harness's rows and `carbon-bench`'s trace lines. Object fields
//!   keep insertion order, so a rendered response is deterministic
//!   byte for byte.
//!
//! The parser is a strict recursive-descent reader of RFC 8259 JSON:
//! `NaN`/`Infinity` literals, trailing garbage, unterminated strings,
//! and pathological nesting (depth > 96) are all rejected with the
//! byte offset of the offence.

#![deny(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    clippy::missing_panics_doc,
    clippy::cast_precision_loss
)]

use std::fmt::Write as _;

/// Maximum nesting depth [`Json::parse`] accepts.
const MAX_DEPTH: usize = 96;

/// Escapes a string for inclusion in a JSON literal (without the
/// surrounding quotes). Matches the trace exporter's historical output
/// byte for byte: `"`, `\`, newline and tab get two-character escapes,
/// other control characters become `\u00xx`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Appends the escaped form of `s` (no quotes) to `out`.
pub fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Appends `v` as a JSON number, or `null` when it is not finite —
/// NaN and infinities have no JSON representation, and an invalid
/// literal would poison the whole line. Finite values use Rust's
/// shortest round-trip formatting, so `parse(render(v)) == v`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// FNV-1a 64-bit hash — the workspace's standard content digest.
///
/// It fingerprints `carbon-bench`'s deterministic report output, derives
/// `carbon-serve`'s content-addressed cache keys from canonical JSON
/// renderings, and digests the serve determinism goldens. It lives
/// here, below both crates, so neither depends on the other for it.
/// `carbon_bench::Fnv` re-exports this type, so every digest in the
/// workspace is the same algorithm with the same reference vectors.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// Starts a hash at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs an `f64`'s exact bit pattern (big-endian), so two
    /// digests match iff every float matches bitwise.
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_be_bytes());
    }

    /// The hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A parsed or constructed JSON value. Object fields keep insertion
/// order — rendering is deterministic and round-trips through
/// [`Json::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent, within `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Error from [`Json::parse`]: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offence in the input.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Builds an empty object (append fields with [`Json::push`]).
    pub fn obj() -> Self {
        Self::Obj(Vec::new())
    }

    /// Appends a field to an object and returns `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Self::Obj(fields) => fields.push((key.to_owned(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
        self
    }

    /// Looks up an object field by key (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `f64`, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Int(v) => Some(*v as f64),
            Self::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace). Non-finite
    /// floats render as `null`; object field order is preserved.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64);
        self.render_into(&mut out);
        out
    }

    /// Appends the compact rendering of the value to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Self::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Self::Num(v) => write_f64(out, *v),
            Self::Str(s) => {
                out.push('"');
                push_escaped(out, s);
                out.push('"');
            }
            Self::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Self::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    push_escaped(out, k);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders the value in *canonical* form: compact like
    /// [`Json::render`], but with object keys in sorted (byte-wise)
    /// order at every nesting level. Two trees that differ only in
    /// object field order render identically, so the canonical form is
    /// the right input for content addressing. Duplicate keys keep
    /// their relative order (a stable sort), matching [`Json::get`]'s
    /// first-occurrence semantics.
    pub fn canonical_render(&self) -> String {
        let mut out = String::with_capacity(64);
        self.canonical_render_into(&mut out);
        out
    }

    /// Appends the canonical rendering of the value to `out`.
    pub fn canonical_render_into(&self, out: &mut String) {
        match self {
            Self::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.canonical_render_into(out);
                }
                out.push(']');
            }
            Self::Obj(fields) => {
                let mut order: Vec<usize> = (0..fields.len()).collect();
                order.sort_by(|&a, &b| fields[a].0.cmp(&fields[b].0));
                out.push('{');
                for (i, &idx) in order.iter().enumerate() {
                    let (k, v) = &fields[idx];
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    push_escaped(out, k);
                    out.push_str("\":");
                    v.canonical_render_into(out);
                }
                out.push('}');
            }
            scalar => scalar.render_into(out),
        }
    }

    /// FNV-1a 64 over the canonical rendering — the content-addressed
    /// identity of the value. Field order cannot move the key; numeric
    /// *representation* can (`1` and `1.0` are distinct trees), which
    /// is the conservative direction for a cache: equal keys imply
    /// equal values, never the reverse.
    pub fn canonical_key(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(self.canonical_render().as_bytes());
        h.finish()
    }

    /// Parses one JSON document, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] with the byte offset for malformed input.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

macro_rules! json_from {
    ($($ty:ty => |$v:ident| $expr:expr),* $(,)?) => {$(
        impl From<$ty> for Json {
            fn from($v: $ty) -> Self { $expr }
        }
    )*};
}
json_from!(
    bool => |v| Json::Bool(v),
    i64 => |v| Json::Int(v),
    i32 => |v| Json::Int(v.into()),
    u32 => |v| Json::Int(v.into()),
    f64 => |v| Json::Num(v),
    &str => |v| Json::Str(v.to_owned()),
    String => |v| Json::Str(v),
    Vec<Json> => |v| Json::Arr(v),
);

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        i64::try_from(v).map_or(Self::Num(v as f64), Self::Int)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        i64::try_from(v).map_or(Self::Num(v as f64), Self::Int)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 96 levels"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(self.err(format!("unexpected byte '{}'", b.escape_ascii()))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // consume opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the plain run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("input is &str, runs stay on char boundaries"),
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: require a paired \uXXXX.
                                if !self.eat("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(
                                self.err(format!("invalid escape '\\{}'", other.escape_ascii()))
                            )
                        }
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("non-ASCII \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let literal =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number literals are ASCII");
        if !is_float {
            if let Ok(v) = literal.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        match literal.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(ParseError {
                offset: start,
                reason: format!("number '{literal}' overflows to non-finite"),
            }),
            Err(_) => Err(ParseError {
                offset: start,
                reason: format!("malformed number '{literal}'"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_matches_trace_exporter_behaviour() {
        assert_eq!(escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(escape("\u{01}"), "\\u0001");
        assert_eq!(escape("plain µ text"), "plain µ text");
    }

    #[test]
    fn write_f64_round_trips_and_nulls_non_finite() {
        let mut s = String::new();
        write_f64(&mut s, 2.5e-10);
        assert_eq!(s, "2.5e-10");
        assert_eq!(s.parse::<f64>().unwrap().to_bits(), 2.5e-10_f64.to_bits());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = String::new();
            write_f64(&mut s, bad);
            assert_eq!(s, "null");
        }
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("2.5e3").unwrap(), Json::Num(2500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn round_trips_nested_objects_byte_for_byte() {
        let doc = Json::obj()
            .push("id", "job-1")
            .push("kind", "dc_sweep")
            .push("params", Json::obj().push("from", 0.0).push("to", 1.5))
            .push("freqs", Json::Arr(vec![Json::Num(1e3), Json::Int(7)]))
            .push("note", "line1\nline2\t\"quoted\"");
        let rendered = doc.render();
        let reparsed = Json::parse(&rendered).expect("own output parses");
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.render(), rendered, "stable under re-render");
    }

    #[test]
    fn escape_sequences_round_trip() {
        let parsed = Json::parse("\"a\\u0041\\n\\t\\\\\\\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(parsed, Json::Str("aA\n\t\\\"é😀".into()));
        // And back through the writer (escapes re-render in canonical form).
        let rendered = parsed.render();
        assert_eq!(Json::parse(&rendered).unwrap(), parsed);
    }

    #[test]
    fn rejects_non_finite_numbers() {
        // Not JSON at all: the tokens fail to parse...
        assert!(Json::parse("NaN").is_err());
        assert!(Json::parse("Infinity").is_err());
        assert!(Json::parse("-Infinity").is_err());
        // ...and literals that overflow f64 are rejected, not folded to inf.
        assert!(Json::parse("1e999").is_err());
        // The writer never emits them either.
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "1 2",
            "tru",
            "\"\\ud800 lone\"",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?}");
        }
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(Json::parse(&deep).is_err(), "depth limit");
    }

    #[test]
    fn accessors_and_conversions() {
        let doc = Json::parse("{\"n\":3,\"x\":1.5,\"s\":\"v\",\"b\":false,\"a\":[1],\"z\":null}")
            .unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("x").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("v"));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doc.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("z"), Some(&Json::Null));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::from(3usize), Json::Int(3));
        assert_eq!(Json::from(u64::MAX), Json::Num(u64::MAX as f64));
    }

    #[test]
    fn large_integers_keep_integer_rendering() {
        let v = Json::parse("9007199254740993").unwrap();
        assert_eq!(v, Json::Int(9_007_199_254_740_993));
        assert_eq!(v.render(), "9007199254740993");
    }

    #[test]
    fn fnv_reference_vectors() {
        let digest = |bytes: &[u8]| {
            let mut h = Fnv::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn canonical_render_sorts_keys_recursively() {
        let a = Json::parse("{\"b\":{\"y\":2,\"x\":1},\"a\":[{\"q\":0,\"p\":9}]}").unwrap();
        assert_eq!(
            a.canonical_render(),
            "{\"a\":[{\"p\":9,\"q\":0}],\"b\":{\"x\":1,\"y\":2}}"
        );
        // Scalars and arrays are untouched by canonicalisation.
        let arr = Json::parse("[3,1,2]").unwrap();
        assert_eq!(arr.canonical_render(), arr.render());
    }

    #[test]
    fn canonical_key_ignores_field_order_but_not_values() {
        let first = Json::parse("{\"kind\":\"op\",\"deck\":{\"r\":1.5,\"v\":2.0}}").unwrap();
        let reordered = Json::parse("{\"deck\":{\"v\":2.0,\"r\":1.5},\"kind\":\"op\"}").unwrap();
        assert_eq!(first.canonical_key(), reordered.canonical_key());
        let changed = Json::parse("{\"deck\":{\"v\":2.0,\"r\":1.25},\"kind\":\"op\"}").unwrap();
        assert_ne!(first.canonical_key(), changed.canonical_key());
        // Integer vs float representation is key-distinct by design.
        let as_int = Json::parse("{\"v\":1}").unwrap();
        let as_float = Json::parse("{\"v\":1.0}").unwrap();
        assert_ne!(as_int.canonical_key(), as_float.canonical_key());
    }
}
