//! A small, deterministic JSON value: writer and parser.
//!
//! The workspace vendors no serialization framework, so the machine
//! readable results layer ([`report::json`](crate::report::json)) is
//! built on this hand-rolled value type. Two properties matter more
//! than generality:
//!
//! * **Determinism** — object members keep insertion order, floats
//!   print with Rust's shortest-roundtrip `Display`, and the writer
//!   has exactly one output for a given value. Equal values always
//!   serialize to identical bytes, which is what lets the snapshot
//!   tests demand byte-identical output across thread counts.
//! * **Round-tripping** — `parse(write(v))` reproduces `v` for every
//!   value the report layer emits (integers stay integers, floats
//!   reparse to the same bits).

use std::fmt;

/// A JSON value. Objects preserve insertion order; numbers keep their
/// integer-ness so `u64` counters survive a round trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case: counters, cycles).
    Uint(u64),
    /// A negative integer.
    Int(i64),
    /// A float. Non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object.
    pub fn object() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// Append a member to an object (panics on non-objects: builder
    /// misuse is a bug, not data).
    pub fn set(&mut self, key: &str, value: JsonValue) -> &mut Self {
        match self {
            JsonValue::Object(members) => members.push((key.to_string(), value)),
            other => panic!("set {key:?} on non-object {other:?}"),
        }
        self
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` (accepts `Uint` and integral `Float`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::Uint(n) => Some(n),
            JsonValue::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// The value as an `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            JsonValue::Int(n) => Some(n),
            JsonValue::Uint(n) => i64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Uint(n) => Some(n as f64),
            JsonValue::Int(n) => Some(n as f64),
            JsonValue::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Serialize with 2-space indentation and a trailing newline. The
    /// output is a pure function of the value.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialize onto one line with no whitespace — the JSONL form
    /// streamed by the campaign service, where one record must be one
    /// line. Same determinism guarantee as
    /// [`to_pretty_string`](JsonValue::to_pretty_string): equal values
    /// produce identical bytes.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Uint(n) => out.push_str(&n.to_string()),
            JsonValue::Int(n) => out.push_str(&n.to_string()),
            JsonValue::Float(f) => {
                if f.is_finite() {
                    out.push_str(&f.to_string());
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Uint(n) => out.push_str(&n.to_string()),
            JsonValue::Int(n) => out.push_str(&n.to_string()),
            JsonValue::Float(f) => {
                if f.is_finite() {
                    // Rust's Display is shortest-roundtrip; integral
                    // floats print without a dot ("1"), which JSON
                    // reads back as an integer — as_f64 bridges it.
                    out.push_str(&f.to_string());
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse error with byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest array/object nesting [`parse`] accepts. The writer
/// emits at most five levels; the cap keeps the recursive descent from
/// overflowing the stack on hostile input.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Accepts exactly the subset the writer emits
/// (all of standard JSON minus non-finite numbers), nested at most
/// [`MAX_DEPTH`] deep.
///
/// # Errors
///
/// Returns a [`ParseError`] with byte offset on malformed input,
/// nesting deeper than [`MAX_DEPTH`], or trailing garbage.
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error("nesting too deep"));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            // The writer only emits \u for control
                            // chars; surrogate pairs are out of scope.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("non-scalar \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let integer = if float {
            None
        } else if text.starts_with('-') {
            text.parse::<i64>().ok().map(JsonValue::Int)
        } else {
            text.parse::<u64>().ok().map(JsonValue::Uint)
        };
        // An integer beyond 64 bits is how the writer prints a large
        // integral float (`1e20` as `100000000000000000000`), so it
        // reads back as one.
        integer
            .or_else(|| text.parse::<f64>().ok().map(JsonValue::Float))
            .ok_or_else(|| self.error("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &JsonValue) -> JsonValue {
        parse(&v.to_pretty_string()).expect("round trip")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            JsonValue::Null,
            JsonValue::Bool(true),
            JsonValue::Bool(false),
            JsonValue::Uint(0),
            JsonValue::Uint(u64::MAX),
            JsonValue::Int(-42),
            JsonValue::Str("hello \"quoted\" \\ \n\t".into()),
            JsonValue::Str("µop-cache §7.4".into()),
        ] {
            assert_eq!(round_trip(&v), v, "{v:?}");
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.5, 0.9921875, 1234.5678, -0.001, 1e-9, 123456789.25] {
            let v = JsonValue::Float(f);
            match round_trip(&v) {
                JsonValue::Float(g) => assert_eq!(g.to_bits(), f.to_bits()),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn boundary_integers_and_large_floats_round_trip() {
        for v in [JsonValue::Int(i64::MIN), JsonValue::Uint(u64::MAX)] {
            assert_eq!(round_trip(&v), v);
        }
        for f in [1e20, -1e20, 1e300, f64::MAX, f64::MIN] {
            assert_eq!(round_trip(&JsonValue::Float(f)).as_f64(), Some(f));
        }
        for bad in ["-", "--1", "1-", "+1"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn integral_floats_reparse_as_integers() {
        // 1.0 prints as "1"; as_f64 recovers the numeric value.
        let v = JsonValue::Float(1.0);
        assert_eq!(round_trip(&v).as_f64(), Some(1.0));
    }

    #[test]
    fn compact_form_is_one_line_and_reparses() {
        let mut obj = JsonValue::object();
        obj.set("schema", JsonValue::Str("phantom-bench/v1".into()))
            .set("accuracy", JsonValue::Float(0.9921875))
            .set("probes", JsonValue::Uint(512))
            .set(
                "tags",
                JsonValue::Array(vec![JsonValue::Uint(1), JsonValue::Null]),
            )
            .set("empty", JsonValue::Array(vec![]))
            .set("hole", JsonValue::Object(vec![]));
        let s = obj.to_compact_string();
        assert!(!s.contains('\n') && !s.contains(' '), "{s}");
        assert_eq!(parse(&s).expect("compact form parses"), obj);
        assert_eq!(
            s,
            "{\"schema\":\"phantom-bench/v1\",\"accuracy\":0.9921875,\
             \"probes\":512,\"tags\":[1,null],\"empty\":[],\"hole\":{}}"
        );
    }

    #[test]
    fn objects_keep_insertion_order() {
        let mut obj = JsonValue::object();
        obj.set("zebra", JsonValue::Uint(1))
            .set("apple", JsonValue::Uint(2));
        let s = obj.to_pretty_string();
        assert!(s.find("zebra").unwrap() < s.find("apple").unwrap());
        assert_eq!(round_trip(&obj), obj);
    }

    #[test]
    fn nested_structures_round_trip() {
        let mut inner = JsonValue::object();
        inner.set("hits", JsonValue::Uint(997));
        let v = JsonValue::Array(vec![
            inner,
            JsonValue::Array(vec![]),
            JsonValue::Object(vec![]),
            JsonValue::Null,
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn writer_is_deterministic() {
        let mut obj = JsonValue::object();
        obj.set("a", JsonValue::Float(0.125))
            .set("b", JsonValue::Array(vec![JsonValue::Uint(1)]));
        assert_eq!(obj.to_pretty_string(), obj.clone().to_pretty_string());
        assert!(obj.to_pretty_string().ends_with('\n'));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.at, MAX_DEPTH);
        // Far past the cap, unterminated, in objects too.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn accessors_match_variants() {
        assert_eq!(JsonValue::Uint(7).as_u64(), Some(7));
        assert_eq!(JsonValue::Uint(7).as_i64(), Some(7));
        assert_eq!(JsonValue::Int(-7).as_i64(), Some(-7));
        assert_eq!(JsonValue::Float(7.0).as_u64(), Some(7));
        assert_eq!(JsonValue::Float(7.5).as_u64(), None);
        assert_eq!(JsonValue::Str("x".into()).as_str(), Some("x"));
        assert_eq!(JsonValue::Bool(true).as_bool(), Some(true));
        assert!(JsonValue::Null.is_null());
        let mut obj = JsonValue::object();
        obj.set("k", JsonValue::Uint(1));
        assert_eq!(obj.get("k").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(obj.get("missing"), None);
    }
}
