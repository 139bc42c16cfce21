//! Dependency-free JSON: a small value model, a strict recursive-descent
//! parser and a push-style writer.
//!
//! Design points that matter for the service:
//!
//! * **Replies are written, not built.** `JsonWriter` appends objects,
//!   arrays, keys and scalars straight to the reply text and places the
//!   commas itself; the server writes every reply through it. The [`Json`]
//!   tree is for parsing, client request bodies and
//!   [`crate::proto::encode_result`], and [`Json::render`] walks the tree
//!   through the same writer. Numbers and strings go through
//!   [`sd_obs::push_json_num`] and [`sd_obs::push_json_str`], the rules the
//!   campaign exports and the log sink share.
//! * **Objects preserve insertion order** (a `Vec` of pairs, not a map), so
//!   every encoder in [`crate::proto`] renders byte-identically run to run.
//! * **Numbers are `f64` parsed with `str::parse`** and rendered as integer
//!   digits when integral (below 1e15) or with Rust's shortest-roundtrip
//!   `Display`, so `parse(render(x)) == x` bit-for-bit — the virtual-clock
//!   equivalence test moves `energy_joules` through the wire and still
//!   compares with `==`.
//! * **The parser never panics** on arbitrary bytes (fuzz corpus test); it
//!   reports a byte offset instead, and recursion is depth-limited.

use sd_obs::{push_json_num, push_json_str, push_u64};
use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`Json::parse`].
pub(crate) const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Ordered key/value pairs; lookup is linear (wire objects are tiny).
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset + message. Never a panic.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    pub pos: usize,
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Empty object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field (builder style; panics on non-objects — encoder bug).
    pub fn set(mut self, key: &str, v: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), v.into())),
            _ => unreachable!("set() on a non-object"),
        }
        self
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer view (exact for values below 2⁵³).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.trunc() == *v && *v <= 9.007_199_254_740_992e15 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    // ----- rendering -----

    /// Deterministic text form (insertion order, shortest-roundtrip floats,
    /// non-finite numbers as `null`).
    pub fn render(&self) -> String {
        let mut w = JsonWriter::default();
        self.write(&mut w);
        w.out
    }

    fn write(&self, w: &mut JsonWriter) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(v) => w.num(*v),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.array(|w| items.iter().for_each(|v| v.write(w))),
            Json::Obj(fields) => w.object(|w| {
                for (k, v) in fields {
                    w.key(k);
                    v.write(w);
                }
            }),
        };
    }

    // ----- parsing -----

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after the JSON document"));
        }
        Ok(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map(Into::into).unwrap_or(Json::Null)
    }
}

/// Writes one JSON document in document order: each key and value writes
/// the comma before it when a sibling precedes it, so callers never do.
#[derive(Default)]
pub(crate) struct JsonWriter {
    out: String,
    /// Whether the next key or value follows a sibling.
    comma: bool,
}

impl JsonWriter {
    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn raw(&mut self, text: &str) -> &mut Self {
        self.sep();
        self.out.push_str(text);
        self
    }

    fn nest(&mut self, open: &str, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.raw(open).comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// An object whose members `body` writes.
    pub(crate) fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest("{", '}', body)
    }

    /// An array whose elements `body` writes.
    pub(crate) fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest("[", ']', body)
    }

    /// A member's key; its value is the next thing written.
    pub(crate) fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        push_json_str(&mut self.out, k);
        self.out.push(':');
        self.comma = false;
        self
    }

    pub(crate) fn num(&mut self, v: f64) -> &mut Self {
        self.sep();
        push_json_num(&mut self.out, v);
        self
    }

    pub(crate) fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        push_json_str(&mut self.out, s);
        self
    }

    pub(crate) fn bool(&mut self, b: bool) -> &mut Self {
        self.raw(if b { "true" } else { "false" })
    }

    pub(crate) fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// One member: `k` and the scalar `v`.
    pub(crate) fn field(&mut self, k: &str, v: impl Scalar) -> &mut Self {
        self.key(k);
        v.write(self);
        self
    }
}

/// The text of the object whose members `body` writes.
pub(crate) fn write_object(body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::default();
    w.object(body);
    w.out
}

/// A value [`JsonWriter::field`] writes: a number (through `f64`, as
/// [`Json::from`] stores it), a string, a bool, or `None` as `null`.
pub(crate) trait Scalar {
    fn write(self, w: &mut JsonWriter);
}

macro_rules! scalar_as_f64 {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write(self, w: &mut JsonWriter) {
                w.num(self as f64);
            }
        }
    )*};
}
scalar_as_f64!(f64, u64, u32, usize);

impl Scalar for bool {
    fn write(self, w: &mut JsonWriter) {
        w.bool(self);
    }
}

impl Scalar for &str {
    fn write(self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write(self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write(w),
            None => {
                w.null();
            }
        }
    }
}

/// `/metrics`' number rule: exactly the bytes of `f64`'s `Display`. An
/// integral value below 2⁵³ in magnitude takes the digit loop, which
/// prints the same (`-0.0` keeps its sign, `-0`, as `Display` does).
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 9_007_199_254_740_992.0 {
        if v.is_sign_negative() {
            out.push('-');
        }
        push_u64(out, v.abs() as u64);
    } else {
        let _ = write!(out, "{v}");
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    self.pos += 1;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp =
                                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 consumed the digits
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("number has no digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("decimal point with no digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("exponent with no digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("number is not ASCII"))?;
        let v: f64 = text
            .parse()
            .map_err(|_| self.err(format!("unparsable number `{text}`")))?;
        if !v.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        let v = Json::parse(r#"{"a": [1, 2], "b": {"c": false}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn renders_deterministically_and_roundtrips() {
        let v = Json::obj()
            .set("id", 7u64)
            .set("rate", 0.125)
            .set("name", "w3 \"quoted\"")
            .set("tags", vec![Json::Null, Json::Bool(true)]);
        let text = v.render();
        assert_eq!(text, r#"{"id":7,"rate":0.125,"name":"w3 \"quoted\"","tags":[null,true]}"#);
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for v in [1.0e17 + 1.0, 0.1 + 0.2, f64::MIN_POSITIVE, 123_456_789.123_456] {
            let text = Json::Num(v).render();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(v), "{text}");
        }
    }

    #[test]
    fn non_finite_renders_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn rejects_malformed_without_panicking() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "1.", "-", "\"\\x\"", "\"\u{1}\"",
            "01a", "{\"a\":1,}", "[]]", "nullx", "\"\\ud800\"", "1e", "--1",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_string())
        );
    }

    #[test]
    fn the_writer_places_every_comma() {
        let text = write_object(|w| {
            w.field("a", 1u64).key("b").array(|w| {
                w.num(-2.5).null().object(|_| {}).array(|w| {
                    w.str("x");
                });
            });
            w.field("c", None::<u64>).field("d", Some(true)).key("e").object(|w| {
                w.field("f", "g\"h");
            });
        });
        assert_eq!(text, r#"{"a":1,"b":[-2.5,null,{},["x"]],"c":null,"d":true,"e":{"f":"g\"h"}}"#);
    }

    /// The JSON number rule as written before the digit loop, which
    /// `sd_obs::push_json_num` keeps.
    fn old_render_num(v: f64) -> String {
        if !v.is_finite() {
            "null".into()
        } else if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    }

    /// Both number rules against their references: JSON against
    /// `old_render_num`, `/metrics` against `Display`.
    fn assert_number_rules(v: f64) {
        assert_eq!(Json::Num(v).render(), old_render_num(v), "JSON {v:?}");
        let mut metrics = String::new();
        push_f64(&mut metrics, v);
        assert_eq!(metrics, format!("{v}"), "/metrics {v:?}");
    }

    #[test]
    fn numbers_at_the_rule_edges_print_as_before() {
        let p53 = 9_007_199_254_740_992.0_f64;
        let above = |v: f64| f64::from_bits(v.to_bits() + 1);
        for v in [
            0.0, -0.0, 1.0, -1.0, 7.0, 0.5, -2.5, 0.1 + 0.2, 1.0 / 3.0, 123_456_789.125,
            1e15 - 1.0, 1e15, -1e15, above(1e15), 1e16, 1e21, 1e300, -1e300,
            p53 - 1.0, p53, above(p53), -p53, -(p53 - 1.0), (p53 as u64 + 1) as f64,
            u64::MAX as f64, i64::MIN as f64, f64::MIN_POSITIVE, 5e-324, -5e-324,
            f64::MAX, f64::MIN, f64::EPSILON, f64::NAN, -f64::NAN, f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_number_rules(v);
        }
        for n in [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, n);
            assert_eq!(s, n.to_string());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        #[test]
        fn numbers_print_as_before(
            bits in proptest::prelude::any::<u64>(),
            int in proptest::prelude::any::<i64>(),
            small in -2_000_000_000_000_000i64..2_000_000_000_000_000,
            frac in -1.0e17f64..1.0e17,
        ) {
            for v in [f64::from_bits(bits), int as f64, small as f64, -(small as f64), frac, frac.trunc()] {
                assert_number_rules(v);
            }
            let mut s = String::new();
            push_u64(&mut s, bits);
            proptest::prop_assert_eq!(s, bits.to_string());
        }
    }

    #[test]
    fn u64_view_guards_range_and_fraction() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
