//! Dependency-free JSON values, writer, and parser.
//!
//! The harness emits machine-readable reports and the trace subsystem exports
//! event streams; both need JSON without pulling `serde_json` from the
//! registry (the reference host resolves crates offline). This module carries
//! the small subset the repository needs: an order-preserving value type, a
//! [`json!`](crate::json!) constructor macro for flat objects and arrays, a
//! [`ToJson`] conversion trait, escaped compact/pretty writers, and a strict
//! recursive-descent parser for round-tripping.

use std::fmt::Write as _;
use std::ops::Index;

/// A JSON value. Object keys keep insertion order (report sections render in
/// the order the experiments emit them).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    /// `true` for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a.as_slice()),
            _ => None,
        }
    }

    /// The value as ordered key/value pairs, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(o) => Some(o.as_slice()),
            _ => None,
        }
    }

    /// Member lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(o) => o.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Encode a float slice as a JSON array. Non-finite entries degrade to
    /// `null` on write, like every other number in this module.
    pub fn from_f64s(values: &[f64]) -> Json {
        Json::Array(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Decode an all-number array into a `Vec<f64>`. `None` if the value is
    /// not an array or any element is not a number — a partial decode would
    /// silently misalign per-repetition samples against their count.
    pub fn as_f64_array(&self) -> Option<Vec<f64>> {
        match self {
            Json::Array(a) => a.iter().map(Json::as_f64).collect(),
            _ => None,
        }
    }

    /// Append the compact single-line rendering (what `to_string` yields)
    /// to `out`, with no intermediate `String`.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_f64(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, d| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, d);
                });
            }
        }
    }

    /// Parse JSON text. Returns a descriptive error on malformed input,
    /// including trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if len > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
    }
    out.push(close);
}

/// JSON number formatting: integral values print without a fraction; other
/// finite values use Rust's shortest round-trip representation; non-finite
/// values have no JSON encoding and degrade to `null`.
fn write_f64(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                pairs.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // The ordinary run up to the next quote, escape or control byte goes
        // over as one slice: the input is a `&str` and the delimiters are
        // ASCII, so the run begins and ends on scalar boundaries.
        let run = *pos;
        while matches!(b.get(*pos), Some(&c) if c >= 0x20 && c != b'"' && c != b'\\') {
            *pos += 1;
        }
        out.push_str(std::str::from_utf8(&b[run..*pos]).map_err(|e| e.to_string())?);
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogate pairs are not needed by any writer in this
                        // repository; reject rather than mis-decode.
                        let c =
                            char::from_u32(code).ok_or(format!("unsupported \\u escape {hex}"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => return Err(format!("unescaped control char at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        b.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

impl Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Json {
    type Output = Json;
    fn index(&self, i: usize) -> &Json {
        match self {
            Json::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// Compact single-line rendering (`to_string` goes through this).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

/// Conversion into a [`Json`] value; the glue the [`json!`](crate::json!)
/// macro uses for object/array members.
pub trait ToJson {
    /// Convert `self` to a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

macro_rules! impl_to_json_num {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}
impl_to_json_num!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

/// Build a [`Json`] value: `json!(null)`, `json!([a, b])`, or a flat object
/// `json!({"key": expr, ...})` whose values implement [`ToJson`] (nest with
/// inner `json!` calls).
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::Json::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::json::Json::Array(vec![ $( $crate::json::ToJson::to_json(&$elem) ),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::json::Json::Object(vec![
            $( ($key.to_string(), $crate::json::ToJson::to_json(&$value)) ),*
        ])
    };
    ($other:expr) => { $crate::json::ToJson::to_json(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_formats_numbers() {
        assert_eq!(json!(3.0).to_string(), "3");
        assert_eq!(json!(-17).to_string(), "-17");
        assert_eq!(json!(0.25).to_string(), "0.25");
        // Huge magnitudes print in plain decimal (Rust's `Display`) but
        // still parse back to the identical value.
        let huge = json!(1.0e300).to_string();
        assert_eq!(Json::parse(&huge).unwrap(), json!(1.0e300));
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        // Shortest round-trip representation, not a fixed precision.
        assert_eq!(json!(0.1).to_string(), "0.1");
        assert_eq!(json!(2.0 / 3.0).to_string(), "0.6666666666666666");
    }

    #[test]
    fn writer_escapes_strings() {
        assert_eq!(
            json!("a\"b\\c\nd\te\u{01}").to_string(),
            r#""a\"b\\c\nd\te\u0001""#
        );
        assert_eq!(json!("héllo ☃").to_string(), "\"héllo ☃\"");
    }

    #[test]
    fn object_macro_preserves_order() {
        let v = json!({"zeta": 1, "alpha": json!([1, 2.5, "x"]), "flag": true});
        assert_eq!(
            v.to_string(),
            r#"{"zeta":1,"alpha":[1,2.5,"x"],"flag":true}"#
        );
        assert_eq!(v["alpha"][1].as_f64(), Some(2.5));
        assert_eq!(v["missing"], Json::Null);
        assert!(v["missing"].is_null());
    }

    #[test]
    fn pretty_printer_indents() {
        let v = json!({"a": 1, "b": json!([true])});
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}"
        );
        assert_eq!(json!({}).to_string_pretty(), "{}");
    }

    #[test]
    fn parser_round_trips() {
        let v = json!({
            "name": "fft",
            "vals": vec![1.0, 0.5, -3.25],
            "nested": json!({"deep": json!(null), "s": "q\"uote"}),
            "n": 12345678901u64,
        });
        let text = v.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), v);
        let compact = v.to_string();
        assert_eq!(Json::parse(&compact).unwrap(), v);
    }

    #[test]
    fn parser_rejects_malformed() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\q\"", "nul"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn string_runs_end_at_escapes_quotes_and_multibyte_scalars() {
        // A run that ends at an escape right after a multi-byte scalar, a run
        // that is only multi-byte scalars, an escape first and last, and
        // empty runs between neighbouring escapes.
        for s in ["é\\n", "☃\"", "𝄞𝄞", "\\a☃\\", "\n\n", "a\u{1}é\u{1f}", ""] {
            let text = Json::Str(s.to_string()).to_string();
            assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.to_string()));
        }
        assert_eq!(
            Json::parse(r#""é\u00e9☃\/x""#).unwrap(),
            Json::Str("éé☃/x".to_string())
        );
    }

    #[test]
    fn string_errors_keep_their_text_and_byte_offset() {
        // Offsets are into the document, after multi-byte scalars (é is two
        // bytes, ☃ three); the texts are the ones the per-character scan gave.
        for (doc, err) in [
            ("\"ab\u{1}cd\"", "unescaped control char at byte 3"),
            ("\"é☃\ncd\"", "unescaped control char at byte 6"),
            ("[\"ok\", \"a\tb\"]", "unescaped control char at byte 9"),
            ("\"é☃", "unterminated string"),
            ("\"é\\q\"", "bad escape at byte 4"),
            ("\"☃\\u12\"", "truncated \\u escape"),
            ("\"\\ud800\"", "unsupported \\u escape d800"),
            ("{1: 2}", "expected string at byte 1"),
        ] {
            assert_eq!(Json::parse(doc).unwrap_err(), err, "{doc:?}");
        }
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // 1 MiB in one string: a scan that re-validates the rest of the
        // document per character takes ~12 s here, the run scan ~2 ms.
        let body = "ordinary text, a ☃ and an escape\n".repeat((1 << 20) / 36);
        let text = json!({ "text": body.clone() }).to_string();
        let t0 = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        assert!(t0.elapsed().as_secs_f64() < 1.0, "{:?}", t0.elapsed());
        assert_eq!(parsed["text"].as_str(), Some(body.as_str()));
    }

    #[test]
    fn float_arrays_round_trip() {
        let vals = [1.5, -0.25, 3.0, 1e-9];
        let j = Json::from_f64s(&vals);
        assert_eq!(j.as_f64_array().as_deref(), Some(&vals[..]));
        let reparsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(reparsed.as_f64_array().as_deref(), Some(&vals[..]));
        // Mixed or non-array values refuse to decode rather than truncate.
        assert_eq!(json!([1, "x"]).as_f64_array(), None);
        assert_eq!(json!("not-an-array").as_f64_array(), None);
        assert_eq!(Json::from_f64s(&[]).as_f64_array(), Some(vec![]));
    }

    #[test]
    fn accessors_discriminate() {
        assert_eq!(json!(7u64).as_u64(), Some(7));
        assert_eq!(json!(7.5).as_u64(), None);
        assert_eq!(json!(-1).as_u64(), None);
        assert_eq!(json!("s").as_str(), Some("s"));
        assert_eq!(json!(true).as_bool(), Some(true));
        assert!(json!([1]).as_array().is_some());
        assert!(json!({"k": 1}).as_object().is_some());
        assert_eq!(json!([1, 2])[5], Json::Null);
    }
}
