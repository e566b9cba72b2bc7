//! Minimal JSON value, reader and escaping-correct writer.
//!
//! The vendored `serde` is a no-op stub (no `serde_json`), so the
//! workspace carries one hand-rolled JSON layer — this module — shared by
//! everything that speaks JSON: the [`crate::artifact::BoundArtifact`]
//! encode/decode, the `mfu-serve` line-delimited request/response framing,
//! and the `mfu-bench` report reader (`mfu_bench::regression` re-exports
//! the reader half for its bench-regression guard).
//!
//! Scope: the full JSON data model with two deliberate restrictions.
//! Numbers are `f64` (integers above 2⁵³ lose precision, like JavaScript),
//! and object keys are sorted (`BTreeMap`), not insertion-ordered —
//! anything order-sensitive belongs in an array. The writer emits finite
//! numbers via Rust's shortest round-trip formatting, so
//! `parse(render(x))` reproduces every `f64` bit for bit; non-finite
//! numbers have no JSON spelling and render as `null`. Strings go through
//! [`mfu_obs::write_json_string`], the escaper the tracer and metrics
//! snapshot share: quotes, backslashes and every control character
//! (`\n`/`\r`/`\t`/`\b`/`\f` short forms, `\u00XX` otherwise). The reader
//! additionally accepts arbitrary `\uXXXX` escapes including UTF-16
//! surrogate pairs.
//!
//! ```
//! use mfu_core::json::{parse, Json};
//!
//! let doc = parse(r#"{"model": "sir", "bounds": [0.125, 0.875]}"#)?;
//! assert_eq!(doc.get("model").and_then(Json::as_str), Some("sir"));
//! let width = doc.get("bounds").and_then(Json::as_array).map(|b| {
//!     b[1].as_f64().unwrap() - b[0].as_f64().unwrap()
//! });
//! assert_eq!(width, Some(0.75));
//! // the writer's shortest-round-trip formatting reproduces every f64
//! assert_eq!(parse(&doc.render())?, doc);
//! # Ok::<(), String>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;

use mfu_obs::write_json_string;

/// A parsed or constructed JSON value (numbers as `f64`, object keys
/// sorted).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escape sequences decoded).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with sorted keys.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs (later duplicates win).
    pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn string(value: impl Into<String>) -> Json {
        Json::String(value.into())
    }

    /// Builds an array of numbers.
    pub fn numbers(values: impl IntoIterator<Item = f64>) -> Json {
        Json::Array(values.into_iter().map(Json::Number).collect())
    }

    /// Member lookup on an object (`None` for other variants or missing
    /// keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Serializes the value as compact single-line JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(v) => write_number(*v, out),
            Json::String(s) => write_json_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Writes a finite number in Rust's shortest round-trip decimal form;
/// non-finite values (which JSON cannot express) degrade to `null`.
fn write_number(v: f64, out: &mut String) {
    use fmt::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> String {
        format!("JSON parse error at byte {}: {message}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            entries.insert(key, self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u16::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("malformed \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn unicode_escape(&mut self, out: &mut Vec<u8>) -> Result<(), String> {
        let unit = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&unit) {
            // high surrogate: a `\uXXXX` low surrogate must follow
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.error("unpaired UTF-16 surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("invalid UTF-16 low surrogate"));
            }
            0x10000 + ((u32::from(unit) - 0xD800) << 10) + (u32::from(low) - 0xDC00)
        } else if (0xDC00..0xE000).contains(&unit) {
            return Err(self.error("unpaired UTF-16 surrogate"));
        } else {
            u32::from(unit)
        };
        let c = char::from_u32(code).ok_or_else(|| self.error("invalid \\u code point"))?;
        let mut buf = [0u8; 4];
        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => self.unicode_escape(&mut out)?,
                        other => {
                            return Err(
                                self.error(&format!("unsupported escape `\\{}`", other as char))
                            )
                        }
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| self.error("malformed number"))
    }
}

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected).
///
/// # Errors
///
/// Returns a byte-positioned message on malformed input.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing garbage after document"));
    }
    Ok(value)
}

/// Flattens every numeric leaf into a `dotted.path → value` map (array
/// indices become path segments).
pub fn numeric_leaves(json: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    collect(json, String::new(), &mut out);
    out
}

fn collect(json: &Json, path: String, out: &mut BTreeMap<String, f64>) {
    match json {
        Json::Number(value) => {
            out.insert(path, *value);
        }
        Json::Object(entries) => {
            for (key, value) in entries {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                collect(value, child, out);
            }
        }
        Json::Array(items) => {
            for (index, value) in items.iter().enumerate() {
                collect(value, format!("{path}.{index}"), out);
            }
        }
        Json::Null | Json::Bool(_) | Json::String(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn values_render_compactly_and_reparse() {
        let doc = Json::object([
            ("name", Json::string("sir")),
            ("ok", Json::Bool(true)),
            ("nothing", Json::Null),
            ("bounds", Json::numbers([0.25, -1.5e-8])),
        ]);
        let text = doc.render();
        assert!(!text.contains('\n'));
        assert_eq!(parse(&text).unwrap(), doc);
        // Display and render agree
        assert_eq!(format!("{doc}"), text);
    }

    #[test]
    fn writer_escapes_quotes_backslashes_and_control_chars() {
        let nasty = "say \"hi\"\\path\nline\ttab\rret\u{8}bell\u{c}\u{1}end";
        let rendered = Json::string(nasty).render();
        assert_eq!(
            rendered,
            "\"say \\\"hi\\\"\\\\path\\nline\\ttab\\rret\\bbell\\f\\u0001end\""
        );
        assert_eq!(parse(&rendered).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn trace_events_with_every_control_character_parse_and_round_trip() {
        let nasty: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\/ϑ".chars())
            .collect();
        let (tracer, buffer) = mfu_obs::Tracer::to_buffer();
        tracer.event(&nasty, &[(nasty.as_str(), mfu_obs::Field::Str(&nasty))]);
        let line = buffer.contents();
        let doc = parse(line.trim_end()).unwrap();
        assert_eq!(doc.get("ev").and_then(Json::as_str), Some(nasty.as_str()));
        assert_eq!(doc.get(&nasty).and_then(Json::as_str), Some(nasty.as_str()));
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        // one escaper: the tracer writes the bytes this module renders
        assert!(line.contains(&Json::string(nasty.as_str()).render()));
        assert!(line.contains("\\b") && line.contains("\\f") && line.contains("\\u0001"));
    }

    #[test]
    fn reader_handles_utf8_and_unicode_escapes() {
        // raw multi-byte UTF-8 passes through untouched
        assert_eq!(parse("\"ϑ ∈ Θ\"").unwrap().as_str(), Some("ϑ ∈ Θ"));
        // \uXXXX escapes, including an astral-plane surrogate pair
        assert_eq!(
            parse("\"\\u03d1 and \\ud83e\\udd80\"").unwrap().as_str(),
            Some("ϑ and 🦀")
        );
        assert!(parse("\"\\ud83e\"").is_err(), "unpaired high surrogate");
        assert!(parse("\"\\udd80\"").is_err(), "unpaired low surrogate");
        assert!(parse("\"\\uZZZZ\"").is_err(), "malformed hex");
    }

    #[test]
    fn finite_numbers_round_trip_bit_for_bit() {
        for v in [
            0.0,
            -0.0,
            1.0,
            0.1,
            -1.5e-300,
            7.2e300,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            std::f64::consts::PI,
        ] {
            let text = Json::Number(v).render();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} rendered as {text}");
        }
        // non-finite values degrade to null rather than emit invalid JSON
        assert_eq!(Json::Number(f64::NAN).render(), "null");
        assert_eq!(Json::Number(f64::INFINITY).render(), "null");
    }

    #[test]
    fn accessors_narrow_variants() {
        let doc = parse(r#"{"a": [1, "x"], "b": {"c": false}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[0].as_f64(),
            Some(1.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_bool(),
            Some(false)
        );
        assert!(doc.get("missing").is_none());
        assert!(
            doc.get("a").unwrap().get("b").is_none(),
            "get on non-object"
        );
        assert_eq!(doc.as_object().unwrap().len(), 2);
        assert!(Json::Null.as_f64().is_none());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in ["", "{", "{\"a\": }", "[1,]", "{} trailing", "\"open", "tru"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// Maps a code point sample to a valid `char`, folding the surrogate
    /// gap onto ASCII so escapes, controls and astral planes all appear.
    fn char_from_sample(raw: u32) -> char {
        char::from_u32(raw).unwrap_or_else(|| char::from(u8::try_from(raw % 128).unwrap_or(b'?')))
    }

    proptest! {
        #[test]
        fn arbitrary_strings_round_trip(raws in prop::collection::vec(0u32..0x11_0000, 0..24)) {
            let s: String = raws.iter().copied().map(char_from_sample).collect();
            let rendered = Json::string(s.clone()).render();
            prop_assert_eq!(parse(&rendered).unwrap().as_str(), Some(s.as_str()));
        }

        #[test]
        fn arbitrary_finite_numbers_round_trip(bits in 0u64..u64::MAX) {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                let back = parse(&Json::Number(v).render()).unwrap().as_f64().unwrap();
                prop_assert_eq!(back.to_bits(), v.to_bits());
            }
        }

        #[test]
        fn nested_documents_round_trip(
            pairs in prop::collection::vec((0u32..0x11_0000, -1.0e12f64..1.0e12), 0..6),
        ) {
            let entries: Vec<(String, Json)> = pairs
                .iter()
                .enumerate()
                .map(|(i, (raw, v))| {
                    let key = format!("{}{i}", char_from_sample(*raw));
                    let inner = Json::object([
                        ("x", Json::Number(*v)),
                        ("s", Json::string(key.clone())),
                    ]);
                    (key, inner)
                })
                .collect();
            let doc = Json::object(entries);
            prop_assert_eq!(parse(&doc.render()).unwrap(), doc);
        }
    }
}
