//! The workspace's one JSON codec (RFC 8259).
//!
//! The workspace has no serde. Every report, sweep table, served body,
//! journal record and telemetry document is written by hand
//! through the two emitters here — [`push_string`] and [`number`] — and
//! read back through the one parser, [`parse`] (or [`parse_stream`] for
//! whitespace-separated documents such as JSON lines).
//!
//! The emitters fix the byte format: strings escape `"`, `\`, `\n`, `\r`,
//! `\t` and every other control character as `\u00xx`; numbers use Rust's
//! shortest round-trip `Display` (so `parse ∘ emit` is the identity on
//! every finite `f64`), and non-finite values become `null`.
//!
//! The parser accepts exactly RFC 8259 — surrogate pairs combine, lone
//! surrogates are rejected — with one twist: **numbers keep their raw
//! source token**. The typed parameter machinery parses overrides from
//! strings against each knob's declared type, so handing it the client's
//! original spelling yields the same accepted values and the same
//! rejection messages as `repro --set key=value`. Nesting deeper than
//! [`MAX_DEPTH`] is rejected, so hostile input cannot overflow the stack.

use core::fmt;

/// The deepest array/object nesting [`parse`] accepts. The deepest
/// document the workspace emits (a span tree) is far shallower.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value; numbers stay raw.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source token (`"6"`, `"2.5e3"`, …).
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; member order preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The first member named `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The text, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number's raw token parsed as `f64`, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// Where and why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the first syntax error.
    pub offset: usize,
    /// What was expected there.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns the byte offset and nature of the first syntax error.
pub fn parse(text: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing input after the JSON document"));
    }
    Ok(value)
}

/// Parses a whitespace-separated sequence of JSON documents (the
/// JSON-lines shape `repro all --format json` and the access log emit).
/// Empty or all-whitespace input is an empty sequence.
///
/// # Errors
///
/// Returns the byte offset (into the whole stream) and nature of the
/// first syntax error.
pub fn parse_stream(text: &str) -> Result<Vec<JsonValue>, ParseError> {
    let mut p = Parser::new(text);
    let mut docs = Vec::new();
    p.skip_ws();
    while p.pos < p.bytes.len() {
        docs.push(p.value()?);
        p.skip_ws();
    }
    Ok(docs)
}

/// Appends `s` to `out` as a JSON string literal.
pub fn push_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON number for `v`: the shortest round-trip form when finite,
/// `null` otherwise. Every form Rust's `f64` `Display` emits is in the
/// JSON number grammar.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, what: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: what.to_string(),
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

    fn literal(&mut self, text: &[u8]) -> bool {
        if self.bytes[self.pos..].starts_with(text) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') if self.literal(b"true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal(b"false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.literal(b"null") => Ok(JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// Runs `container` one nesting level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, ParseError>,
    ) -> Result<JsonValue, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error("expected ':'"));
            }
            self.pos += 1;
            members.push((name, self.value()?));
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
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
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
        if self.peek() != Some(b'"') {
            return Err(self.error("expected '\"'"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| self.error(&format!("invalid UTF-8: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            let scalar = match code {
                                // High surrogate: RFC 8259 encodes non-BMP
                                // characters as a \u pair; combine it with
                                // the mandatory low surrogate.
                                0xd800..=0xdbff => {
                                    if !self.literal(b"\\u") {
                                        return Err(self.error("unpaired high surrogate"));
                                    }
                                    let low = self.hex4()?;
                                    if !(0xdc00..=0xdfff).contains(&low) {
                                        return Err(self.error("unpaired high surrogate"));
                                    }
                                    0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                                }
                                0xdc00..=0xdfff => return Err(self.error("unpaired low surrogate")),
                                code => code,
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.error("non-scalar \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(self.error(&format!("unknown escape '\\{}'", other as char)))
                        }
                    }
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let Some(hex) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(self.error("truncated \\u escape"));
        };
        // `from_str_radix` alone would also take a sign ("+041").
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.error("bad \\u escape"));
        }
        let hex = core::str::from_utf8(hex).expect("ASCII hex digits");
        let code = u32::from_str_radix(hex, 16).expect("four hex digits");
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let mut digits = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(self.error("expected digits"));
        }
        if leading_zero && digits > 1 {
            return Err(self.error("leading zero"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.error("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.error("expected exponent digits"));
            }
        }
        let raw = core::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number token");
        Ok(JsonValue::Number(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values_and_keeps_raw_numbers() {
        let v = parse(r#"{"params": {"nc": 6, "length_um": 2.5e2}, "format": "json", "flag": true, "none": null, "list": [1, "two"]}"#).unwrap();
        let JsonValue::Object(members) = v else {
            panic!("not an object")
        };
        let params = &members[0];
        assert_eq!(params.0, "params");
        let JsonValue::Object(knobs) = &params.1 else {
            panic!("params not an object")
        };
        assert_eq!(knobs[0], ("nc".to_string(), JsonValue::Number("6".into())));
        assert_eq!(
            knobs[1],
            ("length_um".to_string(), JsonValue::Number("2.5e2".into()))
        );
        assert_eq!(members[1].1, JsonValue::String("json".into()));
        assert_eq!(members[2].1, JsonValue::Bool(true));
        assert_eq!(members[3].1, JsonValue::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"open",
            "{\"a\":1} junk",
            "01",
            "1.",
            "nul",
            "\"\\u+041\"",
            "\"\\u00g1\"",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn errors_name_the_byte_offset() {
        let err = parse("[1, 2,]").unwrap_err();
        assert_eq!(err.offset, 6);
        assert_eq!(err.to_string(), "invalid JSON at byte 6: expected a value");
    }

    #[test]
    fn escapes_unescape() {
        let v = parse(r#""tab\t quote\" slash\/ uA""#).unwrap();
        assert_eq!(v, JsonValue::String("tab\t quote\" slash/ uA".to_string()));
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_rejected() {
        // U+1F600 as Python's json.dumps (ensure_ascii=True) emits it.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, JsonValue::String("\u{1f600}".to_string()));
        // BMP escapes still work.
        assert_eq!(
            parse(r#""\u00b5m""#).unwrap(),
            JsonValue::String("µm".to_string())
        );
        for bad in [
            r#""\ud83d""#,   // high surrogate at end of string
            r#""\ud83d x""#, // high surrogate followed by plain text
            r#""\ud83dA""#,  // high surrogate followed by non-surrogate
            r#""\ude00""#,   // lone low surrogate
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().message.contains("nesting"));
        // A million open brackets is an error, not a stack overflow.
        let err = parse_stream(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert_eq!(
            err.to_string(),
            "invalid JSON at byte 128: nesting deeper than 128 levels"
        );
    }

    #[test]
    fn stream_counts_documents() {
        assert_eq!(parse_stream("").unwrap().len(), 0);
        assert_eq!(parse_stream(" \n\t ").unwrap().len(), 0);
        assert_eq!(parse_stream("{}").unwrap().len(), 1);
        let docs = parse_stream("{\"a\":1}\n[2]\n\"three\" 4 null\n").unwrap();
        assert_eq!(docs.len(), 5);
        assert_eq!(docs[3], JsonValue::Number("4".into()));
        // The error offset is into the whole stream.
        assert_eq!(parse_stream("[1]\n[2,]").unwrap_err().offset, 7);
    }

    #[test]
    fn accessors_read_members() {
        let doc = parse(r#"{"name":"x","n":2.5,"k":"1","dup":1,"dup":2}"#).unwrap();
        assert_eq!(doc.get("name").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(doc.get("n").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(doc.get("k").and_then(JsonValue::as_f64), None);
        assert_eq!(doc.get("n").and_then(JsonValue::as_str), None);
        assert_eq!(doc.get("dup"), Some(&JsonValue::Number("1".into())));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(JsonValue::Array(vec![]).get("name"), None);
    }

    #[test]
    fn strings_round_trip_through_the_escaper() {
        let mut s: String = (0u8..0x20).map(char::from).collect();
        s.push_str("\"\\/ plain µ \u{1f600}");
        let mut out = String::new();
        push_string(&s, &mut out);
        assert!(
            out.bytes().all(|b| b >= 0x20),
            "raw control byte in {out:?}"
        );
        assert!(out.contains("\\u0001") && out.contains("\\u001f") && out.contains("\\n"));
        assert_eq!(parse(&out).unwrap(), JsonValue::String(s));
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        for v in [1e-300, f64::MAX, 0.1 + 0.2, -0.0, 3.0, -2.5e17] {
            let text = number(v);
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text}");
        }
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
        assert_eq!(number(3.0), "3");
    }
}
