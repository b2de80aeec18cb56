//! A minimal JSON value, writer, and parser.
//!
//! The workspace builds offline with no external dependencies, so the
//! telemetry layer carries its own JSON support. The writer emits a
//! canonical compact form — objects keep insertion order, floats use
//! Rust's shortest round-trip formatting — so serializing a parsed
//! document reproduces it byte for byte. That property is what lets the
//! golden Perfetto trace be diffed as a whole file.

use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts. Every
/// document the workspace writes nests fewer than ten levels; the bound
/// turns a hostile `[[[[…` into an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Numbers are split into [`Json::U64`] (no decimal point or exponent
/// in the source) and [`Json::F64`] (everything else): counters stay
/// exact at full 64-bit range, ratios keep their floating form.
///
/// # Examples
///
/// ```
/// use decache_telemetry::Json;
///
/// let doc = Json::parse(r#"{"cycles": 42, "util": 0.5}"#).unwrap();
/// assert_eq!(doc.get("cycles").and_then(Json::as_u64), Some(42));
/// assert_eq!(doc.to_string(), r#"{"cycles":42,"util":0.5}"#);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer literal.
    U64(u64),
    /// A fractional, exponent, or negative numeric literal.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved and significant for the
    /// canonical form.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The member `key` of an object, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is a [`Json::U64`].
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value as a float (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The string value, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`Json::Array`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error, of nesting deeper than [`MAX_DEPTH`], or of trailing
    /// garbage after the document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// The member `key` of an object, or a "missing field" message.
pub(crate) fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field '{key}'"))
}

/// The integer member `key` of an object, or a message naming it.
pub(crate) fn uint(value: &Json, key: &str) -> Result<u64, String> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not an integer"))
}

/// Writes `s` as a JSON string literal (quotes and escapes included).
pub fn write_escaped(out: &mut String, s: &str) {
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

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            // `{:?}` is Rust's shortest round-trip float form: "1.0"
            // stays distinguishable from the integer "1", and parsing
            // the output recovers the exact bits.
            Json::F64(v) => {
                if v.is_finite() {
                    write!(f, "{v:?}")
                } else {
                    // JSON has no Infinity/NaN; null is the
                    // conventional degradation.
                    f.write_str("null")
                }
            }
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::with_capacity(key.len() + 2);
                    write_escaped(&mut buf, key);
                    f.write_str(&buf)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogates and other invalid points fall
                            // back to the replacement character; the
                            // writer never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape.
                    // Both delimiters are ASCII, so the run of the
                    // (valid UTF-8) input ends on a character boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8")?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = self.bytes[start] == b'-';
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if fractional {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|_| format!("bad number '{text}' at byte {start}"))
        } else {
            text.parse::<u64>()
                .map(Json::U64)
                .map_err(|_| format!("bad number '{text}' at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "42", "18446744073709551615"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for value in [0.5, 1.0, 97.25, 1e-9, 123456.789] {
            let text = Json::F64(value).to_string();
            match Json::parse(&text).unwrap() {
                Json::F64(back) => assert_eq!(back.to_bits(), value.to_bits(), "{text}"),
                other => panic!("{text} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn integers_stay_integers() {
        assert_eq!(Json::parse("7").unwrap(), Json::U64(7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::F64(7.0));
        assert_eq!(Json::parse("-7").unwrap(), Json::F64(-7.0));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "a \"quote\"\nand\ttab \\ slash";
        let text = Json::Str(original.to_owned()).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(original));
        assert_eq!(Json::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn nested_structure_round_trips_canonically() {
        let doc = r#"{"name":"rb","rows":[{"n":2,"util":0.5},{"n":4,"util":0.75}],"ok":true}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.to_string(), doc);
        assert_eq!(
            v.get("rows").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn whitespace_is_insignificant() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.to_string(), r#"{"a":[1,2],"b":{}}"#);
    }

    #[test]
    fn errors_name_the_offset() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("12 34").unwrap_err().contains("trailing"));
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        assert!(Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        // A megabyte of openers is an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn a_mebibyte_string_parses_in_one_pass() {
        let body = "é\"x\\y".repeat(1 << 18);
        let text = Json::Str(body.clone()).to_string();
        assert!(text.len() > 1 << 20);
        let start = std::time::Instant::now();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(body.as_str()));
        // Linear time is milliseconds even unoptimized; rescanning the
        // remaining input per character would take minutes.
        assert!(start.elapsed().as_secs() < 10, "{:?}", start.elapsed());
    }
}
