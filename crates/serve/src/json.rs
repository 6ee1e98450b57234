//! A minimal JSON parser for analysis requests.
//!
//! The workspace builds with zero external dependencies, so the request
//! envelope is parsed by a small recursive-descent parser: the full JSON
//! grammar (RFC 8259), including `\uXXXX` escapes with surrogate pairs, a
//! nesting-depth limit against hostile inputs, and byte-offset error
//! positions for 400 responses clients can act on.
//!
//! Only *parsing* lives here; responses are rendered with the same
//! hand-rolled formatting the rest of the workspace uses
//! (`swa_core::obs::json_escape`).

use std::fmt;

/// Maximum nesting depth accepted before a request is rejected.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved, duplicate keys keep the last.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document (must be a single value with only
    /// whitespace around it).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first
    /// violation.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Looks up a key in an object (`None` for non-objects and missing
    /// keys; the *last* occurrence wins for duplicate keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a number
    /// with an exact `u64` value.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the violation.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
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
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the whole unescaped run at once. It ends at the
                    // next `"`, `\` or control byte; all are ASCII, so
                    // both ends are char boundaries of the `&str` input.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (the backslash and `u` are
    /// already consumed), joining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let cp = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.err("expected a digit"));
        }
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(self.err("leading zeros are not allowed"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_envelope() {
        let doc = Json::parse(
            r#"{"config_xml": "<configuration/>", "hyperperiods": 2, "explain": false}"#,
        )
        .unwrap();
        assert_eq!(doc.get("config_xml").unwrap().as_str(), Some("<configuration/>"));
        assert_eq!(doc.get("hyperperiods").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("explain").unwrap().as_bool(), Some(false));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn parses_nested_values_and_numbers() {
        let doc = Json::parse(r#"[null, true, -1.5e2, "a", {"k": []}]"#).unwrap();
        let Json::Arr(items) = doc else { panic!("array") };
        assert_eq!(items[0], Json::Null);
        assert_eq!(items[2].as_f64(), Some(-150.0));
        assert_eq!(items[4].get("k"), Some(&Json::Arr(vec![])));
    }

    #[test]
    fn decodes_escapes_and_surrogate_pairs() {
        let doc = Json::parse(r#""a\n\t\"\\ é 😀""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\n\t\"\\ \u{e9} \u{1F600}"));
    }

    #[test]
    fn rejects_malformed_input_with_offsets() {
        for (text, what) in [
            ("{", "truncated object"),
            (r#"{"a": 1,}"#, "trailing comma"),
            ("[1 2]", "missing comma"),
            (r#""\ud800""#, "unpaired surrogate"),
            ("01", "trailing characters"),
            ("nul", "bad literal"),
            ("\"\u{1}\"", "control char"),
        ] {
            assert!(Json::parse(text).is_err(), "{what} should fail: {text:?}");
        }
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }

    /// Pins the *exact* boundary: the top-level value parses at depth 0,
    /// so `MAX_DEPTH + 1` nesting levels are the deepest accepted
    /// document and one more is rejected. A refactor that shifts the
    /// check off-by-one in either direction fails this test.
    #[test]
    fn depth_limit_boundary_is_exact() {
        let deepest_ok = MAX_DEPTH + 1;
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(
            Json::parse(&arrays(deepest_ok)).is_ok(),
            "{deepest_ok} nested arrays must still parse"
        );
        let err = Json::parse(&arrays(deepest_ok + 1)).unwrap_err();
        assert!(
            err.to_string().contains("nesting too deep"),
            "one past the limit must be the depth error, got: {err}"
        );

        // Same boundary through the object production, which shares the
        // depth counter with arrays.
        let objects = |n: usize| {
            let mut text = String::new();
            for _ in 0..n {
                text.push_str("{\"k\":");
            }
            text.push_str("null");
            text.push_str(&"}".repeat(n));
            text
        };
        assert!(Json::parse(&objects(deepest_ok - 1)).is_ok());
        let err = Json::parse(&objects(deepest_ok)).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "got: {err}");
    }

    /// A body at the HTTP layer's size limit parses in linear time: the
    /// string scanner copies unescaped runs whole instead of re-validating
    /// the rest of the input for every character.
    #[test]
    fn max_body_envelope_parses_in_linear_time() {
        let max = crate::http::MAX_BODY;
        let head = "{\"config_xml\":\"";
        let tail = "\"}";
        let chunk = r#"<task name=\"t\" period=\"50\"/>\n"#;
        let mut body = String::with_capacity(max);
        body.push_str(head);
        while body.len() + chunk.len() + tail.len() <= max {
            body.push_str(chunk);
        }
        while body.len() + tail.len() < max {
            body.push('x');
        }
        body.push_str(tail);
        assert_eq!(body.len(), max);

        let doc = Json::parse(&body).unwrap();
        let xml = doc.get("config_xml").and_then(Json::as_str).unwrap();
        let chunks = (max - head.len() - tail.len()) / chunk.len();
        let unescaped = "<task name=\"t\" period=\"50\"/>\n";
        assert!(xml.starts_with(unescaped));
        assert_eq!(
            xml.len(),
            chunks * unescaped.len() + (max - head.len() - tail.len()) % chunk.len()
        );
    }

    #[test]
    fn multibyte_runs_meet_escapes_and_surrogate_pairs() {
        let doc = Json::parse(r#""é\n😀\u00e9\ud83d\ude00ü\"ß\\€""#).unwrap();
        assert_eq!(doc.as_str(), Some("é\n😀é😀ü\"ß\\€"));
        let doc = Json::parse(r#"{"ключ":"значение\tß","😀":"\ud83d\ude00😀"}"#).unwrap();
        assert_eq!(doc.get("ключ").and_then(Json::as_str), Some("значение\tß"));
        assert_eq!(doc.get("😀").and_then(Json::as_str), Some("😀😀"));
    }

    /// Error offsets name the first offending byte, also after a
    /// multibyte run.
    #[test]
    fn string_error_offsets_point_at_the_offending_byte() {
        for (text, offset, what) in [
            ("\"ab\u{1}\"", 3, "raw control character in string"),
            ("\"é\u{1f}x\"", 3, "raw control character in string"),
            ("\"€€\n\"", 7, "raw control character in string"),
            ("\"abc", 4, "unterminated string"),
            ("\"é😀", 7, "unterminated string"),
            ("\"a\\q\"", 3, "invalid escape"),
            ("\"ü\\ud800x\"", 9, "unpaired high surrogate"),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.offset, offset, "{text:?}: {err}");
            assert_eq!(err.message, what, "{text:?}");
        }
    }

    /// Whatever the response writer escapes, the request parser reads back
    /// unchanged.
    #[test]
    fn json_escape_output_round_trips() {
        const PALETTE: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}',
            'é', 'ß', '€', '\u{2028}', '\u{fffd}', '😀', '\u{10ffff}',
        ];
        let mut rng = swa_workload::Rng64::seed_from_u64(0x6a73_6f6e);
        for _ in 0..500 {
            let len = rng.gen_range(40);
            let text: String = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        PALETTE[rng.gen_range(PALETTE.len())]
                    } else {
                        let code = u32::try_from(rng.gen_range(0x11_0000)).unwrap();
                        char::from_u32(code).unwrap_or('x')
                    }
                })
                .collect();
            let quoted = format!("\"{}\"", swa_core::obs::json_escape(&text));
            assert_eq!(Json::parse(&quoted).unwrap().as_str(), Some(text.as_str()));
        }
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let doc = Json::parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_f64(), Some(2.0));
    }
}
