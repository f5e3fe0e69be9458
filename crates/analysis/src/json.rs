//! Tiny JSON emitter **and parser** for artefacts and the query wire
//! protocol.
//!
//! The build environment has no serde, so the handful of places that emit
//! JSON (per-experiment report files, the `vendor-queryd` line protocol)
//! share this order-preserving object builder, and the places that
//! *consume* JSON (the query daemon, the load client reading the
//! daemon's `catalog`) share the [`parse`] function and its [`JsonValue`]
//! tree. Output is always valid JSON:
//! strings are escaped per RFC 8259 and non-finite floats become `null`.
//! Because query strings are echoed back over the wire, [`escape`] also
//! escapes U+2028/U+2029 (valid raw in JSON, but line terminators to
//! JavaScript consumers) so emitted lines survive every line-delimited
//! transport.

use std::fmt::Write as _;

/// Escape a string for inclusion inside JSON quotes.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    escape_into(&mut out, text);
    out
}

/// [`escape`], appended to `out`: runs of characters that need no
/// escaping are copied as whole slices.
pub fn escape_into(out: &mut String, text: &str) {
    let mut clean = 0;
    for (index, c) in text.char_indices() {
        let replacement = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            '\r' => "\\r",
            '\t' => "\\t",
            // JSON allows these raw, but they terminate lines in JS and in
            // some line-delimited framings; emit them escaped so one JSON
            // document is always exactly one line.
            '\u{2028}' => "\\u2028",
            '\u{2029}' => "\\u2029",
            c if (c as u32) < 0x20 => "",
            _ => continue,
        };
        out.push_str(&text[clean..index]);
        if replacement.is_empty() {
            let _ = write!(out, "\\u{:04x}", c as u32);
        } else {
            out.push_str(replacement);
        }
        clean = index + c.len_utf8();
    }
    out.push_str(&text[clean..]);
}

/// Format a float as a JSON number (`null` for NaN/infinity).
pub fn number(value: f64) -> String {
    let mut out = String::new();
    push_number(&mut out, value);
    out
}

/// [`number`], appended to `out`.
pub fn push_number(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// An insertion-ordered JSON object under construction.
#[derive(Debug, Default)]
pub struct JsonBuilder {
    fields: Vec<(String, String)>,
}

impl JsonBuilder {
    /// Start an empty object.
    pub fn object() -> Self {
        JsonBuilder::default()
    }

    /// Add a string field.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, format!("\"{}\"", escape(value)))
    }

    /// Add a numeric field.
    pub fn number(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, number(value))
    }

    /// Add an integer field.
    pub fn integer(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value.to_string())
    }

    /// Add an already-serialised value.
    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Add an array of strings.
    pub fn string_array(&mut self, key: &str, values: &[String]) -> &mut Self {
        let rendered: Vec<String> = values
            .iter()
            .map(|v| format!("\"{}\"", escape(v)))
            .collect();
        self.raw(key, format!("[{}]", rendered.join(", ")))
    }

    /// Add an array of string arrays (table rows).
    pub fn nested_string_arrays(&mut self, key: &str, rows: &[Vec<String>]) -> &mut Self {
        let rendered: Vec<String> = rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|c| format!("\"{}\"", escape(c))).collect();
                format!("[{}]", cells.join(", "))
            })
            .collect();
        self.raw(key, format!("[{}]", rendered.join(", ")))
    }

    /// Add an array of (x, y) pairs, each as a two-element array.
    pub fn point_array(&mut self, key: &str, points: &[(f64, f64)]) -> &mut Self {
        let rendered: Vec<String> = points
            .iter()
            .map(|&(x, y)| format!("[{}, {}]", number(x), number(y)))
            .collect();
        self.raw(key, format!("[{}]", rendered.join(", ")))
    }

    /// Add an array of already-serialised values.
    pub fn raw_array<I: IntoIterator<Item = String>>(&mut self, key: &str, values: I) -> &mut Self {
        let rendered: Vec<String> = values.into_iter().collect();
        self.raw(key, format!("[{}]", rendered.join(", ")))
    }

    /// Render compactly (`{"k": v, ...}`).
    pub fn finish(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(key, value)| format!("\"{}\": {}", escape(key), value))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Render with one field per line.
    pub fn finish_pretty(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(key, value)| format!("  \"{}\": {}", escape(key), value))
            .collect();
        format!("{{\n{}\n}}", fields.join(",\n"))
    }
}

/// A parsed JSON document.
///
/// Objects preserve insertion order (mirroring [`JsonBuilder`]), so a
/// parse → [`JsonValue::render`] round trip keeps field order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers beyond 2^53 lose
    /// precision, which none of our artefacts approach).
    Number(f64),
    /// A decoded string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// Move one object field out (first match; `None` for non-objects).
    pub fn into_field(self, key: &str) -> Option<JsonValue> {
        match self {
            JsonValue::Object(fields) => fields
                .into_iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(text) => Some(text),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer (rejects negatives and
    /// non-integral values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(value) if *value >= 0.0 && value.fract() == 0.0 => {
                Some(*value as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Render compactly; guaranteed to re-parse to an equal tree.
    pub fn render(&self) -> String {
        match self {
            JsonValue::Null => "null".to_string(),
            JsonValue::Bool(value) => value.to_string(),
            JsonValue::Number(value) => number(*value),
            JsonValue::String(text) => format!("\"{}\"", escape(text)),
            JsonValue::Array(items) => {
                let rendered: Vec<String> = items.iter().map(JsonValue::render).collect();
                format!("[{}]", rendered.join(", "))
            }
            JsonValue::Object(fields) => {
                let rendered: Vec<String> = fields
                    .iter()
                    .map(|(key, value)| format!("\"{}\": {}", escape(key), value.render()))
                    .collect();
                format!("{{{}}}", rendered.join(", "))
            }
        }
    }
}

/// A parse failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth past which [`parse`] rejects the document rather than
/// risking the recursive descent's stack (a `[[[[…` bomb on the wire).
const MAX_DEPTH: usize = 128;

/// Parse one JSON document. Trailing non-whitespace input is an error, so
/// exactly one value per protocol line.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.value(0)?;
    parser.skip_whitespace();
    if parser.pos < parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("invalid literal (expected '{word}')")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.escape_sequence()?);
                }
                0x00..=0x1f => return Err(self.error("raw control character in string")),
                _ => {
                    // Copy the whole run of ordinary bytes up to the next
                    // quote, escape or control character in one step
                    // (validating only that chunk keeps parsing linear —
                    // this path now sees untrusted network input).
                    let start = self.pos;
                    while let Some(&byte) = self.bytes.get(self.pos) {
                        if matches!(byte, b'"' | b'\\' | 0x00..=0x1f) {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("input was a str and chunk ends on an ASCII boundary");
                    out.push_str(chunk);
                }
            }
        }
    }

    fn escape_sequence(&mut self) -> Result<char, JsonError> {
        let Some(byte) = self.peek() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => return self.unicode_escape(),
            _ => return Err(self.error("invalid escape character")),
        })
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|digits| u16::from_str_radix(digits, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape digits"))?;
        self.pos = end;
        Ok(hex)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        // Surrogate pairs arrive as two consecutive \uXXXX escapes.
        if (0xd800..0xdc00).contains(&unit) {
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xdc00..0xe000).contains(&low) {
                    return Err(self.error("invalid low surrogate"));
                }
                let code = 0x10000 + ((u32::from(unit) - 0xd800) << 10) + (u32::from(low) - 0xdc00);
                return char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"));
            }
            return Err(self.error("lone high surrogate"));
        }
        if (0xdc00..0xe000).contains(&unit) {
            return Err(self.error("lone low surrogate"));
        }
        char::from_u32(u32::from(unit)).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .ok()
            .filter(|value| value.is_finite())
            .map(JsonValue::Number)
            .ok_or_else(|| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_special_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("x\u{2028}y\u{2029}z"), "x\\u2028y\\u2029z");
    }

    #[test]
    fn numbers_render_as_json() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(2.0), "2");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let mut json = JsonBuilder::object();
        json.string("b", "x").integer("a", 3);
        assert_eq!(json.finish(), "{\"b\": \"x\", \"a\": 3}");
    }

    #[test]
    fn parses_every_value_kind() {
        let doc = r#"{"a": null, "b": [true, false, -2.5e1], "c": {"d": "x"}, "e": 3}"#;
        let value = parse(doc).unwrap();
        assert_eq!(value.get("a"), Some(&JsonValue::Null));
        let items = value.get("b").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_bool(), Some(true));
        assert_eq!(items[2].as_f64(), Some(-25.0));
        assert_eq!(
            value.get("c").unwrap().get("d").unwrap().as_str(),
            Some("x")
        );
        assert_eq!(value.get("e").unwrap().as_u64(), Some(3));
        assert_eq!(value.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\u{1}\"",          // raw control char inside a string
            "\"\\ud800\"",        // lone high surrogate
            "\"\\udc00\"",        // lone low surrogate
            "\"\\ud800\\u0041\"", // high surrogate + non-surrogate
            "\"\\u12g4\"",
            "nan",
            "--1",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
        // Depth bomb: rejected, not a stack overflow.
        let bomb = "[".repeat(4096) + &"]".repeat(4096);
        assert!(parse(&bomb).is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty: Vec<String> = (0u32..0x20)
            .map(|code| {
                let c = char::from_u32(code).unwrap();
                format!("a{c}b")
            })
            .chain(
                [
                    "plain ascii",
                    "quote \" backslash \\ slash /",
                    "newline \n return \r tab \t",
                    "unicode: émoji 🦀 中文 \u{2028} \u{2029}",
                    "\"}{][,:",
                    "{\"injected\": true}",
                    "\\u0041 literal escape text",
                    "",
                ]
                .map(str::to_string),
            )
            .collect();
        for original in &nasty {
            let wire = format!("\"{}\"", escape(original));
            // The escaped form never carries a raw line break — one
            // document is one protocol line.
            assert!(!wire.contains('\n') && !wire.contains('\r'), "{wire:?}");
            let parsed = parse(&wire).unwrap();
            assert_eq!(parsed.as_str(), Some(original.as_str()), "{wire:?}");
        }
    }

    #[test]
    fn render_round_trips() {
        let doc = r#"{"s": "a\u0001\n\"b\\", "n": [1, 2.5, -3], "o": {"k": null}, "t": true}"#;
        let value = parse(doc).unwrap();
        let rendered = value.render();
        assert_eq!(parse(&rendered).unwrap(), value);
        // Builder output parses back too.
        let mut json = JsonBuilder::object();
        json.string("key", "va\"l\nue\u{2028}").number("x", 1.5);
        assert_eq!(
            parse(&json.finish()).unwrap().get("key").unwrap().as_str(),
            Some("va\"l\nue\u{2028}")
        );
    }

    #[test]
    fn parse_decodes_surrogate_pairs() {
        assert_eq!(parse("\"\\ud83e\\udd80\"").unwrap().as_str(), Some("🦀"));
        assert_eq!(parse("\"\\u00e9\"").unwrap().as_str(), Some("é"));
    }
}
