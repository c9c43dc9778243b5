//! A minimal JSON reader.
//!
//! The workspace's vendored `serde_json` stand-in only *writes* JSON;
//! nothing in the reproduction needed to read any until campaign files,
//! cell checkpoints and status snapshots had to be loaded back and the
//! trace tests needed to validate exported Chrome `trace_event` files.
//! This module is that reader: a strict RFC 8259 recursive-descent parser
//! into a [`JsonValue`] tree, plus the handful of accessors those
//! consumers use. It is not a serde implementation and does not try to be fast.

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// All JSON numbers as f64 (adequate for bench figures and timestamps).
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    /// Key/value pairs in document order (duplicate keys are kept; `get`
    /// returns the first).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// A count or id: a number that is non-negative, integral and below
    /// 2^53, so the f64 it was parsed into holds it exactly. Anything
    /// else (`-3`, `1.5`, `1e300`) is `None`, never a clamped or
    /// truncated value.
    pub fn as_u64(&self) -> Option<u64> {
        const LIMIT: f64 = (1u64 << 53) as f64;
        self.as_f64()
            .filter(|n| (0.0..LIMIT).contains(n) && n.fract() == 0.0)
            .map(|n| n as u64)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
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
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not reassembled; the two
                            // halves come back as replacement characters
                            // (no producer in this workspace emits them).
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Re-decode UTF-8 from the byte stream.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self.bytes.get(start..end).ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse("-12.5e2").unwrap(),
            JsonValue::Number(-1250.0)
        );
        assert_eq!(
            JsonValue::parse("\"a\\nb\"").unwrap(),
            JsonValue::String("a\nb".into())
        );
    }

    #[test]
    fn counts_are_exact_or_refused() {
        let count = |text: &str| JsonValue::parse(text).unwrap().as_u64();
        assert_eq!(count("0"), Some(0));
        assert_eq!(count("12345"), Some(12345));
        assert_eq!(count("9007199254740991"), Some((1 << 53) - 1));
        for bad in [
            "-3",
            "1.5",
            "9007199254740992",
            "1e300",
            "-0.5",
            "\"7\"",
            "null",
        ] {
            assert_eq!(count(bad), None, "{bad}");
        }
    }

    #[test]
    fn nested_document() {
        let v = JsonValue::parse(
            r#"{"cells": [{"topo": "torus", "cycles_per_sec": 1.5e6, "traced": false}], "rss": 42}"#,
        )
        .unwrap();
        let cells = v.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].get("topo").unwrap().as_str(), Some("torus"));
        assert_eq!(
            cells[0].get("cycles_per_sec").unwrap().as_f64(),
            Some(1.5e6)
        );
        assert_eq!(cells[0].get("traced"), Some(&JsonValue::Bool(false)));
        assert_eq!(v.get("rss").unwrap().as_f64(), Some(42.0));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn unicode_and_escapes() {
        let v = JsonValue::parse(r#""S0→S1 café 日本""#).unwrap();
        assert_eq!(v.as_str(), Some("S0→S1 café 日本"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("1 2").is_err());
        assert!(JsonValue::parse("{\"a\" 1}").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn roundtrips_vendored_writer() {
        // The vendored serde_json writer and this reader must agree.
        #[derive(serde::Serialize)]
        struct S {
            name: String,
            xs: Vec<u64>,
            frac: f64,
            on: bool,
        }
        let s = S {
            name: "a \"quoted\" name".into(),
            xs: vec![1, 2, 3],
            frac: 0.25,
            on: true,
        };
        let text = serde_json::to_string_pretty(&s).unwrap();
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a \"quoted\" name"));
        assert_eq!(v.get("xs").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("frac").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("on"), Some(&JsonValue::Bool(true)));
    }
}
