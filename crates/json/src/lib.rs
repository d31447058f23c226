//! Minimal dependency-free JSON: a value type, a strict parser and
//! compact/pretty printers.
//!
//! Used by `uvllm-llm` for the structured-output schema of Fig. 4 and by
//! `uvllm-campaign` for its JSONL result sink. Object members preserve
//! insertion order so serialisation is byte-stable — the campaign
//! engine's determinism guarantee rests on that.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded input — a request body of
/// 100 000 `[` — would overflow the stack and abort the process; past
/// this depth it is a parse error instead. Nothing this workspace
/// writes nests deeper than a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All JSON numbers are held as `f64` (integers up to 2^53 survive
    /// exactly, far beyond anything serialised here).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in insertion order (no key sorting, no deduplication).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as `u64` when integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses `text` as one JSON value (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first problem,
    /// nesting deeper than [`MAX_DEPTH`] included.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i| {
                    let (k, v) = &members[i];
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                })
            }
        }
    }
}

/// Appends `text` as a JSON string literal: quoted, with `"`, `\` and
/// control characters escaped, every other run of bytes copied whole.
pub fn write_string(out: &mut String, text: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in text.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        // The byte is ASCII, so both ends of the run are char boundaries.
        out.push_str(&text[run..i]);
        run = i + 1;
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&text[run..]);
    out.push('"');
}

/// Convenience constructor for string values.
pub fn s(text: impl Into<String>) -> Json {
    Json::Str(text.into())
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    /// Parses an array or object one level deeper, failing past
    /// [`MAX_DEPTH`] instead of recursing on.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|b| matches!(b, b'"' | b'\\'))
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let e = self.peek().ok_or_else(|| "unterminated escape".to_string())?;
            self.pos += 1;
            match e {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let c = self.unicode_escape()?;
                    out.push(c);
                }
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            }
        }
    }

    /// The character of a `\u` escape whose hex digits start at `pos`.
    /// Surrogate pairs: join when a low surrogate follows, replace lone
    /// surrogates.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let cp = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        if !((0xD800..0xDC00).contains(&cp)
            && self.bytes.get(self.pos) == Some(&b'\\')
            && self.bytes.get(self.pos + 1) == Some(&b'u'))
        {
            return Ok(char::from_u32(cp).unwrap_or('\u{FFFD}'));
        }
        let lo_hex = self
            .bytes
            .get(self.pos + 2..self.pos + 6)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        Ok(match u32::from_str_radix(lo_hex, 16) {
            Ok(lo) if (0xDC00..0xE000).contains(&lo) => {
                self.pos += 6;
                let joined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                char::from_u32(joined).unwrap_or('\u{FFFD}')
            }
            _ => '\u{FFFD}',
        })
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
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
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x\ny"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back, v);
        let back_pretty = Json::parse(&v.render_pretty()).unwrap();
        assert_eq!(back_pretty, v);
    }

    #[test]
    fn preserves_member_order() {
        let v = Json::Obj(vec![("zz".into(), Json::Num(1.0)), ("aa".into(), Json::Num(2.0))]);
        assert_eq!(v.render(), r#"{"zz":1,"aa":2}"#);
    }

    #[test]
    fn escapes_and_unescapes() {
        let v = Json::Str("quote \" slash \\ tab \t nl \n".into());
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        assert_eq!(Json::parse(r#""Aé😀""#).unwrap().as_str(), Some("Aé😀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("not json").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("[1, 2").is_err());
    }

    #[test]
    fn unicode_in_strings_survives() {
        let v = Json::parse("{\"k\": \"héllo — ≤ 𝄞\"}").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("héllo — ≤ 𝄞"));
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_not_an_abort() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(
            Json::parse(&past).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        // A hostile body: far past any stack, answered as an error.
        let hostile = "[".repeat(100_000);
        assert!(Json::parse(&hostile).unwrap_err().contains("nesting deeper than"));
        let mixed = "[{\"a\":".repeat(50_000);
        assert!(Json::parse(&mixed).unwrap_err().contains("nesting deeper than"));
    }

    #[test]
    fn strings_decode_and_encode_in_runs() {
        let cases = [
            "",
            "plain ascii",
            "ends with escape\n",
            "\"quoted\" \\ back\\slash",
            "ctl \u{1} \u{1f} \u{7f} del",
            "héllo — ≤ 𝄞 mixed\twith\r\nescapes",
        ];
        for text in cases {
            let mut rendered = String::new();
            write_string(&mut rendered, text);
            assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(text), "{rendered}");
        }
        let mut rendered = String::new();
        write_string(&mut rendered, "a\u{1}b\"c\\d\ne");
        assert_eq!(rendered, r#""a\u0001b\"c\\d\ne""#);
        let decoded = Json::parse(r#""\/\b\f\u00e9\ud834\udd1e \ud834 x""#).unwrap();
        assert_eq!(decoded.as_str(), Some("/\u{8}\u{c}é𝄞 \u{FFFD} x"));
        assert_eq!(Json::parse("\"open").unwrap_err(), "unterminated string");
        assert_eq!(Json::parse("\"open\\").unwrap_err(), "unterminated escape");
        assert_eq!(Json::parse(r#""bad \q""#).unwrap_err(), "bad escape at byte 6");
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(-0.5).render(), "-0.5");
    }
}
