//! A minimal JSON value with a writer that refuses non-finite numbers
//! and a parser for reading result files and `BENCHMARK.json` back.
//!
//! The repository carries no serialization dependency; this covers
//! exactly what the benchmark writes and reads.

use std::fmt::Write as _;

/// A JSON value. Objects keep their keys in insertion order so that
/// rendered files are stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; must be finite to be written.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in key order of insertion.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Renders `value` as compact JSON.
///
/// # Errors
///
/// Names the path of the first NaN or infinite number, e.g.
/// `metrics.pass_s.value is NaN`: JSON has no spelling for either, and
/// writing `NaN` would ship an unreadable file.
pub fn to_string(value: &Value) -> Result<String, String> {
    let mut out = String::new();
    write_value(&mut out, value, &mut Vec::new())?;
    Ok(out)
}

fn write_value<'a>(
    out: &mut String,
    value: &'a Value,
    path: &mut Vec<&'a str>,
) -> Result<(), String> {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(x) => {
            if !x.is_finite() {
                let what = if x.is_nan() { "NaN" } else { "infinite" };
                let at = if path.is_empty() {
                    "<root>".to_string()
                } else {
                    path.join(".")
                };
                return Err(format!("{at} is {what}"));
            }
            write!(out, "{x}").expect("writing to a String cannot fail");
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                path.push("[]");
                write_value(out, item, path)?;
                path.pop();
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                path.push(key);
                write_value(out, item, path)?;
                path.pop();
            }
            out.push('}');
        }
    }
    Ok(())
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document.
///
/// # Errors
///
/// A message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
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
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.error("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(members));
                        }
                        _ => return Err(self.error("expected ',' or '}'")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.pos < self.bytes.len() && !matches!(self.bytes[self.pos], b'"' | b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    let escape = *self
                        .bytes
                        .get(self.pos + 1)
                        .ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 2;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Number(x)),
            _ => {
                self.pos = start;
                Err(self.error("invalid number"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(value: f64) -> Value {
        Value::Object(vec![(
            "metrics".into(),
            Value::Object(vec![(
                "pass_s".into(),
                Value::Object(vec![
                    ("value".into(), Value::Number(value)),
                    ("unit".into(), Value::String("s".into())),
                ]),
            )]),
        )])
    }

    #[test]
    fn writer_rejects_non_finite_numbers_by_field() {
        assert_eq!(
            to_string(&metrics(f64::NAN)).unwrap_err(),
            "metrics.pass_s.value is NaN"
        );
        assert_eq!(
            to_string(&metrics(f64::INFINITY)).unwrap_err(),
            "metrics.pass_s.value is infinite"
        );
        assert_eq!(
            to_string(&Value::Array(vec![Value::Number(f64::NEG_INFINITY)])).unwrap_err(),
            "[] is infinite"
        );
    }

    #[test]
    fn round_trips_what_it_writes() {
        let v = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![Value::Null, Value::Bool(true), Value::Number(-1.5e-7)]),
            ),
            ("s".into(), Value::String("tab\there \"q\" \\ \u{1}".into())),
            ("n".into(), metrics(1.2034)),
        ]);
        let text = to_string(&v).unwrap();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse(&format!(" {text}\n")).unwrap(), v);
    }

    #[test]
    fn numbers_keep_every_digit() {
        let x = 0.812_734_551_234_567_8;
        assert_eq!(
            parse(&to_string(&Value::Number(x)).unwrap())
                .unwrap()
                .as_f64(),
            Some(x)
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"open", "NaN"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
