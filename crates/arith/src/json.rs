//! The JSON value every `results/` artifact is rendered from.
//!
//! Reporters build a [`Json`] value ([`Json::object`], [`Json::array`]
//! and the `From` conversions) and the file writer renders it once with
//! [`Json::render`]. This module is the only place that knows the
//! format:
//!
//! * compact output: no whitespace, object keys in insertion order;
//! * strings escape `"`, `\`, `\n`, `\r`, `\t` and every other control
//!   character below U+0020 (as `\u00XX`); everything else is written
//!   as is;
//! * integers are exact ([`Json::Int`] holds any `u64` or `i64`) and
//!   print with integer `Display`;
//! * floats print with `f64` `Display`: the shortest digits that read
//!   back to the same value, never an exponent, `2.0` as `2`;
//! * a NaN or ±∞ has no JSON spelling, so rendering fails with
//!   [`NonFinite`], naming the path of the offending number (e.g.
//!   `cells[3].p99_ms`) instead of shipping an invalid file.
//!
//! ```
//! use equinox_arith::json::Json;
//!
//! let cell = Json::object([
//!     ("policy", "round_robin".into()),
//!     ("offered", 1200u64.into()),
//!     ("p99_ms", Json::from(2.0)),
//!     ("recovery_ms", None::<f64>.into()),
//!     ("loads", [0.3, 0.6][..].into()),
//! ]);
//! let text = cell.render().unwrap();
//! assert_eq!(
//!     text,
//!     r#"{"policy":"round_robin","offered":1200,"p99_ms":2,"recovery_ms":null,"loads":[0.3,0.6]}"#
//! );
//!
//! let cell = Json::object([("p99_ms", f64::NAN.into())]);
//! let broken = Json::object([("cells", Json::array([cell]))]);
//! let err = broken.render().unwrap_err();
//! assert_eq!(err.to_string(), "non-finite number NaN at cells[0].p99_ms");
//! ```

use std::fmt::{self, Write as _};

/// A JSON value. Objects keep their fields in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An exact integer.
    Int(i128),
    /// A floating-point number; must be finite to render.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as `(key, value)` fields in rendering order.
    Object(Vec<(String, Json)>),
}

/// A NaN or ±∞ met while rendering: JSON cannot represent it.
#[derive(Debug, Clone, PartialEq)]
pub struct NonFinite {
    /// The offending number.
    pub value: f64,
    /// Where it sits, as `key.key[index]…` from the rendered root; empty
    /// when the root itself is the number.
    pub path: String,
}

impl NonFinite {
    /// Prefixes the path with the field name or `[index]` that encloses it.
    fn under(mut self, segment: &str) -> Self {
        if !self.path.is_empty() && !self.path.starts_with('[') {
            self.path.insert(0, '.');
        }
        self.path.insert_str(0, segment);
        self
    }
}

impl fmt::Display for NonFinite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "non-finite number {} at the root", self.value)
        } else {
            write!(f, "non-finite number {} at {}", self.value, self.path)
        }
    }
}

impl std::error::Error for NonFinite {}

impl Json {
    /// An object with `fields` in the given order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(key, value)| (key.to_string(), value)).collect())
    }

    /// An array of `items`.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    /// A wall-clock reading, rounded to whole milliseconds: how the
    /// `*_timings.json` files record seconds.
    pub fn seconds(seconds: f64) -> Json {
        Json::Float((seconds * 1e3).round() / 1e3)
    }

    /// The compact JSON text of this value (see the module docs for the
    /// format), or the first non-finite number in rendering order.
    pub fn render(&self) -> Result<String, NonFinite> {
        let mut out = String::new();
        self.write(&mut out)?;
        Ok(out)
    }

    fn write(&self, out: &mut String) -> Result<(), NonFinite> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Float(x) => return Err(NonFinite { value: *x, path: String::new() }),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out).map_err(|e| e.under(&format!("[{i}]")))?;
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write(out).map_err(|e| e.under(key))?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

/// Writes `s` as a JSON string literal.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! exact_integers {
    ($($int:ty),*) => {$(
        impl From<$int> for Json {
            fn from(i: $int) -> Json {
                // Lossless: every listed type fits in an `i128`.
                Json::Int(i as i128)
            }
        }
    )*};
}

exact_integers!(u32, u64, usize, i64);

/// `None` renders as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

impl<T: Clone + Into<Json>> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        Json::array(items.iter().cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_numbers_are_rejected_by_path() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::object([
                ("ok", Json::from(1.5)),
                (
                    "cells",
                    Json::array([
                        Json::object([("p99_ms", Json::from(0.25))]),
                        Json::object([("series", [1.0, bad][..].into())]),
                    ]),
                ),
            ]);
            let err = doc.render().unwrap_err();
            assert_eq!(err.path, "cells[1].series[1]");
            assert!(err.value.is_nan() || err.value == bad);
            let message = err.to_string();
            assert!(message.starts_with("non-finite number "), "{message}");
            assert!(message.ends_with(" at cells[1].series[1]"), "{message}");
        }
        let nested = Json::array([Json::array([Json::from(f64::INFINITY)])]);
        assert_eq!(nested.render().unwrap_err().path, "[0][0]");
        let root = Json::from(f64::NEG_INFINITY).render().unwrap_err();
        assert_eq!(root.to_string(), "non-finite number -inf at the root");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a\"b\\c\nd\te\u{1}f é");
        assert_eq!(s.render().unwrap(), r#""a\"b\\c\nd\te\u0001f é""#);
        let keyed = Json::object([("k\"", Json::Null)]);
        assert_eq!(keyed.render().unwrap(), r#"{"k\"":null}"#);
    }

    #[test]
    fn scalars_render_in_their_shortest_exact_form() {
        assert_eq!(Json::from(None::<f64>).render().unwrap(), "null");
        assert_eq!(Json::from(Some(0.5)).render().unwrap(), "0.5");
        assert_eq!(Json::from(2.0).render().unwrap(), "2");
        assert_eq!(Json::from(-0.0).render().unwrap(), "-0");
        assert_eq!(Json::from(0.1).render().unwrap(), "0.1");
        assert_eq!(Json::from(1e-7).render().unwrap(), "0.0000001");
        assert_eq!(Json::from(7.715409836065574).render().unwrap(), "7.715409836065574");
        assert_eq!(Json::from(u64::MAX).render().unwrap(), "18446744073709551615");
        assert_eq!(Json::from(i64::MIN).render().unwrap(), "-9223372036854775808");
        assert_eq!(Json::from(u32::MAX).render().unwrap(), "4294967295");
        assert_eq!(Json::from(usize::MAX).render().unwrap(), usize::MAX.to_string());
        assert_eq!(Json::from(true).render().unwrap(), "true");
        assert_eq!(Json::from(String::from("x")).render().unwrap(), "\"x\"");
        assert_eq!(Json::seconds(73.6104).render().unwrap(), "73.61");
        assert_eq!(Json::seconds(0.0002).render().unwrap(), "0");
    }

    #[test]
    fn containers_keep_order_and_render_compactly() {
        let doc = Json::object([
            ("zeta", 1u32.into()),
            ("alpha", Json::array::<Json>([])),
            ("mid", Json::object([])),
            ("list", [3usize, 1, 2][..].into()),
        ]);
        assert_eq!(doc.render().unwrap(), r#"{"zeta":1,"alpha":[],"mid":{},"list":[3,1,2]}"#);
    }
}
