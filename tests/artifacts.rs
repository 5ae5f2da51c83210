//! Every committed `results/*.json` artifact is valid JSON and is exactly
//! what [`Json::render`] writes for its parsed value: strict JSON,
//! compact, keys in file order, shortest-round-trip floats, no NaN or ∞.
//!
//! The fleet and serve sweeps are also parsed back to re-derive their
//! request conservation from the written counts.
//!
//! The parser lives here, not in the library, because only this test
//! reads an artifact back.

use equinox_arith::json::Json;

/// Parses `text` as one RFC 8259 JSON value, rejecting everything the
/// grammar does not allow (trailing commas, leading zeros, bare `NaN`,
/// unescaped control characters, lone surrogates, trailing text) plus
/// duplicate object keys and numbers that overflow `f64`.
fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
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
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes a run of ASCII digits; true if there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.bytes[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.error("expected a value"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a key"));
            }
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.error(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.error("expected ':'"));
            }
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Object(fields)),
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.next() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Array(items)),
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The input is a `str` and the run stops only at ASCII bytes,
            // so the slice is whole UTF-8.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.next() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let unit = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&unit) {
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return Err(self.error("lone high surrogate"));
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("high surrogate without a low one"));
                    }
                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    unit
                };
                char::from_u32(code).ok_or_else(|| self.error("lone low surrogate"))?
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits =
            self.bytes.get(self.pos..self.pos + 4).ok_or_else(|| self.error("short \\u escape"))?;
        let text = std::str::from_utf8(digits).map_err(|_| self.error("bad \\u escape"))?;
        if !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.error("bad \\u escape"));
        }
        self.pos += 4;
        Ok(u32::from_str_radix(text, 16).expect("four hex digits"))
    }

    /// An integer literal becomes an exact [`Json::Int`] (`-0` stays the
    /// float it must have been written from); anything with a fraction
    /// or exponent becomes a finite [`Json::Float`].
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return Err(self.error("expected a digit"));
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if !self.digits() {
                return Err(self.error("expected a digit after '.'"));
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            let _ = self.eat(b'+') || self.eat(b'-');
            if !self.digits() {
                return Err(self.error("expected an exponent digit"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral && text != "-0" {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Float(x)),
            _ => Err(self.error(&format!("number {text} out of range"))),
        }
    }
}

/// The artifact text without the one trailing newline some files end with.
fn body(text: &str) -> &str {
    text.strip_suffix('\n').unwrap_or(text)
}

#[test]
fn every_committed_json_artifact_renders_back_byte_for_byte() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("results/ is committed")
        .map(|entry| entry.expect("readable entry").file_name().into_string().expect("UTF-8 name"))
        .filter(|name| name.ends_with(".json"))
        .collect();
    names.sort();
    // Eight sweep artifacts, the analyzer report and the regen timings.
    let expected = [
        "allreduce_sweep.json",
        "bench_timings.json",
        "bounds_calibration.json",
        "driver_checks.json",
        "equinox_check.json",
        "fault_sweep.json",
        "fitted_tables.json",
        "fleet_sweep.json",
        "numerics_sweep.json",
        "serve_sweep.json",
    ];
    assert_eq!(names, expected, "the committed JSON artifacts changed");
    for name in &names {
        let text = std::fs::read_to_string(format!("{dir}/{name}")).expect("readable artifact");
        let text = body(&text);
        let value = parse(text).unwrap_or_else(|e| panic!("results/{name}: {e}"));
        let rendered = value.render().unwrap_or_else(|e| panic!("results/{name}: {e}"));
        if rendered != text {
            let at = rendered.bytes().zip(text.bytes()).take_while(|(a, b)| a == b).count();
            let context =
                |s: &str| s.get(at.saturating_sub(20)..(at + 20).min(s.len())).map(str::to_string);
            panic!(
                "results/{name} is not what Json::render writes for it; first difference at byte \
                 {at}: file {:?}, rendered {:?}",
                context(text),
                context(&rendered),
            );
        }
    }
}

/// The committed `results/<name>`, parsed.
fn artifact(name: &str) -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/").to_string() + name;
    let text = std::fs::read_to_string(&path).expect("readable artifact");
    parse(body(&text)).unwrap_or_else(|e| panic!("results/{name}: {e}"))
}

/// The value of `key` in the object `value`.
fn field<'a>(value: &'a Json, key: &str) -> &'a Json {
    let Json::Object(fields) = value else { panic!("no object around {key:?}") };
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap_or_else(|| panic!("no {key:?}"))
}

/// The array under `key`.
fn items<'a>(value: &'a Json, key: &str) -> &'a [Json] {
    match field(value, key) {
        Json::Array(items) => items,
        other => panic!("{key:?} is not an array: {other:?}"),
    }
}

/// The integer `value`.
fn int(value: &Json) -> i128 {
    match value {
        Json::Int(i) => *i,
        other => panic!("not an integer: {other:?}"),
    }
}

/// The integer under `key`.
fn count(value: &Json, key: &str) -> i128 {
    int(field(value, key))
}

#[test]
fn the_fleet_and_serve_sweeps_account_for_every_offered_request() {
    let serve = artifact("serve_sweep.json");
    let cells = items(&serve, "cells");
    assert_eq!(cells.len(), 16, "serve_sweep.json cells");
    for cell in cells {
        let what = format!("serve cell {:?} {:?}", field(cell, "kind"), field(cell, "admission"));
        let offered = count(cell, "offered");
        let admission_shed = count(cell, "admission_shed");
        // Each offered request is shed at the edge, completed, shed by
        // its device, lost with a corrupted batch or still queued there.
        assert_eq!(
            admission_shed
                + count(cell, "completed")
                + count(cell, "device_shed")
                + count(cell, "device_dropped")
                + count(cell, "final_queue"),
            offered,
            "{what}"
        );
        let assigned: i128 = items(cell, "assigned_per_device").iter().map(int).sum();
        assert_eq!(assigned + admission_shed, offered, "{what}");
        let tiers = count(field(cell, "paid"), "offered") + count(field(cell, "free"), "offered");
        assert_eq!(tiers, offered, "{what}");
    }
    let fleet = artifact("fleet_sweep.json");
    let cells = items(&fleet, "cells");
    assert_eq!(cells.len(), 36, "fleet_sweep.json cells");
    for cell in cells {
        let assigned: i128 = items(cell, "assigned_per_device").iter().map(int).sum();
        let what = format!(
            "fleet cell {:?} {:?} {:?}",
            field(cell, "fleet_size"),
            field(cell, "policy"),
            field(cell, "load")
        );
        assert_eq!(assigned, count(cell, "offered"), "{what}");
    }
}

#[test]
fn the_parser_rejects_what_json_does_not_allow() {
    for bad in [
        "", " ", "NaN", "-inf", "[1,]", "{\"a\":1,}", "[1 2]", "{\"a\" 1}", "{a:1}", "'a'",
        "01", "-01", "1.", ".5", "-", "1e", "1e+", "+1", "1e999", "tru", "nul",
        "\"\\x\"", "\"a\u{1}b\"", "\"open", "\"\\ud800\"", "\"\\udc00\"", "\"\\u12\"",
        "{\"a\":1,\"a\":2}", "[1] x", "[1]]",
    ] {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn parsed_values_render_to_the_canonical_form() {
    for (text, canonical) in [
        (r#"{"a":[1,-2.5,true,null,"x\"\\\n\u0001é"],"b":{},"c":[]}"#, None),
        (r#"[18446744073709551615,-9223372036854775808,0.1,7.715409836065574,-0]"#, None),
        (" { \"k\" : [ 1 , 2 ] } ", Some(r#"{"k":[1,2]}"#)),
        (r#"["\/\b\f\r\t\ud83d\ude00"]"#, Some("[\"/\\u0008\\u000c\\r\\t\u{1f600}\"]")),
        ("[2.0,1e2,1.5E-3]", Some("[2,100,0.0015]")),
    ] {
        let value = parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(value.render().unwrap(), canonical.unwrap_or(text));
    }
}
