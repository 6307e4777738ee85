//! Minimal JSON emission *and parsing* for machine-readable results
//! (no external dependency needed for these flat records).
//!
//! Emission ([`JsonObject`], [`array`]) has been here since the first
//! harness; parsing ([`parse`], [`Value`]) arrived with the journalled
//! result manifest, which must read its own `journal-v1.jsonl` lines
//! back and reject anything malformed with a typed error instead of
//! panicking on torn writes.

use std::fmt::Write as _;

use crate::BenchRun;

/// A JSON object under construction.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// Creates an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a numeric field.
    pub fn num(&mut self, key: &str, v: impl Into<f64>) -> &mut Self {
        let v: f64 = v.into();
        // Integers render without a fraction; everything else with
        // enough digits to round-trip sensibly.
        let s = if v.fract() == 0.0 && v.abs() < 9.0e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:.6}")
        };
        self.fields.push((key.to_string(), s));
        self
    }

    /// Adds a string field (escaping quotes and backslashes).
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.fields.push((key.to_string(), quote(v)));
        self
    }

    /// Adds a pre-rendered JSON value (e.g. a nested object/array).
    pub fn raw(&mut self, key: &str, v: String) -> &mut Self {
        self.fields.push((key.to_string(), v));
        self
    }

    /// Renders the object.
    pub fn render(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":{v}");
        }
        s.push('}');
        s
    }
}

/// Renders a string as a quoted JSON string literal (escaping quotes,
/// backslashes, and newlines).
pub fn quote(v: &str) -> String {
    let escaped: String = v
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value of `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a
    /// number exactly representing one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Why a document failed to parse: byte offset plus a short reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was expected or found.
    pub reason: &'static str,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.at)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected). Never panics on malformed input.
pub fn parse(src: &str) -> Result<Value, JsonParseError> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonParseError {
            at: pos,
            reason: "trailing garbage after document",
        });
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(
    b: &[u8],
    pos: &mut usize,
    want: u8,
    reason: &'static str,
) -> Result<(), JsonParseError> {
    if b.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonParseError { at: *pos, reason })
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, JsonParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        _ => Err(JsonParseError {
            at: *pos,
            reason: "expected a JSON value",
        }),
    }
}

fn parse_lit(
    b: &[u8],
    pos: &mut usize,
    lit: &'static str,
    v: Value,
) -> Result<Value, JsonParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(JsonParseError {
            at: *pos,
            reason: "malformed literal",
        })
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, JsonParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Value::Num)
        .ok_or(JsonParseError {
            at: start,
            reason: "malformed number",
        })
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
    expect_byte(b, pos, b'"', "expected opening quote")?;
    let mut out = Vec::new();
    loop {
        match b.get(*pos) {
            None => {
                return Err(JsonParseError {
                    at: *pos,
                    reason: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| JsonParseError {
                    at: *pos,
                    reason: "invalid UTF-8 in string",
                });
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or(JsonParseError {
                                at: *pos,
                                reason: "malformed \\u escape",
                            })?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(hex.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => {
                        return Err(JsonParseError {
                            at: *pos,
                            reason: "unknown escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, JsonParseError> {
    expect_byte(b, pos, b'[', "expected '['")?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => {
                return Err(JsonParseError {
                    at: *pos,
                    reason: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, JsonParseError> {
    expect_byte(b, pos, b'{', "expected '{'")?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect_byte(b, pos, b':', "expected ':'")?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => {
                return Err(JsonParseError {
                    at: *pos,
                    reason: "expected ',' or '}'",
                })
            }
        }
    }
}

/// Renders an array of pre-rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut s = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&item);
    }
    s.push(']');
    s
}

/// Serializes the full suite results (everything figs. 8-12/14 need) as
/// one JSON document.
pub fn suite_json(runs: &[BenchRun]) -> String {
    let items = runs.iter().map(|r| {
        let mut o = JsonObject::new();
        o.str("bench", r.id.abbrev());
        o.num("init_ops", r.spec.init_ops as f64);
        o.num("sim_ops", r.spec.sim_ops as f64);
        for (name, v) in [
            ("base", &r.base),
            ("log", &r.log),
            ("logp", &r.logp),
            ("logpsf", &r.logpsf),
        ] {
            let mut vo = JsonObject::new();
            vo.num("cycles", v.sim.cpu.cycles as f64)
                .num("uops", v.counts.total() as f64)
                .num("fetch_stalls", v.sim.cpu.fetch_stall_cycles as f64)
                .num("fence_stalls", v.sim.cpu.fence_stall_cycles as f64)
                .num("pcommits", v.counts.pcommits as f64)
                .num(
                    "max_inflight_pcommits",
                    v.sim.cpu.max_inflight_pcommits as f64,
                )
                .num("stores_per_pcommit", v.sim.stores_per_pcommit());
            o.raw(name, vo.render());
        }
        let mut sp = JsonObject::new();
        sp.num("cycles", r.sp256.cpu.cycles as f64)
            .num("fetch_stalls", r.sp256.cpu.fetch_stall_cycles as f64)
            .num("epochs", r.sp256.cpu.epochs as f64)
            .num("ssb_high_water", r.sp256.ssb.high_water as f64)
            .num("bloom_fp_rate", r.sp256.bloom_false_positive_rate())
            .num(
                "checkpoint_high_water",
                r.sp256.checkpoints.high_water as f64,
            );
        o.raw("sp256", sp.render());
        o.render()
    });
    crate::schema::emit(crate::schema::SUITE, |root| {
        root.raw("benchmarks", array(items));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_rendering() {
        let mut o = JsonObject::new();
        o.num("a", 1.0).num("b", 2.5).str("c", "x\"y\\z");
        assert_eq!(o.render(), r#"{"a":1,"b":2.500000,"c":"x\"y\\z"}"#);
    }

    #[test]
    fn array_rendering() {
        assert_eq!(array(["1".to_string(), "2".to_string()]), "[1,2]");
        assert_eq!(array(std::iter::empty::<String>()), "[]");
    }

    #[test]
    fn parse_round_trips_emitter_output() {
        let mut o = JsonObject::new();
        o.num("a", 1.0)
            .num("b", 2.5)
            .str("c", "x\"y\\z\nw")
            .raw("d", array(["1".into(), "\"two\"".into()]))
            .raw("e", "null".into())
            .raw("f", "true".into());
        let v = parse(&o.render()).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Value::as_f64), Some(2.5));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x\"y\\z\nw"));
        let d = v.get("d").and_then(Value::as_arr).unwrap();
        assert_eq!(d[0].as_u64(), Some(1));
        assert_eq!(d[1].as_str(), Some("two"));
        assert_eq!(v.get("e"), Some(&Value::Null));
        assert_eq!(v.get("f").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_documents_with_typed_errors() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1}trailing",
            "nul",
            "--5",
            "{\"a\":\"\\q\"}",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(!e.to_string().is_empty(), "{bad:?} gave {e:?}");
        }
    }

    #[test]
    fn parse_handles_negative_and_fractional_numbers() {
        let v = parse(r#"{"n":-3,"x":0.125,"big":123456789012}"#).unwrap();
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(-3.0));
        assert_eq!(v.get("n").and_then(Value::as_u64), None);
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(0.125));
        assert_eq!(v.get("big").and_then(Value::as_u64), Some(123_456_789_012));
    }

    #[test]
    fn suite_json_parses_as_a_document() {
        let exp = crate::Experiment {
            scale: 5000,
            seed: 3,
        };
        let runs = crate::Harness::new(exp, 1).run_benches(&[spp_workloads::BenchId::LinkedList]);
        let v = parse(&suite_json(&runs)).unwrap();
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("specpersist/suite-v1")
        );
        let benches = v.get("benchmarks").and_then(Value::as_arr).unwrap();
        assert_eq!(benches.len(), 1);
        assert_eq!(benches[0].get("bench").and_then(Value::as_str), Some("LL"));
    }

    #[test]
    fn suite_json_is_parseable_shape() {
        // A smoke check: run one tiny benchmark and assert basic
        // structure (balanced braces, expected keys).
        let exp = crate::Experiment {
            scale: 5000,
            seed: 3,
        };
        let runs = crate::Harness::new(exp, 1).run_benches(&[spp_workloads::BenchId::LinkedList]);
        let j = suite_json(&runs);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in ["\"bench\"", "\"logpsf\"", "\"sp256\"", "\"bloom_fp_rate\""] {
            assert!(j.contains(key), "missing {key}");
        }
    }
}
