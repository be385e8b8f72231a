//! A dependency-free JSON value, parser and **canonical** writer.
//!
//! The serving layer's cache correctness rests on requests hashing to
//! the same key whenever they *mean* the same thing. That property is
//! delivered here: any JSON document parses into a [`Json`] tree, and
//! [`Json::to_canonical_string`] renders the tree with object keys
//! sorted bytewise, no insignificant whitespace, and every number in
//! Rust's shortest-round-trip `f64` form — so two spellings of one
//! request (key order, whitespace, `1e3` vs `1000.0`) serialize, and
//! therefore hash, identically.
//!
//! The parser is strict where it matters for canonicalization: it
//! rejects duplicate object keys (two spellings of a duplicate-keyed
//! document could otherwise canonicalize differently), non-finite
//! numbers, and documents nested deeper than [`MAX_DEPTH`].

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts; deeper documents are
/// hostile or broken, and recursion must stay bounded.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value. Object members keep their parse order; the
/// canonical writer sorts them on the way out.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as `(key, value)` members in parse order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (safe to echo in a 400
    /// response) on malformed input, duplicate object keys, non-finite
    /// numbers, trailing garbage, or excessive nesting.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Renders the canonical form: object keys sorted bytewise, no
    /// whitespace, numbers in shortest-round-trip form. Equal values
    /// always render byte-identically.
    pub fn to_canonical_string(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    fn write_canonical(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => {
                // `{:?}` is Rust's shortest round-trip rendering; it
                // never produces a non-JSON token for finite inputs.
                let _ = write!(out, "{v:?}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_canonical(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                let mut order: Vec<usize> = (0..members.len()).collect();
                order.sort_by(|&a, &b| members[a].0.cmp(&members[b].0));
                out.push('{');
                for (i, &idx) in order.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, &members[idx].0);
                    out.push(':');
                    members[idx].1.write_canonical(out);
                }
                out.push('}');
            }
        }
    }

    /// The member of an object by key, if this is an object containing
    /// it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number
    /// below 2⁵³. Numbers parse to `f64`, which holds every integer below
    /// 2⁵³ exactly; from 2⁵³ up, the parsed value may be a rounding of a
    /// different integer in the document (`9007199254740993` parses to
    /// 2⁵³), so those are refused rather than silently changed.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < 9.007199254740992e15 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Escapes and quotes a string per JSON (control characters as
/// `\u00XX`, the two mandatory specials as two-character escapes).
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |bytes: &[u8], pos: &mut usize| {
        let from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > from
    };
    if !digits(bytes, pos) {
        return Err(format!("invalid number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(format!("invalid number at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(format!("invalid number at byte {start}"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("number bytes are ASCII");
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Json::Num(v)),
        _ => Err(format!("number out of range at byte {start}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                let lo = parse_hex4(bytes, *pos + 3)?;
                                *pos += 6;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("invalid low surrogate".to_owned());
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                return Err("unpaired surrogate".to_owned());
                            }
                        } else if (0xdc00..0xe000).contains(&hi) {
                            return Err("unpaired surrogate".to_owned());
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code).ok_or_else(|| "invalid codepoint".to_owned())?,
                        );
                    }
                    _ => return Err(format!("invalid escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err("unescaped control character in string".to_owned()),
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so bytes
                // are valid UTF-8 by construction).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty by match");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let slice = bytes
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_owned())?;
    let text = std::str::from_utf8(slice).map_err(|_| "invalid \\u escape".to_owned())?;
    u32::from_str_radix(text, 16).map_err(|_| "invalid \\u escape".to_owned())
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut members: Vec<(String, Json)> = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        if members.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate object key {key:?}"));
        }
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_canonicalizes_the_kitchen_sink() {
        let doc = r#" { "b" : [1, 2.5, -3e2, true, false, null],
                        "a" : { "nested" : "va\"lue\n" } } "#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.to_canonical_string(),
            "{\"a\":{\"nested\":\"va\\\"lue\\u000a\"},\"b\":[1.0,2.5,-300.0,true,false,null]}"
        );
    }

    #[test]
    fn key_order_and_whitespace_do_not_change_the_canonical_form() {
        let a = Json::parse(r#"{"x":1,"y":{"p":2,"q":3}}"#).unwrap();
        let b = Json::parse(" {\n\t\"y\" : { \"q\" :3, \"p\": 2 },\r\n \"x\": 1e0 } ").unwrap();
        assert_eq!(a.to_canonical_string(), b.to_canonical_string());
    }

    #[test]
    fn rejects_duplicates_garbage_and_depth() {
        assert!(Json::parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1e999").is_err(), "infinite numbers rejected");
        assert!(Json::parse("\"\u{7}\"").is_err(), "raw control rejected");
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""aA\té😀\/""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\t\u{e9}\u{1F600}/"));
        // Canonical form re-escapes only what JSON requires.
        assert_eq!(v.to_canonical_string(), "\"aA\\u0009\u{e9}\u{1F600}/\"");
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":3,"s":"x","b":true,"a":[1],"big":1e300,"neg":-1}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("big").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        assert!(v.get("a").unwrap().as_obj().is_none());
        assert_eq!(v.as_obj().unwrap().len(), 6);
        assert_eq!(Json::Num(2.5).as_f64(), Some(2.5));
    }

    #[test]
    fn canonical_parse_is_a_fixed_point() {
        let doc = r#"{"z":[{"k":1.5},"two",null],"a":true}"#;
        let canon = Json::parse(doc).unwrap().to_canonical_string();
        let again = Json::parse(&canon).unwrap().to_canonical_string();
        assert_eq!(canon, again);
    }
}
