//! A miniature JSON value type: enough of RFC 8259 for the plan store's and
//! table store's versioned records and the wire protocol's one-line
//! requests/responses.
//!
//! The workspace builds fully offline, so this replaces `serde_json` the way
//! `crates/proptest-shim` replaces proptest: a small, std-only subset with
//! the exact surface the persistence layers need. Objects preserve insertion
//! order (stable output for tests and humans); duplicate keys keep the last
//! value on lookup, like `serde_json`'s map behavior. The crate also hosts
//! [`write_atomically`], the tmp + rename idiom every on-disk record in the
//! workspace is written with.

use std::fmt;
use std::path::Path;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts: `[]` is
/// depth 1. The parser recurses once per level, so the cap bounds its stack
/// use whatever the input; the workspace's own records nest about 4 deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; the store encodes
    /// bit-exact floats as hex *strings*, not numbers, precisely because
    /// JSON numbers round-trip through decimal).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, requiring nothing but whitespace after it.
    /// Documents nested deeper than [`MAX_DEPTH`] and numbers outside the
    /// finite `f64` range are errors.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Looks up a key in an object (`None` for non-objects and absent keys;
    /// last duplicate wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Builder for a JSON object rendered in insertion order — the way every
/// record and response in this crate is assembled.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, Json)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Appends a field.
    pub fn push(mut self, key: &str, value: Json) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Finishes into a [`Json::Obj`].
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

/// Writes `contents` to `path` via a temp file + atomic rename, so a crash
/// mid-write can never leave a torn record under a valid address. The temp
/// file lives next to `path` (same filesystem, so the rename is atomic) and
/// is suffixed with the writer's pid.
///
/// # Errors
///
/// Propagates the I/O error of the write or the rename.
pub fn write_atomically(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at offset {pos}", pos = *pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` open arrays and
/// objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at offset {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
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
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not needed by this protocol;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole run up to the next quote or escape in
                // one step. Both delimiters are ASCII, so they can never
                // fall inside a multibyte scalar and the run is valid UTF-8
                // on its own (the input arrived as a &str).
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(n),
        _ => Err(format!("bad number `{text}` at offset {start}")),
    }
}

fn escape_into(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    /// Compact single-line rendering — every wire message and store record is
    /// one line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_into(&mut out, self);
        f.write_str(&out)
    }
}

fn write_into(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => {
            if n.is_finite() {
                // `{:?}` prints the shortest representation that round-trips
                // an f64 (Rust's float formatting is shortest-exact).
                out.push_str(&format!("{n:?}"));
            } else {
                // JSON has no Inf/NaN; the store never writes them as
                // numbers (bit-exact floats travel as hex strings).
                out.push_str("null");
            }
        }
        Json::Str(s) => escape_into(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(out, item);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, key);
                out.push(':');
                write_into(out, item);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let text = r#"{"op":"plan","axes":[4,4],"bytes":1e9,"deep":{"a":[true,false,null],"s":"q\"uo\\te\nnl"}}"#;
        let parsed = Json::parse(text).unwrap();
        let reparsed = Json::parse(&parsed.to_string()).unwrap();
        assert_eq!(parsed, reparsed);
        assert_eq!(parsed.get("op").and_then(Json::as_str), Some("plan"));
        assert_eq!(
            parsed.get("axes").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(parsed.get("bytes").and_then(Json::as_f64), Some(1.0e9));
    }

    #[test]
    fn numbers_round_trip_shortest_exact() {
        for n in [0.0, -0.0, 1.5, 1.0e9, 0.1, f64::MIN_POSITIVE, 1e308] {
            let text = Json::Num(n).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), n.to_bits(), "{n} via {text}");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_deeper_than_max_depth_is_an_error() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        let object = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&object).is_ok());
        assert!(Json::parse(&format!("[{object}]")).is_err());
    }

    #[test]
    fn deep_hostile_input_fails_without_overflowing_the_stack() {
        // A default-size thread stack: uncapped recursion aborted the whole
        // process on this input.
        let hostile = "[".repeat(100_000);
        let parsed = std::thread::spawn(move || Json::parse(&hostile).is_err())
            .join()
            .unwrap();
        assert!(parsed);
    }

    #[test]
    fn numbers_outside_the_finite_range_are_errors() {
        for bad in ["1e400", "-1e400", "[1e999]"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
    }

    #[test]
    fn last_duplicate_key_wins() {
        let parsed = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(parsed.get("a").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn write_atomically_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!(
            "p2-json-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.json");
        write_atomically(&path, "first\n").unwrap();
        write_atomically(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name() != "record.json")
            .collect();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unicode_escapes_decode() {
        // Both the \u escape path and raw multibyte UTF-8 decode.
        let parsed = Json::parse("\"caf\\u00e9 é\"").unwrap();
        assert_eq!(parsed.as_str(), Some("café é"));
    }
}
