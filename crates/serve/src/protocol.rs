//! The `sraa serve` wire protocol: newline-delimited, length-prefixed,
//! checksummed JSON frames.
//!
//! One frame per line:
//!
//! ```text
//! sraa1 <payload-len> <fnv64-hex16> <payload-json>\n
//! ```
//!
//! * `sraa1` — magic token carrying the protocol version (in the spirit
//!   of the shared store's segment magic + [`FORMAT_VERSION`](sraa_core::FORMAT_VERSION):
//!   a frame written by a future incompatible protocol fails the magic
//!   check, never half-parses);
//! * `<payload-len>` — decimal byte length of the payload, checked
//!   against the actual payload and against the server's request-size
//!   cap *before* the payload is interpreted;
//! * `<fnv64-hex16>` — FNV-1a of the payload bytes, 16 lowercase hex
//!   digits ([`sraa_ir::Fnv64`], the same hash the store segments use);
//! * `<payload-json>` — exactly one JSON value (in practice an object).
//!   The JSON writer escapes control characters, so a payload never
//!   contains a raw newline and the frame is always exactly one line.
//!
//! Every decode defect maps to a *typed* error code ([`FrameError::code`])
//! that the server echoes back in an `{"ok":false,"error":...}` reply
//! instead of disconnecting — a malformed client sees what it did wrong.
//!
//! The JSON subset here (null, bools, 64-bit signed integers, strings,
//! arrays, objects) is hand-rolled because the build environment is
//! offline: no serde. Object key order is preserved, so rendering is
//! deterministic.

use sraa_ir::Fnv64;

/// Magic + protocol version token opening every frame. Bump the digit on
/// any incompatible frame or payload change.
pub const MAGIC: &str = "sraa1";

/// Default request-size cap: the largest payload a server accepts.
/// Uploads carry whole MiniC sources, so the cap is generous; everything
/// else is tiny.
pub const MAX_FRAME: usize = 8 << 20;

/// Why a frame could not be decoded. Every variant is a typed-error-reply
/// signal, never a panic or a silent disconnect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The line does not start with `sraa1 ` — wrong protocol or version.
    BadMagic,
    /// Missing or non-numeric length / checksum tokens.
    BadHeader,
    /// The declared length disagrees with the actual payload.
    LengthMismatch,
    /// The declared length exceeds the request-size cap.
    Oversized,
    /// The checksum does not match the payload.
    BadChecksum,
}

impl FrameError {
    /// The stable error code echoed in `{"ok":false,"error":<code>}`
    /// replies.
    pub fn code(self) -> &'static str {
        match self {
            FrameError::BadMagic => "bad-magic",
            FrameError::BadHeader => "bad-header",
            FrameError::LengthMismatch => "length-mismatch",
            FrameError::Oversized => "oversized",
            FrameError::BadChecksum => "bad-checksum",
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

impl std::error::Error for FrameError {}

fn fnv_hex(payload: &str) -> String {
    let mut h = Fnv64::new();
    h.write(payload.as_bytes());
    format!("{:016x}", h.finish())
}

/// Encodes one payload as a complete frame line (trailing `\n` included).
pub fn encode_frame(payload: &str) -> String {
    format!("{MAGIC} {} {} {payload}\n", payload.len(), fnv_hex(payload))
}

/// Decodes one frame line (with or without the trailing newline) into its
/// payload, enforcing `max_frame` on the *declared* length — so an honest
/// header is rejected before its payload is even looked at.
pub fn decode_frame(line: &str, max_frame: usize) -> Result<&str, FrameError> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let line = line.strip_suffix('\r').unwrap_or(line);
    let rest = line.strip_prefix(MAGIC).ok_or(FrameError::BadMagic)?;
    let rest = rest.strip_prefix(' ').ok_or(FrameError::BadMagic)?;
    let (len_tok, rest) = rest.split_once(' ').ok_or(FrameError::BadHeader)?;
    let (sum_tok, payload) = rest.split_once(' ').ok_or(FrameError::BadHeader)?;
    let len: usize = len_tok.parse().map_err(|_| FrameError::BadHeader)?;
    if sum_tok.len() != 16 || !sum_tok.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(FrameError::BadHeader);
    }
    if len > max_frame {
        return Err(FrameError::Oversized);
    }
    if payload.len() != len {
        return Err(FrameError::LengthMismatch);
    }
    if fnv_hex(payload) != sum_tok.to_ascii_lowercase() {
        return Err(FrameError::BadChecksum);
    }
    Ok(payload)
}

/// A JSON value in the protocol's subset: no floats (nothing in the
/// protocol needs them, and integer-only numbers keep rendering exact and
/// deterministic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A 64-bit signed integer.
    Num(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved (deterministic rendering).
    Obj(Vec<(String, Json)>),
}

/// Shorthand for building an object from `(key, value)` pairs.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The canonical `{"ok":false,"error":code,"detail":...}` reply.
pub fn error_reply(code: &str, detail: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(code.to_string())),
        ("detail".into(), Json::Str(detail.into())),
    ])
}

impl Json {
    /// Renders the value as compact JSON (no whitespace), with all
    /// control characters escaped — the output never contains a raw
    /// newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field as a string.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Object field as an integer.
    pub fn num_field(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Json::as_i64)
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer inside, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The bool inside, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is a reply object with `"ok": true`.
    pub fn is_ok(&self) -> bool {
        self.get("ok").and_then(Json::as_bool) == Some(true)
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a payload failed to parse as JSON. Maps to the `bad-json` typed
/// error code; the variant is detail for the human.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// Unexpected byte or premature end of input.
    Syntax(usize),
    /// Nesting beyond the hard depth limit (a hostile payload, not a real
    /// request).
    TooDeep,
    /// A number outside `i64`, or a float (the subset is integer-only).
    BadNumber(usize),
    /// A malformed `\` escape or unpaired surrogate.
    BadEscape(usize),
    /// Trailing bytes after the first complete value.
    Trailing(usize),
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(at) => write!(f, "JSON syntax error at byte {at}"),
            JsonError::TooDeep => f.write_str("JSON nesting too deep"),
            JsonError::BadNumber(at) => write!(f, "unsupported JSON number at byte {at}"),
            JsonError::BadEscape(at) => write!(f, "bad JSON string escape at byte {at}"),
            JsonError::Trailing(at) => write!(f, "trailing bytes after JSON value at byte {at}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parses exactly one JSON value from `s` (trailing whitespace allowed,
/// trailing content not). Depth is hard-limited so hostile nesting cannot
/// blow the stack.
pub fn parse(s: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: s.as_bytes(), at: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(JsonError::Trailing(p.at));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(JsonError::Syntax(self.at))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(JsonError::Syntax(self.at))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::Syntax(self.at)),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(JsonError::BadNumber(start));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII digits");
        text.parse().map(Json::Num).map_err(|_| JsonError::BadNumber(start))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let at = self.at;
            match self.peek() {
                None => return Err(JsonError::Syntax(at)),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
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
                            self.at += 1;
                            let code = self.hex4().ok_or(JsonError::BadEscape(at))?;
                            // Surrogates are rejected rather than paired:
                            // nothing in the protocol emits them.
                            let c = char::from_u32(code).ok_or(JsonError::BadEscape(at))?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(JsonError::BadEscape(at)),
                    }
                    self.at += 1;
                }
                Some(b) if b < 0x20 => return Err(JsonError::Syntax(at)),
                Some(_) => {
                    // Consume one whole UTF-8 scalar (input is &str, so
                    // boundaries are valid).
                    let s = std::str::from_utf8(&self.bytes[self.at..]).expect("valid UTF-8");
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Option<u32> {
        let chunk = self.bytes.get(self.at..self.at + 4)?;
        let s = std::str::from_utf8(chunk).ok()?;
        let code = u32::from_str_radix(s, 16).ok()?;
        self.at += 4;
        if (0xD800..=0xDFFF).contains(&code) {
            return None;
        }
        Some(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::Syntax(self.at)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(JsonError::Syntax(self.at)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for payload in ["{}", r#"{"cmd":"stats"}"#, "", r#"{"s":"with spaces and \" quotes"}"#] {
            let frame = encode_frame(payload);
            assert!(frame.ends_with('\n'));
            assert_eq!(frame.lines().count(), 1, "one frame is one line");
            assert_eq!(decode_frame(&frame, MAX_FRAME).unwrap(), payload);
        }
    }

    #[test]
    fn frame_defects_map_to_typed_errors() {
        let good = encode_frame(r#"{"cmd":"stats"}"#);
        assert_eq!(decode_frame("sraa2 0 0000000000000000 ", 64), Err(FrameError::BadMagic));
        assert_eq!(decode_frame("hello", 64), Err(FrameError::BadMagic));
        assert_eq!(decode_frame("sraa1 nope", 64), Err(FrameError::BadHeader));
        assert_eq!(decode_frame("sraa1 nope 0123456789abcdef x", 64), Err(FrameError::BadHeader));
        assert_eq!(decode_frame("sraa1 1 zz x", 64), Err(FrameError::BadHeader));
        assert_eq!(decode_frame("sraa1 999 0123456789abcdef x", 64), Err(FrameError::Oversized));
        assert_eq!(decode_frame("sraa1 5 0123456789abcdef x", 64), Err(FrameError::LengthMismatch));
        assert_eq!(decode_frame("sraa1 1 0123456789abcdef x", 64), Err(FrameError::BadChecksum));
        // A flipped payload byte fails the checksum.
        let bad = good.replace("stats", "stat5");
        assert_eq!(decode_frame(&bad, MAX_FRAME), Err(FrameError::BadChecksum));
        // Codes are stable strings.
        for e in [
            FrameError::BadMagic,
            FrameError::BadHeader,
            FrameError::LengthMismatch,
            FrameError::Oversized,
            FrameError::BadChecksum,
        ] {
            assert!(!e.code().is_empty());
            assert_eq!(format!("{e}"), e.code());
        }
    }

    #[test]
    fn json_round_trips_and_accessors_work() {
        let v = obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Num(-42)),
            ("s", Json::Str("a\"b\\c\nd".into())),
            ("a", Json::Arr(vec![Json::Null, Json::Num(7)])),
        ]);
        let text = v.render();
        assert!(!text.contains('\n'), "rendering must stay one line");
        assert_eq!(parse(&text).unwrap(), v);
        assert!(v.is_ok());
        assert_eq!(v.num_field("n"), Some(-42));
        assert_eq!(v.str_field("s"), Some("a\"b\\c\nd"));
        assert_eq!(v.get("a").and_then(Json::as_str), None);
        assert_eq!(Json::Num(3).as_bool(), None);
        let err = error_reply("bad-json", "detail");
        assert!(!err.is_ok());
        assert_eq!(err.str_field("error"), Some("bad-json"));
    }

    #[test]
    fn hostile_json_is_rejected_cleanly() {
        assert!(matches!(parse(""), Err(JsonError::Syntax(_))));
        assert!(matches!(parse("{\"a\":}"), Err(JsonError::Syntax(_))));
        assert!(matches!(parse("1 2"), Err(JsonError::Trailing(_))));
        assert!(matches!(parse("1.5"), Err(JsonError::BadNumber(_))));
        assert!(matches!(parse("1e9"), Err(JsonError::BadNumber(_))));
        assert!(matches!(parse("99999999999999999999"), Err(JsonError::BadNumber(_))));
        assert!(matches!(parse("\"\\x\""), Err(JsonError::BadEscape(_))));
        assert!(matches!(parse("\"\\ud800\""), Err(JsonError::BadEscape(_))));
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(matches!(parse(&deep), Err(JsonError::TooDeep)));
        // Errors render human-readably.
        for e in [
            JsonError::Syntax(1),
            JsonError::TooDeep,
            JsonError::BadNumber(2),
            JsonError::BadEscape(3),
            JsonError::Trailing(4),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
