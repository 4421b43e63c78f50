//! The one JSON codec: the wire protocol's response lines, trace
//! exports and bench reports all parse and write through this module.
//!
//! [`Json`] keeps object fields in document order, so a value written
//! back out reads in the order it was built. [`Json::parse`] is strict
//! about the grammar (numbers included) and bounds container nesting at
//! [`MAX_DEPTH`]: a line of `[[[[…` is an error, never a stack overflow
//! in a client thread with a small stack. The writer is `Display`:
//! `{}` is compact (`{"a":1}`), `{:#}` is indented for reports, and a
//! non-finite number is written as `null`. [`escape_into`] is the one
//! string escaper; callers that lay out a fixed record themselves (the
//! wire's response line) escape through it straight into their buffer.

use std::fmt::{self, Write as _};

/// Deepest container nesting [`Json::parse`] accepts. Bench reports nest
/// about a dozen levels (span trees inside points inside the envelope);
/// wire lines nest one.
pub const MAX_DEPTH: usize = 64;

/// A parsed or to-be-written JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as `f64`.
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving field order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; the whole input must be consumed.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != text.len() {
            return Err(format!("trailing bytes at byte {}", parser.pos));
        }
        Ok(value)
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn is_nonempty_container(&self) -> bool {
        match self {
            Json::Arr(items) => !items.is_empty(),
            Json::Obj(fields) => !fields.is_empty(),
            _ => false,
        }
    }

    /// Writes the value; `indent` is `None` for compact output, else the
    /// nesting depth of this value in indented output.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, ['[', ']'], items.iter().map(|v| (None, v)), indent),
            Json::Obj(fields) => write_seq(
                out,
                ['{', '}'],
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
                indent,
            ),
        }
    }
}

impl fmt::Display for Json {
    /// `{}` writes compact JSON; `{:#}` writes it indented, with each
    /// container that holds no non-empty container kept on one line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, f.alternate().then_some(0));
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn write_seq<'a>(
    out: &mut String,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
    indent: Option<usize>,
) {
    // Indented output breaks a container over lines only when it holds
    // a non-empty container: a report's numbers stay one record per line.
    let nested = indent.filter(|_| items.clone().any(|(_, v)| v.is_nonempty_container()));
    let (sep, colon) = match indent {
        None => (",", ":"),
        Some(_) if nested.is_some() => (",", ": "),
        Some(_) => (", ", ": "),
    };
    out.push(open);
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        if let Some(depth) = nested {
            newline(out, depth + 1);
        }
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(colon);
        }
        value.write(out, nested.map(|depth| depth + 1));
    }
    if let Some(depth) = nested {
        newline(out, depth);
    }
    out.push(close);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', depth * 2));
}

/// Appends `s` escaped for the inside of a JSON string literal: `"`,
/// `\`, `\n`, `\r` and `\t` get their short escapes, every other control
/// character below U+0020 a lowercase `\u00xx`, and everything else is
/// copied as is. Runs of plain text are copied whole.
pub fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
                "containers nest deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.close(b'}') {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    fields.push((key, self.value(depth + 1)?));
                    if self.separator(b'}')? {
                        return Ok(Json::Obj(fields));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.close(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    if self.separator(b']')? {
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&c) => Err(format!("unexpected byte {:?} at {}", c as char, self.pos)),
        }
    }

    /// Consumes `close` right after an opening bracket (an empty
    /// container).
    fn close(&mut self, close: u8) -> bool {
        self.skip_ws();
        let empty = self.bytes.get(self.pos) == Some(&close);
        if empty {
            self.pos += 1;
        }
        empty
    }

    /// After a container element: `,` continues (false), `close` ends
    /// the container (true).
    fn separator(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(&c) if c == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// `-? digits (. digits)? ([eE] [+-]? digits)?`, then `f64` parsing.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut ok = self.digits() > 0;
        if ok && self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            ok = self.digits() > 0;
        }
        if ok && matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok = self.digits() > 0;
        }
        let bad = || format!("bad number at byte {start}");
        if !ok {
            return Err(bad());
        }
        self.text[start..self.pos]
            .parse()
            .map(Json::Num)
            .map_err(|_| bad())
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the whole run up to the next delimiter. Both delimiters
            // are ASCII and the input is a &str, so the run ends on a char
            // boundary and each byte is looked at once.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let escape = self.bytes.get(self.pos).copied();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    // Exactly four hex digits (`from_str_radix` alone would
                    // take a leading `+`), naming a scalar value: the
                    // escaper never writes surrogates, so a lone one is
                    // malformed input.
                    let c = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                        .and_then(|_| {
                            u32::from_str_radix(&self.text[self.pos..self.pos + 4], 16).ok()
                        })
                        .and_then(char::from_u32)
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    self.pos += 4;
                    c
                }
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_accepts_and_rejects() {
        assert!(Json::parse(r#"{"a": [1, -2.5, 3e4], "b": {"c": "x\"y"}, "d": null}"#).is_ok());
        assert!(Json::parse("[true, false]").is_ok());
        assert!(Json::parse("  42  ").is_ok());
        assert!(Json::parse(r#"{"a": 1"#).is_err()); // truncated
        assert!(Json::parse(r#"{"a": 1} extra"#).is_err()); // trailing
        assert!(Json::parse(r#"{"a": 1.}"#).is_err()); // bad number
        assert!(Json::parse(r#"{"a": 1e}"#).is_err());
        assert!(Json::parse(r#"{"a": -}"#).is_err());
        assert!(Json::parse(r#"{a: 1}"#).is_err()); // unquoted key
        assert!(Json::parse(r#"{"a": }"#).is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse(r#"{"a": "\q"}"#).is_err()); // unknown escape
        assert!(Json::parse(r#"{"a": "\u+12a"}"#).is_err()); // signed \u digits
        assert!(Json::parse(r#""\u12""#).is_err()); // truncated \u
        assert!(Json::parse(r#""\ud800""#).is_err()); // lone surrogate
        assert!(Json::parse(r#""open"#).is_err());
        assert!(Json::parse(r#""ends in \"#).is_err());
        assert_eq!(Json::parse(r#""\u012a""#), Ok(Json::Str("\u{12a}".into())));
    }

    #[test]
    fn parser_round_trips_report_shapes() {
        let v = Json::parse(r#"{"a": [1, -2.5, 3e2], "b": {"c": "x\"yA"}, "d": null}"#).unwrap();
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(300.0));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\"yA")
        );
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        assert!(Json::parse("[1] tail").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nest deeper than 64"), "{err}");
        // The bound itself parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!(
            "{}{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn compact_and_indented_output_parse_back() {
        let value = Json::obj([
            ("name", "a \"quoted\"\n\u{1} name".into()),
            ("n", 3u64.into()),
            ("x", (-0.125).into()),
            ("flags", Json::Arr(vec![true.into(), false.into()])),
            (
                "nested",
                Json::obj([("empty", Json::Arr(Vec::new())), ("null", Json::Null)]),
            ),
        ]);
        let compact = value.to_string();
        assert_eq!(
            compact,
            r#"{"name":"a \"quoted\"\n\u0001 name","n":3,"x":-0.125,"flags":[true,false],"nested":{"empty":[],"null":null}}"#
        );
        assert_eq!(Json::parse(&compact), Ok(value.clone()));
        let pretty = format!("{value:#}");
        assert_eq!(
            pretty,
            "{\n  \"name\": \"a \\\"quoted\\\"\\n\\u0001 name\",\n  \"n\": 3,\n  \"x\": -0.125,\n  \
             \"flags\": [true, false],\n  \"nested\": {\"empty\": [], \"null\": null}\n}"
        );
        assert_eq!(Json::parse(&pretty), Ok(value));
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let value = Json::Arr(
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e21, 1e-7]
                .map(Json::Num)
                .to_vec(),
        );
        assert_eq!(
            value.to_string(),
            "[null,null,null,1000000000000000000000,0.0000001]"
        );
    }

    #[test]
    fn escaper_covers_every_control_character() {
        let mut out = String::new();
        escape_into(&mut out, "\u{0}\u{8}\t\n\u{b}\u{c}\r\u{1f} \"\\/é\u{7f}");
        assert_eq!(
            out,
            "\\u0000\\u0008\\t\\n\\u000b\\u000c\\r\\u001f \\\"\\\\/é\u{7f}"
        );
    }
}
