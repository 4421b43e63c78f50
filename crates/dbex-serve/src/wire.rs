//! Response encoding: one JSON object per line, server → client.
//!
//! Success lines carry the same text the local REPL would print
//! ([`dbex_query::QueryOutput::render`]), so a remote client and a local
//! shell are byte-identical:
//!
//! ```text
//! {"ok":true,"kind":"cad","text":"CAD View v:\n..."}
//! {"ok":false,"code":"PARSE","error":"syntax error: ..."}
//! {"ok":false,"code":"BUSY","error":"server at capacity (8 connections)"}
//! ```
//!
//! Everything is hand-rolled (zero-dependency contract): [`json_escape`]
//! on the way out, and a small recursive-descent scanner on the way in
//! that accepts exactly the flat string/bool/number objects this module
//! emits. Responses are produced and parsed through the same two types,
//! so the round-trip is property-testable.

use dbex_query::QueryError;
use std::collections::BTreeMap;

/// Stable wire code for each [`QueryError`] variant.
pub fn query_error_code(e: &QueryError) -> &'static str {
    match e {
        QueryError::Parse(_) => "PARSE",
        QueryError::Table(_) => "TABLE",
        QueryError::Cad(_) => "CAD",
        QueryError::Session(_) => "SESSION",
        QueryError::Panicked(_) => "PANIC",
    }
}

/// One parsed response line (one **frame** of a possibly multi-frame
/// response — see [`WireResponse::is_final`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Output kind on success (`rows`, `cad`, `highlights`, `reordered`,
    /// `text`, `hello`).
    pub kind: Option<String>,
    /// Error code on failure (`PARSE`, `SESSION`, `BUSY`, `OVERSIZED`, ...).
    pub code: Option<String>,
    /// Frame number within a streamed response (`0` = first preview).
    /// `None` on classic single-frame responses.
    pub seq: Option<u64>,
    /// Whether this frame completes the response. `None` (untagged — every
    /// pre-streaming response) means final; `Some(false)` marks a preview
    /// frame with refinements still to come.
    pub fin: Option<bool>,
    /// Rendered output (success) or error message (failure).
    pub text: String,
}

impl WireResponse {
    /// A success line.
    pub fn ok(kind: &str, text: &str) -> WireResponse {
        WireResponse {
            ok: true,
            kind: Some(kind.to_owned()),
            code: None,
            seq: None,
            fin: None,
            text: text.to_owned(),
        }
    }

    /// An error line.
    pub fn err(code: &str, message: &str) -> WireResponse {
        WireResponse {
            ok: false,
            kind: None,
            code: Some(code.to_owned()),
            seq: None,
            fin: None,
            text: message.to_owned(),
        }
    }

    /// Tags this response as frame `seq` of a streamed response, final or
    /// not.
    pub fn with_stream_tags(mut self, seq: u64, fin: bool) -> WireResponse {
        self.seq = Some(seq);
        self.fin = Some(fin);
        self
    }

    /// Whether this frame completes its response. Untagged frames (the
    /// entire pre-streaming protocol) are final by definition, so old
    /// servers and streamed clients interoperate.
    pub fn is_final(&self) -> bool {
        self.fin.unwrap_or(true)
    }

    /// Serializes to one JSON line (no trailing newline). Field order is
    /// fixed (`ok`, `kind`, `code`, `seq`, `final`, `text`/`error`), which
    /// is what makes the byte-identity contract of streamed responses
    /// testable: a final frame with the `seq`/`final` tags removed is
    /// byte-identical to the classic single-frame line.
    pub fn to_line(&self) -> String {
        let mut out = String::from("{\"ok\":");
        out.push_str(if self.ok { "true" } else { "false" });
        if let Some(kind) = &self.kind {
            out.push_str(",\"kind\":\"");
            out.push_str(&json_escape(kind));
            out.push('"');
        }
        if let Some(code) = &self.code {
            out.push_str(",\"code\":\"");
            out.push_str(&json_escape(code));
            out.push('"');
        }
        if let Some(seq) = self.seq {
            out.push_str(",\"seq\":");
            out.push_str(&seq.to_string());
        }
        if let Some(fin) = self.fin {
            out.push_str(",\"final\":");
            out.push_str(if fin { "true" } else { "false" });
        }
        out.push_str(if self.ok { ",\"text\":\"" } else { ",\"error\":\"" });
        out.push_str(&json_escape(&self.text));
        out.push_str("\"}");
        out
    }

    /// Parses a response line. Strict about structure (it must be a flat
    /// JSON object with an `ok` bool) but tolerant of extra fields, so the
    /// format can grow without breaking old clients.
    pub fn parse(line: &str) -> Result<WireResponse, WireParseError> {
        let mut fields = parse_flat_object(line)?;
        let ok = match fields.get("ok") {
            Some(JsonScalar::Bool(b)) => *b,
            _ => return Err(WireParseError::new("missing or non-bool \"ok\" field")),
        };
        let seq = match fields.get("seq") {
            Some(JsonScalar::Num(n)) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        };
        let fin = match fields.get("final") {
            Some(JsonScalar::Bool(b)) => Some(*b),
            _ => None,
        };
        // Strings move out of the map: the payload is not copied again.
        let mut take_str = |name: &str| match fields.remove(name) {
            Some(JsonScalar::Str(s)) => Some(s),
            _ => None,
        };
        Ok(WireResponse {
            ok,
            kind: take_str("kind"),
            code: take_str("code"),
            seq,
            fin,
            text: take_str("text").or_else(|| take_str("error")).unwrap_or_default(),
        })
    }
}

/// Splices `"seq"`/`"final"` stream tags into an already-rendered
/// response line, immediately before its `text`/`error` field — the
/// server's way of tagging the oracle-checked final line **without**
/// re-rendering it, so the tagged frame minus the tags stays
/// byte-identical to the untagged line.
///
/// Safe to do textually: the payload field is always last, the fields
/// before it hold controlled vocabulary, and an *escaped* quote inside a
/// JSON string can never spell the unescaped `,"text":"` key sequence.
pub fn tag_stream_line(line: &str, seq: u64, fin: bool) -> String {
    let at = line
        .find(",\"text\":\"")
        .or_else(|| line.find(",\"error\":\""));
    match at {
        Some(at) => format!(
            "{}{}{}",
            &line[..at],
            format_args!(",\"seq\":{seq},\"final\":{fin}"),
            &line[at..]
        ),
        None => line.to_owned(),
    }
}

/// Removes the `"seq"`/`"final"` tags [`tag_stream_line`] added — the
/// determinism tests' byte-comparison primitive for streamed transcripts.
pub fn strip_stream_tags(line: &str) -> String {
    let Some(start) = line.find(",\"seq\":") else {
        return line.to_owned();
    };
    let Some(end) = line[start..]
        .find(",\"text\":\"")
        .or_else(|| line[start..].find(",\"error\":\""))
    else {
        return line.to_owned();
    };
    format!("{}{}", &line[..start], &line[start + end..])
}

/// A malformed response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireParseError {
    /// What the scanner objected to.
    pub message: String,
}

impl WireParseError {
    fn new(message: impl Into<String>) -> WireParseError {
        WireParseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed response line: {}", self.message)
    }
}

impl std::error::Error for WireParseError {}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Scalar values the flat-object scanner accepts.
#[derive(Debug, Clone, PartialEq)]
enum JsonScalar {
    Str(String),
    Bool(bool),
    Num(f64),
    Null,
}

/// Parses `{"k":scalar,...}` — the exact shape this module emits. Nested
/// containers are rejected (the wire format is deliberately flat).
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonScalar>, WireParseError> {
    let mut scanner = Scanner {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let fields = scanner.object()?;
    scanner.skip_ws();
    if scanner.pos != scanner.bytes.len() {
        return Err(WireParseError::new("trailing bytes after object"));
    }
    Ok(fields)
}

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Scanner<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), WireParseError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(WireParseError::new(format!(
                "expected {:?} at byte {}",
                expected as char, self.pos
            )))
        }
    }

    fn object(&mut self) -> Result<BTreeMap<String, JsonScalar>, WireParseError> {
        self.eat(b'{')?;
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.scalar()?;
            fields.insert(key, value);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return Err(WireParseError::new("expected ',' or '}'")),
            }
        }
    }

    fn scalar(&mut self) -> Result<JsonScalar, WireParseError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'"') => Ok(JsonScalar::Str(self.string()?)),
            Some(b't') if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(JsonScalar::Bool(true))
            }
            Some(b'f') if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(JsonScalar::Bool(false))
            }
            Some(b'n') if self.bytes[self.pos..].starts_with(b"null") => {
                self.pos += 4;
                Ok(JsonScalar::Null)
            }
            Some(b) if b.is_ascii_digit() || *b == b'-' => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| WireParseError::new("non-UTF-8 number"))?;
                text.parse()
                    .map(JsonScalar::Num)
                    .map_err(|_| WireParseError::new(format!("bad number {text:?}")))
            }
            _ => Err(WireParseError::new(format!(
                "expected scalar at byte {}",
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, WireParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(WireParseError::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| WireParseError::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| WireParseError::new("non-UTF-8 \\u escape"))?;
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a leading `+`.
                            let cp = u32::from_str_radix(hex, 16)
                                .ok()
                                .filter(|_| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(|| WireParseError::new("bad \\u escape"))?;
                            // Surrogates never appear in our output (we
                            // only \u-escape control characters), so a
                            // lone surrogate is malformed input.
                            out.push(char::from_u32(cp).ok_or_else(|| {
                                WireParseError::new("\\u escape is not a scalar value")
                            })?);
                            self.pos += 4;
                        }
                        _ => return Err(WireParseError::new("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next delimiter. Both
                    // delimiters are ASCII and the line is a &str, so the
                    // run ends on a char boundary and each byte is
                    // checked once.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .ok_or_else(|| WireParseError::new("unterminated string"))?;
                    let s = std::str::from_utf8(&rest[..run])
                        .map_err(|_| WireParseError::new("non-UTF-8 string body"))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_line_round_trips() {
        let resp = WireResponse::ok("cad", "CAD View v:\n| a | b |\n\ttab \"quote\" \\slash");
        let parsed = WireResponse::parse(&resp.to_line()).unwrap();
        assert_eq!(parsed, resp);
    }

    #[test]
    fn err_line_round_trips() {
        let resp = WireResponse::err("BUSY", "server at capacity (8 connections)");
        let line = resp.to_line();
        assert!(line.contains("\"ok\":false"));
        assert!(line.contains("\"code\":\"BUSY\""));
        assert_eq!(WireResponse::parse(&line).unwrap(), resp);
    }

    #[test]
    fn control_characters_survive() {
        let resp = WireResponse::ok("text", "bell\u{7} and \u{1f} end");
        let line = resp.to_line();
        assert!(line.contains("\\u0007"));
        assert_eq!(WireResponse::parse(&line).unwrap().text, "bell\u{7} and \u{1f} end");
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let parsed =
            WireResponse::parse("{\"ok\":true,\"kind\":\"text\",\"text\":\"x\",\"extra\":42}")
                .unwrap();
        assert!(parsed.ok);
        assert_eq!(parsed.text, "x");
    }

    #[test]
    fn malformed_lines_error_not_panic() {
        for bad in [
            "",
            "{",
            "nonsense",
            "{\"ok\":\"yes\"}",
            "{\"ok\":true",
            "{\"ok\":true}trailing",
            "{\"ok\":true,\"text\":\"\\u12\"}",
            "{\"ok\":true,\"text\":[1,2]}",
            "{\"ok\":true,\"text\":\"\\ud800\"}",
            "{\"ok\":true,\"text\":\"\\u+12a\"}",
        ] {
            assert!(WireResponse::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// Decoding is linear in the line length: a 1 MiB payload of every
    /// byte class the escaper handles round-trips well inside the bound
    /// even in a debug build, where a scan that re-reads the rest of the
    /// line per character would take minutes.
    #[test]
    fn a_megabyte_payload_decodes_in_linear_time() {
        let unit = "Zürich 東京 \"q\" \\b\\ tab\t nl\n bell\u{7} 🚗 plain ascii text;";
        let text = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(text.len() >= 1 << 20);
        let resp = WireResponse::ok("text", &text);
        let started = std::time::Instant::now();
        let parsed = WireResponse::parse(&resp.to_line()).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed, resp);
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "1 MiB round trip took {elapsed:?}"
        );
    }

    #[test]
    fn query_error_codes_cover_variants() {
        let err: QueryError = dbex_query::ParseError::UnexpectedEnd.into();
        assert_eq!(query_error_code(&err), "PARSE");
    }

    #[test]
    fn stream_tags_round_trip_and_strip_to_identity() {
        let tagged = WireResponse::ok("cad", "preview body\n").with_stream_tags(0, false);
        let line = tagged.to_line();
        let parsed = WireResponse::parse(&line).unwrap();
        assert_eq!(parsed.seq, Some(0));
        assert_eq!(parsed.fin, Some(false));
        assert!(!parsed.is_final());
        assert_eq!(parsed, tagged);

        // Untagged responses are final by definition.
        let plain = WireResponse::ok("rows", "x\n");
        assert!(plain.is_final());
        assert_eq!(WireResponse::parse(&plain.to_line()).unwrap().fin, None);
    }

    #[test]
    fn tag_splice_matches_constructed_order_and_strips_clean() {
        // Splicing tags into an already-rendered line must produce the
        // same bytes as constructing the response with tags — that is
        // what guarantees a final streamed frame minus tags is
        // byte-identical to the classic single-frame line.
        for resp in [
            WireResponse::ok("cad", "CAD View v:\nwith \"quotes\" and ,\"text\":\" inside\n"),
            WireResponse::err("SESSION", "unknown table \"x\""),
        ] {
            let plain = resp.to_line();
            let spliced = tag_stream_line(&plain, 1, true);
            let constructed = resp.clone().with_stream_tags(1, true).to_line();
            assert_eq!(spliced, constructed);
            assert_eq!(strip_stream_tags(&spliced), plain);
            let parsed = WireResponse::parse(&spliced).unwrap();
            assert_eq!(parsed.seq, Some(1));
            assert_eq!(parsed.fin, Some(true));
            assert_eq!(parsed.text, resp.text);
        }
        // Lines without a payload field pass through untouched.
        assert_eq!(tag_stream_line("{\"ok\":true}", 0, true), "{\"ok\":true}");
        assert_eq!(strip_stream_tags("{\"ok\":true}"), "{\"ok\":true}");
    }
}
