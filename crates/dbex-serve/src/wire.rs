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
//! Lines are written field by field in a fixed order, escaped through
//! [`dbex_obs::json::escape_into`], and parsed with [`Json::parse`] plus
//! one rule of their own: the object is flat, so a field holding a
//! container is malformed. Responses are produced and parsed through the
//! same type, so the round-trip is property-testable.

use dbex_obs::json::{escape_into, Json};
use dbex_query::QueryError;

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
        let mut out = String::with_capacity(self.text.len() + 64);
        out.push_str("{\"ok\":");
        out.push_str(if self.ok { "true" } else { "false" });
        if let Some(kind) = &self.kind {
            out.push_str(",\"kind\":\"");
            escape_into(&mut out, kind);
            out.push('"');
        }
        if let Some(code) = &self.code {
            out.push_str(",\"code\":\"");
            escape_into(&mut out, code);
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
        escape_into(&mut out, &self.text);
        out.push_str("\"}");
        out
    }

    /// Parses a response line. Strict about structure (it must be a flat
    /// JSON object with an `ok` bool) but tolerant of extra fields, so the
    /// format can grow without breaking old clients.
    pub fn parse(line: &str) -> Result<WireResponse, WireParseError> {
        let Json::Obj(fields) = Json::parse(line).map_err(WireParseError::new)? else {
            return Err(WireParseError::new("not a JSON object"));
        };
        let (mut ok, mut kind, mut code, mut seq, mut fin, mut text, mut error) =
            (None, None, None, None, None, None, None);
        // Strings move out of the parsed fields: the payload is not
        // copied again.
        for (key, value) in fields {
            match (key.as_str(), value) {
                (_, Json::Arr(_) | Json::Obj(_)) => {
                    return Err(WireParseError::new(format!(
                        "field \"{key}\" holds a container; response lines are flat"
                    )))
                }
                ("ok", Json::Bool(b)) => ok = Some(b),
                ("kind", Json::Str(s)) => kind = Some(s),
                ("code", Json::Str(s)) => code = Some(s),
                ("seq", Json::Num(n)) if n >= 0.0 => seq = Some(n as u64),
                ("final", Json::Bool(b)) => fin = Some(b),
                ("text", Json::Str(s)) => text = Some(s),
                ("error", Json::Str(s)) => error = Some(s),
                _ => {}
            }
        }
        Ok(WireResponse {
            ok: ok.ok_or_else(|| WireParseError::new("missing or non-bool \"ok\" field"))?,
            kind,
            code,
            seq,
            fin,
            text: text.or(error).unwrap_or_default(),
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
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let line = "[".repeat(100_000);
        assert!(WireResponse::parse(&line).is_err());
        let nested = format!("{{\"ok\":true,\"text\":{line}");
        assert!(WireResponse::parse(&nested).is_err());
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
