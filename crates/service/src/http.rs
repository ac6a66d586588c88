//! Minimal HTTP/1.1 framing over `std::io` streams.
//!
//! The service speaks exactly the subset a JSON API needs — request line,
//! headers, `Content-Length` bodies, keep-alive — hand-rolled because the
//! offline build has no HTTP crates. This module is the server side
//! ([`RequestParser`]/[`Response`]); the matching client-side framing lives
//! in [`crate::client`], and the integration tests drive one against the
//! other to keep the two implementations honest.

use std::io::Write;

/// Largest accepted request body (4 MiB): generous for JSON control-plane
/// bodies, small enough that a misbehaving client cannot balloon a worker.
pub const MAX_BODY_BYTES: usize = 4 << 20;
/// Largest accepted request/header line.
pub const MAX_LINE_BYTES: usize = 8 << 10;
/// Maximum number of headers per request.
pub const MAX_HEADERS: usize = 100;
/// Per-connection cap on bytes buffered ahead of the incremental parser.
/// Sized so any single legal request (head + body) always fits — a parser
/// waiting for more bytes is therefore always below it — which means a
/// connection at the cap necessarily holds at least one complete request
/// (or a protocol error) that can be consumed without reading further.
/// The transport stops reading the socket at the cap and resumes as the
/// pipelined backlog drains, bounding per-connection memory.
pub const MAX_BUFFERED_BYTES: usize = MAX_BODY_BYTES + 2 * MAX_LINE_BYTES;

/// A protocol violation; mapped to a 400 close-connection response.
#[derive(Debug)]
pub struct HttpError {
    pub message: String,
}

impl HttpError {
    fn protocol(message: impl Into<String>) -> HttpError {
        HttpError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

fn bad<T>(msg: impl Into<String>) -> Result<T, HttpError> {
    Err(HttpError::protocol(msg))
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub version: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First header value matching `name` (case-insensitive), trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange
    /// (HTTP/1.1 defaults to keep-alive; `Connection: close` opts out).
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }
}

/// Incremental HTTP/1.1 request parser for the event loop: raw bytes go in
/// via [`RequestParser::feed`] as they arrive off the socket, complete
/// requests come out of [`RequestParser::try_next`] once they frame. The
/// test module keeps a straight-line blocking parser as its reference; the
/// proptest suite pins the two equivalent at every possible split boundary.
#[derive(Debug, Default)]
pub struct RequestParser {
    /// Raw bytes; `start..` is unconsumed, `..start` is already parsed.
    buf: Vec<u8>,
    start: usize,
    /// High-water mark of the newline scan, so repeated `try_next` calls
    /// on a slowly-arriving line stay O(new bytes), not O(line²).
    scan: usize,
    state: ParseState,
}

#[derive(Debug, Default)]
enum ParseState {
    #[default]
    RequestLine,
    Headers(Head),
    Body(Head, usize),
}

#[derive(Debug)]
struct Head {
    method: String,
    path: String,
    version: String,
    headers: Vec<(String, String)>,
}

impl RequestParser {
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends raw socket bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed request.
    pub fn buffered_len(&self) -> usize {
        self.buf.len().saturating_sub(self.start)
    }

    /// `true` once any byte of a new request has arrived (or a head is
    /// mid-parse): a read timeout now is a stalled request, not an idle
    /// keep-alive connection.
    pub fn mid_request(&self) -> bool {
        !matches!(self.state, ParseState::RequestLine) || self.buffered_len() > 0
    }

    /// `true` when the request line and headers are fully parsed and the
    /// parser is waiting on body bytes — the condition under which a read
    /// timeout earns a 408 instead of a silent close.
    pub fn head_parsed(&self) -> bool {
        matches!(self.state, ParseState::Body(..))
    }

    /// Pulls the next complete request out of the buffer. `Ok(None)`
    /// means "need more bytes"; errors are protocol violations and the
    /// connection must be closed after an optional 400.
    pub fn try_next(&mut self) -> Result<Option<Request>, HttpError> {
        let out = self.advance();
        // Reclaim the consumed prefix so a long-lived keep-alive
        // connection cannot grow the buffer without bound.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scan = self.scan.saturating_sub(self.start);
            self.start = 0;
        }
        out
    }

    /// One line ending in `\n`, trailing `\r`s stripped (tolerating
    /// bare-LF peers). `Ok(None)` = the terminator has not arrived yet.
    fn take_line(&mut self) -> Result<Option<String>, HttpError> {
        let pending = self.buf.get(self.scan..).unwrap_or(&[]);
        let Some(rel) = pending.iter().position(|&b| b == b'\n') else {
            self.scan = self.buf.len();
            if self.buffered_len() > MAX_LINE_BYTES {
                return bad("header line too long");
            }
            return Ok(None);
        };
        let nl = self.scan + rel;
        if nl + 1 - self.start > MAX_LINE_BYTES {
            return bad("header line too long");
        }
        let mut line = self.buf.get(self.start..nl).unwrap_or(&[]).to_vec();
        while matches!(line.last(), Some(b'\r')) {
            line.pop();
        }
        self.start = nl + 1;
        self.scan = self.start;
        match String::from_utf8(line) {
            Ok(s) => Ok(Some(s)),
            Err(_) => bad("header line is not UTF-8"),
        }
    }

    fn advance(&mut self) -> Result<Option<Request>, HttpError> {
        loop {
            match self.state {
                ParseState::RequestLine => {
                    if self.buffered_len() == 0 {
                        return Ok(None);
                    }
                    let Some(line) = self.take_line()? else {
                        return Ok(None);
                    };
                    if line.is_empty() {
                        return bad("empty request line");
                    }
                    let mut parts = line.split_ascii_whitespace();
                    let (Some(method), Some(path), Some(version)) =
                        (parts.next(), parts.next(), parts.next())
                    else {
                        return bad(format!("malformed request line: {line:?}"));
                    };
                    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
                        return bad(format!("malformed request line: {line:?}"));
                    }
                    self.state = ParseState::Headers(Head {
                        method: method.to_string(),
                        path: path.to_string(),
                        version: version.to_string(),
                        headers: Vec::new(),
                    });
                }
                ParseState::Headers(_) => {
                    let Some(line) = self.take_line()? else {
                        return Ok(None);
                    };
                    let ParseState::Headers(ref mut head) = self.state else {
                        return bad("parser state desync");
                    };
                    if !line.is_empty() {
                        if head.headers.len() >= MAX_HEADERS {
                            return bad("too many headers");
                        }
                        let Some((k, v)) = line.split_once(':') else {
                            return bad(format!("malformed header: {line:?}"));
                        };
                        head.headers
                            .push((k.trim().to_string(), v.trim().to_string()));
                        continue;
                    }
                    // Blank line: the head is complete. The only body
                    // framing supported is Content-Length: a chunked body
                    // would otherwise be misread as pipelined requests
                    // (response desync), so it is rejected explicitly.
                    if head
                        .headers
                        .iter()
                        .any(|(k, _)| k.eq_ignore_ascii_case("transfer-encoding"))
                    {
                        return bad(
                            "Transfer-Encoding is not supported; send a Content-Length body",
                        );
                    }
                    let content_length = head
                        .headers
                        .iter()
                        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                        .map(|(_, v)| v.parse::<usize>())
                        .transpose()
                        .map_err(|e| HttpError::protocol(format!("bad content-length: {e}")))?
                        .unwrap_or(0);
                    if content_length > MAX_BODY_BYTES {
                        return bad(format!("body of {content_length} bytes exceeds limit"));
                    }
                    let ParseState::Headers(head) = std::mem::take(&mut self.state) else {
                        return bad("parser state desync");
                    };
                    self.state = ParseState::Body(head, content_length);
                }
                ParseState::Body(_, need) => {
                    if self.buffered_len() < need {
                        return Ok(None);
                    }
                    let end = self.start + need;
                    let body = self.buf.get(self.start..end).unwrap_or(&[]).to_vec();
                    self.start = end;
                    self.scan = end;
                    let ParseState::Body(head, _) = std::mem::take(&mut self.state) else {
                        return bad("parser state desync");
                    };
                    return Ok(Some(Request {
                        method: head.method,
                        path: head.path,
                        version: head.version,
                        headers: head.headers,
                        body,
                    }));
                }
            }
        }
    }
}

/// Canonical reason phrases for the statuses the service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// One response ready to serialize: status, extra headers, JSON body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status. Serialization failure (which
    /// the vendored shim never produces for the values we build) degrades to
    /// a static 500 body instead of panicking the connection worker.
    pub fn json(status: u16, value: &serde_json::Value) -> Response {
        match serde_json::to_string(value) {
            Ok(s) => Response {
                status,
                headers: Vec::new(),
                body: s.into_bytes(),
            },
            Err(_) => Response {
                status: 500,
                headers: Vec::new(),
                body: br#"{"error":{"code":"serialization_failed","message":"response encoding failed"}}"#.to_vec(),
            },
        }
    }

    /// Attaches one extra header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Writes the response; `keep_alive` picks the `Connection` header.
    /// `Content-Type` defaults to JSON; a `Content-Type` entry among the
    /// extra headers overrides it in place (used by `/metrics` for the
    /// Prometheus text format) without being written twice.
    pub fn write_to(&self, writer: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let content_type = self
            .headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-type"))
            .map_or("application/json", |(_, v)| v.as_str());
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (k, v) in &self.headers {
            if k.eq_ignore_ascii_case("content-type") {
                continue;
            }
            write!(writer, "{k}: {v}\r\n")?;
        }
        writer.write_all(b"\r\n")?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` as one complete stream with the production parser:
    /// bytes left unframed at the end are a connection closed mid-request.
    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        let mut p = RequestParser::new();
        p.feed(raw.as_bytes());
        match p.try_next()? {
            None if p.mid_request() => bad("connection closed mid-request"),
            next => Ok(next),
        }
    }

    /// The straight-line blocking parser over a `BufRead`: the reference
    /// the incremental parser is checked against.
    mod reference {
        use super::*;
        use std::io::BufRead;

        /// Reads one line up to CRLF (or LF), enforcing [`MAX_LINE_BYTES`].
        /// `Ok(None)` signals clean EOF *before any byte* — the peer closed a
        /// keep-alive connection between requests.
        fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, HttpError> {
            let mut buf = Vec::new();
            let mut limited = std::io::Read::take(&mut *reader, MAX_LINE_BYTES as u64 + 1);
            match limited.read_until(b'\n', &mut buf) {
                Ok(0) => return Ok(None),
                Ok(_) => {}
                Err(e) => return bad(format!("read failed: {e}")),
            }
            if buf.len() > MAX_LINE_BYTES {
                return bad("header line too long");
            }
            while matches!(buf.last(), Some(b'\n' | b'\r')) {
                buf.pop();
            }
            match String::from_utf8(buf) {
                Ok(s) => Ok(Some(s)),
                Err(_) => bad("header line is not UTF-8"),
            }
        }

        /// Parses one request from the stream. `Ok(None)` means the peer closed the
        /// connection cleanly before sending another request (normal keep-alive
        /// termination).
        pub(super) fn read_request(
            reader: &mut impl BufRead,
        ) -> Result<Option<Request>, HttpError> {
            let Some(request_line) = read_line(reader)? else {
                return Ok(None);
            };
            if request_line.is_empty() {
                return bad("empty request line");
            }
            let mut parts = request_line.split_ascii_whitespace();
            let (Some(method), Some(path), Some(version)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return bad(format!("malformed request line: {request_line:?}"));
            };
            if parts.next().is_some() || !version.starts_with("HTTP/1.") {
                return bad(format!("malformed request line: {request_line:?}"));
            }

            let mut headers = Vec::new();
            loop {
                let Some(line) = read_line(reader)? else {
                    return bad("connection closed mid-headers");
                };
                if line.is_empty() {
                    break;
                }
                if headers.len() >= MAX_HEADERS {
                    return bad("too many headers");
                }
                let Some((k, v)) = line.split_once(':') else {
                    return bad(format!("malformed header: {line:?}"));
                };
                headers.push((k.trim().to_string(), v.trim().to_string()));
            }

            // The only body framing supported is Content-Length. A chunked body
            // would otherwise be misread as pipelined requests (response desync),
            // so reject it explicitly — the 400 closes the connection.
            if headers
                .iter()
                .any(|(k, _)| k.eq_ignore_ascii_case("transfer-encoding"))
            {
                return bad("Transfer-Encoding is not supported; send a Content-Length body");
            }
            let content_length = headers
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                .map(|(_, v)| v.parse::<usize>())
                .transpose()
                .map_err(|e| HttpError::protocol(format!("bad content-length: {e}")))?
                .unwrap_or(0);
            if content_length > MAX_BODY_BYTES {
                return bad(format!("body of {content_length} bytes exceeds limit"));
            }

            let mut body = vec![0u8; content_length];
            if content_length > 0 {
                std::io::Read::read_exact(reader, &mut body)
                    .map_err(|e| HttpError::protocol(format!("body read failed: {e}")))?;
            }

            Ok(Some(Request {
                method: method.to_string(),
                path: path.to_string(),
                version: version.to_string(),
                headers,
                body,
            }))
        }
    }

    use reference::read_request;

    #[test]
    fn parses_get_without_body() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req = parse("POST /v1/select HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive(), "HTTP/1.0 defaults to close");
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_request_line_is_error() {
        assert!(parse("GARBAGE\r\n\r\n").is_err());
        assert!(parse("GET /\r\n\r\n").is_err(), "missing version");
        assert!(parse("GET / SPDY/3\r\n\r\n").is_err(), "wrong protocol");
    }

    #[test]
    fn truncated_headers_are_an_error() {
        assert!(parse("GET / HTTP/1.1\r\nHost: x\r\n").is_err());
    }

    #[test]
    fn oversized_body_is_rejected_up_front() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 5 << 20);
        assert!(parse(&raw).is_err());
    }

    #[test]
    fn bad_content_length_is_an_error() {
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n").is_err());
    }

    #[test]
    fn transfer_encoding_is_rejected_as_protocol_error() {
        let err = parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2f\r\n").unwrap_err();
        assert!(err.message.contains("Transfer-Encoding"), "{err}");
    }

    #[test]
    fn response_wire_format() {
        let resp = Response::json(200, &serde_json::json!({"ok": true})).with_header("X-Test", "1");
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("X-Test: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn content_type_header_overrides_the_json_default_once() {
        let resp = Response {
            status: 200,
            headers: vec![(
                "Content-Type".to_string(),
                "text/plain; version=0.0.4".to_string(),
            )],
            body: b"x 1\n".to_vec(),
        };
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert_eq!(text.matches("Content-Type:").count(), 1, "{text}");
        assert!(!text.contains("application/json"));
    }

    #[test]
    fn status_texts_cover_service_statuses() {
        for s in [200, 201, 400, 404, 405, 408, 409, 413, 422, 429, 500, 504] {
            assert_ne!(status_text(s), "Unknown", "status {s}");
        }
    }

    #[test]
    fn parser_exposes_idle_vs_mid_request_vs_head_parsed() {
        let mut p = RequestParser::new();
        assert!(!p.mid_request(), "fresh parser is idle");
        p.feed(b"PO");
        assert!(p.mid_request(), "any byte commits the peer to a request");
        assert!(!p.head_parsed());
        p.feed(b"ST / HTTP/1.1\r\nContent-Length: 5\r\n\r\n");
        assert!(p.try_next().unwrap().is_none(), "body bytes still missing");
        assert!(p.head_parsed(), "waiting on the body = 408 territory");
        p.feed(b"12345");
        let r = p.try_next().unwrap().unwrap();
        assert_eq!(r.body, b"12345");
        assert!(!p.mid_request(), "back to idle between requests");
        assert_eq!(p.buffered_len(), 0, "consumed prefix reclaimed");
    }

    #[test]
    fn incremental_parser_rejects_what_the_blocking_parser_rejects() {
        // Identical inputs must produce identical diagnostics on both
        // parsers: the 400 the server answers quotes this message.
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "\r\n",
            "POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "POST / HTTP/1.1\r\nnocolon\r\n\r\n",
        ] {
            let blocking = read_request(&mut raw.as_bytes()).unwrap_err();
            let mut p = RequestParser::new();
            p.feed(raw.as_bytes());
            let incremental = p.try_next().unwrap_err();
            assert_eq!(blocking.message, incremental.message, "input {raw:?}");
        }
    }

    #[test]
    fn incremental_parser_survives_every_split_boundary() {
        let raw: &[u8] = b"POST /v1/select HTTP/1.1\r\nHost: t\r\nX-Deadline-Millis: 250\r\n\
                           Content-Length: 11\r\n\r\n{\"graph\":1}";
        let reference = read_request(&mut &raw[..]).unwrap().unwrap();
        for split in 0..=raw.len() {
            let mut p = RequestParser::new();
            p.feed(&raw[..split]);
            let early = p
                .try_next()
                .unwrap_or_else(|e| panic!("split {split}: {e}"));
            p.feed(&raw[split..]);
            let req = match early {
                Some(r) => r,
                None => p
                    .try_next()
                    .unwrap_or_else(|e| panic!("split {split}: {e}"))
                    .unwrap_or_else(|| panic!("split {split}: incomplete after full feed")),
            };
            assert_eq!(req.method, reference.method, "split {split}");
            assert_eq!(req.path, reference.path, "split {split}");
            assert_eq!(req.version, reference.version, "split {split}");
            assert_eq!(req.headers, reference.headers, "split {split}");
            assert_eq!(req.body, reference.body, "split {split}");
            assert!(
                p.try_next().unwrap().is_none(),
                "split {split}: phantom request"
            );
            assert_eq!(p.buffered_len(), 0, "split {split}: leftover bytes");
        }
    }

    mod framing_equivalence {
        use super::*;
        use proptest::prelude::*;

        /// One deterministic request rendered from generated knobs.
        fn raw_request(mi: usize, path_len: usize, body_len: usize, bare_lf: bool) -> Vec<u8> {
            let method = match mi % 3 {
                0 => "GET",
                1 => "POST",
                _ => "DELETE",
            };
            let path = format!("/{}", "p".repeat(path_len));
            let body: Vec<u8> = (0..body_len).map(|i| b'a' + (i % 26) as u8).collect();
            let eol = if bare_lf { "\n" } else { "\r\n" };
            let mut raw = format!(
                "{method} {path} HTTP/1.1{eol}Host: test{eol}Content-Length: {}{eol}{eol}",
                body.len()
            )
            .into_bytes();
            raw.extend_from_slice(&body);
            raw
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn incremental_parser_matches_blocking_at_any_chunking(
                mi in 0usize..3,
                path_len in 1usize..40,
                body_len in 0usize..80,
                body_len2 in 0usize..80,
                chunk in 1usize..24,
                bare_lf in 0usize..2,
            ) {
                // A pipelined two-request stream, sometimes with bare-LF
                // line endings, parsed as `chunk`-sized arrivals.
                let mut stream = raw_request(mi, path_len, body_len, bare_lf == 1);
                stream.extend(raw_request(mi + 1, path_len / 2 + 1, body_len2, false));

                let mut reader = &stream[..];
                let mut expected = Vec::new();
                while let Some(r) = read_request(&mut reader).unwrap() {
                    expected.push(r);
                }
                prop_assert_eq!(expected.len(), 2);

                let mut parser = RequestParser::new();
                let mut got = Vec::new();
                for piece in stream.chunks(chunk) {
                    parser.feed(piece);
                    while let Some(r) = parser.try_next().unwrap() {
                        got.push(r);
                    }
                }
                prop_assert_eq!(got.len(), expected.len());
                for (g, e) in got.iter().zip(&expected) {
                    prop_assert_eq!(&g.method, &e.method);
                    prop_assert_eq!(&g.path, &e.path);
                    prop_assert_eq!(&g.version, &e.version);
                    prop_assert_eq!(&g.headers, &e.headers);
                    prop_assert_eq!(&g.body, &e.body);
                }
                prop_assert_eq!(parser.buffered_len(), 0);
            }
        }
    }
}
