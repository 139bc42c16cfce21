//! Minimal HTTP/1.1 framing over `std::io` — no TLS, no chunked bodies, no
//! dependencies. Exactly the subset the service and its load generator
//! speak: request line + headers + `Content-Length` body, persistent
//! connections by default.
//!
//! Both directions are symmetrical and pure over `BufRead`/byte buffers, so
//! the property tests round-trip `render → parse` without sockets, and the
//! malformed-input corpus drives [`read_request`] directly. Malformed input
//! is *always* a typed error (mapped to a 4xx by the server), never a panic.

use std::io::{BufRead, Write};

/// Upper bound on the request line + headers (bytes).
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body (bytes).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Upper bound on a response body the client will read (bytes). Responses
/// grow with the session — `/v1/result` carries every finished job, ≈180 B
/// each — so this is far above the request cap: room for over a million
/// jobs, while still bounding the allocation a bad length could ask for.
pub(crate) const MAX_RESPONSE_BYTES: usize = 256 * 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Uppercase token (`GET`, `POST`, `DELETE`, …) — verbatim.
    pub method: String,
    /// Path component, always starting with `/`; the query is split off.
    pub path: String,
    /// Raw query string without the `?` (empty when absent).
    pub query: String,
    /// Header name/value pairs; names lower-cased, order preserved.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn new(method: &str, path: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// First value of a header (name matched case-insensitively, in place).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to drop the connection after this exchange.
    pub(crate) fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Serialises the request (client side / round-trip tests). Emits
    /// `Content-Length` for the body; other headers verbatim.
    pub fn render(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.body.len());
        let target = if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query)
        };
        out.extend_from_slice(format!("{} {} HTTP/1.1\r\n", self.method, target).as_bytes());
        for (k, v) in &self.headers {
            out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        if !self.body.is_empty() || self.method == "POST" {
            out.extend_from_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq)]
pub enum HttpError {
    /// The peer closed (or timed out) before a complete request arrived.
    /// Clean close *between* requests is `Ok(None)`, not this.
    Disconnected,
    /// Syntactically invalid input → respond 400.
    Malformed(String),
    /// Head or body exceeds the hard limits → respond 413.
    TooLarge(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Disconnected => write!(f, "peer disconnected mid-request"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(what) => write!(f, "{what} exceeds the configured limit"),
        }
    }
}

impl std::error::Error for HttpError {}

fn malformed(msg: impl Into<String>) -> HttpError {
    HttpError::Malformed(msg.into())
}

/// Reads one line terminated by `\n` (tolerating a preceding `\r`), bounded
/// by the remaining head budget. EOF before the newline is `Disconnected`.
///
/// Scans the reader's buffered slice for the newline. Only the part of the
/// slice the budget still covers is looked at, so the accounting is per
/// byte: a head of exactly `MAX_HEAD_BYTES` fits, one byte more does not.
fn read_line(r: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let buf = r.fill_buf().map_err(|_| HttpError::Disconnected)?;
        if buf.is_empty() {
            return Err(HttpError::Disconnected);
        }
        if *budget == 0 {
            return Err(HttpError::TooLarge("request head"));
        }
        let window = &buf[..buf.len().min(*budget)];
        let newline = window.iter().position(|&b| b == b'\n');
        let (text, taken) = match newline {
            Some(i) => (&window[..i], i + 1),
            None => (window, window.len()),
        };
        line.extend_from_slice(text);
        r.consume(taken);
        *budget -= taken;
        if newline.is_some() {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line).map_err(|_| malformed("non-UTF-8 header line"));
        }
    }
}

/// Reads one request from the stream. `Ok(None)` means the peer closed
/// cleanly between requests (keep-alive teardown).
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    if r.fill_buf().map_err(|_| HttpError::Disconnected)?.is_empty() {
        return Ok(None);
    }
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(r, &mut budget)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let target = parts.next().ok_or_else(|| malformed("request line needs a target"))?;
    let version = parts.next().ok_or_else(|| malformed("request line needs a version"))?;
    if parts.next().is_some() {
        return Err(malformed("request line has extra fields"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(malformed("method must be an uppercase token"));
    }
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(malformed("unsupported HTTP version"));
    }
    if !target.starts_with('/') {
        return Err(malformed("target must be an absolute path"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_line(r, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("header line without a colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(malformed("invalid header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut req = Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body: Vec::new(),
    };
    if req
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(malformed("chunked transfer encoding is not supported"));
    }
    if let Some(len) = req.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| malformed("unparsable content-length"))?;
        if len > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge("request body"));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body).map_err(|_| HttpError::Disconnected)?;
        req.body = body;
    }
    Ok(Some(req))
}

/// One response. The server always sends `Content-Length` (no chunking).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub(crate) content_type: &'static str,
    pub body: Vec<u8>,
}

impl Response {
    pub fn json(status: u16, v: &crate::json::Json) -> Response {
        Response::json_body(status, v.render())
    }

    /// A JSON reply whose body is already rendered.
    pub fn json_body(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into().into_bytes(),
        }
    }

    /// Standard error body: `{"error": "..."}`.
    pub fn error(status: u16, msg: &str) -> Response {
        Response::json_body(status, crate::json::write_object(|w| {
            w.field("error", msg);
        }))
    }

    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Status",
        }
    }

    /// Writes the full response; `close` adds `Connection: close`.
    ///
    /// Head and body go out in one `write_all`: on an unbuffered,
    /// `TCP_NODELAY` socket every `write` is a syscall and a segment, and a
    /// reply should cost the peer one read, as the request cost us.
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> std::io::Result<()> {
        let mut wire = Vec::with_capacity(128 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n{}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if close { "connection: close\r\n" } else { "" },
        )?;
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

/// Client side: reads one response (status + headers + sized body).
pub fn read_response(r: &mut impl BufRead) -> Result<(u16, Vec<u8>), HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let status_line = read_line(r, &mut budget)?;
    let mut parts = status_line.split(' ');
    if !matches!(parts.next(), Some("HTTP/1.1" | "HTTP/1.0")) {
        return Err(malformed("bad status line"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("bad status code"))?;
    let mut content_length = 0usize;
    loop {
        let line = read_line(r, &mut budget)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| malformed("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_RESPONSE_BYTES {
        return Err(HttpError::TooLarge("response body"));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).map_err(|_| HttpError::Disconnected)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /v1/jobs?dry=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.query, "dry=1");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn render_parse_roundtrip() {
        let mut req = Request::new("POST", "/v1/clock/advance");
        req.query = "a=1&b=2".into();
        req.headers.push(("host".into(), "127.0.0.1".into()));
        req.body = br#"{"to":100}"#.to_vec();
        let back = parse(&req.render()).unwrap().unwrap();
        assert_eq!(back.method, req.method);
        assert_eq!(back.path, req.path);
        assert_eq!(back.query, req.query);
        assert_eq!(back.body, req.body);
        assert_eq!(back.header("host"), Some("127.0.0.1"));
    }

    #[test]
    fn clean_eof_is_none_midstream_is_error() {
        assert_eq!(parse(b"").unwrap(), None);
        assert_eq!(parse(b"GET /x HT").unwrap_err(), HttpError::Disconnected);
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc").unwrap_err(),
            HttpError::Disconnected
        );
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for bad in [
            b"get /x HTTP/1.1\r\n\r\n".as_slice(),
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/2\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            b"POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            b"\xff\xfe\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad), Err(HttpError::Malformed(_))),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn oversized_head_and_body_rejected() {
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD_BYTES));
        assert_eq!(
            parse(huge.as_bytes()).unwrap_err(),
            HttpError::TooLarge("request head")
        );
        let body = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(
            parse(body.as_bytes()).unwrap_err(),
            HttpError::TooLarge("request body")
        );
    }

    #[test]
    fn head_budget_is_per_byte_however_the_reader_chunks_it() {
        // A head of exactly MAX_HEAD_BYTES (terminators included) is legal;
        // one byte more is not — whether the reader hands the head over
        // whole or five bytes at a time (lines then straddle refills).
        let head = |len: usize| {
            let fixed = "GET / HTTP/1.1\r\nx: \r\n\r\n".len();
            format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "v".repeat(len - fixed))
        };
        for (len, fits) in [(MAX_HEAD_BYTES, true), (MAX_HEAD_BYTES + 1, false)] {
            let wire = head(len);
            assert_eq!(wire.len(), len);
            let whole = parse(wire.as_bytes());
            let dribbled = read_request(&mut std::io::BufReader::with_capacity(
                5,
                Cursor::new(wire.into_bytes()),
            ));
            assert_eq!(whole, dribbled);
            match whole {
                Ok(Some(req)) => assert!(fits && req.header("x").is_some()),
                other => {
                    assert!(!fits);
                    assert_eq!(other.unwrap_err(), HttpError::TooLarge("request head"));
                }
            }
        }
    }

    #[test]
    fn response_roundtrips_through_client_reader() {
        let resp = Response::json(200, &crate::json::Json::obj().set("ok", true));
        let mut wire = Vec::new();
        resp.write_to(&mut wire, false).unwrap();
        let (status, body) = read_response(&mut Cursor::new(wire)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"ok":true}"#);
    }

    /// A `Write` double that counts `write` calls and accepts at most `cap`
    /// bytes per call (a socket may take fewer bytes than offered).
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
        cap: usize,
    }

    impl CountingWriter {
        fn accepting(cap: usize) -> CountingWriter {
            CountingWriter { bytes: Vec::new(), writes: 0, cap }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            let n = buf.len().min(self.cap);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The wire format is pinned byte for byte: these heads are what the
    /// server has always sent, whatever `write_to` does internally.
    #[test]
    fn a_response_is_one_write_of_the_golden_bytes() {
        let cases: [(Response, &str, &str); 3] = [
            (
                Response::text(200, ""),
                "HTTP/1.1 200 OK\r\ncontent-type: text/plain; version=0.0.4\r\ncontent-length: 0\r\n\r\n",
                "HTTP/1.1 200 OK\r\ncontent-type: text/plain; version=0.0.4\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
            ),
            (
                Response { status: 201, content_type: "application/json", body: vec![b'j'; 99] },
                "HTTP/1.1 201 Created\r\ncontent-type: application/json\r\ncontent-length: 99\r\n\r\n",
                "HTTP/1.1 201 Created\r\ncontent-type: application/json\r\ncontent-length: 99\r\nconnection: close\r\n\r\n",
            ),
            (
                Response { status: 418, content_type: "application/json", body: vec![b'r'; (1 << 20) + 1] },
                "HTTP/1.1 418 Status\r\ncontent-type: application/json\r\ncontent-length: 1048577\r\n\r\n",
                "HTTP/1.1 418 Status\r\ncontent-type: application/json\r\ncontent-length: 1048577\r\nconnection: close\r\n\r\n",
            ),
        ];
        for (resp, keep_alive_head, close_head) in &cases {
            for (close, head) in [(false, keep_alive_head), (true, close_head)] {
                let golden = [head.as_bytes(), &resp.body].concat();
                let mut whole = CountingWriter::accepting(usize::MAX);
                resp.write_to(&mut whole, close).unwrap();
                assert_eq!(whole.writes, 1, "{head:?}");
                assert!(whole.bytes == golden, "{head:?}");
                // A writer that takes 7 bytes at a time still gets them all.
                let mut short = CountingWriter::accepting(7);
                resp.write_to(&mut short, close).unwrap();
                assert!(short.bytes == golden, "{head:?}");
            }
        }
    }

    #[test]
    fn responses_have_their_own_larger_bound() {
        // A body over the request cap is an ordinary response…
        let resp = Response::text(200, "r".repeat(MAX_BODY_BYTES + 1));
        let mut wire = Vec::new();
        resp.write_to(&mut wire, false).unwrap();
        let (status, body) = read_response(&mut Cursor::new(wire)).unwrap();
        assert_eq!((status, body.len()), (200, MAX_BODY_BYTES + 1));
        // …and the response bound is checked before anything is allocated.
        let head = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n",
            MAX_RESPONSE_BYTES + 1
        );
        assert_eq!(
            read_response(&mut Cursor::new(head.into_bytes())).unwrap_err(),
            HttpError::TooLarge("response body")
        );
    }

    #[test]
    fn bare_lf_line_endings_tolerated() {
        let req = parse(b"GET /healthz HTTP/1.1\nhost: y\n\n").unwrap().unwrap();
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("y"));
    }
}
