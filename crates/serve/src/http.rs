//! Minimal HTTP/1.1 framing over `std::io` — no TLS, no chunked bodies, no
//! dependencies. Exactly the subset the service and its load generator
//! speak: request line + headers + `Content-Length` body, persistent
//! connections by default.
//!
//! Both directions are symmetrical and pure over `BufRead`/byte buffers, so
//! the property tests round-trip `render → parse` without sockets, and the
//! malformed-input corpus drives [`read_request`] directly. Malformed input
//! is *always* a typed error (mapped to a 4xx by the server), never a panic.
//!
//! A kept-alive connection reuses its buffers: [`read_request_into`] refills
//! one [`Request`] in place, [`Response::write_into`] and `write_request`
//! append to one output `Vec`, and heads are parsed from slices of the
//! reader's buffer, so a steady-state exchange allocates only the bodies it
//! hands over (DESIGN.md §10).

use std::io::{BufRead, Read, Write};

/// Upper bound on the request line + headers (bytes).
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body (bytes).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Upper bound on a response body the client will read (bytes). Responses
/// grow with the session — `/v1/result` carries every finished job, ≈180 B
/// each — so this is far above the request cap: room for over a million
/// jobs, while still bounding the allocation a bad length could ask for.
pub(crate) const MAX_RESPONSE_BYTES: usize = 256 * 1024 * 1024;
/// A per-connection buffer that one message grew past this many bytes is
/// released after it ([`release_if_large`]), so a connection that once
/// carried a 700 KB `/v1/result` does not stay pinned at that size.
const KEEP_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug, Clone, Default, PartialEq)]
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
            ..Request::default()
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

    /// Serialises the request (client side / round-trip tests) through
    /// `write_request`, the renderer the client uses too.
    pub fn render(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.body.len());
        let headers = self.headers.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        write_request(&mut out, &self.method, &self.path, &self.query, headers, &self.body);
        out
    }
}

/// Appends one request to `out`: the request line (`path?query`, or `path`
/// alone when `query` is empty), `headers` verbatim, `content-length` when
/// there is a body or the method is `POST`, the blank line, then `body`.
/// The one request renderer: [`Request::render`] and the client use it.
pub(crate) fn write_request<'h>(
    out: &mut Vec<u8>,
    method: &str,
    path: &str,
    query: &str,
    headers: impl IntoIterator<Item = (&'h str, &'h str)>,
    body: &[u8],
) {
    // Writing into a `Vec` cannot fail.
    let sep = if query.is_empty() { "" } else { "?" };
    let _ = write!(out, "{method} {path}{sep}{query} HTTP/1.1\r\n");
    for (k, v) in headers {
        let _ = write!(out, "{k}: {v}\r\n");
    }
    if !body.is_empty() || method == "POST" {
        let _ = write!(out, "content-length: {}\r\n", body.len());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Sends one rendered message: one `write_all`, then `flush`. On an
/// unbuffered, `TCP_NODELAY` socket every `write` is a syscall and a
/// segment, and a message should cost the peer one read.
pub(crate) fn send(w: &mut impl Write, wire: &[u8]) -> std::io::Result<()> {
    w.write_all(wire)?;
    w.flush()
}

/// Drops `buf`'s allocation once it outgrew [`KEEP_BYTES`].
pub(crate) fn release_if_large(buf: &mut Vec<u8>) {
    if buf.capacity() > KEEP_BYTES {
        *buf = Vec::new();
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
/// by the remaining head budget, and hands its text to `parse`. EOF before
/// the newline is `Disconnected`; running out of budget is `TooLarge(head)`.
///
/// Scans the reader's buffered slice for the newline. Only the part of the
/// slice the budget still covers is looked at, so the accounting is per
/// byte: a head of exactly `MAX_HEAD_BYTES` fits, one byte more does not.
/// A line that lies whole in the buffer is parsed in place; only one that
/// straddles a refill is gathered into a spill buffer first.
fn read_line<T>(
    r: &mut impl BufRead,
    budget: &mut usize,
    head: &'static str,
    parse: impl FnOnce(&str) -> Result<T, HttpError>,
) -> Result<T, HttpError> {
    let mut spill = Vec::new();
    loop {
        let buf = r.fill_buf().map_err(|_| HttpError::Disconnected)?;
        if buf.is_empty() {
            return Err(HttpError::Disconnected);
        }
        if *budget == 0 {
            return Err(HttpError::TooLarge(head));
        }
        let window = &buf[..buf.len().min(*budget)];
        let Some(i) = window.iter().position(|&b| b == b'\n') else {
            let taken = window.len();
            spill.extend_from_slice(window);
            r.consume(taken);
            *budget -= taken;
            continue;
        };
        let line = if spill.is_empty() {
            &window[..i]
        } else {
            spill.extend_from_slice(&window[..i]);
            &spill[..]
        };
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let out = std::str::from_utf8(line)
            .map_err(|_| malformed("non-UTF-8 header line"))
            .and_then(parse);
        r.consume(i + 1);
        *budget -= i + 1;
        return out;
    }
}

/// Reads one request from the stream. `Ok(None)` means the peer closed
/// cleanly between requests (keep-alive teardown).
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let mut req = Request::default();
    Ok(read_request_into(r, &mut req)?.then_some(req))
}

/// [`read_request`] into `req`, reusing its strings, header slots and body
/// buffer: `Ok(true)` when a request was read, `Ok(false)` when the peer
/// closed cleanly between requests. After an `Err`, `req` holds a partial
/// parse; the next call overwrites every field.
pub fn read_request_into(r: &mut impl BufRead, req: &mut Request) -> Result<bool, HttpError> {
    req.method.clear();
    req.path.clear();
    req.query.clear();
    req.body.clear();
    if r.fill_buf().map_err(|_| HttpError::Disconnected)?.is_empty() {
        return Ok(false);
    }
    const HEAD: &str = "request head";
    let mut budget = MAX_HEAD_BYTES;
    read_line(r, &mut budget, HEAD, |line| {
        let mut parts = line.split(' ');
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
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        req.method.push_str(method);
        req.path.push_str(path);
        req.query.push_str(query);
        Ok(())
    })?;

    // Header `n` refills slot `n`; slots past the last header are dropped.
    let mut n = 0;
    while read_line(r, &mut budget, HEAD, |line| {
        if line.is_empty() {
            return Ok(false);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("header line without a colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(malformed("invalid header name"));
        }
        if n == req.headers.len() {
            req.headers.push(Default::default());
        }
        let (k, v) = &mut req.headers[n];
        k.clear();
        k.push_str(name);
        k.make_ascii_lowercase();
        v.clear();
        v.push_str(value.trim());
        n += 1;
        Ok(true)
    })? {}
    req.headers.truncate(n);

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
        req.body.resize(len, 0);
        r.read_exact(&mut req.body).map_err(|_| HttpError::Disconnected)?;
    }
    Ok(true)
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

    /// Appends the full response, head then body, to `out`; `close` adds
    /// `Connection: close`. The one response renderer: the server sends
    /// `out` with one `write_all`, as [`write_to`](Response::write_to) does.
    pub fn write_into(&self, out: &mut Vec<u8>, close: bool) {
        // Writing into a `Vec` cannot fail.
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n{}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if close { "connection: close\r\n" } else { "" },
        );
        out.extend_from_slice(&self.body);
    }

    /// Writes the full response in one `write_all`:
    /// [`write_into`](Response::write_into) a fresh buffer, then send it.
    pub fn write_to(&self, w: &mut impl Write, close: bool) -> std::io::Result<()> {
        let mut wire = Vec::with_capacity(128 + self.body.len());
        self.write_into(&mut wire, close);
        send(w, &wire)
    }
}

/// Client side: reads one response (status + headers + sized body). The
/// head is parsed in place, so the body is the one allocation. The body
/// buffer starts at the announced length up to [`MAX_BODY_BYTES`] and
/// grows only with bytes that arrive, so a forged `content-length` cannot
/// make it allocate more; no byte is zero-filled before it is read into.
pub fn read_response(r: &mut impl BufRead) -> Result<(u16, Vec<u8>), HttpError> {
    const HEAD: &str = "response head";
    let mut budget = MAX_HEAD_BYTES;
    let status = read_line(r, &mut budget, HEAD, |line| {
        let mut parts = line.split(' ');
        if !matches!(parts.next(), Some("HTTP/1.1" | "HTTP/1.0")) {
            return Err(malformed("bad status line"));
        }
        parts
            .next()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| malformed("bad status code"))
    })?;
    let mut content_length = 0usize;
    while read_line(r, &mut budget, HEAD, |line| {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| malformed("bad content-length"))?;
            }
        }
        Ok(!line.is_empty())
    })? {}
    if content_length > MAX_RESPONSE_BYTES {
        return Err(HttpError::TooLarge("response body"));
    }
    let mut body = Vec::with_capacity(content_length.min(MAX_BODY_BYTES));
    r.take(content_length as u64)
        .read_to_end(&mut body)
        .map_err(|_| HttpError::Disconnected)?;
    if body.len() < content_length {
        return Err(HttpError::Disconnected);
    }
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
    fn a_response_body_grows_only_with_the_bytes_that_arrive() {
        // Announced, then cut short: a disconnect, however much was announced.
        for len in [10, MAX_RESPONSE_BYTES] {
            let wire = format!("HTTP/1.1 200 OK\r\ncontent-length: {len}\r\n\r\nabc");
            let err = read_response(&mut Cursor::new(wire.into_bytes())).unwrap_err();
            assert_eq!(err, HttpError::Disconnected, "{len}");
        }
        // Seven bytes per read: each body arrives whole, in a buffer of its
        // size, and the reader stops at its end, where the next reply starts.
        let bodies = ["b".repeat(10_000), "{}".to_string(), String::new()];
        let wire: String = bodies
            .iter()
            .map(|b| format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{b}", b.len()))
            .collect();
        let mut r = std::io::BufReader::with_capacity(7, Cursor::new(wire.into_bytes()));
        for body in &bodies {
            let (status, got) = read_response(&mut r).unwrap();
            assert_eq!((status, got.len(), got.capacity()), (200, body.len(), body.len()));
            assert!(got == body.as_bytes());
        }
    }

    #[test]
    fn an_oversize_response_head_is_named_as_one() {
        let head = format!("HTTP/1.1 200 OK\r\nx: {}\r\n\r\n", "v".repeat(MAX_HEAD_BYTES));
        let err = read_response(&mut Cursor::new(head.into_bytes())).unwrap_err();
        assert_eq!(err, HttpError::TooLarge("response head"));
        assert_eq!(err.to_string(), "response head exceeds the configured limit");
    }

    fn token(rng: &mut proptest::TestRng, alphabet: &[u8], len: usize) -> String {
        (0..len).map(|_| char::from(alphabet[rng.below(alphabet.len())])).collect()
    }

    /// One request's bytes: 0–6 headers (a quarter of them `Connection:
    /// close`), with or without a query and a body, `\r\n` or bare `\n`
    /// line ends; three in ten are then broken in one of seven ways
    /// (lower-case method, no version, a header without a colon, an
    /// unparsable length, chunked, cut short, non-UTF-8).
    fn random_wire(rng: &mut proptest::TestRng) -> Vec<u8> {
        let eol = if rng.below(4) == 0 { "\n" } else { "\r\n" };
        let method = ["GET", "POST", "DELETE"][rng.below(3)];
        let len = 1 + rng.below(8);
        let mut head = format!("{method} /v1/{}", token(rng, b"abjobs09", len));
        if rng.below(2) == 0 {
            let len = 1 + rng.below(8);
            head += &format!("?{}", token(rng, b"ab=&12", len));
        }
        head += &format!(" HTTP/1.1{eol}");
        for i in 0..rng.below(7) {
            if rng.below(4) == 0 {
                head += &format!("Connection: close{eol}");
            } else {
                let name = token(rng, b"abcDEF", 3);
                let len = rng.below(12);
                head += &format!("X-{name}-{i}: {}{eol}", token(rng, b"ab c,;=/09", len));
            }
        }
        let len = rng.below(2) * rng.below(40);
        let body = token(rng, b"{}:\"ab12", len);
        if !body.is_empty() {
            head += &format!("content-length: {}{eol}", body.len());
        }
        let mut wire = format!("{head}{eol}{body}").into_bytes();
        let first_line = wire.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut insert = |line: &[u8]| drop(wire.splice(first_line..first_line, line.iter().copied()));
        match rng.below(10) {
            0 => insert(b"broken header\r\n"),
            1 => insert(b"content-length: nope\r\n"),
            2 => insert(b"transfer-encoding: chunked\r\n"),
            3 => insert(b"x-bytes: \xff\xfe\r\n"),
            4 => wire[0] = wire[0].to_ascii_lowercase(),
            5 => drop(wire.splice(first_line - 9 - eol.len()..first_line - eol.len(), [])),
            6 => wire.truncate(rng.below(wire.len())),
            _ => {}
        }
        wire
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// One `Request` refilled by a run of valid and malformed requests
        /// always equals a fresh parse of the same bytes — so nothing of a
        /// failed request (a header, a body) leaks into the next one — when
        /// the head arrives whole and when it arrives 7 bytes per read.
        #[test]
        fn a_reused_request_equals_a_fresh_parse(seed in proptest::prelude::any::<u64>()) {
            let mut rng = proptest::TestRng::new(seed);
            let mut reused = Request::default();
            for _ in 0..1 + rng.below(8) {
                let wire = random_wire(&mut rng);
                let capacity = if rng.below(2) == 0 { 7 } else { 8192 };
                let reader = || std::io::BufReader::with_capacity(capacity, Cursor::new(wire.clone()));
                let fresh = read_request(&mut reader());
                let got = read_request_into(&mut reader(), &mut reused);
                let text = String::from_utf8_lossy(&wire);
                match (got, fresh) {
                    (Ok(true), Ok(Some(fresh))) => proptest::prop_assert_eq!(&reused, &fresh, "{}", text),
                    (Ok(false), Ok(None)) => {}
                    (Err(a), Err(b)) => proptest::prop_assert_eq!(a, b, "{}", text),
                    (got, fresh) => proptest::prop_assert!(false, "{:?} vs {:?} on {}", got, fresh, text),
                }
            }
        }
    }

    #[test]
    fn bare_lf_line_endings_tolerated() {
        let req = parse(b"GET /healthz HTTP/1.1\nhost: y\n\n").unwrap().unwrap();
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("y"));
    }
}
