//! Blocking loopback client for the service — used by `sd-loadgen`, the
//! equivalence test and the CI smoke step. Keep-alive with transparent
//! one-shot reconnect, typed wrappers over the JSON protocol.

use crate::http;
use crate::json::Json;
use crate::proto::{self, SubmitRequest};
use crate::server::{
    ADVANCE, CANCEL, DRAIN, EXPLAIN, HEALTHZ, JOB, LOGS, METRICS, PROFILE, RESULT, SHUTDOWN, SLO,
    STATS, SUBMIT, TRACE,
};
use slurm_sim::SimResult;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    Protocol(String),
    /// Server answered with an error status; body text included.
    Status(u16, String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Status(code, body) => write!(f, "HTTP {code}: {body}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A persistent connection to one `sd-serve` instance.
pub struct Client {
    addr: SocketAddr,
    /// The `host` header's value, formatted once.
    host: String,
    conn: Option<BufReader<TcpStream>>,
    /// The request being sent, rendered into a buffer kept across requests.
    wire: Vec<u8>,
    /// Transport-failure retries allowed per request (beyond the free
    /// stale-keep-alive reconnect). 0 = fail fast.
    max_retries: u32,
    retries: u64,
    /// xorshift state for backoff jitter (decorrelates clients hammering a
    /// restarting server).
    jitter: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        let mut c = Client::new(addr);
        connection(&mut c.conn, addr)?;
        Ok(c)
    }

    /// A client that has not connected yet — the first request will. Useful
    /// with [`with_retries`](Client::with_retries) when the server may not
    /// be up yet.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            host: addr.to_string(),
            conn: None,
            wire: Vec::new(),
            max_retries: 0,
            retries: 0,
            jitter: (u64::from(std::process::id()) << 17) ^ u64::from(addr.port()) ^ 0x9E37_79B9,
        }
    }

    /// Allows up to `n` transport-failure retries per request, with capped
    /// exponential backoff (10 ms doubling to ~1.3 s) and ±50% jitter.
    /// Only connection-level failures are retried; an HTTP error status is
    /// an answer, not a failure.
    pub fn with_retries(mut self, n: u32) -> Client {
        self.max_retries = n;
        self
    }

    /// Transport retries performed so far (all requests).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn backoff(&mut self, attempt: u32) -> Duration {
        let base_ms = 10u64 << attempt.min(7); // 10ms .. 1.28s
        // xorshift64 → jitter factor in [0.5, 1.5).
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let frac = (self.jitter % 1000) as f64 / 1000.0;
        Duration::from_secs_f64(base_ms as f64 * 1e-3 * (0.5 + frac))
    }

    /// Renders the request into `self.wire` with `http::write_request`: a
    /// `host` header, and `content-type` plus the rendered body when there
    /// is one. A `method` or `path` with a space or a control character is
    /// refused: it would split the request line or inject header lines.
    fn render(&mut self, method: &str, path: &str, body: Option<&Json>) -> Result<(), ClientError> {
        for (what, s) in [("method", method), ("path", path)] {
            if s.bytes().any(|b| b == b' ' || b.is_ascii_control()) {
                return Err(ClientError::Protocol(format!("{what} {s:?} has a space or a control character")));
            }
        }
        let body = body.map(Json::render).unwrap_or_default();
        let headers = [("host", self.host.as_str()), ("content-type", "application/json")];
        let headers = &headers[..if body.is_empty() { 1 } else { 2 }];
        self.wire.clear();
        http::write_request(&mut self.wire, method, path, "", headers.iter().copied(), body.as_bytes());
        Ok(())
    }

    /// One request/response, reconnecting once if the pooled connection was
    /// torn down (server-side idle timeout), then retrying with backoff up
    /// to the [`with_retries`](Client::with_retries) budget.
    ///
    /// Caution: a retried *mutation* may be applied twice if the server
    /// crashed after applying but before answering. Callers that need
    /// exactly-once (the soak harness) must resync from server state
    /// instead of blindly retrying submissions.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, Vec<u8>), ClientError> {
        self.render(method, path, body)?;
        // A failure on a pooled connection gets one immediate free retry on
        // a fresh socket — that is the ordinary server-side idle timeout,
        // not an outage.
        let mut free_retry = self.conn.is_some();
        let mut attempt = 0u32;
        let answer = loop {
            let sent = connection(&mut self.conn, self.addr).and_then(|c| exchange(c, &self.wire));
            match sent {
                Ok(r) => break Ok(r),
                Err(e) => {
                    self.conn = None;
                    if free_retry {
                        free_retry = false;
                        continue;
                    }
                    if attempt >= self.max_retries {
                        break Err(e);
                    }
                    attempt += 1;
                    self.retries += 1;
                    std::thread::sleep(self.backoff(attempt - 1));
                }
            }
        };
        http::release_if_large(&mut self.wire);
        answer
    }

    fn request_json(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<Json, ClientError> {
        let (status, bytes) = self.request(method, path, body)?;
        let text = String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
        if !(200..300).contains(&status) {
            return Err(ClientError::Status(status, text));
        }
        Json::parse(&text).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    // ----- typed endpoints -----

    pub fn health(&mut self) -> Result<(), ClientError> {
        self.request_json(HEALTHZ.method, HEALTHZ.path, None).map(|_| ())
    }

    /// Submits a job; returns `(id, effective submit time)`.
    pub fn submit(&mut self, req: &SubmitRequest) -> Result<(u64, u64), ClientError> {
        let v = self.request_json(SUBMIT.method, SUBMIT.path, Some(&req.encode()))?;
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("submit ack without id".into()))?;
        let submit = v.get("submit").and_then(Json::as_u64).unwrap_or(0);
        Ok((id, submit))
    }

    pub fn cancel(&mut self, id: u64) -> Result<(), ClientError> {
        self.request_json(CANCEL.method, &CANCEL.with_id(id), None).map(|_| ())
    }

    pub fn job(&mut self, id: u64) -> Result<Json, ClientError> {
        self.request_json(JOB.method, &JOB.with_id(id), None)
    }

    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request_json(STATS.method, STATS.path, None)
    }

    /// Raw Prometheus exposition text.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let (status, bytes) = self.request(METRICS.method, METRICS.path, None)?;
        if status != 200 {
            return Err(ClientError::Status(status, String::from_utf8_lossy(&bytes).into()));
        }
        String::from_utf8(bytes).map_err(|_| ClientError::Protocol("metrics not UTF-8".into()))
    }

    /// Tails the decision trace from cursor `since` (≤ `limit` events).
    pub fn trace(&mut self, since: u64, limit: u64) -> Result<Json, ClientError> {
        let path = format!("{}?since={since}&limit={limit}", TRACE.path);
        self.request_json(TRACE.method, &path, None)
    }

    /// Full decision history of one job.
    pub fn explain(&mut self, id: u64) -> Result<Json, ClientError> {
        self.request_json(EXPLAIN.method, &EXPLAIN.with_id(id), None)
    }

    /// Tails the structured log ring from cursor `since` (≤ `limit`
    /// records); `level` caps verbosity, `target` filters by subsystem.
    /// Both are sent undecoded, as the server reads them, so each must be
    /// a plain token (ASCII letters, digits, `-`, `_`, `.`); anything else
    /// is refused before it is sent.
    pub fn logs(
        &mut self,
        since: u64,
        limit: u64,
        level: Option<&str>,
        target: Option<&str>,
    ) -> Result<Json, ClientError> {
        let mut path = format!("{}?since={since}&limit={limit}", LOGS.path);
        for (key, value) in [("level", level), ("target", target)] {
            let Some(v) = value else { continue };
            let plain = |b: u8| b.is_ascii_alphanumeric() || b"-_.".contains(&b);
            if v.is_empty() || !v.bytes().all(plain) {
                return Err(ClientError::Protocol(format!("`{key}` {v:?} is not a plain token")));
            }
            path.push_str(&format!("&{key}={v}"));
        }
        self.request_json(LOGS.method, &path, None)
    }

    /// Current SLO evaluations (404 → `Status` error when none declared).
    pub fn slo(&mut self) -> Result<Json, ClientError> {
        self.request_json(SLO.method, SLO.path, None)
    }

    /// Collapsed-stack profile over a `seconds`-long window (flamegraph
    /// input; blocks for the window).
    pub fn profile(&mut self, seconds: u64) -> Result<String, ClientError> {
        let path = format!("{}?seconds={seconds}", PROFILE.path);
        let (status, bytes) = self.request(PROFILE.method, &path, None)?;
        if status != 200 {
            return Err(ClientError::Status(status, String::from_utf8_lossy(&bytes).into()));
        }
        String::from_utf8(bytes).map_err(|_| ClientError::Protocol("profile not UTF-8".into()))
    }

    /// Advances the virtual clock; returns the new clock position.
    pub fn advance(&mut self, to: u64) -> Result<u64, ClientError> {
        let v = self.request_json(ADVANCE.method, ADVANCE.path, Some(&Json::obj().set("to", to)))?;
        v.get("now")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("advance ack without now".into()))
    }

    /// Runs the virtual clock until the event queue drains.
    pub fn drain(&mut self) -> Result<u64, ClientError> {
        let v = self.request_json(DRAIN.method, DRAIN.path, None)?;
        v.get("now")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("drain ack without now".into()))
    }

    /// Read-only result of the run so far.
    pub fn result(&mut self) -> Result<SimResult, ClientError> {
        let v = self.request_json(RESULT.method, RESULT.path, None)?;
        proto::decode_result(&v).map_err(ClientError::Protocol)
    }

    /// Stops the server; returns its final result.
    pub fn shutdown(&mut self) -> Result<SimResult, ClientError> {
        let v = self.request_json(SHUTDOWN.method, SHUTDOWN.path, None)?;
        proto::decode_result(&v).map_err(ClientError::Protocol)
    }
}

/// The pooled connection, opened first when there is none.
fn connection(
    conn: &mut Option<BufReader<TcpStream>>,
    addr: SocketAddr,
) -> Result<&mut BufReader<TcpStream>, ClientError> {
    let open = match conn.take() {
        Some(open) => open,
        None => {
            let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            BufReader::new(stream)
        }
    };
    Ok(conn.insert(open))
}

/// Sends one rendered request in one write and reads the response.
fn exchange<S: Read + Write>(conn: &mut BufReader<S>, wire: &[u8]) -> Result<(u16, Vec<u8>), ClientError> {
    http::send(conn.get_mut(), wire)?;
    http::read_response(conn).map_err(|e| ClientError::Protocol(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;
    use std::io::Cursor;

    /// A connection double: answers from `reply`, and records what was
    /// written and in how many `write` calls.
    struct Peer {
        reply: Cursor<Vec<u8>>,
        sent: Vec<u8>,
        writes: usize,
    }

    impl Read for Peer {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reply.read(buf)
        }
    }

    impl Write for Peer {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.sent.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The request twin of `http::tests::a_response_is_one_write_of_the_golden_bytes`:
    /// what the client sends is `Request::render` of the same request and
    /// these literal bytes, in one write.
    #[test]
    fn a_request_is_one_write_of_the_golden_bytes() {
        let mut client = Client::new("127.0.0.1:7070".parse().unwrap());
        let to = Json::obj().set("to", 100u64);
        let cases: [(&str, &str, Option<&Json>, &str); 3] = [
            ("GET", "/v1/jobs/7", None, "GET /v1/jobs/7 HTTP/1.1\r\nhost: 127.0.0.1:7070\r\n\r\n"),
            (
                "POST",
                "/v1/clock/advance",
                Some(&to),
                "POST /v1/clock/advance HTTP/1.1\r\nhost: 127.0.0.1:7070\r\ncontent-type: application/json\r\ncontent-length: 10\r\n\r\n{\"to\":100}",
            ),
            ("POST", "/v1/drain", None, "POST /v1/drain HTTP/1.1\r\nhost: 127.0.0.1:7070\r\ncontent-length: 0\r\n\r\n"),
        ];
        for (method, path, body, golden) in cases {
            let mut twin = Request::new(method, path);
            twin.headers.push(("host".into(), "127.0.0.1:7070".into()));
            if let Some(v) = body {
                twin.headers.push(("content-type".into(), "application/json".into()));
                twin.body = v.render().into_bytes();
            }
            assert_eq!(String::from_utf8(twin.render()).unwrap(), golden);
            client.render(method, path, body).unwrap();
            let reply = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}".to_vec();
            let peer = Peer { reply: Cursor::new(reply), sent: Vec::new(), writes: 0 };
            let mut conn = BufReader::new(peer);
            assert_eq!(exchange(&mut conn, &client.wire).unwrap(), (200, b"{}".to_vec()));
            let peer = conn.into_inner();
            assert_eq!(peer.writes, 1, "{golden:?}");
            assert_eq!(String::from_utf8(peer.sent).unwrap(), golden);
        }
    }

    /// A space or a line break in a method, a path or a log filter never
    /// reaches the wire: each is a `Protocol` error, and the first request
    /// the server sees is the valid one sent after them.
    #[test]
    fn targets_that_would_break_the_request_line_are_refused_before_sending() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (seen_tx, seen) = std::sync::mpsc::channel();
        let peer = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut conn = BufReader::new(conn);
            loop {
                let seen = match http::read_request(&mut conn) {
                    Ok(Some(req)) => format!("{} {}", req.method, req.path),
                    Ok(None) => return,
                    Err(e) => e.to_string(),
                };
                seen_tx.send(seen).unwrap();
                let reply = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}";
                if conn.get_mut().write_all(reply).is_err() {
                    return;
                }
            }
        });
        let mut client = Client::new(addr);
        fn refused<T>(r: Result<T, ClientError>) -> bool {
            matches!(r, Err(ClientError::Protocol(_)))
        }
        assert!(refused(client.request("GET", "/healthz\r\nx-injected: 1", None)));
        assert!(refused(client.request("GET", "/healthz\nx-injected: 1", None)));
        assert!(refused(client.request("GET", "/a b", None)));
        assert!(refused(client.request("GET /x HTTP/1.1\r\n", "/healthz", None)));
        assert!(refused(client.logs(0, 10, None, Some("a b"))));
        assert!(refused(client.logs(0, 10, None, Some("wal\r\nx-injected: 1"))));
        assert!(refused(client.logs(0, 10, Some("debug&target=wal"), None)));
        assert!(refused(client.logs(0, 10, Some(""), None)));
        assert_eq!(client.request("GET", "/healthz", None).unwrap(), (200, b"{}".to_vec()));
        client.logs(0, 10, Some("debug"), Some("gate-test")).unwrap();
        assert_eq!(seen.recv().unwrap(), "GET /healthz", "nothing was sent before it");
        assert_eq!(seen.recv().unwrap(), "GET /v1/logs");
        drop(client);
        peer.join().unwrap();
    }
}
