//! Blocking loopback client for the service — used by `sd-loadgen`, the
//! equivalence test and the CI smoke step. Keep-alive with transparent
//! one-shot reconnect, typed wrappers over the JSON protocol.

use crate::http::{self, Request};
use crate::json::Json;
use crate::proto::{self, SubmitRequest};
use crate::server::{
    ADVANCE, CANCEL, DRAIN, EXPLAIN, HEALTHZ, JOB, LOGS, METRICS, PROFILE, RESULT, SHUTDOWN, SLO,
    STATS, SUBMIT, TRACE,
};
use slurm_sim::SimResult;
use std::io::{BufReader, Write as _};
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
    conn: Option<BufReader<TcpStream>>,
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
        c.ensure()?;
        Ok(c)
    }

    /// A client that has not connected yet — the first request will. Useful
    /// with [`with_retries`](Client::with_retries) when the server may not
    /// be up yet.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
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

    fn ensure(&mut self) -> Result<&mut BufReader<TcpStream>, ClientError> {
        let conn = match self.conn.take() {
            Some(conn) => conn,
            None => {
                let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(120)))?;
                BufReader::new(stream)
            }
        };
        Ok(self.conn.insert(conn))
    }

    fn exchange_once(&mut self, wire: &[u8]) -> Result<(u16, Vec<u8>), ClientError> {
        let reader = self.ensure()?;
        reader.get_mut().write_all(wire)?;
        reader.get_mut().flush()?;
        match http::read_response(reader) {
            Ok(r) => Ok(r),
            Err(e) => Err(ClientError::Protocol(e.to_string())),
        }
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
        let mut req = Request::new(method, path);
        req.headers.push(("host".into(), self.addr.to_string()));
        if let Some(v) = body {
            req.headers
                .push(("content-type".into(), "application/json".into()));
            req.body = v.render().into_bytes();
        }
        let wire = req.render();
        // A failure on a pooled connection gets one immediate free retry on
        // a fresh socket — that is the ordinary server-side idle timeout,
        // not an outage.
        let mut free_retry = self.conn.is_some();
        let mut attempt = 0u32;
        loop {
            match self.exchange_once(&wire) {
                Ok(r) => return Ok(r),
                Err(e) => {
                    self.conn = None;
                    if free_retry {
                        free_retry = false;
                        continue;
                    }
                    if attempt >= self.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    self.retries += 1;
                    std::thread::sleep(self.backoff(attempt - 1));
                }
            }
        }
    }

    fn request_json(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<Json, ClientError> {
        let (status, bytes) = self.request(method, path, body)?;
        let text = String::from_utf8_lossy(&bytes).into_owned();
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
    pub fn logs(
        &mut self,
        since: u64,
        limit: u64,
        level: Option<&str>,
        target: Option<&str>,
    ) -> Result<Json, ClientError> {
        let mut path = format!("{}?since={since}&limit={limit}", LOGS.path);
        if let Some(l) = level {
            path.push_str(&format!("&level={l}"));
        }
        if let Some(t) = target {
            path.push_str(&format!("&target={t}"));
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
