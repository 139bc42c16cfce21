//! The HTTP server: a bounded `std::thread::scope` worker pool in front of
//! the single scheduler thread.
//!
//! Concurrency shape (DESIGN.md §10):
//!
//! ```text
//!   acceptor ──sync_channel(bounded)──▶ worker × N ──mpsc──▶ engine (1)
//! ```
//!
//! Workers parse HTTP, translate to [`Command`]s and block on a per-request
//! reply channel; the engine executes commands strictly sequentially, so the
//! simulator state has exactly one writer and no locks. Back-pressure is
//! structural: the connection channel is bounded, and each worker pipelines
//! at most one in-flight command.

use crate::engine::{ClockMode, Command, Engine, EngineError, JobView, Snapshot};
use crate::http::{self, HttpError, Request, Response};
use crate::json::Json;
use crate::metrics::{HttpCounters, ServeHistograms, DURATION_BOUNDS_S};
use crate::proto::{self, SubmitRequest};
use sd_obs::{good_within, SloKind, SloSpec, SloStatus, SloTracker};
use slurm_sim::{FieldVal, SimResult, TraceEvent, TraceRing};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server configuration (the engine is built by the caller).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// HTTP worker threads (the scheduler thread is extra).
    pub workers: usize,
    /// Decision-trace ring backing `/v1/trace` — share the same `Arc` the
    /// engine was built with (`Engine::with_trace`).
    pub trace: Option<Arc<TraceRing>>,
    /// Wall-clock histograms for `/metrics` — share with
    /// `Engine::with_histograms` so pass durations land in the same place.
    pub hists: Arc<ServeHistograms>,
    /// Watch the process signal latch ([`crate::signals`]): on SIGTERM or
    /// SIGINT, drain in-flight commands, shut the engine down cleanly
    /// (final checkpoint included when a WAL is attached) and return the
    /// final result as if a client had posted `/v1/shutdown`. The caller
    /// must also run [`crate::signals::install`].
    pub signal_stop: bool,
    /// Declared service-level objectives. Non-empty spawns the burn-rate
    /// sampler thread and enables `GET /v1/slo` plus the SLO gauges on
    /// `/metrics`.
    pub slos: Vec<SloSpec>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            trace: None,
            hists: Arc::default(),
            signal_stop: false,
            slos: Vec::new(),
        }
    }
}

struct Shared {
    cmd_tx: Sender<Command>,
    counters: HttpCounters,
    stop: AtomicBool,
    final_result: Mutex<Option<SimResult>>,
    addr: std::net::SocketAddr,
    trace: Option<Arc<TraceRing>>,
    hists: Arc<ServeHistograms>,
    /// Latest burn-rate evaluation, refreshed by the SLO sampler thread;
    /// empty when no SLOs are declared.
    slo_statuses: Mutex<Vec<SloStatus>>,
}

/// Runs the service until a client posts `/v1/shutdown` (or the listener
/// dies). Blocks the calling thread; returns the final [`SimResult`] as the
/// engine saw it at shutdown.
pub fn run(
    engine: Engine,
    listener: TcpListener,
    cfg: ServerConfig,
) -> std::io::Result<SimResult> {
    let addr = listener.local_addr()?;
    let (cmd_tx, cmd_rx) = mpsc::channel::<Command>();
    let workers = cfg.workers.max(1);
    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(workers * 2);
    let conn_rx = Mutex::new(conn_rx);
    let shared = Shared {
        cmd_tx,
        counters: HttpCounters::default(),
        stop: AtomicBool::new(false),
        final_result: Mutex::new(None),
        addr,
        trace: cfg.trace.clone(),
        hists: cfg.hists.clone(),
        slo_statuses: Mutex::new(Vec::new()),
    };

    std::thread::scope(|s| {
        s.spawn(|| engine.run(cmd_rx));
        for _ in 0..workers {
            s.spawn(|| worker_loop(&conn_rx, &shared));
        }
        if cfg.signal_stop {
            s.spawn(|| signal_watcher(&shared));
        }
        if !cfg.slos.is_empty() {
            let slos = cfg.slos.clone();
            s.spawn(|| slo_sampler(slos, &shared));
        }
        // Acceptor: this thread. Unblocked at shutdown by a self-connection.
        // Transient accept errors (ECONNABORTED from a reset handshake,
        // EMFILE under fd pressure) must not kill the daemon: back off and
        // retry, giving up only after a long unbroken error run.
        let mut consecutive_errors = 0u32;
        loop {
            match listener.accept() {
                Ok((conn, _)) => {
                    consecutive_errors = 0;
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                    if conn_tx.send(conn).is_err() {
                        break;
                    }
                }
                Err(_) if shared.stop.load(Ordering::SeqCst) => break,
                Err(_) => {
                    consecutive_errors += 1;
                    if consecutive_errors > 100 {
                        break; // the listener is genuinely dead
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        drop(conn_tx); // workers drain and exit
        if !shared.stop.load(Ordering::SeqCst) {
            // The listener died without a client shutdown. The engine would
            // otherwise block forever in recv() (its Sender lives in
            // `shared`, which outlives the scope) — poke it loose with a
            // synthetic shutdown whose reply nobody reads.
            let (tx, _rx) = mpsc::channel();
            let _ = shared.cmd_tx.send(Command::Shutdown { reply: tx });
        }
    });

    shared
        .final_result
        .into_inner()
        .expect("final-result mutex poisoned")
        .ok_or_else(|| std::io::Error::other("listener died before a shutdown request"))
}

/// Polls the process signal latch; on SIGTERM/SIGINT performs the same
/// shutdown a client's `POST /v1/shutdown` would. The engine executes
/// commands strictly sequentially, so the `Shutdown` enqueued here drains
/// everything already accepted before the final snapshot (and, with a WAL,
/// the final checkpoint) is taken. Exits when the server stops for any
/// reason, so the scope always joins.
fn signal_watcher(shared: &Shared) {
    while !crate::signals::triggered() {
        if shared.stop.load(Ordering::SeqCst) {
            return; // the server is already shutting down normally
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    sd_obs::log_event!(Info, "serve", "termination signal received; draining and shutting down");
    let (rtx, rrx) = mpsc::channel();
    if shared.cmd_tx.send(Command::Shutdown { reply: rtx }).is_ok() {
        // A disconnect means a concurrent client shutdown beat us to the
        // engine and our command was dropped unprocessed — fine either way.
        if let Ok(res) = rrx.recv() {
            let mut slot = shared
                .final_result
                .lock()
                .expect("final-result mutex poisoned");
            if slot.is_none() {
                *slot = Some(res);
            }
        }
    }
    finish_shutdown(shared);
}

/// Burn-rate sampler: once per wall second, feeds each tracker the current
/// cumulative good/total counters for its kind and publishes the evaluated
/// statuses. Availability and pass duration read lock-free atomics; the
/// wait quantile needs the engine's wait histogram, one read-only `Stats`
/// round-trip per tick. Exits when the server stops or the engine is gone.
fn slo_sampler(specs: Vec<SloSpec>, shared: &Shared) {
    let mut trackers: Vec<SloTracker> = specs.into_iter().map(SloTracker::new).collect();
    let needs_snapshot = trackers
        .iter()
        .any(|t| t.spec().kind == SloKind::WaitQuantile);
    let start = Instant::now();
    loop {
        for _ in 0..4 {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(250));
        }
        let snap = if needs_snapshot {
            match call(shared, |reply| Command::Stats { reply }) {
                Ok(s) => Some(s),
                Err(_) => return, // engine gone
            }
        } else {
            None
        };
        let t = start.elapsed().as_secs();
        for tracker in &mut trackers {
            let (good, total) = match tracker.spec().kind {
                SloKind::Availability => {
                    let ok = shared.counters.submit_ok.load(Ordering::Relaxed);
                    let refused = shared.counters.submit_refused.load(Ordering::Relaxed);
                    (ok, ok + refused)
                }
                SloKind::PassQuantile => good_within(
                    &DURATION_BOUNDS_S,
                    &shared.hists.pass_seconds.counts(),
                    tracker.spec().threshold,
                ),
                SloKind::WaitQuantile => {
                    let h = &snap.as_ref().expect("snapshot fetched above").wait_hist;
                    good_within(h.bounds(), h.counts(), tracker.spec().threshold)
                }
            };
            tracker.record(t, good, total);
        }
        let statuses: Vec<SloStatus> = trackers.iter().map(|t| t.status()).collect();
        for s in &statuses {
            if s.breached {
                sd_obs::log_event!(Warn, "slo", "objective breached";
                    slo = s.name, budget = s.budget_remaining, burn_fast = s.burn_fast);
            }
        }
        *shared.slo_statuses.lock().expect("slo mutex poisoned") = statuses;
    }
}

fn worker_loop(conn_rx: &Mutex<mpsc::Receiver<TcpStream>>, shared: &Shared) {
    loop {
        let conn = {
            let rx = conn_rx.lock().expect("connection channel poisoned");
            rx.recv()
        };
        match conn {
            Ok(c) => serve_connection(c, shared),
            Err(_) => return, // acceptor gone
        }
    }
}

fn serve_connection(conn: TcpStream, shared: &Shared) {
    let _ = conn.set_nodelay(true);
    // Short read timeout: the idle wait below ticks on it, so an idle
    // keep-alive connection is dropped after a quiet period (workers cannot
    // be pinned forever by a silent peer) AND a shutdown releases blocked
    // workers within one tick instead of one full idle period.
    const IDLE_TICK: Duration = Duration::from_millis(500);
    const IDLE_TICKS_MAX: u32 = 60; // ≈30 s quiet → hang up
    let _ = conn.set_read_timeout(Some(IDLE_TICK));
    let mut reader = BufReader::new(conn);
    loop {
        // Wait for the next request head between requests, watching the
        // stop flag. Timeouts *inside* a request still map to Disconnected.
        let mut idle = 0u32;
        loop {
            use std::io::BufRead as _;
            match reader.fill_buf() {
                Ok([]) => return,  // clean close between requests
                Ok(_) => break,    // bytes waiting: parse a request
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if shared.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    idle += 1;
                    if idle >= IDLE_TICKS_MAX {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
        match http::read_request(&mut reader) {
            Ok(None) => return,
            Ok(Some(req)) => {
                let close = req.wants_close() || shared.stop.load(Ordering::SeqCst);
                let t0 = Instant::now();
                let resp = route(&req, shared);
                shared.hists.request_seconds.observe(t0.elapsed().as_secs_f64());
                shared.counters.count_status(resp.status);
                let is_shutdown = req.method == "POST" && req.path == "/v1/shutdown";
                if resp.write_to(reader.get_mut(), close).is_err() {
                    return;
                }
                if is_shutdown && resp.status == 200 {
                    finish_shutdown(shared);
                    return;
                }
                if close {
                    return;
                }
            }
            Err(HttpError::Disconnected) => return,
            Err(e) => {
                // Malformed input never kills the worker: answer 4xx, close.
                let status = match e {
                    HttpError::TooLarge(_) => 413,
                    _ => 400,
                };
                let resp = Response::error(status, &e.to_string());
                shared.counters.count_status(resp.status);
                let _ = resp.write_to(reader.get_mut(), true);
                return;
            }
        }
    }
}

/// After the shutdown response is on the wire: raise the stop flag and poke
/// the acceptor loose with a throwaway connection to our own socket.
fn finish_shutdown(shared: &Shared) {
    shared.stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_secs(1));
}

/// One round-trip to the engine.
fn call<T>(shared: &Shared, build: impl FnOnce(Sender<T>) -> Command) -> Result<T, Response> {
    let (tx, rx) = mpsc::channel();
    shared
        .cmd_tx
        .send(build(tx))
        .map_err(|_| Response::error(503, "scheduler is shutting down"))?;
    rx.recv()
        .map_err(|_| Response::error(503, "scheduler is shutting down"))
}

fn engine_error(e: EngineError) -> Response {
    let status = match &e {
        EngineError::Clock(_) | EngineError::WrongMode(_) => 409,
        EngineError::Rejected(_) => 400,
        EngineError::NoSuchJob(_) => 404,
        EngineError::NotPending(_) => 409,
        EngineError::RateLimited(_) => 429,
    };
    Response::error(status, &e.to_string())
}

fn route(req: &Request, shared: &Shared) -> Response {
    match route_inner(req, shared) {
        Ok(r) | Err(r) => r,
    }
}

fn route_inner(req: &Request, shared: &Shared) -> Result<Response, Response> {
    let path = req.path.as_str();
    let method = req.method.as_str();
    match (method, path) {
        ("GET", "/healthz") => Ok(Response::json(200, &Json::obj().set("ok", true))),
        ("GET", "/metrics") => {
            let snap = call(shared, |reply| Command::Stats { reply })?;
            let slos = shared
                .slo_statuses
                .lock()
                .expect("slo mutex poisoned")
                .clone();
            Ok(Response::text(
                200,
                crate::metrics::render(&snap, &shared.counters, &shared.hists, &slos),
            ))
        }
        ("GET", "/v1/trace") => {
            // Tail the ring lock-free right here — no engine round-trip, so
            // trace reads never queue behind scheduling work.
            let Some(ring) = &shared.trace else {
                return Err(Response::error(
                    404,
                    "tracing is not enabled (start the server with --trace)",
                ));
            };
            let since = query_u64(req, "since")?.unwrap_or(0);
            let limit = query_u64(req, "limit")?.unwrap_or(1_000).min(10_000) as usize;
            let tail = ring.read_since(since, limit);
            let events: Vec<Json> = tail.events.iter().map(event_json).collect();
            Ok(Response::json(
                200,
                &Json::obj()
                    .set("next", tail.next)
                    .set("dropped", tail.dropped)
                    .set("pushed", ring.pushed())
                    .set("capacity", ring.capacity() as u64)
                    .set("events", events),
            ))
        }
        ("GET", "/v1/logs") => {
            // Tail the global log ring lock-free — like /v1/trace, log reads
            // never queue behind scheduling work.
            let since = query_u64(req, "since")?.unwrap_or(0);
            let limit = query_u64(req, "limit")?.unwrap_or(1_000).min(10_000) as usize;
            let level = match query_str(req, "level") {
                None => None,
                Some(s) => Some(sd_obs::Level::parse(&s).ok_or_else(|| {
                    Response::error(400, "`level` must be error|warn|info|debug|trace")
                })?),
            };
            let target = query_str(req, "target");
            let tail = sd_obs::read_since(since, limit);
            let records: Vec<Json> = tail
                .records
                .iter()
                .filter(|r| level.is_none_or(|l| r.level <= l))
                .filter(|r| target.as_deref().is_none_or(|t| r.target == t))
                .map(log_record_json)
                .collect();
            Ok(Response::json(
                200,
                &Json::obj()
                    .set("next", tail.next)
                    .set("dropped", tail.dropped)
                    .set("head", sd_obs::ring_head())
                    .set("records", records),
            ))
        }
        ("GET", "/v1/slo") => {
            let statuses = shared
                .slo_statuses
                .lock()
                .expect("slo mutex poisoned")
                .clone();
            if statuses.is_empty() {
                return Err(Response::error(
                    404,
                    "no SLOs declared (start the server with --slo)",
                ));
            }
            let items: Vec<Json> = statuses.iter().map(slo_json).collect();
            Ok(Response::json(200, &Json::obj().set("slos", items)))
        }
        ("GET", "/v1/profile") => {
            // Windowed continuous profiling: snapshot the per-function
            // timing counters, arm the probes for `seconds`, diff, and
            // render Brendan-Gregg collapsed stacks. Blocks this worker for
            // the window — bounded, and the pool has more.
            let seconds = query_u64(req, "seconds")?.unwrap_or(1).clamp(1, 30);
            let before = slurm_sim::timing::report();
            slurm_sim::timing::arm();
            std::thread::sleep(Duration::from_secs(seconds));
            slurm_sim::timing::disarm();
            let after = slurm_sim::timing::report();
            let window = slurm_sim::timing::delta(&before, &after);
            // A quiet window (no passes ran) falls back to the cumulative
            // totals so the profile is never empty once traffic has flowed.
            let rows = if window.iter().all(|r| r.count == 0) { after } else { window };
            let stacks: Vec<sd_obs::StackSample> = slurm_sim::timing::stack_rows(&rows)
                .into_iter()
                .map(|(frames, v)| sd_obs::StackSample::new(frames, v))
                .collect();
            Ok(Response::text(200, sd_obs::collapsed(&stacks)))
        }
        ("GET", "/v1/stats") => {
            let snap = call(shared, |reply| Command::Stats { reply })?;
            Ok(Response::json(200, &snapshot_json(&snap)))
        }
        ("GET", "/v1/cluster") => {
            let snap = call(shared, |reply| Command::Stats { reply })?;
            Ok(Response::json(
                200,
                &Json::obj()
                    .set("nodes", snap.nodes)
                    .set("cores_per_node", snap.cores_per_node)
                    .set("busy_cores", snap.busy_cores)
                    .set("empty_nodes", snap.empty_nodes)
                    .set("running", snap.running),
            ))
        }
        ("GET", "/v1/queue") => {
            let (total, entries) = call(shared, |reply| Command::Queue { limit: 100, reply })?;
            let items: Vec<Json> = entries
                .iter()
                .map(|e| {
                    Json::obj()
                        .set("id", e.id)
                        .set("req_nodes", e.req_nodes)
                        .set("req_time", e.req_time)
                })
                .collect();
            Ok(Response::json(
                200,
                &Json::obj().set("pending", total).set("head", items),
            ))
        }
        ("POST", "/v1/jobs") => {
            let body = proto::body_json(&req.body).map_err(|e| Response::error(400, &e))?;
            let sub = SubmitRequest::decode(&body).map_err(|e| Response::error(400, &e))?;
            // Availability accounting: 2xx is good; 429/5xx burn the submit
            // SLO budget. Client errors (malformed bodies, clock conflicts)
            // never reach here or map to 4xx≠429 and count neither way.
            let refused = |r: Response| {
                if r.status == 429 || r.status >= 500 {
                    shared.counters.submit_refused.fetch_add(1, Ordering::Relaxed);
                }
                r
            };
            let ack = call(shared, |reply| Command::Submit { req: sub, reply })
                .map_err(&refused)?
                .map_err(|e| refused(engine_error(e)))?;
            shared.counters.submit_ok.fetch_add(1, Ordering::Relaxed);
            Ok(Response::json(
                201,
                &Json::obj().set("id", ack.id).set("submit", ack.submit),
            ))
        }
        ("POST", "/v1/clock/advance") => {
            let body = proto::body_json(&req.body).map_err(|e| Response::error(400, &e))?;
            let to = body
                .get("to")
                .and_then(Json::as_u64)
                .ok_or_else(|| Response::error(400, "`to` must be a non-negative integer"))?;
            let now = call(shared, |reply| Command::Advance { to, reply })?
                .map_err(engine_error)?;
            Ok(Response::json(200, &Json::obj().set("now", now)))
        }
        ("POST", "/v1/drain") => {
            let now = call(shared, |reply| Command::Drain { reply })?.map_err(engine_error)?;
            Ok(Response::json(200, &Json::obj().set("now", now).set("idle", true)))
        }
        ("GET", "/v1/result") => {
            let res = call(shared, |reply| Command::Result { reply })?;
            Ok(Response::json(200, &proto::encode_result(&res)))
        }
        ("POST", "/v1/shutdown") => {
            let res = call(shared, |reply| Command::Shutdown { reply })?;
            *shared
                .final_result
                .lock()
                .expect("final-result mutex poisoned") = Some(res.clone());
            Ok(Response::json(200, &proto::encode_result(&res)))
        }
        _ => {
            // /v1/jobs/{id} family.
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                return route_job(method, rest, shared);
            }
            if let Some(rest) = path.strip_prefix("/v1/explain/") {
                if method != "GET" {
                    return Err(Response::error(405, "method not allowed for this path"));
                }
                let id: u64 = rest
                    .parse()
                    .map_err(|_| Response::error(400, "job id must be an integer"))?;
                let view = call(shared, |reply| Command::Explain { id, reply })?
                    .map_err(engine_error)?;
                let decisions: Vec<Json> = view.events.iter().map(event_json).collect();
                return Ok(Response::json(
                    200,
                    &Json::obj()
                        .set("job", job_json(&view.job))
                        .set("tracing", view.tracing)
                        .set("overwritten", view.overwritten)
                        .set("decisions", decisions),
                ));
            }
            if matches!(
                path,
                "/healthz" | "/metrics" | "/v1/stats" | "/v1/cluster" | "/v1/queue" | "/v1/jobs"
                    | "/v1/clock/advance" | "/v1/drain" | "/v1/result" | "/v1/shutdown"
                    | "/v1/trace" | "/v1/logs" | "/v1/slo" | "/v1/profile"
            ) {
                return Err(Response::error(405, "method not allowed for this path"));
            }
            Err(Response::error(404, "no such endpoint"))
        }
    }
}

/// First value of a `?key=value` query parameter parsed as u64; `Ok(None)`
/// when absent, 400 when present but malformed.
fn query_u64(req: &Request, key: &str) -> Result<Option<u64>, Response> {
    let Some(v) = req.query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then_some(v)
    }) else {
        return Ok(None);
    };
    v.parse()
        .map(Some)
        .map_err(|_| Response::error(400, &format!("`{key}` must be a non-negative integer")))
}

/// First value of a `?key=value` query parameter as a string (no decoding;
/// log targets and level names are plain tokens).
fn query_str(req: &Request, key: &str) -> Option<String> {
    req.query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then(|| v.to_string())
    })
}

/// One structured log record as a JSON object (mirrors
/// `sd_obs::LogRecord::to_json`, built on the server's own JSON tree).
fn log_record_json(r: &sd_obs::LogRecord) -> Json {
    let mut fields = Json::obj();
    for (k, v) in &r.fields {
        fields = fields.set(k.as_str(), v.as_str());
    }
    Json::obj()
        .set("seq", r.seq)
        .set("wall_us", r.wall_micros)
        .set("virt_s", r.virt_secs)
        .set("level", r.level.label())
        .set("target", r.target.as_str())
        .set("msg", r.message.as_str())
        .set("fields", fields)
        .set("truncated", r.truncated)
}

fn slo_json(s: &SloStatus) -> Json {
    Json::obj()
        .set("slo", s.name.as_str())
        .set("kind", s.kind.label())
        .set("objective", s.objective)
        .set("threshold", s.threshold)
        .set("good", s.good)
        .set("total", s.total)
        .set("bad_fraction", s.bad_fraction)
        .set("budget_remaining", s.budget_remaining)
        .set("burn_fast", s.burn_fast)
        .set("burn_slow", s.burn_slow)
        .set("fast_window", s.fast_window)
        .set("slow_window", s.slow_window)
        .set("breached", s.breached)
}

/// One trace event as a JSON object (`seq`, `t`, `event`, then the typed
/// payload fields).
fn event_json(ev: &TraceEvent) -> Json {
    let mut o = Json::obj()
        .set("seq", ev.seq)
        .set("t", ev.t)
        .set("event", ev.kind.name());
    for (k, v) in ev.kind.fields() {
        o = match v {
            FieldVal::U64(n) => o.set(k, n),
            FieldVal::Str(s) => o.set(k, s),
        };
    }
    o
}

fn route_job(method: &str, rest: &str, shared: &Shared) -> Result<Response, Response> {
    let (id_text, action) = match rest.split_once('/') {
        Some((id, act)) => (id, Some(act)),
        None => (rest, None),
    };
    let id: u64 = id_text
        .parse()
        .map_err(|_| Response::error(400, "job id must be an integer"))?;
    match (method, action) {
        ("GET", None) => {
            let view = call(shared, |reply| Command::JobInfo { id, reply })?
                .map_err(engine_error)?;
            Ok(Response::json(200, &job_json(&view)))
        }
        ("DELETE", None) | ("POST", Some("cancel")) => {
            call(shared, |reply| Command::Cancel { id, reply })?.map_err(engine_error)?;
            Ok(Response::json(200, &Json::obj().set("cancelled", id)))
        }
        _ => Err(Response::error(405, "method not allowed for this path")),
    }
}

fn job_json(view: &JobView) -> Json {
    Json::obj()
        .set("id", view.id)
        .set("state", view.state)
        .set("submit", view.submit)
        .set("req_nodes", view.req_nodes)
        .set("req_time", view.req_time)
        .set("malleable", view.malleable)
        .set("start", view.start)
        .set("end", view.end)
        .set("cores", view.cores)
        .set("rate", view.rate.map(Json::Num))
}

fn snapshot_json(snap: &Snapshot) -> Json {
    let s = &snap.stats;
    Json::obj()
        .set("scheduler", snap.scheduler)
        .set(
            "clock",
            match snap.clock {
                ClockMode::Virtual => Json::from("virtual"),
                ClockMode::Realtime { compression } => Json::obj()
                    .set("mode", "realtime")
                    .set("compression", compression),
            },
        )
        .set("now", snap.now)
        .set("jobs_total", snap.jobs_total)
        .set("submitted", snap.submitted)
        .set("pending", snap.pending)
        .set("running", snap.running)
        .set("completed", snap.completed)
        .set("cancelled", s.cancelled)
        .set("quota_skipped", s.quota_skipped)
        .set("events_outstanding", snap.events_outstanding)
        .set("started_static", s.started_static)
        .set("started_malleable", s.started_malleable)
        .set("unique_mates", s.unique_mates)
        .set("relocations", s.relocations)
        .set("sched_passes", s.sched_passes)
        .set("passes_skipped", s.passes_skipped)
        .set("events_dispatched", s.events_dispatched)
        .set("peak_profile_len", s.peak_profile_len)
        .set("mean_slowdown", snap.mean_slowdown)
        .set("mean_response", snap.mean_response)
        .set("mean_wait", snap.mean_wait)
        .set("makespan", snap.makespan)
        .set("energy_joules", snap.energy_joules)
        .set("busy_cores", snap.busy_cores)
        .set("empty_nodes", snap.empty_nodes)
        .set("nodes", snap.nodes)
        .set(
            "tenants",
            snap.tenants
                .iter()
                .map(|t| {
                    Json::obj()
                        .set("tenant", t.tenant)
                        .set("submitted", t.submitted)
                        .set("rate_limited", t.rate_limited)
                        .set("started", t.started)
                        .set("completed", t.completed)
                        .set("quota_skipped", t.quota_skipped)
                        .set("running_width", t.running_width)
                })
                .collect::<Vec<_>>(),
        )
}
