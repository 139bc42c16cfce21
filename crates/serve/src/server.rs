//! The HTTP server: a bounded `std::thread::scope` worker pool over one
//! engine behind one lock (DESIGN.md §10):
//!
//! ```text
//!   acceptor ──sync_channel(bounded)──▶ worker × N ──Mutex──▶ engine
//! ```
//!
//! Workers parse HTTP and answer each request from the one [`ROUTES`] table,
//! mostly with one [`Engine`] call through `with_engine`: one caller at a
//! time, so the simulator has one writer and its commands one serial order.
//! In a realtime session the ticker advances the clock the same way.

use crate::engine::{ClockMode, Engine, EngineError, JobView};
use crate::http::{self, HttpError, Request, Response};
use crate::json::{self, Json, JsonWriter};
use crate::metrics::{self, HttpCounters, ServeHistograms, DURATION_BOUNDS_S};
use crate::proto::{self, SubmitRequest};
use sd_obs::{good_within, SloKind, SloSpec, SloStatus, SloTracker};
use slurm_sim::{timing, FieldVal, SimResult, TraceEvent, TraceRing};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Server configuration (the engine is built by the caller).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// HTTP worker threads; each calls the engine itself, under its lock.
    pub workers: usize,
    /// Decision-trace ring backing `/v1/trace` — share the same `Arc` the
    /// engine was built with (`Engine::with_trace`).
    pub trace: Option<Arc<TraceRing>>,
    /// Wall-clock histograms for `/metrics` — share with
    /// `Engine::with_histograms` so pass durations land in the same place.
    pub hists: Arc<ServeHistograms>,
    /// Watch the process signal latch ([`crate::signals`]): on SIGTERM or
    /// SIGINT, shut the engine down as `/v1/shutdown` would (final checkpoint
    /// included when a WAL is attached) and return its result. The caller
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
    /// `None` once [`stop_engine`] took it.
    engine: Mutex<Option<Engine>>,
    /// The engine's clock mode at boot.
    clock: ClockMode,
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

/// One endpoint: a method, a path pattern in which `{id}` captures one
/// segment, and the handler that answers it.
pub struct Route {
    pub method: &'static str,
    pub path: &'static str,
    handler: fn(&Call) -> Answer,
}

impl Route {
    const fn new(method: &'static str, path: &'static str, handler: fn(&Call) -> Answer) -> Route {
        Route { method, path, handler }
    }

    /// What `path` has where the pattern has `{id}` ("" without one), or
    /// `None` when the path does not fit. Compares in place, allocating nothing.
    fn capture<'p>(&self, path: &'p str) -> Option<&'p str> {
        let Some((head, tail)) = self.path.split_once("{id}") else {
            return (self.path == path).then_some("");
        };
        let id = path.strip_prefix(head)?.strip_suffix(tail)?;
        (!id.contains('/')).then_some(id)
    }

    /// The path naming job `id` on this route.
    pub(crate) fn with_id(&self, id: u64) -> String {
        self.path.replace("{id}", &id.to_string())
    }
}

/// A handler's reply: both sides go on the wire, `Err` is `?`'s early exit.
type Answer = Result<Response, Response>;

/// Every endpoint the server answers, in DESIGN.md §10's order. Dispatch,
/// its 404/405 split and the client's paths all follow from this table.
pub static ROUTES: [Route; 18] = [
    SUBMIT, CANCEL, DELETE_JOB, JOB, EXPLAIN, QUEUE, CLUSTER, STATS, ADVANCE, DRAIN, RESULT,
    SHUTDOWN, METRICS, HEALTHZ, TRACE, LOGS, SLO, PROFILE,
];

pub(crate) const SUBMIT: Route = Route::new("POST", "/v1/jobs", |c| {
    let body = proto::body_json(&c.req.body).map_err(|e| Response::error(400, &e))?;
    let sub = SubmitRequest::decode(&body).map_err(|e| Response::error(400, &e))?;
    // Availability accounting: 2xx is good; 429/5xx burn the submit
    // SLO budget. Client errors (malformed bodies, clock conflicts)
    // never reach here or map to 4xx≠429 and count neither way.
    let refused = |r: Response| {
        if r.status == 429 || r.status >= 500 {
            c.shared.counters.submit_refused.fetch_add(1, Ordering::Relaxed);
        }
        r
    };
    let ack = with_engine(c.shared, |e| e.submit(sub))
        .map_err(&refused)?
        .map_err(|e| refused(engine_error(e)))?;
    c.shared.counters.submit_ok.fetch_add(1, Ordering::Relaxed);
    Ok(reply(201, |w| {
        w.field("id", ack.id).field("submit", ack.submit);
    }))
});

pub(crate) const CANCEL: Route = Route::new("POST", "/v1/jobs/{id}/cancel", cancel);
const DELETE_JOB: Route = Route::new("DELETE", "/v1/jobs/{id}", cancel);

/// Both cancel routes: withdraws a pending or a running job.
fn cancel(c: &Call) -> Answer {
    let id = c.id()?;
    with_engine(c.shared, |e| e.cancel(id))?.map_err(engine_error)?;
    Ok(reply(200, |w| {
        w.field("cancelled", id);
    }))
}

pub(crate) const JOB: Route = Route::new("GET", "/v1/jobs/{id}", |c| {
    let id = c.id()?;
    let view = with_engine(c.shared, |e| e.job_view(id))?.map_err(engine_error)?;
    Ok(reply(200, |w| job_fields(w, &view)))
});

pub(crate) const EXPLAIN: Route = Route::new("GET", "/v1/explain/{id}", |c| {
    let id = c.id()?;
    let view = with_engine(c.shared, |e| e.explain(id))?.map_err(engine_error)?;
    Ok(reply(200, |w| {
        w.key("job").object(|w| job_fields(w, &view.job));
        w.field("tracing", view.tracing).field("overwritten", view.overwritten);
        w.key("decisions").array(|w| view.events.iter().for_each(|ev| event(w, ev)));
    }))
});

const QUEUE: Route = Route::new("GET", "/v1/queue", |c| {
    let (total, entries) = with_engine(c.shared, |e| e.queue(100))?;
    // An entry is ≈ 44 bytes; 56 leaves room for longer numbers.
    let bytes = 32 + 56 * entries.len();
    Ok(Response::json_body(200, json::write_object_sized(bytes, |w| {
        w.field("pending", total).key("head").array(|w| {
            for e in &entries {
                w.object(|w| {
                    w.field("id", e.id).field("req_nodes", e.req_nodes).field("req_time", e.req_time);
                });
            }
        });
    })))
});

const CLUSTER: Route = Route::new("GET", "/v1/cluster", |c| {
    let snap = with_engine(c.shared, Engine::snapshot)?;
    Ok(reply(200, |w| metrics::fields(w, &metrics::CLUSTER, &snap)))
});

pub(crate) const STATS: Route = Route::new("GET", "/v1/stats", |c| {
    let snap = with_engine(c.shared, Engine::snapshot)?;
    Ok(Response::json_body(200, metrics::stats_json(&snap)))
});

pub(crate) const ADVANCE: Route = Route::new("POST", "/v1/clock/advance", |c| {
    let body = proto::body_json(&c.req.body).map_err(|e| Response::error(400, &e))?;
    let to = body
        .get("to")
        .and_then(Json::as_u64)
        .ok_or_else(|| Response::error(400, "`to` must be a non-negative integer"))?;
    c.virtual_only("advance requires the virtual clock (realtime advances itself)")?;
    let now = with_engine(c.shared, |e| e.advance(to))?.map_err(engine_error)?;
    Ok(reply(200, |w| {
        w.field("now", now);
    }))
});

pub(crate) const DRAIN: Route = Route::new("POST", "/v1/drain", |c| {
    c.virtual_only("drain requires the virtual clock")?;
    let now = with_engine(c.shared, Engine::drain)?.map_err(engine_error)?;
    Ok(reply(200, |w| {
        w.field("now", now).field("idle", true);
    }))
});

pub(crate) const RESULT: Route = Route::new("GET", "/v1/result", |c| {
    let res = with_engine(c.shared, |e| e.result())?;
    Ok(Response::json(200, &proto::encode_result(&res)))
});

pub(crate) const SHUTDOWN: Route = Route::new("POST", "/v1/shutdown", |c| {
    let res = stop_engine(c.shared)?;
    Ok(Response::json(200, &proto::encode_result(&res)))
});

pub(crate) const METRICS: Route = Route::new("GET", "/metrics", |c| {
    let snap = with_engine(c.shared, Engine::snapshot)?;
    let slos = lock(&c.shared.slo_statuses).clone();
    let text = metrics::render(&snap, &c.shared.counters, &c.shared.hists, &slos);
    Ok(Response::text(200, text))
});

pub(crate) const HEALTHZ: Route = Route::new("GET", "/healthz", |_| {
    Ok(reply(200, |w| {
        w.field("ok", true);
    }))
});

/// Tails the decision ring lock-free right here — not under the engine's
/// lock, so trace reads never queue behind scheduling work.
pub(crate) const TRACE: Route = Route::new("GET", "/v1/trace", |c| {
    let Some(ring) = &c.shared.trace else {
        return Err(Response::error(404, "tracing is not enabled (start the server with --trace)"));
    };
    let (since, limit) = c.tail_window()?;
    let tail = ring.read_since(since, limit);
    Ok(reply(200, |w| {
        w.field("next", tail.next).field("dropped", tail.dropped);
        w.field("pushed", ring.pushed()).field("capacity", ring.capacity());
        w.key("events").array(|w| tail.events.iter().for_each(|ev| event(w, ev)));
    }))
});

/// Tails the global log ring lock-free: like `/v1/trace`, log reads never
/// queue behind scheduling work.
pub(crate) const LOGS: Route = Route::new("GET", "/v1/logs", |c| {
    let (since, limit) = c.tail_window()?;
    let bad_level = || Response::error(400, "`level` must be error|warn|info|debug|trace");
    let level = c.query("level").map(|s| sd_obs::Level::parse(s).ok_or_else(bad_level));
    let level = level.transpose()?;
    let target = c.query("target");
    let tail = sd_obs::read_since(since, limit);
    let records = tail
        .records
        .iter()
        .filter(|r| level.is_none_or(|l| r.level <= l))
        .filter(|r| target.is_none_or(|t| r.target == t));
    Ok(reply(200, |w| {
        w.field("next", tail.next).field("dropped", tail.dropped).field("head", sd_obs::ring_head());
        w.key("records").array(|w| records.for_each(|r| log_record(w, r)));
    }))
});

pub(crate) const SLO: Route = Route::new("GET", "/v1/slo", |c| {
    let statuses = lock(&c.shared.slo_statuses);
    if statuses.is_empty() {
        return Err(Response::error(404, "no SLOs declared (start the server with --slo)"));
    }
    Ok(reply(200, |w| {
        w.key("slos").array(|w| statuses.iter().for_each(|s| slo(w, s)));
    }))
});

/// Windowed continuous profiling: take the engine's per-function timing
/// counters from two snapshots around a `seconds`-long armed window, diff,
/// and render Brendan-Gregg collapsed stacks. Blocks this worker for the
/// window — bounded, and the pool has more.
pub(crate) const PROFILE: Route = Route::new("GET", "/v1/profile", |c| {
    let seconds = c.query_u64("seconds")?.unwrap_or(1).clamp(1, 30);
    let before = with_engine(c.shared, Engine::snapshot)?.timing;
    timing::arm();
    std::thread::sleep(Duration::from_secs(seconds));
    timing::disarm();
    let after = with_engine(c.shared, Engine::snapshot)?.timing;
    let window = timing::delta(&before, &after);
    // A quiet window (no passes ran) falls back to the cumulative
    // totals so the profile is never empty once traffic has flowed.
    let rows = if window.iter().all(|r| r.count == 0) { after } else { window };
    Ok(Response::text(200, timing::collapsed(&rows)))
});

/// Runs the service until a client posts `/v1/shutdown` (or the listener
/// dies). Blocks the calling thread; returns the final [`SimResult`] as the
/// engine saw it at shutdown. A realtime engine's clock is moved by a
/// ticker thread from the instant the engine boots at, so a recovered
/// session resumes its clock where it stopped.
pub fn run(
    mut engine: Engine,
    listener: TcpListener,
    cfg: ServerConfig,
) -> std::io::Result<SimResult> {
    let addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(workers * 2);
    let conn_rx = Mutex::new(conn_rx);
    let boot = engine.snapshot();
    let shared = Shared {
        engine: Mutex::new(Some(engine)),
        clock: boot.clock,
        counters: HttpCounters::default(),
        stop: AtomicBool::new(false),
        final_result: Mutex::new(None),
        addr,
        trace: cfg.trace.clone(),
        hists: cfg.hists.clone(),
        slo_statuses: Mutex::new(Vec::new()),
    };

    let listener_died = std::thread::scope(|s| {
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
        if let ClockMode::Realtime { compression } = boot.clock {
            let shared = &shared;
            s.spawn(move || ticker(shared, boot.now, compression));
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
        // A listener that died before any shutdown still checkpoints the engine.
        let died = !shared.stop.load(Ordering::SeqCst);
        if died {
            let _ = stop_engine(&shared);
        }
        died
    });

    match shared.final_result.into_inner().unwrap_or_else(PoisonError::into_inner) {
        Some(res) if !listener_died => Ok(res),
        _ => Err(std::io::Error::other("listener died before a shutdown request")),
    }
}

/// Polls the process signal latch; on SIGTERM/SIGINT performs the same
/// shutdown a client's `POST /v1/shutdown` would. Exits when the server
/// stops for any reason, so the scope always joins.
fn signal_watcher(shared: &Shared) {
    while !crate::signals::triggered() {
        if shared.stop.load(Ordering::SeqCst) {
            return; // the server is already shutting down normally
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    sd_obs::log_event!(Info, "serve", "termination signal received; draining and shutting down");
    // An `Err`: a client's shutdown reached the engine first and stops us.
    let _ = stop_engine(shared);
}

/// Moves a realtime session's clock: every 50 ms ÷ `compression` (within
/// 5–200 ms) of wall time, advances the engine to [`tick_target`]. Exits
/// when the server stops or the engine is gone.
fn ticker(shared: &Shared, anchor: u64, compression: f64) {
    let period = Duration::from_micros((50_000.0 / compression) as u64)
        .clamp(Duration::from_millis(5), Duration::from_millis(200));
    let boot = Instant::now();
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(period);
        let to = tick_target(anchor, boot.elapsed(), compression);
        if with_engine(shared, |e| e.advance(to)).is_err() {
            return; // engine gone
        }
    }
}

/// `anchor` plus `elapsed` × `compression`, saturating (`as` too) and
/// capped at the largest instant the wire accepts, so no compression can
/// push the clock past what a client can submit at.
fn tick_target(anchor: u64, elapsed: Duration, compression: f64) -> u64 {
    let advanced = (elapsed.as_secs_f64() * compression) as u64;
    anchor.saturating_add(advanced).min(json::MAX_U64)
}

/// Burn-rate sampler: once per wall second, feeds each tracker the current
/// cumulative good/total counters for its kind and publishes the evaluated
/// statuses. Availability and pass duration read lock-free atomics; the
/// wait quantile reads the engine's wait histogram from one snapshot per
/// tick. Exits when the server stops or the engine is gone.
fn slo_sampler(specs: Vec<SloSpec>, shared: &Shared) {
    let mut trackers: Vec<SloTracker> = specs.into_iter().map(SloTracker::new).collect();
    let needs_snapshot = trackers.iter().any(|t| t.spec().kind == SloKind::WaitQuantile);
    let start = Instant::now();
    loop {
        for _ in 0..4 {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(250));
        }
        // Empty when no wait objective reads it.
        let wait = if needs_snapshot {
            let Ok(snap) = with_engine(shared, Engine::snapshot) else { return }; // engine gone
            snap.wait_hist
        } else {
            sched_metrics::Histogram::new(Vec::new())
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
                    good_within(wait.bounds(), wait.counts(), tracker.spec().threshold)
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
        *lock(&shared.slo_statuses) = statuses;
    }
}

fn worker_loop(conn_rx: &Mutex<mpsc::Receiver<TcpStream>>, shared: &Shared) {
    loop {
        let conn = lock(conn_rx).recv();
        let Ok(conn) = conn else { return }; // acceptor gone
        serve_connection(conn, shared);
    }
}

/// Serves one connection until it closes. One [`Request`] and one output
/// buffer live as long as the connection, so a steady-state request
/// allocates only its reply body; a buffer one message grew past 64 KiB is
/// released after it.
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
    let mut req = Request::default();
    let mut out = Vec::new();
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
        out.clear();
        match http::read_request_into(&mut reader, &mut req) {
            Ok(false) => return,
            Ok(true) => {
                let close = req.wants_close() || shared.stop.load(Ordering::SeqCst);
                let t0 = Instant::now();
                let resp = dispatch(&req, shared);
                shared.hists.request_seconds.observe(t0.elapsed().as_secs_f64());
                shared.counters.count_status(resp.status);
                resp.write_into(&mut out, close);
                // Once the server is stopping, every worker hangs up after its reply.
                if http::send(reader.get_mut(), &out).is_err()
                    || close
                    || shared.stop.load(Ordering::SeqCst)
                {
                    return;
                }
                http::release_if_large(&mut out);
                http::release_if_large(&mut req.body);
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
                resp.write_into(&mut out, true);
                let _ = http::send(reader.get_mut(), &out);
                return;
            }
        }
    }
}

/// Stops the engine (for `/v1/shutdown`, a signal or a dead listener): takes
/// it out of its lock, so later calls get a 503, and checkpoints it. Keeps
/// the result for [`run`], raises the stop flag and pokes the acceptor loose
/// with a throwaway connection to our own socket.
fn stop_engine(shared: &Shared) -> Result<SimResult, Response> {
    let taken = shared.engine.lock().ok().and_then(|mut slot| slot.take());
    let res = taken.ok_or_else(engine_gone)?.shutdown();
    *lock(&shared.final_result) = Some(res.clone());
    shared.stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_secs(1));
    Ok(res)
}

/// One engine call under its lock, settled before release. A 503 once
/// [`stop_engine`] took the engine, or once a panic mid-call poisoned the lock.
fn with_engine<T>(shared: &Shared, f: impl FnOnce(&mut Engine) -> T) -> Result<T, Response> {
    let mut slot = shared.engine.lock().map_err(|_| engine_gone())?;
    let engine = slot.as_mut().ok_or_else(engine_gone)?;
    let out = f(engine);
    engine.settle();
    Ok(out)
}

fn engine_gone() -> Response {
    Response::error(503, "scheduler is shutting down")
}

/// Every lock but the engine's only stores or clones a whole value or takes
/// from a channel, so no panic leaves one half-written: recover the guard.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn engine_error(e: EngineError) -> Response {
    let status = match &e {
        EngineError::Clock(_) | EngineError::NotPending(_) => 409,
        EngineError::Rejected(_) => 400,
        EngineError::NoSuchJob(_) => 404,
        EngineError::RateLimited(_) => 429,
        EngineError::Storage(_) => 503,
    };
    Response::error(status, &e.to_string())
}

/// Answers one request from [`ROUTES`]: 404 when no pattern fits the path,
/// 405 when one fits but not with this method, else that row's handler.
fn dispatch(req: &Request, shared: &Shared) -> Response {
    let mut path_known = false;
    for route in &ROUTES {
        if let Some(capture) = route.capture(&req.path) {
            if route.method == req.method {
                let (Ok(resp) | Err(resp)) = (route.handler)(&Call { req, shared, capture });
                return resp;
            }
            path_known = true;
        }
    }
    if path_known {
        Response::error(405, "method not allowed for this path")
    } else {
        Response::error(404, "no such endpoint")
    }
}

/// A request as its handler sees it.
struct Call<'a> {
    req: &'a Request,
    shared: &'a Shared,
    /// The segment the route's `{id}` captured; empty when it has none.
    capture: &'a str,
}

impl Call<'_> {
    /// A 409 carrying `refusal` in a realtime session: its clock is the ticker's.
    fn virtual_only(&self, refusal: &str) -> Result<(), Response> {
        let virtual_clock = self.shared.clock == ClockMode::Virtual;
        virtual_clock.then_some(()).ok_or_else(|| Response::error(409, refusal))
    }

    /// The captured `{id}`; a 400 when it is not a `u64`.
    fn id(&self) -> Result<u64, Response> {
        self.capture.parse().map_err(|_| Response::error(400, "job id must be an integer"))
    }

    /// The first value of query parameter `key`, undecoded (plain tokens).
    fn query(&self, key: &str) -> Option<&str> {
        self.req.query.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Query parameter `key` as a `u64`: `None` when absent, 400 if malformed.
    fn query_u64(&self, key: &str) -> Result<Option<u64>, Response> {
        let malformed = || Response::error(400, &format!("`{key}` must be a non-negative integer"));
        self.query(key).map(|v| v.parse().map_err(|_| malformed())).transpose()
    }

    /// A ring tail's `since` cursor (default 0) and `limit` (default 1 000,
    /// at most 10 000).
    fn tail_window(&self) -> Result<(u64, usize), Response> {
        let since = self.query_u64("since")?.unwrap_or(0);
        let limit = self.query_u64("limit")?.unwrap_or(1_000).min(10_000) as usize;
        Ok((since, limit))
    }
}

/// A JSON reply whose object members `body` writes.
fn reply(status: u16, body: impl FnOnce(&mut JsonWriter)) -> Response {
    Response::json_body(status, json::write_object(body))
}

/// One structured log record as a JSON object (the keys of
/// `sd_obs::LogRecord::to_json`, with `fields` and `truncated` always
/// present).
fn log_record(w: &mut JsonWriter, r: &sd_obs::LogRecord) {
    w.object(|w| {
        w.field("seq", r.seq).field("wall_us", r.wall_micros).field("virt_s", r.virt_secs);
        w.field("level", r.level.label()).field("target", r.target.as_str());
        w.field("msg", r.message.as_str()).key("fields").object(|w| {
            for (k, v) in &r.fields {
                w.key_escaped(k).str(v);
            }
        });
        w.field("truncated", r.truncated);
    });
}

fn slo(w: &mut JsonWriter, s: &SloStatus) {
    w.object(|w| {
        w.field("slo", s.name.as_str()).field("kind", s.kind.label());
        w.field("objective", s.objective).field("threshold", s.threshold);
        w.field("good", s.good).field("total", s.total).field("bad_fraction", s.bad_fraction);
        w.field("budget_remaining", s.budget_remaining);
        w.field("burn_fast", s.burn_fast).field("burn_slow", s.burn_slow);
        w.field("fast_window", s.fast_window).field("slow_window", s.slow_window);
        w.field("breached", s.breached);
    });
}

/// One trace event as a JSON object (`seq`, `t`, `event`, then the typed
/// payload fields).
fn event(w: &mut JsonWriter, ev: &TraceEvent) {
    w.object(|w| {
        w.field("seq", ev.seq).field("t", ev.t).field("event", ev.kind.name());
        for (k, v) in ev.kind.fields() {
            match v {
                FieldVal::U64(n) => w.field(k, n),
                FieldVal::Str(s) => w.field(k, s),
            };
        }
    });
}

/// The members of a job's status object.
fn job_fields(w: &mut JsonWriter, view: &JobView) {
    w.field("id", view.id).field("state", view.state).field("submit", view.submit);
    w.field("req_nodes", view.req_nodes).field("req_time", view.req_time);
    w.field("malleable", view.malleable).field("start", view.start).field("end", view.end);
    w.field("cores", view.cores).field("rate", view.rate);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every status the server sends has its reason phrase, never the
    /// `Status` fallback: the fixed ones and each arm of `engine_error`.
    #[test]
    fn every_emitted_status_has_a_reason_phrase() {
        let emitted = [200, 201, 400, 404, 405, 409, 413, 429, 503];
        let engine = [
            EngineError::Clock(String::new()),
            EngineError::Rejected(String::new()),
            EngineError::NoSuchJob(1),
            EngineError::NotPending(1),
            EngineError::RateLimited(1),
            EngineError::Storage(String::new()),
        ];
        for e in engine {
            let status = engine_error(e).status;
            assert!(emitted.contains(&status), "{status} is missing from the list");
        }
        for status in emitted {
            assert_ne!(Response::error(status, "").reason(), "Status", "{status}");
        }
    }

    /// A `Shared` around an empty 8-node engine; `addr` is `listener`'s.
    fn shared(listener: &TcpListener) -> Shared {
        let mut spec = cluster::ClusterSpec::ricc();
        spec.nodes = 8;
        let model = Box::new(slurm_sim::IdealModel);
        let state = slurm_sim::SimState::new_online(spec, Default::default(), model, drom::SharingFactor::HALF);
        let engine = Engine::new(state, Box::new(slurm_sim::StaticBackfill), ClockMode::Virtual);
        Shared {
            engine: Mutex::new(Some(engine)),
            clock: ClockMode::Virtual,
            counters: HttpCounters::default(),
            stop: AtomicBool::new(false),
            final_result: Mutex::new(None),
            addr: listener.local_addr().unwrap(),
            trace: None,
            hists: Arc::default(),
            slo_statuses: Mutex::new(Vec::new()),
        }
    }

    fn status<T>(answer: Result<T, Response>) -> Option<u16> {
        answer.err().map(|r| r.status)
    }

    /// A panic inside an engine call poisons the lock: every later call,
    /// the shutdown's included, is a 503 and never sees the state it left.
    #[test]
    fn a_poisoned_engine_answers_503() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let shared = shared(&listener);
        assert_eq!(with_engine(&shared, |e| e.queue(1).0).ok(), Some(0));
        let call = std::panic::AssertUnwindSafe(|| {
            with_engine(&shared, |e| {
                e.advance(10).unwrap();
                panic!("a half-applied call");
            })
        });
        assert!(std::panic::catch_unwind(call).is_err());
        assert_eq!(status(with_engine(&shared, |e| e.queue(1))), Some(503));
        assert_eq!(status(with_engine(&shared, Engine::snapshot)), Some(503));
        assert_eq!(status(stop_engine(&shared)), Some(503));
        assert!(!shared.stop.load(Ordering::SeqCst), "no result, so no stop");
    }

    /// Shutdown takes the engine: the first caller gets the result, every
    /// later call a 503 at once.
    #[test]
    fn calls_after_shutdown_answer_503() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let shared = shared(&listener);
        let res = stop_engine(&shared).expect("the first shutdown gets the result");
        assert_eq!(lock(&shared.final_result).as_ref(), Some(&res));
        assert!(shared.stop.load(Ordering::SeqCst));
        assert_eq!(status(with_engine(&shared, |e| e.advance(1))), Some(503));
        assert_eq!(status(stop_engine(&shared)), Some(503));
    }

    /// The tick target saturates at the largest instant the wire accepts, so
    /// even an absurd compression yields an instant a submit can carry.
    #[test]
    fn tick_target_saturates_at_the_wire_bound() {
        let secs = Duration::from_secs;
        assert_eq!(tick_target(100, secs(2), 2.5), 105);
        assert_eq!(tick_target(100, Duration::ZERO, 1e300), 100);
        assert_eq!(tick_target(0, secs(1), 1e300), json::MAX_U64);
        assert_eq!(tick_target(json::MAX_U64 - 1, secs(1), 60.0), json::MAX_U64);
        assert_eq!(tick_target(0, Duration::from_millis(1), f64::INFINITY), json::MAX_U64);
    }

    /// `/v1/logs` and `/v1/slo` carry wall-clock values no session can
    /// replay, so their objects are pinned here, as the tree renderer
    /// wrote them.
    #[test]
    fn log_and_slo_objects_keep_their_bytes() {
        let record = sd_obs::LogRecord {
            seq: 7,
            wall_micros: 1_760_000_000_123_456,
            virt_secs: 42,
            level: sd_obs::Level::Warn,
            target: "wal".into(),
            message: "append \"failed\"".into(),
            fields: vec![("seq".into(), "9".into()), ("at".into(), "x\ny".into())],
            truncated: true,
        };
        let status = SloStatus {
            name: "submit_availability".into(),
            kind: SloKind::Availability,
            objective: 0.999,
            threshold: 0.0,
            good: 990,
            total: 1000,
            bad_fraction: 0.01,
            budget_remaining: -9.0,
            burn_fast: 10.0,
            burn_slow: 2.5,
            fast_window: 300,
            slow_window: 3600,
            breached: true,
        };
        let text = json::write_object(|w| {
            w.key("records").array(|w| log_record(w, &record));
            w.key("slos").array(|w| slo(w, &status));
        });
        assert_eq!(
            text,
            concat!(
                r#"{"records":[{"seq":7,"wall_us":1760000000123456,"virt_s":42,"level":"warn","#,
                r#""target":"wal","msg":"append \"failed\"","fields":{"seq":"9","at":"x\ny"},"#,
                r#""truncated":true}],"slos":[{"slo":"submit_availability","kind":"availability","#,
                r#""objective":0.999,"threshold":0,"good":990,"total":1000,"bad_fraction":0.01,"#,
                r#""budget_remaining":-9,"burn_fast":10,"burn_slow":2.5,"fast_window":300,"#,
                r#""slow_window":3600,"breached":true}]}"#,
            )
        );
    }
}
