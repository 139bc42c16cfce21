//! The served workloads: `serve_live`, `serve_wal`, `serve_reads`.
//! One generator thread, one closed-loop client: the next
//! request leaves only after the previous reply arrived, like `sbatch`
//! callers that each wait for their answer. The server runs in-process
//! with two HTTP workers (the box has two cores).

use crate::calib::Kernel;
use crate::inputs::{self, Read, Scenario, Step, SESSION};
use crate::layers;
use crate::report::{peak_rss_mb, Outcome, RunCtx};
use crate::span::{SpanId, Spans};
use crate::{offline, spec, stats};
use drom::SharingFactor;
use sd_policy::SdPolicy;
use sd_serve::engine::{ClockMode, Engine, WalStatus};
use sd_serve::server::{self, ServerConfig};
use sd_serve::{Client, FsyncPolicy, Json, ServeHistograms};
use slurm_sim::{run_trace, IdealModel, Scheduler, SimResult, SimState, TraceRing};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// `serve_wal`'s durability settings: fsync at checkpoints, a checkpoint
/// every 256 records.
pub const WAL_FSYNC: FsyncPolicy = FsyncPolicy::Checkpoint;
pub const CHECKPOINT_EVERY: u64 = 256;
const MIN_SESSIONS: usize = 3;
const MIN_READS: usize = 20_000;
/// Recoveries timed by the traced `serve_wal` run.
const RECOVERIES: usize = 20;

/// Scratch space inside the checkout; removed when the run ends.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(workload: &str) -> Scratch {
        let dir = PathBuf::from(format!(
            "{}/tmp-{workload}-{}",
            crate::OUT_DIR,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/out");
        Scratch(dir)
    }

    /// A fresh, empty subdirectory path (not yet created).
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let d = self.0.join(tag);
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sd_scheduler() -> Box<dyn Scheduler + Send> {
    Box::new(SdPolicy::default())
}

pub fn live_engine(sc: &Scenario) -> Engine {
    let state = SimState::new_online(
        sc.cluster(),
        sc.slurm_config(),
        Box::new(IdealModel),
        SharingFactor::HALF,
    );
    Engine::new(state, sd_scheduler(), ClockMode::Virtual)
}

pub fn durable_engine(sc: &Scenario, dir: &Path) -> (Engine, WalStatus) {
    Engine::recover(
        dir,
        WAL_FSYNC,
        CHECKPOINT_EVERY,
        sc.cluster(),
        sc.slurm_config(),
        Box::new(IdealModel),
        SharingFactor::HALF,
        sd_scheduler(),
    )
    .expect("open or recover the WAL directory")
}

pub fn offline_reference(sc: &Scenario, trace: &swf::Trace) -> SimResult {
    run_trace(
        sc.cluster(),
        sc.slurm_config(),
        trace,
        Box::new(IdealModel),
        SharingFactor::HALF,
        SdPolicy::default(),
    )
}

/// A running in-process server and the one client connected to it.
pub struct Booted {
    pub client: Client,
    handle: std::thread::JoinHandle<std::io::Result<SimResult>>,
}

pub fn boot(engine: Engine, cfg: ServerConfig) -> Booted {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server::run(engine, listener, cfg));
    Booted {
        client: Client::connect(addr).expect("connect to the in-process server"),
        handle,
    }
}

fn two_workers() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..Default::default()
    }
}

impl Booted {
    /// Stops the server and waits for it; the final result is the one
    /// `server::run` returns (the wire copy of `/v1/shutdown` stops fitting
    /// the 1 MiB response cap above ≈5 700 jobs, see README).
    pub fn shutdown(mut self) -> SimResult {
        let reply = self.client.request("POST", "/v1/shutdown", None);
        let result = self
            .handle
            .join()
            .expect("server thread")
            .expect("server returned a result");
        assert!(
            matches!(reply, Ok((200, _))),
            "shutdown refused: {:?}",
            reply.map(|r| r.0)
        );
        result
    }
}

/// What one scripted session measured at the client.
#[derive(Default)]
pub struct Session {
    pub submit_us: Vec<f64>,
    pub advance_us: Vec<f64>,
    pub drain_s: f64,
    /// First request to drain ack, the `before_drain` hook excluded.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// One request with its three client-side phases.
struct Exchange {
    start: Instant,
    encoded: Instant,
    answered: Instant,
    decoded: Instant,
    ok: bool,
}

impl Exchange {
    fn micros(&self) -> f64 {
        (self.decoded - self.start).as_secs_f64() * 1e6
    }
}

/// encode → round trip → decode, as `Client::submit`/`advance`/`drain` do.
fn exchange(
    client: &mut Client,
    path: &str,
    build: impl FnOnce() -> Option<Json>,
    expect: &str,
) -> Exchange {
    let start = Instant::now();
    let body = build();
    let encoded = Instant::now();
    let reply = client.request("POST", path, body.as_ref());
    let answered = Instant::now();
    let ok = match reply {
        Ok((status, bytes)) if (200..300).contains(&status) => std::str::from_utf8(&bytes)
            .ok()
            .and_then(|t| Json::parse(t).ok())
            .is_some_and(|v| v.get(expect).and_then(Json::as_u64).is_some()),
        _ => false,
    };
    Exchange {
        start,
        encoded,
        answered,
        decoded: Instant::now(),
        ok,
    }
}

fn record(spans: &mut Spans, parent: SpanId, name: &'static str, x: &Exchange) {
    let (start, encoded, answered, decoded) = (
        spans.at(x.start),
        spans.at(x.encoded),
        spans.at(x.answered),
        spans.at(x.decoded),
    );
    let req = spans.push(name, Some(parent), start, decoded);
    spans.push("encode", Some(req), start, encoded);
    spans.push("round_trip", Some(req), encoded, answered);
    spans.push("decode", Some(req), answered, decoded);
}

/// Plays the script over one connection. `spans`, when given, receives
/// `session → request(kind) → {encode, round_trip, decode}`.
/// `before_drain` runs after the last submit with the clock stopped.
pub fn play(
    client: &mut Client,
    script: &[Step],
    mut spans: Option<&mut Spans>,
    before_drain: &mut dyn FnMut(),
) -> Session {
    let mut s = Session::default();
    let root = spans.as_mut().map(|sp| sp.begin("session", None));
    let started = Instant::now();
    let mut paused = 0.0;
    for step in script {
        let (name, x) = match step {
            Step::Submit(req) => (
                "request_submit",
                exchange(client, "/v1/jobs", || Some(req.encode()), "id"),
            ),
            Step::Advance(to) => (
                "request_advance",
                exchange(
                    client,
                    "/v1/clock/advance",
                    || Some(Json::obj().set("to", *to)),
                    "now",
                ),
            ),
            Step::Drain => {
                let t0 = Instant::now();
                before_drain();
                paused += t0.elapsed().as_secs_f64();
                (
                    "request_drain",
                    exchange(client, "/v1/drain", || None, "now"),
                )
            }
        };
        s.attempted += 1;
        s.failed += u64::from(!x.ok);
        match step {
            Step::Submit(_) => s.submit_us.push(x.micros()),
            Step::Advance(_) => s.advance_us.push(x.micros()),
            Step::Drain => s.drain_s = x.micros() / 1e6,
        }
        if let (Some(sp), Some(root)) = (spans.as_mut(), root) {
            record(sp, root, name, &x);
        }
    }
    s.wall_s = started.elapsed().as_secs_f64() - paused;
    if let (Some(sp), Some(root)) = (spans.as_mut(), root) {
        sp.end(root);
    }
    s
}

/// Copies a WAL directory: taken between acknowledged requests it is the
/// on-disk state a `kill -9` at that instant would leave.
pub fn crash_image(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create the crash-image directory");
    for entry in std::fs::read_dir(src).expect("read the WAL directory") {
        let e = entry.expect("directory entry");
        std::fs::copy(e.path(), dst.join(e.file_name())).expect("copy a WAL file");
    }
}

/// Everything a served workload needs before its first request.
pub struct Prepared {
    pub trace: swf::Trace,
    pub script: Vec<Step>,
    pub reference: SimResult,
}

fn prepare(ctx: &RunCtx) -> Prepared {
    let trace = SESSION.trace(ctx.seed);
    let script = inputs::session_script(&trace);
    let reference = offline_reference(&SESSION, &trace);
    Prepared {
        trace,
        script,
        reference,
    }
}

/// How a session's engine is built.
#[derive(Clone, Copy, PartialEq)]
pub enum Flavour {
    Live,
    Wal,
    /// Live, with the decision-trace ring, histograms and `timing` armed.
    LiveObserved,
}

fn boot_flavour(flavour: Flavour, scratch: &Scratch) -> (Booted, Option<PathBuf>) {
    match flavour {
        Flavour::Live => (boot(live_engine(&SESSION), two_workers()), None),
        Flavour::Wal => {
            let dir = scratch.fresh("wal");
            let (engine, status) = durable_engine(&SESSION, &dir);
            assert!(status.recovered.is_none(), "fresh WAL directory");
            (boot(engine, two_workers()), Some(dir))
        }
        Flavour::LiveObserved => {
            let ring = Arc::new(TraceRing::new(1 << 16));
            let hists = Arc::new(ServeHistograms::default());
            let engine = live_engine(&SESSION)
                .with_trace(ring.clone())
                .with_histograms(hists.clone());
            let cfg = ServerConfig {
                workers: 2,
                trace: Some(ring),
                hists,
                ..Default::default()
            };
            (boot(engine, cfg), None)
        }
    }
}

/// Boots, plays the whole script, shuts down; returns the client's view,
/// the calibration factor of the session and the server's final result.
/// With `image_to`, the WAL directory is copied there after the last
/// submit: the crash image recovery is later checked against.
fn one_session(
    flavour: Flavour,
    p: &Prepared,
    scratch: &Scratch,
    out: &mut Outcome,
    spans: Option<&mut Spans>,
    image_to: Option<&Path>,
) -> (Session, f64, SimResult) {
    let (mut booted, dir) = boot_flavour(flavour, scratch);
    if flavour == Flavour::LiveObserved {
        slurm_sim::timing::arm();
    }
    let before = out.calibrate();
    let session = play(&mut booted.client, &p.script, spans, &mut || {
        if let (Some(dir), Some(image)) = (&dir, image_to) {
            crash_image(dir, image);
        }
    });
    let after = out.calibrate();
    if flavour == Flavour::LiveObserved {
        slurm_sim::timing::disarm();
    }
    (session, out.kernel.factor(before, after), booted.shutdown())
}

/// Per-session figures, calibrated.
struct SessionFigures {
    jobs_per_s: f64,
    p50_us: f64,
    tail_us: f64,
}

fn figures(s: &Session, f: f64) -> SessionFigures {
    let scaled: Vec<f64> = s.submit_us.iter().map(|us| us * f).collect();
    let (p50_us, tail_us) = stats::p50_and_p99(&scaled);
    SessionFigures {
        jobs_per_s: s.submit_us.len() as f64 / (s.wall_s * f),
        p50_us,
        tail_us,
    }
}

fn tally(out: &mut Outcome, s: &Session, result: &SimResult, reference: &SimResult, what: &str) {
    out.attempted += s.attempted;
    out.failed += s.failed;
    out.check(result == reference, || {
        format!("{what}: the served session's final SimResult differs from the offline replay")
    });
}

/// `serve_live` and `serve_wal`.
pub fn run_sessions(w: &spec::Workload, flavour: Flavour, ctx: &RunCtx) -> Outcome {
    let mut out = Outcome::new(Kernel::Handoff);
    let scratch = Scratch::new(w.name);
    // Set-up as a caller pays it: trace, script, offline reference, one
    // server boot (plus WAL directory) and teardown.
    let (p, setup_s) = out.timed_setup(|| {
        let p = prepare(ctx);
        boot_flavour(flavour, &scratch).0.shutdown();
        p
    });
    out.metrics.insert("setup_s", setup_s);
    offline::check_result("serve_session", &p.reference, ctx.seed, &mut out);

    // Warm-up: page cache, allocator, loopback path. A WAL session also
    // leaves its crash image behind.
    let image = (flavour == Flavour::Wal).then(|| scratch.fresh("image"));
    let (s, _, result) = one_session(flavour, &p, &scratch, &mut out, None, image.as_deref());
    tally(&mut out, &s, &result, &p.reference, "warm-up");

    if ctx.traced {
        traced_sessions(flavour, ctx, &p, &scratch, image.as_deref(), &mut out);
        return out;
    }
    let started = Instant::now();
    let mut figs = Vec::new();
    let mut raw = Vec::new();
    while figs.len() < MIN_SESSIONS || started.elapsed().as_secs_f64() < ctx.seconds {
        let (s, f, result) = one_session(flavour, &p, &scratch, &mut out, None, None);
        tally(&mut out, &s, &result, &p.reference, "measured session");
        out.check(
            stats::supports_tail(s.submit_us.len(), stats::TAIL_PCT),
            || "too few submits for p99".into(),
        );
        raw.push(s.wall_s);
        figs.push(figures(&s, f));
    }
    let med =
        |get: fn(&SessionFigures) -> f64| stats::median(&figs.iter().map(get).collect::<Vec<_>>());
    out.metrics.insert("ops_per_s", med(|f| f.jobs_per_s));
    out.metrics.insert("op_p50_us", med(|f| f.p50_us));
    out.metrics.insert("op_p99_us", med(|f| f.tail_us));
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
    if let Some(image) = &image {
        recover_image(image, &p, &scratch, 1, None, &mut out);
    }
    out.notes.push(format!(
        "{} measured sessions of {} jobs after 1 warm-up, raw wall_s {:?}",
        figs.len(),
        p.trace.jobs.len(),
        raw
    ));
    out
}

/// Recovers the crash image `times` times on fresh copies. The first
/// recovered engine is drained and must end where the offline replay ends;
/// the traced run reports the median recovery time.
fn recover_image(
    image: &Path,
    p: &Prepared,
    scratch: &Scratch,
    times: usize,
    mut spans: Option<&mut Spans>,
    out: &mut Outcome,
) {
    let mut recover_ms = Vec::new();
    for i in 0..times {
        let dir = scratch.fresh("recover");
        crash_image(image, &dir);
        let span = spans.as_mut().map(|sp| sp.begin("recover", None));
        let t0 = Instant::now();
        let (engine, status) = durable_engine(&SESSION, &dir);
        recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let (Some(sp), Some(id)) = (spans.as_mut(), span) {
            sp.end(id);
        }
        out.attempted += 1;
        out.failed += u64::from(status.recovered != Some("clean"));
        out.check(status.records_replayed > 0, || {
            "the crash image held no WAL suffix to replay".into()
        });
        out.metrics.insert(
            "serve.engine.recover_replayed",
            status.records_replayed as f64,
        );
        if i == 0 {
            let result = drain_recovered(engine);
            out.check(result == p.reference, || {
                "the recovered-then-drained result differs from the offline replay".into()
            });
        }
    }
    out.metrics.insert(
        "serve.engine.recover_ms",
        stats::median(&recover_ms) * out.run_factor(),
    );
}

fn traced_sessions(
    flavour: Flavour,
    ctx: &RunCtx,
    p: &Prepared,
    scratch: &Scratch,
    image: Option<&Path>,
    out: &mut Outcome,
) {
    let mut spans = Spans::new();
    let started = Instant::now();
    let (mut plain, mut traced, mut observed) = (vec![], vec![], vec![]);
    let (mut adv50, mut adv99, mut drain, mut p50) = (vec![], vec![], vec![], vec![]);
    while traced.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
        let (s, f, result) = one_session(flavour, p, scratch, out, None, None);
        tally(out, &s, &result, &p.reference, "untraced session");
        plain.push(s.wall_s * f);
        // Spans of the first traced session only: 16 K spans say it all.
        let keep = traced.is_empty().then_some(&mut spans);
        let mut scratch_spans = Spans::new();
        let (s, f, result) = one_session(
            flavour,
            p,
            scratch,
            out,
            Some(keep.unwrap_or(&mut scratch_spans)),
            None,
        );
        tally(out, &s, &result, &p.reference, "traced session");
        traced.push(s.wall_s * f);
        let adv: Vec<f64> = s.advance_us.iter().map(|us| us * f).collect();
        let (a50, a99) = stats::p50_and_p99(&adv);
        adv50.push(a50);
        adv99.push(a99);
        drain.push(s.drain_s * f);
        p50.push(figures(&s, f).p50_us);
        if flavour == Flavour::Live {
            let (s, f, result) = one_session(Flavour::LiveObserved, p, scratch, out, None, None);
            tally(out, &s, &result, &p.reference, "observed session");
            observed.push(s.wall_s * f);
        }
    }
    let overhead = |with: &[f64]| (stats::median(with) / stats::median(&plain) - 1.0) * 100.0;
    out.metrics
        .insert("tracing.overhead_pct", overhead(&traced));
    if !observed.is_empty() {
        out.metrics
            .insert("obs.armed_overhead_pct", overhead(&observed));
    }
    out.metrics
        .insert("serve.client.advance_p50_us", stats::median(&adv50));
    out.metrics
        .insert("serve.client.advance_p99_us", stats::median(&adv99));
    out.metrics
        .insert("serve.client.drain_s", stats::median(&drain));
    out.notes.push(format!(
        "calibrated session wall_s: plain {plain:?} traced {traced:?} observed {observed:?}"
    ));

    let f = out.run_factor();
    let durable = (flavour == Flavour::Wal).then(|| scratch.fresh("replay"));
    layers::workload_layers(
        &SESSION,
        ctx.seed,
        &p.trace,
        &p.reference,
        f,
        &mut spans,
        out,
    );
    layers::wire_layers(&p.script, &p.reference, f, &mut spans, out);
    layers::engine_layers(
        &p.script,
        &p.reference,
        durable.as_deref(),
        f,
        &mut spans,
        out,
    );
    let submit_p50 = stats::median(&p50);
    let engine_submit = out
        .metrics
        .get("serve.engine.submit_us")
        .copied()
        .unwrap_or(0.0);
    out.metrics
        .insert("serve.server.wire_overhead_us", submit_p50 - engine_submit);
    if let Some(crash) = image {
        let state_image = layers::persist_layers(&p.trace, f, &mut spans, out);
        layers::durable_layers(&p.script, &state_image, scratch, f, &mut spans, out);
        recover_image(crash, p, scratch, RECOVERIES, Some(&mut spans), out);
    }
    out.spans = Some(spans);
}

fn read_path(r: Read) -> String {
    match r {
        Read::Job(id) => format!("/v1/jobs/{id}"),
        Read::Queue => "/v1/queue".into(),
        Read::Stats => "/v1/stats".into(),
        Read::Metrics => "/metrics".into(),
    }
}

/// Does the body answer the question that was asked?
fn read_ok(r: Read, status: u16, body: &[u8], jobs: u64) -> bool {
    let text = std::str::from_utf8(body).unwrap_or("");
    let json_u64 = |key: &str| {
        Json::parse(text)
            .ok()
            .and_then(|v| v.get(key).and_then(Json::as_u64))
    };
    status == 200
        && match r {
            Read::Job(id) => json_u64("id") == Some(id),
            Read::Queue => json_u64("pending").is_some(),
            Read::Stats => json_u64("jobs_total") == Some(jobs),
            Read::Metrics => text.contains(&format!("sd_serve_jobs_total {jobs}\n")),
        }
}

/// Loads every job and advances to the median submit instant: a non-empty
/// queue and running jobs for the reads to look at.
fn load_for_reads(p: &Prepared) -> Booted {
    let mut booted = boot(live_engine(&SESSION), two_workers());
    for j in &p.trace.jobs {
        booted
            .client
            .submit(&inputs::wire_request(j))
            .expect("load submit accepted");
    }
    let median_submit = p.trace.jobs[p.trace.jobs.len() / 2].submit.max(0) as u64;
    booted
        .client
        .advance(median_submit)
        .expect("advance to the median submit instant");
    booted
}

/// `serve_reads`.
pub fn run_reads(ctx: &RunCtx) -> Outcome {
    let mut out = Outcome::new(Kernel::Handoff);
    let mut slot: Option<Booted> = None;
    let (p, setup_s) = out.timed_setup(|| {
        if let Some(prev) = slot.take() {
            prev.shutdown();
        }
        let p = prepare(ctx);
        slot = Some(load_for_reads(&p));
        p
    });
    out.metrics.insert("setup_s", setup_s);
    offline::check_result("serve_session", &p.reference, ctx.seed, &mut out);
    let mut booted = slot.expect("the last set-up left a loaded server");
    let jobs = p.trace.jobs.len() as u64;
    let stats_now = booted.client.stats().expect("stats");
    let pending = stats_now.get("pending").and_then(Json::as_u64).unwrap_or(0);
    let running = stats_now.get("running").and_then(Json::as_u64).unwrap_or(0);
    out.check(pending > 0 && running > 0, || {
        format!("reads need a busy engine: pending {pending} running {running}")
    });

    let order = inputs::read_order(ctx.seed, MIN_READS, jobs);
    let mut spans = ctx.traced.then(Spans::new);
    let root = spans.as_mut().map(|sp| sp.begin("session", None));
    let mut by_kind: [Vec<f64>; 4] = Default::default();
    let (mut rates, mut p50s, mut tails) = (vec![], vec![], vec![]);
    let started = Instant::now();
    // The fixed order is replayed whole, as often as the seconds allow.
    while rates.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
        let mut us = Vec::with_capacity(order.len());
        let before = out.calibrate();
        let t_batch = Instant::now();
        for &r in &order {
            let t0 = Instant::now();
            let reply = booted.client.request("GET", &read_path(r), None);
            let t1 = Instant::now();
            let ok = matches!(&reply, Ok((status, body)) if read_ok(r, *status, body, jobs));
            out.attempted += 1;
            out.failed += u64::from(!ok);
            let micros = (t1 - t0).as_secs_f64() * 1e6;
            us.push(micros);
            let kind = match r {
                Read::Job(_) => 0,
                Read::Queue => 1,
                Read::Stats => 2,
                Read::Metrics => 3,
            };
            by_kind[kind].push(micros);
            // Spans for the first thousand reads of a traced run.
            if let (Some(sp), Some(root)) = (spans.as_mut(), root) {
                if us.len() <= 1000 && rates.is_empty() {
                    let name = ["read_job", "read_queue", "read_stats", "read_metrics"][kind];
                    let (start, end) = (sp.at(t0), sp.at(t1));
                    sp.push(name, Some(root), start, end);
                }
            }
        }
        let batch_s = t_batch.elapsed().as_secs_f64();
        let after = out.calibrate();
        let f = out.kernel.factor(before, after);
        rates.push(order.len() as f64 / (batch_s * f));
        let scaled: Vec<f64> = us.iter().map(|u| u * f).collect();
        let (p50, tail) = stats::p50_and_p99(&scaled);
        p50s.push(p50);
        tails.push(tail);
    }
    if let (Some(sp), Some(root)) = (spans.as_mut(), root) {
        sp.end(root);
    }
    out.notes.push(format!(
        "{} batches of {} reads (pending {pending}, running {running})",
        rates.len(),
        order.len()
    ));

    // Reads must not have disturbed the run: finish it and compare.
    booted.client.drain().expect("drain after the reads");
    let result = booted.shutdown();
    out.check(result == p.reference, || {
        "serve_reads: the drained result differs from the offline replay".into()
    });

    if let Some(mut spans) = spans {
        let f = out.run_factor();
        let names = [
            "serve.client.read_job_us",
            "serve.client.read_queue_us",
            "serve.client.read_stats_us",
            "serve.client.read_metrics_us",
        ];
        for (name, us) in names.into_iter().zip(&by_kind) {
            out.metrics.insert(name, stats::median(us) * f);
        }
        layers::workload_layers(
            &SESSION,
            ctx.seed,
            &p.trace,
            &p.reference,
            f,
            &mut spans,
            &mut out,
        );
        layers::wire_layers(&p.script, &p.reference, f, &mut spans, &mut out);
        layers::engine_layers(&p.script, &p.reference, None, f, &mut spans, &mut out);
        out.spans = Some(spans);
    } else {
        out.metrics.insert("ops_per_s", stats::median(&rates));
        out.metrics.insert("op_p50_us", stats::median(&p50s));
        out.metrics.insert("op_p99_us", stats::median(&tails));
        out.metrics.insert("peak_rss_mb", peak_rss_mb());
    }
    out
}

/// Drives a recovered engine over its command channel to the end of the
/// run and returns the result.
pub fn drain_recovered(engine: Engine) -> SimResult {
    use sd_serve::Command;
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || engine.run(rx));
    let (rtx, rrx) = std::sync::mpsc::channel();
    tx.send(Command::Drain { reply: rtx })
        .expect("engine accepts drain");
    rrx.recv()
        .expect("drain reply")
        .expect("virtual clock drains");
    let (rtx, rrx) = std::sync::mpsc::channel();
    tx.send(Command::Shutdown { reply: rtx })
        .expect("engine accepts shutdown");
    let result = rrx.recv().expect("shutdown reply");
    handle.join().expect("engine thread");
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::PaperWorkload;

    fn tiny() -> Prepared {
        let sc = Scenario {
            workload: PaperWorkload::W3Ricc,
            scale: 0.02,
        };
        let trace = sc.trace(7);
        Prepared {
            script: inputs::session_script(&trace),
            reference: offline_reference(&sc, &trace),
            trace,
        }
    }

    fn tiny_sc() -> Scenario {
        Scenario {
            workload: PaperWorkload::W3Ricc,
            scale: 0.02,
        }
    }

    #[test]
    fn scripted_session_is_served_equal_to_offline() {
        let p = tiny();
        let mut booted = boot(live_engine(&tiny_sc()), two_workers());
        let mut spans = Spans::new();
        let s = play(&mut booted.client, &p.script, Some(&mut spans), &mut || {});
        let result = booted.shutdown();
        assert_eq!(s.failed, 0);
        assert_eq!(s.submit_us.len(), p.trace.jobs.len());
        assert_eq!(s.attempted as usize, p.script.len());
        assert_eq!(result, p.reference, "served ≡ offline");
        // session → request → {encode, round_trip, decode}
        let all = spans.all();
        assert_eq!(all.iter().filter(|s| s.name == "session").count(), 1);
        assert_eq!(
            all.iter().filter(|s| s.name == "round_trip").count(),
            p.script.len()
        );
        let req = all.iter().find(|s| s.name == "request_submit").unwrap();
        assert_eq!(req.parent, Some(0));
        let kids: Vec<_> = all
            .iter()
            .filter(|s| s.parent == Some(req.id))
            .map(|s| s.name)
            .collect();
        assert_eq!(kids, ["encode", "round_trip", "decode"]);
    }

    #[test]
    fn crash_image_recovery_equals_offline() {
        let p = tiny();
        let sc = tiny_sc();
        let scratch = Scratch::new(&format!("selftest-{:?}", std::thread::current().id()));
        let dir = scratch.fresh("wal");
        let image = scratch.fresh("image");
        let (engine, status) = durable_engine(&sc, &dir);
        assert!(status.recovered.is_none());
        let mut booted = boot(engine, two_workers());
        let s = play(&mut booted.client, &p.script, None, &mut || {
            crash_image(&dir, &image)
        });
        assert_eq!(s.failed, 0);
        assert_eq!(
            booted.shutdown(),
            p.reference,
            "the WAL session itself ≡ offline"
        );
        let (engine, status) = durable_engine(&sc, &image);
        assert_eq!(status.recovered, Some("clean"));
        assert_eq!(
            drain_recovered(engine),
            p.reference,
            "recovered-then-drained ≡ offline"
        );
    }
}
