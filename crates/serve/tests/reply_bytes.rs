//! Every reply body, byte for byte.
//!
//! Three fixed sessions replay over loopback and their raw response bodies
//! are compared with transcripts under `tests/fixtures/reply_bytes/`, which
//! were captured from the tree-building renderer the JSON writer replaced:
//!
//! * `tenants` — 61 tenants on a 16-node machine with a trace ring, loaded
//!   and then advanced: stats, cluster, queue, a pending, a running, a done
//!   and a cancelled job, explain, the trace tail, every ack, and a 400,
//!   404, 405, 409 and 429 body, then `/metrics`;
//! * `realtime` — a realtime-clock engine (the `clock` object branch);
//! * `durable` — a durable engine (the WAL rows of stats and `/metrics`).
//!
//! Wall-clock numbers are masked as `#`: `wall_ns` in trace events, the
//! realtime `now`, the recovery and segment-age figures, and in `/metrics`
//! the timing probes and the two wall-clock histograms.
//!
//! A diff in the transcripts is a change of the wire: a change that means
//! one edits them in its own diff.

use drom::SharingFactor;
use sd_policy::SdPolicy;
use sd_serve::client::Client;
use sd_serve::engine::{ClockMode, Engine};
use sd_serve::json::Json;
use sd_serve::proto::SubmitRequest;
use sd_serve::server::{self, ServerConfig};
use sd_serve::FsyncPolicy;
use slurm_sim::{IdealModel, SimState, SlurmConfig, TraceRing};
use std::sync::Arc;

/// A server over `engine` and the transcript of what it answered.
struct Session {
    client: Client,
    handle: std::thread::JoinHandle<()>,
    transcript: String,
    /// JSON keys whose numeric values are wall-clock.
    masked: &'static [&'static str],
}

impl Session {
    fn start(engine: Engine, trace: Option<Arc<TraceRing>>, masked: &'static [&'static str]) -> Session {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = ServerConfig { workers: 2, trace, ..Default::default() };
        let handle = std::thread::spawn(move || {
            server::run(engine, listener, cfg).expect("clean shutdown");
        });
        Session { client: Client::connect(addr).unwrap(), handle, transcript: String::new(), masked }
    }

    /// Sends one request and returns its status and body unrecorded.
    fn send(&mut self, method: &str, path: &str, body: Option<&Json>) -> (u16, String) {
        let (status, bytes) = self.client.request(method, path, body).expect("an answer");
        (status, String::from_utf8(bytes).expect("UTF-8 body"))
    }

    /// Sends one request and records its status and (masked) body.
    fn record(&mut self, method: &str, path: &str, body: Option<&Json>) {
        let (status, text) = self.send(method, path, body);
        let shown = if path == "/metrics" { mask_metrics(&text) } else { mask_json(&text, self.masked) };
        self.transcript += &format!(">>> {method} {path} -> {status}\n{shown}\n");
    }

    /// Shuts the server down (unrecorded) and compares the transcript.
    fn check(mut self, name: &str) {
        self.send("POST", "/v1/shutdown", None);
        self.handle.join().unwrap();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/reply_bytes")
            .join(format!("{name}.txt"));
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let sections = |t: &str| t.split(">>> ").map(str::to_string).collect::<Vec<_>>();
        let (got, want) = (sections(&self.transcript), sections(&want));
        for (g, w) in got.iter().zip(&want) {
            assert!(g == w, "{name}: reply differs\n--- fixture\n{w}\n--- now\n{g}");
        }
        assert_eq!(got.len(), want.len(), "{name}: a different number of replies");
    }
}

/// `text` with the numeric value after every `"key":` in `keys` masked.
fn mask_json(text: &str, keys: &[&str]) -> String {
    let mut out = text.to_string();
    for key in keys {
        let needle = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&needle) {
            let start = from + at + needle.len();
            let len = out[start..]
                .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                .unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "#");
            from = start;
        }
    }
    out
}

/// Series whose value is wall-clock time (as in `report_views.rs`), plus
/// the two wall-clock histograms.
fn wall_clock(series: &str) -> bool {
    series.starts_with("sd_serve_timing_")
        || series == "sd_serve_recovery_duration_seconds"
        || series == "sd_serve_wal_segment_age_seconds"
        || series.starts_with("sd_serve_http_request_duration_seconds")
        || series.starts_with("sd_serve_pass_duration_seconds")
}

/// An exposition with every wall-clock sample's value masked.
fn mask_metrics(text: &str) -> String {
    let mut out = String::new();
    for line in text.split_inclusive('\n') {
        match line.rsplit_once(' ') {
            Some((series, _)) if !line.starts_with('#') && wall_clock(series) => {
                out += series;
                out += " #\n";
            }
            _ => out += line,
        }
    }
    out
}

fn job(i: u64, tenant: u64, at: u64) -> SubmitRequest {
    let run_time = 50 + (i * 37) % 400;
    SubmitRequest {
        procs: 8 * (1 + (i * 7) % 6),
        req_time: run_time * 2,
        run_time,
        submit: Some(at),
        malleable: Some(i.is_multiple_of(3)),
        trace_id: None,
        tenant: Some(tenant),
        project: None,
    }
}

fn machine(nodes: u32) -> SimState {
    let mut spec = cluster::ClusterSpec::ricc();
    spec.nodes = nodes;
    SimState::new_online(spec, SlurmConfig::default(), Box::new(IdealModel), SharingFactor::HALF)
}

/// The state of job `id` as its body reports it.
fn state_of(s: &mut Session, id: u64) -> String {
    let (_, body) = s.send("GET", &format!("/v1/jobs/{id}"), None);
    let v = Json::parse(&body).unwrap();
    v.get("state").and_then(Json::as_str).unwrap_or("").to_string()
}

#[test]
fn a_tenanted_session_answers_the_pinned_bytes() {
    const JOBS: u64 = 240;
    let ring = Arc::new(TraceRing::new(8192));
    let engine = Engine::new(machine(16), Box::new(SdPolicy::default()), ClockMode::Virtual)
        .with_tenant_rates(&[(61, 0.001)])
        .with_trace(ring.clone());
    let mut s = Session::start(engine, Some(ring), &["wall_ns"]);

    s.record("GET", "/healthz", None);
    s.record("POST", "/v1/jobs", Some(&job(0, 61, 0).encode()));
    s.record("POST", "/v1/jobs", Some(&job(1, 61, 0).encode())); // 429
    for i in 1..JOBS {
        let (status, _) = s.send("POST", "/v1/jobs", Some(&job(i, 1 + i % 60, i * 5).encode()));
        assert_eq!(status, 201);
    }
    s.record("POST", "/v1/jobs", Some(&job(JOBS, 7, JOBS * 5).encode()));
    s.record("POST", "/v1/clock/advance", Some(&Json::obj().set("to", 600u64)));

    let states: Vec<String> = (1..=JOBS).map(|id| state_of(&mut s, id)).collect();
    let nth = |state: &str, n: usize| {
        let hit = states.iter().enumerate().filter(|(_, st)| *st == state).nth(n);
        hit.map(|(i, _)| i as u64 + 1).unwrap_or_else(|| panic!("no job #{n} in state {state}"))
    };
    let (pending, running, done) = (nth("pending", 0), nth("running", 0), nth("done", 0));
    let (cancel_pending, cancel_running) = (nth("pending", 1), nth("running", 1));

    s.record("GET", "/v1/stats", None);
    s.record("GET", "/v1/cluster", None);
    s.record("GET", "/v1/queue", None);
    for id in [pending, running, done] {
        s.record("GET", &format!("/v1/jobs/{id}"), None);
    }
    s.record("POST", &format!("/v1/jobs/{cancel_pending}/cancel"), None);
    s.record("DELETE", &format!("/v1/jobs/{cancel_running}"), None);
    s.record("GET", &format!("/v1/jobs/{cancel_pending}"), None);
    s.record("GET", &format!("/v1/jobs/{cancel_running}"), None);
    s.record("GET", &format!("/v1/explain/{running}"), None);
    s.record("GET", &format!("/v1/explain/{done}"), None);
    s.record("GET", "/v1/trace?since=0&limit=40", None);
    s.record("GET", "/v1/trace?since=100000&limit=5", None);

    s.record("GET", "/v1/jobs/abc", None); // 400
    s.record("POST", "/v1/clock/advance", Some(&Json::obj().set("to", -1.0))); // 400
    s.record("GET", "/nope", None); // 404
    s.record("GET", "/v1/jobs/99999", None); // 404
    s.record("PUT", "/v1/drain", None); // 405
    s.record("POST", &format!("/v1/jobs/{done}/cancel"), None); // 409
    s.record("POST", "/v1/jobs", Some(&job(5, 3, 10).encode())); // 409
    s.record("POST", "/v1/clock/advance", Some(&Json::obj().set("to", 100u64)));
    s.record("GET", "/v1/slo", None); // 404 without SLOs

    s.record("POST", "/v1/clock/advance", Some(&Json::obj().set("to", 1500u64)));
    s.record("GET", "/v1/stats", None);
    s.record("POST", "/v1/drain", None);
    s.record("GET", "/v1/stats", None);
    s.record("GET", "/v1/queue", None);
    s.record("GET", "/metrics", None);
    s.check("tenants");
}

#[test]
fn a_realtime_engine_answers_the_pinned_bytes() {
    let engine = Engine::new(
        machine(8),
        Box::new(SdPolicy::default()),
        ClockMode::Realtime { compression: 2.5 },
    );
    let mut s = Session::start(engine, None, &["now"]);
    s.record("GET", "/v1/stats", None);
    s.record("GET", "/v1/cluster", None);
    s.record("POST", "/v1/clock/advance", Some(&Json::obj().set("to", 10u64))); // 409
    s.record("GET", "/v1/trace", None); // 404 without a ring
    s.check("realtime");
}

#[test]
fn a_durable_engine_answers_the_pinned_bytes() {
    let dir = std::env::temp_dir().join(format!("sd-reply-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (engine, _status) = Engine::recover(
        &dir,
        FsyncPolicy::Never,
        8,
        cluster::ClusterSpec::ricc(),
        SlurmConfig::default(),
        Box::new(IdealModel),
        SharingFactor::HALF,
        Box::new(SdPolicy::default()),
    )
    .expect("fresh durable engine");
    let mut s = Session::start(engine, None, &["recovery_seconds", "wal_segment_age_seconds"]);
    for i in 0..12u64 {
        let (status, _) = s.send("POST", "/v1/jobs", Some(&job(i, 1 + i % 2, i * 10).encode()));
        assert_eq!(status, 201);
    }
    s.record("POST", "/v1/drain", None);
    s.record("GET", "/v1/stats", None);
    s.record("GET", "/v1/cluster", None);
    s.record("GET", "/metrics", None);
    s.check("durable");
    let _ = std::fs::remove_dir_all(&dir);
}
