//! End-to-end service behaviour over loopback: submit/query/cancel flows,
//! Prometheus counters, concurrent clients, and the loadgen harness.

use drom::SharingFactor;
use sd_policy::SdPolicy;
use sd_serve::client::Client;
use sd_serve::engine::{ClockMode, Engine};
use sd_serve::json::Json;
use sd_serve::loadgen::{self, LoadgenOptions};
use sd_serve::proto::SubmitRequest;
use sd_serve::server::{self, ServerConfig};
use slurm_sim::{IdealModel, SimResult, SimState, SlurmConfig, StaticBackfill};
use std::net::SocketAddr;

fn start(nodes: u32, sd: bool) -> (SocketAddr, std::thread::JoinHandle<Option<SimResult>>) {
    let mut spec = cluster::ClusterSpec::ricc();
    spec.nodes = nodes;
    let state = SimState::new_online(
        spec,
        SlurmConfig::default(),
        Box::new(IdealModel),
        SharingFactor::HALF,
    );
    let scheduler: Box<dyn slurm_sim::Scheduler + Send> = if sd {
        Box::new(SdPolicy::default())
    } else {
        Box::new(StaticBackfill)
    };
    let engine = Engine::new(state, scheduler, ClockMode::Virtual);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let h = std::thread::spawn(move || {
        server::run(engine, listener, ServerConfig { workers: 4, ..Default::default() }).ok()
    });
    (addr, h)
}

fn submit(client: &mut Client, procs: u64, run: u64, at: u64) -> u64 {
    client
        .submit(&SubmitRequest {
            procs,
            req_time: run * 2,
            run_time: run,
            submit: Some(at),
            malleable: None,
            trace_id: None,
            tenant: None,
            project: None,
        })
        .expect("submit accepted")
        .0
}

#[test]
fn submit_query_advance_result_lifecycle() {
    let (addr, h) = start(8, true);
    let mut client = Client::connect(addr).unwrap();
    client.health().unwrap();

    let id1 = submit(&mut client, 16, 100, 0);
    let id2 = submit(&mut client, 16, 100, 50);
    assert_eq!((id1, id2), (1, 2));

    // Nothing simulated yet: both pending, clock at 0.
    let job = client.job(id1).unwrap();
    assert_eq!(job.get("state").and_then(Json::as_str), Some("pending"));

    // Advance past the first submit: job 1 starts.
    assert_eq!(client.advance(10).unwrap(), 10);
    let job = client.job(id1).unwrap();
    assert_eq!(job.get("state").and_then(Json::as_str), Some("running"));
    assert_eq!(job.get("cores").and_then(Json::as_u64), Some(16));

    // Drain: everything completes; the result is consistent.
    client.drain().unwrap();
    let res = client.result().unwrap();
    assert_eq!(res.outcomes.len(), 2);
    assert_eq!(res.leftover_pending, 0);
    assert_eq!(res.scheduler, "sd-policy");

    let final_res = client.shutdown().unwrap();
    assert_eq!(final_res, res, "drained snapshot equals the final result");
    let server_res = h.join().unwrap().expect("server returned a result");
    assert_eq!(server_res, final_res, "client decode matches server state");
}

/// Responses are not bound by the 1 MiB *request* cap: `/v1/result` and
/// `/v1/shutdown` carry ≈180 B per job and outgrow it near 5 700 jobs.
#[test]
fn result_and_shutdown_carry_ten_thousand_jobs() {
    const JOBS: u64 = 10_000;
    let (addr, h) = start(64, false);
    let mut client = Client::connect(addr).unwrap();
    for i in 0..JOBS {
        submit(&mut client, 8, 10, i);
    }
    client.drain().unwrap();
    let (status, body) = client.request("GET", "/v1/result", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        body.len() > sd_serve::http::MAX_BODY_BYTES,
        "{} B would fit the request cap",
        body.len()
    );
    let res = client.result().unwrap();
    assert_eq!(res.outcomes.len() as u64, JOBS);
    let last = client.shutdown().unwrap();
    assert_eq!(last.outcomes, res.outcomes);
    assert_eq!(h.join().unwrap().unwrap().outcomes.len() as u64, JOBS);
}

/// The wire path over a real socket: a reply is one segment, so neither
/// requests that arrive together nor a reader that dribbles may confuse it.
#[test]
fn pipelined_requests_and_a_dribbling_reader_over_a_real_socket() {
    use sd_serve::http::{self, Request};
    use std::io::{BufReader, Read as _, Write as _};

    let (addr, h) = start(8, true);
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut conn = BufReader::new(stream);

    // Two requests in one client write; the second only makes sense after
    // the first, so the replies prove both order and connection reuse.
    let mut first = Request::new("POST", "/v1/jobs");
    first.body = SubmitRequest {
        procs: 16,
        req_time: 200,
        run_time: 100,
        submit: Some(0),
        malleable: None,
        trace_id: None,
        tenant: None,
        project: None,
    }
    .encode()
    .render()
    .into_bytes();
    let second = Request::new("GET", "/v1/jobs/1");
    let both = [first.render(), second.render()].concat();
    conn.get_mut().write_all(&both).unwrap();
    let (status, body) = http::read_response(&mut conn).unwrap();
    assert_eq!(status, 201);
    assert_eq!(body, br#"{"id":1,"submit":0}"#);
    let (status, body) = http::read_response(&mut conn).unwrap();
    assert_eq!(status, 200);
    let job = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(job.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(job.get("state").and_then(Json::as_str), Some("pending"));

    // Same connection, third request, read back one byte per `read` until
    // the server hangs up (`connection: close`): the whole reply arrives.
    let mut last = Request::new("GET", "/healthz");
    last.headers.push(("connection".into(), "close".into()));
    conn.get_mut().write_all(&last.render()).unwrap();
    let mut stream = conn.into_inner();
    let mut wire = Vec::new();
    let mut byte = [0u8; 1];
    while stream.read(&mut byte).unwrap() == 1 {
        wire.push(byte[0]);
    }
    assert_eq!(
        String::from_utf8(wire).unwrap(),
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\n\
         connection: close\r\n\r\n{\"ok\":true}"
    );

    Client::connect(addr).unwrap().shutdown().unwrap();
    h.join().unwrap().expect("server returned a result");
}

#[test]
fn metrics_exposition_tracks_job_counters() {
    let (addr, h) = start(8, true);
    let mut client = Client::connect(addr).unwrap();
    for i in 0..10 {
        submit(&mut client, 8, 50, i * 5);
    }
    client.drain().unwrap();
    let text = client.metrics().unwrap();
    assert!(text.contains("sd_serve_jobs_submitted_total 10"), "{text}");
    assert!(text.contains("sd_serve_jobs_completed_total 10"), "{text}");
    assert!(text.contains("sd_serve_jobs_pending 0"), "{text}");
    // The PR 4 pass/skip counters are exported.
    assert!(text.contains("sd_serve_sched_passes_total"), "{text}");
    assert!(text.contains("sd_serve_sched_passes_skipped_total"), "{text}");
    // HTTP counters moved too.
    assert!(text.contains("sd_serve_http_requests_total{class=\"2xx\"}"), "{text}");
    client.shutdown().unwrap();
    h.join().unwrap();
}

#[test]
fn cancel_unblocks_queue_and_counts() {
    let (addr, h) = start(4, false);
    let mut client = Client::connect(addr).unwrap();
    // Machine-filling head, then a canceller, then a small job.
    submit(&mut client, 32, 1000, 0);
    let blocker = submit(&mut client, 32, 1000, 0);
    submit(&mut client, 8, 100, 0);
    client.advance(0).unwrap();
    client.cancel(blocker).unwrap();
    // Cancelling again → 409, unknown id → 404.
    let err = client.cancel(blocker).unwrap_err();
    assert!(err.to_string().contains("409"), "{err}");
    let err = client.cancel(999).unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");
    client.drain().unwrap();
    let res = client.shutdown().unwrap();
    h.join().unwrap();
    assert_eq!(res.outcomes.len(), 2, "cancelled job never ran");
    assert_eq!(res.stats.cancelled, 1);
}

#[test]
fn concurrent_clients_share_one_scheduler() {
    let (addr, h) = start(16, true);
    let mut threads = Vec::new();
    for t in 0..4u64 {
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..25u64 {
                c.submit(&SubmitRequest {
                    procs: 8,
                    req_time: 200,
                    run_time: 100,
                    submit: Some(1000 + t * 25 + i),
                    malleable: None,
                    trace_id: None,
                    tenant: None,
                    project: None,
                })
                .unwrap();
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let mut client = Client::connect(addr).unwrap();
    client.drain().unwrap();
    let res = client.shutdown().unwrap();
    h.join().unwrap();
    assert_eq!(res.outcomes.len(), 100, "all 4 × 25 submissions completed");
    assert_eq!(res.leftover_pending, 0);
    // Ids were assigned densely by the single scheduler thread.
    let mut ids: Vec<u64> = res.outcomes.iter().map(|o| o.id.0).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=100).collect::<Vec<_>>());
}

#[test]
fn trace_and_explain_endpoints_cover_quota_skips() {
    // 4 × 8-core nodes; tenant 1 may run at most 2 requested nodes at once.
    let mut spec = cluster::ClusterSpec::ricc();
    spec.nodes = 4;
    let mut tenants = slurm_sim::TenantRegistry::new();
    tenants.add(slurm_sim::Tenant {
        quota: slurm_sim::Quota { node_seconds: None, max_running_width: Some(2) },
        ..slurm_sim::Tenant::unlimited(1, 0)
    });
    let state = SimState::new_online(
        spec,
        SlurmConfig { tenants, ..SlurmConfig::default() },
        Box::new(IdealModel),
        SharingFactor::HALF,
    );
    let ring = std::sync::Arc::new(slurm_sim::TraceRing::new(4096));
    let hists = std::sync::Arc::new(sd_serve::ServeHistograms::default());
    let engine = Engine::new(state, Box::new(StaticBackfill), ClockMode::Virtual)
        .with_trace(ring.clone())
        .with_histograms(hists.clone());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let h = std::thread::spawn(move || {
        server::run(engine, listener, ServerConfig { workers: 4, trace: Some(ring), hists, ..Default::default() }).ok()
    });
    let mut client = Client::connect(addr).unwrap();

    let submit_as = |client: &mut Client, procs: u64, run: u64, at: u64| {
        client
            .submit(&SubmitRequest {
                procs,
                req_time: run * 2,
                run_time: run,
                submit: Some(at),
                malleable: None,
                trace_id: None,
                tenant: Some(1),
                project: Some(0),
            })
            .expect("submit accepted")
            .0
    };
    // Job 1 takes tenant 1 to its width cap; job 2 must wait on the quota.
    let id1 = submit_as(&mut client, 16, 100, 0);
    let id2 = submit_as(&mut client, 8, 50, 1);
    client.advance(10).unwrap();

    // /v1/trace: cursor tail with the quota decision visible.
    let tail = client.trace(0, 1000).unwrap();
    let next = tail.get("next").and_then(Json::as_u64).unwrap();
    assert!(next > 0, "{tail:?}");
    assert_eq!(tail.get("dropped").and_then(Json::as_u64), Some(0));
    let events = tail.get("events").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len() as u64, next);
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("event").and_then(Json::as_str))
        .collect();
    assert!(kinds.contains(&"submitted"), "{kinds:?}");
    assert!(kinds.contains(&"started"), "{kinds:?}");
    assert!(kinds.contains(&"quota_skipped"), "{kinds:?}");
    // Cursor resume: nothing new until the clock moves again.
    let again = client.trace(next, 1000).unwrap();
    assert_eq!(again.get("events").and_then(Json::as_arr).map(<[Json]>::len), Some(0));

    client.drain().unwrap();

    // /v1/explain/{id2}: the full decision chain of the quota-skipped job.
    let explain = client.explain(id2).unwrap();
    assert_eq!(explain.get("tracing").and_then(Json::as_bool), Some(true));
    assert_eq!(explain.get("overwritten").and_then(Json::as_u64), Some(0));
    let job = explain.get("job").unwrap();
    assert_eq!(job.get("id").and_then(Json::as_u64), Some(id2));
    assert_eq!(job.get("state").and_then(Json::as_str), Some("done"));
    let chain: Vec<&str> = explain
        .get("decisions")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|e| e.get("event").and_then(Json::as_str))
        .collect();
    let pos = |k: &str| {
        chain
            .iter()
            .position(|&c| c == k)
            .unwrap_or_else(|| panic!("missing {k} in decision chain {chain:?}"))
    };
    assert!(
        pos("submitted") < pos("quota_skipped")
            && pos("quota_skipped") < pos("started")
            && pos("started") < pos("completed"),
        "decision chain out of order: {chain:?}"
    );
    // The quota event names the tenant.
    let decisions = explain.get("decisions").and_then(Json::as_arr).unwrap();
    let quota_ev = decisions
        .iter()
        .find(|e| e.get("event").and_then(Json::as_str) == Some("quota_skipped"))
        .unwrap();
    assert_eq!(quota_ev.get("tenant").and_then(Json::as_u64), Some(1));
    assert!(client.explain(99).is_err(), "unknown job is a 404");

    // /metrics: the three histogram series are exposed.
    let text = client.metrics().unwrap();
    for series in [
        "sd_serve_http_request_duration_seconds",
        "sd_serve_pass_duration_seconds",
        "sd_serve_job_wait_seconds",
    ] {
        assert!(
            text.contains(&format!("# TYPE {series} histogram")),
            "missing {series}: {text}"
        );
        assert!(text.contains(&format!("{series}_bucket{{le=\"+Inf\"}}")), "{series}");
    }
    assert!(text.contains("sd_serve_timing_calls_total{function=\"backfill_trial\"}"));
    // Requests flowed, passes ran, job 2 waited: the counts are live.
    let count = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(-1.0)
    };
    assert!(count("sd_serve_http_request_duration_seconds_count") > 0.0);
    assert!(count("sd_serve_pass_duration_seconds_count") > 0.0);
    assert!(count("sd_serve_job_wait_seconds_count") >= 2.0);

    let _ = id1;
    client.shutdown().unwrap();
    h.join().unwrap();
}

#[test]
fn untraced_server_answers_trace_404_and_bare_explain() {
    let (addr, h) = start(8, true);
    let mut client = Client::connect(addr).unwrap();
    let id = submit(&mut client, 8, 50, 0);
    let err = client.trace(0, 10).unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");
    // Explain still answers — with an empty history and tracing=false.
    let explain = client.explain(id).unwrap();
    assert_eq!(explain.get("tracing").and_then(Json::as_bool), Some(false));
    assert_eq!(
        explain.get("decisions").and_then(Json::as_arr).map(<[Json]>::len),
        Some(0)
    );
    client.shutdown().unwrap();
    h.join().unwrap();
}

#[test]
fn loadgen_reports_throughput_and_deltas() {
    let (addr, h) = start(32, true);
    let jobs: Vec<swf::SwfJob> = (0..50)
        .map(|i| swf::SwfJob::for_simulation(i + 1, i * 7, 60 + i, 8, 300))
        .collect();
    let report = loadgen::run(
        addr,
        &jobs,
        &LoadgenOptions {
            rate: None,
            virtual_timestamps: true,
            drain: true,
            shutdown: true,
            tenants: None,
            max_retries: 0,
        },
    )
    .unwrap();
    assert_eq!(report.submitted, 50);
    assert_eq!(report.rejected, 0);
    assert!(report.achieved_rate > 0.0);
    assert_eq!(report.delta("completed"), 50.0);
    let final_res = report.final_result.as_ref().expect("shutdown collects the result");
    assert_eq!(final_res.outcomes.len(), 50);
    assert!(report.latency_ms.is_some());
    let rendered = report.render();
    assert!(rendered.contains("achieved rate"), "{rendered}");
    h.join().unwrap();
}

#[test]
fn realtime_sessions_are_moved_by_the_servers_ticker() {
    // 10 000 sim-seconds per wall second: a 100 s job completes in ~10 ms.
    let mut spec = cluster::ClusterSpec::ricc();
    spec.nodes = 8;
    let state =
        SimState::new_online(spec, SlurmConfig::default(), Box::new(IdealModel), SharingFactor::HALF);
    let realtime = ClockMode::Realtime { compression: 10_000.0 };
    let engine = Engine::new(state, Box::new(SdPolicy::default()), realtime);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let h = std::thread::spawn(move || server::run(engine, listener, ServerConfig::default()));
    let mut client = Client::connect(addr).unwrap();
    let req = SubmitRequest {
        procs: 8,
        req_time: 200,
        run_time: 100,
        submit: None,
        malleable: None,
        trace_id: None,
        tenant: None,
        project: None,
    };
    client.submit(&req).expect("an unstamped submit lands at the last tick");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let stats = client.stats().unwrap();
        if stats.get("completed").and_then(Json::as_u64) == Some(1) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "the job never completed: {stats:?}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    // The clock routes belong to the ticker.
    let to = Json::obj().set("to", 10u64);
    let refusals = [
        ("/v1/clock/advance", Some(&to), "advance requires the virtual clock (realtime advances itself)"),
        ("/v1/drain", None, "drain requires the virtual clock"),
    ];
    for (path, body, msg) in refusals {
        let (status, bytes) = client.request("POST", path, body).unwrap();
        let want = format!(r#"{{"error":"{msg}"}}"#);
        assert_eq!((status, String::from_utf8(bytes).unwrap()), (409, want), "{path}");
    }
    assert_eq!(client.shutdown().unwrap().outcomes.len(), 1);
    h.join().unwrap().expect("clean shutdown");
}
