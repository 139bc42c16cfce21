//! `/v1/stats` and `/metrics` report the same numbers (DESIGN.md §10).
//!
//! The pin replays one fixed durable session — 20 submits over three
//! tenants, then a drain — and holds both views to what they printed
//! before they were rendered from one row table: every key and every
//! sample outside the two wall-clock histograms is still there with the
//! same printed value, and the only additions are the ones listed.
//! Wall-clock numbers are compared by presence only. The row walk then
//! checks the table itself: each row's key and series are in both views of
//! a durable, tenanted session, and without a WAL no WAL row is in either.

use drom::SharingFactor;
use sd_policy::SdPolicy;
use sd_serve::client::Client;
use sd_serve::engine::{ClockMode, Engine};
use sd_serve::json::Json;
use sd_serve::metrics::{ROWS, TENANT_ROWS};
use sd_serve::proto::SubmitRequest;
use sd_serve::server::{self, ServerConfig};
use sd_serve::FsyncPolicy;
use slurm_sim::{IdealModel, SimState, SlurmConfig};
use std::collections::BTreeMap;

/// `GET /v1/stats` after the session, as the table-less renderer wrote it.
const PARENT_STATS: &str = r#"{"scheduler":"sd-policy","clock":"virtual","now":290,"jobs_total":20,"submitted":20,"pending":0,"running":0,"completed":20,"cancelled":0,"quota_skipped":0,"events_outstanding":0,"started_static":20,"started_malleable":0,"unique_mates":0,"relocations":0,"sched_passes":20,"passes_skipped":10,"events_dispatched":40,"peak_profile_len":11,"mean_slowdown":1,"mean_response":100,"mean_wait":0,"makespan":290,"energy_joules":35875200,"busy_cores":0,"empty_nodes":1024,"nodes":1024,"tenants":[{"tenant":1,"submitted":7,"rate_limited":0,"started":0,"completed":0,"quota_skipped":0,"running_width":0},{"tenant":2,"submitted":7,"rate_limited":0,"started":0,"completed":0,"quota_skipped":0,"running_width":0},{"tenant":3,"submitted":6,"rate_limited":0,"started":0,"completed":0,"quota_skipped":0,"running_width":0}]}"#;

/// The `/metrics` samples after the session, as the table-less renderer
/// wrote them, less the two wall-clock histograms (the scrape follows 20
/// submits, one drain and one stats read on one connection).
const PARENT_METRICS: &str = r#"
sd_serve_sim_now_seconds 290
sd_serve_jobs_submitted_total 20
sd_serve_jobs_total 20
sd_serve_jobs_pending 0
sd_serve_jobs_running 0
sd_serve_jobs_completed_total 20
sd_serve_jobs_cancelled_total 0
sd_serve_quota_skipped_total 0
sd_serve_started_static_total 20
sd_serve_started_malleable_total 0
sd_serve_unique_mates_total 0
sd_serve_shrink_events_total 0
sd_serve_expand_events_total 0
sd_serve_relocations_total 0
sd_serve_sched_passes_total 20
sd_serve_sched_passes_skipped_total 10
sd_serve_events_dispatched_total 40
sd_serve_events_outstanding 0
sd_serve_peak_profile_len 11
sd_serve_busy_cores 0
sd_serve_empty_nodes 1024
sd_serve_cluster_nodes 1024
sd_serve_energy_joules_total 35875200
sd_serve_mean_slowdown 1
sd_serve_mean_response_seconds 100
sd_serve_makespan_seconds 290
sd_serve_http_requests_total{class="2xx"} 22
sd_serve_http_requests_total{class="4xx"} 0
sd_serve_http_requests_total{class="5xx"} 0
sd_serve_http_connections_total 1
sd_serve_submit_requests_total{result="ok"} 20
sd_serve_submit_requests_total{result="refused"} 0
sd_serve_job_wait_seconds_bucket{le="1"} 20
sd_serve_job_wait_seconds_bucket{le="3.1622776601683795"} 20
sd_serve_job_wait_seconds_bucket{le="10.000000000000002"} 20
sd_serve_job_wait_seconds_bucket{le="31.6227766016838"} 20
sd_serve_job_wait_seconds_bucket{le="100.00000000000003"} 20
sd_serve_job_wait_seconds_bucket{le="316.227766016838"} 20
sd_serve_job_wait_seconds_bucket{le="1000.0000000000003"} 20
sd_serve_job_wait_seconds_bucket{le="3162.2776601683804"} 20
sd_serve_job_wait_seconds_bucket{le="10000.000000000004"} 20
sd_serve_job_wait_seconds_bucket{le="31622.776601683807"} 20
sd_serve_job_wait_seconds_bucket{le="100000.00000000004"} 20
sd_serve_job_wait_seconds_bucket{le="316227.7660168381"} 20
sd_serve_job_wait_seconds_bucket{le="1000000.0000000006"} 20
sd_serve_job_wait_seconds_bucket{le="+Inf"} 20
sd_serve_job_wait_seconds_sum 0
sd_serve_job_wait_seconds_count 20
sd_serve_timing_seconds_total{function="sched_pass"} 0
sd_serve_timing_seconds_total{function="earliest_start"} 0
sd_serve_timing_seconds_total{function="backfill_trial"} 0
sd_serve_timing_seconds_total{function="job_start"} 0
sd_serve_timing_seconds_total{function="job_end"} 0
sd_serve_timing_seconds_total{function="mate_scan"} 0
sd_serve_timing_seconds_total{function="mate_scan_refused"} 0
sd_serve_timing_seconds_total{function="cutoff"} 0
sd_serve_timing_seconds_total{function="quota_check"} 0
sd_serve_timing_seconds_total{function="fair_share_sort"} 0
sd_serve_timing_seconds_total{function="trial_memo_hit"} 0
sd_serve_timing_seconds_total{function="sweep_replayed"} 0
sd_serve_timing_seconds_total{function="tail_skipped"} 0
sd_serve_timing_calls_total{function="sched_pass"} 0
sd_serve_timing_calls_total{function="earliest_start"} 0
sd_serve_timing_calls_total{function="backfill_trial"} 0
sd_serve_timing_calls_total{function="job_start"} 0
sd_serve_timing_calls_total{function="job_end"} 0
sd_serve_timing_calls_total{function="mate_scan"} 0
sd_serve_timing_calls_total{function="mate_scan_refused"} 0
sd_serve_timing_calls_total{function="cutoff"} 0
sd_serve_timing_calls_total{function="quota_check"} 0
sd_serve_timing_calls_total{function="fair_share_sort"} 0
sd_serve_timing_calls_total{function="trial_memo_hit"} 0
sd_serve_timing_calls_total{function="sweep_replayed"} 0
sd_serve_timing_calls_total{function="tail_skipped"} 0
sd_serve_wal_records_written_total 21
sd_serve_wal_records_replayed_total 0
sd_serve_checkpoints_written_total 1
sd_serve_recovery_duration_seconds 0.024849599
sd_serve_wal_bytes 1257
sd_serve_wal_segment_age_seconds 0.002497554
sd_serve_recovered{mode="clean"} 0
sd_serve_recovered{mode="torn_tail"} 0
sd_serve_tenant_submitted_total{tenant="1"} 7
sd_serve_tenant_submitted_total{tenant="2"} 7
sd_serve_tenant_submitted_total{tenant="3"} 6
sd_serve_tenant_rate_limited_total{tenant="1"} 0
sd_serve_tenant_rate_limited_total{tenant="2"} 0
sd_serve_tenant_rate_limited_total{tenant="3"} 0
sd_serve_tenant_completed_total{tenant="1"} 0
sd_serve_tenant_completed_total{tenant="2"} 0
sd_serve_tenant_completed_total{tenant="3"} 0
sd_serve_tenant_quota_skipped_total{tenant="1"} 0
sd_serve_tenant_quota_skipped_total{tenant="2"} 0
sd_serve_tenant_quota_skipped_total{tenant="3"} 0
"#;

/// Series whose value is wall-clock time: compared by presence only.
fn wall_clock(series: &str) -> bool {
    series.starts_with("sd_serve_timing_")
        || series == "sd_serve_recovery_duration_seconds"
        || series == "sd_serve_wal_segment_age_seconds"
}

/// `series → printed value` for every sample line of an exposition.
fn samples(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(s, v)| (s.to_string(), v.to_string()))
        .collect()
}

/// Boots a server over `engine`, replays the session and returns the
/// `/v1/stats` body and the `/metrics` text, then shuts the server down.
fn session(engine: Engine) -> (Json, String) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let h = std::thread::spawn(move || {
        server::run(engine, listener, ServerConfig { workers: 2, ..Default::default() }).ok()
    });
    let mut client = Client::connect(addr).unwrap();
    for i in 0..20u64 {
        client
            .submit(&SubmitRequest {
                procs: 8,
                req_time: 200,
                run_time: 100,
                submit: Some(i * 10),
                malleable: None,
                trace_id: None,
                tenant: Some(1 + i % 3),
                project: None,
            })
            .expect("submit");
    }
    client.drain().expect("drain");
    let stats = client.stats().expect("stats");
    let metrics = client.metrics().expect("scrape");
    client.shutdown().expect("shutdown");
    h.join().unwrap();
    (stats, metrics)
}

/// A fresh durable engine over RICC in a scratch directory named `tag`.
fn durable(tag: &str) -> (Engine, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("sd-report-views-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (engine, _status) = Engine::recover(
        &dir,
        FsyncPolicy::Never,
        64,
        cluster::ClusterSpec::ricc(),
        SlurmConfig::default(),
        Box::new(IdealModel),
        SharingFactor::HALF,
        Box::new(SdPolicy::default()),
    )
    .expect("fresh durable engine");
    (engine, dir)
}

#[test]
fn every_parent_key_and_sample_keeps_its_value() {
    let (engine, dir) = durable("pin");
    let (stats, metrics) = session(engine);
    let _ = std::fs::remove_dir_all(&dir);
    let Json::Obj(parent) = Json::parse(PARENT_STATS).unwrap() else { panic!("an object") };
    for (key, want) in &parent {
        assert_eq!(stats.get(key), Some(want), "/v1/stats `{key}`");
    }
    let Json::Obj(now) = stats else { panic!("an object") };
    let added: Vec<&str> =
        now.iter().map(|(k, _)| k.as_str()).filter(|k| !parent.iter().any(|(p, _)| p == k)).collect();
    assert_eq!(
        added,
        [
            "shrink_events",
            "expand_events",
            "cores_per_node",
            "wal_records_written",
            "wal_records_replayed",
            "checkpoints_written",
            "recovery_seconds",
            "wal_bytes",
            "wal_segment_age_seconds",
        ]
    );

    let parent = samples(PARENT_METRICS);
    let mut now = samples(&metrics);
    now.retain(|s, _| {
        !s.starts_with("sd_serve_http_request_duration_seconds")
            && !s.starts_with("sd_serve_pass_duration_seconds")
    });
    for (series, want) in &parent {
        let got = now.get(series).unwrap_or_else(|| panic!("/metrics lost {series}"));
        if !wall_clock(series) {
            assert_eq!(got, want, "/metrics {series}");
        }
    }
    let added: Vec<&str> = now.keys().map(String::as_str).filter(|s| !parent.contains_key(*s)).collect();
    assert_eq!(
        added,
        [
            "sd_serve_cores_per_node",
            "sd_serve_mean_wait_seconds",
            "sd_serve_tenant_running_width{tenant=\"1\"}",
            "sd_serve_tenant_running_width{tenant=\"2\"}",
            "sd_serve_tenant_running_width{tenant=\"3\"}",
            "sd_serve_tenant_started_total{tenant=\"1\"}",
            "sd_serve_tenant_started_total{tenant=\"2\"}",
            "sd_serve_tenant_started_total{tenant=\"3\"}",
        ]
    );
}

/// The `/v1/stats` keys that exist only with `--wal`.
const WAL_KEYS: [&str; 6] = [
    "wal_records_written",
    "wal_records_replayed",
    "checkpoints_written",
    "recovery_seconds",
    "wal_bytes",
    "wal_segment_age_seconds",
];

#[test]
fn every_row_is_in_both_views_or_in_neither() {
    let (engine, dir) = durable("rows");
    let (stats, metrics) = session(engine);
    let _ = std::fs::remove_dir_all(&dir);
    let series = samples(&metrics);
    for r in &ROWS {
        assert!(stats.get(r.key).is_some(), "/v1/stats lacks `{}`", r.key);
        assert!(series.contains_key(r.series), "/metrics lacks {}", r.series);
    }
    let tenants = stats.get("tenants").and_then(Json::as_arr).expect("a tenants array");
    assert_eq!(tenants.len(), 3);
    for r in &TENANT_ROWS {
        for (t, obj) in (1..).zip(tenants) {
            assert!(obj.get(r.key).is_some(), "tenant {t} lacks `{}`", r.key);
            let labelled = format!("{}{{tenant=\"{t}\"}}", r.series);
            assert!(series.contains_key(&labelled), "/metrics lacks {labelled}");
        }
    }

    let state = SimState::new_online(
        cluster::ClusterSpec::ricc(),
        SlurmConfig::default(),
        Box::new(IdealModel),
        SharingFactor::HALF,
    );
    let (stats, metrics) = session(Engine::new(state, Box::new(SdPolicy::default()), ClockMode::Virtual));
    let series = samples(&metrics);
    for key in WAL_KEYS {
        let row = ROWS.iter().find(|r| r.key == key).unwrap_or_else(|| panic!("no row `{key}`"));
        assert!(stats.get(key).is_none(), "/v1/stats has `{key}` without a WAL");
        assert!(!series.contains_key(row.series), "/metrics has {} without a WAL", row.series);
    }
    assert!(!metrics.contains("sd_serve_recovered"), "{metrics}");
    for r in ROWS.iter().filter(|r| !WAL_KEYS.contains(&r.key)) {
        assert!(stats.get(r.key).is_some() && series.contains_key(r.series), "{}", r.key);
    }
}
