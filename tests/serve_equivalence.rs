//! The virtual-clock equivalence obligation (DESIGN.md §10): a scripted
//! live session over loopback HTTP — every job submitted through the wire
//! with its trace timestamp, then one drain — must produce a [`SimResult`]
//! **identical** to the offline replay of the same workload. The result
//! travels back through the JSON protocol, so floats surviving bit-for-bit
//! is part of the claim.
//!
//! The recovery variant (DESIGN.md §14) extends the obligation through a
//! crash: a session that loses its process mid-traffic and recovers from
//! checkpoint + WAL must still finish bit-identical to the offline replay —
//! even when the WAL carries a torn tail.

use sd_sched::prelude::*;
use sd_serve::engine::{ClockMode, Engine};
use sd_serve::proto::SubmitRequest;
use sd_serve::server::{self, ServerConfig};
use sd_serve::{Client, FsyncPolicy, Json, WalStatus};

fn offline(trace: &Trace, cluster: ClusterSpec, cfg: SlurmConfig, sd: bool) -> SimResult {
    if sd {
        run_trace(
            cluster,
            cfg,
            trace,
            Box::new(IdealModel),
            SharingFactor::HALF,
            SdPolicy::default(),
        )
    } else {
        run_trace(
            cluster,
            cfg,
            trace,
            Box::new(IdealModel),
            SharingFactor::HALF,
            StaticBackfill,
        )
    }
}

/// Runs the same workload through a live sd-serve over loopback.
fn online(trace: &Trace, cluster: ClusterSpec, cfg: SlurmConfig, sd: bool) -> SimResult {
    let state = SimState::new_online(cluster, cfg, Box::new(IdealModel), SharingFactor::HALF);
    let scheduler: Box<dyn Scheduler + Send> = if sd {
        Box::new(SdPolicy::default())
    } else {
        Box::new(StaticBackfill)
    };
    let engine = Engine::new(state, scheduler, ClockMode::Virtual);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().unwrap();
    let handle =
        std::thread::spawn(move || server::run(engine, listener, ServerConfig { workers: 4, ..Default::default() }));

    let mut client = Client::connect(addr).expect("connect to sd-serve");
    for j in &trace.jobs {
        let (id, _) = client
            .submit(&SubmitRequest {
                procs: j.procs().expect("generated jobs have procs"),
                req_time: j.requested_time().unwrap_or(0),
                run_time: j.runtime().expect("generated jobs have runtimes"),
                submit: Some(j.submit.max(0) as u64),
                malleable: None,
                trace_id: Some(j.job_id),
                // Outcomes record the tenant, so the wire must carry the
                // trace's user/group for the results to compare equal.
                tenant: Some(j.user.max(0) as u64),
                project: Some(j.group.max(0) as u64),
            })
            .expect("live submission accepted");
        assert_eq!(id, j.job_id, "service assigns trace ids in order");
    }
    client.drain().expect("drain the virtual clock");
    let wire_result = client.shutdown().expect("shutdown returns the final result");
    let server_result = handle
        .join()
        .expect("server thread")
        .expect("server produced a result");
    assert_eq!(
        wire_result, server_result,
        "the JSON wire encoding is lossless (floats bit-for-bit)"
    );
    wire_result
}

fn assert_equivalent(scale: f64, seed: u64, sd: bool, fraction: f64) {
    let w = PaperWorkload::W3Ricc;
    let trace = w.generate(seed, scale);
    let cluster = w.cluster(scale);
    assert!(!trace.jobs.is_empty());
    let cfg = SlurmConfig {
        malleable_fraction: fraction,
        ..SlurmConfig::default()
    };
    let off = offline(&trace, cluster.clone(), cfg.clone(), sd);
    let on = online(&trace, cluster, cfg, sd);
    assert_eq!(
        on, off,
        "online session diverged from offline replay \
         (sd={sd} seed={seed} fraction={fraction})"
    );
}

#[test]
fn scripted_session_matches_offline_replay_sd_policy() {
    assert_equivalent(0.03, 7, true, 1.0);
}

#[test]
fn scripted_session_matches_offline_replay_static() {
    assert_equivalent(0.03, 7, false, 1.0);
}

#[test]
fn mixed_rigid_malleable_population_matches_offline_replay() {
    // fraction < 1 exercises the per-job malleability draw: the wire's
    // `trace_id` must seed it exactly like the offline constructor, or the
    // rigid/malleable populations (and thus the schedules) diverge.
    assert_equivalent(0.03, 13, true, 0.5);
}

#[test]
fn tenanted_fair_share_session_matches_offline_replay() {
    // A Zipf tenant mix under fair-share ordering with a running-width
    // quota: the wire carries each job's tenant/project, so the online
    // session must reproduce the offline replay bit-for-bit — including
    // quota skip counts and per-tenant outcome labels.
    let w = PaperWorkload::W3Ricc;
    let trace = w.model(0.03).with_tenant_mix(3, 1.0).generate(7);
    let cluster = w.cluster(0.03);
    assert!(
        trace.jobs.iter().any(|j| j.user > 1),
        "the mix stamps more than one tenant"
    );
    let mut tenants = TenantRegistry::new();
    for id in 1..=3 {
        tenants.add(Tenant {
            quota: Quota {
                node_seconds: None,
                max_running_width: Some(cluster.nodes.max(2) / 2),
            },
            ..Tenant::unlimited(id, 0)
        });
    }
    let cfg = SlurmConfig {
        tenants,
        queue_policy: QueuePolicy::FairShare { half_life: 3600 },
        ..SlurmConfig::default()
    };
    let off = offline(&trace, cluster.clone(), cfg.clone(), true);
    let on = online(&trace, cluster, cfg, true);
    assert_eq!(on, off, "tenanted online session diverged");
    let labels: std::collections::BTreeSet<u32> = on.outcomes.iter().map(|o| o.tenant).collect();
    assert!(labels.len() > 1, "outcomes carry the tenant mix: {labels:?}");
}

fn wire_request(j: &SwfJob) -> SubmitRequest {
    SubmitRequest {
        procs: j.procs().expect("generated jobs have procs"),
        req_time: j.requested_time().unwrap_or(0),
        run_time: j.runtime().expect("generated jobs have runtimes"),
        submit: Some(j.submit.max(0) as u64),
        malleable: None,
        trace_id: Some(j.job_id),
        tenant: Some(j.user.max(0) as u64),
        project: Some(j.group.max(0) as u64),
    }
}

/// Submits `jobs` in trace order in bursts of 25, advancing the clock to
/// just before each later burst's first submit instant: everything strictly
/// earlier is simulated, and the burst's own instant stays open (it may
/// share a batch with a tie from the previous burst offline). Generated
/// traces are sorted by (submit, id), so ids and event order stay identical
/// to the offline replay.
fn submit_in_bursts(client: &mut Client, jobs: &[SwfJob]) {
    assert!(jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
    for (i, burst) in jobs.chunks(25).enumerate() {
        if i > 0 {
            let first = burst[0].submit.max(0) as u64;
            client.advance(first.saturating_sub(1)).expect("advance between bursts");
        }
        for j in burst {
            client.submit(&wire_request(j)).expect("burst submit");
        }
    }
}

/// Boots a server whose engine recovers from (or starts fresh in) `dir`.
fn spawn_durable(
    dir: &std::path::Path,
    cluster: ClusterSpec,
    cfg: SlurmConfig,
) -> (
    Client,
    std::thread::JoinHandle<Result<SimResult, std::io::Error>>,
    WalStatus,
) {
    let (engine, status) = Engine::recover(
        dir,
        FsyncPolicy::Never,
        5, // small cadence: the crash image holds a checkpoint AND a log suffix
        cluster,
        cfg,
        Box::new(IdealModel),
        SharingFactor::HALF,
        Box::new(SdPolicy::default()),
    )
    .expect("WAL recovery");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        server::run(engine, listener, ServerConfig { workers: 2, ..Default::default() })
    });
    (Client::connect(addr).expect("connect"), handle, status)
}

/// Copies the WAL directory — taken between acknowledged requests it is
/// exactly the on-disk state a `kill -9` at that instant would leave.
fn crash_image(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let e = entry.unwrap();
        std::fs::copy(e.path(), dst.join(e.file_name())).unwrap();
    }
}

/// Session 1: submits `trace.jobs[..cut]` to a fresh durable engine in
/// `live`, the clock following along (so checkpoints hold running and shrunk
/// jobs, not just a queue), then "crashes" — `crash` captures checkpoint +
/// WAL as a kill -9 would have left them.
fn crashed_session(
    live: &std::path::Path,
    crash: &std::path::Path,
    trace: &Trace,
    cut: usize,
    cluster: ClusterSpec,
    cfg: SlurmConfig,
) {
    std::fs::create_dir_all(live).unwrap();
    let (mut client, handle, status) = spawn_durable(live, cluster, cfg);
    assert!(status.recovered.is_none(), "fresh directory");
    submit_in_bursts(&mut client, &trace.jobs[..cut]);
    crash_image(live, crash);
    client.shutdown().expect("discard session 1");
    handle.join().unwrap().unwrap();
}

/// Session 2: recovers the image in `crash`, resyncs, finishes the workload.
fn recovered_session(
    crash: &std::path::Path,
    trace: &Trace,
    cut: usize,
    cluster: ClusterSpec,
    cfg: SlurmConfig,
    torn: bool,
) -> SimResult {
    let (mut client, handle, status) = spawn_durable(crash, cluster, cfg);
    assert_eq!(
        status.recovered,
        Some(if torn { "torn_tail" } else { "clean" }),
        "recovery mode (torn={torn})"
    );
    let stats = client.stats().expect("stats after recovery");
    assert_eq!(
        stats.get("jobs_total").and_then(Json::as_u64),
        Some(cut as u64),
        "every acknowledged submission survived the crash"
    );
    if torn {
        let metrics = client.metrics().expect("metrics after recovery");
        assert!(
            metrics.contains("sd_serve_recovered{mode=\"torn_tail\"} 1"),
            "torn-tail recovery is visible on /metrics"
        );
    }
    for j in &trace.jobs[cut..] {
        client.submit(&wire_request(j)).expect("second-half submit");
    }
    client.drain().expect("drain");
    let recovered = client.shutdown().expect("final result");
    handle.join().unwrap().unwrap();
    recovered
}

/// Half a session, a crash, recovery, the other half — must equal the
/// offline replay bit-for-bit.
fn assert_recovery_equivalent(torn: bool, tag: &str) {
    let w = PaperWorkload::W3Ricc;
    let trace = w.generate(7, 0.02);
    let cluster = w.cluster(0.02);
    let cfg = SlurmConfig::default();
    let reference = offline(&trace, cluster.clone(), cfg.clone(), true);

    let base = std::env::temp_dir().join(format!("sd-serve-eq-{}-{tag}", std::process::id()));
    let crash = base.join("crash");
    let _ = std::fs::remove_dir_all(&base);

    let half = trace.jobs.len() / 2;
    assert!(half > 5, "enough traffic to cross a checkpoint");
    crashed_session(&base.join("live"), &crash, &trace, half, cluster.clone(), cfg.clone());

    if torn {
        // A torn tail: garbage past the last complete record, as a crash
        // mid-append would leave. Recovery must keep the valid prefix.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(crash.join("wal.log"))
            .unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x42]).unwrap();
    }

    let recovered = recovered_session(&crash, &trace, half, cluster, cfg, torn);
    let _ = std::fs::remove_dir_all(&base);

    assert_eq!(
        recovered, reference,
        "recovered session diverged from the offline replay (torn={torn})"
    );
}

/// The on-disk format did not move under the inline `CpuMask` and the
/// per-node DROM table: `tests/fixtures/pr15-crash-image/` is the crash image
/// the PR 15 build left after `half + 3` submissions of this workload: a
/// checkpoint taken mid-run (running jobs, shrunk mates, DROM entries) plus
/// a two-submit log suffix. This build must write the same bytes, and must
/// recover the old build's image into a session that finishes bit-identical
/// to the offline replay.
#[test]
fn crash_image_written_by_the_previous_build_still_recovers() {
    let w = PaperWorkload::W3Ricc;
    let trace = w.generate(7, 0.02);
    let cluster = w.cluster(0.02);
    let cfg = SlurmConfig::default();
    let cut = trace.jobs.len() / 2 + 3;
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr15-crash-image");

    let base = std::env::temp_dir().join(format!("sd-serve-eq-{}-pr15-image", std::process::id()));
    let (ours, theirs) = (base.join("crash"), base.join("fixture"));
    let _ = std::fs::remove_dir_all(&base);
    crashed_session(&base.join("live"), &ours, &trace, cut, cluster.clone(), cfg.clone());
    for file in ["checkpoint.bin", "wal.log"] {
        assert!(
            std::fs::read(ours.join(file)).unwrap() == std::fs::read(fixture.join(file)).unwrap(),
            "{file} differs from the one the previous build wrote"
        );
    }

    crash_image(&fixture, &theirs);
    let reference = offline(&trace, cluster.clone(), cfg.clone(), true);
    let recovered = recovered_session(&theirs, &trace, cut, cluster, cfg, false);
    let _ = std::fs::remove_dir_all(&base);
    assert_eq!(recovered, reference, "the old image recovered into a different schedule");
    assert!(reference.stats.started_malleable > 0, "the workload exercises DROM state");
}

#[test]
fn recovered_session_matches_offline_replay() {
    assert_recovery_equivalent(false, "clean");
}

#[test]
fn torn_wal_tail_recovery_still_matches_offline_replay() {
    assert_recovery_equivalent(true, "torn");
}

#[test]
fn observability_does_not_perturb_results() {
    // DESIGN.md §15: logging, profiling and SLO sampling are observers —
    // a session with all three dialled up must return a /v1/result
    // byte-identical to the plain offline replay.
    let w = PaperWorkload::W3Ricc;
    let trace = w.generate(7, 0.02);
    let cluster = w.cluster(0.02);
    let cfg = SlurmConfig::default();
    let reference = offline(&trace, cluster.clone(), cfg.clone(), true);

    sd_obs::set_ring_level(sd_obs::Level::Trace);
    slurm_sim::timing::arm();
    let slos = vec![
        sd_obs::SloSpec::parse("submit_availability", 0.99).unwrap(),
        sd_obs::SloSpec::parse("p99_wait_seconds", 100_000.0).unwrap(),
        sd_obs::SloSpec::parse("pass_duration_p95", 0.5).unwrap(),
    ];

    let state = SimState::new_online(cluster, cfg, Box::new(IdealModel), SharingFactor::HALF);
    let engine = Engine::new(
        state,
        Box::new(SdPolicy::default()) as Box<dyn Scheduler + Send>,
        ClockMode::Virtual,
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        server::run(engine, listener, ServerConfig { workers: 4, slos, ..Default::default() })
    });
    let mut client = Client::connect(addr).unwrap();
    let head = sd_obs::ring_head();
    for j in &trace.jobs {
        client.submit(&wire_request(j)).expect("submit under observation");
    }
    client.drain().unwrap();

    // The observers saw the traffic: debug submit events landed in the
    // ring, and the armed profiler accumulated scheduler passes.
    let logs = client.logs(head, 64, Some("debug"), Some("engine")).unwrap();
    let records = logs.get("records").and_then(Json::as_arr).expect("records array");
    assert!(!records.is_empty(), "debug engine events reached /v1/logs");
    // The sampler publishes its first evaluation about a second after boot.
    let slo = std::iter::repeat_with(|| {
        std::thread::sleep(std::time::Duration::from_millis(200));
        client.slo()
    })
    .take(50)
    .find_map(Result::ok)
    .expect("/v1/slo answers once the sampler has run");
    assert_eq!(
        slo.get("slos").and_then(Json::as_arr).map(|a| a.len()),
        Some(3),
        "every declared objective is tracked"
    );
    let profile = client.profile(1).expect("profile window");
    assert!(
        profile.contains("sd;sched_pass"),
        "collapsed stacks are rooted at the scheduler pass:\n{profile}"
    );

    let observed = client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    slurm_sim::timing::disarm();
    sd_obs::set_ring_level(sd_obs::Level::Info);

    assert_eq!(
        observed, reference,
        "observability-on session diverged from the plain offline replay"
    );
}

#[test]
fn interleaved_advance_still_matches_offline_replay() {
    // Submitting in bursts interleaved with clock advances exercises the
    // floor logic: as long as every submission lands at or after the clock,
    // the merged event sequence equals the offline trace's.
    let w = PaperWorkload::W3Ricc;
    let trace = w.generate(11, 0.02);
    let cluster = w.cluster(0.02);
    let offline_res = offline(&trace, cluster.clone(), SlurmConfig::default(), true);

    let state = SimState::new_online(
        cluster,
        SlurmConfig::default(),
        Box::new(IdealModel),
        SharingFactor::HALF,
    );
    let engine = Engine::new(
        state,
        Box::new(SdPolicy::default()) as Box<dyn Scheduler + Send>,
        ClockMode::Virtual,
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle =
        std::thread::spawn(move || server::run(engine, listener, ServerConfig { workers: 2, ..Default::default() }));
    let mut client = Client::connect(addr).unwrap();

    submit_in_bursts(&mut client, &trace.jobs);
    client.drain().unwrap();
    let online_res = client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    assert_eq!(online_res, offline_res, "interleaved session diverged");
}
