//! Crash tolerance through *real* process death (DESIGN.md §14).
//!
//! The in-process engine tests and `tests/serve_equivalence.rs` prove the
//! recovery logic over crash *images*; these tests drive the actual
//! `sd-serve` binary: SIGTERM must drain and exit 0 with a final
//! checkpoint, and a `kill -9` mid-traffic must lose nothing that was
//! acknowledged — the soak harness's one-assert contract.

#![cfg(unix)]

use sd_serve::soak::{self, SoakOptions};
use sd_serve::{Client, Json, SubmitRequest};
use std::io::BufRead as _;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

fn server_bin() -> std::path::PathBuf {
    env!("CARGO_BIN_EXE_sd_serve").into()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sd-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns `sd_serve` and parses its listen line.
fn spawn_server(args: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(server_bin())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sd_serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            reader.read_line(&mut line).expect("read stdout") > 0,
            "server exited before printing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("sd-serve listening on ") {
            break rest.parse().expect("listen address");
        }
    };
    (child, addr)
}

fn sigterm(child: &Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let rc = unsafe { kill(child.id() as i32, 15) };
    assert_eq!(rc, 0, "kill(SIGTERM)");
}

fn submit_some(client: &mut Client, n: u64) {
    for i in 0..n {
        client
            .submit(&SubmitRequest {
                procs: 4,
                req_time: 600,
                run_time: 300,
                submit: Some(i * 10),
                malleable: None,
                trace_id: None,
                tenant: None,
                project: None,
            })
            .expect("submit");
    }
}

#[test]
fn sigterm_drains_and_exits_cleanly_without_wal() {
    let (mut child, addr) = spawn_server(&["--port", "0", "--nodes", "8"]);
    let mut client = Client::connect(addr).expect("connect");
    submit_some(&mut client, 3);
    sigterm(&child);
    let status = child.wait().expect("wait");
    assert!(status.success(), "SIGTERM must exit 0, got {status:?}");
}

#[test]
fn sigterm_with_wal_lands_a_final_checkpoint() {
    let wal = tmp_dir("sigterm-wal");
    let wal_s = wal.display().to_string();
    let args = ["--port", "0", "--nodes", "8", "--wal", &wal_s];
    let (mut child, addr) = spawn_server(&args);
    let mut client = Client::connect(addr).expect("connect");
    submit_some(&mut client, 5);
    sigterm(&child);
    let status = child.wait().expect("wait");
    assert!(status.success(), "SIGTERM must exit 0, got {status:?}");

    // The shutdown checkpoint collapsed the log, and a restart resumes with
    // every acknowledged submission present.
    let (mut child2, addr2) = spawn_server(&args);
    let mut client2 = Client::connect(addr2).expect("reconnect");
    let stats = client2.stats().expect("stats");
    assert_eq!(
        stats.get("jobs_total").and_then(Json::as_u64),
        Some(5),
        "acknowledged submissions survive SIGTERM + restart"
    );
    let metrics = client2.metrics().expect("metrics");
    assert!(
        metrics.contains("sd_serve_recovered{mode=\"clean\"} 1"),
        "restart after graceful shutdown recovers clean"
    );
    assert!(
        metrics.contains("sd_serve_wal_records_replayed_total 0"),
        "the final checkpoint left nothing to replay:\n{metrics}"
    );
    client2.shutdown().expect("shutdown");
    let _ = child2.wait();
    let _ = std::fs::remove_dir_all(&wal);
}

#[test]
fn realtime_sigterm_with_wal_lands_a_final_checkpoint() {
    let wal = tmp_dir("realtime-wal");
    let wal_s = wal.display().to_string();
    let args = ["--port", "0", "--nodes", "8", "--mode", "realtime", "--compression", "600", "--wal", &wal_s];
    let (mut child, addr) = spawn_server(&args);
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..5 {
        let req = SubmitRequest {
            procs: 4,
            req_time: 600,
            run_time: 300,
            submit: None,
            malleable: None,
            trace_id: None,
            tenant: None,
            project: None,
        };
        client.submit(&req).expect("submit");
    }
    let clock = |stats: &Json| stats.get("now").and_then(Json::as_u64).expect("now");
    let before = clock(&client.stats().expect("stats"));
    sigterm(&child);
    let status = child.wait().expect("wait");
    assert!(status.success(), "SIGTERM must exit 0, got {status:?}");

    // The shutdown checkpoint covers the unlogged ticks: the restart resumes
    // the clock where it stopped, in realtime, with every submission.
    let (mut child2, addr2) = spawn_server(&args);
    let mut client2 = Client::connect(addr2).expect("reconnect");
    let stats = client2.stats().expect("stats");
    assert_eq!(stats.get("jobs_total").and_then(Json::as_u64), Some(5));
    let mode = stats.get("clock").and_then(|c| c.get("mode")).and_then(Json::as_str);
    assert_eq!(mode, Some("realtime"));
    assert!(clock(&stats) >= before, "the clock resumed at {} < {before}", clock(&stats));
    let metrics = client2.metrics().expect("metrics");
    assert!(metrics.contains("sd_serve_recovered{mode=\"clean\"} 1"), "{metrics}");
    assert!(
        metrics.contains("sd_serve_wal_records_replayed_total 0"),
        "the final checkpoint left nothing to replay:\n{metrics}"
    );
    client2.shutdown().expect("shutdown");
    let _ = child2.wait();
    let _ = std::fs::remove_dir_all(&wal);
}

#[test]
fn kill9_soak_recovers_bit_identically() {
    let jobs = workload::PaperWorkload::W3Ricc.generate(7, 0.02).jobs;
    assert!(jobs.len() > 50, "enough traffic to kill into");
    let wal = tmp_dir("soak");
    let report = soak::run(
        &jobs,
        &SoakOptions {
            cycles: 2,
            server_bin: server_bin(),
            server_args: vec!["--cluster".into(), "w3".into(), "--scale".into(), "0.02".into()],
            wal_dir: wal.clone(),
            seed: 11,
            rate: Some(5_000.0),
        },
    )
    .expect("soak campaign");
    assert_eq!(report.cycles, 2);
    assert_eq!(report.submitted, jobs.len() as u64);
    assert_eq!(
        report.recovered, report.reference,
        "kill -9 recovery diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&wal);
}
