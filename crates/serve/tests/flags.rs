//! `sd-serve`'s machine and policy flags are rows of `sd_scenario::KEYS`.
//! A value the `.scn` parser refuses is refused here too, exit 2 with the
//! row's message; every flag set accepted before builds the machine it
//! always did, pinned as the startup `machine:` line and `GET /v1/cluster`.

use sd_serve::Client;
use std::io::{BufRead as _, BufReader};
use std::process::{Command, Stdio};

fn sd_serve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sd_serve"))
}

/// Starts the server with `args`: its exit code and first stdout line. A
/// refused value stops it before it binds; one that binds anyway is shut
/// down, and its listen line reported.
fn start(args: &[&str]) -> (Option<i32>, String) {
    let mut child = sd_serve()
        .args(["--port", "0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sd_serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read stdout");
    if let Some(addr) = first.trim().strip_prefix("sd-serve listening on ") {
        let mut client = Client::connect(addr.parse().expect("address")).expect("connect");
        client.shutdown().expect("shutdown");
    }
    std::io::copy(&mut stdout, &mut std::io::sink()).expect("drain stdout");
    let status = child.wait().expect("wait");
    (status.code(), first.trim_end().to_string())
}

#[test]
fn values_the_scn_parser_refuses_exit_2_with_the_rows_message() {
    let cases: [(&[&str], &str); 6] = [
        (&["--nodes", "0"], "bad --nodes: `nodes` must be at least 1, got 0"),
        (&["--scale", "0"], "bad --scale: `scale` must be > 0, got 0"),
        (&["--scale", "-1"], "bad --scale: `scale` must be > 0, got -1"),
        (&["--maxsd", "0.5"], "bad --maxsd: `maxsd` must be a number > 1, `inf` or `dyn`, got 0.5"),
        (&["--maxsd", "nan"], "bad --maxsd: `maxsd` must be a number > 1, `inf` or `dyn`, got nan"),
        (&["--sharing", "1"], "bad --sharing: `sharing` must be in [0, 1), got 1"),
    ];
    let mut wrong = Vec::new();
    for (args, msg) in cases {
        let got = start(args);
        if got != (Some(2), msg.to_string()) {
            wrong.push(format!("{args:?}: exit {:?}, {:?}", got.0, got.1));
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}

#[test]
fn a_compression_the_clock_cannot_follow_exits_2() {
    // An infinite compression would pin the realtime clock at its cap.
    for v in ["inf", "-inf", "nan", "0", "-1"] {
        let want = (Some(2), "--compression must be a finite number > 0".to_string());
        assert_eq!(start(&["--mode", "realtime", "--compression", v]), want, "{v}");
    }
}

/// Runs `bin` with `args` to completion: exit code and first stdout line.
fn refusal(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("run");
    let first = String::from_utf8_lossy(&out.stdout).lines().next().unwrap_or("").to_string();
    (out.status.code(), first)
}

#[test]
fn workload_words_and_loadgen_flags_come_from_the_same_tables() {
    let serve = env!("CARGO_BIN_EXE_sd_serve");
    let loadgen = env!("CARGO_BIN_EXE_sd_loadgen");
    let presets = "(auto|mn4|ricc|curie|mn4_real_run), or a workload's machine (w1|w2|w3|w4)";
    assert_eq!(
        refusal(serve, &["--cluster", "w5"]),
        (Some(2), format!("bad --cluster: `preset`: unknown value `w5` {presets}"))
    );
    assert_eq!(
        refusal(loadgen, &["--workload", "w5"]),
        (Some(2), "unknown --workload w5 (w1|w2|w3|w4)".to_string())
    );
    assert_eq!(
        refusal(loadgen, &["--scale", "0"]),
        (Some(2), "bad --scale: `scale` must be > 0, got 0".to_string())
    );
    assert_eq!(
        refusal(loadgen, &["--seed", "-7"]),
        (Some(2), "bad --seed: `seed`: not an integer: -7".to_string())
    );
}

/// The server `args` start, seen from outside: its `machine:` log line and
/// the `GET /v1/cluster` body.
fn machine(args: &[&str]) -> (String, String) {
    let mut child = sd_serve()
        .args(["--port", "0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sd_serve");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut first)
        .expect("read stdout");
    let addr = first.trim().strip_prefix("sd-serve listening on ").expect("listen line");
    // The log echo stays open until the server exits.
    let mut log = BufReader::new(child.stderr.take().expect("stderr piped")).lines();
    let line = log.by_ref().map(|l| l.expect("read stderr")).find(|l| l.contains("machine:"));
    let mut client = Client::connect(addr.parse().expect("address")).expect("connect");
    let (status, body) = client.request("GET", "/v1/cluster", None).expect("GET /v1/cluster");
    assert_eq!(status, 200);
    client.shutdown().expect("shutdown");
    assert!(child.wait().expect("wait").success());
    drop(log);
    (line.expect("a machine: line"), String::from_utf8(body).expect("utf-8"))
}

#[test]
fn accepted_flags_build_the_same_machine() {
    // (flags, nodes, cores per node, policy), as the hand-written flag
    // parser the key rows replaced built them.
    let pins: [(&[&str], u32, u32, &str); 6] = [
        (&[], 51, 8, "sd"),
        (&["--cluster", "w3", "--scale", "0.02"], 20, 8, "sd"),
        (&["--cluster", "w4", "--scale", "0.05", "--policy", "static"], 252, 16, "static"),
        (&["--cluster", "ricc"], 1024, 8, "sd"),
        (&["--nodes", "8"], 8, 8, "sd"),
        (&["--maxsd", "inf", "--model", "worst_case"], 51, 8, "sd"),
    ];
    let mut wrong = Vec::new();
    for (args, n, c, policy) in pins {
        let want = (
            format!("[info serve] machine: {n} × {c}-core nodes | policy: {policy} | clock: Virtual | workers: 4"),
            format!(r#"{{"nodes":{n},"cores_per_node":{c},"busy_cores":0,"empty_nodes":{n},"running":0}}"#),
        );
        let got = machine(args);
        if got != want {
            wrong.push(format!("{args:?}: {got:?}"));
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}

/// The flags a usage lists, in order, each with whether it takes a value
/// (a `<hint>` follows it).
fn listed(usage: &str) -> Vec<(String, bool)> {
    let rows = usage.lines().filter(|l| l.starts_with("  -"));
    rows.map(|l| {
        let mut words = l.split_whitespace();
        let flag = words.next().expect("a flag").trim_end_matches(',');
        (flag.to_string(), words.next().is_some_and(|w| w.starts_with('<')))
    })
    .collect()
}

#[test]
fn every_service_binary_refuses_alike_and_its_help_lists_every_flag() {
    let serve: (&str, &[&str], &[&str]) = (
        env!("CARGO_BIN_EXE_sd_serve"),
        &[
            "--port", "--workers", "--mode", "--compression", "--cluster", "--scale", "--nodes",
            "--policy", "--maxsd", "--model", "--sharing", "--malleable-fraction",
            "--tenant-rate", "--trace-capacity", "--wal", "--checkpoint-every", "--wal-fsync",
            "--log-level", "--log-json", "--slo",
        ],
        &["--trace"],
    );
    let loadgen: (&str, &[&str], &[&str]) = (
        env!("CARGO_BIN_EXE_sd_loadgen"),
        &[
            "--addr", "--workload", "--scale", "--seed", "--swf", "--jobs", "--tenants", "--rate",
            "--min-rate", "--expect-completed", "--latency-out", "--max-retries", "--soak",
            "--soak-wal", "--server-bin",
        ],
        &["--no-timestamps", "--no-drain", "--shutdown", "--slo-gate"],
    );
    let top: (&str, &[&str], &[&str]) =
        (env!("CARGO_BIN_EXE_sd_top"), &["--addr", "--interval", "--frames"], &["--once"]);
    let unknown = |flag: &str| (Some(2), format!("unknown flag: {flag}"));
    for (bin, values, switches) in [serve, loadgen, top] {
        assert_eq!(refusal(bin, &["--bogus"]), unknown("--bogus"), "{bin}");
        assert_eq!(refusal(bin, &["--bogus", "--help"]), unknown("--bogus"), "{bin}");
        for flag in values {
            assert_eq!(refusal(bin, &[flag]), (Some(2), format!("{flag} needs a value")), "{bin}");
        }
        // A switch is accepted: the refusal is of what follows it.
        for flag in switches {
            assert_eq!(refusal(bin, &[flag, "--bogus"]), unknown("--bogus"), "{bin} {flag}");
        }
        let mut want: Vec<(String, bool)> = (values.iter().map(|f| (f.to_string(), true)))
            .chain(switches.iter().map(|f| (f.to_string(), false)))
            .collect();
        want.push(("--help".to_string(), false));
        want.sort();
        for help in [&["--help"][..], &["-h"], &["--help", "--bogus"]] {
            let out = Command::new(bin).args(help).output().expect("run");
            assert_eq!(out.status.code(), Some(0), "{bin} {help:?}");
            let mut got = listed(&String::from_utf8_lossy(&out.stdout));
            got.sort();
            assert_eq!(got, want, "{bin} {help:?}");
        }
    }
}
