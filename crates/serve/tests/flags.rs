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
        // A refused value stops the server before it binds; one that binds
        // anyway is shut down and reported.
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
        if (status.code(), first.trim_end()) != (Some(2), msg) {
            wrong.push(format!("{args:?}: exit {:?}, {first:?}", status.code()));
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
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
