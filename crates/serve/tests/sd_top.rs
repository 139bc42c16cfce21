//! `sd-top` draws what the server reports: its utilisation bar divides the
//! busy cores by the machine's real core count from `/v1/stats`.

use sd_serve::proto::SubmitRequest;
use sd_serve::{Client, Json};
use std::io::{BufRead as _, BufReader};
use std::process::{Command, Stdio};

#[test]
fn utilisation_bar_uses_the_servers_cores_per_node() {
    // W4's machine has 16-core nodes: a bar that assumed 8 would read full
    // at half load.
    let mut server = Command::new(env!("CARGO_BIN_EXE_sd_serve"))
        .args(["--port", "0", "--cluster", "w4", "--scale", "0.05"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sd_serve");
    let mut first = String::new();
    BufReader::new(server.stdout.take().expect("stdout piped"))
        .read_line(&mut first)
        .expect("read stdout");
    let addr = first.trim().strip_prefix("sd-serve listening on ").expect("listen line");
    let mut client = Client::connect(addr.parse().expect("address")).expect("connect");

    let cluster = |client: &mut Client| {
        let (status, body) = client.request("GET", "/v1/cluster", None).expect("GET /v1/cluster");
        assert_eq!(status, 200);
        let body = Json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("JSON");
        let get = |key| body.get(key).and_then(Json::as_u64).expect(key);
        (get("nodes"), get("cores_per_node"), get("busy_cores"))
    };
    let (nodes, per_node, _) = cluster(&mut client);
    assert_eq!(per_node, 16);
    let cores = nodes * per_node;
    let job = SubmitRequest {
        procs: cores / 2,
        req_time: 1000,
        run_time: 1000,
        submit: Some(0),
        malleable: Some(false),
        trace_id: None,
        tenant: None,
        project: None,
    };
    client.submit(&job).expect("submit");
    client.advance(1).expect("advance");
    assert_eq!(cluster(&mut client).2, cores / 2, "the job holds half the cores");

    let top = Command::new(env!("CARGO_BIN_EXE_sd_top"))
        .args(["--addr", addr, "--once"])
        .output()
        .expect("run sd_top");
    client.shutdown().expect("shutdown");
    assert!(server.wait().expect("wait").success());
    assert!(top.status.success());
    let frame = String::from_utf8(top.stdout).expect("utf-8");
    let line = frame.lines().find(|l| l.starts_with("cluster")).expect("a cluster line");
    let bar = &line[line.find('[').expect("a bar")..];
    assert_eq!(bar.matches('#').count(), 10, "half of a 20-wide bar: {line}");
}
