//! Every route pattern × every common method, plus ids that are not
//! integers, segments past a declared pattern and unknown paths: the status
//! and error body of each answer, pinned against a live server.

use drom::SharingFactor;
use sd_policy::SdPolicy;
use sd_serve::client::Client;
use sd_serve::engine::{ClockMode, Engine};
use sd_serve::server::{self, ServerConfig};
use slurm_sim::{IdealModel, SimState, SlurmConfig};

const METHODS: [&str; 5] = ["GET", "POST", "PUT", "DELETE", "PATCH"];

/// A status and, where the test pins it, the exact body.
type Answer = (u16, Option<&'static str>);

const OK: Answer = (200, None);
const NA: Answer = (405, Some(r#"{"error":"method not allowed for this path"}"#));
const NE: Answer = (404, Some(r#"{"error":"no such endpoint"}"#));
const BAD_ID: Answer = (400, Some(r#"{"error":"job id must be an integer"}"#));
const NO_JOB: Answer = (404, Some(r#"{"error":"no job with id 1"}"#));
const NO_BODY: Answer = (400, Some(r#"{"error":"JSON error at byte 0: unexpected end of input"}"#));

/// `(path, the answer to each of METHODS)`. The server is fresh and empty:
/// no job 1, no tracing, no SLOs.
const TABLE: &[(&str, [Answer; 5])] = &[
    ("/healthz", [(200, Some(r#"{"ok":true}"#)), NA, NA, NA, NA]),
    ("/metrics", [OK, NA, NA, NA, NA]),
    (
        "/v1/trace",
        [
            (404, Some(r#"{"error":"tracing is not enabled (start the server with --trace)"}"#)),
            NA,
            NA,
            NA,
            NA,
        ],
    ),
    ("/v1/logs", [OK, NA, NA, NA, NA]),
    (
        "/v1/slo",
        [(404, Some(r#"{"error":"no SLOs declared (start the server with --slo)"}"#)), NA, NA, NA, NA],
    ),
    ("/v1/profile", [OK, NA, NA, NA, NA]),
    ("/v1/stats", [OK, NA, NA, NA, NA]),
    ("/v1/cluster", [OK, NA, NA, NA, NA]),
    ("/v1/queue", [(200, Some(r#"{"pending":0,"head":[]}"#)), NA, NA, NA, NA]),
    ("/v1/jobs", [NA, NO_BODY, NA, NA, NA]),
    ("/v1/jobs/1", [NO_JOB, NA, NA, NO_JOB, NA]),
    ("/v1/jobs/1/cancel", [NA, NO_JOB, NA, NA, NA]),
    ("/v1/explain/1", [NO_JOB, NA, NA, NA, NA]),
    ("/v1/clock/advance", [NA, NO_BODY, NA, NA, NA]),
    ("/v1/drain", [NA, (200, Some(r#"{"now":0,"idle":true}"#)), NA, NA, NA]),
    ("/v1/result", [OK, NA, NA, NA, NA]),
    ("/v1/shutdown", [NA, OK, NA, NA, NA]),
    // Ids that are not integers: a 400 from the handler, so an undeclared
    // method is still a 405.
    ("/v1/jobs/x", [BAD_ID, NA, NA, BAD_ID, NA]),
    ("/v1/jobs/", [BAD_ID, NA, NA, BAD_ID, NA]),
    ("/v1/jobs/x/cancel", [NA, BAD_ID, NA, NA, NA]),
    ("/v1/explain/x", [BAD_ID, NA, NA, NA, NA]),
    // Segments past or inside a declared pattern: `{id}` is one segment.
    ("/v1/jobs/1/bogus", [NE, NE, NE, NE, NE]),
    ("/v1/jobs/1/cancel/x", [NE, NE, NE, NE, NE]),
    ("/v1/jobs/1/x/cancel", [NE, NE, NE, NE, NE]),
    ("/v1/jobs/x/bogus", [NE, NE, NE, NE, NE]),
    ("/v1/explain/1/x", [NE, NE, NE, NE, NE]),
    ("/healthz/", [NE, NE, NE, NE, NE]),
    // Unknown paths.
    ("/", [NE, NE, NE, NE, NE]),
    ("/nope", [NE, NE, NE, NE, NE]),
    ("/v1", [NE, NE, NE, NE, NE]),
    ("/v1/jobsx", [NE, NE, NE, NE, NE]),
    ("/v1/explain", [NE, NE, NE, NE, NE]),
];

#[test]
fn every_route_and_method_answers_its_pinned_status_and_error() {
    let mut spec = cluster::ClusterSpec::ricc();
    spec.nodes = 8;
    let state = SimState::new_online(
        spec,
        SlurmConfig::default(),
        Box::new(IdealModel),
        SharingFactor::HALF,
    );
    let engine = Engine::new(state, Box::new(SdPolicy::default()), ClockMode::Virtual);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let h = std::thread::spawn(move || {
        server::run(engine, listener, ServerConfig { workers: 2, ..Default::default() }).ok()
    });
    let mut client = Client::connect(addr).unwrap();

    // Every request but the one that stops the server, which goes last.
    let mut cases: Vec<(&str, &str, Answer)> = TABLE
        .iter()
        .flat_map(|(path, answers)| METHODS.iter().zip(answers).map(move |(m, a)| (*m, *path, *a)))
        .collect();
    cases.sort_by_key(|&(m, p, _)| (m, p) == ("POST", "/v1/shutdown"));
    let mut wrong = Vec::new();
    for (method, path, (status, body)) in cases {
        let (got, bytes) = client.request(method, path, None).unwrap();
        let text = String::from_utf8_lossy(&bytes);
        if got != status || body.is_some_and(|b| b != text) {
            wrong.push(format!("{method} {path}: {got} {text}"));
        }
    }
    assert!(wrong.is_empty(), "answers off the table:\n{}", wrong.join("\n"));
    h.join().unwrap().expect("the last request shut the server down");
}

/// The table covers `ROUTES`: on each pattern (`{id}` = 1), exactly the
/// declared methods reach a handler and every other one is a 405.
#[test]
fn the_table_covers_every_route() {
    for route in &server::ROUTES {
        assert!(METHODS.contains(&route.method), "{} {}", route.method, route.path);
        let path = route.path.replace("{id}", "1");
        let Some((_, answers)) = TABLE.iter().find(|(p, _)| *p == path) else {
            panic!("{path} is not in the table");
        };
        for (method, answer) in METHODS.iter().zip(answers) {
            let declared = server::ROUTES.iter().any(|r| r.path == route.path && r.method == *method);
            assert_eq!(declared, *answer != NA, "{method} {path}");
        }
    }
}
