//! Fuzz-style corpus of malformed wire input against a *live* server: every
//! entry must be answered with its pinned 4xx (or a clean close), the server
//! must never panic, and it must keep serving well-formed requests afterwards.

use drom::SharingFactor;
use sd_policy::SdPolicy;
use sd_serve::client::Client;
use sd_serve::engine::{ClockMode, Engine};
use sd_serve::server::{self, ServerConfig};
use slurm_sim::{IdealModel, SimState, SlurmConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

fn start_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let mut spec = cluster::ClusterSpec::ricc();
    spec.nodes = 8;
    let state = SimState::new_online(
        spec,
        SlurmConfig::default(),
        Box::new(IdealModel),
        SharingFactor::HALF,
    );
    let engine = Engine::new(state, Box::new(SdPolicy::default()), ClockMode::Virtual);
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().unwrap();
    let h = std::thread::spawn(move || {
        let _ = server::run(engine, listener, ServerConfig { workers: 2, ..Default::default() });
    });
    (addr, h)
}

/// Sends raw bytes, returns the response status line (empty = closed).
fn poke(addr: SocketAddr, payload: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = s.write_all(payload);
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    String::from_utf8_lossy(&buf)
        .lines()
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Each payload and the status it is answered with (`None`: a clean close).
const CORPUS: &[(&[u8], Option<u16>)] = &[
    (b"", None),
    (b"\r\n\r\n", Some(400)),
    (b"GARBAGE\r\n\r\n", Some(400)),
    (b"get /healthz HTTP/1.1\r\n\r\n", Some(400)),
    (b"GET healthz HTTP/1.1\r\n\r\n", Some(400)),
    (b"GET /healthz SPDY/3\r\n\r\n", Some(400)),
    (b"GET /healthz HTTP/1.1 bonus\r\n\r\n", Some(400)),
    (b"GET /healthz\r\n\r\n", Some(400)),
    (b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n", Some(400)),
    (b"POST /v1/jobs HTTP/1.1\r\ncontent-length: -5\r\n\r\n", Some(400)),
    (b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 99999999999999\r\n\r\n", Some(413)),
    (b"POST /v1/jobs HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", Some(400)),
    (b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 7\r\n\r\nnotjson", Some(400)),
    (b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}", Some(400)),
    (b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 22\r\n\r\n{\"procs\": \"sixteen\"}..", Some(400)),
    (b"POST /v1/clock/advance HTTP/1.1\r\ncontent-length: 11\r\n\r\n{\"to\": -10}", Some(400)),
    (b"GET /v1/jobs/not-a-number HTTP/1.1\r\n\r\n", Some(400)),
    (b"GET /v1/jobs/0 HTTP/1.1\r\n\r\n", Some(404)),
    (b"GET /totally/unknown HTTP/1.1\r\n\r\n", Some(404)),
    (b"PATCH /healthz HTTP/1.1\r\n\r\n", Some(405)),
    (b"DELETE /v1/drain HTTP/1.1\r\n\r\n", Some(405)),
    (b"\xff\xfe\xfd\xfc\r\n\r\n", Some(400)),
    (b"\x00\x01\x02\x03\x04\r\n\r\n", Some(400)),
    (b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 4\r\n\r\n[[[[", Some(400)),
    (b"GET /../../etc/passwd HTTP/1.1\r\n\r\n", Some(404)),
];

#[test]
fn malformed_input_always_4xx_never_a_crash() {
    let (addr, handle) = start_server();

    for (i, (payload, want)) in CORPUS.iter().enumerate() {
        let status = poke(addr, payload);
        let code = status.split(' ').nth(1).and_then(|c| c.parse::<u16>().ok());
        assert_eq!(
            code,
            *want,
            "corpus[{i}] {:?} answered {status:?}",
            String::from_utf8_lossy(payload)
        );
    }

    // Oversized header block (streamed, no Content-Length games).
    let mut big = Vec::from(&b"GET /healthz HTTP/1.1\r\n"[..]);
    for i in 0..4000 {
        big.extend_from_slice(format!("x-filler-{i}: {}\r\n", "y".repeat(20)).as_bytes());
    }
    big.extend_from_slice(b"\r\n");
    let status = poke(addr, &big);
    assert!(status.starts_with("HTTP/1.1 413"), "oversized head: {status:?}");

    // The server survived all of it and still works.
    let mut client = Client::connect(addr).expect("server still accepting");
    client.health().expect("healthz after the corpus");
    let res = client.shutdown().expect("clean shutdown");
    assert_eq!(res.outcomes.len(), 0);
    handle.join().expect("server thread did not panic");
}
