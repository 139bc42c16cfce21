//! Heap allocations per served round trip, counted by a `#[global_allocator]`
//! with one tally per thread, on one kept-alive connection in steady state.
//!
//! A connection keeps its `Request` and output buffer, heads are parsed in
//! place, and `Client` renders into a kept buffer, so a read allocates only
//! its reply body: once on the worker (the body it renders) and once inside
//! `Client::request` (the body it returns). A submit's and each big read's
//! worker-side counts are pinned exactly, so a new allocation on those
//! paths shows up here — a body that outgrows its first buffer among them.
//! The tally also keeps each thread's largest request, which shows that a
//! forged `content-length` buys no allocation of its size.
//!
//! One test function on purpose: the worker's tally is found as the one
//! thread other than the client's that allocated during a request, which
//! needs no other server running in this process. Run it in release too (CI
//! does): the counts must hold in the profile the benchmark measures.

use drom::SharingFactor;
use sd_serve::client::Client;
use sd_serve::engine::{ClockMode, Engine};
use sd_serve::http::{self, HttpError};
use sd_serve::proto::SubmitRequest;
use sd_serve::server::{self, ServerConfig};
use slurm_sim::{IdealModel, SimState, SlurmConfig, StaticBackfill};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Threads past this many share the last tally.
const SLOTS: usize = 64;
static TALLIES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
/// Per thread, the largest size an allocation asked for.
static LARGEST: [AtomicUsize; SLOTS] = [const { AtomicUsize::new(0) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's index into `TALLIES`; claimed at its first allocation.
    /// A `const` cell without a destructor: reading it never allocates.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Counts every `alloc`, `alloc_zeroed` and `realloc` on the calling thread.
struct Counting;

fn slot() -> usize {
    SLOT.try_with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SLOTS - 1));
        }
        s.get()
    })
    .unwrap_or(SLOTS - 1)
}

fn tally(size: usize) {
    let slot = slot();
    TALLIES[slot].fetch_add(1, Ordering::Relaxed);
    LARGEST[slot].fetch_max(size, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn tallies() -> Vec<u64> {
    TALLIES.iter().map(|t| t.load(Ordering::Relaxed)).collect()
}

/// One request's allocations: on the client thread inside `Client::request`,
/// and on each other thread that allocated since the previous request
/// returned. In steady state that is one thread, the worker: everything it
/// does for a request — parse, dispatch, reply — happens after the previous
/// reply reached the client and before this one does.
fn counted(client: &mut Client, method: &str, path: &str, body: Option<&sd_serve::Json>) -> (u64, Vec<u64>) {
    let me = slot();
    let before = tallies();
    let mine = TALLIES[me].load(Ordering::Relaxed);
    let (status, _) = client.request(method, path, body).expect("request answered");
    let in_request = TALLIES[me].load(Ordering::Relaxed) - mine;
    let after = tallies();
    assert!((200..300).contains(&status), "{method} {path}: {status}");
    let others = (0..SLOTS).filter(|&i| i != me && after[i] != before[i]);
    (in_request, others.map(|i| after[i] - before[i]).collect())
}

fn submit(at: u64) -> sd_serve::Json {
    SubmitRequest {
        procs: 16,
        req_time: 200,
        run_time: 100,
        submit: Some(at),
        malleable: None,
        trace_id: None,
        tenant: Some(at % TENANTS),
        project: None,
    }
    .encode()
}

/// The allocation counts `(client, worker)` of `rounds` requests after a
/// warm-up (in which the server may still be starting its threads), sorted
/// by worker count.
fn steady(client: &mut Client, method: &str, path: &str, body: impl Fn(u64) -> Option<sd_serve::Json>, rounds: u64) -> Vec<(u64, u64)> {
    for i in 0..8 {
        counted(client, method, path, body(i).as_ref());
    }
    let mut counts: Vec<(u64, u64)> = (8..8 + rounds)
        .map(|i| {
            let (in_client, others) = counted(client, method, path, body(i).as_ref());
            assert!(others.len() <= 1, "{method} {path}: more than the worker allocated: {others:?}");
            (in_client, others.first().copied().unwrap_or(0))
        })
        .collect();
    counts.sort_by_key(|&(_, worker)| worker);
    counts
}

#[test]
fn a_steady_state_read_allocates_only_its_reply_body() {
    // A reply that announces 256 MiB and then ends: a disconnect, and the
    // body buffer never asked for more than a request body's cap.
    let forged = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{{\"a\":", 256 << 20);
    let mut reader = std::io::Cursor::new(forged.into_bytes());
    LARGEST[slot()].store(0, Ordering::Relaxed);
    assert_eq!(http::read_response(&mut reader), Err(HttpError::Disconnected));
    let largest = LARGEST[slot()].load(Ordering::Relaxed);
    assert!(largest <= http::MAX_BODY_BYTES, "a forged length allocated {largest} bytes");

    let mut spec = cluster::ClusterSpec::ricc();
    spec.nodes = 8;
    let state = SimState::new_online(spec, SlurmConfig::default(), Box::new(IdealModel), SharingFactor::HALF);
    let engine = Engine::new(state, Box::new(StaticBackfill), ClockMode::Virtual);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let cfg = ServerConfig { workers: 1, ..Default::default() };
        server::run(engine, listener, cfg).ok()
    });
    let mut client = Client::connect(addr).unwrap();

    // Submits first: they leave jobs to read. Pinned exactly at the median
    // (a job table's amortised growth adds one now and then).
    let submits = steady(&mut client, "POST", "/v1/jobs", |i| Some(submit(i)), 33);
    let (_, median) = submits[submits.len() / 2];
    assert_eq!(median, SUBMIT_ALLOCS, "POST /v1/jobs worker-side allocations: {submits:?}");
    // Four jobs done (job 3 among them), four running, the rest queued.
    client.advance(150).unwrap();

    for path in ["/healthz", "/v1/jobs/3"] {
        for (in_client, on_worker) in steady(&mut client, "GET", path, |_| None, 32) {
            assert!(in_client <= 1, "GET {path}: {in_client} allocations in Client::request");
            assert!(on_worker <= 1, "GET {path}: {on_worker} allocations on the worker");
        }
    }

    // The big replies: each body starts at its size, so neither end grows it.
    for (path, pinned) in [("/v1/stats", STATS_ALLOCS), ("/metrics", METRICS_ALLOCS), ("/v1/queue", QUEUE_ALLOCS)] {
        for (in_client, on_worker) in steady(&mut client, "GET", path, |_| None, 16) {
            assert_eq!(in_client, 1, "GET {path}: allocations in Client::request");
            assert_eq!(on_worker, pinned, "GET {path}: allocations on the worker");
        }
    }

    client.shutdown().unwrap();
    server.join().unwrap().expect("served to the end");
}

/// What one steady-state `POST /v1/jobs` allocates on the worker: the
/// body's JSON tree and the decoded request, the job the engine admits, and
/// the ack.
const SUBMIT_ALLOCS: u64 = 10;

/// The tenants the submits cycle through; the warm-up has met them all.
const TENANTS: u64 = 4;

/// What one steady-state `GET /v1/stats` allocates on the worker: the
/// snapshot's copies (the tenant rows, built through a `BTreeMap`, the wait
/// histogram and the probe table) and the body.
const STATS_ALLOCS: u64 = 7;

/// `GET /metrics`: the snapshot's and the body.
const METRICS_ALLOCS: u64 = 7;

/// `GET /v1/queue`: the queue head and the body.
const QUEUE_ALLOCS: u64 = 2;
