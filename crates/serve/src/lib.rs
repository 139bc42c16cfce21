//! # sd-serve — the scheduler as an online service
//!
//! Wraps `slurm-sim`'s controller + the SD-Policy behind a dependency-free
//! HTTP/1.1 + JSON API over `std::net` (DESIGN.md §10):
//!
//! * [`http`] / [`json`] / [`proto`] — the wire: framing, values, typed
//!   request/response encodings (all round-trip, floats bit-for-bit),
//! * [`engine`] — the scheduler's state machine over one **deterministic
//!   virtual clock** (a scripted session is bit-identical to the offline
//!   replay — `tests/serve_equivalence.rs`), moved by clients or, in
//!   **real-time mode**, by the server's ticker at a compression factor,
//! * [`server`] — bounded `std::thread::scope` worker pool calling the
//!   engine under one lock (one writer at a time, no locks inside the
//!   hot path), and the realtime ticker,
//! * [`metrics`] — one row table of the engine snapshot's numbers, rendered
//!   as `/v1/stats`, `/v1/cluster` and the Prometheus exposition,
//! * [`client`] / [`loadgen`] — the loopback client and the `sd-loadgen`
//!   traffic replayer (throughput, latency percentiles, metric deltas),
//! * [`durable`] / [`signals`] / [`soak`] — crash tolerance (DESIGN.md §14):
//!   WAL + checkpoint codecs over `sd-durable`, the SIGTERM/SIGINT latch,
//!   and the `sd-loadgen --soak` kill -9 chaos harness that proves
//!   recovery ≡ never crashed end to end.

pub mod client;
pub mod durable;
pub mod engine;
pub mod http;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod signals;
pub mod soak;

pub use client::{Client, ClientError};
pub use engine::{ClockMode, Command, Engine, EngineError, ExplainView, Snapshot, WalStatus};
pub use sd_durable::FsyncPolicy;
pub use json::Json;
pub use metrics::ServeHistograms;
pub use proto::SubmitRequest;
pub use server::{run, ServerConfig};
