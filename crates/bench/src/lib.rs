//! # sd-bench — the experiment harness
//!
//! Two binaries. `run_scenario` executes declarative `sd-scenario` files
//! and campaigns — every table and figure of the paper is a shipped file
//! under `scenarios/` (DESIGN.md §7 has the index) — and `sd_validate`
//! checks the paper's claims against the static baseline. This library
//! holds what they share:
//!
//! * `runner` — the parallel, order-preserving worker pool and the
//!   `--threads` cap both binaries give it,
//! * [`validate`] — the paper-expectations harness behind `sd_validate`.

mod runner;
pub mod validate;

pub use runner::{sweep_with, thread_cap};
