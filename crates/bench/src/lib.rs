//! # sd-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §5 for the
//! index). This library holds the shared machinery:
//!
//! * [`runner`] — configure + execute a simulation (workload × policy ×
//!   runtime model × scale) and parallel sweeps over configurations,
//! * [`cli`] — the tiny flag parser shared by the binaries
//!   (`--scale`, `--seed`, `--full`, `--swf <file>`, `--threads`, `--out`),
//! * [`validate`] — the paper-expectations harness behind the
//!   `sd_validate` binary (machine-checkable claims vs the static baseline).
//!
//! Every binary prints the paper's rows/series next to the measured values
//! so EXPERIMENTS.md can record paper-vs-measured directly. The
//! `run_scenario` binary goes beyond the paper: it executes declarative
//! `sd-scenario` files/campaigns over the same [`runner::sweep_with`] pool.

pub mod cli;
pub mod runner;
pub mod validate;

pub use cli::{CliArgs, CliError, USAGE};
pub use runner::{
    default_scale, run_config, sweep, sweep_with, ModelKind, PolicyKind, RunConfig,
};
