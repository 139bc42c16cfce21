//! # sd-scenario — declarative experiments for the SD-Policy reproduction
//!
//! Experiments as *data*, not code: a scenario file declares the machine,
//! the workload source and its knobs, the policy and MAXSD variant, the
//! runtime model, SLURM-side configuration, and sweep axes whose
//! cross-product becomes a campaign. The `run_scenario` binary in
//! `sd-bench` executes campaigns over scoped worker threads and exports
//! deterministic JSON/CSV.
//!
//! * [`format`](mod@format) — the tiny section/key-value text format (line-precise
//!   errors, no dependencies),
//! * `scenario` — the typed [`Scenario`] model and [`KEYS`], the table
//!   that declares each key of the format once: parse, validate, render
//!   (`parse(render(s)) == s`) and sweep validation all loop over it,
//! * [`compile`] — sweep expansion into [`RunPoint`]s, execution through
//!   the simulator, and [`run_key`], what tells two runs apart,
//! * `registry` — built-in scenarios: the `.scn` files under `scenarios/`
//!   (the paper's workloads, figures and tables, the ablation study, and
//!   bursty / diurnal / mixed-malleability / oversubscription / tenant-mix
//!   studies),
//! * `campaign` — `.campaign` files naming several scenarios to run as one,
//! * [`cli`] — the binaries' command-line flags as rows: one parser, one
//!   usage renderer, and the value rules their rows share.
//!
//! ```
//! use sd_scenario::{expand, execute, Scenario};
//!
//! let text = "\
//! [scenario]
//! name = quick
//! scale = 0.02
//!
//! [workload]
//! source = ricc
//! batch_p = 0.6
//!
//! [slurm]
//! malleable_fraction = 0.5
//! ";
//! let scenario = Scenario::parse(text).unwrap();
//! assert_eq!(Scenario::parse(&scenario.render()).unwrap(), scenario);
//! let points = expand(&scenario);
//! assert_eq!(points.len(), 1);
//! let outcome = execute(&points[0]).unwrap();
//! assert_eq!(outcome.result.leftover_pending, 0);
//! ```

mod campaign;
pub mod cli;
pub mod compile;
pub mod format;
mod registry;
mod scenario;

pub use campaign::Campaign;
pub use compile::{
    baseline_point, execute, execute_traced, expand, run_key, RunError, RunPoint, ScenarioOutcome,
};
pub use format::ParseError;
pub use registry::{builtin_scenarios, find_builtin};
pub use scenario::{
    axis_key, find_key, ArrivalKind, BackfillDecl, ClusterDecl, ClusterPreset, Key, MaxSdDecl,
    ModelDecl, PolicyDecl, PolicyKindDecl, Scenario, SlurmDecl, SourceKind, SweepDecl,
    TenantQueueDecl, TenantsDecl, Vocab, WorkloadDecl, AXES, KEYS,
};
