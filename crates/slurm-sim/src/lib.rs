//! # slurm-sim — a SLURM-like workload-manager simulator
//!
//! Event-driven re-implementation of the scheduling-relevant surface of
//! SLURM plus the BSC SLURM simulator the paper evaluates with:
//!
//! * `controller` — slurmctld's main loop: event batching, scheduler
//!   invocation, result collection,
//! * [`state`] — the machine ground truth and the primitive operations
//!   (static start, malleable co-schedule, completion with owner-return),
//! * `backfill` — the shared backfill pass and the **static-backfill
//!   baseline** every experiment normalises against,
//! * `reservation` — the availability profile ("map of job reservations in
//!   time", §3.1), the release tally it is built from and the
//!   incrementally maintained availability cache,
//! * [`rate`] — pluggable malleable-runtime models (paper Eq. 5/6 and the
//!   app-behaviour model for the real-run reproduction),
//! * [`tenant`] — multi-tenant identities, quotas and the fair-share queue
//!   order enforced inside the backfill pass,
//! * [`timing`] — opt-in per-function hot-path timing attribution, and
//!   `profile`, its folded-stack renderer (`timing::collapsed`),
//! * `job`, `queue`, `config`, `result` — supporting types.
//!
//! The SD-Policy itself lives in the `sd-policy` crate and plugs in through
//! the [`Scheduler`] trait and the `flexible` hook of
//! [`backfill::backfill_pass`].

mod backfill;
mod config;
mod controller;
mod job;
mod profile;
mod queue;
pub mod rate;
pub mod replay;
mod reservation;
mod result;
pub mod state;
pub mod tenant;
pub mod timing;

pub use backfill::{backfill_pass, Scheduler, StaticBackfill, StaticEst};
pub use config::{BackfillMode, SlurmConfig};
pub use controller::{run_trace, Controller};
pub use job::{Job, JobOutcome, JobSpec, JobState, RunningJob};
pub use queue::{PendingQueue, QueueEntry};
pub use rate::{AppAwareModel, IdealModel, RateInputs, RateModel, WorstCaseModel};
pub use reservation::{Profile, ReleaseMap};
pub use result::SimResult;
pub use state::{
    weights_cover, CoScheduleError, DirtyFlags, Event, MateEntry, SimState, SimStats, SubmitError,
};
pub use tenant::{QueuePolicy, Quota, Tenant, TenantRegistry, TenantUsage, NO_TENANT_SLOT};
// Decision tracing (DESIGN.md §12) — re-exported so downstream crates can
// attach rings and decode events without a direct `sd-trace` dependency.
pub use sd_trace::{
    chrome_trace, render_virtual, FieldVal, RejectReason, TraceEvent, TraceKind, TraceRing,
    TraceSink, TraceTail,
};
