//! # sd-sched — Slowdown Driven Scheduling for Malleable Jobs
//!
//! A from-scratch Rust reproduction of *"Holistic Slowdown Driven Scheduling
//! and Resource Management for Malleable Jobs"* (D'Amico, Jokanovic,
//! Corbalan — ICPP 2019): the SD-Policy scheduler, the SLURM-like simulator
//! it runs in, the DROM node-level malleability substrate, the workload
//! models of the paper's evaluation, and a harness regenerating every table
//! and figure.
//!
//! This umbrella crate re-exports the workspace members; see README.md for
//! the architecture and DESIGN.md for the paper↔code map.
//!
//! ```
//! use sd_sched::prelude::*;
//!
//! // Generate a small RICC-like workload and compare policies.
//! let workload = PaperWorkload::W3Ricc;
//! let trace = workload.generate(/*seed*/ 7, /*scale*/ 0.02);
//! let cluster = workload.cluster(0.02);
//!
//! let baseline = run_trace(
//!     cluster.clone(),
//!     SlurmConfig::default(),
//!     &trace,
//!     Box::new(IdealModel),
//!     SharingFactor::HALF,
//!     StaticBackfill,
//! );
//! let sd = run_trace(
//!     cluster,
//!     SlurmConfig::default(),
//!     &trace,
//!     Box::new(IdealModel),
//!     SharingFactor::HALF,
//!     SdPolicy::default(),
//! );
//! assert!(sd.mean_slowdown() <= baseline.mean_slowdown() * 1.05);
//! ```

pub use cluster;
pub use drom;
pub use sched_metrics;
pub use sd_policy;
pub use sd_scenario;
pub use simkit;
pub use slurm_sim;
pub use swf;
pub use workload;

/// The most common imports for downstream users.
pub mod prelude {
    pub use cluster::{ClusterSpec, ClusterState, CpuMask, JobId, NodeId};
    pub use drom::{DromRegistry, NodeManager, SharingFactor};
    pub use sched_metrics::{
        tenant_summaries, DailySeries, Heatmap, RatioHeatmap, Summary, TenantSummary,
    };
    pub use sd_policy::{MaxSlowdown, SdPolicy, SdPolicyConfig};
    pub use sd_scenario::{builtin_scenarios, execute, expand, Scenario, SourceKind};
    pub use simkit::{DetRng, SimTime};
    pub use slurm_sim::{
        run_trace, AppAwareModel, Controller, IdealModel, QueuePolicy, Quota, Scheduler,
        SimResult, SimState, SlurmConfig, StaticBackfill, Tenant, TenantRegistry, WorstCaseModel,
    };
    pub use swf::{SwfJob, Trace};
    pub use workload::{AppTrace, PaperWorkload};
}
