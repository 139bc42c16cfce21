//! # sd-policy — the Slowdown Driven scheduling policy
//!
//! The primary contribution of *"Holistic Slowdown Driven Scheduling and
//! Resource Management for Malleable Jobs"* (D'Amico, Jokanovic, Corbalan —
//! ICPP 2019), implemented against the `slurm-sim` substrate:
//!
//! * `policy` — Listing 1: the scheduling algorithm. For every queued job
//!   the static backfill trial runs first; when it fails, the policy
//!   estimates `static_end` (from the reservation profile) and `mall_end`
//!   (worst-case runtime model) and co-schedules the job onto shrunk *mates*
//!   only when the predicted slowdown improves.
//! * [`mates`] — Listing 2 / Eqs. 1–3: the NP-complete mate-selection
//!   problem and the paper's heuristic (the `nm` lowest-penalty candidates,
//!   combinations of at most `m` mates, Σ weights = W).
//! * [`penalty`] — Eq. 4: `p = (wait + increase + req)/req`.
//! * `maxsd` — the MAX_SLOWDOWN cut-off: static values (MAXSD 5/10/50/∞)
//!   and the feedback-driven `DynAVGSD` variant.
//! * [`models`] — §3.4: the ideal (Eq. 5) and worst-case (Eq. 6) runtime
//!   models (implementation shared with the simulator), plus closed-form
//!   helpers used to property-test the simulator's work integrator.
//!
//! ```
//! use sd_policy::{SdPolicy, SdPolicyConfig, MaxSlowdown};
//! use slurm_sim::{run_trace, SlurmConfig, WorstCaseModel};
//! use workload::PaperWorkload;
//! use drom::SharingFactor;
//!
//! let w = PaperWorkload::W3Ricc;
//! let trace = w.generate(42, 0.02);
//! let policy = SdPolicy::new(SdPolicyConfig {
//!     max_slowdown: MaxSlowdown::Static(10.0),
//!     ..SdPolicyConfig::default()
//! });
//! let result = run_trace(
//!     w.cluster(0.02),
//!     SlurmConfig::default(),
//!     &trace,
//!     Box::new(WorstCaseModel),
//!     SharingFactor::HALF,
//!     policy,
//! );
//! assert_eq!(result.leftover_pending, 0);
//! ```

mod config;
pub mod mates;
mod maxsd;
pub mod models;
pub mod penalty;
mod policy;

pub use config::SdPolicyConfig;
pub use maxsd::MaxSlowdown;
pub use policy::{MemoHits, SdPolicy};
