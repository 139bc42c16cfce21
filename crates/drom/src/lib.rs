//! # drom — Dynamic Resource Ownership Management substrate
//!
//! Re-implementation of the DROM interface (D'Amico et al., ICPP'18 — the
//! paper's reference \[5\]) that SD-Policy uses for node-level malleability:
//!
//! * [`registry`] — the DROM "space": processes register, expose their CPU
//!   masks, and pick up pending mask changes at *malleability points*,
//! * `sharing` — the `SharingFactor` rule: how many cores a running job can
//!   lose on a shared node, floored at one core per MPI rank,
//! * `distribution` — pure core-distribution algorithms (socket-isolated,
//!   balanced) used by the node manager to compute task→core affinities,
//! * [`node`] — the per-node manager implementing the paper's Listing 3:
//!   shrink residents on a co-launch, return cores to their owner at job end,
//!   redistribute when an owner finishes first.
//!
//! The real DROM talks to OpenMP/OmpSs runtimes via shared memory; here the
//! "applications" are simulated jobs, so a mask change is applied at the next
//! malleability point, which the simulator reaches instantaneously (the
//! measured DROM overhead is negligible — paper §2.1).

mod distribution;
pub mod node;
pub mod registry;
mod sharing;

pub use node::{NodeManager, NodeUpdate};
pub use registry::{DromHandle, DromRegistry, ProcessEntry};
pub use sharing::SharingFactor;
