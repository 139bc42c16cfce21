//! # drom — Dynamic Resource Ownership Management substrate
//!
//! Re-implementation of the DROM interface (D'Amico et al., ICPP'18 — the
//! paper's reference \[5\]) that SD-Policy uses for node-level malleability:
//!
//! * [`node`] — the node table, one record per node holding its residents
//!   inline and its predicted release, plus the idle-node index and the
//!   busy-core count, implementing the paper's Listing 3: shrink a resident
//!   on a co-launch, return cores to their owner at job end, redistribute
//!   when an owner finishes first,
//! * [`registry`] — the DROM "space" as a view of that table: malleable
//!   residents register, and expose their handles and CPU masks,
//! * `sharing` — the `SharingFactor` rule: how many cores a running job can
//!   lose on a shared node, floored at one core per MPI rank,
//! * `distribution` — pure core-distribution algorithms (socket-isolated,
//!   balanced) the table uses to compute task→core affinities.
//!
//! The real DROM talks to OpenMP/OmpSs runtimes via shared memory; here the
//! "applications" are simulated jobs, so a mask change is applied at the next
//! malleability point, which the simulator reaches instantaneously (the
//! measured DROM overhead is negligible — paper §2.1).

mod distribution;
pub mod node;
pub mod registry;
mod sharing;

pub use node::{NodeRecord, NodeTable, NodeUpdate, Resident, Vacated};
pub use registry::{DromHandle, ProcessEntry};
pub use sharing::SharingFactor;
