//! # cluster — hardware model of an HPC machine
//!
//! Substrate for the scheduler: node/socket/core topology, whole-cluster
//! capacity accounting, and the power/energy model used to reproduce the
//! paper's energy results.
//!
//! Responsibilities are split by altitude:
//!
//! * [`spec`] — immutable machine description ([`NodeSpec`], [`ClusterSpec`])
//!   with presets for the machines in the paper (MareNostrum4, CEA Curie,
//!   RICC, and the Cirne-model system),
//! * [`cpumask`] — per-core bitmask used at node level by the DROM substrate,
//! * [`state`] — dynamic occupancy: which job holds how many cores on which
//!   node ([`ClusterState`]), the ground truth the scheduler works against,
//! * `power` — energy integration over occupancy changes ([`EnergyMeter`]).
//!
//! Core *counts* live here; core *identities* (which exact cores a task is
//! pinned to) are the `drom` crate's business.

pub mod cpumask;
mod power;
pub mod spec;
pub mod state;

pub use cpumask::CpuMask;
pub use power::{EnergyMeter, PowerModel};
pub use spec::{ClusterSpec, NodeSpec};
pub use state::{AllocError, ClusterState, JobId, NodeId, NodeOccupancy};
