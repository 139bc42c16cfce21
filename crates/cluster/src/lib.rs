//! # cluster — hardware model of an HPC machine
//!
//! Substrate for the scheduler: node/socket/core topology, the ids every
//! crate shares, and the power/energy model used to reproduce the paper's
//! energy results.
//!
//! Responsibilities are split by altitude:
//!
//! * [`spec`] — immutable machine description ([`NodeSpec`], [`ClusterSpec`])
//!   with presets for the machines in the paper (MareNostrum4, CEA Curie,
//!   RICC, and the Cirne-model system),
//! * [`cpumask`] — per-core bitmask used at node level by the DROM substrate,
//! * [`ids`] — [`JobId`], [`NodeId`] and the placement error [`AllocError`],
//! * `power` — energy integration over occupancy changes ([`EnergyMeter`]).
//!
//! Occupancy is not kept here: each node's residents, the cores they are
//! pinned to, the idle-node index and the busy-core count are the `drom`
//! crate's node table.

pub mod cpumask;
pub mod ids;
mod power;
pub mod spec;

pub use cpumask::CpuMask;
pub use power::{EnergyMeter, PowerModel};
pub use spec::{ClusterSpec, NodeSpec};
pub use ids::{AllocError, JobId, NodeId};
