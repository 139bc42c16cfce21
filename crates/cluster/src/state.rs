//! Dynamic cluster occupancy.
//!
//! [`ClusterState`] is the single source of truth for "who holds how many
//! cores where". The scheduler (static backfill or SD-Policy) queries free
//! capacity and registers placements; the node-level DROM layer refines
//! *which* cores within each node. Every mutation keeps the per-node and
//! whole-cluster counters consistent, and [`ClusterState::validate`] checks
//! the invariants (used liberally by tests and `debug_assert!`s).

use crate::cpumask::bits;
use crate::spec::ClusterSpec;

/// Identifier of a job, assigned by the workload manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Index of a node within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Occupancy of one node: which jobs hold how many cores.
#[derive(Debug, Clone, Default)]
pub struct NodeOccupancy {
    /// `(job, cores)` pairs; tiny in practice (1–3 entries), so a vector
    /// beats any map. Order is insertion order (deterministic).
    pub jobs: Vec<(JobId, u32)>,
    pub cores_used: u32,
}

impl NodeOccupancy {
    pub fn cores_of(&self, job: JobId) -> Option<u32> {
        self.jobs.iter().find(|(j, _)| *j == job).map(|&(_, c)| c)
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Errors from placement operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Node does not have the requested free cores.
    Insufficient { node: NodeId, free: u32, want: u32 },
    /// The job already occupies this node.
    AlreadyPlaced { node: NodeId },
    /// The job is not present where expected.
    NotPlaced { node: NodeId },
    /// Core count must be ≥ 1.
    ZeroCores,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Insufficient { node, free, want } => {
                write!(f, "{node}: want {want} cores, only {free} free")
            }
            AllocError::AlreadyPlaced { node } => write!(f, "job already placed on {node}"),
            AllocError::NotPlaced { node } => write!(f, "job not placed on {node}"),
            AllocError::ZeroCores => write!(f, "zero cores requested"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Live occupancy of the whole machine.
#[derive(Debug, Clone)]
pub struct ClusterState {
    spec: ClusterSpec,
    nodes: Vec<NodeOccupancy>,
    /// Completely idle nodes as a bitset (node `n` is bit `n % 64` of word
    /// `n / 64`) — maintained incrementally, so marking a node busy or idle
    /// is one word update and the scheduler's "first n idle nodes" walks
    /// words, not the machine.
    idle: Vec<u64>,
    idle_count: u32,
    busy_cores: u64,
}

/// The idle-index word and bit of `node`.
fn idle_bit(node: NodeId) -> (usize, u64) {
    (node.0 as usize / 64, 1 << (node.0 % 64))
}

impl ClusterState {
    pub fn new(spec: ClusterSpec) -> Self {
        let nodes = vec![NodeOccupancy::default(); spec.nodes as usize];
        Self::from_occupancies(spec, nodes).expect("an empty machine is consistent")
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of completely idle nodes.
    pub fn empty_node_count(&self) -> u32 {
        self.idle_count
    }

    /// Total busy cores across the machine.
    pub fn busy_cores(&self) -> u64 {
        self.busy_cores
    }

    /// Machine utilisation in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.busy_cores as f64 / self.spec.total_cores() as f64
    }

    pub fn occupancy(&self, node: NodeId) -> &NodeOccupancy {
        &self.nodes[node.0 as usize]
    }

    /// Iterates over the ids of completely idle nodes, ascending (served
    /// from the idle index, not a machine scan).
    pub fn empty_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.idle
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| bits(w).map(move |b| NodeId((i * 64 + b) as u32)))
    }

    /// Collects the first `n` idle nodes (ascending id) in O(n). Returns
    /// `None` when fewer than `n` are idle — the static placement test.
    pub fn take_empty_nodes(&self, n: u32) -> Option<Vec<NodeId>> {
        if self.empty_node_count() < n {
            return None;
        }
        // Sized up front: the word walk has no useful size hint.
        let mut first = Vec::with_capacity(n as usize);
        first.extend(self.empty_nodes().take(n as usize));
        Some(first)
    }

    /// Places `job` on each node in `nodes` with `cores` cores per node.
    ///
    /// All-or-nothing: verifies capacity on every node before mutating.
    pub fn place(&mut self, job: JobId, nodes: &[NodeId], cores: u32) -> Result<(), AllocError> {
        if cores == 0 {
            return Err(AllocError::ZeroCores);
        }
        for &n in nodes {
            let occ = &self.nodes[n.0 as usize];
            if occ.cores_of(job).is_some() {
                return Err(AllocError::AlreadyPlaced { node: n });
            }
            let free = self.spec.node.cores() - occ.cores_used;
            if free < cores {
                return Err(AllocError::Insufficient {
                    node: n,
                    free,
                    want: cores,
                });
            }
        }
        for &n in nodes {
            let occ = &mut self.nodes[n.0 as usize];
            if occ.is_empty() {
                let (word, bit) = idle_bit(n);
                self.idle[word] &= !bit;
                self.idle_count -= 1;
            }
            occ.jobs.push((job, cores));
            occ.cores_used += cores;
            self.busy_cores += cores as u64;
        }
        Ok(())
    }

    /// Changes the cores `job` holds on `node` (shrink or expand).
    pub fn set_cores(&mut self, job: JobId, node: NodeId, cores: u32) -> Result<(), AllocError> {
        if cores == 0 {
            return Err(AllocError::ZeroCores);
        }
        let total = self.spec.node.cores();
        let occ = &mut self.nodes[node.0 as usize];
        let Some(entry) = occ.jobs.iter_mut().find(|(j, _)| *j == job) else {
            return Err(AllocError::NotPlaced { node });
        };
        let old = entry.1;
        let others = occ.cores_used - old;
        if others + cores > total {
            return Err(AllocError::Insufficient {
                node,
                free: total - others,
                want: cores,
            });
        }
        entry.1 = cores;
        occ.cores_used = others + cores;
        self.busy_cores = self.busy_cores - old as u64 + cores as u64;
        Ok(())
    }

    /// Removes `job` from `node`, returning the cores it held.
    pub fn remove_from_node(&mut self, job: JobId, node: NodeId) -> Result<u32, AllocError> {
        let occ = &mut self.nodes[node.0 as usize];
        let Some(pos) = occ.jobs.iter().position(|(j, _)| *j == job) else {
            return Err(AllocError::NotPlaced { node });
        };
        let (_, cores) = occ.jobs.remove(pos);
        occ.cores_used -= cores;
        self.busy_cores -= cores as u64;
        if occ.is_empty() {
            let (word, bit) = idle_bit(node);
            self.idle[word] |= bit;
            self.idle_count += 1;
        }
        Ok(cores)
    }

    /// Removes `job` from every node in `nodes`.
    pub fn remove(&mut self, job: JobId, nodes: &[NodeId]) -> Result<(), AllocError> {
        for &n in nodes {
            self.remove_from_node(job, n)?;
        }
        Ok(())
    }

    /// Per-node occupancies in ascending node id, for persistence.
    pub fn occupancies(&self) -> &[NodeOccupancy] {
        &self.nodes
    }

    /// Rebuilds a state from a per-node occupancy snapshot; the idle index
    /// and busy-core counter are re-derived, and the result is validated.
    pub fn from_occupancies(
        spec: ClusterSpec,
        nodes: Vec<NodeOccupancy>,
    ) -> Result<ClusterState, String> {
        if nodes.len() != spec.nodes as usize {
            return Err(format!(
                "occupancy snapshot covers {} nodes, spec has {}",
                nodes.len(),
                spec.nodes
            ));
        }
        let mut idle = vec![0u64; nodes.len().div_ceil(64)];
        let mut idle_count = 0;
        let mut busy_cores = 0u64;
        for (i, occ) in nodes.iter().enumerate() {
            if occ.is_empty() {
                let (word, bit) = idle_bit(NodeId(i as u32));
                idle[word] |= bit;
                idle_count += 1;
            }
            busy_cores += occ.cores_used as u64;
        }
        let cs = ClusterState {
            spec,
            nodes,
            idle,
            idle_count,
            busy_cores,
        };
        cs.validate()?;
        Ok(cs)
    }

    /// Checks every invariant; returns a description of the first violation.
    /// Used by tests and the simulator's self-check mode.
    pub fn validate(&self) -> Result<(), String> {
        let mut empty = 0u32;
        let mut busy = 0u64;
        let cores = self.spec.node.cores();
        for (i, occ) in self.nodes.iter().enumerate() {
            let sum: u32 = occ.jobs.iter().map(|&(_, c)| c).sum();
            if sum != occ.cores_used {
                return Err(format!("node {i}: cores_used {} != sum {sum}", occ.cores_used));
            }
            if sum > cores {
                return Err(format!("node {i}: oversubscribed ({sum} > {cores})"));
            }
            for (idx, &(j, c)) in occ.jobs.iter().enumerate() {
                if c == 0 {
                    return Err(format!("node {i}: {j} holds 0 cores"));
                }
                if occ.jobs[..idx].iter().any(|&(j2, _)| j2 == j) {
                    return Err(format!("node {i}: {j} appears twice"));
                }
            }
            let (word, bit) = idle_bit(NodeId(i as u32));
            let indexed = self.idle[word] & bit != 0;
            if occ.is_empty() {
                empty += 1;
                if !indexed {
                    return Err(format!("node {i}: idle but missing from index"));
                }
            } else if indexed {
                return Err(format!("node {i}: occupied but in the idle index"));
            }
            busy += sum as u64;
        }
        // Popcount too: a bit past the last node would surface as a phantom
        // idle node in `empty_nodes`.
        let set: u32 = self.idle.iter().map(|w| w.count_ones()).sum();
        if empty != self.idle_count || empty != set {
            return Err(format!(
                "idle index count {} / bits {set} != actual {empty}",
                self.idle_count
            ));
        }
        if busy != self.busy_cores {
            return Err(format!("busy_cores counter {} != actual {busy}", self.busy_cores));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;

    fn small() -> ClusterState {
        // 4 nodes × 8 cores
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 4;
        ClusterState::new(spec)
    }

    #[test]
    fn exclusive_place_and_remove() {
        let mut cs = small();
        assert_eq!(cs.empty_node_count(), 4);
        let nodes = cs.take_empty_nodes(2).unwrap();
        cs.place(JobId(1), &nodes, 8).unwrap();
        assert_eq!(cs.empty_node_count(), 2);
        assert_eq!(cs.busy_cores(), 16);
        assert!(cs.validate().is_ok());
        cs.remove(JobId(1), &nodes).unwrap();
        assert_eq!(cs.empty_node_count(), 4);
        assert_eq!(cs.busy_cores(), 0);
        assert!(cs.validate().is_ok());
    }

    #[test]
    fn placement_is_all_or_nothing() {
        let mut cs = small();
        cs.place(JobId(1), &[NodeId(0)], 8).unwrap();
        // Second placement spans a full and a busy node; must not touch node 1.
        let err = cs.place(JobId(2), &[NodeId(1), NodeId(0)], 8).unwrap_err();
        assert!(matches!(err, AllocError::Insufficient { node: NodeId(0), .. }));
        assert!(cs.occupancy(NodeId(1)).is_empty());
        assert!(cs.validate().is_ok());
    }

    #[test]
    fn co_scheduling_shares_a_node() {
        let mut cs = small();
        cs.place(JobId(1), &[NodeId(0)], 8).unwrap();
        cs.set_cores(JobId(1), NodeId(0), 4).unwrap(); // shrink the mate
        cs.place(JobId(2), &[NodeId(0)], 4).unwrap(); // co-schedule
        assert_eq!(cs.occupancy(NodeId(0)).cores_used, 8, "node full");
        assert_eq!(cs.occupancy(NodeId(0)).jobs.len(), 2);
        assert!(cs.validate().is_ok());

        cs.remove(JobId(2), &[NodeId(0)]).unwrap();
        cs.set_cores(JobId(1), NodeId(0), 8).unwrap(); // expand back
        assert_eq!(cs.occupancy(NodeId(0)).cores_used, 8, "node full");
        assert!(cs.validate().is_ok());
    }

    #[test]
    fn set_cores_cannot_oversubscribe() {
        let mut cs = small();
        cs.place(JobId(1), &[NodeId(0)], 4).unwrap();
        cs.place(JobId(2), &[NodeId(0)], 4).unwrap();
        let err = cs.set_cores(JobId(1), NodeId(0), 5).unwrap_err();
        assert!(matches!(err, AllocError::Insufficient { .. }));
        assert_eq!(cs.occupancy(NodeId(0)).cores_of(JobId(1)), Some(4));
    }

    #[test]
    fn double_place_rejected() {
        let mut cs = small();
        cs.place(JobId(1), &[NodeId(0)], 2).unwrap();
        let err = cs.place(JobId(1), &[NodeId(0)], 2).unwrap_err();
        assert_eq!(err, AllocError::AlreadyPlaced { node: NodeId(0) });
    }

    #[test]
    fn remove_unplaced_job_errors() {
        let mut cs = small();
        let err = cs.remove_from_node(JobId(9), NodeId(3)).unwrap_err();
        assert_eq!(err, AllocError::NotPlaced { node: NodeId(3) });
    }

    #[test]
    fn zero_core_requests_rejected() {
        let mut cs = small();
        assert_eq!(cs.place(JobId(1), &[NodeId(0)], 0), Err(AllocError::ZeroCores));
        cs.place(JobId(1), &[NodeId(0)], 1).unwrap();
        assert_eq!(cs.set_cores(JobId(1), NodeId(0), 0), Err(AllocError::ZeroCores));
    }

    #[test]
    fn utilization_tracks_busy_cores() {
        let mut cs = small(); // 32 cores total
        assert_eq!(cs.utilization(), 0.0);
        cs.place(JobId(1), &[NodeId(0), NodeId(1)], 8).unwrap();
        assert!((cs.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn take_empty_nodes_insufficient_returns_none() {
        let mut cs = small();
        for i in 0..4 {
            cs.place(JobId(i), &[NodeId(i as u32)], 1).unwrap();
        }
        assert!(cs.take_empty_nodes(1).is_none());
    }
}
