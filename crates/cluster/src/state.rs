//! Whole-machine occupancy counters.
//!
//! [`ClusterState`] answers the two questions the scheduler asks of the
//! whole machine without touching a node: which nodes are completely idle,
//! and how many cores are busy. *Who* holds *which* cores on a node is the
//! node table's business (`drom::NodeTable`), which keeps these counters in
//! step with its records in the same pass that changes them.

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

/// Errors from placement operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// More cores requested than a node has.
    Insufficient { node: NodeId, free: u32, want: u32 },
    /// The node is already occupied.
    AlreadyPlaced { node: NodeId },
    /// Nothing to remove: the node is idle, or the job is not on it.
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
            AllocError::AlreadyPlaced { node } => write!(f, "{node} is already occupied"),
            AllocError::NotPlaced { node } => write!(f, "nothing to remove from {node}"),
            AllocError::ZeroCores => write!(f, "zero cores requested"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Idle nodes and busy cores of the whole machine.
#[derive(Debug, Clone)]
pub struct ClusterState {
    spec: ClusterSpec,
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
        let nodes = spec.nodes as usize;
        Self::from_node_cores(spec, std::iter::repeat_n(0, nodes))
            .expect("an empty machine is consistent")
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

    /// Whether `node` is completely idle.
    pub fn is_idle(&self, node: NodeId) -> bool {
        let (word, bit) = idle_bit(node);
        self.idle[word] & bit != 0
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

    /// Marks each idle node in `nodes` busy with `cores` cores.
    ///
    /// All-or-nothing: verifies every node before mutating.
    pub fn place(&mut self, nodes: &[NodeId], cores: u32) -> Result<(), AllocError> {
        if cores == 0 {
            return Err(AllocError::ZeroCores);
        }
        let width = self.spec.node.cores();
        for &n in nodes {
            if !self.is_idle(n) {
                return Err(AllocError::AlreadyPlaced { node: n });
            }
            if cores > width {
                return Err(AllocError::Insufficient {
                    node: n,
                    free: width,
                    want: cores,
                });
            }
        }
        for &n in nodes {
            let (word, bit) = idle_bit(n);
            self.idle[word] &= !bit;
        }
        self.idle_count -= nodes.len() as u32;
        self.busy_cores += u64::from(cores) * nodes.len() as u64;
        Ok(())
    }

    /// A busy node's residents went from `from` to `to` cores in total
    /// (a shrink, an expansion or a departure that leaves someone behind).
    pub fn reshape(&mut self, from: u32, to: u32) {
        self.busy_cores = self.busy_cores - u64::from(from) + u64::from(to);
    }

    /// Marks `node`, whose residents held `cores` cores, idle again.
    pub fn remove_from_node(&mut self, node: NodeId, cores: u32) -> Result<(), AllocError> {
        if self.is_idle(node) {
            return Err(AllocError::NotPlaced { node });
        }
        let (word, bit) = idle_bit(node);
        self.idle[word] |= bit;
        self.idle_count += 1;
        self.busy_cores -= u64::from(cores);
        Ok(())
    }

    /// Rebuilds the counters from each node's busy cores, in node order
    /// (0 = idle), and validates the result.
    pub fn from_node_cores(
        spec: ClusterSpec,
        cores: impl IntoIterator<Item = u32>,
    ) -> Result<ClusterState, String> {
        let width = spec.node.cores();
        let mut idle = vec![0u64; (spec.nodes as usize).div_ceil(64)];
        let (mut nodes, mut idle_count, mut busy_cores) = (0u32, 0u32, 0u64);
        for c in cores {
            let node = NodeId(nodes);
            if node.0 >= spec.nodes {
                return Err(format!(
                    "node cores cover more than the {} nodes",
                    spec.nodes
                ));
            }
            if c > width {
                return Err(format!("{node}: oversubscribed ({c} > {width})"));
            }
            if c == 0 {
                let (word, bit) = idle_bit(node);
                idle[word] |= bit;
                idle_count += 1;
            }
            busy_cores += u64::from(c);
            nodes += 1;
        }
        if nodes != spec.nodes {
            return Err(format!(
                "node cores cover {nodes} nodes, spec has {}",
                spec.nodes
            ));
        }
        let cs = ClusterState {
            spec,
            idle,
            idle_count,
            busy_cores,
        };
        cs.validate()?;
        Ok(cs)
    }

    /// Checks the counters against each other; returns a description of
    /// the first violation. Whether each bit matches its node is the node
    /// table's check (`drom::NodeTable::validate`).
    pub fn validate(&self) -> Result<(), String> {
        // Popcount, not a node walk: a bit past the last node would surface
        // as a phantom idle node in `empty_nodes`.
        let set: u32 = self.idle.iter().map(|w| w.count_ones()).sum();
        let phantom = self.empty_nodes().any(|n| n.0 >= self.spec.nodes);
        if set != self.idle_count || phantom {
            return Err(format!(
                "idle index count {} / bits {set} over {} nodes",
                self.idle_count, self.spec.nodes
            ));
        }
        let busy_nodes = u64::from(self.spec.nodes - self.idle_count);
        if self.busy_cores > busy_nodes * u64::from(self.spec.node.cores())
            || (self.busy_cores == 0) != (busy_nodes == 0)
        {
            return Err(format!(
                "busy_cores {} on {busy_nodes} busy nodes",
                self.busy_cores
            ));
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
        cs.place(&nodes, 8).unwrap();
        assert_eq!(cs.empty_node_count(), 2);
        assert_eq!(cs.busy_cores(), 16);
        assert!(cs.validate().is_ok());
        for &n in &nodes {
            cs.remove_from_node(n, 8).unwrap();
        }
        assert_eq!(cs.empty_node_count(), 4);
        assert_eq!(cs.busy_cores(), 0);
        assert!(cs.validate().is_ok());
    }

    #[test]
    fn placement_is_all_or_nothing() {
        let mut cs = small();
        cs.place(&[NodeId(0)], 8).unwrap();
        // Second placement spans an idle and a busy node; must not touch node 1.
        let err = cs.place(&[NodeId(1), NodeId(0)], 8).unwrap_err();
        assert_eq!(err, AllocError::AlreadyPlaced { node: NodeId(0) });
        assert!(cs.is_idle(NodeId(1)));
        assert_eq!(cs.busy_cores(), 8);
        assert!(cs.validate().is_ok());
    }

    #[test]
    fn double_place_rejected() {
        let mut cs = small();
        cs.place(&[NodeId(0)], 2).unwrap();
        let err = cs.place(&[NodeId(0)], 2).unwrap_err();
        assert_eq!(err, AllocError::AlreadyPlaced { node: NodeId(0) });
    }

    #[test]
    fn remove_unplaced_job_errors() {
        let mut cs = small();
        let err = cs.remove_from_node(NodeId(3), 1).unwrap_err();
        assert_eq!(err, AllocError::NotPlaced { node: NodeId(3) });
    }

    #[test]
    fn zero_core_requests_rejected() {
        let mut cs = small();
        assert_eq!(cs.place(&[NodeId(0)], 0), Err(AllocError::ZeroCores));
        let err = cs.place(&[NodeId(0)], 9).unwrap_err();
        assert_eq!(
            err,
            AllocError::Insufficient {
                node: NodeId(0),
                free: 8,
                want: 9
            }
        );
        assert_eq!(cs.empty_node_count(), 4, "refused requests touch nothing");
    }

    #[test]
    fn utilization_tracks_busy_cores() {
        let mut cs = small(); // 32 cores total
        assert_eq!(cs.utilization(), 0.0);
        cs.place(&[NodeId(0), NodeId(1)], 8).unwrap();
        assert!((cs.utilization() - 0.5).abs() < 1e-12);
        cs.reshape(8, 4); // node 1 shrinks to half
        assert!((cs.utilization() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn take_empty_nodes_insufficient_returns_none() {
        let mut cs = small();
        for i in 0..4 {
            cs.place(&[NodeId(i)], 1).unwrap();
        }
        assert!(cs.take_empty_nodes(1).is_none());
    }

    #[test]
    fn co_scheduling_shares_a_node() {
        let mut cs = small();
        cs.place(&[NodeId(0)], 8).unwrap();
        cs.reshape(8, 4); // shrink the mate
        cs.reshape(4, 8); // co-schedule a borrower on the freed cores
        assert!(!cs.is_idle(NodeId(0)));
        assert_eq!((cs.empty_node_count(), cs.busy_cores()), (3, 8), "node full");
        assert!(cs.validate().is_ok());

        cs.reshape(8, 4); // the borrower ends
        cs.reshape(4, 8); // the mate expands back
        assert_eq!((cs.empty_node_count(), cs.busy_cores()), (3, 8), "node full");
        assert!(cs.validate().is_ok());
        cs.remove_from_node(NodeId(0), 8).unwrap();
        assert_eq!((cs.empty_node_count(), cs.busy_cores()), (4, 0));
        assert!(cs.validate().is_ok());
    }

    #[test]
    fn rebuild_from_node_cores_checks_the_width_and_the_count() {
        let spec = small().spec().clone();
        let cs = ClusterState::from_node_cores(spec.clone(), [8, 0, 3, 0]).unwrap();
        assert_eq!(cs.empty_nodes().collect::<Vec<_>>(), [NodeId(1), NodeId(3)]);
        assert_eq!(cs.busy_cores(), 11);
        let err = ClusterState::from_node_cores(spec.clone(), [9, 0, 0, 0]).unwrap_err();
        assert!(err.contains("n0: oversubscribed"), "{err}");
        assert!(ClusterState::from_node_cores(spec.clone(), [0; 3]).is_err());
        assert!(ClusterState::from_node_cores(spec, [0; 5]).is_err());
    }
}
