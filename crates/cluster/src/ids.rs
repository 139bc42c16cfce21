//! Job and node identifiers, and the error a refused placement returns.
//! Occupancy itself — who holds which cores of which node, which nodes are
//! idle, how many cores are busy — is the node table's (`drom::NodeTable`).

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
    /// Nothing to remove: the node is idle, or the job is not on it.
    NotPlaced { node: NodeId },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::NotPlaced { node } => write!(f, "nothing to remove from {node}"),
        }
    }
}

impl std::error::Error for AllocError {}
