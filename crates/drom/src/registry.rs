//! The DROM "space": process registration and mask exchange.
//!
//! Mirrors the real DROM API surface (paper §2.1): *"API for registering
//! processes in the DROM environment, getting the list of recorded
//! processes, and getting/setting their CPU masks"*. Mask changes are staged
//! as *pending* and applied when the process reaches a malleability point
//! ([`DromRegistry::poll`]), exactly like the runtime integration with
//! OpenMP/OmpSs task boundaries.

use cluster::cpumask::CpuMask;
use cluster::state::{JobId, NodeId};

/// Handle identifying a registered process (one job's task group on a node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DromHandle(pub u64);

/// A registered process entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessEntry {
    pub handle: DromHandle,
    pub job: JobId,
    pub node: NodeId,
    /// Mask the process is currently running with.
    pub current: CpuMask,
    /// Mask staged by the resource manager, applied at the next
    /// malleability point.
    pub pending: Option<CpuMask>,
}

/// The registry of all DROM-attached processes (one per node manager in the
/// real system; global here for test convenience).
///
/// Entries live in per-node lists, in registration order, so every per-node
/// view is deterministic and every operation is O(residents) — 1–3 entries.
/// The handle operations take the node as well: the node manager that holds
/// a handle knows which node it registered on, so no handle → entry map is
/// needed.
#[derive(Debug, Default)]
pub struct DromRegistry {
    by_node: Vec<Vec<ProcessEntry>>,
    next_handle: u64,
}

impl DromRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn node_slot(&mut self, node: NodeId) -> &mut Vec<ProcessEntry> {
        let idx = node.0 as usize;
        if idx >= self.by_node.len() {
            self.by_node.resize_with(idx + 1, Vec::new);
        }
        &mut self.by_node[idx]
    }

    fn entry_mut(&mut self, node: NodeId, handle: DromHandle) -> Option<&mut ProcessEntry> {
        self.by_node
            .get_mut(node.0 as usize)?
            .iter_mut()
            .find(|e| e.handle == handle)
    }

    /// Registers a process with its launch-time mask (`DROM_run`).
    pub fn attach(&mut self, job: JobId, node: NodeId, mask: CpuMask) -> DromHandle {
        let handle = DromHandle(self.next_handle);
        self.next_handle += 1;
        self.node_slot(node).push(ProcessEntry {
            handle,
            job,
            node,
            current: mask,
            pending: None,
        });
        handle
    }

    /// Removes a process (`DROM_clean`). Returns the final mask it held.
    pub fn detach(&mut self, node: NodeId, handle: DromHandle) -> Option<CpuMask> {
        let slot = self.by_node.get_mut(node.0 as usize)?;
        let pos = slot.iter().position(|e| e.handle == handle)?;
        Some(slot.remove(pos).current)
    }

    /// All processes on `node`, in registration order.
    pub fn processes_on(&self, node: NodeId) -> impl Iterator<Item = &ProcessEntry> {
        self.by_node.get(node.0 as usize).into_iter().flatten()
    }

    pub fn get(&self, node: NodeId, handle: DromHandle) -> Option<&ProcessEntry> {
        self.processes_on(node).find(|e| e.handle == handle)
    }

    /// Looks up the process of `job` on `node`.
    pub fn find(&self, job: JobId, node: NodeId) -> Option<&ProcessEntry> {
        self.processes_on(node).find(|e| e.job == job)
    }

    /// Stages a new mask for a process (`DROM_setprocessmask`).
    pub fn set_mask(&mut self, node: NodeId, handle: DromHandle, mask: CpuMask) -> bool {
        self.entry_mut(node, handle)
            .map(|e| e.pending = Some(mask))
            .is_some()
    }

    /// The process reaches a malleability point: applies any pending mask.
    /// Returns the new current mask if a change was applied.
    pub fn poll(&mut self, node: NodeId, handle: DromHandle) -> Option<CpuMask> {
        let e = self.entry_mut(node, handle)?;
        let applied = e.pending.take()?;
        e.current = applied;
        Some(applied)
    }

    /// Applies every pending mask on `node` (the simulator treats a
    /// reconfiguration broadcast as reaching all malleability points at
    /// once — DROM's measured overhead is negligible, paper §2.1).
    pub fn poll_node(&mut self, node: NodeId) -> usize {
        let mut applied = 0;
        for e in self.by_node.get_mut(node.0 as usize).into_iter().flatten() {
            if let Some(p) = e.pending.take() {
                e.current = p;
                applied += 1;
            }
        }
        applied
    }

    /// One malleability broadcast for a whole job allocation: applies every
    /// staged mask across `nodes` in a single sweep. This is the per-*job*
    /// batch the node managers stage into — `co_launch`/`finish` only stage;
    /// the simulator closes each reconfiguration with one `poll_nodes` call
    /// per job operation instead of one broadcast per node.
    pub fn poll_nodes(&mut self, nodes: &[NodeId]) -> usize {
        nodes.iter().map(|&n| self.poll_node(n)).sum()
    }

    /// Snapshot for persistence: every entry grouped by node (ascending) in
    /// per-node registration order, plus the next handle value. That order
    /// is exactly what [`DromRegistry::from_snapshot`] needs to rebuild the
    /// per-node lists deterministically.
    pub fn snapshot(&self) -> (Vec<ProcessEntry>, u64) {
        (
            self.by_node.iter().flatten().copied().collect(),
            self.next_handle,
        )
    }

    /// Rebuilds a registry from a [`snapshot`](DromRegistry::snapshot). The
    /// caller bounds each entry's `node` (the lists grow to the largest).
    pub fn from_snapshot(
        entries: Vec<ProcessEntry>,
        next_handle: u64,
    ) -> Result<DromRegistry, String> {
        let mut handles: Vec<u64> = entries.iter().map(|e| e.handle.0).collect();
        handles.sort_unstable();
        if handles.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate DROM handle in snapshot".into());
        }
        if let Some(&h) = handles.last().filter(|&&h| h >= next_handle) {
            return Err(format!(
                "DROM entry handle {h} >= next_handle {next_handle}"
            ));
        }
        let mut r = DromRegistry {
            by_node: Vec::new(),
            next_handle,
        };
        for e in entries {
            r.node_slot(e.node).push(e);
        }
        Ok(r)
    }

    /// Validates that current masks of processes sharing a node are disjoint.
    pub fn validate_node(&self, node: NodeId) -> Result<(), String> {
        let procs: Vec<&ProcessEntry> = self.processes_on(node).collect();
        for (i, a) in procs.iter().enumerate() {
            if a.current.is_empty() {
                return Err(format!("{} on {node} has an empty mask", a.job));
            }
            for b in &procs[i + 1..] {
                if !a.current.is_disjoint(&b.current) {
                    return Err(format!(
                        "{} and {} overlap on {node}: {:?} vs {:?}",
                        a.job, b.job, a.current, b.current
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N0: NodeId = NodeId(0);

    fn mask(lo: usize, hi: usize) -> CpuMask {
        CpuMask::range(16, lo, hi)
    }

    #[test]
    fn attach_detach_lifecycle() {
        let mut r = DromRegistry::new();
        let h = r.attach(JobId(1), NodeId(0), mask(0, 16));
        assert!(r.get(N0, h).is_some());
        assert_eq!(r.processes_on(NodeId(0)).count(), 1);
        let final_mask = r.detach(N0, h).unwrap();
        assert_eq!(final_mask.count(), 16);
        assert!(r.get(N0, h).is_none());
        assert!(r.detach(N0, h).is_none(), "double detach is None");
    }

    #[test]
    fn pending_masks_apply_at_malleability_point() {
        let mut r = DromRegistry::new();
        let h = r.attach(JobId(1), NodeId(0), mask(0, 16));
        assert!(r.set_mask(N0, h, mask(0, 8)));
        // Not yet applied:
        assert_eq!(r.get(N0, h).unwrap().current.count(), 16);
        assert!(r.get(N0, h).unwrap().pending.is_some());
        // Malleability point:
        assert_eq!(r.poll(N0, h).unwrap().count(), 8);
        assert!(r.get(N0, h).unwrap().pending.is_none());
        assert!(r.poll(N0, h).is_none(), "no further change pending");
    }

    #[test]
    fn poll_node_applies_all_pending() {
        let mut r = DromRegistry::new();
        let h1 = r.attach(JobId(1), NodeId(3), mask(0, 16));
        let h2 = r.attach(JobId(2), NodeId(3), mask(0, 0));
        r.set_mask(NodeId(3), h1, mask(0, 8));
        r.set_mask(NodeId(3), h2, mask(8, 16));
        assert_eq!(r.poll_node(NodeId(3)), 2);
        assert!(r.validate_node(NodeId(3)).is_ok());
    }

    #[test]
    fn validate_detects_overlap() {
        let mut r = DromRegistry::new();
        r.attach(JobId(1), NodeId(0), mask(0, 9));
        r.attach(JobId(2), NodeId(0), mask(8, 16));
        let err = r.validate_node(NodeId(0)).unwrap_err();
        assert!(err.contains("overlap"));
    }

    #[test]
    fn validate_detects_empty_mask() {
        let mut r = DromRegistry::new();
        r.attach(JobId(1), NodeId(0), CpuMask::empty(16));
        assert!(r.validate_node(NodeId(0)).unwrap_err().contains("empty"));
    }

    #[test]
    fn find_by_job_and_node() {
        let mut r = DromRegistry::new();
        r.attach(JobId(1), NodeId(0), mask(0, 4));
        r.attach(JobId(1), NodeId(1), mask(0, 4));
        assert!(r.find(JobId(1), NodeId(1)).is_some());
        assert!(r.find(JobId(2), NodeId(0)).is_none());
    }

    #[test]
    fn set_mask_on_unknown_handle_is_false() {
        let mut r = DromRegistry::new();
        assert!(!r.set_mask(N0, DromHandle(99), mask(0, 1)));
    }
}
