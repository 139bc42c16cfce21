//! The DROM "space": process registration and mask exchange.
//!
//! Mirrors the real DROM API surface (paper §2.1): *"API for registering
//! processes in the DROM environment, getting the list of recorded
//! processes, and getting/setting their CPU masks"*. Here it is a view of
//! the node table, not a second list: a malleable resident registers when
//! it launches (it gets a [`DromHandle`] from one machine-wide counter),
//! deregisters when it ends, and its mask is the one its process runs
//! with. A mask change reaches the process's malleability point before the
//! table's mutation returns, so an entry has no staged mask (the checkpoint
//! still writes an empty one).

use crate::node::NodeTable;
use cluster::cpumask::CpuMask;
use cluster::ids::{JobId, NodeId};

/// Handle identifying a registered process (one job's task group on a node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DromHandle(pub u64);

/// A registered process entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessEntry {
    pub handle: DromHandle,
    pub job: JobId,
    pub node: NodeId,
    /// Mask the process is running with.
    pub current: CpuMask,
}

impl NodeTable {
    /// The processes registered on `node`, in registration order.
    pub fn processes_on(&self, node: NodeId) -> impl Iterator<Item = ProcessEntry> + '_ {
        self.record(node).residents().iter().filter_map(move |r| {
            Some(ProcessEntry {
                handle: r.handle?,
                job: r.job,
                node,
                current: r.mask,
            })
        })
    }

    /// Every registered process, grouped by node (ascending) in per-node
    /// registration order — the checkpoint's DROM section.
    pub fn processes(&self) -> impl Iterator<Item = ProcessEntry> + '_ {
        (0..self.records().len() as u32).flat_map(|n| self.processes_on(NodeId(n)))
    }

    /// The process of `job` on `node`.
    pub fn find(&self, job: JobId, node: NodeId) -> Option<ProcessEntry> {
        self.processes_on(node).find(|e| e.job == job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Resident;
    use crate::SharingFactor;
    use cluster::ClusterSpec;
    use simkit::SimTime;

    const N0: NodeId = NodeId(0);
    /// Every job's requested end.
    const END: SimTime = SimTime(100);

    /// Two 16-core nodes (2 × 8).
    fn table() -> NodeTable {
        NodeTable::new(2, ClusterSpec::cea_curie().node)
    }

    #[test]
    fn attach_detach_lifecycle() {
        let mut t = table();
        t.launch_idle(1, JobId(1), 16, true, END).unwrap();
        let e = t.find(JobId(1), N0).expect("a malleable launch registers");
        assert_eq!((e.handle, e.current.count()), (DromHandle(0), 16));
        assert_eq!(t.processes_on(N0).count(), 1);
        t.vacate(N0, JobId(1), |_| END).unwrap();
        assert!(t.find(JobId(1), N0).is_none(), "finishing deregisters");
        // A rigid job never registers, and handles keep counting up.
        t.launch_idle(1, JobId(2), 16, false, END).unwrap();
        assert_eq!(t.processes_on(N0).count(), 0);
        assert_eq!(t.next_handle(), 1);
    }

    #[test]
    fn pending_masks_apply_at_malleability_point() {
        let mut t = table();
        t.launch_idle(1, JobId(1), 16, true, END).unwrap();
        let [kept, given] = t.co_launch(N0, JobId(2), JobId(1), SharingFactor::HALF, 1, END).unwrap();
        // The shrink reached the mate's malleability point before
        // `co_launch` returned: it runs with its new mask, nothing staged.
        assert_eq!(t.find(JobId(1), N0).unwrap().current, kept.new_mask);
        let borrower = t.find(JobId(2), N0).unwrap();
        assert_eq!(
            (borrower.handle, borrower.current),
            (DromHandle(1), given.new_mask)
        );
        let listed: Vec<JobId> = t.processes_on(N0).map(|e| e.job).collect();
        assert_eq!(listed, [JobId(1), JobId(2)], "registration order");
    }

    #[test]
    fn poll_node_applies_all_pending() {
        let mut t = table();
        t.launch_idle(1, JobId(1), 16, true, END).unwrap();
        t.co_launch(N0, JobId(2), JobId(1), SharingFactor::HALF, 1, END).unwrap();
        // Both masks of the node changed in one mutation; neither is left
        // staged, and together they still cover the whole node, disjointly.
        let entries: Vec<ProcessEntry> = t.processes_on(N0).collect();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].current.is_disjoint(&entries[1].current));
        assert_eq!(entries.iter().map(|e| e.current.count()).sum::<usize>(), 16);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn set_mask_on_unknown_handle_is_false() {
        let mut t = table();
        t.launch_idle(1, JobId(1), 16, true, END).unwrap();
        let before: Vec<ProcessEntry> = t.processes_on(N0).collect();
        // A mask change aimed at a process that is not registered is
        // refused: no mask moves and no handle is spent.
        assert!(t.co_launch(N0, JobId(2), JobId(99), SharingFactor::HALF, 1, END).is_none());
        assert!(t.vacate(N0, JobId(99), |_| END).is_err());
        assert!(t.find(JobId(99), N0).is_none());
        assert_eq!(t.processes_on(N0).collect::<Vec<_>>(), before);
        assert_eq!(t.next_handle(), 1);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn find_by_job_and_node() {
        let mut t = table();
        t.launch_idle(2, JobId(1), 4, true, END).unwrap();
        assert!(t.find(JobId(1), NodeId(1)).is_some());
        assert!(t.find(JobId(2), N0).is_none());
        let all: Vec<(NodeId, DromHandle)> = t.processes().map(|e| (e.node, e.handle)).collect();
        assert_eq!(all, [(N0, DromHandle(0)), (NodeId(1), DromHandle(1))]);
    }

    /// Restoring `residents` on node 0 of a one-node table, with matching
    /// occupancy and DROM sections.
    fn restore_one(residents: Vec<Resident>) -> Result<NodeTable, String> {
        let occ = residents
            .iter()
            .map(|r| (r.job, r.mask.count() as u32))
            .collect();
        let procs = residents
            .iter()
            .filter_map(|r| {
                let handle = r.handle?;
                Some(ProcessEntry {
                    handle,
                    job: r.job,
                    node: N0,
                    current: r.mask,
                })
            })
            .collect();
        NodeTable::restore(
            ClusterSpec::cea_curie().node,
            vec![occ],
            procs,
            9,
            vec![residents],
        )
    }

    fn resident(job: u64, lo: usize, hi: usize) -> Resident {
        Resident {
            job: JobId(job),
            mask: CpuMask::range(16, lo, hi),
            malleable: true,
            handle: Some(DromHandle(job)),
            lender: None,
        }
    }

    #[test]
    fn validate_detects_overlap() {
        assert!(restore_one(vec![resident(1, 0, 8), resident(2, 8, 16)]).is_ok());
        let err = restore_one(vec![resident(1, 0, 9), resident(2, 8, 16)]).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn validate_detects_empty_mask() {
        let err = restore_one(vec![resident(1, 0, 0)]).unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }
}
