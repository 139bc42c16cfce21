//! Per-node resource manager (paper Listing 3, slurmd + task/affinity).
//!
//! Tracks the jobs resident on one node, computes their task→core
//! distribution through `crate::distribution`, and implements the paper's
//! ownership rules:
//!
//! 1. at a malleable co-launch the shrunk resident becomes the **owner** of
//!    the cores lent to the incoming job;
//! 2. when the incoming job ends, its cores return to the owner (expand);
//! 3. when the owner ends first, its remaining cores are distributed to the
//!    still-running residents "to increase node utilization".

use crate::distribution::{expand_into, shrink_socket_first};
use crate::registry::{DromHandle, DromRegistry};
use crate::sharing::SharingFactor;
use cluster::cpumask::CpuMask;
use cluster::spec::NodeSpec;
use cluster::state::{JobId, NodeId};
use std::cmp::Ordering;

/// A mask change produced by a node-level event, to be propagated to the
/// simulator (rate recomputation) and the DROM registry (affinity change).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeUpdate {
    pub job: JobId,
    pub(crate) new_mask: CpuMask,
}

impl NodeUpdate {
    pub fn cores(&self) -> u32 {
        self.new_mask.count() as u32
    }
}

/// One job resident on a node (every field is plain data, so this is also
/// the persisted form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resident {
    pub job: JobId,
    pub mask: CpuMask,
    pub malleable: bool,
    pub handle: Option<DromHandle>,
    /// For a co-launched job: the resident that lent it cores on this node.
    pub lender: Option<JobId>,
}

/// Manager of one node's residents and their core masks.
#[derive(Debug)]
pub struct NodeManager {
    node: NodeId,
    spec: NodeSpec,
    residents: Vec<Resident>,
}

impl NodeManager {
    pub fn new(node: NodeId, spec: NodeSpec) -> Self {
        NodeManager {
            node,
            spec,
            residents: Vec::new(),
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn is_empty(&self) -> bool {
        self.residents.is_empty()
    }

    /// Mask of cores not held by any resident.
    pub fn free_mask(&self) -> CpuMask {
        let mut free = CpuMask::full(self.spec.cores() as usize);
        for r in &self.residents {
            free.subtract(&r.mask);
        }
        free
    }

    /// Launches a job on `cores` free cores (static path). Registers it with
    /// DROM when `malleable` so it can be reconfigured later.
    ///
    /// Returns the assigned mask, or `None` if the free cores don't suffice.
    pub fn launch(
        &mut self,
        registry: &mut DromRegistry,
        job: JobId,
        cores: u32,
        malleable: bool,
    ) -> Option<CpuMask> {
        let free = self.free_mask();
        let mask = match (free.count() as u32).cmp(&cores) {
            Ordering::Less => return None,
            // Everything free is taken: a whole-node launch, usually.
            Ordering::Equal => free,
            // Prefer socket-contiguous placement in the free space.
            Ordering::Greater => {
                let none = CpuMask::empty(self.spec.cores() as usize);
                expand_into(&self.spec, &none, &free, cores)
            }
        };
        let handle = malleable.then(|| registry.attach(job, self.node, mask));
        self.residents.push(Resident {
            job,
            mask,
            malleable,
            handle,
            lender: None,
        });
        debug_assert!(self.validate().is_ok(), "{:?}", self.validate());
        Some(mask)
    }

    /// Co-launches `new_job` by shrinking the resident `mate` according to
    /// the sharing factor (paper: "node managers calculate tasks-to-cores
    /// distribution among jobs, keeping jobs balanced and isolated").
    ///
    /// `mate_ranks` is the mate's MPI-rank count on this node (shrink floor).
    /// Returns the updates: the mate's shrunken mask and the new job's mask.
    ///
    /// The mate's shrink is only *staged* in the DROM registry; the caller
    /// applies the whole job's reconfiguration in one
    /// [`DromRegistry::poll_nodes`] broadcast over the full allocation.
    pub fn co_launch(
        &mut self,
        registry: &mut DromRegistry,
        new_job: JobId,
        mate: JobId,
        sharing: SharingFactor,
        mate_ranks: u32,
    ) -> Option<Vec<NodeUpdate>> {
        let free = self.free_mask();
        let mate_idx = self.residents.iter().position(|r| r.job == mate)?;
        if !self.residents[mate_idx].malleable {
            return None;
        }
        let mate_cores = self.residents[mate_idx].mask.count() as u32;
        let keep = sharing.keep_cores(mate_cores, mate_ranks);
        let freed = mate_cores - keep;
        if freed == 0 && free.is_empty() {
            return None;
        }

        // Shrink the mate, socket-first for isolation.
        let new_mate_mask = shrink_socket_first(&self.spec, &self.residents[mate_idx].mask, keep);
        let mut given = self.residents[mate_idx].mask;
        given.subtract(&new_mate_mask);
        // The incoming job also gets any cores that were already free.
        given.union_with(&free);

        self.residents[mate_idx].mask = new_mate_mask;
        if let Some(h) = self.residents[mate_idx].handle {
            registry.set_mask(self.node, h, new_mate_mask);
        }

        let handle = registry.attach(new_job, self.node, given);
        self.residents.push(Resident {
            job: new_job,
            mask: given,
            malleable: true,
            handle: Some(handle),
            lender: Some(mate),
        });
        // The shrunk mate's mask stays *staged*: the caller closes the whole
        // job's reconfiguration with one `DromRegistry::poll_nodes` broadcast
        // over the full allocation (per-job batching) instead of one
        // malleability point per node.
        debug_assert!(self.validate().is_ok(), "{:?}", self.validate());
        Some(vec![
            NodeUpdate {
                job: mate,
                new_mask: new_mate_mask,
            },
            NodeUpdate {
                job: new_job,
                new_mask: given,
            },
        ])
    }

    /// Removes `job` from the node, applying the paper's end-of-job rules.
    /// Returns the mask updates for the residents that expanded (staged in
    /// the registry; the caller broadcasts [`DromRegistry::poll_nodes`]).
    pub fn finish(&mut self, registry: &mut DromRegistry, job: JobId) -> Vec<NodeUpdate> {
        let Some(idx) = self.residents.iter().position(|r| r.job == job) else {
            return Vec::new();
        };
        let ended = self.residents.remove(idx);
        if let Some(h) = ended.handle {
            registry.detach(self.node, h);
        }
        let mut updates = Vec::new();
        let freed = ended.mask;

        // Rule 1: the ended job borrowed cores — return them to the owner.
        let beneficiaries: Vec<usize> = if let Some(owner) = ended.lender {
            if let Some(i) = self.residents.iter().position(|r| r.job == owner) {
                vec![i]
            } else {
                self.malleable_residents()
            }
        } else {
            // Rule 2/3: an owner (or plain resident) ended — distribute to
            // the remaining malleable residents.
            self.malleable_residents()
        };

        if beneficiaries.is_empty() {
            return updates; // cores simply become free
        }

        // Split the freed cores among beneficiaries (usually exactly one).
        let shares =
            crate::distribution::balanced_budgets(freed.count() as u32, beneficiaries.len() as u32);
        let mut pool = freed;
        for (&i, &share) in beneficiaries.iter().zip(shares.iter()) {
            if share == 0 {
                continue;
            }
            let grown = expand_into(&self.spec, &self.residents[i].mask, &pool, share);
            let mut taken = grown;
            taken.subtract(&self.residents[i].mask);
            pool.subtract(&taken);
            self.residents[i].mask = grown;
            // A job that expanded back to (at least) what it lent is no
            // longer anyone's borrower.
            if let Some(h) = self.residents[i].handle {
                registry.set_mask(self.node, h, grown);
            }
            updates.push(NodeUpdate {
                job: self.residents[i].job,
                new_mask: grown,
            });
        }
        // Expansions stay staged, like `co_launch`'s shrink: the simulator
        // broadcasts one `poll_nodes` over the ended job's allocation.
        debug_assert!(self.validate().is_ok(), "{:?}", self.validate());
        updates
    }

    /// Residents in arrival order, for persistence.
    pub fn snapshot(&self) -> &[Resident] {
        &self.residents
    }

    /// Rebuilds a manager from a [`snapshot`](NodeManager::snapshot),
    /// validating mask disjointness.
    pub fn from_snapshot(
        node: NodeId,
        spec: NodeSpec,
        residents: Vec<Resident>,
    ) -> Result<NodeManager, String> {
        let nm = NodeManager {
            node,
            spec,
            residents,
        };
        nm.validate()?;
        Ok(nm)
    }

    fn malleable_residents(&self) -> Vec<usize> {
        self.residents
            .iter()
            .enumerate()
            .filter(|(_, r)| r.malleable)
            .map(|(i, _)| i)
            .collect()
    }

    /// Checks mask disjointness and non-emptiness for all residents.
    pub fn validate(&self) -> Result<(), String> {
        for (i, a) in self.residents.iter().enumerate() {
            if a.mask.is_empty() {
                return Err(format!("{} has empty mask on {}", a.job, self.node));
            }
            for b in &self.residents[i + 1..] {
                if !a.mask.is_disjoint(&b.mask) {
                    return Err(format!(
                        "{} and {} overlap on {}: {:?} / {:?}",
                        a.job, b.job, self.node, a.mask, b.mask
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
    use cluster::spec::ClusterSpec;

    fn mgr() -> (NodeManager, DromRegistry) {
        (
            NodeManager::new(NodeId(0), ClusterSpec::marenostrum4(1).node),
            DromRegistry::new(),
        )
    }

    #[test]
    fn exclusive_launch_gets_full_node() {
        let (mut nm, mut reg) = mgr();
        let mask = nm.launch(&mut reg, JobId(1), 48, true).unwrap();
        assert_eq!(mask.count(), 48);
        assert_eq!(reg.processes_on(NodeId(0)).count(), 1);
        assert!(nm.free_mask().is_empty());
    }

    #[test]
    fn launch_fails_without_room() {
        let (mut nm, mut reg) = mgr();
        nm.launch(&mut reg, JobId(1), 48, false).unwrap();
        assert!(nm.launch(&mut reg, JobId(2), 1, false).is_none());
    }

    #[test]
    fn co_launch_splits_socket_wise() {
        let (mut nm, mut reg) = mgr();
        nm.launch(&mut reg, JobId(1), 48, true).unwrap();
        let ups = nm
            .co_launch(&mut reg, JobId(2), JobId(1), SharingFactor::HALF, 2)
            .unwrap();
        assert_eq!(ups.len(), 2);
        assert_eq!(ups[0].job, JobId(1));
        assert_eq!(ups[0].cores(), 24);
        assert_eq!(ups[1].job, JobId(2));
        assert_eq!(ups[1].cores(), 24);
        assert!(ups[0].new_mask.is_disjoint(&ups[1].new_mask));
        // Isolation: each job sits on exactly one socket.
        let spec = ClusterSpec::marenostrum4(1).node;
        assert_eq!(crate::distribution::sockets_touched(&spec, &ups[0].new_mask), 1);
        assert_eq!(crate::distribution::sockets_touched(&spec, &ups[1].new_mask), 1);
        // Masks are staged until the per-job broadcast closes the batch.
        assert!(reg.find(JobId(1), NodeId(0)).unwrap().pending.is_some());
        assert_eq!(reg.poll_nodes(&[NodeId(0)]), 1);
        assert!(reg.validate_node(NodeId(0)).is_ok());
    }

    #[test]
    fn co_launch_rejects_static_mate() {
        let (mut nm, mut reg) = mgr();
        nm.launch(&mut reg, JobId(1), 48, false).unwrap();
        assert!(nm
            .co_launch(&mut reg, JobId(2), JobId(1), SharingFactor::HALF, 1)
            .is_none());
    }

    #[test]
    fn new_job_end_returns_cores_to_owner() {
        let (mut nm, mut reg) = mgr();
        nm.launch(&mut reg, JobId(1), 48, true).unwrap();
        nm.co_launch(&mut reg, JobId(2), JobId(1), SharingFactor::HALF, 2)
            .unwrap();
        let ups = nm.finish(&mut reg, JobId(2));
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].job, JobId(1));
        assert_eq!(ups[0].cores(), 48, "owner expanded back to the full node");
        assert_eq!(nm.residents.len(), 1);
    }

    #[test]
    fn owner_end_redistributes_to_new_job() {
        let (mut nm, mut reg) = mgr();
        nm.launch(&mut reg, JobId(1), 48, true).unwrap();
        nm.co_launch(&mut reg, JobId(2), JobId(1), SharingFactor::HALF, 2)
            .unwrap();
        // Owner (mate) finishes before the co-scheduled job.
        let ups = nm.finish(&mut reg, JobId(1));
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].job, JobId(2));
        assert_eq!(ups[0].cores(), 48, "survivor takes the whole node");
        assert!(nm.validate().is_ok());
    }

    #[test]
    fn plain_finish_frees_cores() {
        let (mut nm, mut reg) = mgr();
        nm.launch(&mut reg, JobId(1), 24, false).unwrap();
        let ups = nm.finish(&mut reg, JobId(1));
        assert!(ups.is_empty());
        assert!(nm.is_empty());
        assert_eq!(nm.free_mask().count(), 48);
    }

    #[test]
    fn finish_unknown_job_is_noop() {
        let (mut nm, mut reg) = mgr();
        assert!(nm.finish(&mut reg, JobId(77)).is_empty());
    }

    #[test]
    fn co_launch_absorbs_already_free_cores() {
        let (mut nm, mut reg) = mgr();
        nm.launch(&mut reg, JobId(1), 24, true).unwrap(); // half the node busy
        let ups = nm
            .co_launch(&mut reg, JobId(2), JobId(1), SharingFactor::HALF, 2)
            .unwrap();
        // Mate keeps 12, new job gets 12 freed + 24 already free = 36.
        assert_eq!(ups[0].cores(), 12);
        assert_eq!(ups[1].cores(), 36);
        assert!(nm.free_mask().is_empty());
    }

    #[test]
    fn rank_floor_respected_in_co_launch() {
        let (mut nm, mut reg) = mgr();
        nm.launch(&mut reg, JobId(1), 48, true).unwrap();
        let ups = nm
            .co_launch(&mut reg, JobId(2), JobId(1), SharingFactor::new(0.9), 40)
            .unwrap();
        assert_eq!(ups[0].cores(), 40, "mate floor = its 40 ranks");
        assert_eq!(ups[1].cores(), 8);
    }

    #[test]
    fn three_way_sharing_remains_disjoint() {
        let (mut nm, mut reg) = mgr();
        nm.launch(&mut reg, JobId(1), 48, true).unwrap();
        nm.co_launch(&mut reg, JobId(2), JobId(1), SharingFactor::HALF, 2)
            .unwrap();
        // A third job shrinks job 2 (mates can themselves be shrunk when
        // "more than two mates per node" is enabled).
        let ups = nm
            .co_launch(&mut reg, JobId(3), JobId(2), SharingFactor::HALF, 2)
            .unwrap();
        assert!(nm.validate().is_ok());
        assert_eq!(ups[0].job, JobId(2));
        assert_eq!(ups[0].cores(), 12);
        assert_eq!(ups[1].cores(), 12);
        // Masks across all three jobs cover the node exactly once.
        assert_eq!(nm.residents.len(), 3);
        let total: usize = nm.residents.iter().map(|r| r.mask.count()).sum();
        assert_eq!(total, 48);
    }
}
