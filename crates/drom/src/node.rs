//! The node table (paper Listing 3: slurmd + task/affinity + DROM).
//!
//! One record per node, indexed by node id, holds the node's residents
//! inline — job, core mask, malleability, DROM handle and lender — and the
//! instant the node is predicted to empty. It is the only per-node
//! structure: occupancy core counts are mask popcounts, the DROM process
//! entries are the residents that carry a handle (`crate::registry`), and
//! the table's own idle-node bitset and busy-core count change in the same
//! pass over the nodes that changes the records. Every mutation implements
//! the paper's ownership rules:
//!
//! 1. at a malleable co-launch the shrunk resident becomes the **owner** of
//!    the cores lent to the incoming job;
//! 2. when the incoming job ends, its cores return to the owner (expand);
//! 3. when the owner ends first, its remaining cores are distributed to the
//!    still-running residents "to increase node utilization".
//!
//! A mask change is applied where it is made: DROM's malleability point is
//! reached before the mutation returns (its overhead is negligible, paper
//! §2.1), so nothing is ever staged.
//!
//! SD-Policy's eligibility rule allows at most two residents per node: a
//! mate runs alone at full width, and it lends to one borrower at a time.
//! A record therefore holds two slots, and a third resident is refused.

use crate::distribution::{expand_into, shrink_socket_first};
use crate::registry::{DromHandle, ProcessEntry};
use crate::sharing::SharingFactor;
use cluster::cpumask::{bits, CpuMask};
use cluster::ids::{AllocError, JobId, NodeId};
use cluster::spec::NodeSpec;
use simkit::SimTime;

/// A mask change produced by a node-level event, to be propagated to the
/// simulator (rate recomputation).
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

/// What [`NodeTable::vacate`] did to one node.
#[derive(Debug, Clone, PartialEq)]
pub struct Vacated {
    /// The co-resident that took the freed cores, with its grown mask.
    pub expanded: Option<NodeUpdate>,
    /// The node's release before and after.
    pub release: (Option<SimTime>, Option<SimTime>),
}

/// One job resident on a node (every field is plain data, so this is also
/// the persisted form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resident {
    pub job: JobId,
    pub mask: CpuMask,
    /// Registered with DROM: exactly when `handle` is set.
    pub malleable: bool,
    pub handle: Option<DromHandle>,
    /// For a co-launched job: the resident that lent it cores on this node.
    pub lender: Option<JobId>,
}

/// Most residents one node holds: a full-width mate and its borrower.
const MAX_RESIDENTS: usize = 2;

/// One node's residents, inline, in arrival order, and its release.
#[derive(Debug, Clone, Copy)]
pub struct NodeRecord {
    len: u8,
    slots: [Resident; MAX_RESIDENTS],
    /// When the node is predicted to empty: the latest requested end of
    /// its residents, `None` when idle. Set by the mutation that visits the
    /// node, from the requested ends the simulator passes in.
    release: Option<SimTime>,
}

impl NodeRecord {
    fn new(width: usize) -> NodeRecord {
        let vacant = Resident {
            job: JobId(0),
            mask: CpuMask::empty(width),
            malleable: false,
            handle: None,
            lender: None,
        };
        NodeRecord {
            len: 0,
            slots: [vacant; MAX_RESIDENTS],
            release: None,
        }
    }

    /// The residents, in arrival order.
    #[inline]
    pub fn residents(&self) -> &[Resident] {
        &self.slots[..self.len as usize]
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The predicted instant the node empties (`None` = idle).
    pub fn release(&self) -> Option<SimTime> {
        self.release
    }

    /// Cores `job` holds here.
    pub fn cores_of(&self, job: JobId) -> Option<u32> {
        let r = self.residents().iter().find(|r| r.job == job)?;
        Some(r.mask.count() as u32)
    }

    /// Cores held by all residents.
    pub fn cores_used(&self) -> u32 {
        self.residents().iter().map(|r| r.mask.count() as u32).sum()
    }

    /// Mask of cores not held by any resident.
    fn free_mask(&self, width: usize) -> CpuMask {
        let mut free = CpuMask::full(width);
        for r in self.residents() {
            free.subtract(&r.mask);
        }
        free
    }

    fn push(&mut self, r: Resident) {
        self.slots[self.len as usize] = r;
        self.len += 1;
    }

    /// Removes `job`, keeping the others in arrival order.
    #[inline]
    fn take(&mut self, job: JobId) -> Option<Resident> {
        let i = self.residents().iter().position(|r| r.job == job)?;
        let gone = self.slots[i];
        // Two slots at most: only a first of two has one to shift down.
        if i + 1 < self.len as usize {
            self.slots[i] = self.slots[i + 1];
        }
        self.len -= 1;
        Some(gone)
    }

    /// At most two residents, one job each, on disjoint non-empty masks of
    /// the node's width, each malleable exactly when it holds a DROM handle.
    fn check(residents: &[Resident], node: NodeId, width: usize) -> Result<(), String> {
        if residents.len() > MAX_RESIDENTS {
            return Err(format!(
                "{node} has {} residents; at most {MAX_RESIDENTS} (a mate and its borrower)",
                residents.len()
            ));
        }
        for (i, a) in residents.iter().enumerate() {
            if a.mask.width() != width {
                return Err(format!(
                    "{} on {node}: mask is {} cores wide",
                    a.job,
                    a.mask.width()
                ));
            }
            if a.mask.is_empty() {
                return Err(format!("{} has empty mask on {node}", a.job));
            }
            if a.malleable != a.handle.is_some() {
                return Err(format!(
                    "{} on {node}: malleable {} with DROM handle {:?}",
                    a.job, a.malleable, a.handle
                ));
            }
            for b in &residents[i + 1..] {
                if a.job == b.job {
                    return Err(format!("{} appears twice on {node}", a.job));
                }
                if !a.mask.is_disjoint(&b.mask) {
                    return Err(format!(
                        "{} and {} overlap on {node}: {:?} / {:?}",
                        a.job, b.job, a.mask, b.mask
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The idle-index word and bit of `node`.
fn idle_bit(node: NodeId) -> (usize, u64) {
    (node.0 as usize / 64, 1 << (node.0 % 64))
}

/// Every node's residents, indexed by node id, with the machine-wide
/// counts the scheduler asks for without touching a node.
#[derive(Debug, Clone)]
pub struct NodeTable {
    spec: NodeSpec,
    records: Vec<NodeRecord>,
    /// Completely idle nodes as a bitset (node `n` is bit `n % 64` of word
    /// `n / 64`), so the scheduler's "first n idle nodes" walks words, not
    /// the machine.
    idle: Vec<u64>,
    idle_count: u32,
    busy_cores: u64,
    /// Next DROM handle: one machine-wide counter, in registration order.
    next_handle: u64,
}

impl NodeTable {
    /// `nodes` idle nodes.
    pub fn new(nodes: u32, spec: NodeSpec) -> NodeTable {
        let record = NodeRecord::new(spec.cores() as usize);
        let mut idle = vec![0u64; (nodes as usize).div_ceil(64)];
        for (word, bit) in (0..nodes).map(|n| idle_bit(NodeId(n))) {
            idle[word] |= bit;
        }
        NodeTable {
            records: vec![record; nodes as usize],
            spec,
            idle,
            idle_count: nodes,
            busy_cores: 0,
            next_handle: 0,
        }
    }

    pub fn record(&self, node: NodeId) -> &NodeRecord {
        &self.records[node.0 as usize]
    }

    /// Records in node order, for persistence.
    pub fn records(&self) -> &[NodeRecord] {
        &self.records
    }

    /// The next handle [`NodeTable::launch_idle`] or [`NodeTable::co_launch`]
    /// registers with DROM.
    pub fn next_handle(&self) -> u64 {
        self.next_handle
    }

    /// Number of completely idle nodes.
    pub fn empty_node_count(&self) -> u32 {
        self.idle_count
    }

    /// Total busy cores across the machine.
    pub fn busy_cores(&self) -> u64 {
        self.busy_cores
    }

    /// Whether `node` is completely idle.
    pub fn is_idle(&self, node: NodeId) -> bool {
        let (word, bit) = idle_bit(node);
        self.idle[word] & bit != 0
    }

    /// The ids of completely idle nodes, ascending (served from the idle
    /// index, not a machine scan).
    pub fn empty_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.idle
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| bits(w).map(move |b| NodeId((i * 64 + b) as u32)))
    }

    /// Sets `node`'s predicted release (a restore's; every mutation sets
    /// the releases of the nodes it visits).
    pub fn set_release(&mut self, node: NodeId, when: Option<SimTime>) {
        self.records[node.0 as usize].release = when;
    }

    /// Mask of cores not held by any resident of `node`.
    pub fn free_mask(&self, node: NodeId) -> CpuMask {
        self.record(node).free_mask(self.spec.cores() as usize)
    }

    fn width(&self) -> usize {
        self.spec.cores() as usize
    }

    /// Launches `job` on the lowest `cores` cores of each of the first `k`
    /// idle nodes (ascending id), one visit per node: it leaves the idle
    /// index and gets its resident (registered with DROM when `malleable`,
    /// handles in node order) and its release. Returns the nodes taken, or
    /// `None` (nothing touched) when fewer than `k` nodes are idle or
    /// `cores` is 0 or wider than a node.
    pub fn launch_idle(
        &mut self,
        k: u32,
        job: JobId,
        cores: u32,
        malleable: bool,
        release: SimTime,
    ) -> Option<Vec<NodeId>> {
        if cores == 0 || cores > self.spec.cores() || self.idle_count < k {
            return None;
        }
        let mask = CpuMask::range(self.width(), 0, cores as usize);
        let (mut taken, mut word) = (Vec::with_capacity(k as usize), 0);
        for _ in 0..k {
            while self.idle[word] == 0 {
                word += 1;
            }
            let n = NodeId((word * 64) as u32 + self.idle[word].trailing_zeros());
            self.idle[word] &= self.idle[word] - 1;
            let handle = malleable.then(|| {
                self.next_handle += 1;
                DromHandle(self.next_handle - 1)
            });
            let record = &mut self.records[n.0 as usize];
            debug_assert!(record.is_empty() && record.release.is_none(), "{n} idle but held");
            record.push(Resident { job, mask, malleable, handle, lender: None });
            record.release = Some(release);
            taken.push(n);
        }
        self.idle_count -= k;
        self.busy_cores += u64::from(cores) * u64::from(k);
        Some(taken)
    }

    /// Co-launches `new_job` on `node` by shrinking the resident `mate`
    /// according to the sharing factor (paper: "node managers calculate
    /// tasks-to-cores distribution among jobs, keeping jobs balanced and
    /// isolated"). The new job also takes any cores that were already
    /// free.
    ///
    /// `mate_ranks` is the mate's MPI-rank count on this node (shrink
    /// floor); the node releases at `release` once the pair shares it,
    /// set in the same visit. Returns the mate's shrunken mask and the new
    /// job's, or `None` (nothing touched) when the mate is absent, rigid or
    /// already sharing the node, or nothing can be freed.
    pub fn co_launch(
        &mut self,
        node: NodeId,
        new_job: JobId,
        mate: JobId,
        sharing: SharingFactor,
        mate_ranks: u32,
        release: SimTime,
    ) -> Option<[NodeUpdate; 2]> {
        let width = self.width();
        let record = &mut self.records[node.0 as usize];
        if record.len as usize >= MAX_RESIDENTS {
            return None;
        }
        let free = record.free_mask(width);
        let m = record.slots[..record.len as usize]
            .iter_mut()
            .find(|r| r.job == mate)?;
        if !m.malleable {
            return None;
        }
        let mate_cores = m.mask.count() as u32;
        let keep = sharing.keep_cores(mate_cores, mate_ranks);
        if keep == mate_cores && free.is_empty() {
            return None;
        }
        // Shrink the mate, socket-first for isolation.
        let kept = shrink_socket_first(&self.spec, &m.mask, keep);
        let mut given = m.mask;
        given.subtract(&kept);
        given.union_with(&free);
        m.mask = kept;
        let handle = DromHandle(self.next_handle);
        self.next_handle += 1;
        record.push(Resident {
            job: new_job,
            mask: given,
            malleable: true,
            handle: Some(handle),
            lender: Some(mate),
        });
        record.release = Some(release);
        // The mate's cores change hands; the node's free ones become busy.
        self.busy_cores += free.count() as u64;
        Some([
            NodeUpdate {
                job: mate,
                new_mask: kept,
            },
            NodeUpdate {
                job: new_job,
                new_mask: given,
            },
        ])
    }

    /// Removes `job` from `node`, applying the paper's end-of-job rules:
    /// the co-resident takes the freed cores when it lent them (rule 2) or
    /// is malleable (rule 3), and its grown mask is returned; otherwise the
    /// cores become free, and an emptied node turns idle. In the same visit
    /// the node's release becomes the latest `release_of` its residents
    /// left — `None`, with no call, when it empties. Refused (nothing
    /// touched) when `job` is not there.
    ///
    /// `#[inline]` across the crate boundary, and so are the record
    /// helpers and `CpuMask::count` it calls: it runs once per node of
    /// every ending job, and those calls cost more than half its time.
    #[inline]
    pub fn vacate(
        &mut self,
        node: NodeId,
        job: JobId,
        release_of: impl Fn(JobId) -> SimTime,
    ) -> Result<Vacated, AllocError> {
        let record = &mut self.records[node.0 as usize];
        let ended = record.take(job).ok_or(AllocError::NotPlaced { node })?;
        let cores = ended.mask.count() as u32;
        let expanded = match record.slots[..record.len as usize].first_mut() {
            Some(other) if other.malleable || ended.lender == Some(other.job) => {
                other.mask = expand_into(&self.spec, &other.mask, &ended.mask, cores);
                Some(NodeUpdate {
                    job: other.job,
                    new_mask: other.mask,
                })
            }
            _ => {
                self.busy_cores -= u64::from(cores);
                None
            }
        };
        if record.is_empty() {
            let (word, bit) = idle_bit(node);
            self.idle[word] |= bit;
            self.idle_count += 1;
        }
        let release = record.residents().iter().map(|r| release_of(r.job)).max();
        let was = std::mem::replace(&mut record.release, release);
        Ok(Vacated {
            expanded,
            release: (was, release),
        })
    }

    /// Checks every record, and that the idle index and busy-core count
    /// describe them: a node's bit is set exactly when it has no resident,
    /// no bit is set past the last node, and the busy cores are the masks'
    /// popcounts. DROM handles are unique and below the next one.
    pub fn validate(&self) -> Result<(), String> {
        let (width, mut busy, mut idle) = (self.width(), 0u64, 0u32);
        let mut handles = Vec::new();
        for (i, record) in self.records.iter().enumerate() {
            let node = NodeId(i as u32);
            NodeRecord::check(record.residents(), node, width)?;
            if record.is_empty() != self.is_idle(node) {
                return Err(format!(
                    "{node}: {} residents, idle index says {}",
                    record.len,
                    if self.is_idle(node) { "idle" } else { "busy" }
                ));
            }
            idle += u32::from(record.is_empty());
            busy += u64::from(record.cores_used());
            handles.extend(record.residents().iter().filter_map(|r| r.handle));
        }
        // Popcount, not the node walk above: a bit past the last node would
        // surface as a phantom idle node in `empty_nodes`.
        let set: u32 = self.idle.iter().map(|w| w.count_ones()).sum();
        if (set, self.idle_count) != (idle, idle) {
            return Err(format!(
                "idle index count {} / bits {set} for {idle} idle nodes",
                self.idle_count
            ));
        }
        if busy != self.busy_cores {
            return Err(format!("busy_cores counter {} != actual {busy}", self.busy_cores));
        }
        Self::check_handles(handles, self.next_handle)
    }

    fn check_handles(mut handles: Vec<DromHandle>, next: u64) -> Result<(), String> {
        handles.sort_unstable();
        if handles.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate DROM handle in snapshot".into());
        }
        match handles.last() {
            Some(h) if h.0 >= next => {
                Err(format!("DROM entry handle {} >= next_handle {next}", h.0))
            }
            _ => Ok(()),
        }
    }

    /// Rebuilds a table from the checkpoint's three resident sections: the
    /// occupancy `(job, cores)` lists, the DROM process entries with the
    /// next handle, and the residents. Any node on which they disagree, or
    /// that holds more than two residents, is refused by name. Releases
    /// are left `None` for the caller to set.
    pub fn restore(
        spec: NodeSpec,
        occupancy: Vec<Vec<(JobId, u32)>>,
        mut processes: Vec<ProcessEntry>,
        next_handle: u64,
        residents: Vec<Vec<Resident>>,
    ) -> Result<NodeTable, String> {
        let nodes = residents.len();
        if occupancy.len() != nodes {
            return Err(format!(
                "checkpoint has {} occupancy lists for {nodes} nodes",
                occupancy.len()
            ));
        }
        if let Some(e) = processes.iter().find(|e| e.node.0 as usize >= nodes) {
            return Err(format!(
                "DROM entry on {}, machine has {nodes} nodes",
                e.node
            ));
        }
        Self::check_handles(processes.iter().map(|e| e.handle).collect(), next_handle)?;
        // Stable: each node's entries keep their registration order.
        processes.sort_by_key(|e| e.node);
        let mut procs = processes.iter().peekable();
        let mut table = NodeTable::new(nodes as u32, spec);
        let width = table.width();
        for (i, (occ, res)) in occupancy.iter().zip(&residents).enumerate() {
            let node = NodeId(i as u32);
            NodeRecord::check(res, node, width)?;
            let counts = res.iter().map(|r| (r.job, r.mask.count() as u32));
            if !occ.iter().copied().eq(counts) {
                return Err(format!(
                    "{node}: occupancy {occ:?} disagrees with the resident masks"
                ));
            }
            for r in res {
                let Some(handle) = r.handle else { continue };
                let agrees = procs.next_if(|e| e.node == node).is_some_and(|e| {
                    (e.handle, e.job, e.current) == (handle, r.job, r.mask)
                });
                if !agrees {
                    return Err(format!(
                        "{node}: DROM entry for {} disagrees with its resident",
                        r.job
                    ));
                }
            }
            if procs.peek().is_some_and(|e| e.node == node) {
                return Err(format!("{node}: DROM entry without a resident"));
            }
            if res.is_empty() {
                continue;
            }
            let record = &mut table.records[i];
            res.iter().for_each(|&r| record.push(r));
            let (word, bit) = idle_bit(node);
            table.idle[word] &= !bit;
            table.idle_count -= 1;
            table.busy_cores += u64::from(record.cores_used());
        }
        table.next_handle = next_handle;
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::spec::ClusterSpec;

    const N0: NodeId = NodeId(0);

    /// One MareNostrum4 node (2 × 24 cores).
    fn table() -> NodeTable {
        NodeTable::new(1, ClusterSpec::marenostrum4(1).node)
    }

    fn valid(t: &NodeTable) {
        t.validate().expect("records and counters agree");
    }

    /// Each job's requested end: the instant its nodes release at.
    fn end_of(job: JobId) -> SimTime {
        SimTime(100 * job.0)
    }

    #[test]
    fn exclusive_launch_gets_full_node() {
        let mut t = table();
        assert_eq!(t.launch_idle(1, JobId(1), 48, true, end_of(JobId(1))), Some(vec![N0]));
        assert_eq!(t.record(N0).cores_of(JobId(1)), Some(48));
        assert_eq!(t.record(N0).release(), Some(end_of(JobId(1))));
        assert_eq!(t.processes_on(N0).count(), 1);
        assert!(t.free_mask(N0).is_empty());
        assert_eq!(t.busy_cores(), 48);
        valid(&t);
    }

    /// Too few idle nodes, a zero-core or an over-wide request is refused
    /// whole: no node is touched.
    #[test]
    fn launch_fails_without_room() {
        let mut t = NodeTable::new(2, ClusterSpec::marenostrum4(2).node);
        let end = end_of(JobId(1));
        assert_eq!(t.launch_idle(1, JobId(1), 48, false, end), Some(vec![N0]));
        assert_eq!(t.launch_idle(2, JobId(2), 1, false, end), None, "one node is idle");
        assert_eq!(t.launch_idle(1, JobId(2), 0, false, end), None);
        assert_eq!(t.launch_idle(1, JobId(2), 49, false, end), None);
        let spare = t.record(NodeId(1));
        assert!(spare.is_empty() && spare.release().is_none() && t.is_idle(NodeId(1)));
        assert_eq!(t.launch_idle(1, JobId(2), 1, false, end), Some(vec![NodeId(1)]));
        valid(&t);
    }

    #[test]
    fn co_launch_splits_socket_wise() {
        let mut t = table();
        t.launch_idle(1, JobId(1), 48, true, end_of(JobId(1))).unwrap();
        let ups = t.co_launch(N0, JobId(2), JobId(1), SharingFactor::HALF, 2, end_of(JobId(2))).unwrap();
        assert_eq!(ups[0].job, JobId(1));
        assert_eq!(ups[0].cores(), 24);
        assert_eq!(ups[1].job, JobId(2));
        assert_eq!(ups[1].cores(), 24);
        assert!(ups[0].new_mask.is_disjoint(&ups[1].new_mask));
        // Isolation: each job sits on exactly one socket.
        let spec = ClusterSpec::marenostrum4(1).node;
        assert_eq!(
            crate::distribution::sockets_touched(&spec, &ups[0].new_mask),
            1
        );
        assert_eq!(
            crate::distribution::sockets_touched(&spec, &ups[1].new_mask),
            1
        );
        // The node's occupancy is the two masks: the node stays full.
        assert_eq!(t.record(N0).cores_of(JobId(1)), Some(24));
        assert_eq!(t.record(N0).cores_used(), 48);
        assert_eq!(t.busy_cores(), 48);
        valid(&t);
    }

    #[test]
    fn co_launch_rejects_static_mate() {
        let mut t = table();
        t.launch_idle(1, JobId(1), 48, false, end_of(JobId(1))).unwrap();
        assert!(t.co_launch(N0, JobId(2), JobId(1), SharingFactor::HALF, 1, end_of(JobId(2))).is_none());
    }

    #[test]
    fn new_job_end_returns_cores_to_owner() {
        let mut t = table();
        t.launch_idle(1, JobId(1), 48, true, end_of(JobId(1))).unwrap();
        t.co_launch(N0, JobId(2), JobId(1), SharingFactor::HALF, 2, end_of(JobId(2))).unwrap();
        assert_eq!(t.record(N0).release(), Some(end_of(JobId(2))));
        let left = t.vacate(N0, JobId(2), end_of).unwrap();
        assert_eq!(left.release, (Some(end_of(JobId(2))), Some(end_of(JobId(1)))));
        let up = left.expanded.unwrap();
        assert_eq!(up.job, JobId(1));
        assert_eq!(up.cores(), 48, "owner expanded back to the full node");
        assert_eq!(t.record(N0).residents().len(), 1);
        assert_eq!(t.busy_cores(), 48);
        valid(&t);
    }

    #[test]
    fn owner_end_redistributes_to_new_job() {
        let mut t = table();
        t.launch_idle(1, JobId(1), 48, true, end_of(JobId(1))).unwrap();
        t.co_launch(N0, JobId(2), JobId(1), SharingFactor::HALF, 2, end_of(JobId(2))).unwrap();
        // Owner (mate) finishes before the co-scheduled job.
        let left = t.vacate(N0, JobId(1), end_of).unwrap();
        assert_eq!(t.record(N0).release(), Some(end_of(JobId(2))));
        let up = left.expanded.unwrap();
        assert_eq!(up.job, JobId(2));
        assert_eq!(up.cores(), 48, "survivor takes the whole node");
        valid(&t);
    }

    #[test]
    fn plain_finish_frees_cores() {
        let mut t = table();
        t.launch_idle(1, JobId(1), 24, false, end_of(JobId(1))).unwrap();
        let freed = Vacated {
            expanded: None,
            release: (Some(end_of(JobId(1))), None),
        };
        assert_eq!(t.vacate(N0, JobId(1), end_of), Ok(freed), "a rigid job's cores free up");
        assert!(t.record(N0).is_empty());
        assert_eq!(t.free_mask(N0).count(), 48);
        assert!(t.is_idle(N0) && t.busy_cores() == 0);
        valid(&t);
    }

    #[test]
    fn finish_unknown_job_is_noop() {
        let mut t = table();
        let absent = AllocError::NotPlaced { node: N0 };
        assert_eq!(t.vacate(N0, JobId(77), end_of), Err(absent));
        valid(&t);
    }

    #[test]
    fn co_launch_absorbs_already_free_cores() {
        let mut t = table();
        t.launch_idle(1, JobId(1), 24, true, end_of(JobId(1))).unwrap(); // half the node busy
        let ups = t.co_launch(N0, JobId(2), JobId(1), SharingFactor::HALF, 2, end_of(JobId(2))).unwrap();
        // Mate keeps 12, new job gets 12 freed + 24 already free = 36.
        assert_eq!(ups[0].cores(), 12);
        assert_eq!(ups[1].cores(), 36);
        assert!(t.free_mask(N0).is_empty());
        assert_eq!(t.busy_cores(), 48);
        valid(&t);
    }

    #[test]
    fn rank_floor_respected_in_co_launch() {
        let mut t = table();
        t.launch_idle(1, JobId(1), 48, true, end_of(JobId(1))).unwrap();
        let ups = t.co_launch(N0, JobId(2), JobId(1), SharingFactor::new(0.9), 40, end_of(JobId(2))).unwrap();
        assert_eq!(ups[0].cores(), 40, "mate floor = its 40 ranks");
        assert_eq!(ups[1].cores(), 8);
    }

    #[test]
    fn third_resident_is_refused() {
        let mut t = table();
        t.launch_idle(1, JobId(1), 48, true, end_of(JobId(1))).unwrap();
        t.co_launch(N0, JobId(2), JobId(1), SharingFactor::HALF, 2, end_of(JobId(2))).unwrap();
        // The borrower is malleable, but the node already holds a mate and
        // its borrower: a third job is refused and nothing moves.
        let before = *t.record(N0);
        for mate in [JobId(1), JobId(2)] {
            assert!(t.co_launch(N0, JobId(3), mate, SharingFactor::HALF, 2, end_of(JobId(3))).is_none());
        }
        assert_eq!(t.record(N0).residents(), before.residents());
        assert_eq!(t.next_handle(), 2);
        valid(&t);
    }

    /// A table's three checkpoint sections.
    type Sections = (
        Vec<Vec<(JobId, u32)>>,
        Vec<ProcessEntry>,
        Vec<Vec<Resident>>,
    );

    fn sections(t: &NodeTable) -> Sections {
        let res: Vec<Vec<Resident>> = t.records().iter().map(|r| r.residents().to_vec()).collect();
        let occ = res
            .iter()
            .map(|rs| rs.iter().map(|r| (r.job, r.mask.count() as u32)).collect())
            .collect();
        (occ, t.processes().collect(), res)
    }

    #[test]
    fn restore_cross_checks_the_three_sections() {
        let mut t = table();
        t.launch_idle(1, JobId(1), 48, true, end_of(JobId(1))).unwrap();
        t.co_launch(N0, JobId(2), JobId(1), SharingFactor::HALF, 2, end_of(JobId(2))).unwrap();
        let spec = ClusterSpec::marenostrum4(1).node;
        let restore =
            |(occ, procs, res): (_, _, _)| NodeTable::restore(spec.clone(), occ, procs, 2, res);
        let re = restore(sections(&t)).expect("a table's own sections restore");
        assert_eq!(sections(&re), sections(&t));
        assert_eq!((re.empty_node_count(), re.busy_cores()), (0, 48));
        valid(&re);

        // One fewer core in the occupancy than in the mask.
        let mut s = sections(&t);
        s.0[0][0].1 = 23;
        assert!(restore(s).unwrap_err().contains("n0: occupancy"));
        // A DROM entry whose mask is not its resident's.
        let mut s = sections(&t);
        s.1[0].current = s.1[1].current;
        assert!(restore(s).unwrap_err().contains("n0: DROM entry for job1"));
        // A malleable flag that disagrees with the DROM handle.
        let mut s = sections(&t);
        s.2[0][1].malleable = false;
        assert!(restore(s).unwrap_err().contains("job2 on n0: malleable false"));
        // An entry with no resident, and a resident with no entry.
        let mut s = sections(&t);
        s.1.push(ProcessEntry {
            handle: DromHandle(1),
            ..s.1[0]
        });
        assert!(restore(s).is_err(), "duplicate handle");
        let mut s = sections(&t);
        s.1.pop();
        assert!(restore(s).unwrap_err().contains("DROM entry for job2"));
        // A third resident.
        let mut s = sections(&t);
        let third = Resident {
            job: JobId(3),
            handle: None,
            ..s.2[0][0]
        };
        s.2[0].push(third);
        s.0[0].push((JobId(3), 24));
        assert!(restore(s).unwrap_err().contains("n0 has 3 residents"));
    }
}
