//! Model-based property test: the DROM view of the node table against a
//! plain handle → entry map, under arbitrary launch / co-launch / finish
//! streams. After every operation the two hold the same entries in the same
//! per-node registration order, every entry runs with its resident's mask
//! and nothing is staged, and the table's checkpoint sections restore an
//! equal table.

use cluster::{ClusterSpec, ClusterState, JobId, NodeId};
use drom::{DromHandle, NodeTable, ProcessEntry, Resident, SharingFactor};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NODES: u32 = 6;

#[derive(Debug, Clone)]
enum Op {
    Launch {
        node: u32,
        cores: u32,
        malleable: bool,
    },
    /// `pick` selects the mate among the node's residents.
    CoLaunch { node: u32, pick: usize, ranks: u32 },
    /// `pick` selects the resident that ends.
    Finish { node: u32, pick: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..NODES, 0u32..18, any::<bool>()).prop_map(|(node, cores, malleable)| Op::Launch {
            node,
            cores,
            malleable
        }),
        (0u32..NODES, 0usize..4, 1u32..12).prop_map(|(node, pick, ranks)| Op::CoLaunch {
            node,
            pick,
            ranks
        }),
        (0u32..NODES, 0usize..4).prop_map(|(node, pick)| Op::Finish { node, pick }),
    ]
}

/// The reference: every registered process by handle (handles ascend with
/// registration, so handle order *is* registration order), plus each
/// node's residents as `(job, malleable)` in arrival order.
#[derive(Default)]
struct Model {
    entries: BTreeMap<u64, (JobId, NodeId)>,
    residents: BTreeMap<u32, Vec<(JobId, bool)>>,
    next_handle: u64,
}

impl Model {
    fn on(&self, node: NodeId) -> Vec<(DromHandle, JobId)> {
        let on_node = self.entries.iter().filter(|(_, e)| e.1 == node);
        on_node.map(|(&h, e)| (DromHandle(h), e.0)).collect()
    }

    fn arrive(&mut self, node: NodeId, job: JobId, malleable: bool) {
        self.residents
            .entry(node.0)
            .or_default()
            .push((job, malleable));
        if malleable {
            self.entries.insert(self.next_handle, (job, node));
            self.next_handle += 1;
        }
    }
}

/// The table's three checkpoint sections.
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

proptest! {
    #[test]
    fn registry_matches_map_reference(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut spec = ClusterSpec::cea_curie(); // 16-core nodes, 2 × 8
        spec.nodes = NODES;
        let node_spec = spec.node.clone();
        let mut t = NodeTable::new(NODES, node_spec.clone());
        let mut cs = ClusterState::new(spec);
        let mut model = Model::default();
        let mut next_job = 1;
        for op in ops {
            match op {
                Op::Launch { node, cores, malleable } => {
                    let (n, job) = (NodeId(node), JobId(next_job));
                    next_job += 1;
                    let fits = model.residents.get(&node).is_none_or(Vec::is_empty)
                        && (1..=16).contains(&cores);
                    let launched = t.launch(&mut cs, &[n], job, cores, malleable);
                    prop_assert_eq!(launched.is_ok(), fits);
                    if fits {
                        model.arrive(n, job, malleable);
                    }
                }
                Op::CoLaunch { node, pick, ranks } => {
                    let (n, job) = (NodeId(node), JobId(next_job));
                    next_job += 1;
                    let here = model.residents.get(&node).cloned().unwrap_or_default();
                    let Some(&(mate, malleable)) = here.get(pick % here.len().max(1)) else {
                        continue;
                    };
                    // A lone malleable mate lends when it can free a core
                    // or the node has free ones.
                    let mate_cores = t.record(n).cores_of(mate).unwrap();
                    let keep = SharingFactor::HALF.keep_cores(mate_cores, ranks);
                    let lends = malleable
                        && here.len() == 1
                        && (keep < mate_cores || !t.free_mask(n).is_empty());
                    let ups = t.co_launch(&mut cs, n, job, mate, SharingFactor::HALF, ranks);
                    prop_assert_eq!(ups.is_some(), lends);
                    if lends {
                        model.arrive(n, job, true);
                    }
                }
                Op::Finish { node, pick } => {
                    let here = model.residents.entry(node).or_default();
                    let Some(&(job, _)) = here.get(pick % here.len().max(1)) else {
                        prop_assert!(t.finish(&mut cs, NodeId(node), JobId(0)).is_err());
                        continue;
                    };
                    here.retain(|&(j, _)| j != job);
                    model.entries.retain(|_, e| *e != (job, NodeId(node)));
                    prop_assert!(t.finish(&mut cs, NodeId(node), job).is_ok());
                }
            }
            t.validate(&cs).map_err(TestCaseError::fail)?;
            prop_assert_eq!(t.next_handle(), model.next_handle, "handles count up from 0");
            for n in (0..NODES).map(NodeId) {
                let seen: Vec<ProcessEntry> = t.processes_on(n).collect();
                let listed: Vec<(DromHandle, JobId)> = seen.iter().map(|e| (e.handle, e.job)).collect();
                prop_assert_eq!(listed, model.on(n));
                for e in &seen {
                    prop_assert_eq!(e.pending, None, "nothing is ever staged");
                    let r = t.record(n).residents().iter().find(|r| r.job == e.job).unwrap();
                    prop_assert_eq!((r.handle, r.mask), (Some(e.handle), e.current));
                    prop_assert_eq!(t.find(e.job, n), Some(*e));
                }
            }
            let (occ, procs, res) = sections(&t);
            let rebuilt = NodeTable::restore(node_spec.clone(), occ, procs, t.next_handle(), res)
                .map_err(TestCaseError::fail)?;
            prop_assert_eq!(sections(&rebuilt), sections(&t));
        }

        // What a hostile snapshot can get wrong is still rejected.
        let (occ, procs, res) = sections(&t);
        if let Some(first) = procs.first().copied() {
            let mut twice = procs.clone();
            twice.push(first);
            let dup = NodeTable::restore(node_spec.clone(), occ.clone(), twice, t.next_handle(), res.clone());
            prop_assert!(dup.is_err(), "duplicate handle");
            let top = procs.iter().map(|e| e.handle.0).max().unwrap();
            prop_assert!(NodeTable::restore(node_spec, occ, procs, top, res).is_err(), "handle >= next");
        }
    }
}
