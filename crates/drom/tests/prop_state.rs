//! Model-based property test of the node table's idle index: random
//! launch / vacate sequences on one-resident nodes never break the table's
//! invariants, the idle bitset answers every query exactly like a
//! `BTreeSet<NodeId>` reference kept beside it, and every node releases at
//! its resident's requested end (`None` when idle).

use cluster::{ClusterSpec, JobId, NodeId};
use drom::{NodeTable, ProcessEntry, Resident};
use proptest::prelude::*;
use simkit::SimTime;
use std::collections::BTreeSet;

/// Three index words, the last one partly used.
const NODES: u32 = 130;
/// The RICC node: 8 cores.
const WIDTH: u32 = 8;

#[derive(Debug, Clone)]
enum Op {
    /// One all-or-nothing launch on the first `k` idle nodes.
    Place {
        k: u32,
        cores: u32,
        malleable: bool,
        end: u64,
    },
    Remove {
        node: u32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..40, 0u32..10, any::<bool>(), 0u64..50).prop_map(|(k, cores, malleable, end)| {
            Op::Place {
                k,
                cores,
                malleable,
                end,
            }
        }),
        (0u32..NODES).prop_map(|node| Op::Remove { node }),
    ]
}

/// The reference: each node's resident job and its cores (0 when idle),
/// and from that the idle set; each job's requested end, by id.
struct Model {
    held: Vec<(JobId, u32)>,
    ends: Vec<SimTime>,
}

impl Model {
    fn idle(&self) -> BTreeSet<NodeId> {
        (0..NODES)
            .filter(|&n| self.held[n as usize].1 == 0)
            .map(NodeId)
            .collect()
    }

    fn end_of(&self, job: JobId) -> SimTime {
        self.ends[job.0 as usize]
    }

    /// A node releases at its resident's requested end, `None` when idle.
    fn release(&self, node: NodeId) -> Option<SimTime> {
        let (job, cores) = self.held[node.0 as usize];
        (cores > 0).then(|| self.end_of(job))
    }
}

fn check_against_model(t: &NodeTable, model: &Model) -> Result<(), TestCaseError> {
    if let Err(e) = t.validate() {
        return Err(TestCaseError::fail(format!("invariant broken: {e}")));
    }
    let reference: Vec<NodeId> = model.idle().into_iter().collect();
    prop_assert_eq!(t.empty_node_count() as usize, reference.len());
    prop_assert_eq!(t.empty_nodes().collect::<Vec<_>>(), reference.clone());
    prop_assert_eq!(
        t.busy_cores(),
        model.held.iter().map(|&(_, c)| u64::from(c)).sum::<u64>()
    );
    // "First n idle" at the edges, across each word boundary, and past the end.
    for n in [0, 1, 63, 64, 65, reference.len(), reference.len() + 1] {
        let expect = reference.get(..n).map(<[NodeId]>::to_vec);
        let probe = t.clone().launch_idle(n as u32, JobId(u64::MAX), 1, false, SimTime(0));
        prop_assert_eq!(probe, expect);
    }
    for n in (0..NODES).map(NodeId) {
        prop_assert_eq!(t.record(n).release(), model.release(n), "release of {}", n);
    }
    Ok(())
}

/// The table rebuilt from its three checkpoint sections, then its releases.
fn rebuild(t: &NodeTable) -> Result<NodeTable, TestCaseError> {
    let res: Vec<Vec<Resident>> = t.records().iter().map(|r| r.residents().to_vec()).collect();
    let occ = res
        .iter()
        .map(|rs| rs.iter().map(|r| (r.job, r.mask.count() as u32)).collect())
        .collect();
    let procs: Vec<ProcessEntry> = t.processes().collect();
    let mut re = NodeTable::restore(ClusterSpec::ricc().node, occ, procs, t.next_handle(), res)
        .map_err(TestCaseError::fail)?;
    for (n, rec) in t.records().iter().enumerate() {
        re.set_release(NodeId(n as u32), rec.release());
    }
    Ok(re)
}

proptest! {
    #[test]
    fn idle_index_matches_reference_under_random_ops(
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        let mut t = NodeTable::new(NODES, ClusterSpec::ricc().node);
        let mut model = Model { held: vec![(JobId(0), 0); NODES as usize], ends: vec![SimTime(0)] };
        check_against_model(&t, &model)?;
        let mut next_job = 1;
        for op in ops {
            match op {
                Op::Place { k, cores, malleable, end } => {
                    let job = JobId(next_job);
                    next_job += 1;
                    model.ends.push(SimTime(end));
                    // All-or-nothing: accepted exactly when `k` nodes are
                    // idle and the width is 1..=8; it takes the first `k`.
                    let first: Vec<NodeId> = model.idle().into_iter().take(k as usize).collect();
                    let fits = (1..=WIDTH).contains(&cores) && first.len() == k as usize;
                    let launched = t.launch_idle(k, job, cores, malleable, SimTime(end));
                    prop_assert_eq!(launched.is_some(), fits);
                    if let Some(ids) = launched {
                        prop_assert_eq!(&ids, &first);
                        ids.iter().for_each(|&n| model.held[n.0 as usize] = (job, cores));
                    }
                }
                Op::Remove { node } => {
                    let was = model.release(NodeId(node));
                    let (job, cores) = std::mem::replace(&mut model.held[node as usize], (JobId(0), 0));
                    // A lone resident leaves no heir: its cores free up, and
                    // the node releases at nothing.
                    let ended = t.vacate(NodeId(node), job, |j| model.end_of(j));
                    prop_assert_eq!(ended.is_ok(), cores > 0);
                    if let Ok(left) = ended {
                        prop_assert!(left.expanded.is_none());
                        prop_assert_eq!(left.release, (was, None));
                    }
                }
            }
            check_against_model(&t, &model)?;
        }
        // The checkpoint sections rebuild the same index.
        check_against_model(&rebuild(&t)?, &model)?;
        // Drain everything: machine must come back to fully idle.
        for (n, held) in model.held.iter_mut().enumerate() {
            if held.1 > 0 {
                let (job, _) = std::mem::replace(held, (JobId(0), 0));
                t.vacate(NodeId(n as u32), job, |j| model.ends[j.0 as usize]).unwrap();
            }
        }
        prop_assert_eq!(t.busy_cores(), 0);
        prop_assert_eq!(t.empty_node_count(), NODES);
        prop_assert_eq!(t.empty_nodes().count(), NODES as usize);
    }
}
