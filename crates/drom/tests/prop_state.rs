//! Model-based property test of the node table's idle index: random
//! launch / finish sequences on one-resident nodes never break the table's
//! invariants, and the idle bitset answers every query exactly like a
//! `BTreeSet<NodeId>` reference kept beside it.

use cluster::{ClusterSpec, JobId, NodeId};
use drom::{NodeTable, ProcessEntry, Resident};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Three index words, the last one partly used.
const NODES: u32 = 130;
/// The RICC node: 8 cores.
const WIDTH: u32 = 8;

#[derive(Debug, Clone)]
enum Op {
    Place {
        nodes: Vec<u32>,
        cores: u32,
        malleable: bool,
    },
    Remove {
        node: u32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            prop::collection::vec(0u32..NODES, 1..40),
            0u32..10,
            any::<bool>()
        )
            .prop_map(|(nodes, cores, malleable)| Op::Place {
                nodes,
                cores,
                malleable
            }),
        (0u32..NODES).prop_map(|node| Op::Remove { node }),
    ]
}

/// The reference: each node's resident job and its cores (0 when idle),
/// and from that the idle set.
struct Model {
    held: Vec<(JobId, u32)>,
}

impl Model {
    fn idle(&self) -> BTreeSet<NodeId> {
        (0..NODES)
            .filter(|&n| self.held[n as usize].1 == 0)
            .map(NodeId)
            .collect()
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
        prop_assert_eq!(t.take_empty_nodes(n as u32), expect);
    }
    Ok(())
}

/// The table rebuilt from its three checkpoint sections.
fn rebuild(t: &NodeTable) -> Result<NodeTable, TestCaseError> {
    let res: Vec<Vec<Resident>> = t.records().iter().map(|r| r.residents().to_vec()).collect();
    let occ = res
        .iter()
        .map(|rs| rs.iter().map(|r| (r.job, r.mask.count() as u32)).collect())
        .collect();
    let procs: Vec<ProcessEntry> = t.processes().collect();
    NodeTable::restore(ClusterSpec::ricc().node, occ, procs, t.next_handle(), res)
        .map_err(TestCaseError::fail)
}

proptest! {
    #[test]
    fn idle_index_matches_reference_under_random_ops(
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        let mut t = NodeTable::new(NODES, ClusterSpec::ricc().node);
        let mut model = Model { held: vec![(JobId(0), 0); NODES as usize] };
        check_against_model(&t, &model)?;
        let mut next_job = 1;
        for op in ops {
            match op {
                Op::Place { mut nodes, cores, malleable } => {
                    nodes.sort_unstable();
                    nodes.dedup();
                    let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
                    let job = JobId(next_job);
                    next_job += 1;
                    // All-or-nothing: accepted exactly when every node is
                    // idle and the width is 1..=8.
                    let fits = (1..=WIDTH).contains(&cores)
                        && nodes.iter().all(|&n| model.held[n as usize].1 == 0);
                    prop_assert_eq!(t.launch(&ids, job, cores, malleable).is_ok(), fits);
                    if fits {
                        nodes.iter().for_each(|&n| model.held[n as usize] = (job, cores));
                    }
                }
                Op::Remove { node } => {
                    let (job, cores) = std::mem::replace(&mut model.held[node as usize], (JobId(0), 0));
                    // A lone resident leaves no heir: its cores free up.
                    let ended = t.finish(NodeId(node), job);
                    prop_assert_eq!(ended.is_ok(), cores > 0);
                    if let Ok(heir) = ended {
                        prop_assert!(heir.is_none());
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
                t.finish(NodeId(n as u32), job).unwrap();
            }
        }
        prop_assert_eq!(t.busy_cores(), 0);
        prop_assert_eq!(t.empty_node_count(), NODES);
        prop_assert_eq!(t.empty_nodes().count(), NODES as usize);
    }
}
