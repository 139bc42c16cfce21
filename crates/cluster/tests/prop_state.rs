//! Model-based property test: random placement/shrink/remove sequences never
//! violate the ClusterState invariants, and the idle bitset answers every
//! query exactly like a `BTreeSet<NodeId>` reference kept beside it.

use cluster::{ClusterSpec, ClusterState, JobId, NodeId};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Three index words, the last one partly used.
const NODES: u32 = 130;

#[derive(Debug, Clone)]
enum Op {
    Place {
        job: u64,
        nodes: Vec<u32>,
        cores: u32,
    },
    SetCores {
        job: u64,
        node: u32,
        cores: u32,
    },
    Remove {
        job: u64,
    },
    RemoveFromNode {
        job: u64,
        node: u32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..40, prop::collection::vec(0u32..NODES, 1..40), 1u32..9)
            .prop_map(|(job, nodes, cores)| Op::Place { job, nodes, cores }),
        (1u64..40, 0u32..NODES, 1u32..9).prop_map(|(job, node, cores)| Op::SetCores {
            job,
            node,
            cores
        }),
        (1u64..40).prop_map(|job| Op::Remove { job }),
        (1u64..40, 0u32..NODES).prop_map(|(job, node)| Op::RemoveFromNode { job, node }),
    ]
}

/// The reference: which jobs sit where, and from that the idle set.
#[derive(Default)]
struct Model {
    placed: HashMap<u64, Vec<NodeId>>,
    residents: HashMap<NodeId, u32>,
    idle: BTreeSet<NodeId>,
}

impl Model {
    fn new() -> Model {
        Model {
            idle: (0..NODES).map(NodeId).collect(),
            ..Model::default()
        }
    }

    fn arrive(&mut self, node: NodeId) {
        *self.residents.entry(node).or_default() += 1;
        self.idle.remove(&node);
    }

    fn leave(&mut self, node: NodeId) {
        let left = self.residents.get_mut(&node).expect("node had a resident");
        *left -= 1;
        if *left == 0 {
            self.idle.insert(node);
        }
    }
}

fn check_against_model(cs: &ClusterState, model: &Model) -> Result<(), TestCaseError> {
    if let Err(e) = cs.validate() {
        return Err(TestCaseError::fail(format!("invariant broken: {e}")));
    }
    let reference: Vec<NodeId> = model.idle.iter().copied().collect();
    prop_assert_eq!(cs.empty_node_count() as usize, reference.len());
    prop_assert_eq!(cs.empty_nodes().collect::<Vec<_>>(), reference.clone());
    // "First n idle" at the edges, across each word boundary, and past the end.
    for n in [0, 1, 63, 64, 65, reference.len(), reference.len() + 1] {
        let expect = reference.get(..n).map(<[NodeId]>::to_vec);
        prop_assert_eq!(cs.take_empty_nodes(n as u32), expect);
    }
    Ok(())
}

proptest! {
    #[test]
    fn idle_index_matches_reference_under_random_ops(
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        let mut spec = ClusterSpec::ricc(); // 8-core nodes
        spec.nodes = NODES;
        let mut cs = ClusterState::new(spec.clone());
        let mut model = Model::new();
        check_against_model(&cs, &model)?;
        for op in ops {
            match op {
                Op::Place { job, mut nodes, cores } => {
                    nodes.sort_unstable();
                    nodes.dedup();
                    let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
                    if model.placed.contains_key(&job) {
                        continue;
                    }
                    if cs.place(JobId(job), &ids, cores).is_ok() {
                        ids.iter().for_each(|&n| model.arrive(n));
                        model.placed.insert(job, ids);
                    }
                }
                Op::SetCores { job, node, cores } => {
                    // Result may be an error (not placed / capacity) — both fine.
                    let _ = cs.set_cores(JobId(job), NodeId(node), cores);
                }
                Op::Remove { job } => {
                    if let Some(nodes) = model.placed.remove(&job) {
                        cs.remove(JobId(job), &nodes).expect("tracked placement removes cleanly");
                        nodes.iter().for_each(|&n| model.leave(n));
                    }
                }
                Op::RemoveFromNode { job, node } => {
                    let node = NodeId(node);
                    let held = model.placed.get_mut(&job).and_then(|nodes| {
                        let at = nodes.iter().position(|&n| n == node)?;
                        Some(nodes.remove(at))
                    });
                    prop_assert_eq!(cs.remove_from_node(JobId(job), node).is_ok(), held.is_some());
                    if held.is_some() {
                        model.leave(node);
                    }
                }
            }
            check_against_model(&cs, &model)?;
        }
        // A snapshot rebuilds the same index.
        let rebuilt = ClusterState::from_occupancies(spec, cs.occupancies().to_vec())
            .expect("a valid state round-trips");
        check_against_model(&rebuilt, &model)?;
        prop_assert_eq!(rebuilt.busy_cores(), cs.busy_cores());
        // Drain everything: machine must come back to fully idle.
        for (job, nodes) in model.placed.drain() {
            cs.remove(JobId(job), &nodes).unwrap();
        }
        prop_assert_eq!(cs.busy_cores(), 0);
        prop_assert_eq!(cs.empty_node_count(), NODES);
        prop_assert_eq!(cs.empty_nodes().count(), NODES as usize);
    }
}
