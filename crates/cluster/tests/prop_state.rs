//! Model-based property test: random place/reshape/remove sequences never
//! violate the ClusterState invariants, and the idle bitset answers every
//! query exactly like a `BTreeSet<NodeId>` reference kept beside it.

use cluster::{ClusterSpec, ClusterState, NodeId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Three index words, the last one partly used.
const NODES: u32 = 130;

#[derive(Debug, Clone)]
enum Op {
    Place { nodes: Vec<u32>, cores: u32 },
    Reshape { node: u32, cores: u32 },
    Remove { node: u32 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (prop::collection::vec(0u32..NODES, 1..40), 0u32..10)
            .prop_map(|(nodes, cores)| Op::Place { nodes, cores }),
        (0u32..NODES, 1u32..9).prop_map(|(node, cores)| Op::Reshape { node, cores }),
        (0u32..NODES).prop_map(|node| Op::Remove { node }),
    ]
}

/// The reference: each node's busy cores, and from that the idle set.
struct Model {
    cores: Vec<u32>,
}

impl Model {
    fn idle(&self) -> BTreeSet<NodeId> {
        (0..NODES)
            .filter(|&n| self.cores[n as usize] == 0)
            .map(NodeId)
            .collect()
    }
}

fn check_against_model(cs: &ClusterState, model: &Model) -> Result<(), TestCaseError> {
    if let Err(e) = cs.validate() {
        return Err(TestCaseError::fail(format!("invariant broken: {e}")));
    }
    let reference: Vec<NodeId> = model.idle().into_iter().collect();
    prop_assert_eq!(cs.empty_node_count() as usize, reference.len());
    prop_assert_eq!(cs.empty_nodes().collect::<Vec<_>>(), reference.clone());
    prop_assert_eq!(
        cs.busy_cores(),
        model.cores.iter().map(|&c| u64::from(c)).sum::<u64>()
    );
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
        let mut model = Model { cores: vec![0; NODES as usize] };
        check_against_model(&cs, &model)?;
        for op in ops {
            match op {
                Op::Place { mut nodes, cores } => {
                    nodes.sort_unstable();
                    nodes.dedup();
                    let ids: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
                    // All-or-nothing: accepted exactly when every node is
                    // idle and the width is 1..=8.
                    let fits = (1..=8).contains(&cores)
                        && nodes.iter().all(|&n| model.cores[n as usize] == 0);
                    prop_assert_eq!(cs.place(&ids, cores).is_ok(), fits);
                    if fits {
                        nodes.iter().for_each(|&n| model.cores[n as usize] = cores);
                    }
                }
                Op::Reshape { node, cores } => {
                    let held = &mut model.cores[node as usize];
                    if *held > 0 {
                        cs.reshape(*held, cores);
                        *held = cores;
                    }
                }
                Op::Remove { node } => {
                    let held = std::mem::take(&mut model.cores[node as usize]);
                    prop_assert_eq!(cs.remove_from_node(NodeId(node), held).is_ok(), held > 0);
                }
            }
            check_against_model(&cs, &model)?;
        }
        // Per-node cores rebuild the same index.
        let rebuilt = ClusterState::from_node_cores(spec, model.cores.iter().copied())
            .expect("a valid state round-trips");
        check_against_model(&rebuilt, &model)?;
        // Drain everything: machine must come back to fully idle.
        for (n, c) in model.cores.iter_mut().enumerate() {
            if *c > 0 {
                cs.remove_from_node(NodeId(n as u32), std::mem::take(c)).unwrap();
            }
        }
        prop_assert_eq!(cs.busy_cores(), 0);
        prop_assert_eq!(cs.empty_node_count(), NODES);
        prop_assert_eq!(cs.empty_nodes().count(), NODES as usize);
    }
}
