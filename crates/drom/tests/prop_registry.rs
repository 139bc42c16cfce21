//! Model-based property test: the per-node registry against a plain
//! handle → entry map, under arbitrary attach / set_mask / poll_node /
//! detach streams. After every operation the two hold the same entries in
//! the same per-node registration order, and a snapshot rebuilds an equal
//! registry.

use cluster::{CpuMask, JobId, NodeId};
use drom::{DromHandle, DromRegistry, ProcessEntry};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NODES: u32 = 6;
const CORES: usize = 16;

#[derive(Debug, Clone)]
enum Op {
    Attach {
        job: u64,
        node: u32,
        lo: usize,
    },
    /// `pick` selects among the live handles (or a dead one when none fit);
    /// `right_node` says whether the caller names the handle's own node.
    SetMask {
        pick: usize,
        right_node: bool,
        hi: usize,
    },
    PollNode {
        node: u32,
    },
    Detach {
        pick: usize,
        right_node: bool,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..50, 0u32..NODES, 0usize..CORES).prop_map(|(job, node, lo)| Op::Attach {
            job,
            node,
            lo
        }),
        (0usize..64, any::<bool>(), 1usize..CORES).prop_map(|(pick, right_node, hi)| {
            Op::SetMask {
                pick,
                right_node,
                hi,
            }
        }),
        (0u32..NODES).prop_map(|node| Op::PollNode { node }),
        (0usize..64, any::<bool>()).prop_map(|(pick, right_node)| Op::Detach { pick, right_node }),
    ]
}

/// The reference registry: one ordered map, scanned for every per-node view.
/// Handles ascend with registration, so handle order *is* registration order.
#[derive(Default)]
struct Model {
    entries: BTreeMap<u64, ProcessEntry>,
    next_handle: u64,
}

impl Model {
    /// The `pick`-th live handle and its node; a never-issued handle on
    /// node 0 when nothing is registered.
    fn pick(&self, pick: usize) -> (DromHandle, NodeId) {
        match self.entries.values().nth(pick % self.entries.len().max(1)) {
            Some(e) => (e.handle, e.node),
            None => (DromHandle(self.next_handle + pick as u64), NodeId(0)),
        }
    }

    fn on(&self, node: NodeId) -> Vec<ProcessEntry> {
        self.entries
            .values()
            .filter(|e| e.node == node)
            .copied()
            .collect()
    }

    fn snapshot(&self) -> Vec<ProcessEntry> {
        (0..NODES).flat_map(|n| self.on(NodeId(n))).collect()
    }
}

fn other_node(node: NodeId) -> NodeId {
    NodeId((node.0 + 1) % NODES)
}

proptest! {
    #[test]
    fn registry_matches_map_reference(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut reg = DromRegistry::new();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Attach { job, node, lo } => {
                    let mask = CpuMask::range(CORES, lo, CORES);
                    let h = reg.attach(JobId(job), NodeId(node), mask);
                    prop_assert_eq!(h, DromHandle(model.next_handle), "handles count up from 0");
                    model.entries.insert(h.0, ProcessEntry {
                        handle: h,
                        job: JobId(job),
                        node: NodeId(node),
                        current: mask,
                        pending: None,
                    });
                    model.next_handle += 1;
                }
                Op::SetMask { pick, right_node, hi } => {
                    let (h, node) = model.pick(pick);
                    let mask = CpuMask::range(CORES, 0, hi);
                    let asked = if right_node { node } else { other_node(node) };
                    let expect = match model.entries.get_mut(&h.0) {
                        Some(e) if right_node => {
                            e.pending = Some(mask);
                            true
                        }
                        _ => false,
                    };
                    prop_assert_eq!(reg.set_mask(asked, h, mask), expect);
                }
                Op::PollNode { node } => {
                    let mut applied = 0;
                    for e in model.entries.values_mut().filter(|e| e.node == NodeId(node)) {
                        if let Some(p) = e.pending.take() {
                            e.current = p;
                            applied += 1;
                        }
                    }
                    prop_assert_eq!(reg.poll_node(NodeId(node)), applied);
                }
                Op::Detach { pick, right_node } => {
                    let (h, node) = model.pick(pick);
                    let asked = if right_node { node } else { other_node(node) };
                    let expect = if right_node {
                        model.entries.remove(&h.0).map(|e| e.current)
                    } else {
                        None
                    };
                    prop_assert_eq!(reg.detach(asked, h), expect);
                }
            }
            for n in (0..NODES).map(NodeId) {
                let seen: Vec<ProcessEntry> = reg.processes_on(n).copied().collect();
                prop_assert_eq!(&seen, &model.on(n));
                for e in &seen {
                    prop_assert_eq!(reg.get(n, e.handle), Some(e));
                    prop_assert_eq!(reg.get(other_node(n), e.handle), None);
                    prop_assert_eq!(reg.find(e.job, n).map(|f| f.job), Some(e.job));
                }
            }
            let (entries, next) = reg.snapshot();
            prop_assert_eq!(&entries, &model.snapshot());
            prop_assert_eq!(next, model.next_handle);
            let rebuilt = DromRegistry::from_snapshot(entries.clone(), next)
                .expect("a live registry's snapshot is valid");
            prop_assert_eq!(rebuilt.snapshot(), (entries, next));
        }

        // What a hostile snapshot can get wrong is still rejected.
        let (entries, next) = reg.snapshot();
        if let Some(first) = entries.first().copied() {
            let mut twice = entries.clone();
            twice.push(ProcessEntry { node: other_node(first.node), ..first });
            prop_assert!(DromRegistry::from_snapshot(twice, next).is_err(), "duplicate handle");
            let top = entries.iter().map(|e| e.handle.0).max().unwrap();
            prop_assert!(DromRegistry::from_snapshot(entries, top).is_err(), "handle >= next");
        }
    }
}
