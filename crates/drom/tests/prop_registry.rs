//! Model-based property test: the node table against plain references,
//! under arbitrary launch / co-launch / vacate streams. After every
//! operation the DROM view and a handle → entry map hold the same entries
//! in the same per-node registration order, every entry runs with its
//! resident's mask, the idle bitset answers every query like a
//! `BTreeSet<NodeId>` of the nodes without residents, the busy-core count
//! is the model's sum, every node releases at the latest requested end of
//! its residents (`None` when idle), and the table's checkpoint sections
//! restore an equal table.

use cluster::{ClusterSpec, JobId, NodeId};
use drom::{DromHandle, NodeTable, ProcessEntry, Resident, SharingFactor};
use proptest::prelude::*;
use simkit::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Three idle-index words, the last one partly used.
const NODES: u32 = 130;
/// The CEA Curie node: 16 cores, 2 × 8.
const WIDTH: u32 = 16;

#[derive(Debug, Clone)]
enum Op {
    /// One all-or-nothing launch on the first `k` idle nodes.
    Launch {
        k: u32,
        cores: u32,
        malleable: bool,
        end: u64,
    },
    /// `at` selects a busy node, `pick` the mate among its residents.
    CoLaunch { at: usize, pick: usize, ranks: u32, end: u64 },
    /// `at` selects a busy node, `pick` the resident that ends.
    Finish { at: usize, pick: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..40, 0u32..18, any::<bool>(), 0u64..50)
            .prop_map(|(k, cores, malleable, end)| Op::Launch { k, cores, malleable, end }),
        (any::<usize>(), 0usize..4, 1u32..12, 0u64..50).prop_map(|(at, pick, ranks, end)| {
            Op::CoLaunch {
                at,
                pick,
                ranks,
                end,
            }
        }),
        (any::<usize>(), 0usize..4).prop_map(|(at, pick)| Op::Finish { at, pick }),
    ]
}

/// One resident as the model sees it.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    job: JobId,
    malleable: bool,
    lender: Option<JobId>,
}

/// The reference: every registered process by handle (handles ascend with
/// registration, so handle order *is* registration order), each node's
/// residents in arrival order, each node's busy cores, and each job's
/// requested end, by id.
struct Model {
    entries: BTreeMap<u64, (JobId, NodeId)>,
    residents: Vec<Vec<Arrival>>,
    cores: Vec<u32>,
    next_handle: u64,
    ends: Vec<SimTime>,
}

impl Model {
    fn new() -> Model {
        Model {
            entries: BTreeMap::new(),
            residents: vec![Vec::new(); NODES as usize],
            cores: vec![0; NODES as usize],
            next_handle: 0,
            ends: vec![SimTime(0)],
        }
    }

    fn end_of(&self, job: JobId) -> SimTime {
        self.ends[job.0 as usize]
    }

    /// The latest requested end among `node`'s residents, `None` when idle.
    fn release(&self, node: NodeId) -> Option<SimTime> {
        self.residents[node.0 as usize].iter().map(|a| self.end_of(a.job)).max()
    }

    fn on(&self, node: NodeId) -> Vec<(DromHandle, JobId)> {
        let on_node = self.entries.iter().filter(|(_, e)| e.1 == node);
        on_node.map(|(&h, e)| (DromHandle(h), e.0)).collect()
    }

    fn arrive(&mut self, node: NodeId, a: Arrival) {
        self.residents[node.0 as usize].push(a);
        if a.malleable {
            self.entries.insert(self.next_handle, (a.job, node));
            self.next_handle += 1;
        }
    }

    fn idle(&self) -> BTreeSet<NodeId> {
        (0..NODES).filter(|&n| self.residents[n as usize].is_empty()).map(NodeId).collect()
    }

    /// The busy node `at` selects, if any.
    fn busy(&self, at: usize) -> Option<NodeId> {
        let busy: Vec<u32> = (0..NODES).filter(|&n| !self.residents[n as usize].is_empty()).collect();
        busy.get(at % busy.len().max(1)).map(|&n| NodeId(n))
    }
}

/// The idle index and the busy-core count answer as the model does: the
/// idle set, its size and the "first n idle" placement test at the edges,
/// across each word boundary and past the end.
fn check_counters(t: &NodeTable, model: &Model) -> Result<(), TestCaseError> {
    t.validate().map_err(TestCaseError::fail)?;
    let reference: Vec<NodeId> = model.idle().into_iter().collect();
    prop_assert_eq!(t.empty_node_count() as usize, reference.len());
    prop_assert_eq!(t.empty_nodes().collect::<Vec<_>>(), reference.clone());
    for n in (0..NODES).map(NodeId) {
        prop_assert_eq!(t.is_idle(n), reference.binary_search(&n).is_ok());
    }
    prop_assert_eq!(t.busy_cores(), model.cores.iter().map(|&c| u64::from(c)).sum::<u64>());
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
        let node_spec = ClusterSpec::cea_curie().node;
        let mut t = NodeTable::new(NODES, node_spec.clone());
        let mut model = Model::new();
        check_counters(&t, &model)?;
        let mut next_job = 1;
        for op in ops {
            match op {
                Op::Launch { k, cores, malleable, end } => {
                    let job = JobId(next_job);
                    next_job += 1;
                    model.ends.push(SimTime(end));
                    let first: Vec<NodeId> = model.idle().into_iter().take(k as usize).collect();
                    let fits = (1..=WIDTH).contains(&cores) && first.len() == k as usize;
                    let launched = t.launch_idle(k, job, cores, malleable, SimTime(end));
                    prop_assert_eq!(launched.is_some(), fits);
                    if let Some(ids) = launched {
                        prop_assert_eq!(&ids, &first);
                        for n in ids {
                            model.arrive(n, Arrival { job, malleable, lender: None });
                            model.cores[n.0 as usize] = cores;
                        }
                    }
                }
                Op::CoLaunch { at, pick, ranks, end } => {
                    let Some(n) = model.busy(at) else { continue };
                    let job = JobId(next_job);
                    next_job += 1;
                    model.ends.push(SimTime(end));
                    let here = &model.residents[n.0 as usize];
                    let mate = here[pick % here.len()];
                    // A lone malleable mate lends when it can free a core
                    // or the node has free ones; the node is then full.
                    let mate_cores = t.record(n).cores_of(mate.job).unwrap();
                    let keep = SharingFactor::HALF.keep_cores(mate_cores, ranks);
                    let lends = mate.malleable
                        && here.len() == 1
                        && (keep < mate_cores || mate_cores < WIDTH);
                    let pair = model.end_of(mate.job).max(SimTime(end));
                    let ups = t.co_launch(n, job, mate.job, SharingFactor::HALF, ranks, pair);
                    prop_assert_eq!(ups.is_some(), lends);
                    if lends {
                        let lender = Some(mate.job);
                        model.arrive(n, Arrival { job, malleable: true, lender });
                        model.cores[n.0 as usize] = WIDTH;
                    }
                }
                Op::Finish { at, pick } => {
                    let Some(n) = model.busy(at) else {
                        let idle = NodeId(at as u32 % NODES);
                        prop_assert!(t.vacate(idle, JobId(0), |j| model.end_of(j)).is_err());
                        continue;
                    };
                    let was = model.release(n);
                    let here = &mut model.residents[n.0 as usize];
                    let ended = here.remove(pick % here.len());
                    model.entries.retain(|_, e| *e != (ended.job, n));
                    // The one left takes the cores when it is malleable or
                    // lent them; otherwise they free up.
                    let heir = here.first().filter(|o| o.malleable || ended.lender == Some(o.job));
                    let cores = t.record(n).cores_of(ended.job).unwrap();
                    let heir = heir.map(|o| o.job);
                    let left = t
                        .vacate(n, ended.job, |j| model.end_of(j))
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    prop_assert_eq!(left.expanded.map(|u| u.job), heir);
                    if heir.is_none() {
                        model.cores[n.0 as usize] -= cores;
                    }
                    // The release set in the visit: the latest requested end
                    // of whoever is left, `None` once the node is empty.
                    prop_assert_eq!(left.release, (was, model.release(n)));
                }
            }
            check_counters(&t, &model)?;
            prop_assert_eq!(t.next_handle(), model.next_handle, "handles count up from 0");
            for n in (0..NODES).map(NodeId) {
                let seen: Vec<ProcessEntry> = t.processes_on(n).collect();
                let listed: Vec<(DromHandle, JobId)> = seen.iter().map(|e| (e.handle, e.job)).collect();
                prop_assert_eq!(listed, model.on(n));
                for e in &seen {
                    let r = t.record(n).residents().iter().find(|r| r.job == e.job).unwrap();
                    prop_assert_eq!((r.handle, r.mask), (Some(e.handle), e.current));
                    prop_assert_eq!(t.find(e.job, n), Some(*e));
                }
            }
            let (occ, procs, res) = sections(&t);
            let mut rebuilt = NodeTable::restore(node_spec.clone(), occ, procs, t.next_handle(), res)
                .map_err(TestCaseError::fail)?;
            prop_assert_eq!(sections(&rebuilt), sections(&t));
            for n in (0..NODES).map(NodeId) {
                rebuilt.set_release(n, t.record(n).release());
            }
            check_counters(&rebuilt, &model)?;
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

        // Drain everything: the machine comes back to fully idle.
        for n in (0..NODES).map(NodeId) {
            while let Some(r) = t.record(n).residents().first() {
                let job = r.job;
                t.vacate(n, job, |j| model.end_of(j)).map_err(|e| TestCaseError::fail(e.to_string()))?;
            }
        }
        prop_assert_eq!(t.busy_cores(), 0);
        prop_assert_eq!(t.empty_node_count(), NODES);
        prop_assert_eq!(t.empty_nodes().count(), NODES as usize);
        t.validate().map_err(TestCaseError::fail)?;
    }
}
