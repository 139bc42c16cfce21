//! Node-level walkthrough of DROM malleability (the paper's Listing 3).
//!
//! Shows exactly what happens inside one MareNostrum4 node when SD-Policy
//! co-schedules a job: the resident is shrunk to one socket, the incoming
//! job takes the other, and cores flow back when jobs finish.
//!
//! ```sh
//! cargo run --example malleable_node_sharing
//! ```

use sd_sched::prelude::*;

fn dump(label: &str, nm: &NodeManager, reg: &DromRegistry) {
    println!("--- {label} ---");
    for entry in reg.processes_on(nm.node()) {
        println!(
            "  {}: {:?} ({} cores)",
            entry.job,
            entry.current,
            entry.current.count()
        );
    }
    println!("  free: {:?}\n", nm.free_mask());
}

fn main() {
    // One MN4 node: 2 sockets × 24 cores.
    let spec = ClusterSpec::marenostrum4(1);
    let mut nm = NodeManager::new(NodeId(0), spec.node.clone());
    let mut reg = DromRegistry::new();

    // 1. A malleable job launches exclusively: full node.
    nm.launch(&mut reg, JobId(1), 48, true).expect("empty node");
    dump("job1 running exclusively", &nm, &reg);

    // 2. SD-Policy co-schedules job2: job1 shrinks to one socket (the
    //    SharingFactor 0.5 the paper uses on two-socket nodes), job2 takes
    //    the other socket. DROM applies the masks at the next malleability
    //    point.
    let updates = nm
        .co_launch(&mut reg, JobId(2), JobId(1), SharingFactor::HALF, 2)
        .expect("job1 is malleable");
    for u in &updates {
        println!("reconfig: {} -> {} cores", u.job, u.cores());
    }
    // The node manager only stages masks; the malleability point applies them.
    reg.poll_node(nm.node());
    dump("after co-scheduling job2", &nm, &reg);
    assert!(reg.validate_node(NodeId(0)).is_ok(), "masks stay disjoint");

    // 3. Job2 (the backfilled job) finishes first: its cores return to the
    //    owner — job1 expands back to the full node.
    let updates = nm.finish(&mut reg, JobId(2));
    for u in &updates {
        println!("expand: {} -> {} cores", u.job, u.cores());
    }
    reg.poll_node(nm.node());
    dump("after job2 finished (owner expanded)", &nm, &reg);

    // 4. The opposite ending: co-schedule job3, then finish the OWNER first.
    //    Job3 inherits the freed cores ("distributed to remaining running
    //    tasks, to increase node utilization").
    nm.co_launch(&mut reg, JobId(3), JobId(1), SharingFactor::HALF, 2)
        .unwrap();
    reg.poll_node(nm.node());
    dump("job3 co-scheduled with job1", &nm, &reg);
    let updates = nm.finish(&mut reg, JobId(1));
    for u in &updates {
        println!("redistribute: {} -> {} cores", u.job, u.cores());
    }
    reg.poll_node(nm.node());
    dump("after the owner (job1) finished", &nm, &reg);
}
