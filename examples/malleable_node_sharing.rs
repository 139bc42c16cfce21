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

const NODE: NodeId = NodeId(0);

/// Each job's requested end: the instant the node expects it to leave.
fn req_end(job: JobId) -> SimTime {
    SimTime(3600 * job.0)
}

fn dump(label: &str, table: &NodeTable) {
    println!("--- {label} ---");
    for entry in table.processes_on(NODE) {
        println!(
            "  {}: {:?} ({} cores)",
            entry.job,
            entry.current,
            entry.current.count()
        );
    }
    println!("  free: {:?}", table.free_mask(NODE));
    println!("  releases at: {:?}\n", table.record(NODE).release());
}

fn main() {
    // One MN4 node: 2 sockets × 24 cores.
    let mut table = NodeTable::new(1, ClusterSpec::marenostrum4(1).node);

    // 1. A malleable job launches exclusively: full node.
    let end = req_end(JobId(1));
    table.launch_idle(1, JobId(1), 48, true, end).expect("empty node");
    dump("job1 running exclusively", &table);

    // 2. SD-Policy co-schedules job2: job1 shrinks to one socket (the
    //    SharingFactor 0.5 the paper uses on two-socket nodes), job2 takes
    //    the other socket. DROM applies both masks before `co_launch`
    //    returns: the malleability point is reached at once.
    let updates = table
        .co_launch(NODE, JobId(2), JobId(1), SharingFactor::HALF, 2, req_end(JobId(2)))
        .expect("job1 is malleable");
    for u in &updates {
        println!("reconfig: {} -> {} cores", u.job, u.cores());
    }
    dump("after co-scheduling job2", &table);
    table.validate().expect("masks stay disjoint");

    // 3. Job2 (the backfilled job) finishes first: its cores return to the
    //    owner — job1 expands back to the full node.
    // The node then releases when the one left, job1, is due to end.
    let left = table.vacate(NODE, JobId(2), req_end).expect("job2 runs here");
    if let Some(u) = left.expanded {
        println!("expand: {} -> {} cores", u.job, u.cores());
    }
    dump("after job2 finished (owner expanded)", &table);

    // 4. The opposite ending: co-schedule job3, then finish the OWNER first.
    //    Job3 inherits the freed cores ("distributed to remaining running
    //    tasks, to increase node utilization").
    table
        .co_launch(NODE, JobId(3), JobId(1), SharingFactor::HALF, 2, req_end(JobId(3)))
        .expect("job1 is alone at full width again");
    dump("job3 co-scheduled with job1", &table);
    let left = table.vacate(NODE, JobId(1), req_end).expect("job1 runs here");
    if let Some(u) = left.expanded {
        println!("redistribute: {} -> {} cores", u.job, u.cores());
    }
    dump("after the owner (job1) finished", &table);
    assert_eq!(
        table.free_mask(NODE).count(),
        0,
        "job3 holds the whole node"
    );
    assert_eq!(left.release, (Some(req_end(JobId(3))), Some(req_end(JobId(3)))));
    table.validate().expect("masks stay disjoint");
}
