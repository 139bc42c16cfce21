//! Replaying genuine SWF traces.
//!
//! The synthetic generators stand in for the archive logs we cannot fetch
//! offline (DESIGN.md §4); when the real `RICC-2010-2` or
//! `CEA-Curie-2011-2.1-cln` files are available, this module feeds them
//! through the same simulator: clean, clamp to the machine, renumber, run.

use crate::config::SlurmConfig;
use crate::rate::RateModel;
use crate::state::SimState;
use cluster::ClusterSpec;
use drom::SharingFactor;
use swf::Trace;

/// Prepares an arbitrary SWF trace for simulation on `spec`:
/// keeps the primary partition, drops unusable records, sanitises user
/// estimates, clamps oversized jobs to the machine, rebases to t = 0 and
/// renumbers ids densely (the simulator's job-table requirement).
///
/// Returns the number of jobs surviving the cleaning.
pub(crate) fn prepare_trace(trace: &mut Trace, spec: &ClusterSpec, max_req_time: u64) -> usize {
    swf::filter::clean_like_curie(trace, max_req_time);
    swf::filter::clamp_to_system(trace, spec.total_cores());
    swf::filter::rebase_and_renumber(trace);
    trace.len()
}

/// Builds a ready-to-run [`SimState`] from a raw SWF trace.
pub fn replay_state(
    mut trace: Trace,
    spec: ClusterSpec,
    cfg: SlurmConfig,
    rate_model: Box<dyn RateModel>,
    sharing: SharingFactor,
) -> (SimState, usize) {
    let kept = prepare_trace(&mut trace, &spec, 30 * 86_400);
    let state = SimState::new(spec, cfg, &trace, rate_model, sharing);
    (state, kept)
}

/// Infers a machine from the trace header when none is specified:
/// `MaxNodes`/`MaxProcs` determine node count and cores per node
/// (falling back to 16-core nodes).
pub fn infer_cluster(trace: &Trace) -> ClusterSpec {
    let nodes = trace.header.max_nodes().unwrap_or(0);
    let procs = trace.header.max_procs().unwrap_or(0);
    // A header implying nodes wider than a CPU mask can describe (one huge
    // SMP, or a mistyped MaxNodes) falls through to 16-core nodes by procs.
    let max_width = cluster::CpuMask::MAX_CORES as u64;
    let (nodes, cores_per_node) = match (nodes, procs) {
        (n, p) if n > 0 && p >= n && p / n <= max_width => (n, p / n),
        (n, p) if n > 0 && p < n => (n, 16),
        (_, p) if p > 0 => (p.div_ceil(16), 16),
        _ => {
            // Last resort: size the machine to the biggest job.
            let max = trace
                .jobs
                .iter()
                .filter_map(|j| j.procs())
                .max()
                .unwrap_or(16);
            (max.div_ceil(16).max(1), 16)
        }
    };
    let mut spec = ClusterSpec::cea_curie();
    spec.name = format!("inferred-{nodes}x{cores_per_node}");
    spec.nodes = nodes as u32;
    spec.node.cores_per_socket = (cores_per_node as u32).div_ceil(2);
    spec.node.sockets = 2;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf::{SwfHeader, SwfJob};

    fn raw_trace() -> Trace {
        let mut header = SwfHeader::new();
        header.set("MaxNodes", 64);
        header.set("MaxProcs", 512);
        let jobs = vec![
            {
                let mut j = SwfJob::for_simulation(10, 1000, 600, 16, 100);
                j.partition = 1;
                j
            },
            {
                let mut j = SwfJob::for_simulation(11, 1500, 0, 8, 300); // zero runtime: dropped
                j.partition = 1;
                j
            },
            {
                let mut j = SwfJob::for_simulation(12, 2000, 100, 9_999, 200); // oversized: clamped
                j.partition = 1;
                j
            },
            {
                let mut j = SwfJob::for_simulation(13, 900, 50, 4, 60);
                j.partition = 7; // minority partition: dropped
                j
            },
        ];
        Trace::new(header, jobs)
    }

    #[test]
    fn infer_cluster_caps_node_width_at_the_mask_width() {
        let mut header = SwfHeader::new();
        header.set("MaxNodes", 1);
        header.set("MaxProcs", 4096);
        let spec = infer_cluster(&Trace::new(header, Vec::new()));
        assert_eq!((spec.nodes, spec.node.cores()), (256, 16));
    }

    #[test]
    fn infer_cluster_from_header() {
        let spec = infer_cluster(&raw_trace());
        assert_eq!(spec.nodes, 64);
        assert_eq!(spec.node.cores(), 8);
        assert_eq!(spec.total_cores(), 512);
    }

    #[test]
    fn infer_cluster_without_header_uses_biggest_job() {
        let mut t = raw_trace();
        t.header = SwfHeader::new();
        let spec = infer_cluster(&t);
        assert!(spec.total_cores() >= 9_999);
    }

    #[test]
    fn prepare_cleans_and_renumbers() {
        let mut t = raw_trace();
        let spec = infer_cluster(&t);
        let kept = prepare_trace(&mut t, &spec, 86_400);
        assert_eq!(kept, 2, "zero-runtime and minority-partition jobs dropped");
        assert_eq!(t.jobs[0].job_id, 1);
        assert_eq!(t.jobs[0].submit, 0, "rebased");
        // Oversized job clamped to the machine.
        assert!(t.jobs.iter().all(|j| j.procs().unwrap() <= spec.total_cores()));
        // Under-estimates fixed.
        assert!(t.jobs.iter().all(|j| j.req_time >= j.run_time));
    }

    #[test]
    fn replay_state_runs_end_to_end() {
        let t = raw_trace();
        let spec = infer_cluster(&t);
        let (mut st, kept) = replay_state(
            t,
            spec,
            SlurmConfig::default(),
            Box::new(crate::rate::WorstCaseModel),
            SharingFactor::HALF,
        );
        assert_eq!(kept, 2);
        // Drive to completion with plain FCFS.
        while let Some(ev) = st.events.pop() {
            st.now = ev.time;
            st.dispatch(ev.payload);
            let pending: Vec<cluster::JobId> = st.queue.prefix(10).map(|e| e.job).collect();
            for id in pending {
                st.start_static(id);
            }
        }
        assert_eq!(st.outcomes().len(), 2);
    }
}
