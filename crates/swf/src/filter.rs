//! Trace cleaning filters.
//!
//! The paper uses "the cleaned version of CEA-Curie … only considering the
//! primary partition". These filters reproduce the archive's standard
//! cleaning steps: keep one partition, drop unusable records, clamp
//! anomalous estimates, and renumber/rebase so the trace starts at t = 0.

use crate::parse::Trace;
#[cfg(test)]
use crate::record::SwfJob;

/// Keeps only jobs of the given partition (SWF field 16).
pub(crate) fn keep_partition(trace: &mut Trace, partition: i64) {
    trace.jobs.retain(|j| j.partition == partition);
}

/// The partition with the most jobs, if any ("primary partition").
pub(crate) fn primary_partition(trace: &Trace) -> Option<i64> {
    let mut counts: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();
    for j in &trace.jobs {
        *counts.entry(j.partition).or_default() += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(p, n)| (n, std::cmp::Reverse(p)))
        .map(|(p, _)| p)
}

/// Drops records that cannot be replayed (no runtime or no size, zero
/// runtime, or non-positive processor counts).
pub(crate) fn drop_unusable(trace: &mut Trace) -> usize {
    let before = trace.len();
    trace
        .jobs
        .retain(|j| j.is_simulatable() && j.runtime().unwrap_or(0) > 0);
    before - trace.len()
}

/// Caps requested times at `max` seconds and guarantees
/// `req_time >= run_time` (a scheduler would have killed the job otherwise).
pub(crate) fn sanitize_estimates(trace: &mut Trace, max: u64) {
    for j in &mut trace.jobs {
        if j.run_time < 0 {
            continue;
        }
        if j.req_time < 0 || j.req_time < j.run_time {
            j.req_time = j.run_time;
        }
        if j.req_time as u64 > max {
            j.req_time = max as i64;
        }
        if (j.run_time as u64) > max {
            j.run_time = max as i64;
        }
    }
}

/// Shifts submit times so the earliest is 0, sorts by submit and renumbers
/// job ids from 1, preserving relative order.
pub fn rebase_and_renumber(trace: &mut Trace) {
    trace.sort_by_submit();
    let base = trace.jobs.first().map(|j| j.submit).unwrap_or(0);
    for (i, j) in trace.jobs.iter_mut().enumerate() {
        j.submit -= base;
        j.job_id = (i + 1) as u64;
    }
}

/// Scales processor requests down to fit a system of `max_procs`, clamping
/// oversized jobs (the Cirne-model "scaled to the considered system size").
pub fn clamp_to_system(trace: &mut Trace, max_procs: u64) -> usize {
    let mut clamped = 0;
    for j in &mut trace.jobs {
        if j.req_procs > max_procs as i64 {
            j.req_procs = max_procs as i64;
            clamped += 1;
        }
        if j.used_procs > max_procs as i64 {
            j.used_procs = max_procs as i64;
        }
    }
    clamped
}

/// Full cleaning pipeline as applied to the paper's Workload 4.
pub fn clean_like_curie(trace: &mut Trace, max_req_time: u64) {
    if let Some(p) = primary_partition(trace) {
        keep_partition(trace, p);
    }
    drop_unusable(trace);
    sanitize_estimates(trace, max_req_time);
    rebase_and_renumber(trace);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(id: u64, submit: i64, run: i64, procs: i64, partition: i64) -> SwfJob {
        SwfJob {
            job_id: id,
            submit,
            run_time: run,
            req_procs: procs,
            used_procs: procs,
            req_time: run,
            partition,
            ..SwfJob::default()
        }
    }

    #[test]
    fn primary_partition_picks_most_jobs() {
        let trace = Trace::new(
            Default::default(),
            vec![j(1, 0, 1, 1, 2), j(2, 0, 1, 1, 2), j(3, 0, 1, 1, 5)],
        );
        assert_eq!(primary_partition(&trace), Some(2));
    }

    #[test]
    fn keep_partition_filters() {
        let mut trace = Trace::new(
            Default::default(),
            vec![j(1, 0, 1, 1, 2), j(2, 0, 1, 1, 3)],
        );
        keep_partition(&mut trace, 3);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.jobs[0].job_id, 2);
    }

    #[test]
    fn drop_unusable_removes_zero_runtime() {
        let mut trace = Trace::new(
            Default::default(),
            vec![j(1, 0, 0, 4, 1), j(2, 0, 10, 4, 1), SwfJob::default()],
        );
        let dropped = drop_unusable(&mut trace);
        assert_eq!(dropped, 2);
        assert_eq!(trace.jobs[0].job_id, 2);
    }

    #[test]
    fn sanitize_fixes_underestimates_and_caps() {
        let mut trace = Trace::new(Default::default(), vec![j(1, 0, 100, 1, 1)]);
        trace.jobs[0].req_time = 10; // user underestimated
        sanitize_estimates(&mut trace, 1_000);
        assert_eq!(trace.jobs[0].req_time, 100);
        trace.jobs[0].req_time = 5_000;
        sanitize_estimates(&mut trace, 1_000);
        assert_eq!(trace.jobs[0].req_time, 1_000);
    }

    #[test]
    fn rebase_renumbers_in_submit_order() {
        let mut trace = Trace::new(
            Default::default(),
            vec![j(7, 500, 1, 1, 1), j(9, 100, 1, 1, 1)],
        );
        rebase_and_renumber(&mut trace);
        assert_eq!(trace.jobs[0].job_id, 1);
        assert_eq!(trace.jobs[0].submit, 0);
        assert_eq!(trace.jobs[1].submit, 400);
    }

    #[test]
    fn clamp_to_system_caps_procs() {
        let mut trace = Trace::new(Default::default(), vec![j(1, 0, 1, 100, 1)]);
        assert_eq!(clamp_to_system(&mut trace, 64), 1);
        assert_eq!(trace.jobs[0].req_procs, 64);
    }

    #[test]
    fn clean_pipeline_runs_end_to_end() {
        let mut trace = Trace::new(
            Default::default(),
            vec![
                j(1, 100, 10, 4, 1),
                j(2, 50, 20, 8, 1),
                j(3, 0, 30, 2, 9), // minority partition, dropped
                SwfJob::default(), // unusable, dropped
            ],
        );
        clean_like_curie(&mut trace, 86_400);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.jobs[0].submit, 0);
        assert_eq!(trace.jobs[0].job_id, 1);
    }
}
