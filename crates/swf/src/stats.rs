//! Trace summary statistics (the columns of the paper's Table 1).

use crate::parse::Trace;

/// Aggregate statistics of a trace, computed from the *recorded* fields
/// (i.e. what the original system observed, not a re-simulation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    pub jobs: usize,
    /// Jobs carrying enough data to simulate.
    pub simulatable: usize,
    pub max_procs_requested: u64,
    pub total_core_seconds: f64,
    pub mean_runtime: f64,
    pub mean_procs: f64,
    /// Mean recorded response time (wait + run), where both are known.
    pub mean_response: f64,
    /// Mean recorded slowdown (response / runtime), runtime floored at 1 s.
    pub mean_slowdown: f64,
    /// Span from first submit to last recorded end.
    pub makespan: u64,
}

impl TraceStats {
    /// Computes statistics over all simulatable jobs in the trace.
    pub fn compute(trace: &Trace) -> TraceStats {
        let mut s = TraceStats {
            jobs: trace.len(),
            ..TraceStats::default()
        };
        let mut first_submit = i64::MAX;
        let mut last_end = i64::MIN;
        let mut n_resp = 0usize;
        let mut sum_rt = 0.0;
        let mut sum_procs = 0.0;
        let mut sum_resp = 0.0;
        let mut sum_sd = 0.0;
        for j in &trace.jobs {
            let (Some(rt), Some(p)) = (j.runtime(), j.procs()) else {
                continue;
            };
            s.simulatable += 1;
            sum_rt += rt as f64;
            sum_procs += p as f64;
            s.total_core_seconds += rt as f64 * p as f64;
            s.max_procs_requested = s.max_procs_requested.max(p);
            first_submit = first_submit.min(j.submit);
            if let Some(w) = j.wait_time() {
                let resp = (w + rt) as f64;
                sum_resp += resp;
                sum_sd += resp / (rt.max(1) as f64);
                n_resp += 1;
                last_end = last_end.max(j.submit + (w + rt) as i64);
            } else {
                last_end = last_end.max(j.submit + rt as i64);
            }
        }
        if s.simulatable > 0 {
            let n = s.simulatable as f64;
            s.mean_runtime = sum_rt / n;
            s.mean_procs = sum_procs / n;
            s.makespan = (last_end - first_submit).max(0) as u64;
        }
        if n_resp > 0 {
            s.mean_response = sum_resp / n_resp as f64;
            s.mean_slowdown = sum_sd / n_resp as f64;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SwfJob;

    fn job(id: u64, submit: i64, wait: i64, run: i64, procs: i64) -> SwfJob {
        SwfJob {
            job_id: id,
            submit,
            wait,
            run_time: run,
            req_procs: procs,
            used_procs: procs,
            req_time: run,
            ..SwfJob::default()
        }
    }

    #[test]
    fn stats_over_simple_trace() {
        let trace = Trace::new(
            Default::default(),
            vec![job(1, 0, 0, 100, 4), job(2, 50, 50, 100, 8)],
        );
        let s = TraceStats::compute(&trace);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.simulatable, 2);
        assert_eq!(s.max_procs_requested, 8);
        assert!((s.mean_runtime - 100.0).abs() < 1e-9);
        assert!((s.mean_procs - 6.0).abs() < 1e-9);
        // responses: 100 and 150 -> mean 125; slowdowns 1.0 and 1.5 -> 1.25
        assert!((s.mean_response - 125.0).abs() < 1e-9);
        assert!((s.mean_slowdown - 1.25).abs() < 1e-9);
        // ends: 100 and 200; first submit 0
        assert_eq!(s.makespan, 200);
        assert!((s.total_core_seconds - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn unsimulatable_jobs_ignored() {
        let bad = SwfJob {
            submit: 5,
            ..SwfJob::default()
        };
        let trace = Trace::new(Default::default(), vec![bad, job(2, 0, 0, 10, 1)]);
        let s = TraceStats::compute(&trace);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.simulatable, 1);
    }

    #[test]
    fn slowdown_floors_runtime() {
        // A zero-second job that waited 10 s has slowdown 10, not infinity.
        let trace = Trace::new(Default::default(), vec![job(1, 0, 10, 0, 1)]);
        assert_eq!(TraceStats::compute(&trace).mean_slowdown, 10.0);
    }

    #[test]
    fn empty_trace_is_zeroed() {
        let s = TraceStats::compute(&Trace::default());
        assert_eq!(s, TraceStats::default());
    }
}
