//! Headline aggregates — the paper's §4 metric definitions.
//!
//! * **Makespan**: "difference between the last job end time and the first
//!   job arrival time".
//! * **Average response time**: mean of `end − submit`.
//! * **Average slowdown**: mean of `response / static execution time`.
//! * **Energy**: integral of the power model over the makespan.

use simkit::Mean;
use slurm_sim::SimResult;

/// Aggregate view of one run.
#[derive(Debug, Clone)]
pub struct Summary {
    pub label: String,
    pub jobs: usize,
    pub makespan: u64,
    pub mean_response: f64,
    pub mean_slowdown: f64,
    pub mean_wait: f64,
    /// Bounded slowdown (runtime floored at 10 s) — robustness companion.
    pub(crate) mean_bounded_slowdown: f64,
    pub energy_kwh: f64,
    /// Machine utilisation: consumed core-seconds / (makespan × cores).
    pub utilization: f64,
    pub malleable_started: u64,
    pub unique_mates: u64,
    /// Standard deviation of slowdown (spread/fairness indicator).
    pub(crate) slowdown_stddev: f64,
}

impl Summary {
    /// Computes the summary; `total_cores` is the machine size for the
    /// utilisation figure.
    pub fn from_result(label: &str, res: &SimResult, total_cores: u64) -> Summary {
        let mut resp = Mean::default();
        let mut sd = Mean::default();
        let mut bsd = Mean::default();
        let mut wait = Mean::default();
        let mut core_seconds = 0.0;
        for o in &res.outcomes {
            resp.add(o.response() as f64);
            sd.add(o.slowdown());
            let denom = o.static_runtime.max(10) as f64;
            bsd.add((o.response() as f64 / denom).max(1.0));
            wait.add(o.wait() as f64);
            core_seconds += o.runtime() as f64 * o.procs.min(o.nodes as u64 * 10_000) as f64;
        }
        // Population variance: a second pass around the mean, 0 below two jobs.
        let mean_slowdown = sd.mean();
        let sd_var: Mean =
            res.outcomes.iter().map(|o| (o.slowdown() - mean_slowdown).powi(2)).collect();
        let util = if res.makespan == 0 || total_cores == 0 {
            0.0
        } else {
            (core_seconds / (res.makespan as f64 * total_cores as f64)).min(1.0)
        };
        Summary {
            label: label.to_string(),
            jobs: res.outcomes.len(),
            makespan: res.makespan,
            mean_response: resp.mean(),
            mean_slowdown,
            mean_wait: wait.mean(),
            mean_bounded_slowdown: bsd.mean(),
            energy_kwh: res.energy_kwh(),
            utilization: util,
            malleable_started: res.stats.started_malleable,
            unique_mates: res.stats.unique_mates,
            slowdown_stddev: sd_var.mean().sqrt(),
        }
    }
}

/// Per-tenant slice of one run, derived from the outcomes' tenant labels.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    pub tenant: u32,
    pub jobs: usize,
    /// This tenant's share of the run's completed jobs, in `[0, 1]`.
    pub job_share: f64,
    pub mean_wait: f64,
    pub mean_slowdown: f64,
    /// Consumed node-seconds (whole nodes × wall runtime).
    pub node_seconds: u64,
}

/// Per-tenant breakdown of a result, ascending by tenant id. Empty for
/// untenanted runs (every outcome on the anonymous tenant 0), so exports can
/// omit the section without a separate flag.
pub fn tenant_summaries(res: &SimResult) -> Vec<TenantSummary> {
    use std::collections::BTreeMap;
    let mut acc: BTreeMap<u32, (Mean, Mean, u64)> = BTreeMap::new();
    for o in &res.outcomes {
        let e = acc.entry(o.tenant).or_default();
        e.0.add(o.wait() as f64);
        e.1.add(o.slowdown());
        e.2 += o.nodes as u64 * o.runtime();
    }
    if acc.keys().all(|&t| t == 0) {
        return Vec::new();
    }
    let total = res.outcomes.len().max(1) as f64;
    acc.into_iter()
        .map(|(tenant, (wait, sd, node_seconds))| TenantSummary {
            tenant,
            jobs: wait.count() as usize,
            job_share: wait.count() as f64 / total,
            mean_wait: wait.mean(),
            mean_slowdown: sd.mean(),
            node_seconds,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::JobId;
    use simkit::SimTime;
    use slurm_sim::{JobOutcome, SimStats};

    fn outcome(id: u64, submit: u64, start: u64, end: u64, static_rt: u64, procs: u64) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            submit: SimTime(submit),
            start: SimTime(start),
            end: SimTime(end),
            nodes: 1,
            procs,
            req_time: static_rt,
            static_runtime: static_rt,
            malleable_backfilled: false,
            was_mate: false,
            app: None,
            tenant: 0,
        }
    }

    fn result(outcomes: Vec<JobOutcome>, makespan: u64) -> SimResult {
        SimResult {
            scheduler: "test",
            first_submit: SimTime(0),
            last_end: SimTime(makespan),
            makespan,
            energy_joules: 7.2e6,
            leftover_pending: 0,
            leftover_running: 0,
            stats: SimStats::default(),
            outcomes,
        }
    }

    #[test]
    fn summary_aggregates() {
        let res = result(
            vec![
                outcome(1, 0, 0, 100, 100, 8),   // sd 1, resp 100
                outcome(2, 0, 100, 300, 100, 8), // sd 3, resp 300
            ],
            400,
        );
        let s = Summary::from_result("t", &res, 8);
        assert_eq!(s.jobs, 2);
        assert!((s.mean_response - 200.0).abs() < 1e-9);
        assert!((s.mean_slowdown - 2.0).abs() < 1e-9);
        assert!((s.mean_wait - 50.0).abs() < 1e-9);
        assert!((s.energy_kwh - 2.0).abs() < 1e-9);
        // core-seconds: 100·8 + 200·8 = 2400; capacity 400·8 = 3200.
        assert!((s.utilization - 0.75).abs() < 1e-9);
    }

    #[test]
    fn slowdown_stddev_is_the_population_spread_around_the_mean() {
        // static runtime 1, so each job's slowdown is its response time.
        let res = result(
            [2, 4, 4, 4, 5, 5, 7, 9]
                .iter()
                .enumerate()
                .map(|(i, &r)| outcome(i as u64, 0, 0, r, 1, 1))
                .collect(),
            9,
        );
        let s = Summary::from_result("t", &res, 1);
        assert_eq!(s.mean_slowdown, 5.0);
        assert_eq!(s.slowdown_stddev, 2.0);
        assert_eq!(s.mean_slowdown.to_bits(), res.mean_slowdown().to_bits());
        let one = Summary::from_result("t", &result(vec![outcome(1, 0, 0, 7, 1, 1)], 7), 1);
        assert_eq!(one.slowdown_stddev, 0.0);
    }

    #[test]
    fn bounded_slowdown_floors_short_jobs() {
        let res = result(vec![outcome(1, 0, 0, 100, 1, 1)], 100);
        let s = Summary::from_result("t", &res, 1);
        assert!((s.mean_slowdown - 100.0).abs() < 1e-9);
        assert!((s.mean_bounded_slowdown - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_result_is_zeroed() {
        let s = Summary::from_result("t", &result(vec![], 0), 100);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.mean_slowdown, 0.0);
        assert_eq!(s.utilization, 0.0);
    }

    #[test]
    fn tenant_summaries_split_by_label() {
        let mut a = outcome(1, 0, 0, 100, 100, 8); // wait 0, sd 1
        a.tenant = 1;
        let mut b = outcome(2, 0, 100, 300, 100, 8); // wait 100, sd 3
        b.tenant = 2;
        let mut c = outcome(3, 0, 50, 150, 100, 8); // wait 50, sd 1.5
        c.tenant = 1;
        c.nodes = 2;
        let res = result(vec![a, b, c], 400);
        let ts = tenant_summaries(&res);
        assert_eq!(ts.len(), 2);
        assert_eq!((ts[0].tenant, ts[0].jobs), (1, 2));
        assert!((ts[0].job_share - 2.0 / 3.0).abs() < 1e-12);
        assert!((ts[0].mean_wait - 25.0).abs() < 1e-9);
        assert_eq!(ts[0].node_seconds, 100 + 2 * 100);
        assert_eq!((ts[1].tenant, ts[1].jobs), (2, 1));
        assert!((ts[1].mean_slowdown - 3.0).abs() < 1e-9);
    }

    #[test]
    fn untenanted_runs_have_no_tenant_breakdown() {
        let res = result(vec![outcome(1, 0, 0, 100, 100, 8)], 100);
        assert!(tenant_summaries(&res).is_empty());
        assert!(tenant_summaries(&result(vec![], 0)).is_empty());
    }
}
