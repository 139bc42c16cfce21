//! Results of a simulation run.

use crate::job::JobOutcome;
use crate::state::{SimState, SimStats};
use simkit::SimTime;

/// Everything a run produced. Rich analysis (heatmaps, daily series,
/// normalisation against a baseline) lives in the `sched-metrics` crate;
/// this carries the raw material plus the headline aggregates.
///
/// `PartialEq` compares every field bit-for-bit — the equivalence tests
/// (online session vs offline replay, recovered vs uninterrupted, traced
/// vs untraced) rely on it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    pub scheduler: &'static str,
    pub outcomes: Vec<JobOutcome>,
    pub stats: SimStats,
    pub first_submit: SimTime,
    pub last_end: SimTime,
    /// `last_end − first_submit` (the paper's makespan definition).
    pub makespan: u64,
    pub energy_joules: f64,
    /// Jobs still pending when events ran out (0 on a healthy run).
    pub leftover_pending: usize,
    /// Jobs still running when events ran out (0 on a healthy run).
    pub leftover_running: usize,
}

impl SimResult {
    pub(crate) fn from_state(mut st: SimState, scheduler: &'static str) -> SimResult {
        let energy = st.finish_energy();
        let first = Self::anchored_first_submit(&st);
        SimResult {
            scheduler,
            first_submit: first,
            last_end: st.last_end(),
            makespan: st.last_end().since(first),
            energy_joules: energy,
            leftover_pending: st.queue.len(),
            leftover_running: st.running_count(),
            stats: st.stats.clone(),
            outcomes: st.take_outcomes(),
        }
    }

    /// A read-only result of the run *so far* — the state keeps running.
    /// Identical to `SimResult::from_state` at the same instant (the
    /// energy meter is finalised on a copy); outcomes are cloned.
    pub fn snapshot(st: &SimState, scheduler: &'static str) -> SimResult {
        let first = Self::anchored_first_submit(st);
        SimResult {
            scheduler,
            first_submit: first,
            last_end: st.last_end(),
            makespan: st.last_end().since(first),
            energy_joules: st.snapshot_energy(),
            leftover_pending: st.queue.len(),
            leftover_running: st.running_count(),
            stats: st.stats.clone(),
            outcomes: st.outcomes().to_vec(),
        }
    }

    /// An online state that never saw a submission keeps the `SimTime::MAX`
    /// "unanchored" sentinel; report it as the epoch, like an empty trace.
    fn anchored_first_submit(st: &SimState) -> SimTime {
        if st.first_submit() == SimTime::MAX {
            SimTime::ZERO
        } else {
            st.first_submit()
        }
    }

    /// Average response time (s).
    pub fn mean_response(&self) -> f64 {
        mean(self.outcomes.iter().map(|o| o.response() as f64))
    }

    /// Average slowdown (response / static runtime — the paper's metric).
    pub fn mean_slowdown(&self) -> f64 {
        mean(self.outcomes.iter().map(|o| o.slowdown()))
    }

    /// Average wait time (s).
    pub fn mean_wait(&self) -> f64 {
        mean(self.outcomes.iter().map(|o| o.wait() as f64))
    }

    /// Energy in kWh.
    pub fn energy_kwh(&self) -> f64 {
        self.energy_joules / 3.6e6
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let mut n = 0u64;
    let mut sum = 0.0;
    for x in it {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::JobId;

    fn outcome(id: u64, submit: u64, start: u64, end: u64, static_rt: u64) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            submit: SimTime(submit),
            start: SimTime(start),
            end: SimTime(end),
            nodes: 1,
            procs: 8,
            req_time: static_rt,
            static_runtime: static_rt,
            malleable_backfilled: false,
            was_mate: false,
            app: None,
            tenant: 0,
        }
    }

    fn result(outcomes: Vec<JobOutcome>) -> SimResult {
        SimResult {
            scheduler: "test",
            first_submit: SimTime(0),
            last_end: SimTime(1000),
            makespan: 1000,
            energy_joules: 3.6e6,
            leftover_pending: 0,
            leftover_running: 0,
            stats: SimStats::default(),
            outcomes,
        }
    }

    #[test]
    fn aggregates() {
        let r = result(vec![
            outcome(1, 0, 0, 100, 100),   // response 100, slowdown 1
            outcome(2, 0, 100, 200, 100), // response 200, slowdown 2
        ]);
        assert!((r.mean_response() - 150.0).abs() < 1e-9);
        assert!((r.mean_slowdown() - 1.5).abs() < 1e-9);
        assert!((r.mean_wait() - 50.0).abs() < 1e-9);
        assert!((r.energy_kwh() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_aggregates_are_zero() {
        let r = result(vec![]);
        assert_eq!(r.mean_response(), 0.0);
        assert_eq!(r.mean_slowdown(), 0.0);
    }
}
