//! Per-day series (paper Fig. 7).
//!
//! Fig. 7 plots, per simulated day, the average slowdown of static backfill
//! vs SD-Policy (lines) and the number of jobs scheduled with malleability
//! (columns). Jobs are attributed to the day they **complete** (slowdown is
//! only known then); malleable starts to the day they **start**.

use simkit::Mean;
use slurm_sim::JobOutcome;

/// Daily aggregates over one run.
#[derive(Debug, Clone)]
pub struct DailySeries {
    /// Day index → mean slowdown of jobs completed that day.
    pub slowdown: Vec<f64>,
    /// Day index → jobs completed that day.
    pub completed: Vec<u64>,
    /// Day index → jobs started through malleable backfill that day.
    pub malleable_started: Vec<u64>,
}

impl DailySeries {
    pub fn compute(outcomes: &[JobOutcome]) -> DailySeries {
        let last_day = outcomes
            .iter()
            .map(|o| o.end.day())
            .max()
            .map(|d| d as usize + 1)
            .unwrap_or(0);
        let mut acc = vec![Mean::default(); last_day];
        let mut malleable = vec![0u64; last_day];
        for o in outcomes {
            let d = o.end.day() as usize;
            acc[d].add(o.slowdown());
            if o.malleable_backfilled {
                let sd = (o.start.day() as usize).min(last_day.saturating_sub(1));
                malleable[sd] += 1;
            }
        }
        DailySeries {
            slowdown: acc.iter().map(|w| w.mean()).collect(),
            completed: acc.iter().map(|w| w.count()).collect(),
            malleable_started: malleable,
        }
    }

    pub fn days(&self) -> usize {
        self.slowdown.len()
    }

    /// Highest daily average slowdown (the "peaks" Fig. 7 shows SD-Policy
    /// flattening).
    pub fn peak_slowdown(&self) -> f64 {
        self.slowdown.iter().cloned().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::JobId;
    use simkit::{SimTime, DAY};

    fn outcome(id: u64, end_day: u64, slowdown_x: u64, malleable: bool) -> JobOutcome {
        // static runtime 100; response = 100 * slowdown_x
        let end = end_day * DAY + 1000;
        let resp = 100 * slowdown_x;
        JobOutcome {
            id: JobId(id),
            submit: SimTime(end - resp),
            start: SimTime(end - 100),
            end: SimTime(end),
            nodes: 1,
            procs: 8,
            req_time: 100,
            static_runtime: 100,
            malleable_backfilled: malleable,
            was_mate: false,
            app: None,
            tenant: 0,
        }
    }

    #[test]
    fn groups_by_completion_day() {
        let s = DailySeries::compute(&[
            outcome(1, 0, 2, false),
            outcome(2, 0, 4, false),
            outcome(3, 2, 10, false),
        ]);
        assert_eq!(s.days(), 3);
        assert!((s.slowdown[0] - 3.0).abs() < 1e-9);
        assert_eq!(s.completed[0], 2);
        assert_eq!(s.completed[1], 0);
        assert!((s.slowdown[2] - 10.0).abs() < 1e-9);
        assert_eq!(s.peak_slowdown(), 10.0);
    }

    #[test]
    fn counts_malleable_starts() {
        let s = DailySeries::compute(&[
            outcome(1, 1, 2, true),
            outcome(2, 1, 2, true),
            outcome(3, 1, 2, false),
        ]);
        assert_eq!(s.malleable_started.iter().sum::<u64>(), 2);
        // Starts happened on day 1 (start = end − 100 s, same day here).
        assert_eq!(s.malleable_started[1], 2);
    }

    #[test]
    fn empty_outcomes() {
        let s = DailySeries::compute(&[]);
        assert_eq!(s.days(), 0);
        assert_eq!(s.peak_slowdown(), 0.0);
    }
}
