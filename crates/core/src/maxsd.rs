//! The MAX_SLOWDOWN cut-off (paper §3.2.2).
//!
//! `P` bounds the penalty a mate may accumulate: it "reduc\[es\] the eligible
//! mates to reduce the computation, and avoid\[s\] penalizing jobs that have a
//! high slowdown". Two implementations, exactly as the paper describes:
//!
//! 1. a **static value** chosen by the administrator (evaluated as MAXSD 5 /
//!    10 / 50 / ∞ in Figs. 1–3), computed against *user-estimated* times;
//! 2. a **dynamic value** (`DynAVGSD`): the average slowdown of the running
//!    jobs, refreshed "every time the controller is not busy" — here, once
//!    per scheduling pass — using real durations, which is what gives the
//!    variant its extra precision on Workload 2. The simulator keeps the sum
//!    where each running job's end is armed and where the job leaves, so the
//!    read is O(1) rather than a walk over the running jobs.

use slurm_sim::SimState;

/// The cut-off policy for mate penalties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxSlowdown {
    /// Fixed cut-off (MAXSD n).
    Static(f64),
    /// No cut-off (MAXSD infinite).
    Infinite,
    /// Feedback from the system: average slowdown of running jobs.
    DynAvg,
}

impl MaxSlowdown {
    /// The sweep evaluated in the paper's Figs. 1–3.
    pub fn paper_sweep() -> [MaxSlowdown; 5] {
        [
            MaxSlowdown::Static(5.0),
            MaxSlowdown::Static(10.0),
            MaxSlowdown::Static(50.0),
            MaxSlowdown::Infinite,
            MaxSlowdown::DynAvg,
        ]
    }

    pub fn label(&self) -> String {
        match self {
            MaxSlowdown::Static(v) => format!("MAXSD {}", v),
            MaxSlowdown::Infinite => "MAXSD inf".to_string(),
            MaxSlowdown::DynAvg => "DynAVGSD".to_string(),
        }
    }

    /// Resolves the numeric cut-off at this instant. For [`MaxSlowdown::DynAvg`]
    /// this is the current average estimated slowdown of running jobs.
    pub fn cutoff(&self, st: &SimState) -> f64 {
        match self {
            MaxSlowdown::Static(v) => *v,
            MaxSlowdown::Infinite => f64::INFINITY,
            MaxSlowdown::DynAvg => running_avg_slowdown(st),
        }
    }
}

/// Average *estimated final* slowdown of the currently running jobs, using
/// real durations: `(end − submit) / static_runtime`, where `end` is the
/// instant the job's completion is armed for. O(1): the simulator keeps the
/// sum where each end is armed ([`SimState::running_slowdown`]).
///
/// Returns `+∞` when nothing is running (nothing to protect, no filter).
pub(crate) fn running_avg_slowdown(st: &SimState) -> f64 {
    let (sum, n) = st.running_slowdown();
    if n == 0 {
        f64::INFINITY
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterSpec, JobId};
    use drom::SharingFactor;
    use slurm_sim::{SlurmConfig, WorstCaseModel};

    fn state_with_running(jobs: Vec<swf::SwfJob>, start: &[u64]) -> SimState {
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 8;
        let mut st = SimState::new(
            spec,
            SlurmConfig::default(),
            &swf::Trace::new(Default::default(), jobs),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
        );
        // Drain submit events, then start the requested jobs.
        while let Some(ev) = st.events.pop() {
            st.now = ev.time;
            st.dispatch(ev.payload);
        }
        for &id in start {
            assert!(st.start_static(JobId(id)));
        }
        st
    }

    #[test]
    fn static_and_infinite_cutoffs() {
        let st = state_with_running(vec![], &[]);
        assert_eq!(MaxSlowdown::Static(10.0).cutoff(&st), 10.0);
        assert_eq!(MaxSlowdown::Infinite.cutoff(&st), f64::INFINITY);
    }

    #[test]
    fn dynavg_empty_system_is_infinite() {
        let st = state_with_running(vec![], &[]);
        assert_eq!(MaxSlowdown::DynAvg.cutoff(&st), f64::INFINITY);
    }

    #[test]
    fn dynavg_tracks_running_jobs() {
        // Two jobs submitted at 0, started immediately, 100 s runtimes:
        // estimated slowdown of each = (0 + 100)/100 = 1.0.
        let st = state_with_running(
            vec![
                swf::SwfJob::for_simulation(1, 0, 100, 8, 200),
                swf::SwfJob::for_simulation(2, 0, 100, 8, 200),
            ],
            &[1, 2],
        );
        let avg = running_avg_slowdown(&st);
        assert!((avg - 1.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn dynavg_reflects_waiting_before_start() {
        // Job submitted at 0 but the state clock has advanced to 100 when it
        // starts → estimated slowdown (100 + 100)/100 = 2.
        let mut st = state_with_running(vec![swf::SwfJob::for_simulation(1, 0, 100, 8, 200)], &[]);
        st.now = simkit::SimTime(100);
        assert!(st.start_static(JobId(1)));
        let avg = running_avg_slowdown(&st);
        assert!((avg - 2.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn labels_match_paper_figures() {
        let labels: Vec<String> = MaxSlowdown::paper_sweep()
            .iter()
            .map(|m| m.label())
            .collect();
        assert_eq!(
            labels,
            vec!["MAXSD 5", "MAXSD 10", "MAXSD 50", "MAXSD inf", "DynAVGSD"]
        );
    }
}
