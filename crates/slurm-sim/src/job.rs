//! Job records and the malleable progress integrator.
//!
//! A running job accumulates *work* (seconds of full-allocation execution).
//! Its progress **rate** is 1.0 on a full allocation and drops when shrunk;
//! the mapping from core configuration to rate is the pluggable
//! [`crate::RateModel`] (the paper's Eq. 5/6 live in the `sd-policy` crate).
//! Banking work at every reconfiguration makes the integrator the exact
//! continuous form of the paper's per-slot sums.

use cluster::{JobId, NodeId};
use simkit::SimTime;
use workload::AppId;

/// Immutable job description, from the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub id: JobId,
    pub submit: SimTime,
    /// Whole nodes requested (select/linear granularity).
    pub req_nodes: u32,
    /// Processors requested in the trace (before whole-node rounding).
    pub req_procs: u64,
    /// User-estimated wall time (seconds).
    pub req_time: u64,
    /// True runtime on a static full allocation (seconds) — the integrator's
    /// total work.
    pub static_runtime: u64,
    /// Whether the application supports DROM malleability.
    pub malleable: bool,
    /// MPI ranks per node (shrink floor: one core per rank).
    pub ranks_per_node: u32,
    /// Bound application (Workload 5), if any.
    pub app: Option<AppId>,
    /// Owning tenant (SWF `user`; 0 = anonymous/untenanted).
    pub tenant: u32,
    /// Owning project (SWF `group`; 0 = default project).
    pub project: u32,
}

impl JobSpec {
    /// Builds a spec from an SWF record, rounding to whole nodes.
    ///
    /// Returns `None` for records that cannot be simulated.
    pub(crate) fn from_swf(
        j: &swf::SwfJob,
        spec: &cluster::ClusterSpec,
        malleable: bool,
        ranks_per_node: u32,
    ) -> Option<JobSpec> {
        let procs = j.procs()?;
        let runtime = j.runtime()?;
        if runtime == 0 || j.submit < 0 {
            return None;
        }
        let req_time = j.requested_time().unwrap_or(runtime).max(runtime);
        Some(JobSpec {
            id: JobId(j.job_id),
            submit: SimTime(j.submit as u64),
            req_nodes: spec.nodes_for_procs(procs).max(1),
            req_procs: procs,
            req_time,
            static_runtime: runtime,
            malleable,
            ranks_per_node: ranks_per_node.max(1),
            app: None,
            tenant: j.user.max(0) as u32,
            project: j.group.max(0) as u32,
        })
    }

    /// The slowdown the job would finish with if it ended at `end`: response
    /// time over static runtime, as [`JobOutcome::slowdown`] computes it.
    pub fn slowdown_ending_at(&self, end: SimTime) -> f64 {
        end.since(self.submit) as f64 / self.static_runtime.max(1) as f64
    }
}

/// Dynamic state of a job that is currently executing.
#[derive(Debug, Clone)]
pub struct RunningJob {
    pub start: SimTime,
    /// Nodes allocated (whole-node granularity), ascending.
    pub nodes: Vec<NodeId>,
    /// Cores held per node, parallel to `nodes`.
    pub cores: Vec<u32>,
    /// Cores per node the job was sized for (full node width).
    pub full_cores: u32,
    /// Work completed, in seconds of full-rate execution.
    pub work_done: f64,
    /// Current progress rate (1.0 = full speed).
    pub rate: f64,
    /// Instant `work_done` was last banked.
    pub(crate) last_banked: SimTime,
    /// Generation counter for end events (stale events are ignored).
    pub(crate) end_gen: u64,
    /// Instant of the live `End` event (generation `end_gen`), or
    /// `SimTime::MAX` before the first arming and while the rate is 0.
    /// Set only where the event is armed; not serialised — a restore reads
    /// it back from the event queue.
    pub armed_end: SimTime,
    /// Requested-time-based predicted end, used by profiles/reservations and
    /// the finish-inside-mates constraint. Fixed while the job runs: a
    /// shrink stretches the run, never the time limit.
    pub req_end: SimTime,
    /// Jobs this one was co-scheduled with (it is the *backfilled* job).
    pub mates: Vec<JobId>,
    /// Jobs this one lent cores to (it is a *mate*).
    pub(crate) lent_to: Vec<JobId>,
    /// True if the job ever ran shrunk (for metrics).
    pub(crate) ever_shrunk: bool,
    /// True if this job was started through malleable backfill.
    pub malleable_backfilled: bool,
    /// Contribution currently registered with the energy meter
    /// (`cores × cpu-utilisation`); maintained by the simulator's
    /// incremental energy accounting.
    pub(crate) energy_weight: f64,
}

impl RunningJob {
    /// Starts a job at `now` on the given allocation, full rate.
    pub fn new(now: SimTime, nodes: Vec<NodeId>, cores: Vec<u32>, full_cores: u32, req_time: u64) -> Self {
        debug_assert_eq!(nodes.len(), cores.len());
        RunningJob {
            start: now,
            nodes,
            cores,
            full_cores,
            work_done: 0.0,
            rate: 1.0,
            last_banked: now,
            end_gen: 0,
            armed_end: SimTime::MAX,
            req_end: now.after(req_time),
            mates: Vec::new(),
            lent_to: Vec::new(),
            ever_shrunk: false,
            malleable_backfilled: false,
            energy_weight: 0.0,
        }
    }

    /// Accumulates progress up to `now` at the current rate.
    pub fn bank(&mut self, now: SimTime) {
        let dt = now.since(self.last_banked);
        if dt > 0 {
            self.work_done += self.rate * dt as f64;
            self.last_banked = now;
        }
    }

    /// Remaining work given the job's total (its static runtime).
    pub fn remaining_work(&self, total: u64) -> f64 {
        (total as f64 - self.work_done).max(0.0)
    }

    /// Predicted completion instant from `now` at the current rate.
    /// `rate == 0` never completes (returns `SimTime::MAX`).
    pub fn predicted_end(&self, now: SimTime, total: u64) -> SimTime {
        debug_assert!(now >= self.last_banked);
        let pending = now.since(self.last_banked) as f64 * self.rate;
        let rem = (total as f64 - self.work_done - pending).max(0.0);
        if rem == 0.0 {
            return now;
        }
        if self.rate <= 0.0 {
            return SimTime::MAX;
        }
        now.after((rem / self.rate).ceil() as u64)
    }

    /// Changes the progress rate at `now` (banks first) and bumps the end
    /// generation so any armed end event becomes stale.
    pub fn set_rate(&mut self, now: SimTime, rate: f64) {
        self.bank(now);
        self.rate = rate.clamp(0.0, 1.0 + 1e-9);
        self.end_gen += 1;
        if rate < 1.0 - 1e-12 {
            self.ever_shrunk = true;
        }
    }

    /// Total cores currently held.
    pub fn total_cores(&self) -> u64 {
        self.cores.iter().map(|&c| c as u64).sum()
    }

    /// Whether the job currently holds its full allocation everywhere.
    pub(crate) fn at_full_allocation(&self) -> bool {
        self.cores.iter().all(|&c| c == self.full_cores)
    }
}

/// Lifecycle of a job inside the simulator.
///
/// The running state is boxed: only the few hundred jobs executing at once
/// use it, so a pending, done or cancelled job does not pay its 168 bytes
/// (`tests/memory_budget.rs` pins a [`Job`] at 80).
#[derive(Debug, Clone)]
pub enum JobState {
    /// Submitted, waiting in the queue.
    Pending,
    /// Executing.
    Running(Box<RunningJob>),
    /// Finished; outcome recorded.
    Done,
    /// Withdrawn while pending (online `scancel`); no outcome recorded.
    Cancelled,
}

/// One job: spec plus current state.
#[derive(Debug, Clone)]
pub struct Job {
    pub spec: JobSpec,
    pub state: JobState,
}

impl Job {
    pub fn running(&self) -> Option<&RunningJob> {
        match &self.state {
            JobState::Running(r) => Some(r),
            _ => None,
        }
    }

    pub(crate) fn running_mut(&mut self) -> Option<&mut RunningJob> {
        match &mut self.state {
            JobState::Running(r) => Some(r),
            _ => None,
        }
    }

    pub(crate) fn is_pending(&self) -> bool {
        matches!(self.state, JobState::Pending)
    }

    /// Lifecycle phase as a wire-friendly label.
    pub fn state_label(&self) -> &'static str {
        match self.state {
            JobState::Pending => "pending",
            JobState::Running(_) => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// Final record of one completed job (input to `sched-metrics`).
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    pub id: JobId,
    pub submit: SimTime,
    pub start: SimTime,
    pub end: SimTime,
    /// Whole nodes held.
    pub nodes: u32,
    /// Requested processors (trace value).
    pub procs: u64,
    pub req_time: u64,
    /// Static (trace) runtime — the slowdown denominator.
    pub static_runtime: u64,
    /// Started through malleable backfill.
    pub malleable_backfilled: bool,
    /// Was shrunk at least once as a mate.
    pub was_mate: bool,
    pub app: Option<AppId>,
    /// Owning tenant (0 = anonymous/untenanted).
    pub tenant: u32,
}

impl JobOutcome {
    pub fn wait(&self) -> u64 {
        self.start.since(self.submit)
    }

    /// Actual wall-clock runtime (includes malleability stretch).
    pub fn runtime(&self) -> u64 {
        self.end.since(self.start)
    }

    pub fn response(&self) -> u64 {
        self.end.since(self.submit)
    }

    /// Paper metric: response time / *static* execution time.
    pub fn slowdown(&self) -> f64 {
        self.response() as f64 / self.static_runtime.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rj(now: u64) -> RunningJob {
        RunningJob::new(
            SimTime(now),
            vec![NodeId(0), NodeId(1)],
            vec![8, 8],
            8,
            1000,
        )
    }

    #[test]
    fn full_rate_job_completes_on_time() {
        let j = rj(100);
        assert_eq!(j.predicted_end(SimTime(100), 500), SimTime(600));
        assert!(j.at_full_allocation());
    }

    #[test]
    fn banking_accumulates_work() {
        let mut j = rj(0);
        j.bank(SimTime(300));
        assert!((j.work_done - 300.0).abs() < 1e-9);
        assert_eq!(j.remaining_work(500), 200.0);
        assert_eq!(j.predicted_end(SimTime(300), 500), SimTime(500));
    }

    #[test]
    fn shrink_halves_rate_and_doubles_remaining() {
        let mut j = rj(0);
        j.bank(SimTime(250)); // 250 of 500 done
        j.set_rate(SimTime(250), 0.5);
        assert!(j.ever_shrunk);
        assert_eq!(j.end_gen, 1);
        // Remaining 250 work at rate 0.5 → 500 wall seconds.
        assert_eq!(j.predicted_end(SimTime(250), 500), SimTime(750));
    }

    #[test]
    fn expand_back_restores_rate() {
        let mut j = rj(0);
        j.set_rate(SimTime(0), 0.5);
        j.bank(SimTime(100)); // 50 work done
        j.set_rate(SimTime(100), 1.0);
        assert_eq!(j.predicted_end(SimTime(100), 500), SimTime(550));
        assert_eq!(j.end_gen, 2);
    }

    #[test]
    fn predicted_end_accounts_for_unbanked_time() {
        let mut j = rj(0);
        j.set_rate(SimTime(0), 0.5);
        // Query at t=100 without banking: 50 work pending.
        assert_eq!(j.predicted_end(SimTime(100), 500), SimTime(1000));
    }

    #[test]
    fn zero_rate_never_completes() {
        let mut j = rj(0);
        j.set_rate(SimTime(0), 0.0);
        assert_eq!(j.predicted_end(SimTime(10), 500), SimTime::MAX);
    }

    #[test]
    fn finished_work_predicts_now() {
        let mut j = rj(0);
        j.bank(SimTime(500));
        assert_eq!(j.predicted_end(SimTime(500), 500), SimTime(500));
        assert_eq!(j.remaining_work(500), 0.0);
    }

    #[test]
    fn node_fractions_reflect_mixed_allocations() {
        let mut j = rj(0);
        j.cores = vec![4, 8];
        assert!(!j.at_full_allocation());
        assert_eq!(j.total_cores(), 12);
    }

    #[test]
    fn outcome_metrics() {
        let o = JobOutcome {
            id: JobId(1),
            submit: SimTime(100),
            start: SimTime(400),
            end: SimTime(1400),
            nodes: 2,
            procs: 16,
            req_time: 2000,
            static_runtime: 500,
            malleable_backfilled: true,
            was_mate: false,
            app: None,
            tenant: 0,
        };
        assert_eq!(o.wait(), 300);
        assert_eq!(o.runtime(), 1000);
        assert_eq!(o.response(), 1300);
        assert!((o.slowdown() - 2.6).abs() < 1e-12);
    }

    #[test]
    fn from_swf_rounds_to_whole_nodes() {
        let spec = cluster::ClusterSpec::cea_curie(); // 16-core nodes
        let mut sj = swf::SwfJob::for_simulation(7, 50, 600, 17, 1200);
        let js = JobSpec::from_swf(&sj, &spec, true, 2).unwrap();
        assert_eq!(js.req_nodes, 2);
        assert_eq!(js.req_procs, 17);
        assert_eq!(js.req_time, 1200);
        // `for_simulation` leaves user/group unknown (−1) → anonymous.
        assert_eq!((js.tenant, js.project), (0, 0));
        // Unusable records rejected:
        sj.run_time = 0;
        assert!(JobSpec::from_swf(&sj, &spec, true, 2).is_none());
    }

    #[test]
    fn from_swf_floors_req_time_at_runtime() {
        let spec = cluster::ClusterSpec::cea_curie();
        let mut sj = swf::SwfJob::for_simulation(7, 0, 600, 16, 30);
        sj.req_time = 30; // under-estimate
        let js = JobSpec::from_swf(&sj, &spec, false, 1).unwrap();
        assert_eq!(js.req_time, 600);
    }
}
