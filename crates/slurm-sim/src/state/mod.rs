//! The simulator state and its primitive operations.
//!
//! [`SimState`] owns the machine (cluster occupancy, DROM registry, node
//! managers), the job table, the queue, the event queue and the energy
//! meter. Schedulers mutate it only through the high-level operations:
//!
//! * [`SimState::start_static`] — exclusive whole-node start,
//! * [`SimState::co_schedule`] — SD-Policy's malleable start: shrink the
//!   mates, place the new job in the freed cores (paper Listing 1 → 3),
//! * job completion (driven by the controller) with owner-return /
//!   redistribution semantics.
//!
//! Every operation keeps five structures consistent: cluster occupancy, DROM
//! masks, per-job running state (the work integrator), the release map used
//! by backfill profiles, and the energy meter. `cfg.self_check` re-validates
//! the cluster after each mutation.

use crate::config::SlurmConfig;
use crate::job::{Job, JobOutcome, JobSpec, JobState, RunningJob};
use crate::queue::{PendingQueue, QueueEntry};
use crate::rate::{RateInputs, RateModel};
use crate::reservation::{Profile, ReleaseMap};
use crate::tenant::{fair_share_sort, QueuePolicy, TenantUsage, NO_TENANT_SLOT};
use crate::timing::{self, Probe};
use cluster::{ClusterSpec, ClusterState, EnergyMeter, JobId, NodeId};
use drom::{DromRegistry, NodeManager, SharingFactor};
use simkit::{DetRng, EventQueue, SimTime};
use std::collections::BTreeSet;
use weights::PoolWeights;
use workload::{AppModel, AppTrace};

/// Simulation events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A job enters the system.
    Submit(JobId),
    /// A (possibly stale) completion; `gen` must match the job's current
    /// end-event generation.
    End { job: JobId, gen: u64 },
}

/// Counters accumulated over a run. Everything here is driven by the
/// simulation itself (not by how jobs were fed in), so an online session and
/// the offline replay of the same workload produce equal stats — the
/// `serve_equivalence` test pins that.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    pub started_static: u64,
    /// Jobs started through malleable backfill (paper: 20 476 for W4).
    pub started_malleable: u64,
    /// Distinct jobs that were shrunk as mates (paper: 17 102 for W4).
    pub unique_mates: u64,
    pub shrink_events: u64,
    pub expand_events: u64,
    /// Shrunk borrowers moved to idle whole nodes (expand side of the
    /// resource manager).
    pub relocations: u64,
    pub sched_passes: u64,
    /// Event batches whose pass was provably a no-op and was skipped.
    pub passes_skipped: u64,
    /// Jobs withdrawn via [`SimState::cancel_job`] (always 0 for offline
    /// trace replays — cancellation only exists on the online path).
    pub cancelled: u64,
    /// Backfill trials skipped because starting the job would exceed its
    /// tenant's quota (always 0 with an empty [`crate::TenantRegistry`]).
    pub quota_skipped: u64,
    /// Events dispatched (incl. stale end events).
    pub events_dispatched: u64,
    /// Largest pass-profile step count seen (perf/size diagnostic).
    pub peak_profile_len: usize,
}

/// What an event batch changed since the last scheduling pass — the
/// controller consults these (through [`crate::Scheduler::pass_needed`]) to
/// skip passes that provably cannot act.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirtyFlags {
    /// A job entered the pending queue (submit).
    pub queue: bool,
    /// Capacity was freed or reshaped (a job completed).
    pub capacity: bool,
}

/// Reusable buffers for the scheduling pass: the pass availability and the
/// per-pass vectors live here between passes so the hot loop never
/// allocates.
#[derive(Debug, Default)]
struct PassScratch {
    profile: Profile,
    prefix: Vec<crate::queue::QueueEntry>,
}

/// One mate-pool entry: the per-candidate inputs of Eq. 4 and the paper's
/// filters, denormalised at insertion time. Everything here is immutable
/// while the job runs, so the policy's candidate scan never touches the job
/// table (one cache line per candidate instead of two dependent loads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MateEntry {
    /// The fixed part of Eq. 4, `(wait + req)/req` — the pool sort key.
    pub base: f64,
    pub id: JobId,
    /// Seconds the mate waited in the queue before starting.
    pub wait: u64,
    /// User-requested wall time.
    pub req_time: u64,
    /// Requested end (finish-inside filter input).
    pub req_end: SimTime,
    /// Whole nodes occupied — the weight `wᵢ` of Eq. 3.
    pub weight: u32,
    /// MPI ranks per node (shrink floor).
    pub ranks_per_node: u32,
}

/// 2^64: the fixed-point scale of [`SlowdownSum`].
const TWO_64: f64 = 18_446_744_073_709_551_616.0;

/// DynAVGSD's inputs (paper §3.2.2), kept where they change: the sum over
/// running jobs of [`JobSpec::slowdown_ending_at`] their armed end, and how
/// many terms it holds. A job's term is added and removed only where its
/// end is armed ([`SimState::arm_end`]) and where it leaves
/// ([`SimState::release_running`]); a job at rate 0 never ends and has none.
///
/// The sum is `i128` fixed point at 2^-64, exact for every term in
/// [2^-11, 2^63): it does not depend on the order of its updates, so the
/// incremental sum, a recount and a restored state agree bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SlowdownSum {
    fixed: i128,
    n: u64,
}

impl SlowdownSum {
    /// `spec`'s term if it ends at `end`; `None` for `SimTime::MAX`.
    fn term(spec: &JobSpec, end: SimTime) -> Option<i128> {
        if end == SimTime::MAX {
            return None;
        }
        let x = spec.slowdown_ending_at(end);
        debug_assert!((0.0..TWO_64 / 2.0).contains(&x), "slowdown term {x} out of range");
        // Integer and fraction apart: a direct f64 → i128 cast is a
        // library call. Both steps are exact (the fraction of an f64 is an
        // f64, and the scale is a power of two).
        let int = x as i64;
        let frac = ((x - int as f64) * TWO_64) as u64;
        Some(((int as i128) << 64) + frac as i128)
    }

    fn add(&mut self, spec: &JobSpec, end: SimTime) {
        if let Some(t) = Self::term(spec, end) {
            self.fixed += t;
            self.n += 1;
        }
    }

    fn sub(&mut self, spec: &JobSpec, end: SimTime) {
        if let Some(t) = Self::term(spec, end) {
            self.fixed -= t;
            self.n -= 1;
        }
    }
}

/// Full simulator state. See module docs.
pub struct SimState {
    pub now: SimTime,
    pub cfg: SlurmConfig,
    spec: ClusterSpec,
    pub cluster: ClusterState,
    pub drom: DromRegistry,
    node_mgrs: Vec<NodeManager>,
    pub queue: PendingQueue,
    jobs: Vec<Job>,
    /// Ids of running jobs, ascending (deterministic iteration).
    running: BTreeSet<JobId>,
    /// Eligible mates kept sorted ascending by `(base, id)`. The base
    /// penalty is the fixed part of Eq. 4: `(wait + req)/req`.
    mate_pool: Vec<MateEntry>,
    /// The multiset of `mate_pool`'s weights, answering Eq. 3 without a
    /// scan ([`SimState::mate_weights_cover`]).
    pool_weights: PoolWeights,
    /// Running jobs ordered by requested end — lets mate filtering prune
    /// finish-inside-infeasible trials without touching the job table.
    running_by_end: BTreeSet<(SimTime, JobId)>,
    /// Running malleable-backfilled jobs currently below full width
    /// (maintained at every reconfiguration; ascending id).
    shrunk: BTreeSet<JobId>,
    /// DynAVGSD's sum over the running jobs' armed ends.
    slowdown: SlowdownSum,
    releases: ReleaseMap,
    /// Cached availability, patched on every release change. It always
    /// equals `Profile::build(now', empty, releases)` for the instant `now'`
    /// it was last advanced to.
    avail: Profile,
    dirty: DirtyFlags,
    scratch: PassScratch,
    pub events: EventQueue<Event>,
    outcomes: Vec<JobOutcome>,
    meter: EnergyMeter,
    weighted_busy: f64,
    rate_model: Box<dyn RateModel>,
    sharing: SharingFactor,
    pub stats: SimStats,
    /// Per-tenant accounting, parallel to the registry's slots (empty on
    /// the untenanted path).
    tenant_usage: Vec<TenantUsage>,
    first_submit: SimTime,
    last_end: SimTime,
    /// Decision-trace probe handle (DESIGN.md §12). Detached by default:
    /// every probe is then a single `Option` check. Attach a ring with
    /// [`SimState::attach_trace`] to record scheduler decisions.
    pub trace: sd_trace::TraceSink,
}

/// Error from an online job submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The record cannot be simulated (zero runtime, no processor count…);
    /// the trace constructors drop such records.
    Unusable,
    /// The submit instant lies before the simulation clock.
    InPast { submit: SimTime, now: SimTime },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Unusable => write!(f, "job record cannot be simulated"),
            SubmitError::InPast { submit, now } => {
                write!(f, "submit time {submit} is before the clock ({now})")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Error from a malleable co-scheduling attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum CoScheduleError {
    NotPending,
    NotMalleable,
    MateNotEligible(JobId),
    WeightMismatch { mates: u32, wanted: u32 },
    NoFreedCores(JobId),
}

impl std::fmt::Display for CoScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoScheduleError::NotPending => write!(f, "job is not pending"),
            CoScheduleError::NotMalleable => write!(f, "job is not malleable"),
            CoScheduleError::MateNotEligible(j) => write!(f, "{j} is not an eligible mate"),
            CoScheduleError::WeightMismatch { mates, wanted } => {
                write!(f, "mates provide {mates} nodes, job wants {wanted}")
            }
            CoScheduleError::NoFreedCores(j) => write!(f, "{j} cannot free any cores"),
        }
    }
}

impl std::error::Error for CoScheduleError {}

impl SimState {
    /// Builds the state from a trace: the empty machine of
    /// [`SimState::new_online`], then every record admitted through
    /// [`SimState::submit_job`] in trace order — one admission path, so an
    /// offline replay and a served session of the same records agree by
    /// construction. Records the simulator cannot run are dropped.
    pub fn new(
        spec: ClusterSpec,
        cfg: SlurmConfig,
        trace: &swf::Trace,
        rate_model: Box<dyn RateModel>,
        sharing: SharingFactor,
    ) -> SimState {
        let mut st = Self::empty(spec, cfg, rate_model, sharing, trace.len());
        for sj in &trace.jobs {
            let _ = st.submit_job(sj, None);
        }
        st
    }

    /// An empty machine accepting jobs *online* through
    /// [`SimState::submit_job`] — the state behind the `sd-serve` daemon.
    /// `first_submit` stays unanchored (`SimTime::MAX`) until the first
    /// submission, which anchors the makespan/energy window.
    pub fn new_online(
        spec: ClusterSpec,
        cfg: SlurmConfig,
        rate_model: Box<dyn RateModel>,
        sharing: SharingFactor,
    ) -> SimState {
        Self::empty(spec, cfg, rate_model, sharing, 0)
    }

    /// Like [`SimState::new`] but binds applications (Workload 5): each
    /// admitted job takes the app of its trace record.
    pub fn with_apps(
        spec: ClusterSpec,
        cfg: SlurmConfig,
        apps: &AppTrace,
        rate_model: Box<dyn RateModel>,
        sharing: SharingFactor,
    ) -> SimState {
        let mut st = Self::empty(spec, cfg, rate_model, sharing, apps.trace.len());
        for (idx, sj) in apps.trace.jobs.iter().enumerate() {
            if let Ok(id) = st.submit_job(sj, None) {
                st.job_mut(id).spec.app = Some(apps.apps[idx]);
            }
        }
        st
    }

    /// An idle machine with room for `jobs` submissions.
    fn empty(
        spec: ClusterSpec,
        cfg: SlurmConfig,
        rate_model: Box<dyn RateModel>,
        sharing: SharingFactor,
        jobs: usize,
    ) -> SimState {
        let nodes = spec.nodes;
        // Energy is measured over the makespan window (first arrival → last
        // end), matching the paper's definitions for both metrics; the first
        // submission moves the start there.
        let mut meter = EnergyMeter::new(spec.node.power, nodes);
        meter.start(SimTime::ZERO);
        let tenant_usage = vec![TenantUsage::default(); cfg.tenants.len()];
        SimState {
            now: SimTime::ZERO,
            cluster: ClusterState::new(spec.clone()),
            drom: DromRegistry::new(),
            node_mgrs: (0..nodes)
                .map(|i| NodeManager::new(NodeId(i), spec.node.clone()))
                .collect(),
            spec,
            cfg,
            queue: PendingQueue::new(),
            jobs: Vec::with_capacity(jobs),
            running: BTreeSet::new(),
            mate_pool: Vec::new(),
            pool_weights: PoolWeights::default(),
            running_by_end: BTreeSet::new(),
            shrunk: BTreeSet::new(),
            slowdown: SlowdownSum::default(),
            releases: ReleaseMap::new(nodes),
            avail: Profile::flat(SimTime::ZERO, nodes),
            dirty: DirtyFlags::default(),
            scratch: PassScratch::default(),
            events: EventQueue::with_capacity(jobs * 2),
            outcomes: Vec::new(),
            meter,
            weighted_busy: 0.0,
            rate_model,
            sharing,
            stats: SimStats::default(),
            tenant_usage,
            first_submit: SimTime::MAX,
            last_end: SimTime::ZERO,
            trace: sd_trace::TraceSink::detached(),
        }
    }

    /// Arms decision tracing: every subsequent scheduler decision is
    /// appended to `ring` (until `ring.disable()`).
    pub fn attach_trace(&mut self, ring: std::sync::Arc<sd_trace::TraceRing>) {
        self.trace = sd_trace::TraceSink::attached(ring);
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    pub fn sharing(&self) -> SharingFactor {
        self.sharing
    }

    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[(id.0 - 1) as usize]
    }

    fn job_mut(&mut self, id: JobId) -> &mut Job {
        &mut self.jobs[(id.0 - 1) as usize]
    }

    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// DynAVGSD's inputs in O(1): the sum of the running jobs' slowdowns
    /// at their armed ends (`(end − submit) / static_runtime` each) and the
    /// number of terms. A job at rate 0 never ends and is in neither.
    /// Under `cfg.self_check` every read is checked against a recount.
    pub fn running_slowdown(&self) -> (f64, u64) {
        if self.cfg.self_check {
            assert_eq!(
                self.slowdown,
                self.recount_slowdown(),
                "DynAVGSD sum diverged from a recount at {:?}",
                self.now
            );
        }
        (self.slowdown.fixed as f64 / TWO_64, self.slowdown.n)
    }

    /// [`SlowdownSum`] rebuilt from scratch over the running set.
    fn recount_slowdown(&self) -> SlowdownSum {
        let mut sum = SlowdownSum::default();
        for &id in &self.running {
            let job = self.job(id);
            if let Some(run) = job.running() {
                sum.add(&job.spec, run.armed_end);
            }
        }
        sum
    }

    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Moves the outcome list out (avoids cloning 200 K records at the end
    /// of a run).
    pub(crate) fn take_outcomes(&mut self) -> Vec<JobOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Eligible mates as denormalised [`MateEntry`]s, ascending by base
    /// penalty. The variable `increase/req` part of Eq. 4 is added by the
    /// policy for a concrete co-schedule.
    pub fn eligible_mates(&self) -> &[MateEntry] {
        &self.mate_pool
    }

    /// Eq. 3 on the whole pool: can between one and `max_mates` eligible
    /// mates have weights summing to exactly `need`? Candidate lists are
    /// subsets of the pool, so `false` means no mate scan can succeed
    /// (exact for `max_mates ≤ 2`, a necessary bound beyond).
    pub fn mate_weights_cover(&self, need: u32, max_mates: usize) -> bool {
        self.pool_weights.covers(need, max_mates)
    }

    /// Availability profile at `now`, rebuilt from scratch (requested-time
    /// based). This is the *slow path*: passes use the cached
    /// [`SimState::availability`]; the rebuild is the validation oracle
    /// (`self_check`, [`SimState::deep_validate`], tests) and what a restore
    /// starts from.
    pub(crate) fn build_profile(&self) -> Profile {
        Profile::build(self.now, self.cluster.empty_node_count(), &self.releases)
    }

    /// The incrementally maintained availability, advanced to `now`. It
    /// equals `SimState::build_profile` by construction (asserted under
    /// `self_check` and by property tests).
    pub fn availability(&mut self) -> &Profile {
        self.avail.advance_to(self.now);
        &self.avail
    }

    /// Running jobs ordered by requested end; `None` when idle. Lets the
    /// policy prune malleable trials whose finish-inside constraint no
    /// running job can satisfy, without scanning the job table.
    pub fn latest_running_req_end(&self) -> Option<SimTime> {
        self.running_by_end.iter().next_back().map(|&(t, _)| t)
    }

    /// What changed since the flags were last taken (the controller clears
    /// them after every event batch).
    pub(crate) fn take_dirty(&mut self) -> DirtyFlags {
        std::mem::take(&mut self.dirty)
    }


    // ------------------------------------------------------------------
    // Event dispatch (called by the controller)
    // ------------------------------------------------------------------

    /// Processes one event; returns `true` if the system state changed in a
    /// way that warrants a scheduling pass. Also records *what* changed in
    /// the [`DirtyFlags`] the controller uses for pass gating.
    pub fn dispatch(&mut self, ev: Event) -> bool {
        self.stats.events_dispatched += 1;
        match ev {
            Event::Submit(id) => {
                let job = &self.jobs[(id.0 - 1) as usize];
                if !job.is_pending() {
                    return false; // cancelled before its submit instant
                }
                let (req_nodes, req_time) = (job.spec.req_nodes, job.spec.req_time);
                let tslot = self.tenant_slot(id);
                if tslot != NO_TENANT_SLOT {
                    self.tenant_usage[tslot as usize].submitted += 1;
                }
                self.queue.push(id, req_nodes, req_time, tslot);
                self.trace
                    .emit(self.now.secs(), sd_trace::TraceKind::Submitted { job: id.0 });
                self.dirty.queue = true;
                true
            }
            Event::End { job, gen } => {
                let is_current = self
                    .job(job)
                    .running()
                    .map(|r| r.end_gen == gen)
                    .unwrap_or(false);
                if is_current {
                    self.complete_job(job);
                    self.dirty.capacity = true;
                    true
                } else {
                    false // stale end event
                }
            }
        }
    }


    /// Asserts the derived caches equal fresh rebuilds: the pool weight
    /// index and the availability profile (called from the `self_check`
    /// blocks).
    fn self_check_caches(&mut self) {
        assert_eq!(
            self.pool_weights,
            PoolWeights::recount(&self.mate_pool),
            "mate-pool weight index diverged from the pool"
        );
        let fresh = self.build_profile();
        let now = self.now;
        assert_eq!(
            self.availability(),
            &fresh,
            "cached availability diverged from rebuild at {now:?}"
        );
    }

    /// Validates the full cross-structure consistency (tests).
    pub fn deep_validate(&self) -> Result<(), String> {
        self.cluster.validate()?;
        for &id in &self.running {
            let r = self.job(id).running().ok_or("running set stale")?;
            for (i, &n) in r.nodes.iter().enumerate() {
                let c = self
                    .cluster
                    .occupancy(n)
                    .cores_of(id)
                    .ok_or_else(|| format!("{id} missing on {n}"))?;
                if c != r.cores[i] {
                    return Err(format!("{id} cores mismatch on {n}: {c} vs {}", r.cores[i]));
                }
            }
        }
        for e in &self.mate_pool {
            if !self.is_eligible_mate(e.id) {
                return Err(format!("{} in mate pool but ineligible", e.id));
            }
            let r = self.job(e.id).running().expect("eligible ⇒ running");
            if e.req_end != r.req_end || e.weight != r.nodes.len() as u32 {
                return Err(format!("{} mate-pool entry stale", e.id));
            }
        }
        // Index invariants (DESIGN.md §9).
        if self.pool_weights != PoolWeights::recount(&self.mate_pool) {
            return Err("mate-pool weight index out of sync".into());
        }
        if self.running_by_end.len() != self.running.len() {
            return Err("running_by_end index out of sync".into());
        }
        for &(end, id) in &self.running_by_end {
            let r = self.job(id).running().ok_or("running_by_end stale id")?;
            if r.req_end != end {
                return Err(format!("{id} req_end index stale: {end:?} vs {:?}", r.req_end));
            }
        }
        for &id in &self.running {
            let r = self.job(id).running().expect("checked above");
            let shrunk = r.malleable_backfilled && !r.at_full_allocation();
            if shrunk != self.shrunk.contains(&id) {
                return Err(format!("{id} shrunk-borrower index stale"));
            }
        }
        if self.shrunk.iter().any(|id| !self.running.contains(id)) {
            return Err("shrunk index holds a non-running job".into());
        }
        // Each running job's armed end is the instant of its one live end
        // event, and the DynAVGSD sum is the recount over those ends.
        let mut live_ends = 0;
        for (t, ev, _) in self.events.snapshot().0 {
            let Event::End { job, gen } = ev else { continue };
            let run = job.0.checked_sub(1).and_then(|i| self.jobs.get(i as usize)?.running());
            if let Some(r) = run.filter(|r| r.end_gen == gen) {
                if r.armed_end != t {
                    return Err(format!("{job} armed end {:?} vs live event {t:?}", r.armed_end));
                }
                live_ends += 1;
            }
        }
        if live_ends != self.running.len() {
            return Err(format!(
                "{live_ends} live end events for {} running jobs",
                self.running.len()
            ));
        }
        if self.slowdown != self.recount_slowdown() {
            return Err("DynAVGSD sum out of sync with the armed ends".into());
        }
        if self.releases.busy_count() + self.cluster.empty_node_count() != self.spec.nodes {
            return Err("release-map busy counter out of sync".into());
        }
        if !self.cfg.tenants.is_empty() {
            let mut widths = vec![0u32; self.tenant_usage.len()];
            for &id in &self.running {
                let s = &self.job(id).spec;
                if let Some(slot) = self.cfg.tenants.slot(s.tenant, s.project) {
                    widths[slot as usize] += s.req_nodes;
                }
            }
            for (slot, (u, w)) in self.tenant_usage.iter().zip(&widths).enumerate() {
                if u.running_width != *w {
                    return Err(format!(
                        "tenant slot {slot} running width {} vs rescan {w}",
                        u.running_width
                    ));
                }
            }
        }
        let mut cached = self.avail.clone();
        cached.advance_to(self.now);
        if cached != self.build_profile() {
            return Err("cached availability diverged from rebuild".into());
        }
        Ok(())
    }
}

mod alloc;
mod energy;
mod online;
mod pass;
mod persist;
mod weights;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::WorstCaseModel;

    /// 4 nodes × 8 cores (2×4), trivial power.
    fn small_state(jobs: Vec<swf::SwfJob>) -> SimState {
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 4;
        let trace = swf::Trace::new(Default::default(), jobs);
        SimState::new(
            spec,
            SlurmConfig {
                self_check: true,
                ..SlurmConfig::default()
            },
            &trace,
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
        )
    }

    fn job(id: u64, submit: u64, run: u64, nodes: u64, req: u64) -> swf::SwfJob {
        swf::SwfJob::for_simulation(id, submit, run, nodes * 8, req)
    }

    fn drain_submits(st: &mut SimState) {
        while let Some(t) = st.events.peek_time() {
            if st
                .events
                .pop()
                .map(|e| {
                    st.now = t.max(st.now);
                    st.dispatch(e.payload)
                })
                .is_none()
            {
                break;
            }
        }
    }

    #[test]
    fn static_start_and_complete() {
        let mut st = small_state(vec![job(1, 0, 100, 2, 200)]);
        // Submit event:
        let ev = st.events.pop().unwrap();
        st.now = ev.time;
        st.dispatch(ev.payload);
        assert!(st.start_static(JobId(1)));
        assert_eq!(st.running_count(), 1);
        assert_eq!(st.cluster.busy_cores(), 16);
        assert!(st.deep_validate().is_ok());
        // End event fires at t=100:
        let ev = st.events.pop().unwrap();
        assert_eq!(ev.time, SimTime(100));
        st.now = ev.time;
        assert!(st.dispatch(ev.payload));
        assert_eq!(st.running_count(), 0);
        assert_eq!(st.cluster.busy_cores(), 0);
        let o = &st.outcomes()[0];
        assert_eq!(o.wait(), 0);
        assert_eq!(o.runtime(), 100);
        assert!((o.slowdown() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn start_fails_without_nodes() {
        let mut st = small_state(vec![job(1, 0, 100, 4, 200), job(2, 0, 100, 1, 200)]);
        drain_submits(&mut st);
        assert!(st.start_static(JobId(1)));
        assert!(!st.start_static(JobId(2)));
        assert_eq!(st.queue.len(), 1);
    }

    #[test]
    fn co_schedule_shrinks_mate_and_runs_both() {
        let mut st = small_state(vec![job(1, 0, 1000, 2, 1000), job(2, 0, 100, 2, 100)]);
        drain_submits(&mut st);
        assert!(st.start_static(JobId(1)));
        assert_eq!(st.eligible_mates().len(), 1);
        st.co_schedule(JobId(2), &[JobId(1)], 0).unwrap();
        assert!(st.deep_validate().is_ok());
        assert_eq!(st.stats.started_malleable, 1);
        assert_eq!(st.stats.unique_mates, 1);

        let mate = st.job(JobId(1)).running().unwrap();
        assert_eq!(mate.cores, vec![4, 4]);
        assert!((mate.rate - 0.5).abs() < 1e-12, "worst-case rate");
        assert_eq!(mate.lent_to, vec![JobId(2)]);

        let newj = st.job(JobId(2)).running().unwrap();
        assert_eq!(newj.cores, vec![4, 4]);
        assert!((newj.rate - 0.5).abs() < 1e-12);
        assert!(newj.malleable_backfilled);
        // Mate no longer eligible while lending.
        assert!(st.eligible_mates().is_empty());
    }

    #[test]
    fn weight_index_follows_the_pool_and_staleness_is_caught() {
        let mut st = small_state(vec![
            job(1, 0, 1000, 2, 1000),
            job(2, 0, 1000, 1, 1000),
            job(3, 0, 100, 2, 100),
        ]);
        drain_submits(&mut st);
        assert!(!st.mate_weights_cover(2, 2), "empty pool covers nothing");
        assert!(st.start_static(JobId(1)));
        assert!(st.start_static(JobId(2)));
        assert!(st.mate_weights_cover(2, 1) && st.mate_weights_cover(1, 1));
        assert!(st.mate_weights_cover(3, 2) && !st.mate_weights_cover(3, 1));
        assert!(!st.mate_weights_cover(4, 2), "2 + 2 needs two 2-node mates");
        // A lending mate leaves the pool, and the index with it.
        st.co_schedule(JobId(3), &[JobId(1)], 0).unwrap();
        assert!(!st.mate_weights_cover(2, 2) && st.mate_weights_cover(1, 2));
        assert!(st.deep_validate().is_ok());

        // A stale index fails both validators.
        st.pool_weights.insert(2);
        assert!(st.deep_validate().unwrap_err().contains("weight index"));
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| st.self_check_caches()));
        assert!(caught.is_err(), "self_check must panic on a stale index");
    }

    #[test]
    fn co_scheduled_job_ends_and_mate_expands() {
        let mut st = small_state(vec![job(1, 0, 1000, 2, 1000), job(2, 0, 100, 2, 100)]);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        st.co_schedule(JobId(2), &[JobId(1)], 0).unwrap();
        // New job: 100 s of work at rate 0.5 → ends at 200.
        let mut fired = Vec::new();
        while let Some(ev) = st.events.pop() {
            st.now = ev.time;
            if st.dispatch(ev.payload) {
                fired.push((ev.time, format!("{:?}", ev.payload)));
            }
        }
        assert_eq!(st.outcomes().len(), 2);
        let o2 = st.outcomes().iter().find(|o| o.id == JobId(2)).unwrap();
        assert_eq!(o2.end, SimTime(200), "stretched by worst-case model");
        let o1 = st.outcomes().iter().find(|o| o.id == JobId(1)).unwrap();
        // Mate: 200 s at 0.5 rate (100 work) + 900 remaining at full = 1100.
        assert_eq!(o1.end, SimTime(1100));
        assert!(o1.was_mate);
        assert!(st.deep_validate().is_ok());
    }

    #[test]
    fn mate_ending_first_redistributes_to_borrower() {
        // Mate is short; co-scheduled job long. Mate real runtime 100 but
        // requested 1000 (so the finish-inside constraint, which uses
        // requested times, would admit the pairing).
        let mut st = small_state(vec![job(1, 0, 100, 2, 1000), job(2, 0, 400, 2, 400)]);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        st.co_schedule(JobId(2), &[JobId(1)], 0).unwrap();
        while let Some(ev) = st.events.pop() {
            st.now = ev.time;
            st.dispatch(ev.payload);
        }
        let o1 = st.outcomes().iter().find(|o| o.id == JobId(1)).unwrap();
        // Mate: shrunk at 0 → rate 0.5, 100 work → ends at 200.
        assert_eq!(o1.end, SimTime(200));
        let o2 = st.outcomes().iter().find(|o| o.id == JobId(2)).unwrap();
        // Borrower: 200 s at 0.5 (100 work), then expands to full nodes →
        // 300 remaining at rate 1 → ends at 500.
        assert_eq!(o2.end, SimTime(500));
        assert_eq!(st.stats.expand_events, 1, "borrower expanded once (counted per job)");
    }

    #[test]
    fn weight_mismatch_rejected() {
        let mut st = small_state(vec![job(1, 0, 1000, 2, 1000), job(2, 0, 100, 1, 100)]);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        let err = st.co_schedule(JobId(2), &[JobId(1)], 0).unwrap_err();
        assert_eq!(
            err,
            CoScheduleError::WeightMismatch { mates: 2, wanted: 1 }
        );
    }

    #[test]
    fn static_jobs_cannot_be_mates() {
        let mut st = {
            let mut spec = ClusterSpec::ricc();
            spec.nodes = 4;
            let trace = swf::Trace::new(
                Default::default(),
                vec![job(1, 0, 1000, 2, 1000), job(2, 0, 100, 2, 100)],
            );
            SimState::new(
                spec,
                SlurmConfig {
                    malleable_fraction: 0.0,
                    ..SlurmConfig::default()
                },
                &trace,
                Box::new(WorstCaseModel),
                SharingFactor::HALF,
            )
        };
        drain_submits(&mut st);
        st.start_static(JobId(1));
        assert!(st.eligible_mates().is_empty());
        let err = st.co_schedule(JobId(2), &[JobId(1)], 0).unwrap_err();
        assert_eq!(err, CoScheduleError::NotMalleable);
    }

    #[test]
    fn release_map_tracks_requested_ends() {
        let mut st = small_state(vec![job(1, 0, 100, 2, 500)]);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        let p = st.build_profile();
        assert_eq!(p.free_at(SimTime(0)), 2);
        assert_eq!(p.free_at(SimTime(500)), 4, "released at requested end");
    }

    #[test]
    fn energy_accumulates_while_running() {
        let mut st = small_state(vec![job(1, 0, 100, 4, 100)]);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        while let Some(ev) = st.events.pop() {
            st.now = ev.time;
            st.dispatch(ev.payload);
        }
        let joules = st.snapshot_energy();
        // 4 nodes idle 120 W for 100 s + 32 cores × 15 W × 100 s.
        let expected = 4.0 * 120.0 * 100.0 + 32.0 * 15.0 * 100.0;
        assert!((joules - expected).abs() < 1e-6, "joules {joules}");
    }

    #[test]
    fn shrink_does_not_extend_the_mates_requested_end() {
        // SLURM wall-clock limits are fixed at start; lending cores must not
        // move the mate's req_end (the old extension fed the profile a
        // feedback loop — the makespan/energy regression).
        let mut st = small_state(vec![job(1, 0, 1000, 2, 1000), job(2, 0, 100, 2, 100)]);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        let before = st.job(JobId(1)).running().unwrap().req_end;
        st.co_schedule(JobId(2), &[JobId(1)], 0).unwrap();
        let after = st.job(JobId(1)).running().unwrap().req_end;
        assert_eq!(before, after, "mate limit must stay start + req_time");
        assert_eq!(after, SimTime(1000));
    }

    #[test]
    fn relocation_moves_borrower_to_idle_nodes_and_expands_mate() {
        // 4-node machine: J1 static on 2 nodes, J2 co-scheduled into J1's
        // cores, 2 nodes idle → J2 relocates to them at full width and both
        // jobs return to rate 1.
        let mut st = small_state(vec![job(1, 0, 1000, 2, 1000), job(2, 0, 400, 2, 400)]);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        st.co_schedule(JobId(2), &[JobId(1)], 0).unwrap();
        assert_eq!(st.shrunk_borrowers(), vec![JobId(2)]);

        st.now = SimTime(100);
        assert!(st.relocate_borrower(JobId(2)));
        assert!(st.deep_validate().is_ok());
        assert_eq!(st.stats.relocations, 1);

        let mate = st.job(JobId(1)).running().unwrap();
        assert_eq!(mate.cores, vec![8, 8], "mate expanded back");
        assert!((mate.rate - 1.0).abs() < 1e-12);
        assert!(mate.lent_to.is_empty());

        let borrower = st.job(JobId(2)).running().unwrap();
        assert_eq!(borrower.cores, vec![8, 8], "borrower at full width");
        assert!((borrower.rate - 1.0).abs() < 1e-12);
        assert!(borrower.mates.is_empty());
        // 100 s at rate 0.5 banked 50 work; 350 remain at full rate.
        let end = borrower.predicted_end(SimTime(100), 400);
        assert_eq!(end, SimTime(450));
        assert!(st.shrunk_borrowers().is_empty());
        // The pair dissolved: the mate is eligible again.
        assert!(st.is_eligible_mate(JobId(1)));
    }

    #[test]
    fn relocation_refused_without_idle_nodes_or_for_non_borrowers() {
        let mut st = small_state(vec![
            job(1, 0, 1000, 2, 1000),
            job(2, 0, 1000, 2, 1000),
            job(3, 0, 400, 2, 400),
        ]);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        st.start_static(JobId(2)); // machine full
        st.co_schedule(JobId(3), &[JobId(1)], 0).unwrap();
        assert!(!st.relocate_borrower(JobId(3)), "no idle nodes");
        assert!(!st.relocate_borrower(JobId(1)), "mates are not borrowers");
        assert!(!st.relocate_borrower(JobId(2)), "full-width jobs don't move");
        assert_eq!(st.stats.relocations, 0);
        assert!(st.deep_validate().is_ok());
    }

    #[test]
    fn relocation_keeps_energy_accounting_exact() {
        // Energy across a shrink + relocate + completions must equal the
        // hand-computed step integral (self_check cross-validates the
        // incremental sum at every event).
        let mut st = small_state(vec![job(1, 0, 1000, 2, 1000), job(2, 0, 400, 2, 400)]);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        st.co_schedule(JobId(2), &[JobId(1)], 0).unwrap();
        st.now = SimTime(100);
        assert!(st.relocate_borrower(JobId(2)));
        while let Some(ev) = st.events.pop() {
            st.now = ev.time.max(st.now);
            st.dispatch(ev.payload);
        }
        let joules = st.snapshot_energy();
        // Timeline (RICC nodes: 120 W idle, 15 W/core):
        //   0–100:   2 nodes busy, 16 weighted-busy cores (shared pair).
        //   100–450: 4 nodes busy, 32 cores (J1 full + relocated J2 full;
        //            J2 banked 50 work by t=100, finishes at 450).
        //   450–1050: 2 nodes busy, 16 cores (J1: 100 s at half rate cost
        //            50 s extra → ends at 1050).
        // Idle draw runs over the whole 0–1050 window on all 4 nodes.
        let busy = 15.0 * (16.0 * 100.0 + 32.0 * 350.0 + 16.0 * 600.0);
        let idle = 4.0 * 120.0 * 1050.0;
        let expected = busy + idle;
        assert!(
            (joules - expected).abs() < 1e-6,
            "joules {joules} vs expected {expected}"
        );
    }

    #[test]
    fn online_submission_matches_offline_build() {
        // Feeding records through submit_job must build the same job table,
        // events and measurement window as the constructor's trace loop.
        let jobs = vec![job(1, 30, 100, 2, 200), job(2, 10, 50, 1, 100)];
        let offline = small_state(jobs.clone());

        let mut spec = ClusterSpec::ricc();
        spec.nodes = 4;
        let mut online = SimState::new_online(
            spec,
            SlurmConfig {
                self_check: true,
                ..SlurmConfig::default()
            },
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
        );
        assert_eq!(online.first_submit(), SimTime::MAX, "unanchored");
        for sj in &jobs {
            online.submit_job(sj, None).unwrap();
        }
        assert_eq!(online.job_count(), offline.job_count());
        assert_eq!(online.first_submit(), offline.first_submit());
        for id in 1..=2 {
            assert_eq!(
                online.job(JobId(id)).spec,
                offline.job(JobId(id)).spec,
                "job {id}"
            );
        }
        // Past submissions are rejected once the clock moved.
        online.now = SimTime(100);
        let err = online.submit_job(&job(3, 40, 10, 1, 10), None).unwrap_err();
        assert!(matches!(err, SubmitError::InPast { .. }));
        // Unusable records are rejected like the constructor drops them.
        let err = online.submit_job(&job(4, 200, 0, 1, 10), None).unwrap_err();
        assert_eq!(err, SubmitError::Unusable);
        // Explicit malleability override beats the configured draw.
        let id = online.submit_job(&job(5, 200, 10, 1, 10), Some(false)).unwrap();
        assert!(!online.job(id).spec.malleable);
    }

    #[test]
    fn empty_trace_and_idle_session_give_equal_results() {
        // No job ever arrives: both constructors report the epoch as the
        // first submit, a zero makespan and the same energy bits.
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 4;
        let cfg = SlurmConfig {
            self_check: true,
            ..SlurmConfig::default()
        };
        let online = SimState::new_online(spec, cfg, Box::new(WorstCaseModel), SharingFactor::HALF);
        let offline = crate::SimResult::from_state(small_state(Vec::new()), "t");
        let online = crate::SimResult::from_state(online, "t");
        assert_eq!(offline, online);
        assert_eq!(offline.first_submit, SimTime::ZERO);
        assert_eq!(offline.makespan, 0);
        assert_eq!(offline.energy_joules.to_bits(), online.energy_joules.to_bits());
    }

    #[test]
    fn with_apps_binds_each_job_the_app_of_its_record() {
        // Record 0 cannot run (run time 0) and is dropped, so dense job 1
        // is record 1 and carries apps[1], not apps[0].
        use workload::AppId;
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 4;
        let jobs = vec![job(1, 0, 0, 1, 10), job(2, 5, 100, 1, 100), job(3, 9, 50, 1, 100)];
        let apps = AppTrace {
            trace: swf::Trace::new(Default::default(), jobs),
            apps: vec![AppId::Pils, AppId::Stream, AppId::Nest],
        };
        let st = SimState::with_apps(
            spec,
            SlurmConfig::default(),
            &apps,
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
        );
        assert_eq!(st.job_count(), 2);
        assert_eq!(st.job(JobId(1)).spec.app, Some(AppId::Stream));
        assert_eq!(st.job(JobId(2)).spec.app, Some(AppId::Nest));
    }

    #[test]
    fn cancel_before_and_after_arrival() {
        let mut st = small_state(vec![job(1, 0, 100, 1, 100), job(2, 50, 100, 1, 100)]);
        // Cancel job 2 before its submit event fires: the stale event must
        // not enqueue it later.
        assert!(st.cancel_job(JobId(2)));
        assert!(!st.cancel_job(JobId(2)), "already cancelled");
        let ev = st.events.pop().unwrap();
        st.now = ev.time;
        assert!(st.dispatch(ev.payload));
        assert_eq!(st.queue.len(), 1);
        // Cancel job 1 while queued.
        assert!(st.cancel_job(JobId(1)));
        assert!(st.queue.is_empty());
        assert!(st.take_dirty().queue, "cancel marks the queue dirty");
        // Job 2's submit event is stale now.
        let ev = st.events.pop().unwrap();
        st.now = ev.time.max(st.now);
        assert!(!st.dispatch(ev.payload), "cancelled job never enqueues");
        assert!(st.queue.is_empty());
        assert_eq!(st.stats.cancelled, 2);
        // Unknown jobs cannot be cancelled.
        assert!(!st.cancel_job(JobId(77)));
    }

    #[test]
    fn cancel_running_static_job_frees_the_machine() {
        let mut st = small_state(vec![job(1, 0, 100, 2, 200)]);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        st.now = SimTime(40);
        assert!(st.cancel_job(JobId(1)));
        assert!(matches!(st.job(JobId(1)).state, JobState::Cancelled));
        assert_eq!(st.running_count(), 0);
        assert_eq!(st.cluster.busy_cores(), 0);
        assert!(st.outcomes().is_empty(), "cancellation records no outcome");
        assert_eq!(st.stats.cancelled, 1);
        assert!(st.take_dirty().capacity, "freed capacity marks a pass");
        assert!(st.deep_validate().is_ok());
        // Its armed end event is stale and must not double-complete.
        while let Some(ev) = st.events.pop() {
            st.now = ev.time.max(st.now);
            assert!(!st.dispatch(ev.payload), "stale end after cancel");
        }
        assert!(st.outcomes().is_empty());
        // Energy: 2 nodes × 16 cores busy for 40 s, idle power over 0–40.
        let joules = st.snapshot_energy();
        let expected = 4.0 * 120.0 * 40.0 + 16.0 * 15.0 * 40.0;
        assert!((joules - expected).abs() < 1e-6, "joules {joules}");
    }

    #[test]
    fn cancel_shrunk_borrower_expands_mate_back() {
        let mut st = small_state(vec![job(1, 0, 1000, 2, 1000), job(2, 0, 400, 2, 400)]);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        st.co_schedule(JobId(2), &[JobId(1)], 0).unwrap();
        assert_eq!(st.shrunk_borrowers(), vec![JobId(2)]);
        st.now = SimTime(100);
        assert!(st.cancel_job(JobId(2)), "borrower cancel accepted");
        assert!(st.deep_validate().is_ok());
        let mate = st.job(JobId(1)).running().unwrap();
        assert_eq!(mate.cores, vec![8, 8], "mate expanded into freed cores");
        assert!((mate.rate - 1.0).abs() < 1e-12);
        assert!(mate.lent_to.is_empty(), "partner link dropped");
        assert!(st.shrunk_borrowers().is_empty(), "borrower index cleaned");
        assert!(st.is_eligible_mate(JobId(1)), "pair dissolved");
        // DROM masks on the shared nodes are consistent post-expansion.
        for n in [cluster::NodeId(0), cluster::NodeId(1)] {
            st.drom.validate_node(n).expect("masks disjoint");
        }
        while let Some(ev) = st.events.pop() {
            st.now = ev.time.max(st.now);
            st.dispatch(ev.payload);
        }
        assert_eq!(st.outcomes().len(), 1, "only the mate completes");
        let o1 = &st.outcomes()[0];
        // Mate: 100 s at rate 0.5 (50 work) + 950 remaining at full → 1050.
        assert_eq!(o1.end, SimTime(1050));
        let joules = st.snapshot_energy();
        // 0–100: shared pair = 16 weighted cores; 100–1050: mate full = 16.
        let expected = 4.0 * 120.0 * 1050.0 + 15.0 * (16.0 * 100.0 + 16.0 * 950.0);
        assert!((joules - expected).abs() < 1e-6, "joules {joules}");
    }

    #[test]
    fn cancel_active_mate_expands_borrower() {
        let mut st = small_state(vec![job(1, 0, 1000, 2, 1000), job(2, 0, 400, 2, 400)]);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        st.co_schedule(JobId(2), &[JobId(1)], 0).unwrap();
        st.now = SimTime(100);
        assert!(st.cancel_job(JobId(1)), "mate cancel accepted");
        assert!(st.deep_validate().is_ok());
        let borrower = st.job(JobId(2)).running().unwrap();
        assert_eq!(borrower.cores, vec![8, 8], "borrower took the cores");
        assert!((borrower.rate - 1.0).abs() < 1e-12);
        assert!(borrower.mates.is_empty(), "partner link dropped");
        assert!(
            st.shrunk_borrowers().is_empty(),
            "full-width borrower left the shrunk index"
        );
        while let Some(ev) = st.events.pop() {
            st.now = ev.time.max(st.now);
            st.dispatch(ev.payload);
        }
        assert_eq!(st.outcomes().len(), 1, "only the borrower completes");
        // Borrower: 50 work banked by t=100, 350 remaining at full → 450.
        assert_eq!(st.outcomes()[0].end, SimTime(450));
    }

    #[test]
    fn cancel_done_job_is_refused() {
        let mut st = small_state(vec![job(1, 0, 100, 1, 100)]);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        while let Some(ev) = st.events.pop() {
            st.now = ev.time.max(st.now);
            st.dispatch(ev.payload);
        }
        assert_eq!(st.outcomes().len(), 1);
        assert!(!st.cancel_job(JobId(1)), "done jobs cannot be cancelled");
        assert_eq!(st.stats.cancelled, 0);
    }

    #[test]
    fn outcome_count_matches_jobs() {
        let mut st = small_state(vec![
            job(1, 0, 50, 1, 100),
            job(2, 10, 60, 2, 100),
            job(3, 20, 70, 1, 100),
        ]);
        // Run a trivial FCFS loop: start whatever fits at each event.
        while let Some(ev) = st.events.pop() {
            st.now = ev.time;
            st.dispatch(ev.payload);
            let pending: Vec<JobId> = st.queue.prefix(10).map(|e| e.job).collect();
            for id in pending {
                st.start_static(id);
            }
        }
        assert_eq!(st.outcomes().len(), 3);
        assert!(st.queue.is_empty());
        assert_eq!(st.running_count(), 0);
    }

    // ------------------------------------------------------------------
    // Tenant accounting
    // ------------------------------------------------------------------

    use crate::tenant::{Quota, Tenant, TenantRegistry};

    fn tjob(id: u64, submit: u64, run: u64, nodes: u64, req: u64, user: i64) -> swf::SwfJob {
        let mut sj = job(id, submit, run, nodes, req);
        sj.user = user;
        sj
    }

    fn tenant_state(jobs: Vec<swf::SwfJob>, tenants: TenantRegistry) -> SimState {
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 4;
        let trace = swf::Trace::new(Default::default(), jobs);
        SimState::new(
            spec,
            SlurmConfig {
                self_check: true,
                tenants,
                ..SlurmConfig::default()
            },
            &trace,
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
        )
    }

    #[test]
    fn start_charges_tenant_and_completion_releases_width() {
        let reg = TenantRegistry::equal_weights(2, Quota::UNLIMITED);
        let mut st = tenant_state(
            vec![tjob(1, 0, 100, 2, 200, 1), tjob(2, 0, 100, 1, 150, 2)],
            reg,
        );
        drain_submits(&mut st);
        assert!(st.start_static(JobId(1)));
        assert!(st.start_static(JobId(2)));
        let u1 = &st.tenant_usage()[0];
        assert_eq!((u1.submitted, u1.started), (1, 1));
        assert_eq!(u1.running_width, 2);
        assert_eq!(u1.committed_node_seconds, 2 * 200);
        let u2 = &st.tenant_usage()[1];
        assert_eq!(u2.running_width, 1);
        assert_eq!(u2.committed_node_seconds, 150);
        while let Some(ev) = st.events.pop() {
            st.now = ev.time.max(st.now);
            st.dispatch(ev.payload);
        }
        let u1 = &st.tenant_usage()[0];
        assert_eq!(u1.running_width, 0, "width released on completion");
        assert_eq!(u1.committed_node_seconds, 400, "charge never refunded");
        assert_eq!(u1.completed, 1);
        assert!(st.deep_validate().is_ok());
    }

    #[test]
    fn quota_blocks_and_counts_skips() {
        let reg = TenantRegistry::equal_weights(
            1,
            Quota {
                node_seconds: Some(500),
                max_running_width: Some(2),
            },
        );
        let mut st = tenant_state(
            vec![tjob(1, 0, 100, 2, 200, 1), tjob(2, 0, 100, 1, 200, 1)],
            reg,
        );
        drain_submits(&mut st);
        let entries: Vec<QueueEntry> = st.queue.prefix(10).collect();
        assert_eq!(entries[0].tslot, 0, "slot resolved at dispatch");
        assert!(!st.quota_blocks(&entries[0]));
        assert!(st.start_static(JobId(1))); // charges 400 ns, width 2
        assert!(
            st.quota_blocks(&entries[1]),
            "width 2+1 > 2 and 400+200 > 500"
        );
        assert_eq!(st.stats.quota_skipped, 1);
        assert_eq!(st.tenant_usage()[0].quota_skipped, 1);
        // Untenanted entries never block and never touch counters.
        let anon = QueueEntry {
            job: JobId(2),
            req_nodes: 99,
            req_time: 1 << 40,
            tslot: crate::tenant::NO_TENANT_SLOT,
        };
        assert!(!st.quota_blocks(&anon));
        assert_eq!(st.stats.quota_skipped, 1);
    }

    #[test]
    fn fair_share_prefix_prefers_the_idle_tenant() {
        let mut reg = TenantRegistry::new();
        reg.add(Tenant::unlimited(1, 0));
        reg.add(Tenant::unlimited(2, 0));
        // Tenant 1 submits first (FIFO would favour it) but is the heavy
        // user once its first job starts; tenant 2's job must jump ahead.
        let mut st = tenant_state(
            vec![
                tjob(1, 0, 400, 2, 400, 1),
                tjob(2, 0, 100, 1, 100, 1),
                tjob(3, 0, 100, 1, 100, 2),
            ],
            reg,
        );
        st.cfg.queue_policy = QueuePolicy::FairShare { half_life: 0 };
        drain_submits(&mut st);
        assert!(st.start_static(JobId(1)));
        let mut prefix = Vec::new();
        st.fill_pass_prefix(10, &mut prefix);
        assert_eq!(
            prefix.iter().map(|e| e.job.0).collect::<Vec<_>>(),
            vec![3, 2],
            "idle tenant 2 outranks tenant 1's queued job"
        );
        // With zero usage everywhere the order is pure FIFO.
        let mut st2 = tenant_state(
            vec![tjob(1, 0, 100, 1, 100, 1), tjob(2, 0, 100, 1, 100, 2)],
            TenantRegistry::equal_weights(2, Quota::UNLIMITED),
        );
        st2.cfg.queue_policy = QueuePolicy::FairShare { half_life: 3600 };
        drain_submits(&mut st2);
        let mut p2 = Vec::new();
        st2.fill_pass_prefix(10, &mut p2);
        assert_eq!(
            p2.iter().map(|e| e.job.0).collect::<Vec<_>>(),
            vec![1, 2],
            "zero usage + equal weights degenerate to FIFO"
        );
    }

    #[test]
    fn cancelled_running_job_releases_tenant_width() {
        let reg = TenantRegistry::equal_weights(1, Quota::UNLIMITED);
        let mut st = tenant_state(vec![tjob(1, 0, 100, 2, 200, 1)], reg);
        drain_submits(&mut st);
        st.start_static(JobId(1));
        assert_eq!(st.tenant_usage()[0].running_width, 2);
        st.now = SimTime(10);
        assert!(st.cancel_job(JobId(1)));
        let u = &st.tenant_usage()[0];
        assert_eq!(u.running_width, 0, "cancel releases the width");
        assert_eq!(u.committed_node_seconds, 400, "charge stays");
        assert_eq!(u.completed, 0, "cancelled ≠ completed");
        assert!(st.deep_validate().is_ok());
    }
}
