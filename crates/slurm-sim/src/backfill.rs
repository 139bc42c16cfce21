//! The backfill scheduling pass and the static baseline scheduler.
//!
//! [`backfill_pass`] is the shared skeleton: examine up to
//! `cfg.backfill_depth` pending jobs in priority order; start each if the
//! availability profile admits it *now*; otherwise hand it to the `flexible`
//! hook (a no-op for the static baseline, the malleable trial for
//! SD-Policy — paper Listing 1 runs the flexible attempt "right after the
//! static trial" of each job); finally record a reservation (conservative:
//! every job; EASY: queue head only).

use crate::config::BackfillMode;
use crate::queue::{PendingQueue, QueueEntry};
use crate::reservation::{Profile, Slot};
use crate::state::{DirtyFlags, SimState};
use crate::tenant::{QueuePolicy, NO_TENANT_SLOT};
use crate::timing::{self, Probe};
use cluster::JobId;
use sd_trace::{RejectReason, TraceKind};
use simkit::SimTime;

/// A scheduling policy: invoked by the controller after every batch of
/// simultaneous events that changed the system.
pub trait Scheduler {
    fn schedule(&mut self, st: &mut SimState);

    /// Whether a pass could act given what the event batch changed.
    /// Returning `false` must be *provably* equivalent to running the pass
    /// (same `SimResult`); the default never skips (any change ⇒ pass).
    fn pass_needed(&self, st: &SimState, dirty: DirtyFlags) -> bool {
        let _ = st;
        dirty.queue || dirty.capacity
    }

    /// Label used in experiment output.
    fn name(&self) -> &'static str {
        "scheduler"
    }
}

/// Boxed schedulers forward the trait, so policy choice can be a runtime
/// decision (the online service picks static vs SD from its CLI).
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn schedule(&mut self, st: &mut SimState) {
        (**self).schedule(st)
    }

    fn pass_needed(&self, st: &SimState, dirty: DirtyFlags) -> bool {
        (**self).pass_needed(st, dirty)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The static start a flexible hook weighs a malleable start against.
#[derive(Debug, Clone, Copy)]
pub enum StaticEst<'a> {
    /// The pass needed it anyway: a conservative reservation or the EASY
    /// head's.
    Known(SimTime),
    /// An EASY non-head job, which reserves nothing: the pass profile, for
    /// the hook to resolve the est from only if it mounts a trial (and to
    /// bail on `SimTime::MAX`: an impossible job is never trialled).
    Lazy(&'a Profile),
}

/// One job a recorded pass swept: the entry the replay compares today's
/// with, and the slot its sweep found (`start == SimTime::MAX`: never fits).
#[derive(Debug, Clone, Copy)]
struct PlanStep {
    entry: QueueEntry,
    slot: Slot,
}

/// The last run of non-head `NoFitNow` failures a static EASY pass saw after
/// its last start: the FIFO sequence numbers `[first, end)`, holding `count`
/// live entries and none tenanted, and what they failed against — the
/// availability's version, the queue's edit count and the head's
/// reservation. While all three hold, the next pass skips the run
/// (DESIGN.md §9).
#[derive(Debug, Clone, Copy)]
struct TailRun {
    first: usize,
    end: usize,
    count: usize,
    version: u64,
    edits: u64,
    head: (JobId, SimTime),
}

/// What a pass leaves the next one: the last conservative pass that
/// changed nothing but its own reservations, and a static EASY pass's
/// failing tail. Each sweep of the conservative pass was a pure function
/// of the availability and the reservations before it, so a later pass
/// whose availability has the same version, and whose queue reaches the
/// same jobs, finds the same slots without sweeping.
#[derive(Debug, Default)]
pub(crate) struct PassPlan {
    /// Whether the conservative fields below describe such a pass.
    valid: bool,
    /// The availability's version the pass ran at.
    version: u64,
    /// Every job it swept, in order; quota-blocked entries are not swept.
    steps: Vec<PlanStep>,
    /// The pass profile after the last sweep.
    end: Profile,
    /// The static EASY pass's failing tail, if it had one.
    tail: Option<TailRun>,
}

/// The order a pass examines pending jobs in: the FIFO queue itself, read
/// in place by sequence number, or fair share's sorted scratch, by index.
/// Either way an entry comes with its position, which [`Walk::unread`]
/// steps back over.
enum Walk {
    /// The next sequence number to look at, and how many entries the depth
    /// still allows.
    Fifo { next: usize, left: usize },
    Sorted { entries: Vec<QueueEntry>, next: usize },
}

impl Walk {
    fn new(st: &mut SimState, depth: usize) -> Walk {
        match st.cfg.queue_policy {
            QueuePolicy::Fifo => Walk::Fifo { next: 0, left: depth },
            QueuePolicy::FairShare { half_life } => {
                let mut entries = st.take_prefix_scratch();
                st.fill_fair_share_prefix(half_life, depth, &mut entries);
                Walk::Sorted { entries, next: 0 }
            }
        }
    }

    #[inline]
    fn next(&mut self, queue: &PendingQueue) -> Option<(usize, QueueEntry)> {
        match self {
            Walk::Fifo { next, left } => {
                if *left == 0 {
                    return None;
                }
                let (seq, entry) = queue.next_live(*next)?;
                *next = seq + 1;
                *left -= 1;
                Some((seq, entry))
            }
            Walk::Sorted { entries, next } => {
                let entry = *entries.get(*next)?;
                *next += 1;
                Some((*next - 1, entry))
            }
        }
    }

    /// Steps back over the entry at `pos`, the last one read.
    fn unread(&mut self, pos: usize) {
        match self {
            Walk::Fifo { next, left } => {
                *next = pos;
                *left += 1;
            }
            Walk::Sorted { next, .. } => *next = pos,
        }
    }

    /// Hands the sorted scratch back.
    fn finish(self, st: &mut SimState) {
        if let Walk::Sorted { entries, .. } = self {
            st.recycle_prefix_scratch(entries);
        }
    }
}

/// The `self_check` oracle's list: reservations made for still-waiting
/// jobs this pass, replayed on top of a rebuilt profile. (Started jobs are
/// reflected in the node releases, so they must NOT be replayed.)
type WaitingResv = Vec<(SimTime, u64, u32)>;

/// Runs one backfill pass. `flexible(st, job, est)` may start `job` by
/// other means (malleable co-scheduling); it returns `Some(idle)`, the idle
/// whole nodes that start took, or `None` when it started nothing.
///
/// `est` is [`StaticEst::Known`] when the pass needed the job's earliest
/// static start anyway (conservative reservations, the EASY head), and
/// [`StaticEst::Lazy`] for EASY non-head jobs, where the est is only needed
/// *if* the hook actually mounts a malleable trial. This laziness is what
/// keeps deep EASY passes (full Curie: `bf_max_job_test = 200`) from paying
/// an O(profile) walk per examined job; the common case is one O(1)
/// [`Profile::can_start_now`] probe.
///
/// The hook never writes the pass profile: on a start, the pass subtracts
/// the taken idle nodes until the job's requested end (shared mate nodes
/// keep their release — the finish-inside constraint caps the borrower's
/// requested end at the mates'). Under `cfg.self_check` the result is
/// compared with a rebuild from the node releases plus a replay of this
/// pass's reservations.
///
/// A FIFO queue is walked in place; fair share walks its sorted copy. A
/// conservative pass that starts nothing records its sweeps as a plan; the
/// next conservative pass replays them instead of sweeping while the
/// availability's version and the queue still match (DESIGN.md §9).
/// EASY passes neither record nor replay, and this pass never skips:
/// [`StaticBackfill`] runs the one that also skips its last pass's proven
/// failures.
///
/// Returns the end-of-pass availability (current starts and the waiting
/// jobs' reservations applied) so callers can make further
/// reservation-respecting decisions — SD-Policy's borrower relocation uses
/// it to take only nodes no pending job is counting on. Callers should hand
/// the buffer back via [`SimState::recycle_pass_profile`] so the next pass
/// reuses its allocations.
pub fn backfill_pass<F>(st: &mut SimState, flexible: F) -> Profile
where
    F: FnMut(&mut SimState, JobId, StaticEst<'_>) -> Option<u32>,
{
    pass::<F, false>(st, flexible)
}

/// [`backfill_pass`]; with `SKIP`, a static EASY pass over a FIFO queue
/// also records its failing tail and skips the last pass's, and `flexible`
/// must never start a job.
fn pass<F, const SKIP: bool>(st: &mut SimState, mut flexible: F) -> Profile
where
    F: FnMut(&mut SimState, JobId, StaticEst<'_>) -> Option<u32>,
{
    if st.queue.is_empty() {
        let profile = st.take_pass_profile();
        st.stats.peak_profile_len = st.stats.peak_profile_len.max(profile.len());
        return profile;
    }
    let depth = st.cfg.backfill_depth;
    let mode = st.cfg.backfill_mode;
    let self_check = st.cfg.self_check;
    let tail_skips = SKIP
        && mode == BackfillMode::Easy
        && matches!(st.cfg.queue_policy, QueuePolicy::Fifo);
    let mut head_reserved = false;

    let mut walk = Walk::new(st, depth);
    let starts = started(st);
    let mut plan = (mode == BackfillMode::Conservative || tail_skips).then(|| st.take_pass_plan());
    // `at_end`: the plan was replayed whole, so the profile is its `end`.
    let (mut profile, mut waiting_resv, at_end) = match plan.as_deref_mut() {
        Some(plan) if mode == BackfillMode::Conservative => {
            if plan.valid && plan.version == st.availability_version() {
                replay(st, &mut walk, plan, &mut flexible)
            } else {
                plan.steps.clear();
                (st.take_pass_profile(), WaitingResv::new(), false)
            }
        }
        _ => (st.take_pass_profile(), WaitingResv::new(), false),
    };
    let tail = match plan.as_deref_mut() {
        Some(plan) if tail_skips => plan.tail.take(),
        _ => None,
    };
    let mut steps = match plan.as_deref_mut() {
        Some(plan) if mode == BackfillMode::Conservative => Some(&mut plan.steps),
        _ => None,
    };
    // The skip's state: the last pass's tail, where it may apply (its
    // first sequence number; `usize::MAX` when it cannot), the head this
    // pass reserved, and the run of failures it is in.
    let mut skip_at = usize::MAX;
    let mut head = None;
    let mut run: Option<OpenRun> = None;
    let mut examined = 0;
    let now_at = (st.availability_version(), st.queue.edits());
    if let Some(t) = tail.filter(|t| (t.version, t.edits) == now_at) {
        skip_at = t.first;
    }
    // Dimensions come from the queue entries (cached at submit): the hot
    // loop reads them sequentially, no job-table dereference.
    while let Some((seq, entry)) = walk.next(&st.queue) {
        if SKIP {
            examined += 1;
            if seq == skip_at {
                let t = tail.expect("a tail sets skip_at");
                if skip_tail(st, &profile, &mut walk, &t, head) {
                    let skipped = (t.first, t.end, t.count);
                    run = Some(extend_run(run, skipped, examined, st.queue.edits()));
                    examined += t.count - 1;
                    continue;
                }
            }
        }
        let id = entry.job;
        let (req_nodes, req_time) = (entry.req_nodes, entry.req_time);
        // Quota enforcement happens before the trial: a start that would
        // exceed the tenant's budget is skipped for this pass — no static
        // attempt, no malleable fallback and *no reservation* (a blocked
        // job must not hold nodes it is not allowed to take).
        if st.quota_blocks(&entry) {
            continue;
        }
        let _trial = timing::scope(Probe::BackfillTrial);
        if profile.can_start_now(req_nodes, req_time, st.now) {
            if st.start_static(id) {
                profile.reserve(st.now, req_time, req_nodes);
            } else {
                // On failure: the profile admitted the job but the cluster
                // had no whole empty nodes (fragmentation across shared
                // nodes). Skip; the next pass sees a consistent picture.
                st.trace.emit(
                    st.now.secs(),
                    TraceKind::BackfillRejected {
                        job: id.0,
                        reason: RejectReason::Fragmentation,
                    },
                );
            }
            continue;
        }
        let reserve_wanted = match mode {
            BackfillMode::Conservative => true,
            BackfillMode::Easy => !head_reserved,
        };
        // EASY non-head: no reservation either way, so no est here; the
        // hook computes one itself only if it mounts a trial.
        let slot = if reserve_wanted {
            let slot = profile.earliest_slot(req_nodes, req_time, st.now);
            if let Some(steps) = steps.as_deref_mut() {
                steps.push(PlanStep { entry, slot });
            }
            if slot.start == SimTime::MAX {
                st.trace.emit(
                    st.now.secs(),
                    TraceKind::BackfillRejected { job: id.0, reason: RejectReason::NeverFits },
                );
                continue; // cannot ever run (larger than the machine)
            }
            debug_assert!(slot.start > st.now, "can_start_now said otherwise");
            Some(slot)
        } else {
            None
        };
        let est = match slot {
            Some(slot) => StaticEst::Known(slot.start),
            None => StaticEst::Lazy(&profile),
        };
        // A start means no reservation follows, so `slot` is still valid below.
        if let Some(idle) = flexible(st, id, est) {
            take_idle(st, id, idle, &mut profile, self_check.then_some(&waiting_resv));
            continue;
        }
        match slot {
            Some(slot) => {
                profile.reserve_slot(slot, req_time, req_nodes);
                if self_check {
                    waiting_resv.push((slot.start, req_time, req_nodes));
                }
                head_reserved = true;
                if SKIP {
                    head = Some((id, slot.start));
                }
                st.trace.emit(
                    st.now.secs(),
                    TraceKind::EasyReserved { job: id.0, est: slot.start.secs() },
                );
            }
            None => {
                st.trace.emit(
                    st.now.secs(),
                    TraceKind::BackfillRejected { job: id.0, reason: RejectReason::NoFitNow },
                );
                if tail_skips && entry.tslot == NO_TENANT_SLOT {
                    run = Some(extend_run(run, (seq, seq + 1, 1), examined, st.queue.edits()));
                }
            }
        }
    }
    if self_check {
        assert_delta_equals_rebuild(st, &profile, &waiting_resv);
    }
    st.stats.peak_profile_len = st.stats.peak_profile_len.max(profile.len());
    walk.finish(st);
    if let Some(mut plan) = plan {
        if mode == BackfillMode::Conservative {
            // Only a pass that started nothing records: a job started
            // mid-pass can end before the next pass and restore the
            // availability exactly, leaving later slots made on a profile
            // that no longer exists. Without starts the availability is
            // still the one the pass began from.
            plan.valid = started(st) == starts;
            if plan.valid {
                plan.version = st.availability_version();
                if !at_end {
                    plan.end.clone_from(&profile);
                }
            }
        } else {
            plan.tail = record_tail(st, run, head);
        }
        st.recycle_pass_plan(plan);
    }
    profile
}

/// A run of failures a pass is in: entries `[first, end)` of the queue,
/// `count` of them, the last its `last`-th examined entry, seen with the
/// queue's edit count at `edits`.
#[derive(Debug, Clone, Copy)]
struct OpenRun {
    first: usize,
    end: usize,
    count: usize,
    last: usize,
    edits: u64,
}

/// `run` extended by `count` failures in `[first, end)`, the first of them
/// the pass's `at`-th examined entry, seen at the queue's `edits`; a run
/// they do not directly follow is replaced.
fn extend_run(
    run: Option<OpenRun>,
    (first, end, count): (usize, usize, usize),
    at: usize,
    edits: u64,
) -> OpenRun {
    let last = at + count - 1;
    match run {
        Some(r) if r.last + 1 == at => OpenRun { end, count: r.count + count, last, edits, ..r },
        _ => OpenRun { first, end, count, last, edits },
    }
}

/// The tail a static EASY pass leaves: its last run of failures, unless a
/// start followed it (the queue's edits moved).
fn record_tail(
    st: &mut SimState,
    run: Option<OpenRun>,
    head: Option<(JobId, SimTime)>,
) -> Option<TailRun> {
    let r = run.filter(|r| r.edits == st.queue.edits())?;
    Some(TailRun {
        first: r.first,
        end: r.end,
        count: r.count,
        version: st.availability_version(),
        edits: r.edits,
        head: head?,
    })
}

/// Skips the last pass's failing tail `t`, whose first entry the walk just
/// read, if it is still proven failing: the availability's version and
/// the queue's edits are those it failed at, and the same head holds the
/// same reservation. The pass profile at the run is then the old one with
/// only its origin moved short of its next step, and no window of the
/// run's can fit where it did not (DESIGN.md §9). Each skipped entry is
/// still a `backfill_trial`, and with a trace ring it still emits its
/// `NoFitNow`; under `cfg.self_check` each is re-proven failing.
#[inline(never)]
fn skip_tail(
    st: &mut SimState,
    profile: &Profile,
    walk: &mut Walk,
    t: &TailRun,
    head: Option<(JobId, SimTime)>,
) -> bool {
    let Walk::Fifo { next, left } = walk else {
        return false;
    };
    if (st.availability_version(), st.queue.edits(), head) != (t.version, t.edits, Some(t.head))
        || *left + 1 < t.count
    {
        return false;
    }
    if st.trace.active() || st.cfg.self_check {
        let mut seq = t.first;
        for _ in 0..t.count {
            let (at, e) = st.queue.next_live(seq).expect("the run's entries are queued");
            assert!(at < t.end && e.tslot == NO_TENANT_SLOT, "skipped {e:?} outside the run");
            if st.cfg.self_check {
                assert!(
                    !profile.can_start_now(e.req_nodes, e.req_time, st.now),
                    "skipped {e:?} could start at {:?}",
                    st.now
                );
            }
            st.trace.emit(
                st.now.secs(),
                TraceKind::BackfillRejected { job: e.job.0, reason: RejectReason::NoFitNow },
            );
            seq = at + 1;
        }
    }
    timing::count_many(Probe::BackfillTrial, t.count as u64);
    timing::count_many(Probe::TailSkipped, t.count as u64);
    *next = t.end;
    *left -= t.count - 1;
    true
}

/// Jobs started so far, by either path.
fn started(st: &SimState) -> u64 {
    st.stats.started_static + st.stats.started_malleable
}

/// The in-place pass-profile delta of a malleable start: it changes
/// availability only through the `idle` whole nodes it took, until its
/// requested end. `oracle`: the pass's reservations under `self_check`.
fn take_idle(
    st: &SimState,
    id: JobId,
    idle: u32,
    profile: &mut Profile,
    oracle: Option<&WaitingResv>,
) {
    if idle > 0 {
        let req_end = st.job(id).running().expect("just started").req_end;
        profile.reserve(st.now, req_end.since(st.now), idle);
    }
    if let Some(waiting_resv) = oracle {
        assert_delta_equals_rebuild(st, profile, waiting_resv);
    }
}

/// Replays `plan` over today's walk; called only while the availability
/// has the plan's version, so it equals the plan's beyond the origin.
/// Step `k` then sees the recorded step-`k` profile with only `times[0]`
/// moved inside `[old now, times[1])`, where no recorded slot starts:
/// `can_start_now` stays false and `earliest_slot` finds the recorded slot.
/// So a replayed step sweeps nothing and splices nothing; the quota check,
/// the flexible hook and the trace events run as in a fresh pass.
///
/// The replay stops at the first entry a fresh pass would sweep that is
/// not the next recorded one (a new job, a cancel, a quota result), handing
/// it back to the walk before its quota check, or once the hook starts a
/// job. It builds the pass profile from the availability and the
/// reservations replayed so far — from `end` when that is every step — and
/// returns it with the oracle's list and whether it replayed the whole plan
/// and the whole queue (the plan's `end` then needs no new copy). Under
/// `cfg.self_check` a shadow profile swept the old way checks every
/// replayed slot and the built profile.
#[inline(never)]
fn replay<F>(
    st: &mut SimState,
    walk: &mut Walk,
    plan: &mut PassPlan,
    flexible: &mut F,
) -> (Profile, WaitingResv, bool)
where
    F: FnMut(&mut SimState, JobId, StaticEst<'_>) -> Option<u32>,
{
    let mut shadow = st.cfg.self_check.then(|| st.availability().clone());
    let mut k = 0;
    while let Some((pos, entry)) = walk.next(&st.queue) {
        let recorded = plan.steps.get(k).is_some_and(|s| s.entry == entry);
        // A recorded job that is blocked now, or one a fresh pass sweeps
        // that the plan does not hold next: today's loop takes over here.
        if recorded == st.quota_would_block(&entry) {
            walk.unread(pos);
            let (profile, resv) = materialise(st, plan, k, None, shadow);
            return (profile, resv, false);
        }
        if st.quota_blocks(&entry) {
            continue; // blocked now as when the plan was recorded
        }
        let _trial = timing::scope(Probe::BackfillTrial);
        timing::count(Probe::SweepReplayed);
        let slot = plan.steps[k].slot;
        let (req_nodes, req_time) = (entry.req_nodes, entry.req_time);
        if let Some(shadow) = &shadow {
            assert!(
                !shadow.can_start_now(req_nodes, req_time, st.now),
                "replayed {entry:?} could start at {:?}",
                st.now
            );
            let fresh = shadow.earliest_slot(req_nodes, req_time, st.now);
            assert_eq!(fresh, slot, "replayed slot of {entry:?} is stale at {:?}", st.now);
        }
        if slot.start == SimTime::MAX {
            st.trace.emit(
                st.now.secs(),
                TraceKind::BackfillRejected { job: entry.job.0, reason: RejectReason::NeverFits },
            );
            k += 1;
            continue;
        }
        if let Some(idle) = flexible(st, entry.job, StaticEst::Known(slot.start)) {
            let started = Some((entry.job, idle));
            let (mut profile, resv) = materialise(st, plan, k, started, shadow);
            take_idle(st, entry.job, idle, &mut profile, st.cfg.self_check.then_some(&resv));
            return (profile, resv, false);
        }
        if let Some(shadow) = &mut shadow {
            shadow.reserve_slot(slot, req_time, req_nodes);
        }
        k += 1;
        st.trace.emit(
            st.now.secs(),
            TraceKind::EasyReserved { job: entry.job.0, est: slot.start.secs() },
        );
    }
    let at_end = k == plan.steps.len();
    let (profile, resv) = materialise(st, plan, k, None, shadow);
    (profile, resv, at_end)
}

/// The pass profile after the plan's first `k` steps, which become the
/// whole plan: `end` when that is every step, else the availability plus
/// the first `k` reservations, spliced at their recorded slots; advanced
/// to `now` either way. The availability is the one the plan swept unless
/// the hook just `started` a job at step `k`, taking `idle` idle nodes
/// until its requested end: that window is given back first, which
/// restores the plan's availability exactly (both are canonical). Under
/// `self_check` the profile must equal the shadow swept the old way, and
/// the first `k` reservations are returned for the pass's oracle.
fn materialise(
    st: &mut SimState,
    plan: &mut PassPlan,
    k: usize,
    started: Option<(JobId, u32)>,
    shadow: Option<Profile>,
) -> (Profile, WaitingResv) {
    let mut profile = st.take_pass_buffer();
    let reserved = plan.steps[..k].iter().filter(|s| s.slot.start != SimTime::MAX);
    if k == plan.steps.len() {
        debug_assert!(started.is_none(), "a start ends the replay at a recorded step");
        profile.clone_from(&plan.end);
        profile.advance_to(st.now);
    } else {
        profile.clone_from(st.availability());
        if let Some((id, idle @ 1..)) = started {
            let req_end = st.job(id).running().expect("just started").req_end;
            profile.patch_release_many(st.now, Some(req_end), None, idle);
        }
        for s in reserved.clone() {
            profile.reserve_slot(s.slot, s.entry.req_time, s.entry.req_nodes);
        }
    }
    let mut resv = WaitingResv::new();
    if let Some(shadow) = shadow {
        assert_eq!(profile, shadow, "replayed pass profile diverged at {:?}", st.now);
        resv.extend(reserved.map(|s| (s.slot.start, s.entry.req_time, s.entry.req_nodes)));
    }
    plan.steps.truncate(k);
    (profile, resv)
}

/// The `self_check` oracle for the pass profile's in-place deltas — the
/// flexible hook's after each malleable start, and every slot-placed
/// reservation at the end of the pass: the pass profile must equal the
/// availability rebuilt from the node releases with the waiting jobs'
/// reservations replayed on top through the searching [`Profile::reserve`].
/// Reservations leave redundant step points, so both sides are compared
/// compacted.
fn assert_delta_equals_rebuild(
    st: &SimState,
    profile: &Profile,
    waiting_resv: &[(SimTime, u64, u32)],
) {
    let mut rebuilt = st.build_profile();
    for &(start, duration, nodes) in waiting_resv {
        rebuilt.reserve(start, duration, nodes);
    }
    rebuilt.compact();
    let mut patched = profile.clone();
    patched.compact();
    assert_eq!(
        patched, rebuilt,
        "pass profile diverged from rebuild + replay at {:?}",
        st.now
    );
}

/// The paper's baseline: plain (static) backfill, no malleability.
#[derive(Debug, Default, Clone, Copy)]
pub struct StaticBackfill;

impl Scheduler for StaticBackfill {
    /// [`backfill_pass`] that also skips the last pass's proven failures:
    /// no job starts but by the static trial, so each is proven on the
    /// profile alone.
    fn schedule(&mut self, st: &mut SimState) {
        let profile = pass::<_, true>(st, |_, _, _| None);
        st.recycle_pass_profile(profile);
    }

    /// A pure-capacity change with an empty queue is a no-op pass: the
    /// static scheduler only ever starts pending jobs.
    fn pass_needed(&self, st: &SimState, dirty: DirtyFlags) -> bool {
        dirty.queue || (dirty.capacity && !st.queue.is_empty())
    }

    fn name(&self) -> &'static str {
        "static-backfill"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlurmConfig;
    use crate::rate::WorstCaseModel;
    use cluster::ClusterSpec;
    use drom::SharingFactor;

    fn state(jobs: Vec<swf::SwfJob>, mode: BackfillMode) -> SimState {
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 4;
        SimState::new(
            spec,
            SlurmConfig {
                backfill_mode: mode,
                self_check: true,
                ..SlurmConfig::default()
            },
            &swf::Trace::new(Default::default(), jobs),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
        )
    }

    fn job(id: u64, submit: u64, run: u64, nodes: u64, req: u64) -> swf::SwfJob {
        swf::SwfJob::for_simulation(id, submit, run, nodes * 8, req)
    }

    fn run_all(st: &mut SimState, sched: &mut dyn Scheduler) {
        while let Some(t) = st.events.peek_time() {
            let mut changed = false;
            while st.events.peek_time() == Some(t) {
                let ev = st.events.pop().unwrap();
                st.now = t;
                changed |= st.dispatch(ev.payload);
            }
            if changed {
                sched.schedule(st);
            }
        }
    }

    #[test]
    fn fcfs_when_everything_fits() {
        let mut st = state(
            vec![job(1, 0, 100, 2, 100), job(2, 0, 100, 2, 100)],
            BackfillMode::Conservative,
        );
        run_all(&mut st, &mut StaticBackfill);
        assert_eq!(st.outcomes().len(), 2);
        for o in st.outcomes() {
            assert_eq!(o.wait(), 0, "{:?}", o.id);
        }
    }

    #[test]
    fn small_job_backfills_into_hole() {
        // J1 takes the whole machine until 1000. J2 (3 nodes, long) must
        // wait. J3 (1 node, short) fits in nothing… all nodes busy.
        // Variant: J1 takes 3 nodes; J2 wants 4 (waits until 1000);
        // J3 wants 1 node for 100 s — backfills immediately because it ends
        // before J2's reservation could start anyway.
        let mut st = state(
            vec![
                job(1, 0, 1000, 3, 1000),
                job(2, 10, 500, 4, 500),
                job(3, 20, 100, 1, 100),
            ],
            BackfillMode::Conservative,
        );
        run_all(&mut st, &mut StaticBackfill);
        let o3 = st.outcomes().iter().find(|o| o.id == JobId(3)).unwrap();
        assert_eq!(o3.wait(), 0, "J3 backfilled");
        let o2 = st.outcomes().iter().find(|o| o.id == JobId(2)).unwrap();
        assert_eq!(o2.start, SimTime(1000), "J2 waits for the machine");
    }

    #[test]
    fn conservative_backfill_does_not_delay_reservations() {
        // J1: whole machine till 1000. J2: 2 nodes, starts at 1000
        // (reservation). J3: 1 node × 2000 s would push past J2's window on
        // 3 free nodes?? After J1 ends, 4 nodes free, J2 takes 2 → 2 left,
        // J3 fits too. So pick J3 = 3 nodes × 2000 s: at t=1000 J2(2) + J3(3)
        // > 4 nodes → J3 must start after J2 finishes (t=1500).
        let mut st = state(
            vec![
                job(1, 0, 1000, 4, 1000),
                job(2, 10, 500, 2, 500),
                job(3, 20, 2000, 3, 2000),
            ],
            BackfillMode::Conservative,
        );
        run_all(&mut st, &mut StaticBackfill);
        let o2 = st.outcomes().iter().find(|o| o.id == JobId(2)).unwrap();
        let o3 = st.outcomes().iter().find(|o| o.id == JobId(3)).unwrap();
        assert_eq!(o2.start, SimTime(1000));
        assert_eq!(o3.start, SimTime(1500), "J3 respects J2's reservation");
    }

    #[test]
    fn easy_lets_later_jobs_jump_non_head() {
        // Same scenario: EASY only protects the head (J2). J3 still cannot
        // start before J2 here (no free nodes until 1000), but a tiny J4
        // that fits before the shadow time can.
        let mut st = state(
            vec![
                job(1, 0, 1000, 3, 1000),
                job(2, 10, 500, 4, 500),
                job(3, 20, 100, 1, 100),
            ],
            BackfillMode::Easy,
        );
        run_all(&mut st, &mut StaticBackfill);
        let o3 = st.outcomes().iter().find(|o| o.id == JobId(3)).unwrap();
        assert_eq!(o3.wait(), 0, "EASY backfills J3 into the free node");
    }

    #[test]
    fn depth_limit_bounds_examination() {
        let mut jobs: Vec<swf::SwfJob> = vec![job(1, 0, 1000, 4, 1000)];
        for i in 2..=10 {
            jobs.push(job(i, 1, 10, 1, 10));
        }
        let mut st = state(jobs, BackfillMode::Conservative);
        st.cfg.backfill_depth = 3;
        run_all(&mut st, &mut StaticBackfill);
        // All jobs still complete eventually (depth only bounds per-pass work).
        assert_eq!(st.outcomes().len(), 10);
    }

    #[test]
    fn quota_blocked_job_is_skipped_and_takes_no_reservation() {
        use crate::tenant::{Quota, TenantRegistry};
        // Tenant 1 may only ever run one node-width at a time. J1 (2 nodes)
        // exceeds it outright and must neither start nor reserve — J2
        // (tenant 2, 2 nodes) starts immediately instead of queueing behind
        // a reservation the blocked job would have held.
        let mut jobs = vec![job(1, 0, 100, 2, 100), job(2, 0, 100, 2, 100)];
        jobs[0].user = 1;
        jobs[1].user = 2;
        let mut tenants = TenantRegistry::equal_weights(
            2,
            Quota {
                node_seconds: None,
                max_running_width: Some(1),
            },
        );
        tenants.add(crate::tenant::Tenant::unlimited(2, 0)); // lift tenant 2's cap
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 4;
        let mut st = SimState::new(
            spec,
            SlurmConfig {
                backfill_mode: BackfillMode::Conservative,
                self_check: true,
                tenants,
                ..SlurmConfig::default()
            },
            &swf::Trace::new(Default::default(), jobs),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
        );
        run_all(&mut st, &mut StaticBackfill);
        assert_eq!(st.outcomes().len(), 1, "blocked job never runs");
        assert_eq!(st.outcomes()[0].id, JobId(2));
        assert_eq!(st.outcomes()[0].wait(), 0, "no phantom reservation");
        assert!(st.stats.quota_skipped > 0);
        assert_eq!(st.queue.len(), 1, "blocked job stays pending");
    }

    /// Dispatches every event up to `t` without running a pass.
    fn dispatch_until(st: &mut SimState, t: u64) {
        while let Some(at) = st.events.peek_time().filter(|&at| at <= SimTime(t)) {
            let ev = st.events.pop().unwrap();
            st.now = at;
            st.dispatch(ev.payload);
        }
    }

    /// The calling thread's count for the probe named `name`.
    fn calls(name: &str) -> u64 {
        timing::report().into_iter().find(|r| r.name == name).unwrap().count
    }

    fn start_of(st: &SimState, id: u64) -> SimTime {
        st.outcomes().iter().find(|o| o.id == JobId(id)).unwrap().start
    }

    #[test]
    fn a_pass_that_starts_a_job_leaves_no_plan() {
        // L holds 2 of 4 nodes until 1000. At 10 the short X starts on one
        // of the other two, and A and B (3 nodes each) reserve 1000 and
        // 1100 on a profile with X's step at 60 in it. X ends at 60, which
        // restores the availability the pass at 10 began from exactly; a
        // plan recorded at 10 would now replay slots spliced for a profile
        // that no longer exists (the shadow oracle, or `reserve_slot`'s
        // stale-slot check, panics on them). The submit-only pass at 70
        // must sweep afresh, and record: the next one replays A, B and C.
        let mut st = state(
            vec![
                job(1, 0, 1000, 2, 1000),  // L
                job(2, 10, 50, 1, 50),     // X
                job(3, 10, 100, 3, 100),   // A
                job(4, 10, 100, 3, 100),   // B
                job(5, 70, 100, 4, 100),   // C
                job(6, 80, 100, 4, 100),   // D
            ],
            BackfillMode::Conservative,
        );
        timing::reset();
        timing::enable();
        for t in [0, 10, 70] {
            dispatch_until(&mut st, t);
            StaticBackfill.schedule(&mut st);
        }
        assert_eq!(calls("sweep_replayed"), 0, "the pass at 10 started X");
        dispatch_until(&mut st, 80);
        StaticBackfill.schedule(&mut st);
        assert_eq!(calls("sweep_replayed"), 3, "A, B and C replayed at 80");
        timing::disable();
        run_all(&mut st, &mut StaticBackfill);
        let starts: Vec<u64> = (1..=6).map(|id| start_of(&st, id).secs()).collect();
        assert_eq!(starts, [0, 10, 1000, 1100, 1200, 1300]);
    }

    #[test]
    fn a_submit_only_pass_after_an_idle_pass_sweeps_only_the_new_job() {
        // L holds the machine until 1000; A and B reserve behind it at 10.
        // C's submit at 20 changes nothing the pass at 10 swept, so the pass
        // at 20 replays A and B and sweeps C alone. `self_check` is off: its
        // shadow oracle sweeps every replayed job again.
        let mut st = state(
            vec![
                job(1, 0, 1000, 4, 1000),
                job(2, 10, 100, 2, 100),
                job(3, 10, 100, 2, 100),
                job(4, 20, 100, 4, 100),
            ],
            BackfillMode::Conservative,
        );
        st.cfg.self_check = false;
        timing::reset();
        timing::enable();
        for t in [0, 10] {
            dispatch_until(&mut st, t);
            StaticBackfill.schedule(&mut st);
        }
        let sweeps = calls("earliest_start");
        assert_eq!((sweeps, calls("sweep_replayed")), (2, 0));
        dispatch_until(&mut st, 20);
        StaticBackfill.schedule(&mut st);
        assert_eq!(calls("earliest_start"), sweeps + 1, "only C swept");
        assert_eq!(calls("sweep_replayed"), 2);
        assert_eq!(calls("backfill_trial"), 1 + 2 + 3, "every examined job is a trial");
        timing::disable();
        run_all(&mut st, &mut StaticBackfill);
        let starts: Vec<u64> = (1..=4).map(|id| start_of(&st, id).secs()).collect();
        assert_eq!(starts, [0, 1000, 1000, 1100]);
    }

    #[test]
    fn flexible_hook_sees_waiting_jobs() {
        let mut st = state(
            vec![job(1, 0, 1000, 4, 1000), job(2, 10, 100, 2, 100)],
            BackfillMode::Conservative,
        );
        let mut seen = Vec::new();
        while let Some(t) = st.events.peek_time() {
            while st.events.peek_time() == Some(t) {
                let ev = st.events.pop().unwrap();
                st.now = t;
                st.dispatch(ev.payload);
            }
            backfill_pass(&mut st, |_st, id, est| {
                let est = match est {
                    StaticEst::Known(t) => Some(t),
                    StaticEst::Lazy(_) => None,
                };
                seen.push((id, est));
                None
            });
        }
        assert!(
            seen.contains(&(JobId(2), Some(SimTime(1000)))),
            "seen: {seen:?}"
        );
    }
}
