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
use crate::reservation::Profile;
use crate::state::{DirtyFlags, SimState};
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

/// Outcome of the flexible hook for one job.
pub(crate) type FlexStarted = bool;

/// Runs one backfill pass. `flexible(st, job, est_static_start, profile)`
/// may start `job` by other means (malleable co-scheduling) and must return
/// whether it did.
///
/// `est_static_start` is `Some` when the pass needed the job's earliest
/// static start anyway (conservative reservations, the EASY head); it is
/// `None` for EASY non-head jobs, where the est is only needed *if* the
/// hook actually mounts a malleable trial — the hook resolves it lazily
/// from the profile (and must bail on `SimTime::MAX`: an impossible job is
/// never trialled). This laziness is what keeps deep EASY passes (full
/// Curie: `bf_max_job_test = 200`) from paying an O(profile) walk per
/// examined job; the common case is one O(1) [`Profile::can_start_now`]
/// probe.
///
/// On a `true` return the pass profile must account for the taken idle
/// nodes: the hook itself applies the in-place [`Profile::reserve`] delta
/// (shared mate nodes keep their release — the finish-inside constraint
/// caps the borrower's requested end at the mates'). Under
/// `cfg.self_check` the result is compared with a rebuild from the release
/// map plus a replay of this pass's reservations.
///
/// Returns the end-of-pass availability (current starts and the waiting
/// jobs' reservations applied) so callers can make further
/// reservation-respecting decisions — SD-Policy's borrower relocation uses
/// it to take only nodes no pending job is counting on. Callers should hand
/// the buffer back via [`SimState::recycle_pass_profile`] so the next pass
/// reuses its allocations.
pub fn backfill_pass<F>(st: &mut SimState, mut flexible: F) -> Profile
where
    F: FnMut(&mut SimState, JobId, Option<SimTime>, &mut Profile) -> FlexStarted,
{
    let mut profile = st.take_pass_profile();
    if st.queue.is_empty() {
        st.stats.peak_profile_len = st.stats.peak_profile_len.max(profile.len());
        return profile;
    }
    let depth = st.cfg.backfill_depth;
    let mode = st.cfg.backfill_mode;
    // Reservations made for still-waiting jobs this pass: what the
    // `self_check` oracle replays on top of a rebuilt profile. (Started
    // jobs are reflected in the release map, so they must NOT be replayed.)
    let self_check = st.cfg.self_check;
    let mut waiting_resv = Vec::new();
    let mut head_reserved = false;

    let mut prefix = st.take_prefix_scratch();
    // FIFO prefix, or the fair-share reorder under `QueuePolicy::FairShare`.
    st.fill_pass_prefix(depth, &mut prefix);
    // Dimensions come from the queue entries (cached at submit): the hot
    // loop reads this sequential buffer, no job-table dereference. The
    // buffer is owned (taken from the scratch), so `st` stays mutable.
    for &entry in &prefix {
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
        // The hook changes the profile only when it starts the job, and then
        // no reservation follows — so `slot` is still valid below.
        if flexible(st, id, slot.map(|s| s.start), &mut profile) {
            // The hook applied the in-place delta.
            if self_check {
                assert_delta_equals_rebuild(st, &profile, &waiting_resv);
            }
            continue;
        }
        match slot {
            Some(slot) => {
                profile.reserve_slot(slot, req_time, req_nodes);
                if self_check {
                    waiting_resv.push((slot.start, req_time, req_nodes));
                }
                head_reserved = true;
                st.trace.emit(
                    st.now.secs(),
                    TraceKind::EasyReserved { job: id.0, est: slot.start.secs() },
                );
            }
            None => st.trace.emit(
                st.now.secs(),
                TraceKind::BackfillRejected { job: id.0, reason: RejectReason::NoFitNow },
            ),
        }
    }
    if self_check {
        assert_delta_equals_rebuild(st, &profile, &waiting_resv);
    }
    st.stats.peak_profile_len = st.stats.peak_profile_len.max(profile.len());
    st.recycle_prefix_scratch(prefix);
    profile
}

/// The `self_check` oracle for the pass profile's in-place deltas — the
/// flexible hook's after each malleable start, and every slot-placed
/// reservation at the end of the pass: the pass profile must equal the
/// availability rebuilt from the release map with the waiting jobs'
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
    fn schedule(&mut self, st: &mut SimState) {
        let profile = backfill_pass(st, |_, _, _: Option<SimTime>, _| false);
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
            backfill_pass(&mut st, |_st, id, est, _p| {
                seen.push((id, est));
                false
            });
        }
        assert!(
            seen.contains(&(JobId(2), Some(SimTime(1000)))),
            "seen: {seen:?}"
        );
    }
}
