//! The SD-Policy scheduler — the paper's Listing 1.
//!
//! ```text
//! schedule(new_job)
//!   if !(nodes = select_nodes(j, free_nodes, null))     ← static trial
//!       if !malleable(j) return
//!   else run_job(j, nodes)
//!   static_end = get_wait_time(j) + j.req_time          ← profile estimate
//!   mall_end   = j.req_time + runtime_increase(j)       ← worst-case model
//!   if static_end > mall_end
//!       s_mates = select_nodes(j, free_nodes, nodes)    ← Listing 2
//!       if s_mates
//!           update_stats(j, s_mates)
//!           run_job(j, get_nodelist(s_mates))
//! ```
//!
//! The static trial and the backfill bookkeeping are the shared
//! [`slurm_sim::backfill_pass`]; this module contributes the *flexible hook*
//! that runs "for each job right after the static trial" (§3.1).

use crate::config::SdPolicyConfig;
use crate::mates::select_mates;
use crate::penalty::malleable_wall_time;
use cluster::JobId;
use simkit::SimTime;
use slurm_sim::{backfill_pass, timing::{self, Probe}, DirtyFlags, Profile, Scheduler, SimState};

/// Maximum flexible (malleable) trials per scheduling pass; bounds scheduler
/// latency on deep queues, like SLURM's `bf_max_job_start`.
pub const MAX_TRIALS_PER_PASS: usize = 32;

/// What a trial's verdict depends on besides the state no trial changes:
/// `(req_nodes, req_time, ranks_per_node)`.
type Shape = (u32, u64, u32);

/// The memo's epoch: jobs started so far. Everything a verdict reads besides
/// the job's [`Shape`] moves only when this does, or between passes.
fn starts(st: &SimState) -> u64 {
    st.stats.started_static + st.stats.started_malleable
}

/// Trials answered from the per-pass memo instead of recomputed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoHits {
    /// Lazily resolved `earliest_start` answers (EASY non-head jobs only).
    pub est: u64,
    /// `select_mates` verdicts of "no mates".
    pub mates: u64,
}

/// The Slowdown Driven policy.
#[derive(Debug, Clone)]
pub struct SdPolicy {
    pub cfg: SdPolicyConfig,
    /// MAX_SLOWDOWN cut-off resolved once per scheduling pass ("updated
    /// every time the controller is not busy", §3.2.2).
    pass_cutoff: Option<f64>,
    trials_this_pass: usize,
    /// [`starts`] when the memo below was last cleared. Between two starts
    /// of one pass a trial's verdict is a pure function of the job's
    /// [`Shape`] (DESIGN.md §2), so each question is asked once.
    memo_epoch: u64,
    /// Lazily resolved static starts, `SimTime::MAX` ("never fits") included.
    est_memo: Vec<(Shape, SimTime)>,
    /// Shapes for which `select_mates` found nothing.
    no_mates_memo: Vec<Shape>,
    memo_hits: MemoHits,
}

impl SdPolicy {
    pub fn new(cfg: SdPolicyConfig) -> Self {
        SdPolicy {
            cfg,
            pass_cutoff: None,
            trials_this_pass: 0,
            memo_epoch: 0,
            est_memo: Vec::new(),
            no_mates_memo: Vec::new(),
            memo_hits: MemoHits::default(),
        }
    }

    /// Memo hits since construction (a test and diagnostics read-out; not
    /// part of any result).
    pub fn memo_hits(&self) -> MemoHits {
        self.memo_hits
    }

    /// Cut-off for this pass, computing the DynAVGSD feedback lazily.
    fn cutoff(&mut self, st: &SimState) -> f64 {
        if let Some(c) = self.pass_cutoff {
            return c;
        }
        let _probe = timing::scope(Probe::Cutoff);
        let c = self.cfg.max_slowdown.cutoff(st);
        self.pass_cutoff = Some(c);
        c
    }

    fn clear_memo(&mut self, epoch: u64) {
        self.memo_epoch = epoch;
        self.est_memo.clear();
        self.no_mates_memo.clear();
    }

    /// The malleable trial for one job that failed the static trial.
    /// Returns `true` when the job was started through co-scheduling.
    ///
    /// `est_static_start` is `None` when the pass did not need the job's
    /// est for its own bookkeeping (EASY non-head); it is resolved here,
    /// *only* for jobs that actually reach a trial — the cheap disqualifiers
    /// (trial budget, non-malleable) come first. An infeasible est
    /// (`SimTime::MAX`) bails before the trial budget is charged: an
    /// impossible job is never trialled.
    ///
    /// Both expensive answers — the lazy est and a `select_mates` that finds
    /// nothing — are memoised per [`Shape`] until the next start; a hit is
    /// charged to the budget exactly as the recomputation would be, and
    /// under `self_check` it is recomputed and compared.
    fn try_malleable(
        &mut self,
        st: &mut SimState,
        id: JobId,
        est_static_start: Option<SimTime>,
        profile: &mut Profile,
    ) -> bool {
        if self.trials_this_pass >= MAX_TRIALS_PER_PASS {
            return false;
        }
        let (malleable, req_time, req_nodes, ranks) = {
            let s = &st.job(id).spec;
            (s.malleable, s.req_time, s.req_nodes, s.ranks_per_node)
        };
        if !malleable {
            return false;
        }
        if starts(st) != self.memo_epoch {
            self.clear_memo(starts(st));
        }
        let shape = (req_nodes, req_time, ranks);
        let est_static_start = match est_static_start {
            Some(e) => e,
            None => {
                let e = match self.est_memo.iter().find(|(s, _)| *s == shape) {
                    Some(&(_, e)) => {
                        self.memo_hits.est += 1;
                        timing::count(Probe::TrialMemoHit);
                        if st.cfg.self_check {
                            assert_eq!(
                                profile.earliest_start(req_nodes, req_time, st.now),
                                e,
                                "memoised est of {shape:?} went stale inside a pass at {:?}",
                                st.now
                            );
                        }
                        e
                    }
                    None => {
                        let e = profile.earliest_start(req_nodes, req_time, st.now);
                        self.est_memo.push((shape, e));
                        e
                    }
                };
                if e == SimTime::MAX {
                    return false;
                }
                debug_assert!(e > st.now, "the static trial already failed");
                e
            }
        };
        self.trials_this_pass += 1;

        // Planned (worst-case, §3.4) rate if co-scheduled: the freed share
        // of each node. All trace jobs share the configured ranks-per-node,
        // so the plan rate is uniform across mates.
        let full = st.spec().node.cores();
        let freed = st.sharing().freed_cores(full, ranks);
        if freed == 0 {
            return false;
        }
        let plan_rate = freed as f64 / full as f64;
        let mall_wall = malleable_wall_time(req_time, plan_rate);

        // Listing 1's condition: only co-schedule when the estimated end
        // improves over waiting for a static allocation.
        let static_end = est_static_start.after(req_time);
        let mall_end = st.now.after(mall_wall);
        if static_end <= mall_end {
            return false;
        }

        // The DynAVGSD cut-off latches here, at the pass's first trial to
        // pass Listing 1's test — before Eq. 3 can prune the trial. Static
        // starts later in the pass change the running set the average is
        // taken over, so latching any later changes the schedule.
        let cutoff = self.cutoff(st);
        if self.no_mates_memo.contains(&shape) {
            self.memo_hits.mates += 1;
            timing::count(Probe::TrialMemoHit);
            if st.cfg.self_check {
                assert_eq!(
                    select_mates(st, req_nodes, mall_wall, cutoff, &self.cfg),
                    None,
                    "memoised \"no mates\" of {shape:?} went stale inside a pass at {:?}",
                    st.now
                );
            }
            return false;
        }
        let Some(selection) = select_mates(st, req_nodes, mall_wall, cutoff, &self.cfg) else {
            self.no_mates_memo.push(shape);
            return false;
        };
        if st
            .co_schedule(id, &selection.mates, selection.free_nodes)
            .is_err()
        {
            return false;
        }
        // In-place pass-profile delta: a malleable start changes
        // availability only through the idle nodes it took — the shared
        // mate nodes keep their predicted release because the finish-inside
        // constraint caps the borrower's requested end at the mates'.
        if selection.free_nodes > 0 {
            let req_end = st.job(id).running().expect("just started").req_end;
            profile.reserve(st.now, req_end.since(st.now), selection.free_nodes);
        }
        true
    }
}

impl Default for SdPolicy {
    fn default() -> Self {
        SdPolicy::new(SdPolicyConfig::default())
    }
}

impl Scheduler for SdPolicy {
    fn schedule(&mut self, st: &mut SimState) {
        self.pass_cutoff = None; // refresh DynAVGSD feedback per pass
        self.trials_this_pass = 0;
        self.clear_memo(starts(st));
        let mut profile = backfill_pass(st, |st, id, est, profile| {
            self.try_malleable(st, id, est, profile)
        });
        // Expand side, the resource manager's other half: idle whole nodes
        // that no pending job is counting on (per the end-of-pass profile,
        // reservations included) host shrunk borrowers at full width
        // (DMR-style node reconfiguration), returning their mates to full
        // rate; otherwise co-scheduled pairs would stay shrunk while the
        // machine idles. Relocation is itself a backfill decision: the
        // borrower's remaining *requested* wall time must fit before any
        // reservation.
        if st.cluster.empty_node_count() > 0 {
            for id in st.shrunk_borrowers() {
                let (width, remaining) = {
                    let job = st.job(id);
                    let run = job.running().expect("shrunk borrower runs");
                    // Remaining *requested* work at full width: req_time
                    // minus progress (DMR reports iteration progress, so the
                    // scheduler may use it — same liberty as DynAVGSD).
                    let left = (job.spec.req_time as f64 - run.work_done).ceil();
                    (run.nodes.len() as u32, (left.max(1.0)) as u64)
                };
                if st.cluster.empty_node_count() < width
                    || !profile.can_start_now(width, remaining, st.now)
                {
                    continue;
                }
                if st.relocate_borrower(id) {
                    profile.reserve(st.now, remaining, width);
                }
            }
        }
        st.recycle_pass_profile(profile);
    }

    /// A pure-capacity change can only matter if there is a queue to serve
    /// or a shrunk borrower that idle nodes could now host; otherwise the
    /// pass is a provable no-op and the controller may skip it.
    fn pass_needed(&self, st: &SimState, dirty: DirtyFlags) -> bool {
        dirty.queue
            || (dirty.capacity
                && (!st.queue.is_empty()
                    || (st.has_shrunk_borrowers() && st.cluster.empty_node_count() > 0)))
    }

    fn name(&self) -> &'static str {
        "sd-policy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxsd::MaxSlowdown;
    use cluster::ClusterSpec;
    use drom::SharingFactor;
    use slurm_sim::{
        run_trace, BackfillMode, Controller, SlurmConfig, StaticBackfill, WorstCaseModel,
    };
    use swf::{SwfJob, Trace};

    fn spec(nodes: u32) -> ClusterSpec {
        let mut s = ClusterSpec::ricc(); // 8-core nodes
        s.nodes = nodes;
        s
    }

    fn job(id: u64, submit: u64, run: u64, nodes: u64, req: u64) -> SwfJob {
        SwfJob::for_simulation(id, submit, run, nodes * 8, req)
    }

    fn run_policy(jobs: Vec<SwfJob>, nodes: u32, cfg: SdPolicyConfig) -> slurm_sim::SimResult {
        run_trace(
            spec(nodes),
            SlurmConfig {
                self_check: true,
                ..SlurmConfig::default()
            },
            &Trace::new(Default::default(), jobs),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
            SdPolicy::new(cfg),
        )
    }

    #[test]
    fn co_schedules_when_slowdown_improves() {
        // J1 fills the machine for 10 000 s. J2 (short) would wait 10 000 s
        // statically; malleably it runs at half rate → 200 s. Clear win.
        let res = run_policy(
            vec![job(1, 0, 10_000, 2, 10_000), job(2, 10, 100, 2, 100)],
            2,
            SdPolicyConfig {
                max_slowdown: MaxSlowdown::Infinite,
                ..SdPolicyConfig::default()
            },
        );
        assert_eq!(res.stats.started_malleable, 1);
        let o2 = res.outcomes.iter().find(|o| o.id.0 == 2).unwrap();
        assert_eq!(o2.wait(), 0, "J2 started immediately via malleability");
        assert_eq!(o2.runtime(), 200, "stretched by the worst-case model");
        assert!(o2.malleable_backfilled);
        // The mate was stretched but not past its requested limit horizon.
        let o1 = res.outcomes.iter().find(|o| o.id.0 == 1).unwrap();
        assert!(o1.was_mate);
        assert_eq!(o1.runtime(), 10_100, "mate lost 100 s (half rate for 200 s)");
    }

    #[test]
    fn no_co_schedule_when_static_is_sooner() {
        // J1 ends at 100; J2 would wait only 90 s statically but lose 100 s
        // by running at half rate → static wins, no malleability.
        let res = run_policy(
            vec![job(1, 0, 100, 2, 100), job(2, 10, 100, 2, 100)],
            2,
            SdPolicyConfig {
                max_slowdown: MaxSlowdown::Infinite,
                ..SdPolicyConfig::default()
            },
        );
        assert_eq!(res.stats.started_malleable, 0);
        let o2 = res.outcomes.iter().find(|o| o.id.0 == 2).unwrap();
        assert_eq!(o2.start.secs(), 100);
        assert_eq!(o2.runtime(), 100);
    }

    #[test]
    fn cutoff_filters_all_mates() {
        // With a cut-off of 1.0 every mate's penalty (≥ 1 + increase/req)
        // fails Eq. 2 → behaves like static backfill.
        let res = run_policy(
            vec![job(1, 0, 10_000, 2, 10_000), job(2, 10, 100, 2, 100)],
            2,
            SdPolicyConfig {
                max_slowdown: MaxSlowdown::Static(1.0),
                ..SdPolicyConfig::default()
            },
        );
        assert_eq!(res.stats.started_malleable, 0);
    }

    #[test]
    fn finish_inside_constraint_blocks_long_jobs() {
        // J2's malleable duration (2 × 6000 = 12 000) exceeds the mate's
        // remaining requested window (10 000) → not admitted.
        let res = run_policy(
            vec![job(1, 0, 10_000, 2, 10_000), job(2, 10, 6_000, 2, 6_000)],
            2,
            SdPolicyConfig {
                max_slowdown: MaxSlowdown::Infinite,
                ..SdPolicyConfig::default()
            },
        );
        assert_eq!(res.stats.started_malleable, 0);
        let o2 = res.outcomes.iter().find(|o| o.id.0 == 2).unwrap();
        assert_eq!(o2.start.secs(), 10_000);
    }

    #[test]
    fn weight_constraint_selects_two_mates() {
        // Two 1-node mates serve a 2-node arrival (Σw = W with m = 2).
        let res = run_policy(
            vec![
                job(1, 0, 10_000, 1, 10_000),
                job(2, 0, 10_000, 1, 10_000),
                job(3, 10, 100, 2, 100),
            ],
            2,
            SdPolicyConfig {
                max_slowdown: MaxSlowdown::Infinite,
                ..SdPolicyConfig::default()
            },
        );
        assert_eq!(res.stats.started_malleable, 1);
        assert_eq!(res.stats.unique_mates, 2);
        let o3 = res.outcomes.iter().find(|o| o.id.0 == 3).unwrap();
        assert_eq!(o3.wait(), 0);
        assert_eq!(o3.nodes, 2);
    }

    #[test]
    fn static_jobs_never_touched() {
        // Malleability disabled ⇒ SD-Policy degenerates to static backfill
        // (the paper's mixed-workload support, worst case).
        let jobs: Vec<SwfJob> = (1..=30)
            .map(|i| job(i, i * 11, 200 + i * 13, 1 + i % 3, 500 + i * 13))
            .collect();
        let static_res = run_trace(
            spec(4),
            SlurmConfig {
                malleable_fraction: 0.0,
                ..SlurmConfig::default()
            },
            &Trace::new(Default::default(), jobs.clone()),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
            StaticBackfill,
        );
        let sd_res = run_trace(
            spec(4),
            SlurmConfig {
                malleable_fraction: 0.0,
                ..SlurmConfig::default()
            },
            &Trace::new(Default::default(), jobs),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
            SdPolicy::default(),
        );
        assert_eq!(static_res.outcomes, sd_res.outcomes);
        assert_eq!(sd_res.stats.started_malleable, 0);
    }

    #[test]
    fn improves_slowdown_on_congested_workload() {
        // A congested stream of short jobs behind long fillers: SD-Policy
        // must beat static backfill on average slowdown (the paper's
        // headline claim).
        // Weight constraint (Eq. 3) needs mates whose node counts sum to
        // exactly W, so 1-node arrivals need 1-node mates.
        let mut jobs = Vec::new();
        let mut id = 1;
        for f in 0..4u64 {
            jobs.push(job(id, f, 20_000, 1, 22_000));
            id += 1;
        }
        for wave in 0..6u64 {
            let t0 = 100 + wave * 3_000;
            for k in 0..6u64 {
                jobs.push(job(id, t0 + k * 37, 300, 1, 400));
                id += 1;
            }
        }
        let static_res = run_trace(
            spec(4),
            SlurmConfig::default(),
            &Trace::new(Default::default(), jobs.clone()),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
            StaticBackfill,
        );
        let sd_res = run_policy(
            jobs,
            4,
            SdPolicyConfig {
                max_slowdown: MaxSlowdown::Static(50.0),
                ..SdPolicyConfig::default()
            },
        );
        assert!(sd_res.stats.started_malleable > 0);
        assert!(
            sd_res.mean_slowdown() < static_res.mean_slowdown(),
            "SD {} vs static {}",
            sd_res.mean_slowdown(),
            static_res.mean_slowdown()
        );
        assert_eq!(sd_res.leftover_pending, 0);
        assert_eq!(sd_res.leftover_running, 0);
    }

    #[test]
    fn dynavg_cutoff_runs_end_to_end() {
        let jobs: Vec<SwfJob> = (1..=40)
            .map(|i| job(i, i * 29, 150 + (i * 37) % 800, 1 + i % 4, 1_000))
            .collect();
        let res = run_policy(jobs, 4, SdPolicyConfig::default());
        assert_eq!(res.outcomes.len(), 40);
        assert_eq!(res.leftover_pending, 0);
    }

    #[test]
    fn include_free_nodes_enables_partial_idle_starts() {
        // 3-node machine: J1 holds 2 nodes for long; 1 node idle. J2 wants
        // 2 nodes → static fails, but mate(1 node worth? J1 weight 2)…
        // With free nodes: J1 not needed for full weight — selection uses
        // mate weight 2 only; so craft: J1 weight 1, J2 wants 2, 1 idle.
        let res = run_trace(
            spec(3),
            SlurmConfig {
                self_check: true,
                ..SlurmConfig::default()
            },
            &Trace::new(
                Default::default(),
                vec![
                    job(1, 0, 10_000, 1, 10_000), // runs on node A
                    job(2, 0, 10_000, 2, 10_000), // runs on nodes B, C
                    job(3, 10, 100, 2, 100),      // wants 2 nodes
                ],
            ),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
            SdPolicy::new(SdPolicyConfig {
                max_slowdown: MaxSlowdown::Infinite,
                include_free_nodes: true,
                ..SdPolicyConfig::default()
            }),
        );
        // All three nodes busy → no free nodes; fall back to mate-only.
        // (This test exercises the path; the free-node case is covered in
        // mates::tests and the integration suite.)
        assert_eq!(res.outcomes.len(), 3);
        assert_eq!(res.leftover_pending, 0);
    }

    /// The jobs' first 10 s — J1's start, then the one pass over everything
    /// submitted at t = 10 — under SD-Policy without a cut-off, `self_check`
    /// on, handed back with the scheduler still attached.
    fn controller_at_10(
        jobs: Vec<SwfJob>,
        nodes: u32,
        backfill_mode: BackfillMode,
    ) -> Controller<SdPolicy> {
        let state = SimState::new(
            spec(nodes),
            SlurmConfig {
                self_check: true,
                backfill_mode,
                ..SlurmConfig::default()
            },
            &Trace::new(Default::default(), jobs),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
        );
        let policy = SdPolicy::new(SdPolicyConfig {
            max_slowdown: MaxSlowdown::Infinite,
            ..SdPolicyConfig::default()
        });
        let mut ctl = Controller::new(state, policy);
        ctl.step_until(Some(SimTime(10)));
        ctl
    }

    #[test]
    fn memo_does_not_survive_a_start() {
        // 3 nodes, J1 holds one. One pass at t = 10 sees A, B, C in order:
        // A (3 nodes) finds no mates — the pool's weights {1} cannot make 3;
        // B (2 nodes) starts on the idle pair and joins the pool, {1, 2};
        // C has A's shape and must now be co-scheduled with J1 + B.
        let ctl = controller_at_10(
            vec![
                job(1, 0, 10_000, 1, 10_000),
                job(2, 10, 100, 3, 100),     // A
                job(3, 10, 9_000, 2, 9_000), // B: over before A's reservation
                job(4, 10, 100, 3, 100),     // C
            ],
            3,
            BackfillMode::Conservative,
        );
        assert_eq!(ctl.state.stats.started_static, 2, "J1 and B");
        assert_eq!(ctl.state.stats.started_malleable, 1);
        let c = ctl.state.job(JobId(4)).running();
        let c = c.expect("C runs in the pass that started B");
        assert!(c.malleable_backfilled);
        assert_eq!(c.mates, vec![JobId(1), JobId(3)]);
        assert_eq!(ctl.scheduler.memo_hits(), MemoHits::default());
    }

    #[test]
    fn memo_hit_is_charged_to_the_trial_budget() {
        // The twin: B is 3 wide and cannot start, so nothing moves between
        // A and the 32 further jobs of A's shape. A and B are computed and
        // charged; of the 32, thirty are answered from the memo and charged
        // up to the budget (32), and the last two are never trialled.
        let mut jobs = vec![
            job(1, 0, 10_000, 1, 10_000),
            job(2, 10, 100, 3, 100),     // A
            job(3, 10, 9_000, 3, 9_000), // B
        ];
        jobs.extend((4..36).map(|id| job(id, 10, 100, 3, 100)));
        let ctl = controller_at_10(jobs, 3, BackfillMode::Conservative);
        assert_eq!(MAX_TRIALS_PER_PASS, 32);
        assert_eq!(ctl.state.stats.started_malleable, 0);
        assert_eq!(ctl.scheduler.memo_hits(), MemoHits { est: 0, mates: 30 });
    }

    #[test]
    fn never_fits_hit_is_not_charged() {
        // Requests are clamped to the machine at submit, so a pass profile
        // answers `SimTime::MAX` only when it is narrower than the machine;
        // hand the hook one. Forty 3-node jobs wait behind J1 on 3 nodes;
        // against a 2-node profile the first resolves "never", 39 read it
        // back, and none of them touches the trial budget.
        let mut jobs = vec![job(1, 0, 10_000, 1, 10_000)];
        jobs.extend((2..42).map(|id| job(id, 10, 100, 3, 100)));
        let mut ctl = controller_at_10(jobs, 3, BackfillMode::Easy);
        let mut profile = Profile::flat(SimTime(10), 2);
        let mut policy = SdPolicy::default();
        for id in 2..42 {
            assert!(!policy.try_malleable(&mut ctl.state, JobId(id), None, &mut profile));
        }
        assert_eq!(policy.memo_hits(), MemoHits { est: 39, mates: 0 });
        assert_eq!(policy.trials_this_pass, 0);
    }
}
