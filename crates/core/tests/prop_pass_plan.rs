//! The conservative pass plan (DESIGN.md §9) on queues where it replays
//! most: traces drawn from at most four distinct job shapes on a small
//! machine, so many passes follow a pass that started nothing with only
//! submits in between.
//!
//! Every run has `self_check` on, which arms the replay's shadow oracle —
//! every replayed step sweeps a shadow profile the old way and asserts the
//! recorded slot, and the profile the replay builds must equal the shadow —
//! beside the pass-profile and cache tripwires. The property is that no
//! oracle fires and every job completes or was cancelled, under SD-Policy
//! and static backfill, with jobs that end before the next submit, pending
//! and running jobs cancelled between events and the pass run out of band
//! (`SimState::cancel_job` + `Controller::pass_now`, the service's path),
//! and a fair-share queue under a width quota.

use cluster::{ClusterSpec, JobId};
use drom::SharingFactor;
use proptest::prelude::*;
use sd_policy::SdPolicy;
use simkit::SimTime;
use slurm_sim::{
    timing, BackfillMode, Controller, QueuePolicy, Quota, Scheduler, SimState, SlurmConfig,
    StaticBackfill, TenantRegistry, WorstCaseModel,
};
use std::sync::atomic::{AtomicU64, Ordering};
use swf::{SwfJob, Trace};

static REPLAYED: AtomicU64 = AtomicU64::new(0);

/// `(nodes, req_time)`: widths up to four nodes, limits on a few round
/// values — what real queues repeat.
fn arb_shape() -> impl Strategy<Value = (u64, u64)> {
    (1u64..5, 0usize..4).prop_map(|(nodes, t)| (nodes, [300, 1_200, 3_600, 14_400][t]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn cases(
        nodes in 6u32..17,
        shapes in prop::collection::vec(arb_shape(), 1..5),
        // Per job: shape index, gap to the previous submit (long gaps let
        // jobs end before the next submit), share of the limit actually
        // run (percent).
        jobs in prop::collection::vec((0usize..4, 0u64..900, 5u64..101), 20..70),
        // Out-of-band cancels: (instant, job index).
        cancels in prop::collection::vec((0u64..20_000, 0usize..70), 0..6),
        sd in any::<bool>(),
        fair_share in any::<bool>(),
    ) {
        let mut submit = 0;
        let trace: Vec<SwfJob> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(shape, gap, pct))| {
                let (width, req) = shapes[shape % shapes.len()];
                submit += gap;
                let mut j = SwfJob::for_simulation(
                    i as u64 + 1,
                    submit,
                    (req * pct / 100).max(1),
                    width * 8,
                    req,
                );
                j.user = 1 + (i % 2) as i64;
                j
            })
            .collect();
        let (tenants, queue_policy) = if fair_share {
            // Wide enough for any one job, too narrow for a tenant to hold
            // the machine: quota skips interleave with the replayed steps.
            let quota = Quota { node_seconds: None, max_running_width: Some(6) };
            (TenantRegistry::equal_weights(2, quota), QueuePolicy::FairShare { half_life: 3_600 })
        } else {
            (TenantRegistry::default(), QueuePolicy::Fifo)
        };
        let mut spec = ClusterSpec::ricc(); // 8-core nodes
        spec.nodes = nodes;
        let state = SimState::new(
            spec,
            SlurmConfig {
                self_check: true,
                backfill_mode: BackfillMode::Conservative,
                tenants,
                queue_policy,
                ..SlurmConfig::default()
            },
            &Trace::new(Default::default(), trace),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
        );
        let scheduler: Box<dyn Scheduler> =
            if sd { Box::new(SdPolicy::default()) } else { Box::new(StaticBackfill) };
        let mut ctl = Controller::new(state, scheduler);
        let mut cancels = cancels;
        cancels.sort_unstable();
        timing::reset();
        timing::enable();
        let mut cancelled = 0;
        for (at, idx) in cancels {
            ctl.step_until(Some(SimTime(at)));
            let id = JobId((idx % jobs.len()) as u64 + 1);
            if ctl.state.cancel_job(id) {
                cancelled += 1;
            }
            ctl.pass_now();
        }
        ctl.step_until(None);
        timing::disable();
        let replayed = timing::report()
            .into_iter()
            .find(|r| r.name == "sweep_replayed")
            .expect("the probe exists")
            .count;
        REPLAYED.fetch_add(replayed, Ordering::Relaxed);
        let res = ctl.into_result();
        prop_assert_eq!(res.outcomes.len() + cancelled, jobs.len());
        prop_assert_eq!((res.leftover_pending, res.leftover_running), (0, 0));
    }
}

#[test]
fn replayed_plans_match_fresh_sweeps() {
    cases();
    // Not vacuous: the runs above replayed recorded steps.
    let replayed = REPLAYED.load(Ordering::Relaxed);
    assert!(replayed > 0, "no step was replayed");
}
