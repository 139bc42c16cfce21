//! A static EASY pass skips the run of failures its last pass proved, while
//! the availability's version, the queue's edits and the head's
//! reservation still hold (DESIGN.md §9). The skip must change nothing but
//! the work: [`StaticBackfill`] has to give exactly what a pass that never
//! skips gives — the public `backfill_pass` with a hook that starts nothing.
//!
//! The workloads are EASY on small machines, with bursts of submits behind
//! long jobs, so heads and tails hold across passes and the skip fires.
//! Pending and running jobs are cancelled between events and the pass run
//! out of band (`SimState::cancel_job` + `Controller::pass_now`, the
//! service's path). The queue is FIFO or fair share, some jobs run under a
//! tenant width quota, and a trace ring is sometimes attached. Both runs
//! must give equal results (outcomes and `SimStats`) and equal
//! `render_virtual` streams. `self_check` is on, so every skipped entry is
//! proven failing again. With a ring on a FIFO queue, each pass must also
//! decide exactly the first `backfill_depth` queued jobs, in order: the
//! oracle of the in-place walk itself, which both runs share.

use cluster::{ClusterSpec, JobId};
use drom::SharingFactor;
use proptest::prelude::*;
use simkit::SimTime;
use slurm_sim::{
    backfill_pass, render_virtual, timing, BackfillMode, Controller, DirtyFlags, QueuePolicy, Quota,
    Scheduler, SimResult, SimState, SlurmConfig, StaticBackfill, Tenant, TenantRegistry, TraceKind,
    TraceRing, WorstCaseModel,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use swf::{SwfJob, Trace};

static SKIPPED: AtomicU64 = AtomicU64::new(0);

/// Static backfill through the public pass, which never skips.
struct NeverSkips;

impl Scheduler for NeverSkips {
    fn schedule(&mut self, st: &mut SimState) {
        let profile = backfill_pass(st, |_, _, _| None);
        st.recycle_pass_profile(profile);
    }

    fn pass_needed(&self, st: &SimState, dirty: DirtyFlags) -> bool {
        StaticBackfill.pass_needed(st, dirty)
    }

    fn name(&self) -> &'static str {
        StaticBackfill.name()
    }
}

/// `inner`, checking that each pass decides the FIFO queue's first
/// `backfill_depth` jobs in order, one decision each, when `ring` is set.
struct Walked<S> {
    inner: S,
    ring: Option<Arc<TraceRing>>,
}

impl<S: Scheduler> Scheduler for Walked<S> {
    fn schedule(&mut self, st: &mut SimState) {
        let Some(ring) = self.ring.clone() else {
            return self.inner.schedule(st);
        };
        let depth = st.cfg.backfill_depth;
        let expected: Vec<u64> = st.queue.prefix(depth).map(|e| e.job.0).collect();
        let from = ring.pushed();
        self.inner.schedule(st);
        let decided: Vec<u64> = (ring.read_since(from, usize::MAX).events.iter())
            .filter_map(|e| match e.kind {
                TraceKind::Started { job, .. }
                | TraceKind::EasyReserved { job, .. }
                | TraceKind::BackfillRejected { job, .. }
                | TraceKind::QuotaSkipped { job, .. } => Some(job),
                _ => None,
            })
            .collect();
        assert_eq!(decided, expected, "the pass at {:?} walked another queue", st.now);
    }

    fn pass_needed(&self, st: &SimState, dirty: DirtyFlags) -> bool {
        self.inner.pass_needed(st, dirty)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One run: the result and, with a ring, its virtual-time stream.
fn run<S: Scheduler>(
    state: SimState,
    scheduler: S,
    traced: bool,
    fifo: bool,
    cancels: &[(u64, u64)],
) -> (SimResult, String) {
    let mut state = state;
    let ring = traced.then(|| Arc::new(TraceRing::new(1 << 17)));
    if let Some(ring) = &ring {
        state.attach_trace(ring.clone());
    }
    let walked = Walked { inner: scheduler, ring: ring.clone().filter(|_| fifo) };
    let mut ctl = Controller::new(state, walked);
    for &(at, id) in cancels {
        ctl.step_until(Some(SimTime(at)));
        ctl.state.cancel_job(JobId(id));
        ctl.pass_now();
    }
    ctl.step_until(None);
    let stream = ring.map_or_else(String::new, |ring| {
        assert_eq!(ring.overwritten(), 0, "the ring is too small for the run");
        render_virtual(&ring.snapshot())
    });
    (ctl.into_result(), stream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn cases(
        nodes in 6u32..17,
        depth in 3usize..40,
        // Per job: width, limit (one of a few round values), gap to the
        // previous submit (mostly short: bursts behind running jobs), share
        // of the limit actually run (percent), whether it is tenanted.
        jobs in prop::collection::vec(
            (1u64..7, 0usize..4, 0u64..400, 5u64..101, any::<bool>()),
            20..80,
        ),
        // Out-of-band cancels: (instant, job index).
        cancels in prop::collection::vec((0u64..30_000, 0usize..80), 0..6),
        fair_share in any::<bool>(),
        // A width quota on tenant 1 from 2 up; below that, none.
        quota in 0u32..8,
        traced in any::<bool>(),
    ) {
        let mut submit = 0;
        let trace: Vec<SwfJob> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(width, limit, gap, pct, tenanted))| {
                let req = [300, 1_800, 7_200, 28_800][limit];
                submit += if gap < 300 { gap / 30 } else { gap * 10 };
                let mut j = SwfJob::for_simulation(
                    i as u64 + 1,
                    submit,
                    (req * pct / 100).max(1),
                    width.min(u64::from(nodes)) * 8,
                    req,
                );
                // Tenant 1 is registered (under the quota, if any); tenant
                // 2 is not, so its entries stay untenanted on a FIFO queue.
                j.user = if tenanted { 1 } else { 2 };
                j
            })
            .collect();
        let mut tenants = TenantRegistry::new();
        if quota >= 2 {
            let quota = Quota { node_seconds: None, max_running_width: Some(quota) };
            tenants.add(Tenant { quota, ..Tenant::unlimited(1, 0) });
        }
        let queue_policy = if fair_share {
            QueuePolicy::FairShare { half_life: 3_600 }
        } else {
            QueuePolicy::Fifo
        };
        let mut spec = ClusterSpec::ricc(); // 8-core nodes
        spec.nodes = nodes;
        let state = || {
            SimState::new(
                spec.clone(),
                SlurmConfig {
                    self_check: true,
                    backfill_mode: BackfillMode::Easy,
                    backfill_depth: depth,
                    tenants: tenants.clone(),
                    queue_policy,
                    ..SlurmConfig::default()
                },
                &Trace::new(Default::default(), trace.clone()),
                Box::new(WorstCaseModel),
                SharingFactor::HALF,
            )
        };
        let mut cancels: Vec<(u64, u64)> =
            cancels.iter().map(|&(at, idx)| (at, (idx % jobs.len()) as u64 + 1)).collect();
        cancels.sort_unstable();
        let fifo = !fair_share;
        let (plain, plain_stream) = run(state(), NeverSkips, traced, fifo, &cancels);
        timing::reset();
        timing::enable();
        let (skipping, skipping_stream) = run(state(), StaticBackfill, traced, fifo, &cancels);
        timing::disable();
        let skipped = timing::report()
            .into_iter()
            .find(|r| r.name == "tail_skipped")
            .expect("the probe exists")
            .count;
        SKIPPED.fetch_add(skipped, Ordering::Relaxed);
        prop_assert!(fifo || skipped == 0, "a fair-share pass skipped");
        prop_assert_eq!(skipping, plain);
        prop_assert!(skipping_stream == plain_stream, "the skipping run traced another stream");
    }
}

#[test]
fn static_passes_that_skip_equal_passes_that_do_not() {
    cases();
    // Not vacuous: the runs above skipped proven failures.
    let skipped = SKIPPED.load(Ordering::Relaxed);
    assert!(skipped > 0, "no entry was skipped");
}
