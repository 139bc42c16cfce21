//! The per-pass trial memo (DESIGN.md §2) on queues where it matters most:
//! traces drawn from at most four distinct job shapes, so between two starts
//! of one pass nearly every trial repeats a question already answered.
//!
//! Every run has `self_check` on, which arms the memo's oracle — each hit
//! recomputes `earliest_start` / `select_mates` and asserts the memoised
//! answer — beside the pass-profile and cache tripwires. The property is
//! that no oracle fires and every job completes, across both backfill
//! modes, mixed malleability, idle-node top-up, `m ∈ {1, 2, 3}` and a
//! fair-share queue under a width quota.

use cluster::ClusterSpec;
use drom::SharingFactor;
use proptest::prelude::*;
use sd_policy::{SdPolicy, SdPolicyConfig};
use slurm_sim::{
    BackfillMode, Controller, QueuePolicy, Quota, SimState, SlurmConfig, TenantRegistry,
    WorstCaseModel,
};
use std::sync::atomic::{AtomicU64, Ordering};
use swf::{SwfJob, Trace};

const NODES: u32 = 8;

static EST_HITS: AtomicU64 = AtomicU64::new(0);
static MATES_HITS: AtomicU64 = AtomicU64::new(0);

/// `(nodes, req_time)`: widths up to half the machine, limits on a few
/// round values — what real queues repeat.
fn arb_shape() -> impl Strategy<Value = (u64, u64)> {
    (1u64..5, 0usize..4).prop_map(|(nodes, t)| (nodes, [300, 1_200, 3_600, 14_400][t]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn cases(
        shapes in prop::collection::vec(arb_shape(), 1..5),
        // Per job: shape index, gap to the previous submit, share of the
        // limit actually run (percent).
        jobs in prop::collection::vec((0usize..4, 0u64..120, 5u64..101), 20..70),
        half_malleable in any::<bool>(),
        easy in any::<bool>(),
        include_free_nodes in any::<bool>(),
        max_mates in 1usize..4,
        fair_share in any::<bool>(),
    ) {
        let mut submit = 0;
        let trace: Vec<SwfJob> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(shape, gap, pct))| {
                let (nodes, req) = shapes[shape % shapes.len()];
                submit += gap;
                let mut j = SwfJob::for_simulation(
                    i as u64 + 1,
                    submit,
                    (req * pct / 100).max(1),
                    nodes * 8,
                    req,
                );
                j.user = 1 + (i % 2) as i64;
                j
            })
            .collect();
        let (tenants, queue_policy) = if fair_share {
            // Wide enough for any one job, too narrow for a tenant to hold
            // the machine: quota skips interleave with the trials.
            let quota = Quota { node_seconds: None, max_running_width: Some(6) };
            (TenantRegistry::equal_weights(2, quota), QueuePolicy::FairShare { half_life: 3_600 })
        } else {
            (TenantRegistry::default(), QueuePolicy::Fifo)
        };
        let mut spec = ClusterSpec::ricc(); // 8-core nodes
        spec.nodes = NODES;
        let state = SimState::new(
            spec,
            SlurmConfig {
                self_check: true,
                backfill_mode: if easy { BackfillMode::Easy } else { BackfillMode::Conservative },
                malleable_fraction: if half_malleable { 0.5 } else { 1.0 },
                tenants,
                queue_policy,
                ..SlurmConfig::default()
            },
            &Trace::new(Default::default(), trace),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
        );
        let policy = SdPolicy::new(SdPolicyConfig {
            include_free_nodes,
            max_mates,
            ..SdPolicyConfig::default()
        });
        let mut ctl = Controller::new(state, policy);
        ctl.step_until(None);
        let hits = ctl.scheduler.memo_hits();
        prop_assert!(easy || hits.est == 0, "conservative passes never resolve an est lazily");
        EST_HITS.fetch_add(hits.est, Ordering::Relaxed);
        MATES_HITS.fetch_add(hits.mates, Ordering::Relaxed);
        let res = ctl.into_result();
        prop_assert_eq!(res.outcomes.len(), jobs.len());
        prop_assert_eq!((res.leftover_pending, res.leftover_running), (0, 0));
    }
}

#[test]
fn memo_oracle_holds_on_repeating_shapes() {
    cases();
    // Not vacuous: the runs above answered from both halves of the memo.
    let est = EST_HITS.load(Ordering::Relaxed);
    let mates = MATES_HITS.load(Ordering::Relaxed);
    assert!(est > 0 && mates > 0, "memo hits: est {est}, mates {mates}");
}
