//! Whole-schedule pins for the W1–W5 CI panels, and the pass-gating oracle.
//!
//! Each cell's golden was recorded from the rebuild-everything reference
//! path at commit 265b3e9, the last one that had it, and shown equal to the
//! surviving path there (CHANGES.md, PR 18). A digest that moves means the
//! *schedule* moved: either a bug, or a deliberate policy change that must
//! re-record it and say why.
//!
//! Pass gating may only skip passes that would have done nothing, so every
//! cell also runs under [`AlwaysPass`], which never skips: same schedule,
//! and every pass it ran the gated controller either ran or skipped.

use sd_sched::prelude::*;
use sd_sched::slurm_sim::{timing, AppAwareModel, BackfillMode, DirtyFlags};
use PaperWorkload::{W1Cirne, W2CirneIdeal, W3Ricc, W4Curie, W5RealRun};

/// The ungated reference: runs every pass the controller offers.
struct AlwaysPass<S>(S);

impl<S: Scheduler> Scheduler for AlwaysPass<S> {
    fn schedule(&mut self, st: &mut SimState) {
        self.0.schedule(st)
    }

    fn pass_needed(&self, _: &SimState, _: DirtyFlags) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

fn controller<S: Scheduler>(
    w: PaperWorkload,
    scale: f64,
    seed: u64,
    cfg: SlurmConfig,
    scheduler: S,
) -> Controller<S> {
    let state = if w == W5RealRun {
        let apps = PaperWorkload::generate_apps(seed);
        SimState::with_apps(w.cluster(scale), cfg, &apps, Box::new(AppAwareModel), SharingFactor::HALF)
    } else {
        let trace = w.generate(seed, scale);
        SimState::new(w.cluster(scale), cfg, &trace, Box::new(IdealModel), SharingFactor::HALF)
    };
    Controller::new(state, scheduler)
}

/// FNV-1a over the schedule: every outcome's `(id, submit, start, end,
/// nodes, procs)`, then makespan, energy bits, malleable starts and
/// relocations.
fn digest(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in &r.outcomes {
        for v in [o.id.0, o.submit.secs(), o.start.secs(), o.end.secs(), u64::from(o.nodes), o.procs] {
            word(v);
        }
    }
    for v in [r.makespan, r.energy_joules.to_bits(), r.stats.started_malleable, r.stats.relocations] {
        word(v);
    }
    h
}

/// What the reference path answered for one cell: the schedule digest and
/// the number of passes it ran (it never gated, so that is every batch that
/// changed something). `skipped` is how many of those the gated controller
/// proves to be no-ops.
struct Golden {
    schedule: u64,
    passes: u64,
    skipped: u64,
}

/// The same cell under the scheduler's own gating and with every pass run.
fn gated_and_ungated<S: Scheduler + Clone>(
    w: PaperWorkload,
    scale: f64,
    seed: u64,
    scheduler: S,
) -> (SimResult, SimResult) {
    (
        controller(w, scale, seed, SlurmConfig::default(), scheduler.clone()).run(),
        controller(w, scale, seed, SlurmConfig::default(), AlwaysPass(scheduler)).run(),
    )
}

fn assert_golden(w: PaperWorkload, scale: f64, seed: u64, sd: bool, golden: Golden) {
    let (gated, ungated) = if sd {
        gated_and_ungated(w, scale, seed, SdPolicy::default())
    } else {
        gated_and_ungated(w, scale, seed, StaticBackfill)
    };
    let cell = format!("{w:?} scale={scale} seed={seed} sd={sd}");

    // Gating only *skips* no-op passes — it never adds or reorders work.
    assert_eq!(ungated.outcomes, gated.outcomes, "{cell}: gating changed the outcomes");
    assert_eq!(
        digest(&ungated),
        digest(&gated),
        "{cell}: gating changed makespan, energy, malleable starts or relocations"
    );
    assert_eq!(ungated.stats.passes_skipped, 0, "{cell}: AlwaysPass never gates");
    assert_eq!(
        gated.stats.sched_passes + gated.stats.passes_skipped,
        ungated.stats.sched_passes,
        "{cell}: every ungated pass is either run or provably skipped"
    );
    assert!(
        gated.stats.passes_skipped > 0,
        "{cell}: gating should fire on a drained-queue workload"
    );
    assert_eq!(gated.leftover_pending, 0, "{cell}");

    assert_eq!(
        (digest(&gated), ungated.stats.sched_passes, gated.stats.passes_skipped),
        (golden.schedule, golden.passes, golden.skipped),
        "{cell}: (schedule digest, passes, passes skipped) moved off the recorded reference — \
         digest now {:#018x}",
        digest(&gated)
    );
}

#[test]
fn w3_sd_policy_matches_golden() {
    assert_golden(W3Ricc, 0.05, 1, true, Golden { schedule: 0x695b_0442_1681_dc98, passes: 967, skipped: 122 });
    assert_golden(W3Ricc, 0.05, 42, true, Golden { schedule: 0x6b3a_22d8_e93f_425c, passes: 969, skipped: 242 });
}

#[test]
fn w3_static_matches_golden() {
    assert_golden(W3Ricc, 0.05, 42, false, Golden { schedule: 0x95ef_12db_f8af_62cd, passes: 966, skipped: 206 });
}

#[test]
fn w4_both_policies_match_golden() {
    assert_golden(W4Curie, 0.01, 42, true, Golden { schedule: 0x7dcb_0a68_5fd7_cf72, passes: 3888, skipped: 160 });
    assert_golden(W4Curie, 0.01, 42, false, Golden { schedule: 0x9d36_0933_3127_6dff, passes: 3880, skipped: 172 });
}

#[test]
fn w1_sd_policy_matches_golden() {
    assert_golden(W1Cirne, 0.05, 7, true, Golden { schedule: 0xa731_f8e9_6bf5_73db, passes: 500, skipped: 30 });
}

#[test]
fn w2_and_w5_sd_policy_match_golden_at_ci_scale() {
    let (w2, w5) = (W2CirneIdeal.default_ci_scale(), W5RealRun.default_ci_scale());
    assert_golden(W2CirneIdeal, w2, 42, true, Golden { schedule: 0xc2bb_9e40_b439_4e4c, passes: 1960, skipped: 299 });
    assert_golden(W5RealRun, w5, 42, true, Golden { schedule: 0x5272_d2a2_96e7_2160, passes: 3896, skipped: 160 });
}

/// The multi-tenant layer must be *inert* when it cannot bind: a
/// single-tenant registry with unlimited quotas under fair-share ordering is
/// bit-identical to the default (untenanted, FIFO) configuration — every
/// job maps to the same tenant, so `usage/weight` ties on every comparison
/// and the stable sort preserves FIFO order, while unlimited quotas never
/// block a backfill trial.
#[test]
fn single_tenant_fair_share_is_bit_identical_to_untenanted() {
    let w = W3Ricc;
    // Stamp every job with tenant 1 and hold the trace fixed: the claim is
    // that the *configuration* is inert, and a trace whose users map to a
    // single registry slot is exactly the degenerate case.
    let trace = w.model(0.05).with_tenant_mix(1, 0.0).generate(42);
    let tenanted_cfg = SlurmConfig {
        tenants: TenantRegistry::equal_weights(1, Quota::UNLIMITED),
        queue_policy: QueuePolicy::FairShare { half_life: 3600 },
        ..SlurmConfig::default()
    };
    let run = |cfg| {
        let model = Box::new(IdealModel);
        run_trace(w.cluster(0.05), cfg, &trace, model, SharingFactor::HALF, SdPolicy::default())
    };
    let plain = run(SlurmConfig::default());
    let tenanted = run(tenanted_cfg);
    // Outcomes carry the tenant label, so compare the schedule itself.
    let key = |r: &SimResult| {
        r.outcomes
            .iter()
            .map(|o| (o.id, o.submit, o.start, o.end, o.nodes, o.procs))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&plain), key(&tenanted), "schedule diverged");
    assert_eq!(plain.makespan, tenanted.makespan);
    assert_eq!(plain.energy_joules, tenanted.energy_joules);
    assert_eq!(
        plain.stats.started_malleable,
        tenanted.stats.started_malleable
    );
    assert_eq!(tenanted.stats.quota_skipped, 0, "unlimited quota never blocks");
}

/// With `self_check` on, the cached availability profile is re-validated
/// against a full rebuild after every mutation, and the pass profile against
/// rebuild + replay after every malleable start — run a malleability-heavy
/// workload end-to-end with the tripwires armed: under both backfill modes
/// (conservative hands the hook an est, EASY lets it resolve one lazily),
/// and with idle nodes joining the co-schedule (the only case in which a
/// malleable start changes the pass profile at all).
///
/// The same switch arms the trial memo's oracle — every hit recomputes and
/// compares — so each cell must also be seen to hit: conservative only the
/// `select_mates` half (it never asks the hook for an est), EASY both. W5
/// rides along because its co-schedules turn over fastest: with the memo's
/// clear-on-start removed, it is the W5 cells whose oracle fires.
///
/// It also arms the oracle of the Eq. 3 check on the scored candidates:
/// every scan that check refuses recomputes the `nm` cut and the pick and
/// asserts that it finds nothing. The `mate_scan_refused` count, read on
/// this thread, shows that each cell refused scans, so the oracle ran.
/// Likewise the pass plan's shadow oracle: every replayed step sweeps a
/// shadow profile afresh and asserts the recorded slot, and
/// `sweep_replayed` shows that each conservative cell replayed steps.
#[test]
fn self_check_validates_profile_cache_end_to_end() {
    for (w, scale, seed) in [(W3Ricc, 0.02, 7), (W5RealRun, W5RealRun.default_ci_scale(), 42)] {
        for base in [SlurmConfig::default(), SlurmConfig::large_scale()] {
            for include_free_nodes in [false, true] {
                let cfg = SlurmConfig { self_check: true, ..base.clone() };
                let easy = cfg.backfill_mode == BackfillMode::Easy;
                let cell = format!("{w:?} easy={easy} include_free_nodes={include_free_nodes}");
                let policy = SdPolicy::new(SdPolicyConfig { include_free_nodes, ..SdPolicyConfig::default() });
                let mut ctl = controller(w, scale, seed, cfg, policy);
                timing::reset();
                timing::enable();
                ctl.step_until(None);
                timing::disable();
                let count = |name: &str| {
                    timing::report()
                        .into_iter()
                        .find(|r| r.name == name)
                        .expect("the probe exists")
                        .count
                };
                assert!(count("mate_scan_refused") > 0, "{cell}: the Eq. 3 refusal's oracle never ran");
                let replayed = count("sweep_replayed");
                assert_eq!(replayed > 0, !easy, "{cell}: {replayed} sweeps replayed");
                let hits = ctl.scheduler.memo_hits();
                assert!(hits.mates > 0, "{cell}: the mates memo never hit");
                assert_eq!(hits.est > 0, easy, "{cell}: {} est memo hits", hits.est);
                let res = ctl.into_result();
                assert_eq!(res.leftover_pending, 0, "{cell}");
                assert!(res.stats.started_malleable > 0, "{cell}: malleable path exercised");
                assert!(res.stats.relocations > 0, "{cell}: relocation path exercised");
            }
        }
    }
}
