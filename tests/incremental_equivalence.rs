//! The incremental hot path (cached availability profile, linear-sweep
//! `earliest_start`, in-place post-flexible-start delta, pass gating,
//! indexed queue/pool/borrower scans — DESIGN.md §9) must be *behaviourally
//! invisible*: for every workload and policy, `incremental = true` and the
//! legacy rebuild-everything path must produce bit-identical results, and
//! pass gating may only skip passes the legacy controller ran to no effect.

use sd_sched::prelude::*;

fn run(
    w: PaperWorkload,
    scale: f64,
    seed: u64,
    sd: bool,
    incremental: bool,
    self_check: bool,
) -> SimResult {
    let trace = w.generate(seed, scale);
    let cluster = w.cluster(scale);
    let cfg = SlurmConfig {
        incremental,
        self_check,
        ..SlurmConfig::default()
    };
    if sd {
        run_trace(
            cluster,
            cfg,
            &trace,
            Box::new(IdealModel),
            SharingFactor::HALF,
            SdPolicy::default(),
        )
    } else {
        run_trace(
            cluster,
            cfg,
            &trace,
            Box::new(IdealModel),
            SharingFactor::HALF,
            StaticBackfill,
        )
    }
}

fn assert_equivalent(w: PaperWorkload, scale: f64, seed: u64, sd: bool) {
    let legacy = run(w, scale, seed, sd, false, false);
    let incr = run(w, scale, seed, sd, true, false);
    assert_eq!(
        legacy.outcomes, incr.outcomes,
        "{w:?} sd={sd} seed={seed}: outcomes diverged"
    );
    assert_eq!(legacy.makespan, incr.makespan, "{w:?} sd={sd} makespan");
    assert_eq!(
        legacy.energy_joules, incr.energy_joules,
        "{w:?} sd={sd} energy"
    );
    assert_eq!(
        legacy.stats.started_malleable, incr.stats.started_malleable,
        "{w:?} sd={sd} malleable starts"
    );
    // Gating only *skips* no-op passes — it never adds or reorders work.
    assert_eq!(legacy.stats.passes_skipped, 0, "legacy path never gates");
    assert_eq!(
        incr.stats.sched_passes + incr.stats.passes_skipped,
        legacy.stats.sched_passes,
        "{w:?} sd={sd}: every legacy pass is either run or provably skipped"
    );
    assert!(
        incr.stats.passes_skipped > 0,
        "{w:?} sd={sd}: gating should fire on a drained-queue workload"
    );
}

#[test]
fn w3_sd_policy_matches_legacy_path() {
    for seed in [1, 42] {
        assert_equivalent(PaperWorkload::W3Ricc, 0.05, seed, true);
    }
}

#[test]
fn w3_static_matches_legacy_path() {
    assert_equivalent(PaperWorkload::W3Ricc, 0.05, 42, false);
}

#[test]
fn w4_both_policies_match_legacy_path() {
    assert_equivalent(PaperWorkload::W4Curie, 0.01, 42, true);
    assert_equivalent(PaperWorkload::W4Curie, 0.01, 42, false);
}

#[test]
fn w1_sd_policy_matches_legacy_path() {
    assert_equivalent(PaperWorkload::W1Cirne, 0.05, 7, true);
}

/// The multi-tenant layer must be *inert* when it cannot bind: a
/// single-tenant registry with unlimited quotas under fair-share ordering is
/// bit-identical to the default (untenanted, FIFO) configuration — every
/// job maps to the same tenant, so `usage/weight` ties on every comparison
/// and the stable sort preserves FIFO order, while unlimited quotas never
/// block a backfill trial. Pinned on both scheduler hot paths.
#[test]
fn single_tenant_fair_share_is_bit_identical_to_untenanted() {
    let w = PaperWorkload::W3Ricc;
    // Stamp every job with tenant 1 and hold the trace fixed: the claim is
    // that the *configuration* is inert, and a trace whose users map to a
    // single registry slot is exactly the degenerate case.
    let trace = w.model(0.05).with_tenant_mix(1, 0.0).generate(42);
    for incremental in [false, true] {
        let plain_cfg = SlurmConfig {
            incremental,
            ..SlurmConfig::default()
        };
        let tenanted_cfg = SlurmConfig {
            incremental,
            tenants: TenantRegistry::equal_weights(1, Quota::UNLIMITED),
            queue_policy: QueuePolicy::FairShare { half_life: 3600 },
            ..SlurmConfig::default()
        };
        let plain = run_trace(
            w.cluster(0.05),
            plain_cfg,
            &trace,
            Box::new(IdealModel),
            SharingFactor::HALF,
            SdPolicy::default(),
        );
        let tenanted = run_trace(
            w.cluster(0.05),
            tenanted_cfg,
            &trace,
            Box::new(IdealModel),
            SharingFactor::HALF,
            SdPolicy::default(),
        );
        // Outcomes carry the tenant label, so compare the schedule itself.
        let key = |r: &SimResult| {
            r.outcomes
                .iter()
                .map(|o| (o.id, o.submit, o.start, o.end, o.nodes, o.procs))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            key(&plain),
            key(&tenanted),
            "incremental={incremental}: schedule diverged"
        );
        assert_eq!(plain.makespan, tenanted.makespan);
        assert_eq!(plain.energy_joules, tenanted.energy_joules);
        assert_eq!(
            plain.stats.started_malleable,
            tenanted.stats.started_malleable
        );
        assert_eq!(tenanted.stats.quota_skipped, 0, "unlimited quota never blocks");
    }
}

/// The cached availability profile is re-validated against a full rebuild
/// after every mutation when `self_check` is on — run a malleability-heavy
/// workload end-to-end with the tripwire armed.
#[test]
fn self_check_validates_profile_cache_end_to_end() {
    let res = run(PaperWorkload::W3Ricc, 0.02, 7, true, true, true);
    assert_eq!(res.leftover_pending, 0);
    assert!(res.stats.started_malleable > 0, "malleable path exercised");
    assert!(res.stats.relocations > 0, "relocation path exercised");
}
