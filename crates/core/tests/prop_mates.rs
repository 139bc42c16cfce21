//! Property tests for mate selection (Eqs. 1–3): the heuristic must respect
//! every constraint and, for m ≤ 2, be *optimal* over the candidate list.

use cluster::{ClusterSpec, JobId};
use drom::SharingFactor;
use proptest::prelude::*;
use sd_policy::mates::{collect_candidates, pick_mates, weights_coverable, Candidate};
use sd_policy::SdPolicyConfig;
use slurm_sim::{SimState, SlurmConfig, WorstCaseModel};

fn arb_candidates() -> impl Strategy<Value = Vec<Candidate>> {
    prop::collection::vec((1u32..8, 0u32..1000), 1..24).prop_map(|raw| {
        let mut v: Vec<Candidate> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (w, p))| Candidate {
                id: JobId(i as u64 + 1),
                weight: w,
                penalty: p as f64 / 10.0,
            })
            .collect();
        v.sort_by(|a, b| a.penalty.partial_cmp(&b.penalty).unwrap());
        v
    })
}

/// Brute force: all subsets of size ≤ m with Σw = target, min Σp.
fn brute_force(cands: &[Candidate], target: u32, m: usize) -> Option<f64> {
    let n = cands.len();
    let mut best: Option<f64> = None;
    for mask in 1u32..(1 << n.min(20)) {
        if (mask.count_ones() as usize) > m {
            continue;
        }
        let mut w = 0u32;
        let mut p = 0.0;
        for (i, c) in cands.iter().enumerate() {
            if mask & (1 << i) != 0 {
                w += c.weight;
                p += c.penalty;
            }
        }
        if w == target && best.is_none_or(|b| p < b) {
            best = Some(p);
        }
    }
    best
}

/// A machine running one malleable job per `(weight, req_time)` entry —
/// each an eligible mate — with `idle` whole nodes left over.
fn state_with_pool(pool: &[(u32, u64)], idle: u32) -> SimState {
    let mut spec = ClusterSpec::ricc(); // 8-core nodes
    spec.nodes = pool.iter().map(|&(w, _)| w).sum::<u32>() + idle;
    let jobs = pool
        .iter()
        .enumerate()
        .map(|(i, &(w, req))| {
            swf::SwfJob::for_simulation(i as u64 + 1, i as u64, req, w as u64 * 8, req)
        })
        .collect();
    let mut st = SimState::new(
        spec,
        SlurmConfig::default(),
        &swf::Trace::new(Default::default(), jobs),
        Box::new(WorstCaseModel),
        SharingFactor::HALF,
    );
    while let Some(ev) = st.events.pop() {
        st.now = ev.time;
        st.dispatch(ev.payload);
    }
    for id in 1..=pool.len() as u64 {
        assert!(st.start_static(JobId(id)));
    }
    assert_eq!(st.eligible_mates().len(), pool.len());
    st
}

proptest! {
    /// Eq. 3 on the pool's weights is a necessary condition for mate
    /// selection: whenever it says "no", the full scan-and-pick finds
    /// nothing on the same inputs — whatever the filters, the idle-node
    /// option or `m`. With no filter biting and m ≤ 2 it is also sufficient.
    #[test]
    fn weight_check_never_prunes_a_feasible_scan(
        pool in prop::collection::vec((1u32..6, 100u64..4000), 0..10),
        idle in 0u32..4,
        target in 1u32..14,
        mall_wall in 1u64..3000,
        cutoff_tenths in 10u32..60,
    ) {
        let st = state_with_pool(&pool, idle);
        let free = st.cluster.empty_node_count();
        for include_free_nodes in [false, true] {
            for max_mates in [1, 2, 3] {
                let cfg = SdPolicyConfig { include_free_nodes, max_mates, ..SdPolicyConfig::default() };
                let coverable = weights_coverable(&st, target, free, &cfg);
                for cutoff in [cutoff_tenths as f64 / 10.0, f64::INFINITY] {
                    let cands = collect_candidates(&st, mall_wall, cutoff, &cfg);
                    let picked = pick_mates(&cands, target, free, &cfg);
                    prop_assert!(
                        coverable || picked.is_none(),
                        "pruned a feasible scan: {:?} (free {}, m {})", picked, include_free_nodes, max_mates
                    );
                }
                // Every mate outlasts a 1 s co-residency and no penalty is
                // cut off: the candidate list is the whole pool.
                let all = collect_candidates(&st, 1, f64::INFINITY, &cfg);
                prop_assert_eq!(all.len(), pool.len());
                if max_mates <= 2 {
                    prop_assert_eq!(coverable, pick_mates(&all, target, free, &cfg).is_some());
                }
            }
        }
    }

    /// The default (m = 2) search finds the brute-force optimum whenever one
    /// exists, and never fabricates a solution when none does.
    #[test]
    fn pair_search_is_optimal(cands in arb_candidates(), target in 1u32..12) {
        let cfg = SdPolicyConfig::default();
        let picked = pick_mates(&cands, target, 0, &cfg);
        let best = brute_force(&cands, target, 2);
        match (picked, best) {
            (Some(sel), Some(b)) => {
                prop_assert!((sel.performance_impact - b).abs() < 1e-9,
                    "heuristic {} vs optimum {}", sel.performance_impact, b);
            }
            (None, None) => {}
            (got, want) => {
                return Err(TestCaseError::fail(format!("mismatch: {got:?} vs {want:?}")));
            }
        }
    }

    /// Every selection satisfies the structural constraints: Σw = W,
    /// |mates| ≤ m, distinct mates, PI = Σ penalties.
    #[test]
    fn selections_respect_constraints(
        cands in arb_candidates(),
        target in 1u32..12,
        m in 1usize..4,
    ) {
        let cfg = SdPolicyConfig { max_mates: m, ..SdPolicyConfig::default() };
        if let Some(sel) = pick_mates(&cands, target, 0, &cfg) {
            prop_assert!(sel.mates.len() <= m);
            let mut ids = sel.mates.clone();
            ids.sort();
            ids.dedup();
            prop_assert_eq!(ids.len(), sel.mates.len(), "mates distinct");
            let (w, p): (u32, f64) = sel
                .mates
                .iter()
                .map(|id| {
                    let c = cands.iter().find(|c| c.id == *id).unwrap();
                    (c.weight, c.penalty)
                })
                .fold((0, 0.0), |(aw, ap), (w, p)| (aw + w, ap + p));
            prop_assert_eq!(w + sel.free_nodes, target, "Σ weights = W (Eq. 3)");
            prop_assert!((p - sel.performance_impact).abs() < 1e-9, "PI = Σ p (Eq. 1)");
        }
    }

    /// Larger m never yields a worse optimum (search-space monotonicity).
    #[test]
    fn more_mates_never_worse(cands in arb_candidates(), target in 1u32..12) {
        let pi = |m: usize| {
            pick_mates(
                &cands,
                target,
                0,
                &SdPolicyConfig { max_mates: m, ..SdPolicyConfig::default() },
            )
            .map(|s| s.performance_impact)
        };
        if let (Some(p2), Some(p3)) = (pi(2), pi(3)) {
            prop_assert!(p3 <= p2 + 1e-9, "m=3 ({p3}) worse than m=2 ({p2})");
        }
        if let (Some(p1), Some(p2)) = (pi(1), pi(2)) {
            prop_assert!(p2 <= p1 + 1e-9);
        }
    }
}
