//! Mate selection — the paper's Eqs. 1–3 and Listing 2.
//!
//! Minimise the Performance Impact `PI = Σ xᵢ·pᵢ` (Eq. 1) subject to
//! `pᵢ < P` (Eq. 2, the MAX_SLOWDOWN cut-off) and `Σ xᵢ·wᵢ = W` (Eq. 3,
//! whole-node weights). Selecting mates is NP-complete; the paper's
//! heuristic sorts candidates by penalty, truncates to `nm`, and tries
//! combinations of at most `m` mates (with `m = 2` found optimal). Here the
//! truncation keeps the `nm` cheapest by `(penalty, id)` — the set the sort
//! would keep — and leaves them unordered: no pick depends on the order.
//!
//! For `m ≤ 2` the exact optimum over the truncated list is found in
//! `O(nm)` by bucketing candidates per weight (the best pair for a weight
//! split is always the two lowest-penalty candidates of the buckets). For
//! `m ≥ 3` a bounded depth-first search over a sorted copy is used.
//!
//! The integer constraint is evaluated first ([`select_mates`]): every
//! candidate list is a subset of the simulator's mate pool, so when the
//! pool's weights alone cannot satisfy Eq. 3 nothing is filtered, scored or
//! sorted.

use crate::config::SdPolicyConfig;
use crate::penalty::{mate_penalty, shrink_increase};
use cluster::JobId;
use slurm_sim::{timing::{self, Probe}, SimState};
use std::cell::RefCell;
use std::cmp::Ordering;

/// Candidate-list cap, the paper's `nm`: only the `nm` lowest-penalty mates
/// are considered.
pub const CANDIDATE_CAP: usize = 64;

/// A scored candidate mate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    pub id: JobId,
    /// Whole nodes the mate occupies (its weight `wᵢ`).
    pub weight: u32,
    /// Eq. 4 penalty for the concrete co-schedule being considered.
    pub penalty: f64,
}

/// The candidates' cost order: penalty, ties broken by id. Penalties are
/// finite and ids unique, so this is a total order.
fn by_cost(a: &Candidate, b: &Candidate) -> Ordering {
    a.penalty
        .partial_cmp(&b.penalty)
        .unwrap_or(Ordering::Equal)
        .then(a.id.cmp(&b.id))
}

/// The chosen mate set (plus optional idle nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    pub mates: Vec<JobId>,
    /// Idle nodes included toward the weight constraint (0 unless
    /// `include_free_nodes` is on).
    pub free_nodes: u32,
    /// The objective value `PI` (Eq. 1).
    pub performance_impact: f64,
}

/// Mate selection for a `target`-node job needing `mall_wall` seconds of
/// co-residency (paper Listing 2): first Eq. 3 on the pool's weights; only
/// if that can hold, the candidate scan and the minimum-PI pick.
pub fn select_mates(
    st: &SimState,
    target: u32,
    mall_wall: u64,
    cutoff: f64,
    cfg: &SdPolicyConfig,
) -> Option<Selection> {
    let free_nodes_available = st.cluster.empty_node_count();
    if !weights_coverable(st, target, free_nodes_available, cfg) {
        return None;
    }
    let _scan = timing::scope(Probe::MateScan);
    let candidates = collect_candidates(st, mall_wall, cutoff, cfg);
    pick_mates(&candidates, target, free_nodes_available, cfg)
}

/// Whether the mate pool's weights admit any solution of Eq. 3 for
/// `target`, over every idle-node top-up [`pick_mates`] would try. A
/// necessary condition for `pick_mates` to succeed on any candidate list
/// drawn from the pool: `false` is final, `true` is a maybe.
pub fn weights_coverable(
    st: &SimState,
    target: u32,
    free_nodes_available: u32,
    cfg: &SdPolicyConfig,
) -> bool {
    let free = usable_free(target, free_nodes_available, cfg);
    (target - free..=target).any(|need| st.mate_weights_cover(need, cfg.max_mates))
}

/// Idle nodes that may count toward `target` (Eq. 3): none unless
/// `include_free_nodes`, and never all of it — at least one mate takes part,
/// otherwise it would be a static start.
fn usable_free(target: u32, free_nodes_available: u32, cfg: &SdPolicyConfig) -> u32 {
    if cfg.include_free_nodes {
        free_nodes_available.min(target.saturating_sub(1))
    } else {
        0
    }
}

/// Collects, filters and scores candidate mates for a job needing
/// `mall_wall` seconds of co-residency (paper: `filter_and_sort`).
///
/// Filters applied, in order:
/// * eligibility (running, malleable, full width, not already sharing) —
///   pre-maintained by the simulator's mate pool;
/// * the finish-inside constraint: the new job's requested end
///   (`now + mall_wall`) must not exceed the mate's requested end;
/// * the cut-off `pᵢ < P` (Eq. 2);
/// * the `nm` cap on the candidate list: the [`CANDIDATE_CAP`] cheapest by
///   `(penalty, id)` are kept, in no particular order.
///
/// No filter reads the policy configuration; it stays a parameter because
/// the `sdbench` mate-scan probe calls this with the policy's own.
pub fn collect_candidates(
    st: &SimState,
    mall_wall: u64,
    cutoff: f64,
    _cfg: &SdPolicyConfig,
) -> Vec<Candidate> {
    let now = st.now;
    let new_end = now.after(mall_wall);
    // Index prune: the running-by-end index knows the latest requested end
    // among *all* running jobs (a superset of the mate pool). If even that
    // falls short of the new job's end, the finish-inside constraint
    // rejects every candidate — skip the scan-and-score entirely.
    if st.latest_running_req_end().is_none_or(|latest| latest < new_end) {
        return Vec::new();
    }
    let full = st.spec().node.cores();
    let mut out: Vec<Candidate> = Vec::with_capacity(CANDIDATE_CAP);
    // The pool is sorted by base penalty ((wait+req)/req); the full Eq. 4
    // penalty adds increase/req, so pool order is a good (not perfect)
    // visiting order. We scan a bounded multiple of the cap, score exactly,
    // then keep the cap's worth of cheapest — the set the paper's
    // sort-then-truncate keeps. The pool entries carry every filter/score
    // input (denormalised at insertion), so the scan never touches the job
    // table.
    let scan_limit = CANDIDATE_CAP * 4;
    // The Eq. 6 stretch is a function of `(ranks_per_node, mall_wall)` only
    // (`None`: nothing can be freed): recomputed when an entry's ranks
    // differ from the previous one's — once per scan on a uniform trace.
    let mut last: Option<(u32, Option<u64>)> = None;
    for e in st.eligible_mates().iter().take(scan_limit) {
        // Finish-inside-mate constraint (requested-time based, §3.2.4).
        if e.req_end < new_end {
            continue;
        }
        let increase = match last {
            Some((ranks, increase)) if ranks == e.ranks_per_node => increase,
            _ => {
                let keep = st.sharing().keep_cores(full, e.ranks_per_node);
                let increase =
                    (keep < full).then(|| shrink_increase(keep as f64 / full as f64, mall_wall));
                last = Some((e.ranks_per_node, increase));
                increase
            }
        };
        let Some(increase) = increase else {
            continue; // nothing can be freed
        };
        let p = mate_penalty(e.wait, increase, e.req_time);
        if p >= cutoff {
            continue;
        }
        out.push(Candidate {
            id: e.id,
            weight: e.weight,
            penalty: p,
        });
    }
    keep_cheapest(&mut out, CANDIDATE_CAP);
    out
}

/// Truncates `cands` to its `nm` cheapest by [`by_cost`] — the same set a
/// sort followed by a truncation keeps, since the order is total — without
/// sorting them.
fn keep_cheapest(cands: &mut Vec<Candidate>, nm: usize) {
    if cands.len() > nm {
        if nm > 0 {
            cands.select_nth_unstable_by(nm - 1, by_cost);
        }
        cands.truncate(nm);
    }
}

/// Finds the minimum-PI combination of ≤ `max_mates` candidates whose
/// weights sum to exactly `target` (Eq. 3), optionally topping up with idle
/// nodes. Returns `None` when no combination exists. The candidates may come
/// in any order; ties are broken by `by_cost`, so the answer does not
/// depend on it.
pub fn pick_mates(
    candidates: &[Candidate],
    target: u32,
    free_nodes_available: u32,
    cfg: &SdPolicyConfig,
) -> Option<Selection> {
    if target == 0 || candidates.is_empty() {
        return None;
    }
    let free = usable_free(target, free_nodes_available, cfg);
    let mut best: Option<Selection> = None;
    // Using f idle nodes reduces the weight the mates must cover. Prefer
    // more idle nodes first (less shrink impact), but still compare by PI.
    for used_free in (0..=free).rev() {
        let need = target - used_free;
        let found = match cfg.max_mates {
            0 => None,
            1 => best_single(candidates, need),
            2 => best_pair(candidates, need),
            m => best_combo(candidates, need, m),
        };
        if let Some((mates, pi)) = found {
            let better = match &best {
                None => true,
                Some(b) => pi < b.performance_impact,
            };
            if better {
                best = Some(Selection {
                    mates,
                    free_nodes: used_free,
                    performance_impact: pi,
                });
            }
        }
    }
    best
}

/// Cheapest single candidate of exactly the needed weight (m = 1).
fn best_single(candidates: &[Candidate], need: u32) -> Option<(Vec<JobId>, f64)> {
    candidates
        .iter()
        .filter(|c| c.weight == need)
        .min_by(|a, b| by_cost(a, b))
        .map(|c| (vec![c.id], c.penalty))
}

/// The two cheapest candidates of one weight by [`by_cost`], as indices
/// into the candidate list.
struct Bucket {
    weight: u32,
    first: usize,
    second: Option<usize>,
}

thread_local! {
    /// [`best_pair`]'s buckets, ascending by weight; kept between calls so a
    /// pick allocates nothing but the selection it returns.
    static BUCKETS: RefCell<Vec<Bucket>> = const { RefCell::new(Vec::new()) };
}

/// Exact minimum over singles and pairs: bucket candidates by weight; the
/// optimal pair for a split (w, need−w) is the cheapest candidate of each
/// bucket (or the two cheapest of the same bucket when w = need−w).
fn best_pair(candidates: &[Candidate], need: u32) -> Option<(Vec<JobId>, f64)> {
    BUCKETS.with_borrow_mut(|buckets| {
        buckets.clear();
        for (i, c) in candidates.iter().enumerate() {
            if c.weight > need {
                continue;
            }
            match buckets.binary_search_by_key(&c.weight, |b| b.weight) {
                Ok(at) => {
                    let b = &mut buckets[at];
                    if by_cost(c, &candidates[b.first]).is_lt() {
                        b.second = Some(b.first);
                        b.first = i;
                    } else if b.second.is_none_or(|s| by_cost(c, &candidates[s]).is_lt()) {
                        b.second = Some(i);
                    }
                }
                Err(at) => buckets.insert(
                    at,
                    Bucket {
                        weight: c.weight,
                        first: i,
                        second: None,
                    },
                ),
            }
        }
        let cheapest = |weight: u32| {
            buckets
                .binary_search_by_key(&weight, |b| b.weight)
                .ok()
                .map(|at| buckets[at].first)
        };
        // Cheapest combination so far; a later one must be strictly cheaper.
        let mut best: Option<(usize, Option<usize>, f64)> = None;
        let mut consider = |a: usize, b: Option<usize>| {
            let pi = match b {
                None => candidates[a].penalty,
                Some(b) => candidates[a].penalty + candidates[b].penalty,
            };
            if best.is_none_or(|(_, _, best_pi)| pi < best_pi) {
                best = Some((a, b, pi));
            }
        };
        // Singles.
        if let Some(a) = cheapest(need) {
            consider(a, None);
        }
        // Pairs, by ascending lighter weight.
        for b1 in buckets.iter().take_while(|b| b.weight <= need / 2) {
            let w2 = need - b1.weight;
            let partner = if w2 == b1.weight {
                b1.second
            } else {
                cheapest(w2)
            };
            if partner.is_some() {
                consider(b1.first, partner);
            }
        }
        best.map(|(a, b, pi)| {
            let mates = match b {
                None => vec![candidates[a].id],
                Some(b) => vec![candidates[a].id, candidates[b].id],
            };
            (mates, pi)
        })
    })
}

/// Bounded DFS for `m ≥ 3` (ablation configurations) over a copy of the
/// candidates sorted by [`by_cost`]: the first complete combination per
/// branch is cheap and pruning on the running PI keeps the search small for
/// `nm ≤ 64`.
fn best_combo(candidates: &[Candidate], need: u32, max_mates: usize) -> Option<(Vec<JobId>, f64)> {
    fn dfs(
        cands: &[Candidate],
        start: usize,
        need: u32,
        left: usize,
        acc: &mut Vec<JobId>,
        acc_pi: f64,
        best: &mut Option<(Vec<JobId>, f64)>,
    ) {
        if need == 0 {
            if best.as_ref().is_none_or(|(_, b)| acc_pi < *b) {
                *best = Some((acc.clone(), acc_pi));
            }
            return;
        }
        if left == 0 || start >= cands.len() {
            return;
        }
        if let Some((_, b)) = best {
            if acc_pi >= *b {
                return; // prune: penalties are non-negative
            }
        }
        for i in start..cands.len() {
            let c = &cands[i];
            if c.weight > need {
                continue;
            }
            acc.push(c.id);
            dfs(cands, i + 1, need - c.weight, left - 1, acc, acc_pi + c.penalty, best);
            acc.pop();
        }
    }
    let mut sorted = candidates.to_vec();
    sorted.sort_by(by_cost);
    let mut best = None;
    let mut acc = Vec::with_capacity(max_mates);
    dfs(&sorted, 0, need, max_mates, &mut acc, 0.0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u64, weight: u32, penalty: f64) -> Candidate {
        Candidate {
            id: JobId(id),
            weight,
            penalty,
        }
    }

    fn cfg() -> SdPolicyConfig {
        SdPolicyConfig::default()
    }

    #[test]
    fn single_exact_weight_preferred_when_cheapest() {
        let cands = vec![cand(1, 4, 1.5), cand(2, 2, 1.0), cand(3, 2, 1.1)];
        let sel = pick_mates(&cands, 4, 0, &cfg()).unwrap();
        // Single (p=1.5) vs pair 2+3 (p=2.1): single wins.
        assert_eq!(sel.mates, vec![JobId(1)]);
        assert!((sel.performance_impact - 1.5).abs() < 1e-12);
    }

    #[test]
    fn pair_beats_expensive_single() {
        let cands = vec![cand(1, 4, 9.0), cand(2, 2, 1.0), cand(3, 2, 1.1)];
        let sel = pick_mates(&cands, 4, 0, &cfg()).unwrap();
        assert_eq!(sel.mates, vec![JobId(2), JobId(3)]);
        assert!((sel.performance_impact - 2.1).abs() < 1e-12);
    }

    #[test]
    fn same_weight_pair_uses_two_cheapest() {
        // In no order: the cheapest (2) comes second, the dearest (3) last.
        let cands = vec![cand(1, 3, 2.0), cand(2, 3, 1.0), cand(3, 3, 3.0)];
        let sel = pick_mates(&cands, 6, 0, &cfg()).unwrap();
        assert_eq!(sel.mates, vec![JobId(2), JobId(1)], "cheapest first");
        assert!((sel.performance_impact - 3.0).abs() < 1e-12);
    }

    #[test]
    fn no_combination_returns_none() {
        let cands = vec![cand(1, 3, 1.0), cand(2, 3, 1.0)];
        assert!(pick_mates(&cands, 5, 0, &cfg()).is_none());
        assert!(pick_mates(&cands, 7, 0, &cfg()).is_none());
        assert!(pick_mates(&[], 2, 0, &cfg()).is_none());
    }

    #[test]
    fn mates_never_exceed_two_by_default() {
        let cands = vec![cand(1, 1, 0.1), cand(2, 1, 0.1), cand(3, 1, 0.1)];
        // Needs 3 × weight-1 mates but m=2 → impossible.
        assert!(pick_mates(&cands, 3, 0, &cfg()).is_none());
    }

    #[test]
    fn three_mates_found_when_m_is_three() {
        let cands = vec![cand(1, 1, 0.1), cand(2, 1, 0.2), cand(3, 1, 0.3), cand(4, 2, 5.0)];
        let cfg3 = SdPolicyConfig {
            max_mates: 3,
            ..cfg()
        };
        let sel = pick_mates(&cands, 3, 0, &cfg3).unwrap();
        assert_eq!(sel.mates, vec![JobId(1), JobId(2), JobId(3)]);
        assert!((sel.performance_impact - 0.6).abs() < 1e-12);
    }

    #[test]
    fn dfs_matches_pair_search_for_m2() {
        let cands = vec![
            cand(1, 2, 1.3),
            cand(2, 3, 1.7),
            cand(3, 5, 2.0),
            cand(4, 2, 2.5),
            cand(5, 3, 0.9),
        ];
        let pair = best_pair(&cands, 5).unwrap();
        let combo = best_combo(&cands, 5, 2).unwrap();
        assert!((pair.1 - combo.1).abs() < 1e-12);
    }

    /// The pair search as first written (a `BTreeMap` of buckets, one `Vec`
    /// per combination considered) — the oracle for the order in which
    /// combinations are considered, which decides ties.
    fn best_pair_reference(candidates: &[Candidate], need: u32) -> Option<(Vec<JobId>, f64)> {
        use std::collections::BTreeMap;
        let mut buckets: BTreeMap<u32, [Option<&Candidate>; 2]> = BTreeMap::new();
        for c in candidates {
            let slot = buckets.entry(c.weight).or_insert([None, None]);
            if slot[0].is_none() {
                slot[0] = Some(c);
            } else if slot[1].is_none() {
                slot[1] = Some(c);
            }
        }
        let mut best: Option<(Vec<JobId>, f64)> = None;
        let mut consider = |mates: Vec<JobId>, pi: f64| {
            if best.as_ref().is_none_or(|(_, b)| pi < *b) {
                best = Some((mates, pi));
            }
        };
        if let Some([Some(c), _]) = buckets.get(&need) {
            consider(vec![c.id], c.penalty);
        }
        for (&w1, slot1) in buckets.range(..=need / 2) {
            let w2 = need - w1;
            if w2 < w1 {
                continue;
            }
            if w1 == w2 {
                if let [Some(a), Some(b)] = slot1 {
                    consider(vec![a.id, b.id], a.penalty + b.penalty);
                }
            } else if let (Some(a), Some([Some(b), _])) = (slot1[0], buckets.get(&w2)) {
                consider(vec![a.id, b.id], a.penalty + b.penalty);
            }
        }
        best
    }

    proptest::proptest! {
        /// Same mates in the same order and the same PI bits as the
        /// reference, with penalties coarse enough that ties are common.
        #[test]
        fn pair_search_matches_reference_including_ties(
            raw in proptest::collection::vec((0u32..9, 0u32..6), 0..40),
            need in 0u32..18,
        ) {
            let cands: Vec<Candidate> = raw
                .iter()
                .enumerate()
                .map(|(i, &(w, p))| cand(i as u64 + 1, w, p as f64 * 0.3))
                .collect();
            // The search takes any order; the reference wants cost order.
            let mut sorted = cands.clone();
            sorted.sort_by(by_cost);
            let got = best_pair(&cands, need);
            let want = best_pair_reference(&sorted, need);
            proptest::prop_assert_eq!(
                got.as_ref().map(|(m, pi)| (m, pi.to_bits())),
                want.as_ref().map(|(m, pi)| (m, pi.to_bits()))
            );
        }

        /// The unsorted top-`nm` and the order-free pick give what sorting,
        /// truncating and taking the first seen gave: the same mates in the
        /// same order, the same idle nodes and the same PI bits. Ids are
        /// shuffled against list order and penalties are coarse, so ties
        /// are common; lists run shorter and longer than `nm`.
        #[test]
        fn unsorted_top_nm_pick_matches_sort_truncate_pick(
            raw in proptest::collection::vec((1u32..7, 0u32..6), 0..40),
            id_step in 1u64..97,
            nm in 1usize..16,
            target in 1u32..14,
            free_available in 0u32..4,
            max_mates in 1usize..4,
            include_free in 0u8..2,
        ) {
            // `i * id_step mod 97` is a permutation of the positions.
            let cands: Vec<Candidate> = raw
                .iter()
                .enumerate()
                .map(|(i, &(w, p))| cand(i as u64 * id_step % 97 + 1, w, p as f64 * 0.3))
                .collect();
            let cfg = SdPolicyConfig {
                max_mates,
                include_free_nodes: include_free == 1,
                ..cfg()
            };
            let mut top = cands.clone();
            keep_cheapest(&mut top, nm);
            let got = pick_mates(&top, target, free_available, &cfg);
            let mut sorted = cands.clone();
            sorted.sort_by(by_cost);
            sorted.truncate(nm);
            let want = pick_sorted_reference(&sorted, target, free_available, &cfg);
            let bits = |s: &Option<Selection>| {
                s.as_ref().map(|s| (s.mates.clone(), s.free_nodes, s.performance_impact.to_bits()))
            };
            proptest::prop_assert_eq!(bits(&got), bits(&want));
            top.sort_by(by_cost);
            proptest::prop_assert_eq!(top, sorted, "top-nm is the sort's prefix");
        }
    }

    /// [`pick_mates`] as it was while its input came sorted by cost: the
    /// first candidate seen of a weight is taken as its cheapest.
    fn pick_sorted_reference(
        sorted: &[Candidate],
        target: u32,
        free_nodes_available: u32,
        cfg: &SdPolicyConfig,
    ) -> Option<Selection> {
        if target == 0 || sorted.is_empty() {
            return None;
        }
        let mut best: Option<Selection> = None;
        for used_free in (0..=usable_free(target, free_nodes_available, cfg)).rev() {
            let need = target - used_free;
            let found = match cfg.max_mates {
                0 => None,
                1 => sorted.iter().find(|c| c.weight == need).map(|c| (vec![c.id], c.penalty)),
                2 => best_pair_reference(sorted, need),
                // Sorting a sorted list is the identity: this is the DFS
                // over the caller's order.
                m => best_combo(sorted, need, m),
            };
            if let Some((mates, pi)) = found {
                if best.as_ref().is_none_or(|b| pi < b.performance_impact) {
                    best = Some(Selection {
                        mates,
                        free_nodes: used_free,
                        performance_impact: pi,
                    });
                }
            }
        }
        best
    }

    #[test]
    fn free_nodes_reduce_required_weight() {
        let cands = vec![cand(1, 2, 1.0)];
        let with_free = SdPolicyConfig {
            include_free_nodes: true,
            ..cfg()
        };
        // Target 4, only a weight-2 mate: impossible without free nodes…
        assert!(pick_mates(&cands, 4, 0, &cfg()).is_none());
        // …possible with 2 idle nodes.
        let sel = pick_mates(&cands, 4, 2, &with_free).unwrap();
        assert_eq!(sel.free_nodes, 2);
        assert_eq!(sel.mates, vec![JobId(1)]);
    }

    #[test]
    fn free_nodes_cannot_cover_everything() {
        // At least one mate must participate (otherwise it's a static start).
        let with_free = SdPolicyConfig {
            include_free_nodes: true,
            ..cfg()
        };
        let cands = vec![cand(1, 2, 1.0)];
        let sel = pick_mates(&cands, 2, 10, &with_free).unwrap();
        assert_eq!(sel.free_nodes, 0, "free nodes capped at target-1");
        assert_eq!(sel.mates, vec![JobId(1)]);
    }
}
