//! Property tests for two indices kept incrementally, under arbitrary
//! submit/start/finish/co-schedule/relocate/cancel streams:
//! * the mate pool's weight index (Eq. 3 before Eq. 4) equals a recount of
//!   the pool after every operation, and the cover query answers exactly
//!   what a brute-force search over the pool's weights answers;
//! * the DynAVGSD sum (§3.2.2) equals a recount over the running jobs'
//!   armed ends after every operation, and survives a checkpoint;
//! * no node ever holds more than two residents (a full-width mate and its
//!   borrower), and `checkpoint → restore → checkpoint` is byte-stable.

use cluster::{ClusterSpec, JobId};
use drom::SharingFactor;
use proptest::prelude::*;
use simkit::SimTime;
use slurm_sim::{SimState, SlurmConfig, WorstCaseModel};

const NODES: u32 = 12;

fn online_state() -> SimState {
    let mut spec = ClusterSpec::ricc(); // 8-core nodes
    spec.nodes = NODES;
    SimState::new_online(
        spec,
        SlurmConfig {
            self_check: true,
            ..SlurmConfig::default()
        },
        Box::new(WorstCaseModel),
        SharingFactor::HALF,
    )
}

/// Dispatches every event due by `st.now` (submits enter the queue, current
/// end events finish their jobs).
fn pump(st: &mut SimState) {
    while st.events.peek_time().is_some_and(|t| t <= st.now) {
        let ev = st.events.pop().expect("peeked");
        st.dispatch(ev.payload);
    }
}

/// Can between one and `m` of `weights` sum to exactly `need`?
fn brute_cover(weights: &[u32], need: u32, m: usize) -> bool {
    (1u32..1 << weights.len()).any(|mask| {
        mask.count_ones() as usize <= m
            && weights
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, w)| w)
                .sum::<u32>()
                == need
    })
}

/// A mate set from the pool for `job`: weights summing to its width less
/// `free` idle nodes, every mate's requested end covering the borrower's
/// worst-case (half-rate) end.
fn mates_for(st: &SimState, job: JobId, free: u32) -> Option<Vec<JobId>> {
    let spec = &st.job(job).spec;
    let need = spec.req_nodes.checked_sub(free)?;
    let end = st.now.after(2 * spec.req_time);
    let pool: Vec<_> = st
        .eligible_mates()
        .iter()
        .filter(|e| e.req_end >= end)
        .collect();
    for (i, a) in pool.iter().enumerate() {
        if a.weight == need {
            return Some(vec![a.id]);
        }
        for b in &pool[i + 1..] {
            if a.weight + b.weight == need {
                return Some(vec![a.id, b.id]);
            }
        }
    }
    None
}

fn check(st: &SimState) -> Result<(), TestCaseError> {
    // `deep_validate` recounts the index from the pool.
    if let Err(e) = st.deep_validate() {
        return Err(TestCaseError::fail(e));
    }
    let weights: Vec<u32> = st.eligible_mates().iter().map(|e| e.weight).collect();
    for need in 0..=2 * NODES + 1 {
        for m in [1, 2] {
            prop_assert_eq!(
                st.mate_weights_cover(need, m),
                brute_cover(&weights, need, m),
                "need {} m {} over pool weights {:?}",
                need,
                m,
                &weights
            );
        }
        // Beyond pairs the query is a necessary bound: never a false "no".
        prop_assert!(st.mate_weights_cover(need, 3) || !brute_cover(&weights, need, 3));
    }
    for (n, rec) in st.cluster.records().iter().enumerate() {
        prop_assert!(rec.residents().len() <= 2, "node {} holds {:?}", n, rec.residents());
    }
    let image = st.checkpoint_bytes();
    let re = SimState::restore(
        st.spec().clone(),
        st.cfg.clone(),
        Box::new(WorstCaseModel),
        st.sharing(),
        &image,
    )
    .map_err(TestCaseError::fail)?;
    prop_assert!(re.checkpoint_bytes() == image, "checkpoint → restore → checkpoint moved");
    Ok(())
}

/// One step of a random stream: `(kind, a, b)` as drawn by [`ops`].
fn apply(st: &mut SimState, (kind, a, b): (u8, u64, u64)) {
    let queued: Vec<JobId> = st.queue.prefix(64).map(|e| e.job).collect();
    let pick = |ids: &[JobId]| (!ids.is_empty()).then(|| ids[a as usize % ids.len()]);
    match kind {
        // Submit: `b` nodes wide, long enough to host borrowers or short
        // enough to be one; one in eight is rigid.
        0..=2 => {
            let run = if a % 2 == 0 { 40 + a } else { 2_000 + 100 * a };
            let sj = swf::SwfJob::for_simulation(
                st.job_count() as u64 + 1,
                st.now.secs(),
                run,
                b * 8,
                run + a,
            );
            st.submit_job(&sj, Some(a % 8 != 7)).expect("submit at now");
            pump(st);
        }
        // Static start of a queued job (when it fits).
        3 | 4 => {
            if let Some(id) = pick(&queued) {
                st.start_static(id);
            }
        }
        // Malleable start onto mates drawn from the pool, one in two also
        // taking an idle node (the free-nodes option).
        5 | 6 => {
            if let Some(id) = pick(&queued) {
                let free = u32::from(kind == 6 && st.cluster.empty_node_count() > 0);
                if let Some(mates) = mates_for(st, id, free) {
                    let _ = st.co_schedule(id, &mates, free);
                }
            }
        }
        // Time passes: due jobs finish, partners expand back.
        7 => {
            st.now = SimTime(st.now.secs() + a * b * 5);
            pump(st);
        }
        // Expand side: shrunk borrowers move to idle nodes.
        8 => {
            for id in st.shrunk_borrowers() {
                st.relocate_borrower(id);
            }
        }
        // Cancel anything: pending, running, mate, borrower, done.
        _ => {
            if st.job_count() > 0 {
                st.cancel_job(JobId(a % st.job_count() as u64 + 1));
            }
        }
    }
}

/// Random submit/start/co-schedule/finish/relocate/cancel streams.
fn ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..10, 0u64..64, 1u64..4), 1..120)
}

/// DynAVGSD's inputs recounted over the running jobs' armed ends, with the
/// fixed-point conversion done the direct way (one `f64 → i128` cast).
fn recount_slowdown(st: &SimState) -> (f64, u64) {
    let two_64 = 2f64.powi(64);
    let (mut fixed, mut n) = (0i128, 0u64);
    for id in 1..=st.job_count() as u64 {
        let job = st.job(JobId(id));
        if let Some(run) = job.running().filter(|r| r.armed_end != SimTime::MAX) {
            fixed += (job.spec.slowdown_ending_at(run.armed_end) * two_64) as i128;
            n += 1;
        }
    }
    (fixed as f64 / two_64, n)
}

proptest! {
    #[test]
    fn index_tracks_the_pool_through_arbitrary_streams(ops in ops()) {
        let mut st = online_state();
        for &op in &ops {
            apply(&mut st, op);
            check(&st)?;
        }
    }

    /// The DynAVGSD sum kept where ends are armed equals a recount after
    /// every operation, and a checkpoint → restore reproduces it (and so
    /// the cut-off) bit for bit.
    #[test]
    fn slowdown_sum_tracks_the_armed_ends_through_arbitrary_streams(ops in ops()) {
        let mut st = online_state();
        for &op in &ops {
            apply(&mut st, op);
            let (sum, n) = st.running_slowdown();
            let (want_sum, want_n) = recount_slowdown(&st);
            prop_assert_eq!((sum.to_bits(), n), (want_sum.to_bits(), want_n), "after {:?}", op);
            let re = SimState::restore(
                st.spec().clone(),
                st.cfg.clone(),
                Box::new(WorstCaseModel),
                st.sharing(),
                &st.checkpoint_bytes(),
            )
            .map_err(TestCaseError::fail)?;
            let (re_sum, re_n) = re.running_slowdown();
            prop_assert_eq!((re_sum.to_bits(), re_n), (sum.to_bits(), n), "restored after {:?}", op);
            if n > 0 {
                prop_assert_eq!((re_sum / re_n as f64).to_bits(), (sum / n as f64).to_bits());
            }
        }
    }
}
