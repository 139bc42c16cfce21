//! Property test for the mate pool's weight index (Eq. 3 before Eq. 4):
//! under arbitrary submit/start/finish/co-schedule/relocate/cancel streams
//! the index equals a recount of the pool after every operation, and the
//! cover query answers exactly what a brute-force search over the pool's
//! weights answers.

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

/// A mate set from the pool for `job`: weights summing to its width, every
/// mate's requested end covering the borrower's worst-case (half-rate) end.
fn mates_for(st: &SimState, job: JobId) -> Option<Vec<JobId>> {
    let spec = &st.job(job).spec;
    let end = st.now.after(2 * spec.req_time);
    let pool: Vec<_> = st
        .eligible_mates()
        .iter()
        .filter(|e| e.req_end >= end)
        .collect();
    for (i, a) in pool.iter().enumerate() {
        if a.weight == spec.req_nodes {
            return Some(vec![a.id]);
        }
        for b in &pool[i + 1..] {
            if a.weight + b.weight == spec.req_nodes {
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
    Ok(())
}

proptest! {
    #[test]
    fn index_tracks_the_pool_through_arbitrary_streams(
        ops in prop::collection::vec((0u8..10, 0u64..64, 1u64..4), 1..120),
    ) {
        let mut st = online_state();
        for &(kind, a, b) in &ops {
            let queued: Vec<JobId> = st.queue.prefix(64).map(|e| e.job).collect();
            let pick = |ids: &[JobId]| (!ids.is_empty()).then(|| ids[a as usize % ids.len()]);
            match kind {
                // Submit: `b` nodes wide, long enough to host borrowers or
                // short enough to be one; one in eight is rigid.
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
                    pump(&mut st);
                }
                // Static start of a queued job (when it fits).
                3 | 4 => {
                    if let Some(id) = pick(&queued) {
                        st.start_static(id);
                    }
                }
                // Malleable start onto mates drawn from the pool.
                5 | 6 => {
                    if let Some(id) = pick(&queued) {
                        if let Some(mates) = mates_for(&st, id) {
                            let _ = st.co_schedule(id, &mates, 0);
                        }
                    }
                }
                // Time passes: due jobs finish, partners expand back.
                7 => {
                    st.now = SimTime(st.now.secs() + a * b * 5);
                    pump(&mut st);
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
            check(&st)?;
        }
    }
}
