//! Inputs, all derived from `--seed`; the program under test only ever
//! sees what this module generates.
//!
//! Each trace is the paper workload's reference draw with every job's
//! runtime jittered ±5 % by a stream seeded from `--seed`. A fresh draw per
//! seed was measured first and rejected: at W4 scale 0.5 it moves host
//! throughput 2.4× between seeds (13.7 K–34.5 K jobs/s; pass counts
//! 139 K–176 K; mean slowdown 30–15 578), which no regression bound
//! survives. Jittering keeps the macro shape — arrivals, sizes, the
//! capability tail — so seeds are comparable, while every schedule still
//! differs in detail (malleable starts 1 590–2 020 across seeds).

use cluster::ClusterSpec;
use sd_serve::SubmitRequest;
use simkit::DetRng;
use slurm_sim::SlurmConfig;
use swf::{SwfJob, Trace};
use workload::PaperWorkload;

/// The reference draw every seed perturbs.
const BASE_SEED: u64 = 42;
const RUNTIME_JITTER: f64 = 0.05;

/// What one simulated machine + trace looks like.
#[derive(Clone)]
pub struct Scenario {
    pub workload: PaperWorkload,
    pub scale: f64,
}

pub const W4: Scenario = Scenario {
    workload: PaperWorkload::W4Curie,
    scale: 0.5,
};
pub const W3: Scenario = Scenario {
    workload: PaperWorkload::W3Ricc,
    scale: 2.0,
};
/// Served sessions: 4 000 jobs. `http::MAX_BODY_BYTES` caps responses too,
/// so `/v1/result` stops fitting above ≈5 700 jobs (see README).
pub const SESSION: Scenario = Scenario {
    workload: PaperWorkload::W3Ricc,
    scale: 0.4,
};

impl Scenario {
    pub fn cluster(&self) -> ClusterSpec {
        self.workload.cluster(self.scale)
    }

    /// The configuration `sd-bench` would pick: EASY backfill for the big
    /// Curie trace, the conservative profile otherwise.
    pub fn slurm_config(&self) -> SlurmConfig {
        if self.workload == PaperWorkload::W4Curie && self.scale > 0.15 {
            SlurmConfig::large_scale()
        } else {
            SlurmConfig::default()
        }
    }

    pub fn trace(&self, seed: u64) -> Trace {
        let mut trace = self.workload.generate(BASE_SEED, self.scale);
        let mut rng = DetRng::new(seed).fork(0x5DBE);
        for j in &mut trace.jobs {
            let jittered = j.run_time as f64 * (1.0 + RUNTIME_JITTER * (2.0 * rng.f64() - 1.0));
            let cap = if j.req_time > 0 { j.req_time } else { i64::MAX };
            j.run_time = (jittered.round() as i64).clamp(1, cap);
        }
        trace
    }
}

/// The wire form of one trace job (what an `sbatch`-like caller posts).
pub fn wire_request(j: &SwfJob) -> SubmitRequest {
    SubmitRequest {
        procs: j.procs().expect("generated jobs have procs"),
        req_time: j.requested_time().unwrap_or(0),
        run_time: j.runtime().expect("generated jobs have runtimes"),
        submit: Some(j.submit.max(0) as u64),
        malleable: None,
        trace_id: Some(j.job_id),
        tenant: Some(j.user.max(0) as u64),
        project: Some(j.group.max(0) as u64),
    }
}

/// One step of the scripted session.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Advance(u64),
    Submit(SubmitRequest),
    Drain,
}

/// The session shape `tests/serve_equivalence.rs` proves bit-identical to
/// the offline replay: trace order, chunks of 25, the clock advanced to
/// just before each chunk's first submit instant, one drain at the end.
pub fn session_script(trace: &Trace) -> Vec<Step> {
    assert!(
        trace.jobs.windows(2).all(|w| w[0].submit <= w[1].submit),
        "generated traces are sorted by submit"
    );
    let mut steps = Vec::with_capacity(trace.jobs.len() + trace.jobs.len() / 25 + 1);
    for (i, chunk) in trace.jobs.chunks(25).enumerate() {
        if i > 0 {
            steps.push(Step::Advance(
                (chunk[0].submit.max(0) as u64).saturating_sub(1),
            ));
        }
        steps.extend(chunk.iter().map(|j| Step::Submit(wire_request(j))));
    }
    steps.push(Step::Drain);
    steps
}

/// The read mix of `serve_reads`, as a fixed seeded order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    Job(u64),
    Queue,
    Stats,
    Metrics,
}

/// 70 % job lookups (uniform over ids), 10 % each queue / stats / metrics.
pub fn read_order(seed: u64, n: usize, jobs: u64) -> Vec<Read> {
    let mut rng = DetRng::new(seed).fork(0x4EAD);
    (0..n)
        .map(|_| match rng.range_u64(0, 9) {
            0 => Read::Queue,
            1 => Read::Stats,
            2 => Read::Metrics,
            _ => Read::Job(rng.range_u64(1, jobs)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let tiny = Scenario {
            workload: PaperWorkload::W3Ricc,
            scale: 0.02,
        };
        let a = tiny.trace(7);
        assert_eq!(a.jobs, tiny.trace(7).jobs);
        let b = tiny.trace(8);
        assert_eq!(a.jobs.len(), b.jobs.len());
        assert_ne!(a.jobs, b.jobs, "the seed reaches the runtimes");
        assert!(a
            .jobs
            .iter()
            .all(|j| j.run_time >= 1 && (j.req_time <= 0 || j.run_time <= j.req_time)));
        assert_eq!(read_order(7, 100, 50), read_order(7, 100, 50));
        assert_ne!(read_order(7, 100, 50), read_order(8, 100, 50));
    }

    #[test]
    fn script_advances_between_chunks_and_ends_with_drain() {
        let tiny = Scenario {
            workload: PaperWorkload::W3Ricc,
            scale: 0.02,
        };
        let trace = tiny.trace(7);
        let script = session_script(&trace);
        let submits = script
            .iter()
            .filter(|s| matches!(s, Step::Submit(_)))
            .count();
        assert_eq!(submits, trace.jobs.len());
        assert!(
            matches!(script[0], Step::Submit(_)),
            "no advance before the first chunk"
        );
        assert!(matches!(script[25], Step::Advance(_)));
        assert_eq!(script.last(), Some(&Step::Drain));
    }
}
