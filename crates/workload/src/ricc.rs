//! RICC-like synthetic trace (paper Workload 3).
//!
//! The genuine log is `RICC-2010-2` from the Parallel Workloads Archive
//! (offline here — see DESIGN.md §4). Table 1 and the paper's description
//! pin what matters: 10 000 jobs on 1024 nodes / 8192 cores (8-core nodes),
//! 72-node / 576-core maximum job, ≈ 407 000 s makespan (≈ 40 s mean
//! interarrival), "a high number of small jobs requesting few nodes, ranging
//! from short to long runtime, up to four days".

use crate::arrivals::ArrivalModel;
use crate::dist::LogNormal;
use crate::synth::{EstimateModel, SizeStage, SyntheticTraceModel};

/// Workload 3 preset. `scale` scales jobs and system together.
pub(crate) fn workload3(scale: f64) -> SyntheticTraceModel {
    let scale = scale.clamp(0.01, 4.0);
    let system_nodes = ((1024.0 * scale) as u32).max(16);
    let max_job = ((72.0 * scale) as u32).clamp(4, system_nodes);
    let mid = (max_job / 4).clamp(2, max_job);
    SyntheticTraceModel {
        name: "RICC-sept",
        n_jobs: ((10_000.0 * scale) as usize).max(300),
        system_nodes,
        cores_per_node: 8,
        arrivals: ArrivalModel::anl(40.0),
        stages: vec![
            // Dominant mass of 1–2 node jobs.
            SizeStage {
                weight: 0.72,
                lo: 1,
                hi: 2,
            },
            SizeStage {
                weight: 0.22,
                lo: 2,
                hi: mid,
            },
            SizeStage {
                weight: 0.06,
                lo: mid,
                hi: max_job,
            },
        ],
        pow2_preference: 0.5,
        runtime: LogNormal::from_median(4_000.0, 2.0),
        short_fraction: 0.50,
        short_range: (10.0, 300.0),
        size_runtime_alpha: 0.10,
        runtime_min: 10,
        runtime_max: 4 * 86_400, // "up to four days"
        estimates: EstimateModel::UserFactor { max_factor: 10.0 },
        batch_p: 0.40,
        batch_mean: 8.0,
        tenant_mix: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_table1() {
        let m = workload3(1.0);
        assert_eq!(m.n_jobs, 10_000);
        assert_eq!(m.system_nodes, 1024);
        assert_eq!(m.cores_per_node, 8);
        assert_eq!(m.max_job_nodes(), 72);
    }

    #[test]
    fn dominated_by_small_jobs() {
        let t = workload3(0.2).generate(5);
        let small = t
            .jobs
            .iter()
            .filter(|j| j.procs().unwrap() <= 2 * 8)
            .count() as f64
            / t.len() as f64;
        assert!(small > 0.55, "small-job fraction {small}");
    }

    #[test]
    fn runtime_tail_reaches_days() {
        let t = workload3(0.3).generate(6);
        let max_rt = t.jobs.iter().map(|j| j.runtime().unwrap()).max().unwrap();
        assert!(max_rt > 86_400, "long tail present (max {max_rt})");
        assert!(max_rt <= 4 * 86_400);
    }
}
