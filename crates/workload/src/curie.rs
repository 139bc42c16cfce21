//! CEA-Curie-like synthetic trace (paper Workload 4 — "the big workload").
//!
//! The genuine log is `CEA-Curie-2011-2.1-cln` restricted to its primary
//! partition (offline here — see DESIGN.md §4). Table 1 pins: 198 509 jobs
//! on 5040 nodes / 80 640 cores (16-core nodes), a 4988-node / 79 808-core
//! maximum job, 21 615 111 s (≈ 250 days) makespan — ≈ 109 s mean
//! interarrival. The log is dominated by small short jobs (hence the very
//! high 3666 average slowdown) with a thin tail of near-machine-size runs.

use crate::arrivals::ArrivalModel;
use crate::dist::LogNormal;
use crate::synth::{EstimateModel, SizeStage, SyntheticTraceModel};

/// Workload 4 preset. `scale` scales jobs and system together
/// (`scale = 1.0` reproduces the full 198 K-job eight-month run).
pub(crate) fn workload4(scale: f64) -> SyntheticTraceModel {
    let scale = scale.clamp(0.002, 2.0);
    let system_nodes = ((5040.0 * scale) as u32).max(24);
    let max_job = ((4988.0 * scale) as u32).clamp(4, system_nodes);
    let mid = (max_job / 16).clamp(4, max_job);
    SyntheticTraceModel {
        name: "CEA-Curie",
        n_jobs: ((198_509.0 * scale) as usize).max(500),
        system_nodes,
        cores_per_node: 16,
        arrivals: ArrivalModel::anl(109.0),
        stages: vec![
            // The overwhelming mass: single-node to 4-node jobs.
            SizeStage {
                weight: 0.82,
                lo: 1,
                hi: 4,
            },
            // Mid-size production runs.
            SizeStage {
                weight: 0.16,
                lo: 4,
                hi: mid,
            },
            // Rare capability jobs up to nearly the whole machine.
            SizeStage {
                weight: 0.02,
                lo: mid,
                hi: max_job,
            },
        ],
        pow2_preference: 0.6,
        runtime: LogNormal::from_median(1_500.0, 2.0),
        short_fraction: 0.5,
        short_range: (5.0, 300.0),
        size_runtime_alpha: 0.12,
        runtime_min: 5,
        runtime_max: 3 * 86_400,
        estimates: EstimateModel::UserFactor { max_factor: 12.0 },
        batch_p: 0.35,
        batch_mean: 6.0,
        tenant_mix: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_table1() {
        let m = workload4(1.0);
        assert_eq!(m.n_jobs, 198_509);
        assert_eq!(m.system_nodes, 5_040);
        assert_eq!(m.cores_per_node, 16);
        assert_eq!(m.max_job_nodes(), 4_988);
    }

    #[test]
    fn small_jobs_dominate() {
        let t = workload4(0.01).generate(3);
        let small = t
            .jobs
            .iter()
            .filter(|j| j.procs().unwrap() <= 4 * 16)
            .count() as f64
            / t.len() as f64;
        assert!(small > 0.6, "small fraction {small}");
    }

    #[test]
    fn capability_tail_exists_at_scale() {
        let m = workload4(0.05); // 252 nodes, max job 249
        let t = m.generate(9);
        let max_nodes = t
            .jobs
            .iter()
            .map(|j| j.procs().unwrap() / 16)
            .max()
            .unwrap();
        assert!(
            max_nodes >= m.max_job_nodes() as u64 / 3,
            "tail reaches large sizes (max {max_nodes})"
        );
    }

    #[test]
    fn scaled_job_count_tracks_scale() {
        assert_eq!(workload4(0.01).n_jobs, 1_985);
        assert_eq!(workload4(0.1).n_jobs, 19_850);
    }
}
