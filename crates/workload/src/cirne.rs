//! Cirne–Berman model presets (paper Workloads 1, 2 and the base of 5).
//!
//! "We generated workloads 1, 2 and 5 with the model developed by Cirne,
//! based on the characterization of four different logs. We configured it to
//! use ANL arrival pattern, and we scaled the model to the considered system
//! size." (paper §4). Table 1 pins the shapes: 5000 jobs on 1024 nodes /
//! 49152 cores with a 128-node / 6144-core maximum job and a ≈ 900 000 s
//! makespan (≈ 180 s mean interarrival).

use crate::arrivals::ArrivalModel;
use crate::dist::LogNormal;
use crate::synth::{EstimateModel, SizeStage, SyntheticTraceModel};

/// Workload 1: Cirne model with user-style (inaccurate) estimates.
pub(crate) fn workload1(scale: f64) -> SyntheticTraceModel {
    base(scale, EstimateModel::UserFactor { max_factor: 8.0 }, "Cirne")
}

/// Workload 2: `Cirne_ideal` — identical distributions, exact estimates
/// ("the job's requested time same to the real duration").
pub fn workload2(scale: f64) -> SyntheticTraceModel {
    base(scale, EstimateModel::Exact, "Cirne_ideal")
}

/// Shared Cirne shape. `scale` scales the *job count and system size
/// together* (1.0 = the paper's 5000 jobs / 1024 nodes), preserving the
/// pressure (offered load) so scaled-down runs keep the same qualitative
/// behaviour.
fn base(scale: f64, estimates: EstimateModel, name: &'static str) -> SyntheticTraceModel {
    let scale = scale.clamp(0.01, 4.0);
    let system_nodes = ((1024.0 * scale) as u32).max(16);
    let max_job = ((128.0 * scale) as u32).clamp(4, system_nodes);
    let mid = (max_job / 8).clamp(2, max_job);
    SyntheticTraceModel {
        name,
        n_jobs: ((5000.0 * scale) as usize).max(200),
        system_nodes,
        cores_per_node: 48,
        arrivals: ArrivalModel::anl(180.0),
        stages: vec![
            // Sequential-ish small jobs (Cirne: a large fraction of jobs are
            // sequential or near-sequential).
            SizeStage {
                weight: 0.30,
                lo: 1,
                hi: 2,
            },
            // Small parallel.
            SizeStage {
                weight: 0.50,
                lo: 2,
                hi: mid,
            },
            // Large parallel tail.
            SizeStage {
                weight: 0.20,
                lo: mid,
                hi: max_job,
            },
        ],
        pow2_preference: 0.75,
        runtime: LogNormal::from_median(9_000.0, 1.8),
        short_fraction: 0.35,
        short_range: (5.0, 600.0),
        size_runtime_alpha: 0.12,
        runtime_min: 5,
        runtime_max: 2 * 86_400,
        estimates,
        batch_p: 0.30,
        batch_mean: 6.0,
        tenant_mix: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf::TraceStats;

    #[test]
    fn full_scale_matches_table1_shape() {
        let m = workload1(1.0);
        assert_eq!(m.n_jobs, 5000);
        assert_eq!(m.system_nodes, 1024);
        assert_eq!(m.cores_per_node, 48);
        assert_eq!(m.max_job_nodes(), 128);
    }

    #[test]
    fn workload2_is_exact_estimate_variant() {
        let t = workload2(0.05).generate(7);
        assert!(t.jobs.iter().all(|j| j.req_time == j.run_time));
        let t1 = workload1(0.05).generate(7);
        assert!(t1.jobs.iter().any(|j| j.req_time > j.run_time));
    }

    #[test]
    fn scaled_down_preserves_pressure_order() {
        // Offered load per node should be in the same ballpark across scales.
        let load = |scale: f64| {
            let m = workload1(scale);
            let t = m.generate(11);
            let s = TraceStats::compute(&t);
            let span = t.jobs.last().unwrap().submit - t.jobs[0].submit;
            s.total_core_seconds / (span.max(1) as f64 * m.system_nodes as f64 * 48.0)
        };
        // Very small scales see strong max-job granularity effects and
        // short-trace variance, so the bound is deliberately loose: the
        // offered load must stay within ~3× across a 2.5× scale change.
        let full = load(0.25);
        let small = load(0.1);
        let ratio = small / full;
        assert!((0.3..3.0).contains(&ratio), "full {full} small {small}");
    }

    #[test]
    fn max_job_size_respected() {
        let m = workload1(0.1); // 102 nodes, max job 12
        let t = m.generate(3);
        let max = t.jobs.iter().map(|j| j.procs().unwrap()).max().unwrap();
        assert!(max <= m.max_job_nodes() as u64 * 48);
    }
}
