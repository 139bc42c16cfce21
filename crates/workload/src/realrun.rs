//! Workload 5: the "real run" job list (paper §4.4, Table 1 row 5, Table 2).
//!
//! "Workload 5 was created from Cirne model, then converted to real
//! applications submissions … 2000 jobs … maximum of 16 nodes, 768 cores per
//! job, on a system of 49 nodes, 2352 cores." Each generated job carries an
//! [`AppId`] so the simulator can apply the application-aware rate and power
//! models — our substitution for executing the binaries on MareNostrum4.

use crate::apps::{sample_app, AppId};
use crate::arrivals::ArrivalModel;
use crate::dist::LogNormal;
use crate::synth::{EstimateModel, SizeStage, SyntheticTraceModel};
use simkit::DetRng;
use swf::Trace;

/// A trace whose jobs are bound to concrete applications.
#[derive(Debug, Clone)]
pub struct AppTrace {
    pub trace: Trace,
    /// Parallel to `trace.jobs`.
    pub apps: Vec<AppId>,
}

/// The Cirne-derived model scaled to the 49-node MN4 subset.
pub(crate) fn workload5_model() -> SyntheticTraceModel {
    SyntheticTraceModel {
        name: "Cirne_real_run",
        n_jobs: 2_000,
        system_nodes: 49,
        cores_per_node: 48,
        arrivals: ArrivalModel::anl(80.0), // ≈ 159 313 s makespan / 2000 jobs
        stages: vec![
            SizeStage {
                weight: 0.55,
                lo: 1,
                hi: 2,
            },
            SizeStage {
                weight: 0.35,
                lo: 2,
                hi: 6,
            },
            SizeStage {
                weight: 0.10,
                lo: 6,
                hi: 16, // "maximum of 16 nodes, 768 cores per job"
            },
        ],
        pow2_preference: 0.7,
        runtime: LogNormal::from_median(1_000.0, 1.8),
        short_fraction: 0.45,
        short_range: (5.0, 180.0),
        size_runtime_alpha: 0.10,
        runtime_min: 5,
        runtime_max: 3 * 3600,
        estimates: EstimateModel::UserFactor { max_factor: 4.0 },
        batch_p: 0.2,
        batch_mean: 3.0,
        tenant_mix: None,
    }
}

/// Generates Workload 5: the Cirne trace converted to application
/// submissions. Applications whose Table 2 profile constrains size/duration
/// are matched to fitting jobs (Alya = "small nodes, high time", NEST/
/// CoreNeuron = any, PILS/STREAM = "small/med time").
pub(crate) fn workload5(seed: u64) -> AppTrace {
    let model = workload5_model();
    let trace = model.generate(seed);
    let mut rng = DetRng::new(seed).fork(77);
    let median_rt = 1_500.0;
    let apps = trace
        .jobs
        .iter()
        .map(|j| {
            let rt = j.runtime().unwrap_or(0) as f64;
            let nodes = j.procs().unwrap_or(48) / 48;
            // Re-draw a bounded number of times until the app's qualitative
            // constraints fit the job; fall back to the *first* draw so the
            // overall mix stays true to the Table 2 shares.
            let first = sample_app(&mut rng);
            let mut pick = first;
            for attempt in 0..4 {
                let app = if attempt == 0 { first } else { sample_app(&mut rng) };
                let ok = match app {
                    AppId::Alya => nodes <= 4 && rt > median_rt,
                    AppId::Pils | AppId::Stream => rt <= 8.0 * median_rt,
                    AppId::CoreNeuron | AppId::Nest => true,
                };
                if ok {
                    pick = app;
                    break;
                }
            }
            pick
        })
        .collect();
    AppTrace { trace, apps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload5_shape_matches_table1() {
        let at = workload5(42);
        assert_eq!(at.trace.len(), 2_000);
        assert_eq!(at.apps.len(), 2_000);
        let max_procs = at
            .trace
            .jobs
            .iter()
            .map(|j| j.procs().unwrap())
            .max()
            .unwrap();
        assert!(max_procs <= 768, "max {max_procs}");
    }

    #[test]
    fn mix_tracks_table2_shares() {
        let at = workload5(42);
        let frac = |id: AppId| {
            at.apps.iter().filter(|&&a| a == id).count() as f64 / at.apps.len() as f64
        };
        assert!((frac(AppId::Pils) - 0.305).abs() < 0.06, "{}", frac(AppId::Pils));
        assert!((frac(AppId::Stream) - 0.308).abs() < 0.06);
        assert!((frac(AppId::CoreNeuron) - 0.355).abs() < 0.08);
        assert!(frac(AppId::Nest) < 0.08);
        assert!(frac(AppId::Alya) < 0.03);
    }

    #[test]
    fn alya_jobs_are_small_and_long() {
        let at = workload5(42);
        for (i, &app) in at.apps.iter().enumerate() {
            if app == AppId::Alya {
                let j = &at.trace.jobs[i];
                assert!(j.procs().unwrap() / 48 <= 4, "Alya on few nodes");
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = workload5(1);
        let b = workload5(1);
        assert_eq!(a.apps, b.apps);
        assert_eq!(a.trace.jobs, b.trace.jobs);
    }
}
