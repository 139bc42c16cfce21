//! Progress-rate models for malleable jobs.
//!
//! The simulator recomputes a job's progress rate at every reconfiguration;
//! *how* the rate follows from the core configuration is the pluggable
//! [`RateModel`]. The two analytic models are the paper's §3.4 equations
//! (re-exported with full paper mapping by the `sd-policy` crate):
//!
//! * [`IdealModel`] — Eq. 5: performance is proportional to the *total*
//!   assigned resources; represents applications that re-balance load
//!   dynamically.
//! * [`WorstCaseModel`] — Eq. 6: performance is limited by the least-served
//!   node; represents statically balanced applications.
//!
//! [`AppAwareModel`] is the substitution for the paper's real-machine runs:
//! it composes the application's scalability curve with memory-bandwidth
//! contention from co-residents (see `workload::apps`).

use workload::{AppId, AppModel};

/// Everything a rate model may consider.
#[derive(Debug, Clone)]
pub struct RateInputs<'a> {
    /// Cores held on each allocated node.
    pub cores: &'a [u32],
    /// Cores per node the job was sized for.
    pub full_cores: u32,
    /// Bound application (Workload 5), if any.
    pub app: Option<AppId>,
    /// Highest memory-bandwidth pressure among co-resident jobs across the
    /// job's nodes (0.0 when running exclusively).
    pub neighbour_mem: f64,
}

impl RateInputs<'_> {
    /// Total assigned / total sized-for cores.
    pub(crate) fn used_fraction(&self) -> f64 {
        let used: u64 = self.cores.iter().map(|&c| c as u64).sum();
        let full = self.full_cores as u64 * self.cores.len().max(1) as u64;
        (used as f64 / full as f64).clamp(0.0, 1.0)
    }

    /// Fraction on the least-served node.
    pub(crate) fn min_fraction(&self) -> f64 {
        self.cores
            .iter()
            .map(|&c| c as f64 / self.full_cores as f64)
            .fold(1.0, f64::min)
            .clamp(0.0, 1.0)
    }
}

/// Maps a core configuration to a progress rate in `[0, 1]`.
pub trait RateModel: Send + Sync {
    fn rate(&self, inp: &RateInputs<'_>) -> f64;

    /// Human-readable name (experiment labels).
    fn name(&self) -> &'static str;
}

/// Paper Eq. 5 — "applications do not suffer from the imbalance in the
/// number of resources used": rate = Σ assigned / Σ full.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealModel;

impl RateModel for IdealModel {
    fn rate(&self, inp: &RateInputs<'_>) -> f64 {
        inp.used_fraction()
    }
    fn name(&self) -> &'static str {
        "ideal"
    }
}

/// Paper Eq. 6 — "performance is limited by the less used node":
/// rate = min over nodes of assigned/full.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorstCaseModel;

impl RateModel for WorstCaseModel {
    fn rate(&self, inp: &RateInputs<'_>) -> f64 {
        inp.min_fraction()
    }
    fn name(&self) -> &'static str {
        "worst-case"
    }
}

/// Application-behaviour model for the real-run reproduction (Workload 5):
/// Amdahl-curve shrink benefit × memory contention, floored by the
/// worst-case fraction. Jobs without an app fall back to [`WorstCaseModel`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AppAwareModel;

impl RateModel for AppAwareModel {
    fn rate(&self, inp: &RateInputs<'_>) -> f64 {
        let min_frac = inp.min_fraction();
        let Some(app) = inp.app.map(AppModel::by_id) else {
            return min_frac;
        };
        if min_frac >= 1.0 {
            // Full allocation: only contention can slow the job (it has no
            // neighbours in that case by construction, but a co-resident on
            // a *subset* of nodes is possible while expanding).
            return app.contention(inp.neighbour_mem);
        }
        // Shrunk: the effective cores on the weakest node set the pace
        // (statically balanced ranks), but imperfect scaling means the job
        // loses less than proportionally.
        let cores = (min_frac * inp.full_cores as f64).round().max(1.0) as u32;
        let shrink = app.shrink_rate(cores, inp.full_cores);
        (shrink * app.contention(inp.neighbour_mem)).clamp(0.0, 1.0)
    }
    fn name(&self) -> &'static str {
        "app-aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(cores: &[u32], full: u32) -> RateInputs<'_> {
        RateInputs {
            cores,
            full_cores: full,
            app: None,
            neighbour_mem: 0.0,
        }
    }

    #[test]
    fn ideal_uses_total_fraction() {
        let inp = inputs(&[24, 48], 48);
        assert!((IdealModel.rate(&inp) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn worst_case_uses_min_fraction() {
        let inp = inputs(&[24, 48], 48);
        assert!((WorstCaseModel.rate(&inp) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn models_agree_on_uniform_allocations() {
        let inp = inputs(&[24, 24, 24], 48);
        assert_eq!(IdealModel.rate(&inp), WorstCaseModel.rate(&inp));
        let full = inputs(&[48, 48], 48);
        assert_eq!(IdealModel.rate(&full), 1.0);
        assert_eq!(WorstCaseModel.rate(&full), 1.0);
    }

    #[test]
    fn ideal_dominates_worst_case() {
        // For any configuration, Eq. 5 ≥ Eq. 6 (upper/lower bound pair).
        for cores in [&[1u32, 48][..], &[10, 20, 48], &[5, 5, 5], &[48]] {
            let inp = inputs(cores, 48);
            assert!(IdealModel.rate(&inp) >= WorstCaseModel.rate(&inp) - 1e-12);
        }
    }

    #[test]
    fn app_aware_beats_worst_case_when_shrunk() {
        let inp = RateInputs {
            cores: &[24, 24],
            full_cores: 48,
            app: Some(AppId::Pils),
            neighbour_mem: 0.1,
        };
        let r = AppAwareModel.rate(&inp);
        assert!(r > 0.5, "scalability benefit: {r}");
        assert!(r < 1.0);
    }

    #[test]
    fn app_aware_contention_at_full_width() {
        let inp = RateInputs {
            cores: &[48],
            full_cores: 48,
            app: Some(AppId::Stream),
            neighbour_mem: 0.95,
        };
        let r = AppAwareModel.rate(&inp);
        assert!(r < 0.82, "stream vs stream contention: {r}");
        let solo = RateInputs {
            neighbour_mem: 0.0,
            ..inp
        };
        assert_eq!(AppAwareModel.rate(&solo), 1.0);
    }

    #[test]
    fn app_aware_without_app_is_worst_case() {
        let inp = inputs(&[12, 48], 48);
        assert_eq!(AppAwareModel.rate(&inp), WorstCaseModel.rate(&inp));
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(IdealModel.name(), WorstCaseModel.name());
        assert_ne!(WorstCaseModel.name(), AppAwareModel.name());
    }
}
