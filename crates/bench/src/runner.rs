//! Experiment execution: one simulation run or a parallel sweep.

use drom::SharingFactor;
use sd_policy::{MaxSlowdown, SdPolicy, SdPolicyConfig};
use slurm_sim::{
    AppAwareModel, Controller, IdealModel, RateModel, SimResult, SimState, SlurmConfig,
    StaticBackfill, WorstCaseModel,
};
#[cfg(test)]
use slurm_sim::BackfillMode;
use workload::PaperWorkload;

/// Which runtime model drives the simulator (paper §3.4 / §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    Ideal,
    WorstCase,
    /// Application-behaviour model (Workload 5 / Fig. 9).
    AppAware,
}

impl ModelKind {
    pub fn instantiate(self) -> Box<dyn RateModel> {
        match self {
            ModelKind::Ideal => Box::new(IdealModel),
            ModelKind::WorstCase => Box::new(WorstCaseModel),
            ModelKind::AppAware => Box::new(AppAwareModel),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Ideal => "ideal",
            ModelKind::WorstCase => "worst-case",
            ModelKind::AppAware => "app-aware",
        }
    }
}

/// Which scheduler runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// The baseline everything is normalised against.
    StaticBackfill,
    /// SD-Policy with the given MAX_SLOWDOWN cut-off.
    Sd(MaxSlowdown),
}

impl PolicyKind {
    pub fn label(self) -> String {
        match self {
            PolicyKind::StaticBackfill => "static".to_string(),
            PolicyKind::Sd(m) => m.label(),
        }
    }
}

/// A fully specified experiment run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: PaperWorkload,
    pub policy: PolicyKind,
    pub model: ModelKind,
    pub scale: f64,
    pub seed: u64,
    pub sharing: SharingFactor,
    /// Override the SLURM config (None = sensible default for the scale).
    pub slurm: Option<SlurmConfig>,
    /// Override policy tunables (cut-off is taken from `policy`).
    pub sd_cfg: Option<SdPolicyConfig>,
}

impl RunConfig {
    pub fn new(workload: PaperWorkload, policy: PolicyKind) -> RunConfig {
        RunConfig {
            workload,
            policy,
            model: ModelKind::Ideal,
            scale: default_scale(workload),
            seed: 42,
            sharing: SharingFactor::HALF,
            slurm: None,
            sd_cfg: None,
        }
    }

    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The SLURM config this run executes with (the explicit override or
    /// the per-workload heuristic).
    pub fn slurm_config(&self) -> SlurmConfig {
        if let Some(c) = &self.slurm {
            return c.clone();
        }
        // The full Curie trace needs the O(R+Q) EASY pass; everything else
        // uses the more faithful conservative profile.
        let big = matches!(self.workload, PaperWorkload::W4Curie) && self.scale > 0.15;
        if big {
            SlurmConfig::large_scale()
        } else {
            SlurmConfig::default()
        }
    }
}

/// Default CI-sized scales per workload: a few thousand jobs, seconds of
/// wall time, same offered load as the paper-scale runs.
pub fn default_scale(w: PaperWorkload) -> f64 {
    w.default_ci_scale()
}

/// Executes one experiment run.
pub fn run_config(cfg: &RunConfig) -> SimResult {
    let slurm = cfg.slurm_config();
    let model = cfg.model.instantiate();
    let state = if cfg.workload == PaperWorkload::W5RealRun {
        let apps = PaperWorkload::generate_apps(cfg.seed);
        SimState::with_apps(
            cfg.workload.cluster(cfg.scale),
            slurm,
            &apps,
            model,
            cfg.sharing,
        )
    } else {
        let trace = cfg.workload.generate(cfg.seed, cfg.scale);
        SimState::new(
            cfg.workload.cluster(cfg.scale),
            slurm,
            &trace,
            model,
            cfg.sharing,
        )
    };
    match cfg.policy {
        PolicyKind::StaticBackfill => Controller::new(state, StaticBackfill).run(),
        PolicyKind::Sd(cutoff) => {
            let mut sd_cfg = cfg.sd_cfg.clone().unwrap_or_default();
            sd_cfg.max_slowdown = cutoff;
            Controller::new(state, SdPolicy::new(sd_cfg)).run()
        }
    }
}

/// Runs many configurations in parallel (one scoped thread each, bounded by
/// the machine's parallelism) and returns results in input order.
pub fn sweep(configs: &[RunConfig]) -> Vec<SimResult> {
    sweep_with(configs, None, run_config)
}

/// Generic fan-out over scoped threads: applies `run` to every item and
/// returns results in input order. `threads = None` uses the machine's
/// available parallelism; the scenario campaign runner and the figure
/// binaries share this pool.
pub fn sweep_with<T, R>(items: &[T], threads: Option<usize>, run: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let max_threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    let results: Vec<std::sync::Mutex<Option<R>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..max_threads.max(1).min(items.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let res = run(&items[i]);
                *results[i].lock().expect("sweep lock poisoned") = Some(res);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep lock poisoned")
                .expect("every item ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_run_completes_all_jobs() {
        let cfg = RunConfig::new(PaperWorkload::W3Ricc, PolicyKind::StaticBackfill)
            .with_scale(0.02);
        let res = run_config(&cfg);
        assert!(res.outcomes.len() >= 300);
        assert_eq!(res.leftover_pending, 0);
        assert_eq!(res.leftover_running, 0);
    }

    #[test]
    fn sd_run_uses_malleability() {
        let cfg = RunConfig::new(
            PaperWorkload::W3Ricc,
            PolicyKind::Sd(MaxSlowdown::Infinite),
        )
        .with_scale(0.02);
        let res = run_config(&cfg);
        assert_eq!(res.leftover_pending, 0);
        assert!(res.stats.started_malleable > 0, "malleability exercised");
    }

    #[test]
    fn sweep_matches_individual_runs() {
        let cfgs = vec![
            RunConfig::new(PaperWorkload::W3Ricc, PolicyKind::StaticBackfill).with_scale(0.02),
            RunConfig::new(PaperWorkload::W3Ricc, PolicyKind::Sd(MaxSlowdown::DynAvg))
                .with_scale(0.02),
        ];
        let swept = sweep(&cfgs);
        let solo0 = run_config(&cfgs[0]);
        assert_eq!(swept[0].outcomes, solo0.outcomes, "sweep is deterministic");
        assert_eq!(swept.len(), 2);
    }

    #[test]
    fn sweep_with_preserves_order_and_honours_thread_cap() {
        let items: Vec<u64> = (0..37).collect();
        let out = sweep_with(&items, Some(3), |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        // A zero thread request still runs everything (floored to 1).
        let out1 = sweep_with(&items, Some(0), |x| x + 1);
        assert_eq!(out1.len(), 37);
    }

    #[test]
    fn labels() {
        assert_eq!(PolicyKind::StaticBackfill.label(), "static");
        assert_eq!(PolicyKind::Sd(MaxSlowdown::Static(5.0)).label(), "MAXSD 5");
        assert_eq!(ModelKind::Ideal.label(), "ideal");
    }

    #[test]
    fn w4_large_scale_switches_to_easy() {
        let cfg = RunConfig::new(PaperWorkload::W4Curie, PolicyKind::StaticBackfill)
            .with_scale(0.5);
        assert_eq!(cfg.slurm_config().backfill_mode, BackfillMode::Easy);
        let small = RunConfig::new(PaperWorkload::W4Curie, PolicyKind::StaticBackfill)
            .with_scale(0.02);
        assert_eq!(
            small.slurm_config().backfill_mode,
            BackfillMode::Conservative
        );
    }
}
