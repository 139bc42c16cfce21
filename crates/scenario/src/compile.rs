//! Compiling a [`Scenario`] onto the simulator: sweep expansion into
//! concrete [`RunPoint`]s, and execution of one point through
//! `slurm_sim::run_trace` (or the app-bound / SWF-replay paths).

use crate::scenario::{
    axis_key, ArrivalKind, BackfillDecl, ClusterPreset, ModelDecl, PolicyDecl, PolicyKindDecl,
    Scenario, SourceKind, TenantQueueDecl, TenantsDecl,
};
use cluster::ClusterSpec;
use drom::SharingFactor;
use sd_policy::{SdPolicy, SdPolicyConfig};
use slurm_sim::replay::{infer_cluster, replay_state};
use slurm_sim::{
    AppAwareModel, BackfillMode, Controller, IdealModel, QueuePolicy, Quota, RateModel, Scheduler,
    SimResult, SimState, SlurmConfig, StaticBackfill, Tenant, TenantRegistry, WorstCaseModel,
};
use workload::{ArrivalModel, PaperWorkload};

/// One fully resolved run: a scenario with every sweep axis substituted
/// (`scenario.sweep` is empty) plus the human-readable axis assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPoint {
    pub scenario: Scenario,
    /// `seed=1 malleable_fraction=0.5 maxsd=10` — only swept axes appear;
    /// empty for sweep-less scenarios.
    pub variant: String,
}

/// Expands the sweep cross-product, the first swept axis of
/// [`crate::scenario::AXES`] outermost, so campaign output ordering is
/// deterministic. Each point is the scenario with every swept key set to
/// one of its values; the label is the values' canonical text.
pub fn expand(s: &Scenario) -> Vec<RunPoint> {
    let axes = s.sweep.axes();
    let mut base = s.clone();
    base.sweep = Default::default();
    let runs = s.sweep.run_count();
    let mut out = Vec::with_capacity(runs);
    for n in 0..runs {
        let mut scenario = base.clone();
        let mut labels = Vec::with_capacity(axes.len());
        // `n` read as a mixed-radix number, one digit per axis.
        let mut stride = runs;
        for (axis, values) in axes {
            stride /= values.len();
            let value = &values[n / stride % values.len()];
            let key = axis_key(axis).expect("a sweep holds only known axes");
            key.set(&mut scenario, value, 0).expect("sweep values are checked when declared");
            labels.push(format!("{axis}={value}"));
        }
        out.push(RunPoint { scenario, variant: labels.join(" ") });
    }
    out
}

/// Everything one executed run produced, plus the labels the campaign
/// exporters need.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    pub scenario: String,
    pub variant: String,
    /// `static`, `MAXSD 10`, `DynAVGSD`, …
    pub policy_label: String,
    pub seed: u64,
    pub scale: f64,
    pub total_nodes: u32,
    pub total_cores: u64,
    pub result: SimResult,
}

/// Why a run point could not execute (I/O or trace problems; scenario
/// validation itself happens at parse time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError(pub String);

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RunError {}

/// The runtime model and the scheduler a `[policy]` section declares — the
/// one place either is built from a declaration, for `run_scenario` and
/// `sd-serve` alike.
pub fn build_policy(p: &PolicyDecl) -> (Box<dyn RateModel>, Box<dyn Scheduler + Send>) {
    let model: Box<dyn RateModel> = match p.model {
        ModelDecl::Ideal => Box::new(IdealModel),
        ModelDecl::WorstCase => Box::new(WorstCaseModel),
        ModelDecl::AppAware => Box::new(AppAwareModel),
    };
    let scheduler: Box<dyn Scheduler + Send> = match p.kind {
        PolicyKindDecl::Static => Box::new(StaticBackfill),
        PolicyKindDecl::Sd => Box::new(SdPolicy::new(SdPolicyConfig {
            max_slowdown: p.maxsd.to_policy(),
            max_mates: p.max_mates,
            include_free_nodes: p.include_free_nodes,
        })),
    };
    (model, scheduler)
}

/// Whether a synthetic run is big enough to need the O(R+Q) EASY pass: the
/// Curie-like trace above 15 % scale. Everything else uses the more
/// faithful conservative profile.
fn is_big_trace(w: PaperWorkload, scale: f64) -> bool {
    matches!(w, PaperWorkload::W4Curie) && scale > 0.15
}

/// The SLURM config for a resolved scenario: EASY backfill for a big trace,
/// conservative otherwise, unless the scenario pins the mode explicitly.
fn slurm_config(s: &Scenario, big_trace: bool) -> SlurmConfig {
    let mut cfg = if big_trace {
        SlurmConfig::large_scale()
    } else {
        SlurmConfig::default()
    };
    if let Some(mode) = s.slurm.backfill {
        cfg.backfill_mode = match mode {
            BackfillDecl::Easy => BackfillMode::Easy,
            BackfillDecl::Conservative => BackfillMode::Conservative,
        };
    }
    if let Some(depth) = s.slurm.backfill_depth {
        cfg.backfill_depth = depth;
    }
    if let Some(ranks) = s.slurm.ranks_per_node {
        cfg.ranks_per_node = ranks;
    }
    cfg.malleable_fraction = s.slurm.malleable_fraction;
    // The malleability draw forks from the scenario seed so seed sweeps
    // re-draw which jobs are malleable, not just their shapes.
    cfg.malleable_seed = s.seed ^ 0xD20;
    cfg
}

/// Installs a resolved `[tenants]` declaration into the SLURM config:
/// `count` equal-weight tenants and the declared queue policy.
///
/// Budgets are sized against the generated trace, using the simulator's own
/// whole-node rounding: with `quota_fraction = f < 1`, tenant `t` may start
/// jobs worth `⌈f × Σ req_nodes × req_time⌉` node-seconds over its own jobs.
/// `f ≥ 1` leaves every quota unlimited, so the tenanted run admits exactly
/// the untenanted schedule (the equivalence tests pin this).
fn apply_tenancy(cfg: &mut SlurmConfig, t: &TenantsDecl, trace: &swf::Trace, spec: &ClusterSpec) {
    cfg.queue_policy = match t.queue {
        TenantQueueDecl::Fifo => QueuePolicy::Fifo,
        TenantQueueDecl::FairShare => QueuePolicy::FairShare {
            half_life: t.half_life,
        },
    };
    if t.quota_fraction >= 1.0 {
        cfg.tenants = TenantRegistry::equal_weights(t.count, Quota::UNLIMITED);
        return;
    }
    let mut demand = vec![0u64; t.count as usize + 1];
    for j in &trace.jobs {
        let (Some(procs), Some(runtime)) = (j.procs(), j.runtime()) else {
            continue;
        };
        if runtime == 0 || j.submit < 0 {
            continue; // the simulator drops these records too
        }
        let user = j.user.max(0) as usize;
        if user == 0 || user > t.count as usize {
            continue;
        }
        let nodes = u64::from(spec.nodes_for_procs(procs).max(1));
        let req_time = j.requested_time().unwrap_or(runtime).max(runtime);
        demand[user] += nodes * req_time;
    }
    let mut registry = TenantRegistry::new();
    for id in 1..=t.count {
        let budget = (t.quota_fraction * demand[id as usize] as f64).ceil() as u64;
        registry.add(Tenant {
            quota: Quota {
                node_seconds: Some(budget),
                max_running_width: None,
            },
            ..Tenant::unlimited(id, 0)
        });
    }
    cfg.tenants = registry;
}

/// A preset machine; `None` for [`ClusterPreset::Auto`], whose machine
/// follows the workload. `nodes = None` keeps the preset's native node
/// count (full RICC/Curie, the fixed 49-node MN4 subset, 1024 MN4 nodes).
pub fn preset_spec(preset: ClusterPreset, nodes: Option<u32>) -> Option<ClusterSpec> {
    let mut spec = match preset {
        ClusterPreset::Auto => return None,
        ClusterPreset::Mn4 => ClusterSpec::marenostrum4(1024),
        ClusterPreset::Ricc => ClusterSpec::ricc(),
        ClusterPreset::Curie => ClusterSpec::cea_curie(),
        ClusterPreset::Mn4RealRun => ClusterSpec::mn4_real_run(),
    };
    if let Some(n) = nodes {
        spec.nodes = n;
    }
    Some(spec)
}

fn run_state(
    mut state: SimState,
    scheduler: Box<dyn Scheduler + Send>,
    ring: Option<std::sync::Arc<slurm_sim::TraceRing>>,
    s: &Scenario,
    variant: &str,
    scale: f64,
) -> ScenarioOutcome {
    if let Some(ring) = ring {
        state.attach_trace(ring);
    }
    let (total_nodes, total_cores) = (state.spec().nodes, state.spec().total_cores());
    let result = Controller::new(state, scheduler).run();
    ScenarioOutcome {
        scenario: s.name.clone(),
        variant: variant.to_string(),
        policy_label: match s.policy.kind {
            PolicyKindDecl::Static => "static".to_string(),
            PolicyKindDecl::Sd => s.policy.maxsd.to_policy().label(),
        },
        seed: s.seed,
        scale,
        total_nodes,
        total_cores,
        result,
    }
}

/// The static-backfill twin of a run point: the same workload, machine,
/// seed and scale under [`PolicyKindDecl::Static`]. Axes static backfill
/// never reads — the MAXSD cut-off, the mate limit, the free-nodes option,
/// the SharingFactor (only `co_launch` consults it) and the malleable
/// fraction (it only flags jobs the static scheduler treats identically) —
/// are canonicalised, so every variant of a
/// `maxsd`/`sharing`/`malleable_fraction` sweep shares one baseline run.
/// Campaign exports normalise each row against its twin's result.
pub fn baseline_point(p: &RunPoint) -> RunPoint {
    let mut s = p.scenario.clone();
    s.policy = crate::scenario::PolicyDecl {
        kind: PolicyKindDecl::Static,
        model: s.policy.model,
        ..Default::default()
    };
    s.slurm.malleable_fraction = 1.0;
    RunPoint {
        scenario: s,
        // The variant tag is canonicalised away too: two variants that differ
        // only in swept policy axes compare equal and share the baseline run.
        variant: String::new(),
    }
}

/// What tells two runs apart: the canonical render of a resolved scenario
/// without what cannot change a [`SimResult`] — its name, its description
/// and its `[slo]` section — and with the two defaults a run resolves
/// spelled out: the scale, and for a generated trace the backfill planner
/// `slurm_config` picks. Points with equal keys produce equal results, so a
/// campaign runs each key once.
pub fn run_key(s: &Scenario) -> String {
    let mut s = s.clone();
    s.name.clear();
    s.description.clear();
    s.slos.clear();
    let scale = s.effective_scale();
    s.scale = Some(scale);
    if let Some(w) = s.workload.source.paper_workload() {
        s.slurm.backfill = Some(match slurm_config(&s, is_big_trace(w, scale)).backfill_mode {
            BackfillMode::Easy => BackfillDecl::Easy,
            BackfillMode::Conservative => BackfillDecl::Conservative,
        });
    }
    s.render()
}

/// Executes one resolved run point. Deterministic: the same point always
/// produces the same [`SimResult`].
pub fn execute(p: &RunPoint) -> Result<ScenarioOutcome, RunError> {
    execute_inner(p, None)
}

/// Like [`execute`] but with decision tracing armed: every scheduler
/// decision of the run is appended to `ring` (`run_scenario --trace`).
/// The virtual-time view of the stream is as deterministic as the run.
pub fn execute_traced(
    p: &RunPoint,
    ring: std::sync::Arc<slurm_sim::TraceRing>,
) -> Result<ScenarioOutcome, RunError> {
    execute_inner(p, Some(ring))
}

fn execute_inner(
    p: &RunPoint,
    ring: Option<std::sync::Arc<slurm_sim::TraceRing>>,
) -> Result<ScenarioOutcome, RunError> {
    let s = &p.scenario;
    let scale = s.effective_scale();
    let sharing = SharingFactor::new(s.policy.sharing);
    let (model, scheduler) = build_policy(&s.policy);

    match s.workload.source {
        SourceKind::RealRun => {
            let apps = PaperWorkload::generate_apps(s.seed);
            let spec = ClusterSpec::mn4_real_run();
            let cfg = slurm_config(s, false);
            let state = SimState::with_apps(spec, cfg, &apps, model, sharing);
            Ok(run_state(state, scheduler, ring, s, &p.variant, scale))
        }
        SourceKind::Swf => {
            let path = s.workload.path.as_deref().expect("validated at parse time");
            let (trace, _skipped) = swf::parse_file(std::path::Path::new(path))
                .map_err(|e| RunError(format!("{}: {e:?}", s.name)))?;
            let mut spec = preset_spec(s.cluster.preset, s.cluster.nodes)
                .unwrap_or_else(|| infer_cluster(&trace));
            if s.cluster.preset == ClusterPreset::Auto {
                if let Some(n) = s.cluster.nodes {
                    spec.nodes = n;
                }
            }
            let big = trace.len() > 50_000;
            let cfg = slurm_config(s, big);
            let (state, kept) = replay_state(trace, spec, cfg, model, sharing);
            if kept == 0 {
                return Err(RunError(format!(
                    "{}: no simulatable jobs survived cleaning of {path}",
                    s.name
                )));
            }
            Ok(run_state(state, scheduler, ring, s, &p.variant, scale))
        }
        _ => {
            let w = s
                .workload
                .source
                .paper_workload()
                .expect("synthetic sources map to paper workloads");
            let mut gen = w.model(scale);
            let decl = &s.workload;
            if let Some(n) = decl.jobs {
                gen = gen.with_jobs(n);
            }
            if let Some(kind) = decl.arrivals {
                let mean = decl
                    .mean_interarrival
                    .unwrap_or(gen.arrivals.mean_interarrival);
                gen = gen.with_arrivals(match kind {
                    ArrivalKind::Anl => ArrivalModel::anl(mean),
                    ArrivalKind::Uniform => ArrivalModel::uniform(mean),
                    ArrivalKind::DayNight => {
                        ArrivalModel::day_night(mean, decl.day_night_contrast.unwrap_or(3.0))
                    }
                });
            } else if let Some(mean) = decl.mean_interarrival {
                gen = gen.with_mean_interarrival(mean);
            }
            if let Some(wf) = decl.weekend_factor {
                let arrivals = gen.arrivals.clone().with_weekend_factor(wf);
                gen = gen.with_arrivals(arrivals);
            }
            if decl.batch_p.is_some() || decl.batch_mean.is_some() {
                let (p_, m_) = (
                    decl.batch_p.unwrap_or(gen.batch_p),
                    decl.batch_mean.unwrap_or(gen.batch_mean),
                );
                gen = gen.with_batching(p_, m_);
            }
            if let Some(t) = &s.tenants {
                gen = gen.with_tenant_mix(t.count, t.skew);
            }

            // Presets default to the generator's (scaled) machine size so a
            // preset swap changes the node architecture, not the capacity.
            let mut spec =
                preset_spec(s.cluster.preset, Some(s.cluster.nodes.unwrap_or(gen.system_nodes)))
                    .unwrap_or_else(|| w.cluster(scale));
            if let Some(n) = s.cluster.nodes {
                spec.nodes = n;
            }
            // Express the machine in the generator's node units so every
            // sampled job fits it, whatever preset/override was chosen.
            let capacity_nodes =
                (spec.total_cores() / gen.cores_per_node.max(1) as u64).max(1) as u32;
            gen = gen.with_system_nodes(capacity_nodes);

            let trace = gen.generate(s.seed);
            let mut cfg = slurm_config(s, is_big_trace(w, scale));
            if let Some(t) = &s.tenants {
                apply_tenancy(&mut cfg, t, &trace, &spec);
            }
            let state = SimState::new(spec, cfg, &trace, model, sharing);
            Ok(run_state(state, scheduler, ring, s, &p.variant, scale))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::MaxSdDecl;

    fn tiny(source: SourceKind) -> Scenario {
        let mut s = Scenario::new("t", source);
        s.scale = Some(0.02);
        s
    }

    #[test]
    fn expand_without_sweep_is_one_point() {
        let s = tiny(SourceKind::Ricc);
        let pts = expand(&s);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].variant, "");
        assert_eq!(pts[0].scenario, s);
    }

    #[test]
    fn expand_cross_product_and_labels() {
        let mut s = tiny(SourceKind::Ricc);
        // Declared out of expansion order, as a file may.
        s.sweep.set("maxsd", &[MaxSdDecl::Value(5.0), MaxSdDecl::Infinite, MaxSdDecl::Dyn], 0).unwrap();
        s.sweep.set("seed", &[1, 2], 0).unwrap();
        s.sweep.set("malleable_fraction", &["0.0", "1e0"], 0).unwrap();
        let pts = expand(&s);
        assert_eq!(pts.len(), 2 * 2 * 3);
        assert_eq!(pts[0].variant, "seed=1 malleable_fraction=0 maxsd=5");
        let last = pts.last().unwrap();
        assert_eq!(last.variant, "seed=2 malleable_fraction=1 maxsd=dyn");
        assert_eq!(last.scenario.seed, 2);
        assert_eq!(last.scenario.slurm.malleable_fraction, 1.0);
        assert_eq!(last.scenario.policy.maxsd, MaxSdDecl::Dyn);
        assert!(last.scenario.sweep.is_empty(), "resolved points carry no sweep");
        // Every point is distinct.
        let mut variants: Vec<&str> = pts.iter().map(|p| p.variant.as_str()).collect();
        variants.sort();
        variants.dedup();
        assert_eq!(variants.len(), pts.len());
    }

    #[test]
    fn executes_synthetic_run_end_to_end() {
        let s = tiny(SourceKind::Ricc);
        let out = execute(&expand(&s)[0]).unwrap();
        assert!(out.result.outcomes.len() >= 300);
        assert_eq!(out.result.leftover_pending, 0);
        assert_eq!(out.policy_label, "DynAVGSD");
        assert!(out.total_cores > 0);
    }

    #[test]
    fn execution_is_deterministic() {
        let mut s = tiny(SourceKind::Ricc);
        s.workload.batch_p = Some(0.6);
        s.slurm.malleable_fraction = 0.5;
        let p = &expand(&s)[0];
        let a = execute(p).unwrap();
        let b = execute(p).unwrap();
        assert_eq!(a.result.outcomes, b.result.outcomes);
        assert_eq!(a.result.energy_joules, b.result.energy_joules);
    }

    #[test]
    fn malleable_fraction_zero_disables_malleability() {
        let mut s = tiny(SourceKind::Ricc);
        s.slurm.malleable_fraction = 0.0;
        let out = execute(&expand(&s)[0]).unwrap();
        assert_eq!(out.result.stats.started_malleable, 0);
        let mut s1 = tiny(SourceKind::Ricc);
        s1.slurm.malleable_fraction = 1.0;
        let out1 = execute(&expand(&s1)[0]).unwrap();
        assert!(out1.result.stats.started_malleable > 0);
    }

    #[test]
    fn static_policy_runs_baseline() {
        let mut s = tiny(SourceKind::Ricc);
        s.policy.kind = PolicyKindDecl::Static;
        let out = execute(&expand(&s)[0]).unwrap();
        assert_eq!(out.policy_label, "static");
        assert_eq!(out.result.stats.started_malleable, 0);
    }

    #[test]
    fn policy_knobs_reach_the_scheduler() {
        // Free nodes only matter once the machine is big enough to have some
        // idle beside a candidate mate: 0.1 is the smallest such scale.
        let mut one = tiny(SourceKind::Ricc);
        one.policy.max_mates = 1;
        let mut free = tiny(SourceKind::Ricc);
        free.scale = Some(0.1);
        free.policy.include_free_nodes = true;
        let malleable = |p: &RunPoint| execute(p).unwrap().result.stats.started_malleable;
        for s in [one, free] {
            let mut plain = s.clone();
            plain.policy = Default::default();
            let (p, plain) = (expand(&s).remove(0), expand(&plain).remove(0));
            assert_ne!(malleable(&p), malleable(&plain), "{:?}", s.policy);
            // Static backfill reads neither knob: the twins coincide.
            assert_eq!(baseline_point(&p), baseline_point(&plain));
        }
    }

    #[test]
    fn w4_large_scale_switches_to_easy() {
        let w4 = tiny(SourceKind::Curie);
        assert!(is_big_trace(PaperWorkload::W4Curie, 0.5));
        assert!(!is_big_trace(PaperWorkload::W4Curie, 0.02));
        assert!(!is_big_trace(PaperWorkload::W3Ricc, 1.0));
        assert_eq!(slurm_config(&w4, true).backfill_mode, BackfillMode::Easy);
        assert_eq!(slurm_config(&w4, false).backfill_mode, BackfillMode::Conservative);
    }

    #[test]
    fn cluster_override_keeps_jobs_fitting() {
        let mut s = tiny(SourceKind::Ricc);
        s.cluster.nodes = Some(24);
        let out = execute(&expand(&s)[0]).unwrap();
        assert_eq!(out.total_cores, 24 * 8);
        assert_eq!(out.result.leftover_pending, 0, "every job fits and runs");
    }

    #[test]
    fn swf_source_replays_a_file() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let path = dir.join("../../tests/fixtures/tiny.swf");
        let mut s = Scenario::new("replay", SourceKind::Swf);
        s.workload.path = Some(path.to_string_lossy().into_owned());
        let out = execute(&expand(&s)[0]).unwrap();
        assert!(out.result.outcomes.len() >= 10);
        assert_eq!(out.result.leftover_pending, 0);
    }

    #[test]
    fn swf_preset_without_nodes_uses_native_machine_size() {
        // Regression: `preset = ricc` with no `nodes` key used to build a
        // 0-node cluster on the SWF path.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let path = dir.join("../../tests/fixtures/tiny.swf");
        let mut s = Scenario::new("replay-preset", SourceKind::Swf);
        s.workload.path = Some(path.to_string_lossy().into_owned());
        s.cluster.preset = ClusterPreset::Ricc;
        let out = execute(&expand(&s)[0]).unwrap();
        assert_eq!(out.total_cores, 1024 * 8, "full RICC machine");
        assert_eq!(out.result.leftover_pending, 0);
        // And an explicit node count still overrides the preset.
        let mut s2 = s.clone();
        s2.name = "replay-preset-sized".into();
        s2.cluster.nodes = Some(32);
        let out2 = execute(&expand(&s2)[0]).unwrap();
        assert_eq!(out2.total_cores, 32 * 8);
    }

    #[test]
    fn expand_tenant_axes() {
        let mut s = tiny(SourceKind::Ricc);
        s.tenants = Some(TenantsDecl::new(2));
        s.sweep.set("tenant_count", &[2, 4], 0).unwrap();
        s.sweep.set("quota_fraction", &[0.5, 1.0], 0).unwrap();
        let pts = expand(&s);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].variant, "tenant_count=2 quota_fraction=0.5");
        let last = pts.last().unwrap();
        assert_eq!(last.variant, "tenant_count=4 quota_fraction=1");
        let t = last.scenario.tenants.as_ref().unwrap();
        assert_eq!(t.count, 4);
        assert_eq!(t.quota_fraction, 1.0);
    }

    #[test]
    fn tenanted_unlimited_quota_preserves_the_schedule() {
        let base = execute(&expand(&tiny(SourceKind::Ricc))[0]).unwrap();
        let mut s = tiny(SourceKind::Ricc);
        s.tenants = Some(TenantsDecl::new(4));
        let out = execute(&expand(&s)[0]).unwrap();
        // Unlimited quotas never bind and FIFO order is unchanged, so only
        // the tenant labels differ from the untenanted run.
        assert_eq!(out.result.stats.quota_skipped, 0);
        assert_eq!(out.result.outcomes.len(), base.result.outcomes.len());
        for (a, b) in base.result.outcomes.iter().zip(&out.result.outcomes) {
            assert_eq!(
                (a.id, a.submit, a.start, a.end, a.nodes),
                (b.id, b.submit, b.start, b.end, b.nodes)
            );
        }
        let tenants: std::collections::BTreeSet<u32> =
            out.result.outcomes.iter().map(|o| o.tenant).collect();
        assert!(tenants.iter().all(|&t| (1..=4).contains(&t)), "{tenants:?}");
        assert!(tenants.len() > 1, "the mix spreads jobs over tenants");
    }

    #[test]
    fn binding_quota_blocks_jobs_and_counts_skips() {
        let mut s = tiny(SourceKind::Ricc);
        let mut t = TenantsDecl::new(4);
        t.quota_fraction = 0.2;
        s.tenants = Some(t);
        let out = execute(&expand(&s)[0]).unwrap();
        assert!(out.result.stats.quota_skipped > 0, "quota never bound");
        assert!(
            out.result.leftover_pending > 0,
            "over-budget jobs stay pending (charges are never refunded)"
        );
    }

    #[test]
    fn fair_share_tenants_execute_deterministically() {
        let mut s = tiny(SourceKind::Ricc);
        let mut t = TenantsDecl::new(3);
        t.skew = 1.5;
        t.queue = TenantQueueDecl::FairShare;
        s.tenants = Some(t);
        let p = &expand(&s)[0];
        let a = execute(p).unwrap();
        let b = execute(p).unwrap();
        assert_eq!(a.result.outcomes, b.result.outcomes);
        assert_eq!(a.result.energy_joules, b.result.energy_joules);
        assert_eq!(a.result.leftover_pending, 0);
    }

    #[test]
    fn missing_swf_is_a_run_error() {
        let mut s = Scenario::new("gone", SourceKind::Swf);
        s.workload.path = Some("/nonexistent/trace.swf".into());
        assert!(execute(&expand(&s)[0]).is_err());
    }
}
