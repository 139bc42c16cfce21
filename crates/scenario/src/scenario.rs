//! The typed scenario model: what an experiment *is*, independent of any
//! binary. Parsed from the [`crate::format`] text form, rendered back
//! canonically (`parse(render(s)) == s`), validated with line-precise
//! errors, and compiled onto the simulator by [`crate::compile`].

use crate::format::{
    parse_f64, parse_list, parse_raw, parse_u32, parse_u64, parse_usize, render_list, ParseError,
    RawEntry, RawSection,
};
use std::fmt;
use workload::PaperWorkload;

/// Which machine preset a scenario runs on. `Auto` derives the machine from
/// the workload source (the paper's Table 1 pairing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterPreset {
    #[default]
    Auto,
    /// MareNostrum4-like 48-core nodes.
    Mn4,
    /// RICC-like 8-core nodes.
    Ricc,
    /// CEA-Curie-like 16-core nodes.
    Curie,
    /// The 49-node MN4 real-run subset.
    Mn4RealRun,
}

impl ClusterPreset {
    fn parse(e: &RawEntry) -> Result<Self, ParseError> {
        match e.value.as_str() {
            "auto" => Ok(ClusterPreset::Auto),
            "mn4" => Ok(ClusterPreset::Mn4),
            "ricc" => Ok(ClusterPreset::Ricc),
            "curie" => Ok(ClusterPreset::Curie),
            "mn4_real_run" => Ok(ClusterPreset::Mn4RealRun),
            v => Err(ParseError::new(
                e.line,
                format!("`preset`: unknown cluster preset `{v}` (auto|mn4|ricc|curie|mn4_real_run)"),
            )),
        }
    }

    fn render(self) -> &'static str {
        match self {
            ClusterPreset::Auto => "auto",
            ClusterPreset::Mn4 => "mn4",
            ClusterPreset::Ricc => "ricc",
            ClusterPreset::Curie => "curie",
            ClusterPreset::Mn4RealRun => "mn4_real_run",
        }
    }
}

/// Machine declaration: a preset plus an optional node-count override.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterDecl {
    pub preset: ClusterPreset,
    pub nodes: Option<u32>,
}

/// Where the jobs come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Cirne model, user estimates (paper Workload 1).
    Cirne,
    /// Cirne model, exact estimates (Workload 2).
    CirneIdeal,
    /// RICC-like synthetic trace (Workload 3).
    Ricc,
    /// CEA-Curie-like synthetic trace (Workload 4).
    Curie,
    /// The real-run application workload (Workload 5).
    RealRun,
    /// Replay a genuine SWF file (requires `path`).
    Swf,
}

impl SourceKind {
    fn parse(e: &RawEntry) -> Result<Self, ParseError> {
        Self::parse_str(&e.value, e.line)
    }

    /// Parses the `source` vocabulary from a bare string (shared with the
    /// `sd-validate` expectation files).
    pub fn parse_str(v: &str, line: usize) -> Result<Self, ParseError> {
        match v {
            "cirne" => Ok(SourceKind::Cirne),
            "cirne_ideal" => Ok(SourceKind::CirneIdeal),
            "ricc" => Ok(SourceKind::Ricc),
            "curie" => Ok(SourceKind::Curie),
            "real_run" => Ok(SourceKind::RealRun),
            "swf" => Ok(SourceKind::Swf),
            v => Err(ParseError::new(
                line,
                format!(
                    "`source`: unknown workload source `{v}` \
                     (cirne|cirne_ideal|ricc|curie|real_run|swf)"
                ),
            )),
        }
    }

    fn render(self) -> &'static str {
        match self {
            SourceKind::Cirne => "cirne",
            SourceKind::CirneIdeal => "cirne_ideal",
            SourceKind::Ricc => "ricc",
            SourceKind::Curie => "curie",
            SourceKind::RealRun => "real_run",
            SourceKind::Swf => "swf",
        }
    }

    /// The paper workload backing a synthetic source (None for SWF replay).
    pub fn paper_workload(self) -> Option<PaperWorkload> {
        match self {
            SourceKind::Cirne => Some(PaperWorkload::W1Cirne),
            SourceKind::CirneIdeal => Some(PaperWorkload::W2CirneIdeal),
            SourceKind::Ricc => Some(PaperWorkload::W3Ricc),
            SourceKind::Curie => Some(PaperWorkload::W4Curie),
            SourceKind::RealRun => Some(PaperWorkload::W5RealRun),
            SourceKind::Swf => None,
        }
    }
}

/// Arrival-pattern override for synthetic sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// The source's native pattern (ANL daily cycle).
    Anl,
    /// Constant-rate Poisson.
    Uniform,
    /// Square-wave day/night cycle (see `day_night_contrast`).
    DayNight,
}

impl ArrivalKind {
    fn parse(e: &RawEntry) -> Result<Self, ParseError> {
        match e.value.as_str() {
            "anl" => Ok(ArrivalKind::Anl),
            "uniform" => Ok(ArrivalKind::Uniform),
            "day_night" => Ok(ArrivalKind::DayNight),
            v => Err(ParseError::new(
                e.line,
                format!("`arrivals`: unknown pattern `{v}` (anl|uniform|day_night)"),
            )),
        }
    }

    fn render(self) -> &'static str {
        match self {
            ArrivalKind::Anl => "anl",
            ArrivalKind::Uniform => "uniform",
            ArrivalKind::DayNight => "day_night",
        }
    }
}

/// Workload declaration: source plus optional generator overrides. The
/// overrides only apply to synthetic sources; `path` only to SWF replay.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDecl {
    pub source: SourceKind,
    /// SWF file path (required iff `source = swf`).
    pub path: Option<String>,
    pub jobs: Option<usize>,
    pub mean_interarrival: Option<f64>,
    pub arrivals: Option<ArrivalKind>,
    /// Day/night intensity ratio (only with `arrivals = day_night`).
    pub day_night_contrast: Option<f64>,
    pub weekend_factor: Option<f64>,
    pub batch_p: Option<f64>,
    pub batch_mean: Option<f64>,
}

impl WorkloadDecl {
    pub fn new(source: SourceKind) -> WorkloadDecl {
        WorkloadDecl {
            source,
            path: None,
            jobs: None,
            mean_interarrival: None,
            arrivals: None,
            day_night_contrast: None,
            weekend_factor: None,
            batch_p: None,
            batch_mean: None,
        }
    }

    fn has_generator_tweaks(&self) -> bool {
        self.jobs.is_some()
            || self.mean_interarrival.is_some()
            || self.arrivals.is_some()
            || self.day_night_contrast.is_some()
            || self.weekend_factor.is_some()
            || self.batch_p.is_some()
            || self.batch_mean.is_some()
    }
}

/// The MAX_SLOWDOWN cut-off in declaration form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxSdDecl {
    Value(f64),
    Infinite,
    Dyn,
}

impl MaxSdDecl {
    /// Parses the `maxsd` vocabulary (`number | inf | dyn`); shared with the
    /// `sd-validate` expectation files.
    pub fn parse_str(v: &str, line: usize) -> Result<Self, ParseError> {
        match v {
            "inf" => Ok(MaxSdDecl::Infinite),
            "dyn" => Ok(MaxSdDecl::Dyn),
            v => {
                let x: f64 = v.parse().map_err(|_| {
                    ParseError::new(line, format!("`maxsd`: expected a number, `inf` or `dyn`, got `{v}`"))
                })?;
                if !(x > 1.0 && x.is_finite()) {
                    return Err(ParseError::new(
                        line,
                        format!("`maxsd`: cut-off must be a finite number > 1, got {x}"),
                    ));
                }
                Ok(MaxSdDecl::Value(x))
            }
        }
    }

    /// Converts to the policy crate's cut-off type.
    pub fn to_policy(self) -> sd_policy::MaxSlowdown {
        match self {
            MaxSdDecl::Value(v) => sd_policy::MaxSlowdown::Static(v),
            MaxSdDecl::Infinite => sd_policy::MaxSlowdown::Infinite,
            MaxSdDecl::Dyn => sd_policy::MaxSlowdown::DynAvg,
        }
    }
}

impl fmt::Display for MaxSdDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaxSdDecl::Value(v) => write!(f, "{v}"),
            MaxSdDecl::Infinite => write!(f, "inf"),
            MaxSdDecl::Dyn => write!(f, "dyn"),
        }
    }
}

/// Which scheduler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKindDecl {
    /// Static backfill baseline.
    Static,
    /// The SD-Policy with a MAXSD cut-off.
    Sd,
}

/// Which runtime model drives malleable execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelDecl {
    Ideal,
    WorstCase,
    AppAware,
}

impl ModelDecl {
    fn parse(e: &RawEntry) -> Result<Self, ParseError> {
        Self::parse_str(&e.value, e.line)
    }

    /// Parses the `model` vocabulary from a bare string (shared with the
    /// `sd-validate` expectation files).
    pub fn parse_str(v: &str, line: usize) -> Result<Self, ParseError> {
        match v {
            "ideal" => Ok(ModelDecl::Ideal),
            "worst_case" => Ok(ModelDecl::WorstCase),
            "app_aware" => Ok(ModelDecl::AppAware),
            v => Err(ParseError::new(
                line,
                format!("`model`: unknown runtime model `{v}` (ideal|worst_case|app_aware)"),
            )),
        }
    }

    fn render(self) -> &'static str {
        match self {
            ModelDecl::Ideal => "ideal",
            ModelDecl::WorstCase => "worst_case",
            ModelDecl::AppAware => "app_aware",
        }
    }
}

/// Scheduler + runtime-model declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDecl {
    pub kind: PolicyKindDecl,
    pub maxsd: MaxSdDecl,
    pub model: ModelDecl,
    /// SharingFactor in `[0, 1)`.
    pub sharing: f64,
    /// Maximum mates per co-schedule, the paper's `m` (≥ 1).
    pub max_mates: usize,
    /// Let idle nodes count toward the weight constraint (paper §3.2.4).
    pub include_free_nodes: bool,
}

impl Default for PolicyDecl {
    fn default() -> Self {
        let sd = sd_policy::SdPolicyConfig::default();
        PolicyDecl {
            kind: PolicyKindDecl::Sd,
            maxsd: MaxSdDecl::Dyn,
            model: ModelDecl::Ideal,
            sharing: 0.5,
            max_mates: sd.max_mates,
            include_free_nodes: sd.include_free_nodes,
        }
    }
}

/// Backfill planner choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackfillDecl {
    Easy,
    Conservative,
}

/// SLURM-side knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SlurmDecl {
    pub backfill: Option<BackfillDecl>,
    pub backfill_depth: Option<usize>,
    /// Fraction of jobs that are malleable, in `[0, 1]`.
    pub malleable_fraction: f64,
    pub ranks_per_node: Option<u32>,
}

impl Default for SlurmDecl {
    fn default() -> Self {
        SlurmDecl {
            backfill: None,
            backfill_depth: None,
            malleable_fraction: 1.0,
            ranks_per_node: None,
        }
    }
}

/// How the backfill pass orders the pending queue, in declaration form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TenantQueueDecl {
    /// Submit order (SLURM default priority).
    #[default]
    Fifo,
    /// Usage-decayed fair-share priority.
    FairShare,
}

impl TenantQueueDecl {
    fn parse(e: &RawEntry) -> Result<Self, ParseError> {
        match e.value.as_str() {
            "fifo" => Ok(TenantQueueDecl::Fifo),
            "fair_share" => Ok(TenantQueueDecl::FairShare),
            v => Err(ParseError::new(
                e.line,
                format!("`queue`: unknown queue policy `{v}` (fifo|fair_share)"),
            )),
        }
    }

    fn render(self) -> &'static str {
        match self {
            TenantQueueDecl::Fifo => "fifo",
            TenantQueueDecl::FairShare => "fair_share",
        }
    }
}

/// Fair-share decay half-life default: one day, the classic SLURM
/// `PriorityDecayHalfLife` starting point.
pub const DEFAULT_HALF_LIFE: u64 = 86_400;

/// Multi-tenancy declaration: the tenant population stamped onto the
/// synthetic trace, the per-tenant quota, and the queue order.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantsDecl {
    /// Number of equal-weight tenants `1..=count` (project 0).
    pub count: u32,
    /// Zipf popularity exponent over tenants (`0` = uniform): tenant `k`
    /// draws jobs with weight `k^-skew`.
    pub skew: f64,
    /// Each tenant's node-second budget as a fraction of its total requested
    /// node-seconds in the generated trace; `≥ 1` (the default) means
    /// unlimited — every job admissible, quotas never bind.
    pub quota_fraction: f64,
    pub queue: TenantQueueDecl,
    /// Fair-share usage decay half-life in seconds (`0` disables decay).
    pub half_life: u64,
}

impl TenantsDecl {
    /// `count` equal tenants, uniform popularity, unlimited quota, FIFO.
    pub fn new(count: u32) -> TenantsDecl {
        TenantsDecl {
            count,
            skew: 0.0,
            quota_fraction: 1.0,
            queue: TenantQueueDecl::Fifo,
            half_life: DEFAULT_HALF_LIFE,
        }
    }
}

/// The sweep axes: each non-empty axis multiplies the campaign's run count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepDecl {
    pub malleable_fraction: Vec<f64>,
    pub maxsd: Vec<MaxSdDecl>,
    pub seed: Vec<u64>,
    pub scale: Vec<f64>,
    pub sharing: Vec<f64>,
    /// SLURM `bf_max_job_test` values (scheduler-cost axis).
    pub backfill_depth: Vec<usize>,
    /// Day/night intensity ratios (arrival-contrast axis; requires
    /// `arrivals = day_night`).
    pub day_night_contrast: Vec<f64>,
    /// Tenant population sizes (requires a `[tenants]` section).
    pub tenant_count: Vec<u32>,
    /// Zipf popularity exponents (requires a `[tenants]` section).
    pub tenant_skew: Vec<f64>,
    /// Per-tenant budget fractions (requires a `[tenants]` section).
    pub quota_fraction: Vec<f64>,
}

impl SweepDecl {
    pub fn is_empty(&self) -> bool {
        self.malleable_fraction.is_empty()
            && self.maxsd.is_empty()
            && self.seed.is_empty()
            && self.scale.is_empty()
            && self.sharing.is_empty()
            && self.backfill_depth.is_empty()
            && self.day_night_contrast.is_empty()
            && self.tenant_count.is_empty()
            && self.tenant_skew.is_empty()
            && self.quota_fraction.is_empty()
    }

    /// Number of runs the cross-product expands to.
    pub fn run_count(&self) -> usize {
        let n = |v: usize| v.max(1);
        n(self.malleable_fraction.len())
            * n(self.maxsd.len())
            * n(self.seed.len())
            * n(self.scale.len())
            * n(self.sharing.len())
            * n(self.backfill_depth.len())
            * n(self.day_night_contrast.len())
            * n(self.tenant_count.len())
            * n(self.tenant_skew.len())
            * n(self.quota_fraction.len())
    }
}

/// A fully declared experiment: one parseable/renderable unit. Expansion of
/// the sweep axes and execution live in [`crate::compile`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Registry key; `[A-Za-z0-9_-]+`.
    pub name: String,
    pub description: String,
    pub seed: u64,
    /// None → the source's default CI scale.
    pub scale: Option<f64>,
    pub cluster: ClusterDecl,
    pub workload: WorkloadDecl,
    pub policy: PolicyDecl,
    pub slurm: SlurmDecl,
    /// None → untenanted: no registry, no quotas, FIFO queue.
    pub tenants: Option<TenantsDecl>,
    /// Declared service-level objectives, evaluated offline by
    /// `run_scenario` and live by `sd-serve --slo` (DESIGN.md §15).
    pub slos: Vec<sd_obs::SloSpec>,
    pub sweep: SweepDecl,
}

impl Scenario {
    /// A minimal scenario on the given source, everything else defaulted.
    pub fn new(name: &str, source: SourceKind) -> Scenario {
        Scenario {
            name: name.to_string(),
            description: String::new(),
            seed: 42,
            scale: None,
            cluster: ClusterDecl::default(),
            workload: WorkloadDecl::new(source),
            policy: PolicyDecl::default(),
            slurm: SlurmDecl::default(),
            tenants: None,
            slos: Vec::new(),
            sweep: SweepDecl::default(),
        }
    }

    /// A copy pinned to an explicit scale (CLI `--scale` override, tests).
    pub fn at_scale(&self, scale: f64) -> Scenario {
        let mut s = self.clone();
        s.scale = Some(scale);
        s.sweep.scale.clear();
        s
    }

    /// The effective scale (explicit, or the source's CI default).
    pub fn effective_scale(&self) -> f64 {
        self.scale.unwrap_or_else(|| {
            self.workload
                .source
                .paper_workload()
                .map(|w| w.default_ci_scale())
                .unwrap_or(1.0)
        })
    }

    // ----- parsing -----

    /// Parses and validates a scenario document.
    pub fn parse(text: &str) -> Result<Scenario, ParseError> {
        let doc = parse_raw(text)?;
        let meta = doc
            .section("scenario")
            .ok_or_else(|| ParseError::new(1, "missing [scenario] section"))?;
        let mut s = {
            let name_entry = meta
                .get("name")
                .ok_or_else(|| ParseError::new(meta.line, "[scenario] needs a `name`"))?;
            check_name(&name_entry.value, name_entry.line)?;
            // Source is needed up front to build the struct; default W3-like
            // only until [workload] is read (it is required below).
            Scenario::new(&name_entry.value, SourceKind::Ricc)
        };
        let mut saw_workload = false;
        for section in &doc.sections {
            match section.name.as_str() {
                "scenario" => s.parse_meta(section)?,
                "cluster" => s.parse_cluster(section)?,
                "workload" => {
                    saw_workload = true;
                    s.parse_workload(section)?;
                }
                "policy" => s.parse_policy(section)?,
                "slurm" => s.parse_slurm(section)?,
                "tenants" => s.parse_tenants(section)?,
                "slo" => s.parse_slo(section)?,
                "sweep" => s.parse_sweep(section)?,
                other => {
                    return Err(ParseError::new(
                        section.line,
                        format!(
                            "unknown section [{other}] \
                             (scenario|cluster|workload|policy|slurm|tenants|slo|sweep)"
                        ),
                    ))
                }
            }
        }
        if !saw_workload {
            return Err(ParseError::new(meta.line, "missing [workload] section"));
        }
        s.cross_validate(&doc)?;
        Ok(s)
    }

    fn parse_meta(&mut self, sec: &RawSection) -> Result<(), ParseError> {
        for e in &sec.entries {
            match e.key.as_str() {
                "name" => {} // consumed above
                "description" => self.description = e.value.clone(),
                "seed" => self.seed = parse_u64(e)?,
                "scale" => {
                    let v = parse_f64(e)?;
                    check_positive("scale", v, e.line)?;
                    self.scale = Some(v);
                }
                k => return Err(unknown_key(k, "scenario", e.line)),
            }
        }
        Ok(())
    }

    fn parse_cluster(&mut self, sec: &RawSection) -> Result<(), ParseError> {
        for e in &sec.entries {
            match e.key.as_str() {
                "preset" => self.cluster.preset = ClusterPreset::parse(e)?,
                "nodes" => {
                    let n = parse_u32(e)?;
                    if n == 0 {
                        return Err(ParseError::new(e.line, "`nodes` must be at least 1"));
                    }
                    self.cluster.nodes = Some(n);
                }
                k => return Err(unknown_key(k, "cluster", e.line)),
            }
        }
        Ok(())
    }

    fn parse_workload(&mut self, sec: &RawSection) -> Result<(), ParseError> {
        let src = sec
            .get("source")
            .ok_or_else(|| ParseError::new(sec.line, "[workload] needs a `source`"))?;
        self.workload.source = SourceKind::parse(src)?;
        for e in &sec.entries {
            match e.key.as_str() {
                "source" => {}
                "path" => self.workload.path = Some(e.value.clone()),
                "jobs" => {
                    let n = parse_usize(e)?;
                    if n == 0 {
                        return Err(ParseError::new(e.line, "`jobs` must be at least 1"));
                    }
                    self.workload.jobs = Some(n);
                }
                "mean_interarrival" => {
                    let v = parse_f64(e)?;
                    check_positive("mean_interarrival", v, e.line)?;
                    self.workload.mean_interarrival = Some(v);
                }
                "arrivals" => self.workload.arrivals = Some(ArrivalKind::parse(e)?),
                "day_night_contrast" => {
                    let v = parse_f64(e)?;
                    if !(v >= 1.0 && v.is_finite()) {
                        return Err(ParseError::new(
                            e.line,
                            format!("`day_night_contrast` must be ≥ 1, got {v}"),
                        ));
                    }
                    self.workload.day_night_contrast = Some(v);
                }
                "weekend_factor" => {
                    let v = parse_f64(e)?;
                    check_unit_range("weekend_factor", v, e.line, true)?;
                    self.workload.weekend_factor = Some(v);
                }
                "batch_p" => {
                    let v = parse_f64(e)?;
                    check_unit_range("batch_p", v, e.line, true)?;
                    self.workload.batch_p = Some(v);
                }
                "batch_mean" => {
                    let v = parse_f64(e)?;
                    if !(v >= 0.0 && v.is_finite()) {
                        return Err(ParseError::new(
                            e.line,
                            format!("`batch_mean` must be ≥ 0, got {v}"),
                        ));
                    }
                    self.workload.batch_mean = Some(v);
                }
                k => return Err(unknown_key(k, "workload", e.line)),
            }
        }
        Ok(())
    }

    fn parse_policy(&mut self, sec: &RawSection) -> Result<(), ParseError> {
        for e in &sec.entries {
            match e.key.as_str() {
                "kind" => {
                    self.policy.kind = match e.value.as_str() {
                        "static" => PolicyKindDecl::Static,
                        "sd" => PolicyKindDecl::Sd,
                        v => {
                            return Err(ParseError::new(
                                e.line,
                                format!("`kind`: unknown policy `{v}` (static|sd)"),
                            ))
                        }
                    }
                }
                "maxsd" => self.policy.maxsd = MaxSdDecl::parse_str(&e.value, e.line)?,
                "model" => self.policy.model = ModelDecl::parse(e)?,
                "sharing" => {
                    let v = parse_f64(e)?;
                    check_unit_range("sharing", v, e.line, false)?;
                    self.policy.sharing = v;
                }
                "max_mates" => {
                    let n = parse_usize(e)?;
                    if n == 0 {
                        return Err(ParseError::new(e.line, "`max_mates` must be at least 1"));
                    }
                    self.policy.max_mates = n;
                }
                "include_free_nodes" => {
                    self.policy.include_free_nodes = e.value.parse().map_err(|_| {
                        let msg = format!("`include_free_nodes`: expected true or false, got `{}`", e.value);
                        ParseError::new(e.line, msg)
                    })?
                }
                k => return Err(unknown_key(k, "policy", e.line)),
            }
        }
        Ok(())
    }

    fn parse_slurm(&mut self, sec: &RawSection) -> Result<(), ParseError> {
        for e in &sec.entries {
            match e.key.as_str() {
                "backfill" => {
                    self.slurm.backfill = Some(match e.value.as_str() {
                        "easy" => BackfillDecl::Easy,
                        "conservative" => BackfillDecl::Conservative,
                        v => {
                            return Err(ParseError::new(
                                e.line,
                                format!("`backfill`: unknown mode `{v}` (easy|conservative)"),
                            ))
                        }
                    })
                }
                "backfill_depth" => {
                    let n = parse_usize(e)?;
                    if n == 0 {
                        return Err(ParseError::new(e.line, "`backfill_depth` must be ≥ 1"));
                    }
                    self.slurm.backfill_depth = Some(n);
                }
                "malleable_fraction" => {
                    let v = parse_f64(e)?;
                    check_unit_range("malleable_fraction", v, e.line, true)?;
                    self.slurm.malleable_fraction = v;
                }
                "ranks_per_node" => {
                    let n = parse_u32(e)?;
                    if n == 0 {
                        return Err(ParseError::new(e.line, "`ranks_per_node` must be ≥ 1"));
                    }
                    self.slurm.ranks_per_node = Some(n);
                }
                k => return Err(unknown_key(k, "slurm", e.line)),
            }
        }
        Ok(())
    }

    fn parse_tenants(&mut self, sec: &RawSection) -> Result<(), ParseError> {
        let count_entry = sec
            .get("count")
            .ok_or_else(|| ParseError::new(sec.line, "[tenants] needs a `count`"))?;
        let count = parse_u32(count_entry)?;
        if count == 0 {
            return Err(ParseError::new(count_entry.line, "`count` must be at least 1"));
        }
        let mut t = TenantsDecl::new(count);
        for e in &sec.entries {
            match e.key.as_str() {
                "count" => {}
                "skew" => {
                    let v = parse_f64(e)?;
                    if !(v >= 0.0 && v.is_finite()) {
                        return Err(ParseError::new(
                            e.line,
                            format!("`skew` must be ≥ 0, got {v}"),
                        ));
                    }
                    t.skew = v;
                }
                "quota_fraction" => {
                    let v = parse_f64(e)?;
                    check_positive("quota_fraction", v, e.line)?;
                    t.quota_fraction = v;
                }
                "queue" => t.queue = TenantQueueDecl::parse(e)?,
                "half_life" => t.half_life = parse_u64(e)?,
                k => return Err(unknown_key(k, "tenants", e.line)),
            }
        }
        self.tenants = Some(t);
        Ok(())
    }

    fn parse_slo(&mut self, sec: &RawSection) -> Result<(), ParseError> {
        for e in &sec.entries {
            if !sd_obs::KNOWN_KEYS.contains(&e.key.as_str()) {
                return Err(ParseError::new(
                    e.line,
                    format!(
                        "unknown objective `{}` in [slo] ({})",
                        e.key,
                        sd_obs::KNOWN_KEYS.join("|")
                    ),
                ));
            }
            if self.slos.iter().any(|s| s.name == e.key) {
                return Err(ParseError::new(
                    e.line,
                    format!("duplicate objective `{}` in [slo]", e.key),
                ));
            }
            let v = parse_f64(e)?;
            let spec = sd_obs::SloSpec::parse(&e.key, v)
                .map_err(|msg| ParseError::new(e.line, msg))?;
            self.slos.push(spec);
        }
        Ok(())
    }

    fn parse_sweep(&mut self, sec: &RawSection) -> Result<(), ParseError> {
        for e in &sec.entries {
            let items = parse_list(e)?;
            match e.key.as_str() {
                "malleable_fraction" => {
                    for it in &items {
                        let v: f64 = it.parse().map_err(|_| list_num_err(e, it))?;
                        check_unit_range("malleable_fraction", v, e.line, true)?;
                        self.sweep.malleable_fraction.push(v);
                    }
                }
                "maxsd" => {
                    for it in &items {
                        self.sweep.maxsd.push(MaxSdDecl::parse_str(it, e.line)?);
                    }
                }
                "seed" => {
                    for it in &items {
                        self.sweep.seed.push(it.parse().map_err(|_| list_num_err(e, it))?);
                    }
                }
                "scale" => {
                    for it in &items {
                        let v: f64 = it.parse().map_err(|_| list_num_err(e, it))?;
                        check_positive("scale", v, e.line)?;
                        self.sweep.scale.push(v);
                    }
                }
                "sharing" => {
                    for it in &items {
                        let v: f64 = it.parse().map_err(|_| list_num_err(e, it))?;
                        check_unit_range("sharing", v, e.line, false)?;
                        self.sweep.sharing.push(v);
                    }
                }
                "backfill_depth" => {
                    for it in &items {
                        let v: usize = it.parse().map_err(|_| list_num_err(e, it))?;
                        if v == 0 {
                            return Err(ParseError::new(e.line, "`backfill_depth` must be ≥ 1"));
                        }
                        self.sweep.backfill_depth.push(v);
                    }
                }
                "day_night_contrast" => {
                    for it in &items {
                        let v: f64 = it.parse().map_err(|_| list_num_err(e, it))?;
                        if !(v >= 1.0 && v.is_finite()) {
                            return Err(ParseError::new(
                                e.line,
                                format!("`day_night_contrast` must be ≥ 1, got {v}"),
                            ));
                        }
                        self.sweep.day_night_contrast.push(v);
                    }
                }
                "tenant_count" => {
                    for it in &items {
                        let v: u32 = it.parse().map_err(|_| list_num_err(e, it))?;
                        if v == 0 {
                            return Err(ParseError::new(e.line, "`tenant_count` must be ≥ 1"));
                        }
                        self.sweep.tenant_count.push(v);
                    }
                }
                "tenant_skew" => {
                    for it in &items {
                        let v: f64 = it.parse().map_err(|_| list_num_err(e, it))?;
                        if !(v >= 0.0 && v.is_finite()) {
                            return Err(ParseError::new(
                                e.line,
                                format!("`tenant_skew` must be ≥ 0, got {v}"),
                            ));
                        }
                        self.sweep.tenant_skew.push(v);
                    }
                }
                "quota_fraction" => {
                    for it in &items {
                        let v: f64 = it.parse().map_err(|_| list_num_err(e, it))?;
                        check_positive("quota_fraction", v, e.line)?;
                        self.sweep.quota_fraction.push(v);
                    }
                }
                k => return Err(unknown_key(k, "sweep", e.line)),
            }
        }
        Ok(())
    }

    /// Constraints spanning sections. Errors point at the offending entry.
    fn cross_validate(&self, doc: &crate::format::RawDoc) -> Result<(), ParseError> {
        let line_of = |sec: &str, key: &str| {
            doc.section(sec)
                .and_then(|s| s.get(key))
                .map(|e| e.line)
                .unwrap_or_else(|| doc.section(sec).map(|s| s.line).unwrap_or(1))
        };
        match self.workload.source {
            SourceKind::Swf => {
                if self.workload.path.is_none() {
                    return Err(ParseError::new(
                        line_of("workload", "source"),
                        "`source = swf` requires a `path`",
                    ));
                }
                if self.workload.has_generator_tweaks() {
                    return Err(ParseError::new(
                        line_of("workload", "source"),
                        "generator overrides (jobs/arrivals/batching) do not apply to SWF replay",
                    ));
                }
            }
            SourceKind::RealRun => {
                if self.workload.has_generator_tweaks() || self.workload.path.is_some() {
                    return Err(ParseError::new(
                        line_of("workload", "source"),
                        "the real-run workload is fixed; generator overrides do not apply",
                    ));
                }
                if self.cluster != ClusterDecl::default() {
                    return Err(ParseError::new(
                        line_of("cluster", "preset"),
                        "the real-run workload always runs on the 49-node MN4 subset",
                    ));
                }
                if self.scale.is_some() || !self.sweep.scale.is_empty() {
                    return Err(ParseError::new(
                        line_of("scenario", "scale"),
                        "the real-run workload is fixed-size; `scale` does not apply",
                    ));
                }
            }
            _ => {
                if self.workload.path.is_some() {
                    return Err(ParseError::new(
                        line_of("workload", "path"),
                        "`path` only applies to `source = swf`",
                    ));
                }
            }
        }
        if self.workload.day_night_contrast.is_some()
            && self.workload.arrivals != Some(ArrivalKind::DayNight)
        {
            return Err(ParseError::new(
                line_of("workload", "day_night_contrast"),
                "`day_night_contrast` requires `arrivals = day_night`",
            ));
        }
        if !self.sweep.day_night_contrast.is_empty()
            && self.workload.arrivals != Some(ArrivalKind::DayNight)
        {
            return Err(ParseError::new(
                line_of("sweep", "day_night_contrast"),
                "a `day_night_contrast` sweep requires `arrivals = day_night`",
            ));
        }
        if self.policy.kind == PolicyKindDecl::Static && !self.sweep.maxsd.is_empty() {
            return Err(ParseError::new(
                line_of("sweep", "maxsd"),
                "a `maxsd` sweep needs `kind = sd`",
            ));
        }
        if self.tenants.is_some()
            && matches!(self.workload.source, SourceKind::Swf | SourceKind::RealRun)
        {
            return Err(ParseError::new(
                line_of("tenants", "count"),
                "[tenants] requires a synthetic workload source \
                 (the tenant mix is stamped by the generator)",
            ));
        }
        if self.tenants.is_none() {
            for key in ["tenant_count", "tenant_skew", "quota_fraction"] {
                if doc.section("sweep").and_then(|s| s.get(key)).is_some() {
                    return Err(ParseError::new(
                        line_of("sweep", key),
                        format!("a `{key}` sweep requires a [tenants] section"),
                    ));
                }
            }
        }
        Ok(())
    }

    // ----- rendering -----

    /// Renders the canonical text form: `Scenario::parse(s.render()) == s`.
    /// Optional fields are emitted only when set; defaulted sections are
    /// omitted entirely.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "[scenario]");
        let _ = writeln!(out, "name = {}", self.name);
        if !self.description.is_empty() {
            let _ = writeln!(out, "description = {}", self.description);
        }
        let _ = writeln!(out, "seed = {}", self.seed);
        if let Some(scale) = self.scale {
            let _ = writeln!(out, "scale = {scale}");
        }

        if self.cluster != ClusterDecl::default() {
            let _ = writeln!(out, "\n[cluster]");
            if self.cluster.preset != ClusterPreset::Auto {
                let _ = writeln!(out, "preset = {}", self.cluster.preset.render());
            }
            if let Some(n) = self.cluster.nodes {
                let _ = writeln!(out, "nodes = {n}");
            }
        }

        let w = &self.workload;
        let _ = writeln!(out, "\n[workload]");
        let _ = writeln!(out, "source = {}", w.source.render());
        if let Some(p) = &w.path {
            let _ = writeln!(out, "path = {p}");
        }
        if let Some(n) = w.jobs {
            let _ = writeln!(out, "jobs = {n}");
        }
        if let Some(v) = w.mean_interarrival {
            let _ = writeln!(out, "mean_interarrival = {v}");
        }
        if let Some(a) = w.arrivals {
            let _ = writeln!(out, "arrivals = {}", a.render());
        }
        if let Some(v) = w.day_night_contrast {
            let _ = writeln!(out, "day_night_contrast = {v}");
        }
        if let Some(v) = w.weekend_factor {
            let _ = writeln!(out, "weekend_factor = {v}");
        }
        if let Some(v) = w.batch_p {
            let _ = writeln!(out, "batch_p = {v}");
        }
        if let Some(v) = w.batch_mean {
            let _ = writeln!(out, "batch_mean = {v}");
        }

        if self.policy != PolicyDecl::default() {
            let _ = writeln!(out, "\n[policy]");
            let d = PolicyDecl::default();
            if self.policy.kind != d.kind {
                let _ = writeln!(out, "kind = static");
            }
            if self.policy.maxsd != d.maxsd {
                let _ = writeln!(out, "maxsd = {}", self.policy.maxsd);
            }
            if self.policy.model != d.model {
                let _ = writeln!(out, "model = {}", self.policy.model.render());
            }
            if self.policy.sharing != d.sharing {
                let _ = writeln!(out, "sharing = {}", self.policy.sharing);
            }
            if self.policy.max_mates != d.max_mates {
                let _ = writeln!(out, "max_mates = {}", self.policy.max_mates);
            }
            if self.policy.include_free_nodes != d.include_free_nodes {
                let _ = writeln!(out, "include_free_nodes = {}", self.policy.include_free_nodes);
            }
        }

        if self.slurm != SlurmDecl::default() {
            let _ = writeln!(out, "\n[slurm]");
            if let Some(b) = self.slurm.backfill {
                let _ = writeln!(
                    out,
                    "backfill = {}",
                    match b {
                        BackfillDecl::Easy => "easy",
                        BackfillDecl::Conservative => "conservative",
                    }
                );
            }
            if let Some(n) = self.slurm.backfill_depth {
                let _ = writeln!(out, "backfill_depth = {n}");
            }
            if self.slurm.malleable_fraction != 1.0 {
                let _ = writeln!(out, "malleable_fraction = {}", self.slurm.malleable_fraction);
            }
            if let Some(n) = self.slurm.ranks_per_node {
                let _ = writeln!(out, "ranks_per_node = {n}");
            }
        }

        if let Some(t) = &self.tenants {
            let _ = writeln!(out, "\n[tenants]");
            let _ = writeln!(out, "count = {}", t.count);
            if t.skew != 0.0 {
                let _ = writeln!(out, "skew = {}", t.skew);
            }
            if t.quota_fraction != 1.0 {
                let _ = writeln!(out, "quota_fraction = {}", t.quota_fraction);
            }
            if t.queue != TenantQueueDecl::Fifo {
                let _ = writeln!(out, "queue = {}", t.queue.render());
            }
            if t.half_life != DEFAULT_HALF_LIFE {
                let _ = writeln!(out, "half_life = {}", t.half_life);
            }
        }

        if !self.slos.is_empty() {
            let _ = writeln!(out, "\n[slo]");
            for s in &self.slos {
                // The value position carries the objective fraction for
                // availability and the threshold for the quantile kinds —
                // mirroring how `SloSpec::parse` reads it back.
                let v = match s.kind {
                    sd_obs::SloKind::Availability => s.objective,
                    _ => s.threshold,
                };
                let _ = writeln!(out, "{} = {v}", s.name);
            }
        }

        if !self.sweep.is_empty() {
            let _ = writeln!(out, "\n[sweep]");
            if !self.sweep.malleable_fraction.is_empty() {
                let _ = writeln!(
                    out,
                    "malleable_fraction = {}",
                    render_list(&self.sweep.malleable_fraction)
                );
            }
            if !self.sweep.maxsd.is_empty() {
                let _ = writeln!(out, "maxsd = {}", render_list(&self.sweep.maxsd));
            }
            if !self.sweep.seed.is_empty() {
                let _ = writeln!(out, "seed = {}", render_list(&self.sweep.seed));
            }
            if !self.sweep.scale.is_empty() {
                let _ = writeln!(out, "scale = {}", render_list(&self.sweep.scale));
            }
            if !self.sweep.sharing.is_empty() {
                let _ = writeln!(out, "sharing = {}", render_list(&self.sweep.sharing));
            }
            if !self.sweep.backfill_depth.is_empty() {
                let _ = writeln!(
                    out,
                    "backfill_depth = {}",
                    render_list(&self.sweep.backfill_depth)
                );
            }
            if !self.sweep.day_night_contrast.is_empty() {
                let _ = writeln!(
                    out,
                    "day_night_contrast = {}",
                    render_list(&self.sweep.day_night_contrast)
                );
            }
            if !self.sweep.tenant_count.is_empty() {
                let _ = writeln!(out, "tenant_count = {}", render_list(&self.sweep.tenant_count));
            }
            if !self.sweep.tenant_skew.is_empty() {
                let _ = writeln!(out, "tenant_skew = {}", render_list(&self.sweep.tenant_skew));
            }
            if !self.sweep.quota_fraction.is_empty() {
                let _ = writeln!(
                    out,
                    "quota_fraction = {}",
                    render_list(&self.sweep.quota_fraction)
                );
            }
        }
        out
    }
}

fn unknown_key(key: &str, section: &str, line: usize) -> ParseError {
    ParseError::new(line, format!("unknown key `{key}` in [{section}]"))
}

fn list_num_err(e: &RawEntry, item: &str) -> ParseError {
    ParseError::new(e.line, format!("`{}`: not a number: {item}", e.key))
}

fn check_name(name: &str, line: usize) -> Result<(), ParseError> {
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(ParseError::new(
            line,
            format!("`name` must be non-empty [A-Za-z0-9_-]+, got `{name}`"),
        ));
    }
    Ok(())
}

fn check_positive(key: &str, v: f64, line: usize) -> Result<(), ParseError> {
    if !(v > 0.0 && v.is_finite()) {
        return Err(ParseError::new(line, format!("`{key}` must be > 0, got {v}")));
    }
    Ok(())
}

fn check_unit_range(key: &str, v: f64, line: usize, inclusive_one: bool) -> Result<(), ParseError> {
    let ok = if inclusive_one {
        (0.0..=1.0).contains(&v)
    } else {
        (0.0..1.0).contains(&v)
    };
    if !ok {
        let range = if inclusive_one { "[0, 1]" } else { "[0, 1)" };
        return Err(ParseError::new(
            line,
            format!("`{key}` must be in {range}, got {v}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "\
# demo scenario
[scenario]
name = demo
description = everything, dialled up
seed = 7
scale = 0.1

[cluster]
preset = ricc
nodes = 128

[workload]
source = ricc
jobs = 2000
mean_interarrival = 25
arrivals = day_night
day_night_contrast = 4
weekend_factor = 0.3
batch_p = 0.6
batch_mean = 10

[policy]
kind = sd
maxsd = 10
model = worst_case
sharing = 0.25
max_mates = 3
include_free_nodes = true

[slurm]
backfill = easy
backfill_depth = 50
malleable_fraction = 0.5
ranks_per_node = 4

[tenants]
count = 4
skew = 1.5
quota_fraction = 0.5
queue = fair_share
half_life = 3600

[slo]
p99_wait_seconds = 3600
submit_availability = 0.999

[sweep]
malleable_fraction = [0, 0.5, 1]
maxsd = [5, inf, dyn]
seed = [1, 2]
tenant_skew = [0, 1]
";

    #[test]
    fn parses_a_full_scenario() {
        let s = Scenario::parse(FULL).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.seed, 7);
        assert_eq!(s.scale, Some(0.1));
        assert_eq!(s.cluster.preset, ClusterPreset::Ricc);
        assert_eq!(s.cluster.nodes, Some(128));
        assert_eq!(s.workload.source, SourceKind::Ricc);
        assert_eq!(s.workload.jobs, Some(2000));
        assert_eq!(s.workload.arrivals, Some(ArrivalKind::DayNight));
        assert_eq!(s.policy.maxsd, MaxSdDecl::Value(10.0));
        assert_eq!(s.policy.model, ModelDecl::WorstCase);
        assert_eq!(s.policy.max_mates, 3);
        assert!(s.policy.include_free_nodes);
        assert_eq!(s.slurm.backfill, Some(BackfillDecl::Easy));
        assert!((s.slurm.malleable_fraction - 0.5).abs() < 1e-12);
        assert_eq!(s.sweep.maxsd, vec![MaxSdDecl::Value(5.0), MaxSdDecl::Infinite, MaxSdDecl::Dyn]);
        let t = s.tenants.as_ref().unwrap();
        assert_eq!(t.count, 4);
        assert!((t.skew - 1.5).abs() < 1e-12);
        assert!((t.quota_fraction - 0.5).abs() < 1e-12);
        assert_eq!(t.queue, TenantQueueDecl::FairShare);
        assert_eq!(t.half_life, 3600);
        assert_eq!(s.sweep.tenant_skew, vec![0.0, 1.0]);
        assert_eq!(s.sweep.run_count(), 3 * 3 * 2 * 2);
        assert_eq!(s.slos.len(), 2);
        assert_eq!(s.slos[0].kind, sd_obs::SloKind::WaitQuantile);
        assert!((s.slos[0].threshold - 3600.0).abs() < 1e-12);
        assert_eq!(s.slos[1].kind, sd_obs::SloKind::Availability);
        assert!((s.slos[1].objective - 0.999).abs() < 1e-12);
    }

    #[test]
    fn slo_section_rules() {
        let base = |extra: &str| {
            format!("[scenario]\nname = x\n[workload]\nsource = ricc\n{extra}")
        };
        let e = Scenario::parse(&base("[slo]\np42_jitter = 1\n")).unwrap_err();
        assert!(e.msg.contains("p99_wait_seconds"), "{e}");
        let e = Scenario::parse(&base(
            "[slo]\nsubmit_availability = 0.99\nsubmit_availability = 0.9\n",
        ))
        .unwrap_err();
        assert!(e.msg.contains("duplicate"), "{e}");
        // Objective fractions must leave a non-empty error budget.
        assert!(Scenario::parse(&base("[slo]\nsubmit_availability = 1\n")).is_err());
        assert!(Scenario::parse(&base("[slo]\npass_duration_p95 = 0\n")).is_err());
        let s = Scenario::parse(&base("[slo]\npass_duration_p95 = 0.5\n")).unwrap();
        assert_eq!(s.slos[0].kind, sd_obs::SloKind::PassQuantile);
    }

    /// The availability-backend key is gone from both sections it lived
    /// in and fails like any other typo. (Spelled in two halves so a grep
    /// for the removed key over the sources stays empty.)
    #[test]
    fn removed_backend_key_is_an_unknown_key() {
        let key = concat!("avail", "_backend");
        for (section, value) in [("slurm", "profile"), ("sweep", "[profile]")] {
            let text = format!(
                "[scenario]\nname = x\n[workload]\nsource = ricc\n[{section}]\n{key} = {value}\n"
            );
            let e = Scenario::parse(&text).unwrap_err();
            assert_eq!(e.line, 6, "{e}");
            assert_eq!(e.msg, format!("unknown key `{key}` in [{section}]"));
        }
    }

    #[test]
    fn roundtrips_through_render() {
        let s = Scenario::parse(FULL).unwrap();
        let text = s.render();
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(back, s, "render:\n{text}");
    }

    #[test]
    fn minimal_scenario_uses_defaults() {
        let s = Scenario::parse("[scenario]\nname = tiny\n[workload]\nsource = cirne\n").unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.scale, None);
        assert!((s.effective_scale() - 0.2).abs() < 1e-12, "W1 CI default");
        assert_eq!(s.policy, PolicyDecl::default());
        assert!(s.sweep.is_empty());
        assert_eq!(s.sweep.run_count(), 1);
        // And a default-heavy scenario renders to a minimal document.
        let text = s.render();
        assert!(!text.contains("[policy]"), "{text}");
        assert!(!text.contains("[sweep]"), "{text}");
        assert_eq!(Scenario::parse(&text).unwrap(), s);
    }

    #[test]
    fn unknown_keys_rejected_with_line() {
        let text = "[scenario]\nname = x\n[workload]\nsource = ricc\nbogus_knob = 3\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.msg.contains("bogus_knob"), "{e}");

        let e = Scenario::parse("[scenario]\nname = x\ntypo = 1\n[workload]\nsource = ricc\n")
            .unwrap_err();
        assert_eq!(e.line, 3);

        let e = Scenario::parse("[scenario]\nname = x\n[workload]\nsource = ricc\n[wat]\nz = 1\n")
            .unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.msg.contains("[wat]"));
    }

    #[test]
    fn missing_required_sections_rejected() {
        assert!(Scenario::parse("").is_err());
        assert!(Scenario::parse("[scenario]\nname = x\n").is_err(), "no workload");
        assert!(Scenario::parse("[scenario]\nseed = 2\n[workload]\nsource = ricc\n").is_err());
        assert!(Scenario::parse("[scenario]\nname = x\n[workload]\njobs = 5\n").is_err());
    }

    #[test]
    fn value_range_validation() {
        let base = |extra: &str| {
            format!("[scenario]\nname = x\n[workload]\nsource = ricc\n{extra}")
        };
        assert!(Scenario::parse(&base("[policy]\nsharing = 1.0\n")).is_err());
        assert!(Scenario::parse(&base("[policy]\nmaxsd = 0.5\n")).is_err());
        let e = Scenario::parse(&base("[policy]\nsharing = 0.25\nmax_mates = 0\n")).unwrap_err();
        assert_eq!(e.line, 7, "the max_mates entry is on line 7: {e}");
        assert!(Scenario::parse(&base("[policy]\ninclude_free_nodes = yes\n")).is_err());
        assert!(Scenario::parse(&base("[slurm]\nmalleable_fraction = 1.5\n")).is_err());
        assert!(Scenario::parse(&base("[workload2]\n")).is_err());
        let e = Scenario::parse(&base("[sweep]\nscale = [0.1, -1]\n")).unwrap_err();
        assert_eq!(e.line, 6, "the scale entry is on line 6: {e}");
    }

    #[test]
    fn cross_section_rules() {
        // swf needs a path.
        let e = Scenario::parse("[scenario]\nname = x\n[workload]\nsource = swf\n").unwrap_err();
        assert!(e.msg.contains("path"), "{e}");
        // real_run refuses tweaks and scale.
        let e = Scenario::parse(
            "[scenario]\nname = x\nscale = 0.5\n[workload]\nsource = real_run\n",
        )
        .unwrap_err();
        assert!(e.msg.contains("scale"), "{e}");
        // day_night_contrast requires the day_night pattern.
        let e = Scenario::parse(
            "[scenario]\nname = x\n[workload]\nsource = ricc\nday_night_contrast = 3\n",
        )
        .unwrap_err();
        assert!(e.msg.contains("day_night"), "{e}");
        // maxsd sweep on a static policy is meaningless.
        let e = Scenario::parse(
            "[scenario]\nname = x\n[workload]\nsource = ricc\n[policy]\nkind = static\n[sweep]\nmaxsd = [5]\n",
        )
        .unwrap_err();
        assert!(e.msg.contains("kind = sd"), "{e}");
    }

    #[test]
    fn tenants_section_rules() {
        let base = |extra: &str| {
            format!("[scenario]\nname = x\n[workload]\nsource = ricc\n{extra}")
        };
        // count is required and positive.
        let e = Scenario::parse(&base("[tenants]\nskew = 1\n")).unwrap_err();
        assert!(e.msg.contains("count"), "{e}");
        assert!(Scenario::parse(&base("[tenants]\ncount = 0\n")).is_err());
        // Defaults fill in around count.
        let s = Scenario::parse(&base("[tenants]\ncount = 3\n")).unwrap();
        assert_eq!(s.tenants, Some(TenantsDecl::new(3)));
        // Vocabulary and ranges.
        assert!(Scenario::parse(&base("[tenants]\ncount = 2\nqueue = lottery\n")).is_err());
        assert!(Scenario::parse(&base("[tenants]\ncount = 2\nskew = -1\n")).is_err());
        assert!(Scenario::parse(&base("[tenants]\ncount = 2\nquota_fraction = 0\n")).is_err());
        // Tenancy needs a synthetic source.
        let e = Scenario::parse(
            "[scenario]\nname = x\n[workload]\nsource = swf\npath = /tmp/t.swf\n[tenants]\ncount = 2\n",
        )
        .unwrap_err();
        assert!(e.msg.contains("synthetic"), "{e}");
        // Tenant sweep axes need the [tenants] section.
        let e = Scenario::parse(&base("[sweep]\ntenant_skew = [0, 1]\n")).unwrap_err();
        assert!(e.msg.contains("[tenants]"), "{e}");
        let e = Scenario::parse(&base("[sweep]\nquota_fraction = [0.5]\n")).unwrap_err();
        assert!(e.msg.contains("[tenants]"), "{e}");
        // With the section present all three axes multiply the run count.
        let s = Scenario::parse(&base(
            "[tenants]\ncount = 2\n[sweep]\ntenant_count = [2, 4]\ntenant_skew = [0, 1, 2]\nquota_fraction = [0.5, 1]\n",
        ))
        .unwrap();
        assert_eq!(s.sweep.run_count(), 2 * 3 * 2);
    }

    #[test]
    fn maxsd_display_roundtrips() {
        for m in [MaxSdDecl::Value(7.5), MaxSdDecl::Infinite, MaxSdDecl::Dyn] {
            let s = m.to_string();
            assert_eq!(MaxSdDecl::parse_str(&s, 1).unwrap(), m);
        }
        assert!(MaxSdDecl::parse_str("1.0", 1).is_err(), "cut-off ≤ 1 rejected");
    }
}
