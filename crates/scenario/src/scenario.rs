//! The typed scenario model: what an experiment *is*, independent of any
//! binary. Parsed from the [`crate::format`] text form, rendered back
//! canonically (`parse(render(s)) == s`), validated with line-precise
//! errors, and compiled onto the simulator by [`crate::compile`].
//!
//! Every key of the format is declared once, as a row of [`KEYS`]: its
//! section, its name, the `[sweep]` axis it is swept under, how its text is
//! checked and stored and how it is written back. Parsing, rendering, sweep
//! validation and expansion, `sd_validate`'s claim keys and the CLI
//! overrides all loop over that table.

use crate::format::{
    parse_f64, parse_int, parse_list, parse_raw, unknown_key, ParseError, RawEntry, RawSection,
};
use std::fmt;
use std::sync::LazyLock;
use workload::PaperWorkload;

/// A closed vocabulary: the words a key accepts and the values they name,
/// in the order an error lists them.
pub trait Vocab: Copy + PartialEq + 'static {
    const WORDS: &'static [(&'static str, Self)];

    fn parse(e: &RawEntry) -> Result<Self, ParseError> {
        match Self::WORDS.iter().find(|(w, _)| *w == e.value) {
            Some(&(_, v)) => Ok(v),
            None => {
                let hint: Vec<&str> = Self::WORDS.iter().map(|(w, _)| *w).collect();
                let msg = format!("`{}`: unknown value `{}` ({})", e.key, e.value, hint.join("|"));
                Err(ParseError::new(e.line, msg))
            }
        }
    }

    /// The word that names this value.
    fn word(self) -> &'static str {
        let found = Self::WORDS.iter().find(|(_, v)| *v == self);
        found.expect("every variant is in its vocabulary").0
    }
}

fn word<V: Vocab>(v: V) -> String {
    v.word().to_string()
}

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

impl Vocab for ClusterPreset {
    const WORDS: &'static [(&'static str, Self)] = &[
        ("auto", ClusterPreset::Auto),
        ("mn4", ClusterPreset::Mn4),
        ("ricc", ClusterPreset::Ricc),
        ("curie", ClusterPreset::Curie),
        ("mn4_real_run", ClusterPreset::Mn4RealRun),
    ];
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

impl Vocab for SourceKind {
    const WORDS: &'static [(&'static str, Self)] = &[
        ("cirne", SourceKind::Cirne),
        ("cirne_ideal", SourceKind::CirneIdeal),
        ("ricc", SourceKind::Ricc),
        ("curie", SourceKind::Curie),
        ("real_run", SourceKind::RealRun),
        ("swf", SourceKind::Swf),
    ];
}

impl SourceKind {
    /// The paper workload backing a synthetic source (None for SWF replay).
    pub(crate) fn paper_workload(self) -> Option<PaperWorkload> {
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

impl Vocab for ArrivalKind {
    const WORDS: &'static [(&'static str, Self)] = &[
        ("anl", ArrivalKind::Anl),
        ("uniform", ArrivalKind::Uniform),
        ("day_night", ArrivalKind::DayNight),
    ];
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

    /// Whether anything but the source and the SWF path is set.
    fn has_generator_tweaks(&self) -> bool {
        *self != WorkloadDecl { path: self.path.clone(), ..WorkloadDecl::new(self.source) }
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
    /// Parses the cut-off vocabulary: `number | inf | dyn`.
    fn parse(e: &RawEntry) -> Result<Self, ParseError> {
        match e.value.as_str() {
            "inf" => Ok(MaxSdDecl::Infinite),
            "dyn" => Ok(MaxSdDecl::Dyn),
            _ => Ok(MaxSdDecl::Value(float(e, |v| v > 1.0, "a number > 1, `inf` or `dyn`")?)),
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

impl Vocab for PolicyKindDecl {
    const WORDS: &'static [(&'static str, Self)] =
        &[("static", PolicyKindDecl::Static), ("sd", PolicyKindDecl::Sd)];
}

/// Which runtime model drives malleable execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelDecl {
    Ideal,
    WorstCase,
    AppAware,
}

impl Vocab for ModelDecl {
    const WORDS: &'static [(&'static str, Self)] = &[
        ("ideal", ModelDecl::Ideal),
        ("worst_case", ModelDecl::WorstCase),
        ("app_aware", ModelDecl::AppAware),
    ];
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

impl Vocab for BackfillDecl {
    const WORDS: &'static [(&'static str, Self)] =
        &[("easy", BackfillDecl::Easy), ("conservative", BackfillDecl::Conservative)];
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

impl Vocab for TenantQueueDecl {
    const WORDS: &'static [(&'static str, Self)] =
        &[("fifo", TenantQueueDecl::Fifo), ("fair_share", TenantQueueDecl::FairShare)];
}

/// Fair-share decay half-life default: one day, the classic SLURM
/// `PriorityDecayHalfLife` starting point.
pub(crate) const DEFAULT_HALF_LIFE: u64 = 86_400;

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

/// One key of the scenario format: the only place its name, its range
/// check and its text form are written down.
pub struct Key {
    pub section: &'static str,
    pub name: &'static str,
    /// Its section cannot be written without it, and it is always rendered.
    pub required: bool,
    /// The `[sweep]` axis that varies this key (one of [`AXES`]).
    pub axis: Option<&'static str>,
    /// Parses the entry's value, applies the key's one range check and
    /// stores it.
    write: fn(&mut Scenario, &RawEntry) -> Result<(), ParseError>,
    /// The stored value's canonical text; `None` while it is unset. An
    /// `f64`'s `Display` reads back bit-exactly, so the text loses nothing.
    read: fn(&Scenario) -> Option<String>,
}

impl Key {
    const fn new(
        section: &'static str,
        name: &'static str,
        write: fn(&mut Scenario, &RawEntry) -> Result<(), ParseError>,
        read: fn(&Scenario) -> Option<String>,
    ) -> Key {
        Key { section, name, required: false, axis: None, write, read }
    }

    const fn required(mut self) -> Key {
        self.required = true;
        self
    }

    const fn swept(mut self, axis: &'static str) -> Key {
        self.axis = Some(axis);
        self
    }

    /// Checks `value` as this key's section would and stores it in `s`;
    /// `line` is where the value was written, for the error.
    pub fn set(&self, s: &mut Scenario, value: &str, line: usize) -> Result<(), ParseError> {
        let entry = RawEntry { key: self.name.to_string(), value: value.to_string(), line };
        (self.write)(s, &entry)
    }

    /// The canonical text of this key in `s`; `None` when it is unset or at
    /// its default (a required key has no default).
    pub fn get(&self, s: &Scenario) -> Option<String> {
        (self.read)(s).filter(|v| self.required || Some(v) != (self.read)(&FRESH).as_ref())
    }
}

/// What a key's text is compared with to decide whether it is written: a
/// new scenario with a new `[tenants]` section. Sweep values are checked
/// on a copy of it.
static FRESH: LazyLock<Scenario> = LazyLock::new(|| {
    let mut s = Scenario::new("", SourceKind::Ricc);
    s.tenants = Some(TenantsDecl::new(1));
    s
});

fn text<T: ToString>(v: T) -> String {
    v.to_string()
}

fn must_be(e: &RawEntry, what: &str) -> ParseError {
    ParseError::new(e.line, format!("`{}` must be {what}, got {}", e.key, e.value))
}

/// A finite number that `ok` accepts; `what` says so in the error.
fn float(e: &RawEntry, ok: fn(f64) -> bool, what: &str) -> Result<f64, ParseError> {
    let v = parse_f64(e)?;
    if v.is_finite() && ok(v) {
        Ok(v)
    } else {
        Err(must_be(e, what))
    }
}

fn positive(e: &RawEntry) -> Result<f64, ParseError> {
    float(e, |v| v > 0.0, "> 0")
}

fn fraction(e: &RawEntry) -> Result<f64, ParseError> {
    float(e, |v| (0.0..=1.0).contains(&v), "in [0, 1]")
}

fn at_least_one<T: std::str::FromStr + Default + PartialEq>(e: &RawEntry) -> Result<T, ParseError> {
    let n: T = parse_int(e)?;
    if n == T::default() {
        return Err(must_be(e, "at least 1"));
    }
    Ok(n)
}

/// Runs `f` on the `[tenants]` section if there is one: every tenants key
/// but `count` overrides a section, none of them makes one.
fn on_tenants(s: &mut Scenario, f: impl FnOnce(&mut TenantsDecl)) {
    if let Some(t) = &mut s.tenants {
        f(t);
    }
}

/// Every key of the format, in render order.
pub static KEYS: [Key; 30] = [
    Key::new(
        "scenario",
        "name",
        |s, e| {
            let ok = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
            if e.value.is_empty() || !e.value.chars().all(ok) {
                return Err(must_be(e, "non-empty [A-Za-z0-9_-]+"));
            }
            s.name = e.value.clone();
            Ok(())
        },
        |s| Some(s.name.clone()),
    )
    .required(),
    Key::new(
        "scenario",
        "description",
        |s, e| {
            s.description = e.value.clone();
            Ok(())
        },
        |s| Some(s.description.clone()),
    ),
    Key::new(
        "scenario",
        "seed",
        |s, e| {
            s.seed = parse_int(e)?;
            Ok(())
        },
        |s| Some(text(s.seed)),
    )
    .swept("seed"),
    Key::new(
        "scenario",
        "scale",
        |s, e| {
            s.scale = Some(positive(e)?);
            Ok(())
        },
        |s| s.scale.map(text),
    )
    .swept("scale"),
    Key::new(
        "cluster",
        "preset",
        |s, e| {
            s.cluster.preset = Vocab::parse(e)?;
            Ok(())
        },
        |s| Some(word(s.cluster.preset)),
    ),
    Key::new(
        "cluster",
        "nodes",
        |s, e| {
            s.cluster.nodes = Some(at_least_one(e)?);
            Ok(())
        },
        |s| s.cluster.nodes.map(text),
    ),
    Key::new(
        "workload",
        "source",
        |s, e| {
            s.workload.source = Vocab::parse(e)?;
            Ok(())
        },
        |s| Some(word(s.workload.source)),
    )
    .required(),
    Key::new(
        "workload",
        "path",
        |s, e| {
            s.workload.path = Some(e.value.clone());
            Ok(())
        },
        |s| s.workload.path.clone(),
    ),
    Key::new(
        "workload",
        "jobs",
        |s, e| {
            s.workload.jobs = Some(at_least_one(e)?);
            Ok(())
        },
        |s| s.workload.jobs.map(text),
    ),
    Key::new(
        "workload",
        "mean_interarrival",
        |s, e| {
            s.workload.mean_interarrival = Some(positive(e)?);
            Ok(())
        },
        |s| s.workload.mean_interarrival.map(text),
    ),
    Key::new(
        "workload",
        "arrivals",
        |s, e| {
            s.workload.arrivals = Some(Vocab::parse(e)?);
            Ok(())
        },
        |s| s.workload.arrivals.map(word),
    ),
    Key::new(
        "workload",
        "day_night_contrast",
        |s, e| {
            s.workload.day_night_contrast = Some(float(e, |v| v >= 1.0, "≥ 1")?);
            Ok(())
        },
        |s| s.workload.day_night_contrast.map(text),
    )
    .swept("day_night_contrast"),
    Key::new(
        "workload",
        "weekend_factor",
        |s, e| {
            s.workload.weekend_factor = Some(fraction(e)?);
            Ok(())
        },
        |s| s.workload.weekend_factor.map(text),
    ),
    Key::new(
        "workload",
        "batch_p",
        |s, e| {
            s.workload.batch_p = Some(fraction(e)?);
            Ok(())
        },
        |s| s.workload.batch_p.map(text),
    ),
    Key::new(
        "workload",
        "batch_mean",
        |s, e| {
            s.workload.batch_mean = Some(float(e, |v| v >= 0.0, "≥ 0")?);
            Ok(())
        },
        |s| s.workload.batch_mean.map(text),
    ),
    Key::new(
        "policy",
        "kind",
        |s, e| {
            s.policy.kind = Vocab::parse(e)?;
            Ok(())
        },
        |s| Some(word(s.policy.kind)),
    ),
    Key::new(
        "policy",
        "maxsd",
        |s, e| {
            s.policy.maxsd = MaxSdDecl::parse(e)?;
            Ok(())
        },
        |s| Some(text(s.policy.maxsd)),
    )
    .swept("maxsd"),
    Key::new(
        "policy",
        "model",
        |s, e| {
            s.policy.model = Vocab::parse(e)?;
            Ok(())
        },
        |s| Some(word(s.policy.model)),
    ),
    Key::new(
        "policy",
        "sharing",
        |s, e| {
            s.policy.sharing = float(e, |v| (0.0..1.0).contains(&v), "in [0, 1)")?;
            Ok(())
        },
        |s| Some(text(s.policy.sharing)),
    )
    .swept("sharing"),
    Key::new(
        "policy",
        "max_mates",
        |s, e| {
            s.policy.max_mates = at_least_one(e)?;
            Ok(())
        },
        |s| Some(text(s.policy.max_mates)),
    ),
    Key::new(
        "policy",
        "include_free_nodes",
        |s, e| {
            s.policy.include_free_nodes = e.value.parse().map_err(|_| must_be(e, "true or false"))?;
            Ok(())
        },
        |s| Some(text(s.policy.include_free_nodes)),
    ),
    Key::new(
        "slurm",
        "backfill",
        |s, e| {
            s.slurm.backfill = Some(Vocab::parse(e)?);
            Ok(())
        },
        |s| s.slurm.backfill.map(word),
    ),
    Key::new(
        "slurm",
        "backfill_depth",
        |s, e| {
            s.slurm.backfill_depth = Some(at_least_one(e)?);
            Ok(())
        },
        |s| s.slurm.backfill_depth.map(text),
    )
    .swept("backfill_depth"),
    Key::new(
        "slurm",
        "malleable_fraction",
        |s, e| {
            s.slurm.malleable_fraction = fraction(e)?;
            Ok(())
        },
        |s| Some(text(s.slurm.malleable_fraction)),
    )
    .swept("malleable_fraction"),
    Key::new(
        "slurm",
        "ranks_per_node",
        |s, e| {
            s.slurm.ranks_per_node = Some(at_least_one(e)?);
            Ok(())
        },
        |s| s.slurm.ranks_per_node.map(text),
    ),
    // `count` is what makes a `[tenants]` section: setting it on a scenario
    // without one starts one at the other keys' defaults.
    Key::new(
        "tenants",
        "count",
        |s, e| {
            let n = at_least_one(e)?;
            match &mut s.tenants {
                Some(t) => t.count = n,
                None => s.tenants = Some(TenantsDecl::new(n)),
            }
            Ok(())
        },
        |s| s.tenants.as_ref().map(|t| text(t.count)),
    )
    .required()
    .swept("tenant_count"),
    Key::new(
        "tenants",
        "skew",
        |s, e| {
            let v = float(e, |v| v >= 0.0, "≥ 0")?;
            on_tenants(s, |t| t.skew = v);
            Ok(())
        },
        |s| s.tenants.as_ref().map(|t| text(t.skew)),
    )
    .swept("tenant_skew"),
    Key::new(
        "tenants",
        "quota_fraction",
        |s, e| {
            let v = positive(e)?;
            on_tenants(s, |t| t.quota_fraction = v);
            Ok(())
        },
        |s| s.tenants.as_ref().map(|t| text(t.quota_fraction)),
    )
    .swept("quota_fraction"),
    Key::new(
        "tenants",
        "queue",
        |s, e| {
            let v = Vocab::parse(e)?;
            on_tenants(s, |t| t.queue = v);
            Ok(())
        },
        |s| s.tenants.as_ref().map(|t| word(t.queue)),
    ),
    Key::new(
        "tenants",
        "half_life",
        |s, e| {
            let v = parse_int(e)?;
            on_tenants(s, |t| t.half_life = v);
            Ok(())
        },
        |s| s.tenants.as_ref().map(|t| text(t.half_life)),
    ),
];

/// The `[sweep]` axes in expansion order, outermost first. This is neither
/// the order a file lists them in nor the order of [`KEYS`]; campaign row
/// order rides on it.
pub const AXES: [&str; 10] = [
    "seed",
    "scale",
    "sharing",
    "malleable_fraction",
    "maxsd",
    "backfill_depth",
    "day_night_contrast",
    "tenant_count",
    "tenant_skew",
    "quota_fraction",
];

/// The row for `name` in `[section]`.
pub fn find_key(section: &str, name: &str) -> Option<&'static Key> {
    KEYS.iter().find(|k| k.section == section && k.name == name)
}

/// The row a `[sweep]` axis varies.
pub fn axis_key(axis: &str) -> Option<&'static Key> {
    KEYS.iter().find(|k| k.axis == Some(axis))
}

/// The sweep axes: each one multiplies the campaign's run count. Values are
/// held as the canonical text of what was parsed (`0.50` is `0.5`), each
/// checked by the swept key's own [`Key::set`], so labels and exports print
/// the value and never the file's token.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepDecl {
    /// `(axis, values)`, non-empty, in [`AXES`] order.
    axes: Vec<(&'static str, Vec<String>)>,
}

impl SweepDecl {
    /// Sweeps `axis` over `values`, replacing what it held; an empty list
    /// un-sweeps it. `line` is where the list was written (0 from code).
    pub fn set<V: ToString>(&mut self, axis: &str, values: &[V], line: usize) -> Result<(), ParseError> {
        let rank = |a: &str| AXES.iter().position(|x| *x == a);
        let Some((at, key)) = rank(axis).zip(axis_key(axis)) else {
            return Err(unknown_key(axis, "sweep", &AXES, line));
        };
        let mut scratch = FRESH.clone();
        let mut canonical = Vec::with_capacity(values.len());
        for v in values {
            key.set(&mut scratch, &v.to_string(), line)?;
            canonical.push((key.read)(&scratch).expect("a key that was just set reads back"));
        }
        self.axes.retain(|(a, _)| *a != axis);
        if !canonical.is_empty() {
            self.axes.push((AXES[at], canonical));
            self.axes.sort_by_key(|(a, _)| rank(a));
        }
        Ok(())
    }

    /// The swept axes and their values, in expansion order.
    pub fn axes(&self) -> &[(&'static str, Vec<String>)] {
        &self.axes
    }

    /// The values `axis` is swept over; empty when it is not swept.
    pub fn values(&self, axis: &str) -> &[String] {
        let found = self.axes.iter().find(|(a, _)| *a == axis);
        found.map_or(&[], |(_, v)| v.as_slice())
    }

    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// Number of runs the cross-product expands to.
    pub fn run_count(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
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

    /// Sets `[section] name` from a command-line flag's value the way the
    /// `.scn` parser sets it from a file: the row's check, and on failure
    /// its message as `bad <flag>: <message>`.
    pub fn set_flag(
        &mut self,
        flag: &str,
        section: &str,
        name: &str,
        value: &str,
    ) -> Result<(), String> {
        let key = find_key(section, name).expect("a flag stands for a key of the format");
        key.set(self, value, 0).map_err(|e| format!("bad {flag}: {}", e.msg))
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
        // The placeholder name and source last until the required keys of
        // [scenario] and [workload] are read.
        let mut s = Scenario::new("", SourceKind::Ricc);
        for section in &doc.sections {
            match section.name.as_str() {
                "slo" => s.parse_slo(section)?,
                "sweep" => {
                    for e in &section.entries {
                        s.sweep.set(&e.key, &parse_list(e)?, e.line)?;
                    }
                }
                _ => s.parse_section(section)?,
            }
        }
        if doc.section("workload").is_none() {
            return Err(ParseError::new(meta.line, "missing [workload] section"));
        }
        s.cross_validate(&doc)?;
        Ok(s)
    }

    /// Reads one section through its rows of [`KEYS`]: the required keys
    /// first (the others may lean on them), then the rest in file order.
    fn parse_section(&mut self, sec: &RawSection) -> Result<(), ParseError> {
        let keys: Vec<&Key> = KEYS.iter().filter(|k| k.section == sec.name).collect();
        let names: Vec<&str> = keys.iter().map(|k| k.name).collect();
        if keys.is_empty() {
            let mut sections: Vec<&str> = KEYS.iter().map(|k| k.section).collect();
            sections.dedup();
            let msg = format!("unknown section [{}] ({}|slo|sweep)", sec.name, sections.join("|"));
            return Err(ParseError::new(sec.line, msg));
        }
        for k in keys.iter().filter(|k| k.required) {
            let e = sec.get(k.name).ok_or_else(|| {
                ParseError::new(sec.line, format!("[{}] needs a `{}`", sec.name, k.name))
            })?;
            (k.write)(self, e)?;
        }
        for e in &sec.entries {
            let k = keys
                .iter()
                .find(|k| k.name == e.key)
                .ok_or_else(|| unknown_key(&e.key, &sec.name, &names, e.line))?;
            if !k.required {
                (k.write)(self, e)?;
            }
        }
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
                if self.scale.is_some() || !self.sweep.values("scale").is_empty() {
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
        if !self.sweep.values("day_night_contrast").is_empty()
            && self.workload.arrivals != Some(ArrivalKind::DayNight)
        {
            return Err(ParseError::new(
                line_of("sweep", "day_night_contrast"),
                "a `day_night_contrast` sweep requires `arrivals = day_night`",
            ));
        }
        if self.policy.kind == PolicyKindDecl::Static && !self.sweep.values("maxsd").is_empty() {
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
            let mut tenant_axes =
                KEYS.iter().filter(|k| k.section == "tenants").filter_map(|k| k.axis);
            if let Some(axis) = tenant_axes.find(|a| !self.sweep.values(a).is_empty()) {
                return Err(ParseError::new(
                    line_of("sweep", axis),
                    format!("a `{axis}` sweep requires a [tenants] section"),
                ));
            }
        }
        Ok(())
    }

    // ----- rendering -----

    /// Renders the canonical text form: `Scenario::parse(s.render()) == s`.
    /// A key is written when [`Key::get`] has text for it, a section when
    /// one of its keys is.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut section = "";
        for k in &KEYS {
            let Some(v) = k.get(self) else { continue };
            if k.section != section {
                section = k.section;
                let gap = if out.is_empty() { "" } else { "\n" };
                let _ = writeln!(out, "{gap}[{section}]");
            }
            let _ = writeln!(out, "{} = {v}", k.name);
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
            for (axis, values) in self.sweep.axes() {
                let _ = writeln!(out, "{axis} = [{}]", values.join(", "));
            }
        }
        out
    }
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
        assert_eq!(s.sweep.values("maxsd"), ["5", "inf", "dyn"]);
        let t = s.tenants.as_ref().unwrap();
        assert_eq!(t.count, 4);
        assert!((t.skew - 1.5).abs() < 1e-12);
        assert!((t.quota_fraction - 0.5).abs() < 1e-12);
        assert_eq!(t.queue, TenantQueueDecl::FairShare);
        assert_eq!(t.half_life, 3600);
        assert_eq!(s.sweep.values("tenant_skew"), ["0", "1"]);
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
            assert!(e.msg.starts_with(&format!("unknown key `{key}` in [{section}] (")), "{e}");
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
    fn the_table_is_the_format() {
        assert_eq!(KEYS.len(), 30);
        for (i, k) in KEYS.iter().enumerate() {
            assert!(std::ptr::eq(find_key(k.section, k.name).unwrap(), k), "{} twice", k.name);
            // `render` opens a section once: its rows are adjacent.
            let later = KEYS[i + 1..].iter().position(|x| x.section == k.section);
            assert!(later.is_none_or(|at| at == 0), "[{}] is split", k.section);
        }
        // The axes are the swept rows, each once.
        let mut swept: Vec<&str> = KEYS.iter().filter_map(|k| k.axis).collect();
        let mut axes = AXES.to_vec();
        swept.sort();
        axes.sort();
        assert_eq!(swept, axes);
        assert!(AXES.iter().all(|a| axis_key(a).is_some()));
    }

    #[test]
    fn a_new_scenario_writes_only_its_required_keys() {
        let s = Scenario::new("x", SourceKind::Ricc);
        let written: Vec<&str> =
            KEYS.iter().filter(|k| k.get(&s).is_some()).map(|k| k.name).collect();
        assert_eq!(written, ["name", "source"]);
        assert_eq!(s.render(), "[scenario]\nname = x\n\n[workload]\nsource = ricc\n");
        // A new [tenants] section adds its required key and nothing else.
        let written: Vec<&str> =
            KEYS.iter().filter(|k| k.get(&FRESH).is_some()).map(|k| k.name).collect();
        assert_eq!(written, ["name", "source", "count"]);
    }

    /// Text a key might be handed: numbers around every bound, a word of
    /// every vocabulary, junk.
    const POOL: [&str; 22] = [
        "-3", "-1", "-0", "0", "0.5", "0.50", "1", "1.0", "1e1", "1.5", "2", "4294967296",
        "4294967297", "1e400", "nan", "inf", "dyn", "x", "lottery", "fair_share", "true", "day_night",
    ];

    #[test]
    fn a_sweep_takes_exactly_what_the_swept_key_takes() {
        for key in KEYS.iter() {
            let Some(axis) = key.axis else { continue };
            for v in POOL {
                let text = format!(
                    "[scenario]\nname = x\n[workload]\nsource = ricc\narrivals = day_night\n\
                     [tenants]\ncount = 2\n[sweep]\n{axis} = [{v}]\n"
                );
                // The key's verdict, as its own section would give it on line 9.
                let mut scratch = FRESH.clone();
                let in_section = key.set(&mut scratch, v, 9);
                match Scenario::parse(&text) {
                    Ok(s) => {
                        assert_eq!(in_section, Ok(()), "{axis} = [{v}] accepted");
                        // Held as the parsed value's text, not the file's token.
                        assert_eq!(s.sweep.values(axis), [(key.read)(&scratch).unwrap()]);
                    }
                    Err(e) => assert_eq!(Err(e), in_section, "{axis} = [{v}]"),
                }
            }
        }
        let s = Scenario::parse(
            "[scenario]\nname = x\n[workload]\nsource = ricc\n[sweep]\nmalleable_fraction = [0.50, 1e0]\nmaxsd = [1e1]\n",
        )
        .unwrap();
        assert_eq!(s.sweep.values("malleable_fraction"), ["0.5", "1"]);
        assert_eq!(s.sweep.values("maxsd"), ["10"]);
        assert_eq!(s.sweep.axes()[0].0, "malleable_fraction", "held in expansion order");
    }

    #[test]
    fn every_vocabulary_word_reads_back() {
        fn check<V: Vocab + std::fmt::Debug>() {
            for (w, v) in V::WORDS {
                let e = RawEntry { key: "k".into(), value: w.to_string(), line: 1 };
                assert_eq!(V::parse(&e).unwrap(), *v);
                assert_eq!(word(*v), *w);
            }
            let e = RawEntry { key: "k".into(), value: "nope".into(), line: 3 };
            let err = V::parse(&e).unwrap_err();
            let hint: Vec<&str> = V::WORDS.iter().map(|(w, _)| *w).collect();
            assert_eq!(err.line, 3);
            assert!(err.msg.ends_with(&format!("({})", hint.join("|"))), "{err}");
        }
        check::<ClusterPreset>();
        check::<SourceKind>();
        check::<ArrivalKind>();
        check::<PolicyKindDecl>();
        check::<ModelDecl>();
        check::<BackfillDecl>();
        check::<TenantQueueDecl>();
    }

    #[test]
    fn maxsd_display_roundtrips() {
        let parse = |v: &str| MaxSdDecl::parse(&RawEntry { key: "maxsd".into(), value: v.into(), line: 1 });
        for m in [MaxSdDecl::Value(7.5), MaxSdDecl::Infinite, MaxSdDecl::Dyn] {
            let s = m.to_string();
            assert_eq!(parse(&s).unwrap(), m);
        }
        assert!(parse("1.0").is_err(), "cut-off ≤ 1 rejected");
    }
}
