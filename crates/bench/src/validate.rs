//! `sd-validate` — the paper-expectations harness.
//!
//! The paper's evaluation makes *directional* claims: SD-Policy reduces
//! slowdown, response time, makespan and energy relative to static backfill
//! (Tables 1/2, Figs. 1–9), with rough magnitudes per workload. This module
//! encodes those claims as a machine-checkable **expectation file**
//! (`scenarios/expectations.exp`), runs the scenario engine against it over
//! a fixed seed panel, and reports pass/fail per claim.
//!
//! A claim compares a mean Δ% — `(variant / static − 1) × 100`, averaged
//! over the panel — against a window `[min_pct, max_pct]`. Directional
//! claims set only `max_pct = 0` (no sign flip); magnitude claims close the
//! window on both sides. The panel mean, not a single seed, carries the
//! claim: single-seed makespan/energy deltas are tail-composition noise of
//! several percent either way (DESIGN.md §8), which is exactly how the
//! original fidelity regression stayed hidden.
//!
//! The file reuses the scenario format (`#` comments, `[claim]` sections,
//! `key = value`) and the scenario vocabulary for `workload`, `model` and
//! `maxsd`, so one grammar describes both experiments and their expected
//! outcomes.

use crate::runner::sweep_with;
use sd_scenario::format::{parse_f64, parse_list, parse_raw_with, parse_u64, RawSection};
use sd_scenario::{
    execute, MaxSdDecl, ModelDecl, ParseError, PolicyKindDecl, RunPoint, Scenario, SourceKind,
    TenantQueueDecl, TenantsDecl,
};
use slurm_sim::SimResult;
use std::collections::BTreeMap;

/// Which run aggregate a claim constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    Slowdown,
    Response,
    Wait,
    Makespan,
    Energy,
    /// Dominant tenant's share of consumed node-seconds (1.0 untenanted) —
    /// pins how much of the machine the heaviest tenant captures.
    TenantShare,
}

impl Metric {
    fn parse_str(v: &str, line: usize) -> Result<Self, ParseError> {
        match v {
            "slowdown" => Ok(Metric::Slowdown),
            "response" => Ok(Metric::Response),
            "wait" => Ok(Metric::Wait),
            "makespan" => Ok(Metric::Makespan),
            "energy" => Ok(Metric::Energy),
            "tenant_share" => Ok(Metric::TenantShare),
            v => Err(ParseError::new(
                line,
                format!(
                    "`metric`: unknown metric `{v}` \
                     (slowdown|response|wait|makespan|energy|tenant_share)"
                ),
            )),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Metric::Slowdown => "slowdown",
            Metric::Response => "response",
            Metric::Wait => "wait",
            Metric::Makespan => "makespan",
            Metric::Energy => "energy",
            Metric::TenantShare => "tenant_share",
        }
    }

    fn extract(self, res: &SimResult) -> f64 {
        match self {
            Metric::Slowdown => res.mean_slowdown(),
            Metric::Response => res.mean_response(),
            Metric::Wait => res.mean_wait(),
            Metric::Makespan => res.makespan as f64,
            Metric::Energy => res.energy_joules,
            Metric::TenantShare => dominant_tenant_share(res),
        }
    }
}

/// Largest per-tenant share of the run's consumed node-seconds; 1.0 when
/// every outcome is on the anonymous tenant 0 (or the run is empty).
fn dominant_tenant_share(res: &SimResult) -> f64 {
    let mut by_tenant: BTreeMap<u32, u64> = BTreeMap::new();
    let mut total: u64 = 0;
    for o in &res.outcomes {
        let ns = o.nodes as u64 * o.runtime();
        *by_tenant.entry(o.tenant).or_default() += ns;
        total += ns;
    }
    if total == 0 {
        return 1.0;
    }
    by_tenant.values().max().copied().unwrap_or(0) as f64 / total as f64
}

/// One paper claim: a workload/policy configuration, a metric, and the
/// expected Δ% window vs the static-backfill baseline.
#[derive(Debug, Clone)]
pub struct Claim {
    pub name: String,
    /// Paper anchor (free text): `Table 2`, `Fig. 3`, `real-run headline`.
    pub source: String,
    pub workload: SourceKind,
    /// `None` → the workload's default CI scale.
    pub scale: Option<f64>,
    pub seeds: Vec<u64>,
    pub model: ModelDecl,
    pub maxsd: MaxSdDecl,
    /// `Some` runs both policies under a tenanted configuration ([tenants]
    /// section: the count/skew/quota knobs of the scenario layer).
    pub tenants: Option<TenantsDecl>,
    pub metric: Metric,
    /// Mean Δ% must be ≤ this (e.g. `0` = "must not regress the sign").
    pub max_pct: Option<f64>,
    /// Mean Δ% must be ≥ this (rough-magnitude floor).
    pub min_pct: Option<f64>,
}

/// Verdict for one evaluated claim.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    pub claim: Claim,
    /// Per-seed Δ%, panel order.
    pub deltas: Vec<f64>,
    pub mean_pct: f64,
    pub pass: bool,
}

/// Parses an expectation file. An optional `[defaults]` section provides
/// `seeds`, `scale`, `model` and `maxsd` for claims that do not set them.
pub fn parse_expectations(text: &str) -> Result<Vec<Claim>, ParseError> {
    let doc = parse_raw_with(text, true)?;
    let mut defaults = Defaults {
        seeds: vec![42],
        scale: None,
        model: ModelDecl::Ideal,
        maxsd: MaxSdDecl::Dyn,
    };
    let mut claims = Vec::new();

    for sec in &doc.sections {
        match sec.name.as_str() {
            "defaults" => {
                for e in &sec.entries {
                    match e.key.as_str() {
                        "seeds" => defaults.seeds = parse_seed_list(sec, "seeds")?,
                        "scale" => defaults.scale = Some(parse_f64(e)?),
                        "model" => defaults.model = ModelDecl::parse_str(&e.value, e.line)?,
                        "maxsd" => defaults.maxsd = MaxSdDecl::parse_str(&e.value, e.line)?,
                        k => {
                            return Err(ParseError::new(
                                e.line,
                                format!(
                                    "unknown key `{k}` in [defaults] (seeds|scale|model|maxsd)"
                                ),
                            ))
                        }
                    }
                }
            }
            "claim" => claims.push(parse_claim(sec, &defaults)?),
            other => {
                return Err(ParseError::new(
                    sec.line,
                    format!("unknown section `[{other}]` (defaults|claim)"),
                ))
            }
        }
    }
    if claims.is_empty() {
        return Err(ParseError::new(1, "expectation file declares no [claim]"));
    }
    let mut seen = std::collections::BTreeSet::new();
    for c in &claims {
        if !seen.insert(c.name.clone()) {
            return Err(ParseError::new(
                1,
                format!("duplicate claim name `{}`", c.name),
            ));
        }
    }
    Ok(claims)
}

fn parse_seed_list(sec: &RawSection, key: &str) -> Result<Vec<u64>, ParseError> {
    let e = sec
        .get(key)
        .expect("caller checked the key exists in this section");
    let items = parse_list(e)?;
    if items.is_empty() {
        return Err(ParseError::new(e.line, "`seeds`: list must not be empty"));
    }
    items
        .iter()
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| ParseError::new(e.line, format!("`seeds`: bad seed `{v}`")))
        })
        .collect()
}

/// What a `[defaults]` section supplies to the claims below it.
struct Defaults {
    seeds: Vec<u64>,
    scale: Option<f64>,
    model: ModelDecl,
    maxsd: MaxSdDecl,
}

fn parse_claim(sec: &RawSection, defaults: &Defaults) -> Result<Claim, ParseError> {
    let mut name = None;
    let mut source = String::new();
    let mut workload = None;
    let mut scale = defaults.scale;
    let mut seeds = defaults.seeds.clone();
    let mut model = defaults.model;
    let mut maxsd = defaults.maxsd;
    let mut metric = None;
    let mut max_pct = None;
    let mut min_pct = None;
    let mut tenants: Option<u32> = None;
    let mut tenant_skew: Option<(f64, usize)> = None;
    let mut quota_fraction: Option<(f64, usize)> = None;
    let mut tenant_queue: Option<(TenantQueueDecl, usize)> = None;

    for e in &sec.entries {
        match e.key.as_str() {
            "name" => name = Some(e.value.clone()),
            "source" => source = e.value.clone(),
            "workload" => workload = Some(SourceKind::parse_str(&e.value, e.line)?),
            "scale" => scale = Some(parse_f64(e)?),
            "seeds" => seeds = parse_seed_list(sec, "seeds")?,
            "seed" => seeds = vec![parse_u64(e)?],
            "model" => model = ModelDecl::parse_str(&e.value, e.line)?,
            "maxsd" => maxsd = MaxSdDecl::parse_str(&e.value, e.line)?,
            "metric" => metric = Some(Metric::parse_str(&e.value, e.line)?),
            "max_pct" => max_pct = Some(parse_f64(e)?),
            "min_pct" => min_pct = Some(parse_f64(e)?),
            "tenants" => {
                let n = parse_u64(e)? as u32;
                if n == 0 {
                    return Err(ParseError::new(e.line, "`tenants`: must be at least 1"));
                }
                tenants = Some(n);
            }
            "tenant_skew" => tenant_skew = Some((parse_f64(e)?, e.line)),
            "quota_fraction" => quota_fraction = Some((parse_f64(e)?, e.line)),
            "tenant_queue" => {
                let q = match e.value.as_str() {
                    "fifo" => TenantQueueDecl::Fifo,
                    "fair_share" => TenantQueueDecl::FairShare,
                    v => {
                        return Err(ParseError::new(
                            e.line,
                            format!("`tenant_queue`: unknown queue policy `{v}` (fifo|fair_share)"),
                        ))
                    }
                };
                tenant_queue = Some((q, e.line));
            }
            k => {
                return Err(ParseError::new(
                    e.line,
                    format!(
                        "unknown key `{k}` in [claim] (name|source|workload|scale|seeds|seed|\
                         model|maxsd|metric|max_pct|min_pct|tenants|tenant_skew|quota_fraction|\
                         tenant_queue)"
                    ),
                ))
            }
        }
    }
    let tenants = match tenants {
        Some(count) => {
            let mut t = TenantsDecl::new(count);
            if let Some((v, _)) = tenant_skew {
                t.skew = v;
            }
            if let Some((v, _)) = quota_fraction {
                t.quota_fraction = v;
            }
            if let Some((q, _)) = tenant_queue {
                t.queue = q;
            }
            Some(t)
        }
        None => {
            for (key, line) in [
                ("tenant_skew", tenant_skew.map(|(_, l)| l)),
                ("quota_fraction", quota_fraction.map(|(_, l)| l)),
                ("tenant_queue", tenant_queue.map(|(_, l)| l)),
            ] {
                if let Some(line) = line {
                    return Err(ParseError::new(
                        line,
                        format!("`{key}` requires a `tenants` count on the claim"),
                    ));
                }
            }
            None
        }
    };
    let name = name.ok_or_else(|| ParseError::new(sec.line, "[claim] needs `name`"))?;
    let workload = workload
        .ok_or_else(|| ParseError::new(sec.line, format!("claim `{name}` needs `workload`")))?;
    if workload == SourceKind::Swf {
        return Err(ParseError::new(
            sec.line,
            format!("claim `{name}`: `swf` replay cannot back a paper claim"),
        ));
    }
    if tenants.is_some() && workload == SourceKind::RealRun {
        return Err(ParseError::new(
            sec.line,
            format!(
                "claim `{name}`: `tenants` requires a synthetic workload \
                 (the tenant mix is stamped by the generator)"
            ),
        ));
    }
    let metric = metric
        .ok_or_else(|| ParseError::new(sec.line, format!("claim `{name}` needs `metric`")))?;
    if max_pct.is_none() && min_pct.is_none() {
        return Err(ParseError::new(
            sec.line,
            format!("claim `{name}` needs `max_pct` and/or `min_pct`"),
        ));
    }
    if let (Some(lo), Some(hi)) = (min_pct, max_pct) {
        if lo > hi {
            return Err(ParseError::new(
                sec.line,
                format!("claim `{name}`: min_pct {lo} > max_pct {hi}"),
            ));
        }
    }
    Ok(Claim {
        name,
        source,
        workload,
        scale,
        seeds,
        model,
        maxsd,
        tenants,
        metric,
        max_pct,
        min_pct,
    })
}

/// Key identifying one deduplicated simulation run across claims.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RunKey {
    workload: &'static str,
    /// Bit pattern keeps the f64 orderable/exact.
    scale_bits: u64,
    seed: u64,
    model: &'static str,
    /// `static` or the MAXSD label.
    policy: String,
    /// Canonical tenancy label (`-` when untenanted) so tenanted and
    /// untenanted claims never share a run.
    tenancy: String,
}

fn scenario_for(claim: &Claim, seed: u64, sd: bool) -> Scenario {
    let mut s = Scenario::new("validate", claim.workload);
    s.description = format!("sd-validate claim {}", claim.name);
    s.seed = seed;
    s.scale = claim.scale;
    s.policy.kind = if sd {
        PolicyKindDecl::Sd
    } else {
        PolicyKindDecl::Static
    };
    s.policy.maxsd = claim.maxsd;
    s.policy.model = claim.model;
    s.tenants = claim.tenants.clone();
    s
}

fn key_for(claim: &Claim, seed: u64, sd: bool) -> RunKey {
    let scenario = scenario_for(claim, seed, sd);
    RunKey {
        workload: match claim.workload {
            SourceKind::Cirne => "cirne",
            SourceKind::CirneIdeal => "cirne_ideal",
            SourceKind::Ricc => "ricc",
            SourceKind::Curie => "curie",
            SourceKind::RealRun => "real_run",
            SourceKind::Swf => "swf",
        },
        scale_bits: scenario.effective_scale().to_bits(),
        seed,
        model: match claim.model {
            ModelDecl::Ideal => "ideal",
            ModelDecl::WorstCase => "worst_case",
            ModelDecl::AppAware => "app_aware",
        },
        policy: if sd {
            format!("{:?}", claim.maxsd)
        } else {
            "static".to_string()
        },
        tenancy: match &claim.tenants {
            Some(t) => format!(
                "{}:{}:{}:{:?}:{}",
                t.count,
                t.skew.to_bits(),
                t.quota_fraction.to_bits(),
                t.queue,
                t.half_life
            ),
            None => "-".to_string(),
        },
    }
}

/// Evaluates every claim: deduplicates the needed simulation runs, executes
/// them through the scenario engine on the shared thread pool, and checks
/// each claim's Δ window. Returns results in file order.
pub fn evaluate(claims: &[Claim], threads: Option<usize>) -> Result<Vec<ClaimResult>, String> {
    // Collect the unique runs all claims need.
    let mut keyed: BTreeMap<RunKey, Scenario> = BTreeMap::new();
    for c in claims {
        for &seed in &c.seeds {
            for sd in [false, true] {
                keyed
                    .entry(key_for(c, seed, sd))
                    .or_insert_with(|| scenario_for(c, seed, sd));
            }
        }
    }
    let keys: Vec<RunKey> = keyed.keys().cloned().collect();
    let points: Vec<RunPoint> = keyed
        .values()
        .map(|s| RunPoint {
            scenario: s.clone(),
            variant: String::new(),
        })
        .collect();
    let outcomes = sweep_with(&points, threads, execute);
    let mut results: BTreeMap<RunKey, SimResult> = BTreeMap::new();
    for (key, outcome) in keys.into_iter().zip(outcomes) {
        match outcome {
            Ok(o) => {
                results.insert(key, o.result);
            }
            Err(e) => return Err(format!("run failed: {e}")),
        }
    }

    let mut out = Vec::with_capacity(claims.len());
    for c in claims {
        let mut deltas = Vec::with_capacity(c.seeds.len());
        for &seed in &c.seeds {
            let base = &results[&key_for(c, seed, false)];
            let sd = &results[&key_for(c, seed, true)];
            let b = c.metric.extract(base);
            let v = c.metric.extract(sd);
            if b == 0.0 {
                return Err(format!(
                    "claim `{}`: zero baseline for {} (seed {seed})",
                    c.name,
                    c.metric.label()
                ));
            }
            deltas.push((v / b - 1.0) * 100.0);
        }
        let mean_pct = deltas.iter().sum::<f64>() / deltas.len() as f64;
        let pass =
            c.max_pct.is_none_or(|hi| mean_pct <= hi) && c.min_pct.is_none_or(|lo| mean_pct >= lo);
        out.push(ClaimResult {
            claim: c.clone(),
            deltas,
            mean_pct,
            pass,
        });
    }
    Ok(out)
}

/// Renders the report table (deterministic, file order).
pub fn report(results: &[ClaimResult]) -> String {
    let mut t = sched_metrics::Table::new(&[
        "claim", "paper", "metric", "policy", "window %", "mean Δ%", "seeds", "verdict",
    ]);
    for r in results {
        let c = &r.claim;
        let window = match (c.min_pct, c.max_pct) {
            (Some(lo), Some(hi)) => format!("[{lo}, {hi}]"),
            (None, Some(hi)) => format!("≤ {hi}"),
            (Some(lo), None) => format!("≥ {lo}"),
            (None, None) => unreachable!("parser requires a bound"),
        };
        t.row(vec![
            c.name.clone(),
            c.source.clone(),
            c.metric.label().to_string(),
            format!("{}", MaxSdLabel(c.maxsd)),
            window,
            format!("{:+.2}", r.mean_pct),
            format!("{}", c.seeds.len()),
            if r.pass { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    t.render()
}

struct MaxSdLabel(MaxSdDecl);

impl std::fmt::Display for MaxSdLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            MaxSdDecl::Value(v) => write!(f, "MAXSD {v}"),
            MaxSdDecl::Infinite => write!(f, "MAXSD inf"),
            MaxSdDecl::Dyn => write!(f, "DynAVGSD"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "
[defaults]
seeds = [1, 2]

[claim]
name = demo
workload = cirne
metric = slowdown
max_pct = 0
";

    #[test]
    fn parses_minimal_file() {
        let claims = parse_expectations(MINIMAL).unwrap();
        assert_eq!(claims.len(), 1);
        let c = &claims[0];
        assert_eq!(c.name, "demo");
        assert_eq!(c.seeds, vec![1, 2]);
        assert_eq!(c.metric, Metric::Slowdown);
        assert_eq!(c.max_pct, Some(0.0));
        assert_eq!(c.min_pct, None);
        assert_eq!(c.maxsd, MaxSdDecl::Dyn);
    }

    #[test]
    fn rejects_claim_without_bounds() {
        let text = "
[claim]
name = x
workload = cirne
metric = slowdown
";
        let err = parse_expectations(text).unwrap_err();
        assert!(err.msg.contains("max_pct"), "{err}");
    }

    #[test]
    fn rejects_inverted_window_and_duplicates() {
        let text = "
[claim]
name = x
workload = cirne
metric = slowdown
min_pct = 0
max_pct = -10
";
        assert!(parse_expectations(text).is_err());
        let dup = "
[claim]
name = x
workload = cirne
metric = slowdown
max_pct = 0

[claim]
name = x
workload = cirne
metric = energy
max_pct = 0
";
        let err = parse_expectations(dup).unwrap_err();
        assert!(err.msg.contains("duplicate"), "{err}");
    }

    #[test]
    fn rejects_unknown_keys_with_line() {
        let text = "
[claim]
name = x
workload = cirne
metric = slowdown
max_pct = 0
typo = 1
";
        let err = parse_expectations(text).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(err.msg.contains("typo"), "{err}");
    }

    #[test]
    fn tenant_claim_rules() {
        let ok = "
[claim]
name = t
workload = ricc
tenants = 3
tenant_skew = 1.5
quota_fraction = 0.5
tenant_queue = fair_share
metric = tenant_share
max_pct = 10
";
        let claims = parse_expectations(ok).unwrap();
        let t = claims[0].tenants.as_ref().unwrap();
        assert_eq!((t.count, t.skew, t.quota_fraction), (3, 1.5, 0.5));
        assert_eq!(t.queue, TenantQueueDecl::FairShare);
        assert_eq!(claims[0].metric, Metric::TenantShare);
        // Tenanted and untenanted claims never dedup onto the same run.
        assert_ne!(key_for(&claims[0], 1, true).tenancy, "-".to_string());

        let orphan = "
[claim]
name = t
workload = ricc
tenant_skew = 1
metric = slowdown
max_pct = 0
";
        let err = parse_expectations(orphan).unwrap_err();
        assert!(err.msg.contains("requires a `tenants` count"), "{err}");

        let real_run = "
[claim]
name = t
workload = real_run
tenants = 2
metric = slowdown
max_pct = 0
";
        let err = parse_expectations(real_run).unwrap_err();
        assert!(err.msg.contains("synthetic"), "{err}");
    }

    #[test]
    fn evaluate_checks_sign_claims_end_to_end() {
        // Tiny scale: a directional slowdown claim must pass, an absurd
        // "SD makes slowdown 10× worse" claim must fail.
        let text = "
[defaults]
seeds = [42]

[claim]
name = sd-helps
workload = cirne
scale = 0.05
metric = slowdown
max_pct = 0

[claim]
name = sd-ruins
workload = cirne
scale = 0.05
metric = slowdown
min_pct = 900
";
        let claims = parse_expectations(text).unwrap();
        let results = evaluate(&claims, Some(2)).unwrap();
        assert!(results[0].pass, "mean {:+.2}", results[0].mean_pct);
        assert!(!results[1].pass);
        // Dedup: both claims share the same runs (3 unique: static + sd… the
        // two claims differ only in bounds, so 2 unique runs total).
        let rep = report(&results);
        assert!(rep.contains("PASS") && rep.contains("FAIL"));
    }

    #[test]
    fn ships_expectation_file_parses() {
        let text = include_str!("../../../scenarios/expectations.exp");
        let claims = parse_expectations(text).unwrap();
        assert!(claims.len() >= 10, "paper file has {} claims", claims.len());
        // Every paper workload is covered.
        for w in ["cirne", "cirne_ideal", "ricc", "curie", "real_run"] {
            let covered = claims.iter().any(|c| key_for(c, 1, true).workload == w);
            assert!(covered, "no claim covers workload {w}");
        }
    }
}
