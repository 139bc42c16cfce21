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
//! `key = value`), and what a claim says about the run — workload, scale,
//! model, cut-off, tenancy — it says with the scenario format's own keys
//! ([`SCENARIO_KEYS`]), each read through its row of `sd_scenario::KEYS`:
//! one grammar and one set of range checks describe both experiments and
//! their expected outcomes.

use crate::runner::sweep_with;
use sd_scenario::format::{
    parse_f64, parse_list, parse_raw_with, unknown_key, RawEntry, RawSection,
};
use sd_scenario::{
    baseline_point, execute, find_key, run_key, Key, ParseError, RunPoint, Scenario, SourceKind,
    Vocab,
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

impl Vocab for Metric {
    const WORDS: &'static [(&'static str, Self)] = &[
        ("slowdown", Metric::Slowdown),
        ("response", Metric::Response),
        ("wait", Metric::Wait),
        ("makespan", Metric::Makespan),
        ("energy", Metric::Energy),
        ("tenant_share", Metric::TenantShare),
    ];
}

impl Metric {
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
    /// The SD run the claim is about, seed aside: workload, scale, runtime
    /// model, MAXSD cut-off and tenancy, each read through the scenario
    /// format's own key. Its static twin is [`baseline_point`].
    pub scenario: Scenario,
    pub seeds: Vec<u64>,
    pub metric: Metric,
    /// Mean Δ% must be ≤ this (e.g. `0` = "must not regress the sign").
    pub(crate) max_pct: Option<f64>,
    /// Mean Δ% must be ≥ this (rough-magnitude floor).
    pub(crate) min_pct: Option<f64>,
}

/// Verdict for one evaluated claim.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    pub claim: Claim,
    /// Per-seed Δ%, panel order.
    pub deltas: Vec<f64>,
    pub(crate) mean_pct: f64,
    pub pass: bool,
}

/// The keys of a `[claim]` that are scenario keys under another name, as
/// `(claim key, section, scenario key)`. They are applied in this order,
/// `tenants` ahead of the keys that only tune a tenancy.
pub const SCENARIO_KEYS: [(&str, &str, &str); 8] = [
    ("workload", "workload", "source"),
    ("scale", "scenario", "scale"),
    ("model", "policy", "model"),
    ("maxsd", "policy", "maxsd"),
    ("tenants", "tenants", "count"),
    ("tenant_skew", "tenants", "skew"),
    ("quota_fraction", "tenants", "quota_fraction"),
    ("tenant_queue", "tenants", "queue"),
];

/// What `[defaults]` may set for the claims below it.
pub const DEFAULTS_KEYS: [&str; 4] = ["seeds", "scale", "model", "maxsd"];

/// A claim's own keys.
pub const CLAIM_KEYS: [&str; 7] = ["name", "source", "seeds", "seed", "metric", "max_pct", "min_pct"];

fn scenario_key(alias: &str) -> Option<&'static Key> {
    let (_, section, name) = SCENARIO_KEYS.iter().find(|(a, _, _)| *a == alias)?;
    Some(find_key(section, name).expect("every alias names a scenario key"))
}

/// Parses an expectation file. An optional `[defaults]` section provides
/// `seeds`, `scale`, `model` and `maxsd` for claims that do not set them.
pub fn parse_expectations(text: &str) -> Result<Vec<Claim>, ParseError> {
    let doc = parse_raw_with(text, true)?;
    let mut default_seeds = vec![42];
    let mut defaults = Scenario::new("validate", SourceKind::Ricc);
    let mut claims = Vec::new();

    for sec in &doc.sections {
        match sec.name.as_str() {
            "defaults" => {
                for e in &sec.entries {
                    if !DEFAULTS_KEYS.contains(&e.key.as_str()) {
                        return Err(unknown_key(&e.key, "defaults", &DEFAULTS_KEYS, e.line));
                    }
                    match scenario_key(&e.key) {
                        Some(key) => key.set(&mut defaults, &e.value, e.line)?,
                        None => default_seeds = parse_seeds(e)?,
                    }
                }
            }
            "claim" => claims.push(parse_claim(sec, &default_seeds, &defaults)?),
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

/// A seed panel: a `[a, b]` list (or one bare seed) read through the
/// scenario format's `seed` key.
fn parse_seeds(e: &RawEntry) -> Result<Vec<u64>, ParseError> {
    let items = if e.key == "seeds" { parse_list(e)? } else { vec![e.value.clone()] };
    if items.is_empty() {
        return Err(ParseError::new(e.line, "`seeds`: list must not be empty"));
    }
    let key = find_key("scenario", "seed").expect("the format has a seed");
    let mut scratch = Scenario::new("validate", SourceKind::Ricc);
    items
        .iter()
        .map(|v| key.set(&mut scratch, v, e.line).map(|()| scratch.seed))
        .collect()
}

fn parse_claim(
    sec: &RawSection,
    default_seeds: &[u64],
    defaults: &Scenario,
) -> Result<Claim, ParseError> {
    let mut name = None;
    let mut source = String::new();
    let mut seeds = default_seeds.to_vec();
    let mut metric = None;
    let mut max_pct = None;
    let mut min_pct = None;

    for e in &sec.entries {
        match e.key.as_str() {
            "name" => name = Some(e.value.clone()),
            "source" => source = e.value.clone(),
            "seeds" | "seed" => seeds = parse_seeds(e)?,
            "metric" => metric = Some(Metric::parse(e)?),
            "max_pct" => max_pct = Some(parse_f64(e)?),
            "min_pct" => min_pct = Some(parse_f64(e)?),
            k if scenario_key(k).is_some() => {}
            _ => {
                let aliases = SCENARIO_KEYS.iter().map(|(a, _, _)| *a);
                let known: Vec<&str> = CLAIM_KEYS.into_iter().chain(aliases).collect();
                return Err(unknown_key(&e.key, "claim", &known, e.line));
            }
        }
    }
    let mut scenario = defaults.clone();
    for (alias, section, name) in SCENARIO_KEYS {
        if let Some(e) = sec.get(alias) {
            let key = find_key(section, name).expect("every alias names a scenario key");
            key.set(&mut scenario, &e.value, e.line)?;
        }
    }
    if scenario.tenants.is_none() {
        // A tenancy key only tunes a tenancy that `tenants` declared.
        let orphan = sec.entries.iter().find(|e| {
            scenario_key(&e.key).is_some_and(|k| k.section == "tenants")
        });
        if let Some(e) = orphan {
            return Err(ParseError::new(
                e.line,
                format!("`{}` requires a `tenants` count on the claim", e.key),
            ));
        }
    }
    let name = name.ok_or_else(|| ParseError::new(sec.line, "[claim] needs `name`"))?;
    if sec.get("workload").is_none() {
        return Err(ParseError::new(sec.line, format!("claim `{name}` needs `workload`")));
    }
    let workload = scenario.workload.source;
    if workload == SourceKind::Swf {
        return Err(ParseError::new(
            sec.line,
            format!("claim `{name}`: `swf` replay cannot back a paper claim"),
        ));
    }
    if scenario.tenants.is_some() && workload == SourceKind::RealRun {
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
        scenario,
        seeds,
        metric,
        max_pct,
        min_pct,
    })
}

/// The claim's SD run (`sd`) or its static twin at one panel seed.
fn point_for(claim: &Claim, seed: u64, sd: bool) -> RunPoint {
    let mut scenario = claim.scenario.clone();
    scenario.seed = seed;
    let point = RunPoint { scenario, variant: String::new() };
    if sd {
        point
    } else {
        baseline_point(&point)
    }
}

/// The distinct runs the claims need, by [`run_key`]: claims that differ
/// only in metric or window share both runs, and claims that differ only in
/// cut-off share the static one.
fn needed_runs(claims: &[Claim]) -> BTreeMap<String, RunPoint> {
    let mut needed = BTreeMap::new();
    for c in claims {
        for &seed in &c.seeds {
            for sd in [false, true] {
                let point = point_for(c, seed, sd);
                needed.entry(run_key(&point.scenario)).or_insert(point);
            }
        }
    }
    needed
}

/// Evaluates every claim: executes the runs they need through the scenario
/// engine on the shared thread pool, and checks each claim's Δ window.
/// Returns results in file order.
pub fn evaluate(claims: &[Claim], threads: Option<usize>) -> Result<Vec<ClaimResult>, String> {
    let (keys, points): (Vec<String>, Vec<RunPoint>) = needed_runs(claims).into_iter().unzip();
    let outcomes = sweep_with(&points, threads, execute);
    let mut results: BTreeMap<String, SimResult> = BTreeMap::new();
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
            let base = &results[&run_key(&point_for(c, seed, false).scenario)];
            let sd = &results[&run_key(&point_for(c, seed, true).scenario)];
            let b = c.metric.extract(base);
            let v = c.metric.extract(sd);
            if b == 0.0 {
                return Err(format!(
                    "claim `{}`: zero baseline for {} (seed {seed})",
                    c.name,
                    c.metric.word()
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
            c.metric.word().to_string(),
            c.scenario.policy.maxsd.to_policy().label(),
            window,
            format!("{:+.2}", r.mean_pct),
            format!("{}", c.seeds.len()),
            if r.pass { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_scenario::{MaxSdDecl, TenantQueueDecl, TenantsDecl};

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
        assert_eq!(c.scenario.policy.maxsd, MaxSdDecl::Dyn);
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
        let t = claims[0].scenario.tenants.as_ref().unwrap();
        assert_eq!((t.count, t.skew, t.quota_fraction), (3, 1.5, 0.5));
        assert_eq!(t.queue, TenantQueueDecl::FairShare);
        assert_eq!(claims[0].metric, Metric::TenantShare);
        // Tenanted and untenanted claims never dedup onto the same run.
        let mut untenanted = claims[0].clone();
        untenanted.scenario.tenants = None;
        for sd in [false, true] {
            let (a, b) = (point_for(&claims[0], 1, sd), point_for(&untenanted, 1, sd));
            assert_ne!(run_key(&a.scenario), run_key(&b.scenario));
        }

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

    /// A two-tenant RICC claim whose line 7 is `entry`, which may be the
    /// workload or the tenant count itself.
    fn claim_with(entry: &str) -> String {
        let sets = |key: &str| entry.starts_with(&format!("{key} ="));
        let workload = if sets("workload") { "source = filler" } else { "workload = ricc" };
        let tenants = if sets("tenants") { "" } else { "tenants = 2" };
        format!("\n[claim]\nname = x\n{workload}\nmetric = slowdown\n{tenants}\n{entry}\nmax_pct = 0\n")
    }

    #[test]
    fn a_claim_value_the_scenario_format_refuses_is_refused() {
        // Four of these parsed at `0e3432f`: the claim parser had its own,
        // unchecked copy of each key (`4294967297 as u32` is 1).
        for (entry, why) in [
            ("scale = -1", "`scale` must be > 0, got -1"),
            ("tenant_skew = -3", "`skew` must be ≥ 0, got -3"),
            ("quota_fraction = 0", "`quota_fraction` must be > 0, got 0"),
            ("tenants = 0", "`count` must be at least 1, got 0"),
            ("tenants = 4294967297", "`count`: not an integer: 4294967297"),
            ("tenant_queue = lottery", "`queue`: unknown value `lottery` (fifo|fair_share)"),
            ("maxsd = 0.5", "`maxsd` must be a number > 1, `inf` or `dyn`, got 0.5"),
        ] {
            let err = parse_expectations(&claim_with(entry)).unwrap_err();
            assert_eq!((err.line, err.msg.as_str()), (7, why), "{entry}");
        }
        // [defaults] reads its scenario keys the same way.
        for entry in ["scale = -1", "maxsd = 0.5", "model = perfect", "seeds = [1, x]"] {
            let text = format!("[defaults]\nseeds = [1]\n{entry}\n{}", claim_with("scale = 1"));
            assert_eq!(parse_expectations(&text).unwrap_err().line, 3, "{entry}");
        }
        assert_eq!(parse_expectations(&claim_with("seed = -1")).unwrap_err().line, 7);
    }

    #[test]
    fn a_claim_key_takes_exactly_what_its_scenario_key_takes() {
        let pool = [
            "-3", "-1", "0", "0.5", "1", "1.5", "2", "4294967297", "1e400", "nan", "inf", "dyn",
            "x", "lottery", "fair_share", "ideal", "curie",
        ];
        for (alias, _, _) in SCENARIO_KEYS {
            let key = scenario_key(alias).unwrap();
            for v in pool {
                let mut scratch = Scenario::new("validate", SourceKind::Ricc);
                scratch.tenants = Some(TenantsDecl::new(2));
                let direct = key.set(&mut scratch, v, 7);
                match parse_expectations(&claim_with(&format!("{alias} = {v}"))) {
                    Ok(claims) => {
                        assert_eq!(direct, Ok(()), "{alias} = {v} accepted");
                        assert_eq!(key.get(&claims[0].scenario), key.get(&scratch), "{alias} = {v}");
                    }
                    Err(e) => assert_eq!(Err(e), direct, "{alias} = {v}"),
                }
            }
        }
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
            let source = find_key("workload", "source").unwrap();
            let covered = claims.iter().any(|c| source.get(&c.scenario).as_deref() == Some(w));
            assert!(covered, "no claim covers workload {w}");
        }
        // 30 claims × 5 seeds × 2 policies share runs down to what the
        // hand-built key deduplicated them to at `0e3432f`.
        assert_eq!(needed_runs(&claims).len(), 110);
    }
}
