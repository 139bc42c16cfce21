//! Macro-benchmark: timed end-to-end simulator runs (`bench_macro` binary).
//!
//! The criterion microbenches cover isolated kernels; this module times what
//! the ISSUE-4 refactor actually optimises — whole scheduler runs — and
//! records the perf trajectory in `BENCH_<rev>.json` files. Every panel
//! entry is executed on both hot paths (`incremental = false`, the seed
//! rebuild-everything behaviour, and `incremental = true`, the cached /
//! indexed / gated path), which yields a machine-independent speedup ratio
//! next to the absolute wall times, and doubles as an equivalence check:
//! both paths must produce identical outcomes.
//!
//! Wall times are measured on whatever machine runs the benchmark, so the
//! JSON is a diagnostic artifact, not a deterministic export. The
//! `check_sim_s` section is a flat map the CI regression gate re-reads with
//! a trivial scanner (no JSON dependency, see [`parse_check_map`]).

use crate::runner::{PolicyKind, RunConfig};
use sd_policy::{MaxSlowdown, SdPolicy, SdPolicyConfig};
use slurm_sim::{Controller, SimResult, SimState, StaticBackfill};
use std::fmt::Write as _;
use std::time::Instant;
use workload::PaperWorkload;

/// One panel entry: a named configuration timed on both hot paths.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Stable name used as the regression-gate key (`W3 sd ci`, …).
    pub name: String,
    pub workload: PaperWorkload,
    pub policy: PolicyKind,
    pub scale: f64,
    pub seed: u64,
}

/// Timing of one mode (legacy or incremental) over `iters` repetitions.
#[derive(Debug, Clone)]
pub struct ModeTiming {
    pub sim_s_min: f64,
    pub sim_s_mean: f64,
    pub sched_passes: u64,
    pub passes_skipped: u64,
    pub events: u64,
    pub peak_profile_len: usize,
}

/// A fully measured panel entry.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub entry: BenchEntry,
    pub jobs: usize,
    pub makespan: u64,
    pub mean_slowdown: f64,
    pub malleable_started: u64,
    pub legacy: ModeTiming,
    pub incremental: ModeTiming,
    /// `legacy.sim_s_min / incremental.sim_s_min`.
    pub speedup: f64,
    /// Outcomes, makespan and energy identical across the two paths.
    pub results_match: bool,
}

/// The standard panel: W3/W4 under SD-Policy and the static baseline at
/// CI scale; `full` adds the paper-scale W3 and W4 runs.
pub fn panel(full: bool) -> Vec<BenchEntry> {
    let mut out = Vec::new();
    let mut push = |name: &str, w: PaperWorkload, policy: PolicyKind, scale: f64| {
        out.push(BenchEntry {
            name: name.to_string(),
            workload: w,
            policy,
            scale,
            seed: 42,
        });
    };
    let sd = PolicyKind::Sd(MaxSlowdown::DynAvg);
    let st = PolicyKind::StaticBackfill;
    let w3 = PaperWorkload::W3Ricc;
    let w4 = PaperWorkload::W4Curie;
    push("W3 sd ci", w3, sd, w3.default_ci_scale());
    push("W3 static ci", w3, st, w3.default_ci_scale());
    push("W4 sd ci", w4, sd, w4.default_ci_scale());
    push("W4 static ci", w4, st, w4.default_ci_scale());
    if full {
        push("W3 sd full", w3, sd, 1.0);
        push("W3 static full", w3, st, 1.0);
        push("W4 sd full", w4, sd, 1.0);
        push("W4 static full", w4, st, 1.0);
    }
    out
}

/// Runs the simulation once against a pre-generated trace; only state
/// construction and the controller loop are inside the timer, so the
/// legacy/incremental ratio measures the scheduler hot path, not the
/// (identical) workload generation.
fn run_once(entry: &BenchEntry, trace: &swf::Trace, incremental: bool) -> (f64, SimResult) {
    let cfg = RunConfig::new(entry.workload, entry.policy)
        .with_scale(entry.scale)
        .with_seed(entry.seed);
    let mut slurm = cfg.slurm_config();
    slurm.incremental = incremental;
    let model = cfg.model.instantiate();
    let spec = entry.workload.cluster(entry.scale);
    let t0 = Instant::now();
    let state = SimState::new(spec, slurm, trace, model, cfg.sharing);
    let res = match entry.policy {
        PolicyKind::StaticBackfill => Controller::new(state, StaticBackfill).run(),
        PolicyKind::Sd(cutoff) => {
            let sd_cfg = SdPolicyConfig {
                max_slowdown: cutoff,
                ..SdPolicyConfig::default()
            };
            Controller::new(state, SdPolicy::new(sd_cfg)).run()
        }
    };
    (t0.elapsed().as_secs_f64(), res)
}

fn mode_timing(times: &[f64], res: &SimResult) -> ModeTiming {
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    ModeTiming {
        sim_s_min: min,
        sim_s_mean: mean,
        sched_passes: res.stats.sched_passes,
        passes_skipped: res.stats.passes_skipped,
        events: res.stats.events_dispatched,
        peak_profile_len: res.stats.peak_profile_len,
    }
}

/// Measures one entry on both paths. The two modes alternate within each of
/// the `iters` repetitions so slow drift in machine speed (thermal, noisy
/// neighbours) cancels out of the speedup ratio; min and mean are reported.
pub fn measure(entry: &BenchEntry, iters: usize) -> BenchResult {
    let trace = entry.workload.generate(entry.seed, entry.scale);
    let mut legacy_times = Vec::with_capacity(iters);
    let mut incr_times = Vec::with_capacity(iters);
    let mut pair = None;
    for _ in 0..iters.max(1) {
        let (s, lr) = run_once(entry, &trace, false);
        legacy_times.push(s);
        let (s, ir) = run_once(entry, &trace, true);
        incr_times.push(s);
        pair = Some((lr, ir));
    }
    let (legacy_res, incr_res) = pair.expect("at least one iteration");
    let legacy = mode_timing(&legacy_times, &legacy_res);
    let incremental = mode_timing(&incr_times, &incr_res);
    let results_match = legacy_res.outcomes == incr_res.outcomes
        && legacy_res.makespan == incr_res.makespan
        && legacy_res.energy_joules == incr_res.energy_joules;
    BenchResult {
        entry: entry.clone(),
        jobs: incr_res.outcomes.len(),
        makespan: incr_res.makespan,
        mean_slowdown: incr_res.mean_slowdown(),
        malleable_started: incr_res.stats.started_malleable,
        speedup: legacy.sim_s_min / incremental.sim_s_min.max(1e-9),
        legacy,
        incremental,
        results_match,
    }
}

fn fmt_secs(v: f64) -> String {
    format!("{v:.4}")
}

fn mode_json(m: &ModeTiming) -> String {
    format!(
        "{{\"sim_s_min\": {}, \"sim_s_mean\": {}, \"sched_passes\": {}, \
         \"passes_skipped\": {}, \"events\": {}, \"peak_profile_len\": {}}}",
        fmt_secs(m.sim_s_min),
        fmt_secs(m.sim_s_mean),
        m.sched_passes,
        m.passes_skipped,
        m.events,
        m.peak_profile_len
    )
}

/// Renders the results as the `BENCH_<rev>.json` payload (fixed key order).
pub fn render_json(rev: &str, iters: usize, results: &[BenchResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"rev\": \"{rev}\",");
    let _ = writeln!(out, "  \"iters\": {iters},");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"workload\": \"{}\", \"policy\": \"{}\", \
             \"scale\": {}, \"seed\": {}, \"jobs\": {}, \
             \"makespan\": {}, \"mean_slowdown\": {:.4}, \"malleable_started\": {}, \
             \"results_match\": {}, \"speedup\": {:.2},\n     \"legacy\": {},\n     \
             \"incremental\": {}}}",
            r.entry.name,
            r.entry.workload.short(),
            r.entry.policy.label(),
            r.entry.scale,
            r.entry.seed,
            r.jobs,
            r.makespan,
            r.mean_slowdown,
            r.malleable_started,
            r.results_match,
            r.speedup,
            mode_json(&r.legacy),
            mode_json(&r.incremental),
        );
        let _ = writeln!(out, "{}", if i + 1 < results.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    // Flat map the CI regression gate re-reads without a JSON parser.
    let _ = writeln!(out, "  \"check_sim_s\": {{");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {}{}",
            r.entry.name,
            fmt_secs(r.incremental.sim_s_min),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// Extracts the `check_sim_s` map from a `BENCH_*.json` payload written by
/// [`render_json`] (line-oriented scan; no JSON dependency).
pub fn parse_check_map(payload: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut in_map = false;
    for line in payload.lines() {
        let t = line.trim();
        if t.starts_with("\"check_sim_s\"") {
            in_map = true;
            continue;
        }
        if !in_map {
            continue;
        }
        if t.starts_with('}') {
            break;
        }
        let Some((key, value)) = t.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"').to_string();
        let value = value.trim().trim_end_matches(',');
        if let Ok(v) = value.parse::<f64>() {
            out.push((key, v));
        }
    }
    out
}

/// Compares measured results against a committed baseline, normalised for
/// machine speed: the per-entry current/baseline ratios are scaled by their
/// median, so a uniformly slower (or faster) machine — a shared CI runner
/// vs the laptop that produced the baseline — cancels out, while a single
/// entry regressing relative to the others still exceeds `tolerance`.
/// Uniform algorithmic regressions are the `--min-speedup` gate's job (the
/// legacy/incremental ratio is measured on one machine and needs no
/// baseline). Returns the regressions as human-readable lines (empty =
/// pass).
pub fn check_regressions(
    results: &[BenchResult],
    baseline: &[(String, f64)],
    tolerance: f64,
) -> Vec<String> {
    let mut bad_coverage = Vec::new();
    // A baseline entry with no matching measurement means the gate's
    // coverage silently shrank (panel rename/removal without regenerating
    // the baseline) — that is itself a failure, not a skip.
    for (name, _) in baseline {
        if !results.iter().any(|r| r.entry.name == *name) {
            bad_coverage.push(format!(
                "baseline entry `{name}` has no matching measurement — \
                 regenerate the baseline after changing the panel"
            ));
        }
    }
    let mut ratios: Vec<(usize, f64, f64)> = Vec::new(); // (result idx, base, ratio)
    for (i, r) in results.iter().enumerate() {
        if let Some((_, base)) = baseline.iter().find(|(k, _)| *k == r.entry.name) {
            if *base > 0.0 {
                ratios.push((i, *base, r.incremental.sim_s_min / base));
            }
        }
    }
    if ratios.is_empty() {
        return bad_coverage;
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|&(_, _, q)| q).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    // Lower median: conservative for even panel sizes (flags the upper half
    // rather than hiding it inside the factor).
    let machine_factor = sorted[(sorted.len() - 1) / 2];
    let mut bad = bad_coverage;
    for (i, base, ratio) in ratios {
        let limit = machine_factor * (1.0 + tolerance);
        if ratio > limit {
            let r = &results[i];
            bad.push(format!(
                "{}: {:.4}s is {:.2}× its baseline {:.4}s — more than {:.0}% over this \
                 machine's median factor {:.2}×",
                r.entry.name,
                r.incremental.sim_s_min,
                ratio,
                base,
                tolerance * 100.0,
                machine_factor
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_names_are_unique_keys() {
        for full in [false, true] {
            let p = panel(full);
            let mut names: Vec<&str> = p.iter().map(|e| e.name.as_str()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), p.len());
        }
        assert_eq!(panel(false).len(), 4);
        assert_eq!(panel(true).len(), 8);
    }

    #[test]
    fn measure_reports_matching_modes_on_tiny_run() {
        // A very small W3 run: both paths must agree bit-for-bit.
        let entry = BenchEntry {
            name: "tiny".into(),
            workload: PaperWorkload::W3Ricc,
            policy: PolicyKind::Sd(MaxSlowdown::DynAvg),
            scale: 0.02,
            seed: 7,
        };
        let r = measure(&entry, 1);
        assert!(r.results_match, "legacy and incremental paths diverged");
        assert!(r.jobs > 0);
        assert!(r.incremental.sim_s_min > 0.0);
        assert_eq!(r.incremental.sched_passes + r.incremental.passes_skipped,
                   r.legacy.sched_passes, "gating only skips, never adds");
        assert!(r.incremental.peak_profile_len > 0);
    }

    #[test]
    fn json_roundtrips_through_check_map() {
        let entry = BenchEntry {
            name: "W3 sd ci".into(),
            workload: PaperWorkload::W3Ricc,
            policy: PolicyKind::StaticBackfill,
            scale: 0.02,
            seed: 1,
        };
        let timing = ModeTiming {
            sim_s_min: 0.1234,
            sim_s_mean: 0.2,
            sched_passes: 10,
            passes_skipped: 2,
            events: 40,
            peak_profile_len: 9,
        };
        let res = BenchResult {
            entry,
            jobs: 5,
            makespan: 100,
            mean_slowdown: 1.5,
            malleable_started: 0,
            legacy: timing.clone(),
            incremental: timing,
            speedup: 1.0,
            results_match: true,
        };
        let mut other = res.clone();
        other.entry.name = "W3 static ci".into();
        other.incremental.sim_s_min = 0.05;
        let both = vec![res.clone(), other.clone()];
        let json = render_json("abc123", 3, &both);
        assert!(json.contains("\"rev\": \"abc123\""));
        let map = parse_check_map(&json);
        assert_eq!(
            map,
            vec![
                ("W3 sd ci".to_string(), 0.1234),
                ("W3 static ci".to_string(), 0.05)
            ]
        );

        // Regression gate, machine-normalised at 25 % tolerance: identical
        // numbers pass, and so does a uniformly 2× slower machine…
        assert!(check_regressions(&both, &map, 0.25).is_empty());
        let slower_machine: Vec<BenchResult> = both
            .iter()
            .cloned()
            .map(|mut r| {
                r.incremental.sim_s_min *= 2.0;
                r
            })
            .collect();
        assert!(
            check_regressions(&slower_machine, &map, 0.25).is_empty(),
            "uniform machine slowdown must not trip the gate"
        );
        // …but one entry regressing relative to the others fails.
        let mut one_bad = both.clone();
        one_bad[0].incremental.sim_s_min = 0.2;
        let bad = check_regressions(&one_bad, &map, 0.25);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("W3 sd ci"), "{bad:?}");

        // A baseline entry the panel no longer measures is a failure, not a
        // silent coverage loss.
        let mut stale = map.clone();
        stale.push(("W9 renamed ci".to_string(), 0.1));
        let bad = check_regressions(&both, &stale, 0.25);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("W9 renamed ci"), "{bad:?}");
    }
}
