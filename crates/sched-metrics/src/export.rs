//! CSV/JSON export of figures and scenario campaigns.
//!
//! `run_scenario` prints human-readable tables; these writers emit
//! machine-readable CSV/JSON so the paper's plots can be regenerated with
//! any plotting tool. Output is plain `std::fmt::Write` — no serialisation
//! dependency needed. All writers are deterministic: fixed key order, fixed
//! float formatting (Rust's shortest-roundtrip `Display`), no timestamps —
//! two runs of the same seeded experiment produce byte-identical files.

use crate::heatmap::RatioHeatmap;
use crate::summary::{Summary, TenantSummary};
use crate::timeseries::DailySeries;
use sd_obs::{push_json_num, push_json_str};
use std::fmt::Write as _;

/// CSV of ratio heatmaps (Figs. 4–6's data), one block of cells per map:
/// `metric,runtime_class,node_bucket,ratio,count`.
pub fn heatmap_csv(maps: &[RatioHeatmap]) -> String {
    let mut out = String::from("metric,runtime_class,node_bucket,ratio,count\n");
    for h in maps {
        for r in 0..h.spec.runtime_buckets() {
            for n in 0..h.spec.node_buckets() {
                let idx = r * h.spec.node_buckets() + n;
                let ratio = h.ratios[idx]
                    .map(|x| format!("{x:.4}"))
                    .unwrap_or_default();
                writeln!(
                    out,
                    "{},{},{},{},{}",
                    h.metric.label(),
                    h.spec.runtime_label(r),
                    h.spec.node_label(n),
                    ratio,
                    h.counts[idx]
                )
                .expect("string write");
            }
        }
    }
    out
}

/// CSV of two daily series side by side (Fig. 7's data):
/// `day,static_slowdown,sd_slowdown,malleable_starts,completed`.
pub fn daily_csv(baseline: &DailySeries, sd: &DailySeries) -> String {
    let days = baseline.days().max(sd.days());
    let mut out = String::from("day,static_slowdown,sd_slowdown,malleable_starts,completed\n");
    for d in 0..days {
        writeln!(
            out,
            "{},{:.3},{:.3},{},{}",
            d,
            baseline.slowdown.get(d).copied().unwrap_or(0.0),
            sd.slowdown.get(d).copied().unwrap_or(0.0),
            sd.malleable_started.get(d).copied().unwrap_or(0),
            sd.completed.get(d).copied().unwrap_or(0),
        )
        .expect("string write");
    }
    out
}

/// Per-row Δ-vs-baseline columns (the paper's "normalized to static
/// backfill" y-axes, as percentages: negative = the variant improves).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignDeltas {
    /// Label of the baseline policy the deltas are against (`static`).
    pub vs: String,
    pub d_makespan_pct: f64,
    pub d_response_pct: f64,
    pub d_slowdown_pct: f64,
    pub(crate) d_wait_pct: f64,
    pub d_energy_pct: f64,
}

impl CampaignDeltas {
    /// Δ% columns of `row` against `baseline` (same scenario point run under
    /// the baseline policy).
    pub fn against(row: &Summary, baseline: &Summary) -> CampaignDeltas {
        fn pct(v: f64, b: f64) -> f64 {
            if b == 0.0 {
                0.0
            } else {
                (v / b - 1.0) * 100.0
            }
        }
        CampaignDeltas {
            vs: baseline.label.clone(),
            d_makespan_pct: pct(row.makespan as f64, baseline.makespan as f64),
            d_response_pct: pct(row.mean_response, baseline.mean_response),
            d_slowdown_pct: pct(row.mean_slowdown, baseline.mean_slowdown),
            d_wait_pct: pct(row.mean_wait, baseline.mean_wait),
            d_energy_pct: pct(row.energy_kwh, baseline.energy_kwh),
        }
    }
}

/// One row of a scenario campaign: which run it was (scenario × sweep
/// variant × seed × scale) plus the run's [`Summary`] and, when the campaign
/// ran a baseline for the point, the Δ-vs-baseline columns.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    pub scenario: String,
    /// Swept-axis assignment, e.g. `malleable_fraction=0.5 maxsd=10`
    /// (empty when the scenario has no sweep).
    pub variant: String,
    pub seed: u64,
    pub scale: f64,
    pub summary: Summary,
    /// Baseline-normalised Δ columns; `None` when no baseline was run.
    pub deltas: Option<CampaignDeltas>,
    /// Per-tenant breakdown ([`crate::summary::tenant_summaries`]); empty on
    /// untenanted runs.
    pub tenants: Vec<TenantSummary>,
}

/// The flat numeric fields of a [`CampaignRow`], in export order.
const CAMPAIGN_FIELDS: [&str; 11] = [
    "jobs",
    "makespan",
    "mean_response",
    "mean_slowdown",
    "mean_wait",
    "mean_bounded_slowdown",
    "slowdown_stddev",
    "energy_kwh",
    "utilization",
    "malleable_started",
    "unique_mates",
];

/// The Δ-vs-baseline columns, in export order (after the flat fields).
const DELTA_FIELDS: [&str; 5] = [
    "d_makespan_pct",
    "d_response_pct",
    "d_slowdown_pct",
    "d_wait_pct",
    "d_energy_pct",
];

fn delta_values(d: &CampaignDeltas) -> [f64; 5] {
    [
        d.d_makespan_pct,
        d.d_response_pct,
        d.d_slowdown_pct,
        d.d_wait_pct,
        d.d_energy_pct,
    ]
}

fn campaign_values(r: &CampaignRow) -> [f64; 11] {
    let s = &r.summary;
    [
        s.jobs as f64,
        s.makespan as f64,
        s.mean_response,
        s.mean_slowdown,
        s.mean_wait,
        s.mean_bounded_slowdown,
        s.slowdown_stddev,
        s.energy_kwh,
        s.utilization,
        s.malleable_started as f64,
        s.unique_mates as f64,
    ]
}

/// A tenant row's fractional columns, in export order.
fn tenant_values(t: &TenantSummary) -> [(&'static str, f64); 3] {
    [("job_share", t.job_share), ("mean_wait", t.mean_wait), ("mean_slowdown", t.mean_slowdown)]
}

/// Rounds to 4 decimals — Δ columns are percentages; full f64 precision is
/// noise and bloats the export.
fn round4(v: f64) -> f64 {
    if v.is_finite() {
        (v * 1e4).round() / 1e4
    } else {
        v
    }
}

/// Deterministic JSON array of campaign rows: fixed key order, no
/// timestamps; identical inputs yield byte-identical output.
pub fn campaign_json(rows: &[CampaignRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let mut obj = String::from("  {\"scenario\": ");
        push_json_str(&mut obj, &r.scenario);
        obj.push_str(", \"variant\": ");
        push_json_str(&mut obj, &r.variant);
        obj.push_str(", \"policy\": ");
        push_json_str(&mut obj, &r.summary.label);
        let _ = write!(obj, ", \"seed\": {}, \"scale\": ", r.seed);
        push_json_num(&mut obj, r.scale);
        for (k, v) in CAMPAIGN_FIELDS.iter().zip(campaign_values(r)) {
            let _ = write!(obj, ", \"{k}\": ");
            push_json_num(&mut obj, v);
        }
        match &r.deltas {
            Some(d) => {
                obj.push_str(", \"baseline\": ");
                push_json_str(&mut obj, &d.vs);
                for (k, v) in DELTA_FIELDS.iter().zip(delta_values(d)) {
                    let _ = write!(obj, ", \"{k}\": ");
                    push_json_num(&mut obj, round4(v));
                }
            }
            None => {
                let _ = write!(obj, ", \"baseline\": null");
                for k in DELTA_FIELDS {
                    let _ = write!(obj, ", \"{k}\": null");
                }
            }
        }
        let _ = write!(obj, ", \"tenants\": [");
        for (j, t) in r.tenants.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(obj, "{sep}{{\"tenant\": {}, \"jobs\": {}", t.tenant, t.jobs);
            for (k, v) in tenant_values(t) {
                let _ = write!(obj, ", \"{k}\": ");
                push_json_num(&mut obj, round4(v));
            }
            let _ = write!(obj, ", \"node_seconds\": {}}}", t.node_seconds);
        }
        obj.push(']');
        obj.push('}');
        if i + 1 < rows.len() {
            obj.push(',');
        }
        out.push_str(&obj);
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Deterministic CSV of campaign rows (same columns as the JSON export).
pub fn campaign_csv(rows: &[CampaignRow]) -> String {
    let mut out = String::from("scenario,variant,policy,seed,scale");
    for k in CAMPAIGN_FIELDS {
        out.push(',');
        out.push_str(k);
    }
    out.push_str(",baseline");
    for k in DELTA_FIELDS {
        out.push(',');
        out.push_str(k);
    }
    out.push('\n');
    for r in rows {
        let _ = write!(
            out,
            "{},{},{},{},",
            r.scenario.replace(',', ";"),
            r.variant.replace(',', ";"),
            r.summary.label.replace(',', ";"),
            r.seed,
        );
        push_json_num(&mut out, r.scale);
        for v in campaign_values(r) {
            out.push(',');
            push_json_num(&mut out, v);
        }
        match &r.deltas {
            Some(d) => {
                out.push(',');
                out.push_str(&d.vs.replace(',', ";"));
                for v in delta_values(d) {
                    out.push(',');
                    push_json_num(&mut out, round4(v));
                }
            }
            None => out.push_str(",,,,,,"),
        }
        out.push('\n');
    }
    out
}

/// Long-format per-tenant companion to [`campaign_csv`]: one line per
/// (campaign row, tenant). Untenanted rows contribute nothing; the header is
/// always present so the file shape is stable. Deterministic like the other
/// writers — identical rows yield byte-identical output.
pub fn tenant_csv(rows: &[CampaignRow]) -> String {
    let mut out = String::from(
        "scenario,variant,policy,seed,tenant,jobs,job_share,mean_wait,mean_slowdown,node_seconds\n",
    );
    for r in rows {
        for t in &r.tenants {
            let _ = write!(
                out,
                "{},{},{},{},{},{}",
                r.scenario.replace(',', ";"),
                r.variant.replace(',', ";"),
                r.summary.label.replace(',', ";"),
                r.seed,
                t.tenant,
                t.jobs,
            );
            for (_, v) in tenant_values(t) {
                out.push(',');
                push_json_num(&mut out, round4(v));
            }
            let _ = writeln!(out, ",{}", t.node_seconds);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatmap::{HeatMetric, Heatmap, HeatmapSpec};

    #[test]
    fn daily_csv_includes_all_days() {
        let base = DailySeries {
            slowdown: vec![1.0, 2.0],
            completed: vec![3, 4],
            malleable_started: vec![0, 0],
        };
        let sd = DailySeries {
            slowdown: vec![0.5],
            completed: vec![3],
            malleable_started: vec![2],
        };
        let csv = daily_csv(&base, &sd);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(1).unwrap().starts_with("0,1.000,0.500,2,3"));
        assert!(csv.lines().nth(2).unwrap().starts_with("1,2.000,0.000,0,0"));
    }

    fn row(scenario: &str, variant: &str, seed: u64) -> CampaignRow {
        let s = Summary {
            label: "MAXSD 10".into(),
            jobs: 100,
            makespan: 5000,
            mean_response: 321.5,
            mean_slowdown: 2.25,
            mean_wait: 12.0,
            mean_bounded_slowdown: 1.5,
            energy_kwh: 3.0,
            utilization: 0.75,
            malleable_started: 7,
            unique_mates: 3,
            slowdown_stddev: 0.5,
        };
        CampaignRow {
            scenario: scenario.into(),
            variant: variant.into(),
            seed,
            scale: 0.05,
            summary: s,
            deltas: None,
            tenants: vec![],
        }
    }

    fn tenant(tenant: u32, jobs: usize, share: f64) -> TenantSummary {
        TenantSummary {
            tenant,
            jobs,
            job_share: share,
            mean_wait: 12.5,
            mean_slowdown: 2.0,
            node_seconds: 1000,
        }
    }

    #[test]
    fn campaign_json_is_deterministic_and_escaped() {
        let rows = vec![row("bursty", "maxsd=10 \"q\"", 1), row("bursty", "maxsd=inf", 2)];
        let a = campaign_json(&rows);
        let b = campaign_json(&rows);
        assert_eq!(a, b, "byte-identical across calls");
        assert!(a.starts_with("[\n"));
        assert!(a.ends_with("]\n"));
        assert!(a.contains("\\\"q\\\""), "quotes escaped: {a}");
        assert!(a.contains("\"mean_slowdown\": 2.25"));
        assert!(a.contains("\"makespan\": 5000"), "ints have no .0");
        assert_eq!(a.matches("\"scenario\"").count(), 2);
    }

    #[test]
    fn campaign_csv_shape_matches_json_fields() {
        let rows = vec![row("a,b", "", 1)];
        let csv = campaign_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        let header_cols = lines[0].split(',').count();
        assert_eq!(lines[1].split(',').count(), header_cols);
        assert!(lines[1].starts_with("a;b,,MAXSD 10,1,0.05"), "{}", lines[1]);
    }

    #[test]
    fn campaign_exports_carry_delta_columns() {
        let mut r = row("w3", "maxsd=10", 1);
        let mut base = r.summary.clone();
        base.label = "static".into();
        base.makespan = 10_000;
        base.mean_slowdown = 4.5;
        base.energy_kwh = 6.0;
        r.summary.makespan = 9_000;
        r.deltas = Some(CampaignDeltas::against(&r.summary, &base));
        let json = campaign_json(std::slice::from_ref(&r));
        assert!(json.contains("\"baseline\": \"static\""), "{json}");
        assert!(json.contains("\"d_makespan_pct\": -10"), "{json}");
        assert!(json.contains("\"d_slowdown_pct\": -50"), "{json}");
        assert!(json.contains("\"d_energy_pct\": -50"), "{json}");
        let csv = campaign_csv(&[r]);
        let header = csv.lines().next().unwrap();
        assert!(header.ends_with(
            "baseline,d_makespan_pct,d_response_pct,d_slowdown_pct,d_wait_pct,d_energy_pct"
        ));
        let line = csv.lines().nth(1).unwrap();
        assert_eq!(line.split(',').count(), header.split(',').count());
        assert!(line.contains(",static,-10,"), "{line}");
    }

    #[test]
    fn campaign_exports_without_baseline_are_padded() {
        let r = row("w3", "", 1);
        assert!(r.deltas.is_none());
        let json = campaign_json(std::slice::from_ref(&r));
        assert!(json.contains("\"baseline\": null"), "{json}");
        assert!(json.contains("\"d_energy_pct\": null"), "{json}");
        let csv = campaign_csv(&[r]);
        let header_cols = csv.lines().next().unwrap().split(',').count();
        assert_eq!(csv.lines().nth(1).unwrap().split(',').count(), header_cols);
    }

    #[test]
    fn campaign_json_inlines_tenant_breakdowns() {
        let mut r = row("tenant-mix", "tenant_skew=1", 1);
        r.tenants = vec![tenant(1, 60, 0.6), tenant(2, 40, 0.4)];
        let json = campaign_json(std::slice::from_ref(&r));
        assert!(
            json.contains("\"tenants\": [{\"tenant\": 1, \"jobs\": 60, \"job_share\": 0.6"),
            "{json}"
        );
        assert!(json.contains("{\"tenant\": 2, \"jobs\": 40"), "{json}");
        // Untenanted rows carry an empty array, keeping the shape stable.
        let plain = campaign_json(&[row("w3", "", 1)]);
        assert!(plain.contains("\"tenants\": []"), "{plain}");
        assert_eq!(json, campaign_json(&[r]), "byte-identical across calls");
    }

    #[test]
    fn tenant_csv_is_long_format() {
        let mut r = row("tenant-mix", "quota_fraction=0.5", 3);
        r.tenants = vec![tenant(1, 60, 0.6), tenant(2, 40, 0.4)];
        let csv = tenant_csv(&[r.clone(), row("w3", "", 1)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 tenants; untenanted row silent");
        assert_eq!(
            lines[0],
            "scenario,variant,policy,seed,tenant,jobs,job_share,mean_wait,mean_slowdown,node_seconds"
        );
        assert_eq!(lines[1], "tenant-mix,quota_fraction=0.5,MAXSD 10,3,1,60,0.6,12.5,2,1000");
        assert_eq!(csv, tenant_csv(&[r, row("w3", "", 1)]), "deterministic");
    }

    #[test]
    fn deltas_against_self_are_zero() {
        let s = row("x", "", 1).summary;
        let d = CampaignDeltas::against(&s, &s);
        assert_eq!(d.d_makespan_pct, 0.0);
        assert_eq!(d.d_slowdown_pct, 0.0);
        assert_eq!(d.d_energy_pct, 0.0);
    }

    #[test]
    fn campaign_json_survives_degenerate_metrics() {
        let mut r = row("empty", "", 1);
        r.summary.mean_slowdown = f64::NAN;
        r.summary.utilization = f64::INFINITY;
        let json = campaign_json(&[r]);
        assert!(json.contains("\"mean_slowdown\": null"), "{json}");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn heatmap_csv_covers_every_cell() {
        let spec = HeatmapSpec::paper_style(4);
        let h = Heatmap::new(spec.clone(), HeatMetric::Slowdown);
        let h2 = Heatmap::new(spec.clone(), HeatMetric::Slowdown);
        let ratio = crate::heatmap::RatioHeatmap::compute(&h, &h2);
        let csv = heatmap_csv(&[ratio.clone(), ratio]);
        // header + one runtime_buckets × node_buckets block per map
        assert_eq!(
            csv.lines().count(),
            1 + 2 * spec.runtime_buckets() * spec.node_buckets()
        );
        // Empty cells serialise with an empty ratio field.
        assert!(csv.lines().nth(1).unwrap().starts_with("slowdown,"));
        assert!(csv.lines().nth(1).unwrap().contains(",,0"));
    }
}
