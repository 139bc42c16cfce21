//! Run a declarative scenario (built-in or from a file) as a campaign:
//! expand its sweep cross-product, execute every point over scoped worker
//! threads, print a summary table, and optionally export deterministic
//! JSON/CSV.
//!
//! ```sh
//! cargo run --release --bin run_scenario -- --list
//! cargo run --release --bin run_scenario -- --scenario bursty --scale 0.05
//! cargo run --release --bin run_scenario -- --scenario scenarios/bursty.scn \
//!     --seed 7 --threads 4 --out campaign.json
//! ```
//!
//! Running the same scenario twice with the same `--seed` produces
//! byte-identical output files.
//!
//! Every SD run gets a static-backfill twin, printed as its own row. A
//! campaign that is one SD run beside its twin also prints what only that
//! pair can show — the per-category static/SD ratio heatmaps (the paper's
//! Figs. 4–6), the per-day series (Fig. 7), the count of malleable jobs
//! that beat their resource-proportional runtime (Fig. 9) and, for the
//! real-run workload, the application mix (Table 2) — and a CSV `--out`
//! gains `.heatmap.csv` / `.daily.csv` companions.

use sched_metrics::heatmap::HeatMetric;
use sched_metrics::{
    campaign_csv, campaign_json, daily_csv, heatmap_csv, tenant_csv, tenant_summaries,
    CampaignDeltas, CampaignRow, DailySeries, Heatmap, HeatmapSpec, RatioHeatmap, Summary, Table,
};
use sd_bench::{sweep_with, thread_cap};
use sd_scenario::cli::{self, Flag};
use sd_scenario::{
    baseline_point, builtin_scenarios, execute, execute_traced, expand, find_builtin, run_key,
    Campaign, PolicyKindDecl, RunPoint, Scenario, ScenarioOutcome, SourceKind,
};
use slurm_sim::timing::{self, FnTiming};
use std::collections::HashMap;

/// What the command line asks for.
#[derive(Default)]
struct Cli {
    scenario: Option<String>,
    campaign: Option<String>,
    list: bool,
    timing: bool,
    trace: Option<String>,
    flame: Option<String>,
    log_level: Option<sd_obs::Level>,
    log_json: Option<String>,
    /// `--scale`, or 1 with `--full`; `None` keeps each scenario's own.
    scale: Option<f64>,
    full: bool,
    /// `--seed` as given; `None` keeps each scenario's own.
    seed: Option<u64>,
    threads: Option<usize>,
    out: Option<String>,
}

const TITLE: &str = "run_scenario — execute a declarative scenario campaign";

const FLAGS: &[Flag<Cli>] = &[
    Flag::value("--scenario", "<name|path>", "built-in scenario name or a scenario file",
        |c, v| v.parse().map(|s| c.scenario = Some(s))),
    Flag::value("--campaign", "<path>", "run every scenario named by a .campaign file",
        |c, v| v.parse().map(|p| c.campaign = Some(p))),
    Flag::switch("--list", "list the built-in scenarios and exit", |c| c.list = true),
    Flag::switch("--timing",
        "print a wall-time/scheduler-work table plus the\n\
         per-function hot-path attribution (earliest_start,\n\
         backfill trials, job starts and ends, quota checks,\n\
         fair-share sorts) to stderr (per-run wall is noisy\n\
         unless --threads 1)",
        |c| c.timing = true),
    Flag::value("--trace", "<path>",
        "record every scheduler decision of the first run\n\
         point and write it as Chrome trace-event JSON\n\
         (open in Perfetto / chrome://tracing); prints a\n\
         decision-mix + wait-decomposition summary to stderr",
        |c, v| v.parse().map(|p| c.trace = Some(p))),
    Flag::value("--flame", "<path>",
        "profile the campaign and write a collapsed-stack\n\
         (flamegraph.pl / inferno / speedscope) file\n\
         attributing scheduler wall time per hot function",
        |c, v| v.parse().map(|p| c.flame = Some(p))),
    Flag::value("--log-level", "<lvl>",
        "stderr log verbosity: error|warn|info|debug|trace\n(default info)",
        |c, v| v.level().map(|l| c.log_level = Some(l))),
    Flag::value("--log-json", "<path>", "mirror every emitted log record to a JSON-lines file",
        |c, v| v.parse().map(|p| c.log_json = Some(p))),
    Flag::value("--scale", "<f64>",
        "workload/system scale (default: the scenario's, else\n\
         the workload's CI size; the real-run workload is\n\
         fixed-size)",
        |c, v| v.scenario_key("scale").map(|s| c.scale = s.scale)),
    Flag::switch("--full", "paper-scale run (scale = 1.0)", |c| c.full = true),
    Flag::value("--seed", "<u64>", "base RNG seed (default: the scenario's)",
        |c, v| v.scenario_key("seed").map(|s| c.seed = Some(s.seed))),
    Flag::value("--threads", "<n>", "cap parallel sweep threads (default: all cores)",
        |c, v| thread_cap(v).map(|n| c.threads = Some(n))),
    Flag::value("--out", "<path>",
        "write the runs to this file: CSV if it ends in\n.csv, JSON otherwise",
        |c, v| v.parse().map(|p| c.out = Some(p))),
];

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n\n{}", cli::usage(TITLE, FLAGS));
    std::process::exit(2);
}

/// Runs one point: its result, its wall seconds and, when `profiled`, the
/// hot-path probe rows it counted on this thread (empty otherwise).
fn timed<R>(profiled: bool, run: impl FnOnce() -> R) -> (R, f64, Vec<FnTiming>) {
    if profiled {
        timing::reset();
        timing::enable();
    }
    let t0 = std::time::Instant::now();
    let r = run();
    let wall = t0.elapsed().as_secs_f64();
    let rows = if profiled {
        timing::disable();
        timing::report()
    } else {
        Vec::new()
    };
    (r, wall, rows)
}

/// Parses the command line and applies its logging flags: a refusal exits 2.
fn parse_cli() -> Cli {
    let mut cli = Cli::default();
    cli::parse_args(TITLE, FLAGS, &mut cli, fail);
    if cli.scenario.is_some() && cli.campaign.is_some() {
        fail("--scenario and --campaign are mutually exclusive");
    }
    if cli.full {
        cli.scale = Some(1.0);
    }
    if let Some(level) = cli.log_level {
        sd_obs::set_stderr_level(level);
        sd_obs::set_ring_level(level);
    }
    if let Some(path) = &cli.log_json {
        sd_obs::attach_json_sink(std::path::Path::new(path))
            .unwrap_or_else(|e| fail(&format!("--log-json {path}: {e}")));
    }
    cli
}

fn list_builtins() {
    let mut t = Table::new(&["name", "runs", "description"]);
    for s in builtin_scenarios() {
        t.row(vec![
            s.name.clone(),
            format!("{}", s.sweep.run_count()),
            s.description.clone(),
        ]);
    }
    println!("{}", t.render());
}

fn resolve_scenario(arg: &str) -> Scenario {
    if let Some(s) = find_builtin(arg) {
        return s;
    }
    let path = std::path::Path::new(arg);
    if !path.exists() {
        fail(&format!(
            "`{arg}` is neither a built-in scenario (see --list) nor a file"
        ));
    }
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("reading {arg}: {e}")));
    Scenario::parse(&text).unwrap_or_else(|e| fail(&format!("{arg}: {e}")))
}

fn main() {
    let cli = parse_cli();
    if cli.list {
        list_builtins();
        return;
    }
    let mut scenarios: Vec<Scenario> = match (&cli.scenario, &cli.campaign) {
        (Some(name), None) => vec![resolve_scenario(name)],
        (None, Some(path)) => {
            let p = std::path::Path::new(path);
            let text = std::fs::read_to_string(p)
                .unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
            let campaign =
                Campaign::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
            let base = p.parent().unwrap_or_else(|| std::path::Path::new("."));
            let members = campaign
                .resolve(base)
                .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
            eprintln!(
                "campaign `{}`: {} scenario{}",
                campaign.name,
                members.len(),
                if members.len() == 1 { "" } else { "s" }
            );
            members
        }
        _ => fail("--scenario <name|path> or --campaign <path> is required (or --list)"),
    };

    // CLI overrides pin the base values; a [sweep] over the same axis
    // still wins (expansion only reads the base when the axis is unswept).
    for scenario in &mut scenarios {
        if let Some(seed) = cli.seed {
            scenario.seed = seed;
        }
        // The real-run workload is fixed-size: a campaign-wide `--scale`
        // leaves it alone, as the file format does.
        if scenario.workload.source != SourceKind::RealRun {
            scenario.scale = cli.scale.or(scenario.scale);
        }
    }

    let points: Vec<RunPoint> = scenarios.iter().flat_map(expand).collect();

    // Every SD point gets a static-backfill twin so each campaign row can
    // carry Δ-vs-static columns. Twins with one `run_key` are one run: a
    // `maxsd` sweep's variants share theirs (the cut-off is canonicalised
    // away), and so do a campaign's members on the same workload. Points
    // that *are* static runs serve as their own baseline (`None`).
    let mut baselines: Vec<RunPoint> = Vec::new();
    let mut twin_of: HashMap<String, usize> = HashMap::new();
    let mut baseline_idx: Vec<Option<usize>> = Vec::with_capacity(points.len());
    for p in &points {
        if p.scenario.policy.kind == PolicyKindDecl::Static {
            baseline_idx.push(None);
            continue;
        }
        let b = baseline_point(p);
        let idx = *twin_of.entry(run_key(&b.scenario)).or_insert_with(|| {
            baselines.push(b);
            baselines.len() - 1
        });
        baseline_idx.push(Some(idx));
    }

    for scenario in &scenarios {
        eprintln!(
            "scenario `{}`: {} run{} (scale {}, base seed {})",
            scenario.name,
            scenario.sweep.run_count(),
            if scenario.sweep.run_count() == 1 { "" } else { "s" },
            scenario.effective_scale(),
            scenario.seed,
        );
    }
    eprintln!(
        "{} run{} + {} shared baseline{}",
        points.len(),
        if points.len() == 1 { "" } else { "s" },
        baselines.len(),
        if baselines.len() == 1 { "" } else { "s" },
    );

    let mut work: Vec<RunPoint> = points.clone();
    work.extend(baselines.iter().cloned());
    let profiled = cli.timing || cli.flame.is_some();
    // `--trace` arms decision tracing for the first run point only (a
    // campaign-wide ring would interleave concurrent runs); it executes
    // before the sweep so the stream is single-run and deterministic.
    let ring = cli
        .trace
        .as_ref()
        .map(|_| std::sync::Arc::new(slurm_sim::TraceRing::new(1 << 20)));
    let mut results = Vec::with_capacity(work.len());
    let swept: &[RunPoint] = match &ring {
        Some(ring) => {
            results.push(timed(profiled, || execute_traced(&work[0], ring.clone())));
            &work[1..]
        }
        None => &work,
    };
    results.extend(sweep_with(swept, cli.threads, |p| timed(profiled, || execute(p))));
    let mut outcomes: Vec<ScenarioOutcome> = Vec::with_capacity(results.len());
    let mut walls: Vec<f64> = Vec::with_capacity(results.len());
    // Every run's probe rows, summed in run order.
    let mut probes: Vec<FnTiming> = Vec::new();
    for (r, wall, rows) in results {
        match r {
            Ok(o) => {
                outcomes.push(o);
                walls.push(wall);
            }
            Err(e) => fail(&format!("run failed: {e}")),
        }
        if probes.is_empty() {
            probes = rows;
        } else {
            for (sum, row) in probes.iter_mut().zip(rows) {
                sum.count += row.count;
                sum.total_secs += row.total_secs;
            }
        }
    }
    if let (Some(path), Some(ring)) = (&cli.trace, &ring) {
        let events = ring.snapshot();
        if ring.overwritten() > 0 {
            eprintln!(
                "warning: trace ring overflowed, oldest {} events dropped",
                ring.overwritten()
            );
        }
        std::fs::write(path, slurm_sim::chrome_trace(&events))
            .unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
        eprintln!(
            "wrote {path} ({} events, Chrome trace-event JSON — open in Perfetto)",
            events.len()
        );
        eprint!("{}", sched_metrics::summarize(&events).render());
    }
    if cli.timing {
        let mut tt = Table::new(&[
            "run", "policy", "wall(s)", "events", "passes", "skipped", "peak-prof",
        ]);
        for (i, o) in outcomes.iter().enumerate() {
            let s = &o.result.stats;
            tt.row(vec![
                if i < points.len() {
                    if o.variant.is_empty() {
                        o.scenario.clone()
                    } else {
                        o.variant.clone()
                    }
                } else {
                    format!("baseline {}", i - points.len())
                },
                o.policy_label.clone(),
                format!("{:.3}", walls[i]),
                format!("{}", s.events_dispatched),
                format!("{}", s.sched_passes),
                format!("{}", s.passes_skipped),
                format!("{}", s.peak_profile_len),
            ]);
        }
        eprintln!("{}", tt.render());
        // Dormant probes (count 0) are noise, not data: skip them. The
        // %-of-wall column attributes each probe against the campaign's
        // total wall time (summed across runs, like the probe totals).
        let total_wall: f64 = walls.iter().sum();
        let fns: Vec<_> = probes.iter().filter(|f| f.count > 0).collect();
        if fns.is_empty() {
            eprintln!("(no hot-path probes fired)");
        } else {
            let mut ft = Table::new(&["function", "calls", "total(s)", "mean(us)", "%-of-wall"]);
            for f in &fns {
                ft.row(vec![
                    f.name.to_string(),
                    format!("{}", f.count),
                    format!("{:.3}", f.total_secs),
                    format!("{:.2}", f.mean_micros()),
                    if total_wall > 0.0 {
                        format!("{:.1}", 100.0 * f.total_secs / total_wall)
                    } else {
                        "-".to_string()
                    },
                ]);
            }
            eprintln!("{}", ft.render());
        }
    }
    if let Some(path) = &cli.flame {
        let text = timing::collapsed(&probes);
        if text.is_empty() {
            eprintln!("warning: {path}: no probe fired, flamegraph would be empty");
        }
        std::fs::write(path, text).unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
        eprintln!("wrote {path} (collapsed stacks — flamegraph.pl / inferno / speedscope)");
    }
    let (point_outcomes, baseline_outcomes) = outcomes.split_at(points.len());
    let baseline_summaries: Vec<Summary> = baseline_outcomes
        .iter()
        .map(|o| Summary::from_result(&o.policy_label, &o.result, o.total_cores))
        .collect();

    let rows: Vec<CampaignRow> = point_outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let summary = Summary::from_result(&o.policy_label, &o.result, o.total_cores);
            let deltas = match baseline_idx[i] {
                Some(idx) => Some(CampaignDeltas::against(&summary, &baseline_summaries[idx])),
                // Static points are their own baseline (all-zero deltas).
                None => Some(CampaignDeltas::against(&summary, &summary)),
            };
            CampaignRow {
                scenario: o.scenario.clone(),
                variant: o.variant.clone(),
                seed: o.seed,
                scale: o.scale,
                summary,
                deltas,
                // The generators stamp a user id on every job whether or not
                // it is read as a tenant; only a [tenants] scenario does.
                tenants: (points[i].scenario.tenants.as_ref())
                    .map_or_else(Vec::new, |_| tenant_summaries(&o.result)),
            }
        })
        .collect();

    let mut t = Table::new(&SUMMARY_HEADER);
    let mut twin_shown = vec![false; baseline_outcomes.len()];
    for (i, r) in rows.iter().enumerate() {
        // A static twin's own row goes above the first run normalised to it.
        if let Some(b) = baseline_idx[i].filter(|&b| !twin_shown[b]) {
            twin_shown[b] = true;
            t.row(summary_row("(static twin)", &baseline_outcomes[b], &baseline_summaries[b], None));
        }
        t.row(summary_row(&r.variant, &point_outcomes[i], &r.summary, r.deltas.as_ref()));
    }
    println!("{}", t.render());

    let detail = match (points.as_slice(), baseline_idx.as_slice()) {
        ([p], [Some(b)]) => Some(Detail::print(p, &point_outcomes[0], &baseline_outcomes[*b])),
        _ => None,
    };

    let tenanted = rows.iter().any(|r| !r.tenants.is_empty());
    if tenanted {
        let mut tt = Table::new(&[
            "variant", "tenant", "jobs", "share", "wait(s)", "slowdown", "node-s",
        ]);
        for r in &rows {
            for ts in &r.tenants {
                tt.row(vec![
                    if r.variant.is_empty() {
                        r.scenario.clone()
                    } else {
                        r.variant.clone()
                    },
                    format!("{}", ts.tenant),
                    format!("{}", ts.jobs),
                    format!("{:.2}", ts.job_share),
                    format!("{:.0}", ts.mean_wait),
                    format!("{:.1}", ts.mean_slowdown),
                    format!("{}", ts.node_seconds),
                ]);
            }
        }
        println!("{}", tt.render());
    }

    // Offline SLO evaluation: a `[slo]` section is judged against the
    // completed run's job outcomes. Wait-quantile objectives evaluate
    // exactly (every wait is known); pass-duration and availability are
    // live-serving objectives (wall clock / refused submissions do not
    // exist offline) and are marked accordingly rather than faked.
    if points.iter().any(|p| !p.scenario.slos.is_empty()) {
        let mut st = Table::new(&["variant", "objective", "good", "total", "budget", "verdict"]);
        for (p, o) in points.iter().zip(point_outcomes) {
            for spec in &p.scenario.slos {
                let variant = if o.variant.is_empty() { o.scenario.clone() } else { o.variant.clone() };
                let (good, total) = match spec.kind {
                    sd_obs::SloKind::WaitQuantile => {
                        let total = o.result.outcomes.len() as u64;
                        let good = o
                            .result
                            .outcomes
                            .iter()
                            .filter(|j| (j.wait() as f64) <= spec.threshold)
                            .count() as u64;
                        (good, total)
                    }
                    _ => {
                        st.row(vec![
                            variant,
                            spec.name.clone(),
                            "-".into(),
                            "-".into(),
                            "-".into(),
                            "live-only".into(),
                        ]);
                        continue;
                    }
                };
                // The whole run is one cumulative sample: the verdict is the
                // live server's rule (budget exhausted at ≤ 0).
                let mut tracker = sd_obs::SloTracker::new(spec.clone());
                tracker.record(0, good, total);
                let s = tracker.status();
                st.row(vec![
                    variant,
                    s.name,
                    format!("{}", s.good),
                    format!("{}", s.total),
                    format!("{:+.1}%", s.budget_remaining * 100.0),
                    if s.breached { "BREACHED".into() } else { "ok".into() },
                ]);
            }
        }
        println!("{}", st.render());
    }

    if let Some(out) = &cli.out {
        let as_json = !out.ends_with(".csv");
        let payload = if as_json {
            campaign_json(&rows)
        } else {
            campaign_csv(&rows)
        };
        std::fs::write(out, &payload).unwrap_or_else(|e| fail(&format!("writing {out}: {e}")));
        eprintln!("wrote {out} ({} rows)", rows.len());
        // CSV is fixed-width per row, so the per-tenant breakdown (JSON
        // embeds it inline) and a single run's per-category and per-day
        // detail go to long-format companion files.
        if !as_json {
            let mut companions = Vec::new();
            if tenanted {
                companions.push(("tenants", tenant_csv(&rows)));
            }
            if let Some(d) = &detail {
                companions.push(("heatmap", heatmap_csv(&d.ratios)));
                companions.push(("daily", daily_csv(&d.static_daily, &d.sd_daily)));
            }
            for (kind, payload) in companions {
                let companion = format!("{}.{kind}.csv", out.strip_suffix(".csv").unwrap_or(out));
                std::fs::write(&companion, &payload)
                    .unwrap_or_else(|e| fail(&format!("writing {companion}: {e}")));
                eprintln!("wrote {companion}");
            }
        }
    }
}

const SUMMARY_HEADER: [&str; 17] = [
    "scenario", "variant", "policy", "system(n/c)", "maxjob(n/c)", "jobs", "makespan", "resp(s)",
    "slowdown", "util", "kWh", "malleable", "mates", "Δmksp%", "Δresp%", "Δslow%", "ΔkWh%",
];

/// One line of the summary table; `deltas` is `None` on a static twin's row.
fn summary_row(
    variant: &str,
    o: &ScenarioOutcome,
    s: &Summary,
    deltas: Option<&CampaignDeltas>,
) -> Vec<String> {
    let cores_per_node = o.total_cores / u64::from(o.total_nodes.max(1));
    let max_job = o.result.outcomes.iter().map(|j| j.nodes).max().unwrap_or(0);
    let mut row = vec![
        o.scenario.clone(),
        if variant.is_empty() { "-".to_string() } else { variant.to_string() },
        s.label.clone(),
        format!("{}/{}", o.total_nodes, o.total_cores),
        format!("{}/{}", max_job, u64::from(max_job) * cores_per_node),
        format!("{}", s.jobs),
        format!("{}", s.makespan),
        format!("{:.0}", s.mean_response),
        format!("{:.1}", s.mean_slowdown),
        format!("{:.2}", s.utilization),
        format!("{:.0}", s.energy_kwh),
        format!("{}", s.malleable_started),
        format!("{}", s.unique_mates),
    ];
    match deltas {
        Some(d) => row.extend([
            format!("{:+.2}", d.d_makespan_pct),
            format!("{:+.1}", d.d_response_pct),
            format!("{:+.1}", d.d_slowdown_pct),
            format!("{:+.1}", d.d_energy_pct),
        ]),
        None => row.extend(vec!["-".to_string(); 4]),
    }
    row
}

/// What one SD run beside its static twin shows beyond its summary row,
/// kept for the CSV companions.
struct Detail {
    /// Static/SD ratio per job category, one map per [`HeatMetric`].
    ratios: Vec<RatioHeatmap>,
    static_daily: DailySeries,
    sd_daily: DailySeries,
}

impl Detail {
    fn print(p: &RunPoint, sd: &ScenarioOutcome, twin: &ScenarioOutcome) -> Detail {
        let (sd_jobs, static_jobs) = (&sd.result.outcomes, &twin.result.outcomes);

        let spec = HeatmapSpec::paper_style(sd.total_nodes);
        let titles = [
            "slowdown ratio static/SD per job category (> 1 = SD better)",
            "runtime ratio static/SD (< 1 = SD stretched runtimes)",
            "wait-time ratio static/SD (> 1 = SD better)",
        ];
        let of = |jobs| HeatMetric::ALL.map(|m| Heatmap::build(spec.clone(), m, jobs));
        let (static_maps, sd_maps) = (of(static_jobs), of(sd_jobs));
        let mut ratios = Vec::new();
        for ((base, sd_map), title) in static_maps.iter().zip(&sd_maps).zip(titles) {
            let ratio = RatioHeatmap::compute(base, sd_map);
            println!("=== {title} ===\n\n{}", ratio.render());
            ratios.push(ratio);
        }
        // Cell population, so sparse categories can be discounted.
        let population = &static_maps[0];
        let mut header = vec!["runtime\\nodes".to_string()];
        header.extend((0..spec.node_buckets()).map(|n| spec.node_label(n)));
        let header: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(&header);
        for r in 0..spec.runtime_buckets() {
            let mut row = vec![spec.runtime_label(r)];
            row.extend((0..spec.node_buckets()).map(|n| format!("{}", population.cell_count(r, n))));
            t.row(row);
        }
        println!("=== jobs per category ===\n\n{}", t.render());

        let static_daily = DailySeries::compute(static_jobs);
        let sd_daily = DailySeries::compute(sd_jobs);
        let mut t = Table::new(&[
            "day", "static slowdown", "SD slowdown", "malleable starts", "jobs done",
        ]);
        for d in 0..static_daily.days().max(sd_daily.days()) {
            t.row(vec![
                format!("{d}"),
                format!("{:.1}", static_daily.slowdown.get(d).copied().unwrap_or(0.0)),
                format!("{:.1}", sd_daily.slowdown.get(d).copied().unwrap_or(0.0)),
                format!("{}", sd_daily.malleable_started.get(d).copied().unwrap_or(0)),
                format!("{}", sd_daily.completed.get(d).copied().unwrap_or(0)),
            ]);
        }
        println!("=== per day ===\n\n{}", t.render());
        println!(
            "peak daily slowdown: static {:.1} vs SD {:.1}",
            static_daily.peak_slowdown(),
            sd_daily.peak_slowdown()
        );
        let stats = &sd.result.stats;
        let pct = |n: u64| 100.0 * n as f64 / sd_jobs.len().max(1) as f64;
        println!(
            "malleable-scheduled jobs: {} ({:.1}%), mates: {} ({:.1}%)",
            stats.started_malleable,
            pct(stats.started_malleable),
            stats.unique_mates,
            pct(stats.unique_mates),
        );
        // A job started on a SharingFactor share of its nodes' cores would,
        // scaling linearly, run 1/share times its static runtime; beating
        // that means co-scheduling cost less than the cores it gave up.
        let malleable = sd_jobs.iter().filter(|j| j.malleable_backfilled);
        let better = malleable
            .clone()
            .filter(|j| (j.runtime() as f64) < j.static_runtime as f64 / p.scenario.policy.sharing)
            .count();
        println!(
            "malleable-scheduled jobs with better-than-proportional runtime: {better}/{}",
            malleable.count()
        );

        if p.scenario.workload.source == SourceKind::RealRun {
            print_app_mix(sd_jobs);
        }
        Detail {
            ratios,
            static_daily,
            sd_daily,
        }
    }
}

/// The application mix of an app-bound run beside the application models'
/// parameters (the paper's Table 2; `share` is the paper's percentage).
fn print_app_mix(jobs: &[slurm_sim::JobOutcome]) {
    let mut t = Table::new(&[
        "application", "jobs", "% workload", "paper %", "mean nodes", "mean runtime(s)",
        "CPU util", "mem util", "serial frac", "speedup@48",
    ]);
    for app in &workload::APPS {
        let mine: Vec<_> = jobs.iter().filter(|j| j.app == Some(app.id)).collect();
        let n = mine.len().max(1) as f64;
        t.row(vec![
            app.name.to_string(),
            format!("{}", mine.len()),
            format!("{:.1}%", 100.0 * mine.len() as f64 / jobs.len().max(1) as f64),
            format!("{:.1}%", app.share * 100.0),
            format!("{:.1}", mine.iter().map(|j| f64::from(j.nodes)).sum::<f64>() / n),
            format!("{:.0}", mine.iter().map(|j| j.static_runtime as f64).sum::<f64>() / n),
            format!("{:.2}", app.cpu_util),
            format!("{:.2}", app.mem_util),
            format!("{:.3}", app.serial_fraction),
            format!("{:.1}", app.speedup(48)),
        ]);
    }
    println!("\n=== application mix ===\n\n{}", t.render());
}
