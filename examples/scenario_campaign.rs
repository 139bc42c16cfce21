//! Build a scenario in code (no file needed), sweep MAXSD ∈ {5, 10, ∞},
//! and print a slowdown table — the declarative twin of `policy_sweep.rs`.
//!
//! ```sh
//! cargo run --release --example scenario_campaign
//! ```

use sd_sched::prelude::*;
use sd_sched::sd_scenario::{MaxSdDecl, PolicyKindDecl};

fn main() {
    let mut scenario = Scenario::new("code-built-campaign", SourceKind::Ricc);
    scenario.description = "MAXSD sweep on a bursty half-malleable RICC".into();
    scenario.scale = Some(0.05);
    scenario.workload.batch_p = Some(0.6);
    scenario.workload.batch_mean = Some(12.0);
    scenario.slurm.malleable_fraction = 0.5;
    // An axis takes its values as the file would spell them, or as anything
    // that prints that way; each is checked as the `[policy] maxsd` key is.
    let cutoffs = [MaxSdDecl::Value(5.0), MaxSdDecl::Value(10.0), MaxSdDecl::Infinite];
    scenario.sweep.set("maxsd", &cutoffs, 0).expect("valid cut-offs");

    // The scenario is data: it can be rendered, diffed, checked in, and
    // parsed back identically.
    println!("{}", scenario.render());
    assert_eq!(
        Scenario::parse(&scenario.render()).expect("canonical render parses"),
        scenario
    );

    // The static-backfill baseline is the same scenario with the policy
    // swapped out — one field.
    let mut baseline = scenario.clone();
    baseline.policy.kind = PolicyKindDecl::Static;
    baseline.sweep = Default::default();
    let base_out = execute(&expand(&baseline)[0]).expect("baseline runs");
    let base = Summary::from_result("static", &base_out.result, base_out.total_cores);

    let mut table = sched_metrics::Table::new(&["cut-off", "slowdown", "norm", "malleable"]);
    table.row(vec![
        "static".into(),
        format!("{:.1}", base.mean_slowdown),
        "1.000".into(),
        "0".into(),
    ]);
    for point in expand(&scenario) {
        let out = execute(&point).expect("sweep point runs");
        assert_eq!(out.result.leftover_pending, 0, "every job completes");
        let s = Summary::from_result(&out.policy_label, &out.result, out.total_cores);
        table.row(vec![
            out.policy_label.clone(),
            format!("{:.1}", s.mean_slowdown),
            format!("{:.3}", s.mean_slowdown / base.mean_slowdown),
            format!("{}", s.malleable_started),
        ]);
    }
    println!("{}", table.render());
    println!("half the jobs are rigid (malleable_fraction = 0.5) — a mix none of");
    println!("the paper's figures exercises; the cut-off still trades mate");
    println!("protection against malleability exactly as in Figs. 1-3.");
}
