//! The two binaries, driven as a user drives them: what a flag does, what
//! the reports contain, which files `--out` leaves behind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(bin: &str, args: &str) -> Output {
    let args = args.split(' ').filter(|a| !a.is_empty());
    Command::new(bin).args(args).output().expect("binary runs")
}

/// Runs `run_scenario <args> [--out <out>]` to success; returns its stdout.
fn run_scenario(args: &str, out: Option<&Path>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_scenario"));
    cmd.args(args.split(' '));
    if let Some(path) = out {
        cmd.arg("--out").arg(path);
    }
    let done = cmd.output().expect("run_scenario runs");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(done.status.success(), "{stderr}");
    String::from_utf8(done.stdout).expect("utf-8 report")
}

/// A fresh directory under cargo's per-target scratch space.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn only_a_tenants_scenario_exports_and_prints_tenants() {
    let dir = scratch("tenants");
    // The generators stamp a user id on every job; `bursty` declares no
    // [tenants], so none of them is a tenant.
    let plain = dir.join("bursty.json");
    let stdout = run_scenario("--scenario bursty --scale 0.02 --seed 7", Some(&plain));
    let json = std::fs::read_to_string(&plain).unwrap();
    assert_eq!(json.matches("\"tenants\": []}").count(), 1, "{json}");
    assert!(!json.contains("\"tenant\":"), "{json}");
    assert!(!stdout.contains("tenant"), "{stdout}");

    // A [tenants] scenario is as it was at `cebf291`.
    let mix = dir.join("mix.json");
    let stdout = run_scenario("--scenario tenant-mix-sweep --scale 0.02", Some(&mix));
    let json = std::fs::read_to_string(&mix).unwrap();
    assert_eq!(json.matches("\"scenario\": \"tenant-mix-sweep\"").count(), 6);
    let first_tenant = "\"d_energy_pct\": 1.5919, \"tenants\": [{\"tenant\": 1, \"jobs\": 74, \
                        \"job_share\": 0.2925, \"mean_wait\": 1711.6216, ";
    assert!(json.contains(first_tenant), "{json}");
    assert!(stdout.contains("tenant  jobs  share"), "{stdout}");
}

#[test]
fn one_sd_run_prints_its_detail_and_a_csv_out_gains_companions() {
    let dir = scratch("detail");
    let stdout = run_scenario("--scenario bursty --scale 0.02", Some(&dir.join("one.csv")));
    for section in [
        "(static twin)",
        "slowdown ratio static/SD",
        "jobs per category",
        "per day",
        "better-than-proportional runtime",
    ] {
        assert!(stdout.contains(section), "no `{section}` in:\n{stdout}");
    }
    assert!(!stdout.contains("application mix"), "bursty has no apps");
    let heat = std::fs::read_to_string(dir.join("one.heatmap.csv")).unwrap();
    let header = "metric,runtime_class,node_bucket,ratio,count\nslowdown,";
    assert!(heat.starts_with(header), "{heat}");
    assert!(heat.contains("\nruntime,") && heat.contains("\nwait,"));
    let daily = std::fs::read_to_string(dir.join("one.daily.csv")).unwrap();
    let header = "day,static_slowdown,sd_slowdown,malleable_starts,completed\n0,";
    assert!(daily.starts_with(header), "{daily}");
    assert!(!dir.join("one.tenants.csv").exists());

    // The real-run workload adds the application mix.
    let stdout = run_scenario("--scenario w5-realrun", None);
    let core_neuron = "CoreNeuron    708       35.4%    35.5%";
    assert!(stdout.contains("application mix") && stdout.contains(core_neuron), "{stdout}");

    // A sweep is not one run: rows and one shared twin, no companions.
    let stdout = run_scenario("--scenario maxsd-sweep --scale 0.02", Some(&dir.join("sweep.csv")));
    assert_eq!(stdout.matches("(static twin)").count(), 1, "{stdout}");
    assert!(!stdout.contains("per day"), "{stdout}");
    assert!(!dir.join("sweep.heatmap.csv").exists() && !dir.join("sweep.daily.csv").exists());
}

#[test]
fn a_flag_a_binary_would_ignore_is_an_unknown_flag() {
    let validate = env!("CARGO_BIN_EXE_sd_validate");
    for flag in ["--scale 0.0001", "--seed 999", "--full", "--out x.json"] {
        let out = run(validate, &format!("{flag} --claim w5-energy"));
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = flag.split(' ').next().unwrap();
        assert!(stderr.starts_with(&format!("unknown flag: {name}")), "{stderr}");
        // The usage beside the error offers only what is honoured.
        assert!(stderr.contains("--threads") && !stderr.contains("--out <path>"), "{stderr}");
    }
    let help = run(validate, "--help");
    assert_eq!(help.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&help.stdout);
    assert!(stdout.contains("--claim") && stdout.contains("--threads"), "{stdout}");
    assert!(!stdout.contains("--scale") && !stdout.contains("--swf"), "{stdout}");

    let scenario = env!("CARGO_BIN_EXE_run_scenario");
    let out = run(scenario, "--scenario bursty --swf trace.swf");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("unknown flag: --swf"));
    let help = run(scenario, "--help");
    let stdout = String::from_utf8_lossy(&help.stdout);
    assert!(stdout.contains("--out <path>") && !stdout.contains("--swf"), "{stdout}");
}

#[test]
fn a_cli_override_is_checked_as_the_key_it_overrides() {
    // `--scale -1` ran, and printed `scale -1`, at `0e3432f`.
    let scenario = env!("CARGO_BIN_EXE_run_scenario");
    for bad in ["-1", "0", "nan"] {
        let out = run(scenario, &format!("--scenario bursty --scale {bad}"));
        assert_eq!(out.status.code(), Some(2), "--scale {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("bad --scale: `scale` must be > 0, got {bad}\n");
        assert!(stderr.starts_with(&want), "{stderr}");
    }
    let out = run(scenario, "--scenario bursty --seed 1.5");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("bad --seed: `seed`: not an integer"));

    // A claim is read through the same keys: the parent listed this file.
    let dir = scratch("bad-exp");
    let exp = dir.join("bad.exp");
    std::fs::write(&exp, "[claim]\nname = x\nworkload = ricc\nscale = -1\nmetric = slowdown\nmax_pct = 0\n")
        .unwrap();
    let out = run(env!("CARGO_BIN_EXE_sd_validate"), &format!("--file {} --list", exp.display()));
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad.exp: line 4: `scale` must be > 0, got -1"), "{stderr}");
}

#[test]
fn a_campaign_runs_each_distinct_static_twin_once() {
    // Thirteen of the ablation campaign's fourteen runs are normalised to
    // the same W3 static run and one to its EASY-backfill variant; the
    // parent ran the former seven times, once per member.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_scenario"));
    cmd.args("--campaign ../../scenarios/paper-ablation.campaign --scale 0.02 --threads 2".split(' '));
    let done = cmd.output().expect("run_scenario runs");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&done.stdout), String::from_utf8_lossy(&done.stderr));
    assert!(done.status.success(), "{stderr}");
    assert!(stderr.contains("\n14 runs + 2 shared baselines\n"), "{stderr}");
    let twins: Vec<&str> = stdout.lines().filter(|l| l.contains("(static twin)")).collect();
    assert_eq!(twins.len(), 2, "{stdout}");
    // Each stands above the first run that uses it.
    assert!(twins[0].starts_with("w3-ricc ") && twins[0].contains(" 353069 "), "{stdout}");
    assert!(twins[1].starts_with("ablation-backfill-easy ") && twins[1].contains(" 353077 "), "{stdout}");
    let rows: Vec<&str> = stdout.lines().collect();
    let at = |needle: &str| rows.iter().position(|l| l.starts_with(needle)).unwrap();
    assert_eq!(rows[at("w3-ricc ") + 1].split_whitespace().nth(1), Some("-"), "{stdout}");
    assert!(rows[at("ablation-backfill-easy ") + 1].starts_with("ablation-backfill-easy "));
    // Every run still carries its Δ against its twin.
    assert_eq!(rows.iter().filter(|l| l.contains("DynAVGSD")).count(), 14, "{stdout}");
}

#[test]
fn timing_counts_each_run_alone_whatever_the_thread_count() {
    // Probes count per thread, so concurrent runs no longer share totals:
    // the summed calls column reads the same under one thread and four.
    let calls = |threads: u32| {
        let args = format!("--scenario bursty --scale 0.02 --seed 7 --timing --threads {threads}");
        let done = run(env!("CARGO_BIN_EXE_run_scenario"), &args);
        let stderr = String::from_utf8_lossy(&done.stderr).into_owned();
        assert!(done.status.success(), "{stderr}");
        let table = stderr.split("function ").nth(1).expect("a function table");
        let rows: Vec<(String, u64)> = (table.lines().skip(2))
            .take_while(|l| !l.is_empty())
            .map(|l| {
                let mut cols = l.split_whitespace();
                (cols.next().unwrap().to_string(), cols.next().unwrap().parse().unwrap())
            })
            .collect();
        assert!(rows.iter().any(|(f, n)| f == "backfill_trial" && *n > 0), "{stderr}");
        rows
    };
    assert_eq!(calls(1), calls(4));
}
