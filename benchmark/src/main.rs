//! `sdbench` — one benchmark for the whole stack.
//!
//! ```text
//! sdbench run --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! sdbench all [--seed N] [--seconds S]                        every workload untraced, then traced
//! sdbench repeat [--seed N] [--seconds S]                     the set twice, compared within bounds
//! sdbench manifest [--write]                                  BENCHMARK.json + benchmark/manifest.json
//! ```
//!
//! Each workload runs in a process of its own (`all` and `repeat` spawn
//! `run`), so `peak_rss_mb` is per workload.

mod calib;
mod inputs;
mod layers;
mod offline;
mod pin;
mod report;
mod served;
mod span;
mod spec;
mod stats;

use report::{Outcome, RunCtx};
use sd_serve::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Trace files, scratch WAL directories, the last run's numbers: inside
/// the checkout the binary was built in, whatever the working directory.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")),
    }
}

fn dispatch(w: &'static spec::Workload, ctx: &RunCtx) -> Outcome {
    match w.name {
        "w4_sd" => offline::run(w, &inputs::W4, true, ctx),
        "w4_static" => offline::run(w, &inputs::W4, false, ctx),
        "w3_sd" => offline::run(w, &inputs::W3, true, ctx),
        "serve_live" => served::run_sessions(w, served::Flavour::Live, ctx),
        "serve_wal" => served::run_sessions(w, served::Flavour::Wal, ctx),
        "serve_reads" => served::run_reads(ctx),
        other => unreachable!("workload {other} is in the table but has no runner"),
    }
}

/// `sdbench run`: the driver's contract. Notes first, the result line last.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("run needs --workload <name>")?;
    let w = spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", names.join(", "))
    })?;
    let ctx = RunCtx {
        seed: parsed(args, "--seed", spec::DEFAULT_SEED)?,
        seconds: parsed(args, "--seconds", spec::RUN_SECONDS as f64)?,
        traced: match flag(args, "--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, not `{v}`")),
        },
    };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    // Quiet server: only errors reach the log ring or stderr.
    sd_obs::set_stderr_level(sd_obs::Level::Error);
    sd_obs::set_ring_level(sd_obs::Level::Error);

    let pinned = pin::to_one_cpu();

    let mut out = dispatch(w, &ctx);
    match pinned {
        Ok(cpu) => out.notes.insert(0, format!("pinned to cpu {cpu}")),
        Err(e) => out.notes.insert(
            0,
            format!("NOT pinned to one cpu ({e}): served latencies may be bimodal"),
        ),
    }
    let kernel_ms = stats::median(&out.calib) * 1e3;
    let factor = out.run_factor();
    out.metrics.insert("calib.kernel_ms", kernel_ms);
    out.metrics.insert("calib.factor", factor);
    println!(
        "# {} seed {} trace {}: {:?} calibration kernel {kernel_ms:.3} ms (reference {:.1} ms, {} samples), time metrics scaled by {factor:.4}",
        w.name,
        ctx.seed,
        u8::from(ctx.traced),
        out.kernel,
        out.kernel.reference_s() * 1e3,
        out.calib.len()
    );
    for note in &out.notes {
        println!("# {note}");
    }
    if let Some(spans) = &out.spans {
        let path = format!("{OUT_DIR}/trace-{}.json", w.name);
        std::fs::write(&path, spans.chrome_json(w.name))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("# {} spans written to {path}", spans.all().len());
    }
    if out.failed > 0 {
        out.correct = false;
        println!(
            "# CHECK FAILED: {} of {} operations failed or were refused",
            out.failed, out.attempted
        );
    }
    println!("{}", out.result_line(ctx.traced));
    Ok(if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `(workload, metric) → value` of one pass over every workload.
#[derive(Default)]
struct Collected {
    values: BTreeMap<(String, String), f64>,
    attempted: u64,
    failed: u64,
    /// Workloads whose process died, printed no result, or failed a check.
    broken: Vec<String>,
}

/// Spawns `sdbench run` for one workload and folds its result line in.
/// A dead process or a failed check is loud and counts as a failed op.
fn run_child(c: &mut Collected, w: &spec::Workload, seed: u64, seconds: f64, traced: bool) {
    let exe = std::env::current_exe().expect("own executable path");
    let output = std::process::Command::new(exe)
        .args(["run", "--workload", w.name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn sdbench run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        println!("{line}");
    }
    let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    let Some(result) = result else {
        println!(
            "!! {} (trace {}) died without a result: {}",
            w.name,
            u8::from(traced),
            output.status
        );
        c.broken.push(w.name.to_string());
        c.attempted += 1;
        c.failed += 1;
        return;
    };
    c.attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(1);
    c.failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
    if result.get("correct").and_then(Json::as_bool) != Some(true) || !output.status.success() {
        println!(
            "!! {} (trace {}) failed a correctness check",
            w.name,
            u8::from(traced)
        );
        c.broken.push(w.name.to_string());
        c.failed += 1;
    }
    if let Some(Json::Obj(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            // Untouched layers report 0; keep the table to what ran.
            if !traced || value != 0.0 {
                println!("{} {name} {value} {unit}", w.name);
            }
            c.values.insert((w.name.to_string(), name.clone()), value);
        }
    }
}

fn collect(seed: u64, seconds: f64, traced: bool) -> Collected {
    let mut c = Collected::default();
    for w in &spec::WORKLOADS {
        run_child(&mut c, w, seed, seconds, traced);
    }
    let share = c.failed as f64 / c.attempted.max(1) as f64;
    println!(
        "all op_fail_share {share} ratio ({} of {} operations, trace {})",
        c.failed,
        c.attempted,
        u8::from(traced)
    );
    c
}

fn latest_json(seed: u64, e2e: &Collected, layers: &Collected) -> Json {
    let table = |c: &Collected| {
        let mut by_workload = Json::obj();
        for w in &spec::WORKLOADS {
            let mut row = Json::obj();
            for ((wl, metric), v) in &c.values {
                if wl == w.name {
                    row = row.set(metric, *v);
                }
            }
            by_workload = by_workload.set(w.name, row);
        }
        by_workload
    };
    Json::obj()
        .set("seed", seed)
        .set(
            "note",
            "builder's sandbox, 2 cores; time metrics are calibrated (see README)",
        )
        .set("end_to_end", table(e2e))
        .set("per_layer", table(layers))
}

/// `sdbench all`: untraced set, then the separate traced set.
fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let seed = parsed(args, "--seed", spec::DEFAULT_SEED)?;
    let seconds = parsed(args, "--seconds", spec::RUN_SECONDS as f64)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    println!("## end to end (tracing off), seed {seed}");
    let e2e = collect(seed, seconds, false);
    println!("## per layer (traced run), seed {seed}");
    let layers = collect(seed, seconds, true);
    let path = format!("{OUT_DIR}/latest.json");
    std::fs::write(&path, spec::pretty(&latest_json(seed, &e2e, &layers)))
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("## numbers written to {path}");
    let broken: Vec<&String> = e2e.broken.iter().chain(&layers.broken).collect();
    if broken.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("!! failed: {broken:?}");
        Ok(ExitCode::FAILURE)
    }
}

/// `sdbench repeat`: two sets of runs of the same code must agree within
/// the benchmark's own bounds, exact counts exactly.
fn cmd_repeat(args: &[String]) -> Result<ExitCode, String> {
    let seed = parsed(args, "--seed", spec::DEFAULT_SEED)?;
    let seconds = parsed(args, "--seconds", spec::RUN_SECONDS as f64)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let sets: Vec<(Collected, Collected)> = (1..=2)
        .map(|i| {
            println!("## set {i}");
            (collect(seed, seconds, false), collect(seed, seconds, true))
        })
        .collect();
    let mut bad = 0;
    for w in &spec::WORKLOADS {
        let key = |m: &str| (w.name.to_string(), m.to_string());
        for m in &spec::END_TO_END {
            let (Some(&a), Some(&b)) = (
                sets[0].0.values.get(&key(m.name)),
                sets[1].0.values.get(&key(m.name)),
            ) else {
                println!("!! {} {} missing from a set", w.name, m.name);
                bad += 1;
                continue;
            };
            // Either order: the sets are the same code.
            let apart = m
                .better
                .worse_by(a, b)
                .abs()
                .max(m.better.worse_by(b, a).abs());
            let verdict = if apart <= m.bound {
                "ok"
            } else {
                "OUT OF BOUND"
            };
            println!(
                "repeat {} {} {a} vs {b} {} apart {:.1}% bound {:.0}% {verdict}",
                w.name,
                m.name,
                m.unit,
                apart * 100.0,
                m.bound * 100.0
            );
            bad += u32::from(apart > m.bound);
        }
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            let (a, b) = (
                sets[0].1.values.get(&key(m.name)),
                sets[1].1.values.get(&key(m.name)),
            );
            if a.map(|v| v.to_bits()) != b.map(|v| v.to_bits()) {
                println!(
                    "!! exact count {} {} differs: {a:?} vs {b:?}",
                    w.name, m.name
                );
                bad += 1;
            }
        }
    }
    let broken = sets
        .iter()
        .map(|(a, b)| a.broken.len() + b.broken.len())
        .sum::<usize>();
    println!("## repeat: {bad} metrics apart, {broken} broken runs");
    Ok(if bad == 0 && broken == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `sdbench manifest`: the generated files. `--write` installs them (and
/// copies the last `all` run's numbers next to the manifest).
fn cmd_manifest(args: &[String]) -> Result<ExitCode, String> {
    let contract = spec::pretty(&spec::contract());
    let manifest = spec::pretty(&spec::manifest());
    if !args.iter().any(|a| a == "--write") {
        print!("{contract}{manifest}");
        return Ok(ExitCode::SUCCESS);
    }
    let write = |path: &str, text: &str| {
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
    };
    let dir = env!("CARGO_MANIFEST_DIR");
    write(&format!("{dir}/../BENCHMARK.json"), &contract)?;
    write(&format!("{dir}/manifest.json"), &manifest)?;
    if let Ok(latest) = std::fs::read_to_string(format!("{OUT_DIR}/latest.json")) {
        write(&format!("{dir}/latest.json"), &latest)?;
    }
    println!("wrote BENCHMARK.json, benchmark/manifest.json");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("all") => cmd_all(&args[1..]),
        Some("repeat") => cmd_repeat(&args[1..]),
        Some("manifest") => cmd_manifest(&args[1..]),
        _ => Err("usage: sdbench run|all|repeat|manifest [flags] (see benchmark/README.md)".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("sdbench: {e}");
        ExitCode::from(2)
    })
}
