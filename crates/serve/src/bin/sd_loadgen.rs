//! `sd-loadgen` — replay a workload as live traffic against `sd-serve`.
//!
//! ```sh
//! sd-loadgen --addr 127.0.0.1:8080 --workload w3 --scale 0.05 --jobs 100
//! sd-loadgen --addr 127.0.0.1:8080 --swf trace.swf --rate 500 --shutdown
//! ```
//!
//! Reports achieved submit throughput, per-request latency percentiles and
//! the end-state `/v1/stats` deltas. `--min-rate` / `--expect-completed`
//! turn the report into assertions (non-zero exit) for CI.

use sd_scenario::cli::{self, Flag};
use sd_scenario::{Scenario, SourceKind};
use sd_serve::loadgen::{self, LoadgenOptions};
use sd_serve::metrics::{sample_value, COMPLETED, PENDING, SUBMITTED};
use sd_serve::soak::{self, SoakOptions};
use workload::PaperWorkload;

struct Cli {
    addr: Option<String>,
    workload: PaperWorkload,
    /// `--scale` and `--seed`, read as the `.scn` keys they stand for.
    gen: Scenario,
    swf_path: Option<String>,
    jobs_cap: Option<usize>,
    opts: LoadgenOptions,
    min_rate: Option<f64>,
    expect_completed: Option<u64>,
    latency_out: Option<String>,
    soak_cycles: Option<u32>,
    soak_wal: Option<std::path::PathBuf>,
    server_bin: Option<std::path::PathBuf>,
    slo_gate: bool,
}

const TITLE: &str = "sd-loadgen — drive live traffic through sd-serve";

const FLAGS: &[Flag<Cli>] = &[
    Flag::value("--addr", "<host:port>", "service address (required unless --soak)",
        |c, v| v.parse().map(|a| c.addr = Some(a))),
    Flag::value("--workload", "<w1|w2|w3|w4>", "synthetic workload to replay (default w3)", |c, v| {
        let w = PaperWorkload::by_short(v.text);
        let unknown = || format!("unknown --workload {} (w1|w2|w3|w4)", v.text);
        w.map(|w| c.workload = w).ok_or_else(unknown)
    }),
    Flag::value("--scale", "<f64>", "workload scale (default 0.05)",
        |c, v| v.key(&mut c.gen, "scenario", "scale")),
    Flag::value("--seed", "<u64>", "generator seed (default 42)",
        |c, v| v.key(&mut c.gen, "scenario", "seed")),
    Flag::value("--swf", "<path>", "replay an SWF file instead of a generator",
        |c, v| v.parse().map(|p| c.swf_path = Some(p))),
    Flag::value("--jobs", "<n>", "cap the number of submissions",
        |c, v| v.parse().map(|n| c.jobs_cap = Some(n))),
    Flag::value("--tenants", "<n>",
        "submit under n round-robin tenant identities\n\
         (default: carry each record's own SWF user/group)",
        |c, v| v.at_least_1().map(|n| c.opts.tenants = Some(n))),
    Flag::value("--rate", "<r>", "target submissions per wall second (default: flat out)",
        |c, v| v.positive().map(|r| c.opts.rate = Some(r))),
    Flag::switch("--no-timestamps", "submit without virtual timestamps (realtime servers)",
        |c| c.opts.virtual_timestamps = false),
    Flag::switch("--no-drain", "skip the final /v1/drain", |c| c.opts.drain = false),
    Flag::switch("--shutdown", "stop the server afterwards, print its final result",
        |c| c.opts.shutdown = true),
    Flag::value("--min-rate", "<r>", "fail (exit 1) if achieved rate falls below r",
        |c, v| v.parse().map(|r| c.min_rate = Some(r))),
    Flag::value("--expect-completed", "<n>", "fail (exit 1) unless exactly n jobs completed",
        |c, v| v.parse().map(|n| c.expect_completed = Some(n))),
    Flag::value("--latency-out", "<csv>",
        "write the request-latency histogram (ms buckets) to a file",
        |c, v| v.parse().map(|p| c.latency_out = Some(p))),
    Flag::value("--max-retries", "<n>",
        "transport-failure retries per request, with capped\n\
         exponential backoff + jitter (default 0 = fail fast)",
        |c, v| v.parse().map(|n| c.opts.max_retries = n)),
    Flag::switch("--slo-gate",
        "after the run, fetch /v1/slo and exit 3 if any\n\
         declared objective is breached (the server must be\n\
         started with --slo; incompatible with --shutdown)",
        |c| c.slo_gate = true),
    Flag::value("--soak", "<cycles>",
        "chaos mode: spawn sd-serve with --wal, kill -9 it\n\
         <cycles> times mid-traffic, restart + resync each\n\
         time, and fail unless the recovered /v1/result is\n\
         bit-identical to an uninterrupted reference run",
        |c, v| v.at_least_1().map(|n| c.soak_cycles = Some(n))),
    Flag::value("--soak-wal", "<dir>",
        "WAL directory for --soak (default: a fresh\n\
         directory under the system temp dir; wiped first)",
        |c, v| v.parse().map(|d| c.soak_wal = Some(d))),
    Flag::value("--server-bin", "<path>",
        "sd-serve binary for --soak (default: the sd-serve\n\
         next to this executable)",
        |c, v| v.parse().map(|p| c.server_bin = Some(p))),
];

fn fail(msg: &str) -> ! {
    println!("{msg}\n\n{}", cli::usage(TITLE, FLAGS));
    std::process::exit(2);
}

fn main() {
    let mut gen = Scenario::new("sd-loadgen", SourceKind::Ricc);
    gen.scale = Some(0.05);
    let mut cli = Cli {
        addr: None,
        workload: PaperWorkload::W3Ricc,
        gen,
        swf_path: None,
        jobs_cap: None,
        opts: LoadgenOptions::default(),
        min_rate: None,
        expect_completed: None,
        latency_out: None,
        soak_cycles: None,
        soak_wal: None,
        server_bin: None,
        slo_gate: false,
    };
    cli::parse_args(TITLE, FLAGS, &mut cli, fail);
    let Cli {
        addr, workload, gen, swf_path, jobs_cap, opts, min_rate, expect_completed, latency_out,
        soak_cycles, soak_wal, server_bin, slo_gate,
    } = cli;
    let mut jobs: Vec<swf::SwfJob> = match &swf_path {
        Some(path) => {
            let (trace, _skipped) = swf::parse_file(std::path::Path::new(path))
                .unwrap_or_else(|e| fail(&format!("{path}: {e:?}")));
            trace.jobs
        }
        None => workload.generate(gen.seed, gen.effective_scale()).jobs,
    };
    if let Some(cap) = jobs_cap {
        jobs.truncate(cap);
    }
    if jobs.is_empty() {
        fail("workload produced no jobs");
    }

    // Chaos mode: the harness spawns its own servers; --addr is unused.
    if let Some(cycles) = soak_cycles {
        let server_bin = server_bin.unwrap_or_else(|| {
            let mut p = std::env::current_exe()
                .unwrap_or_else(|e| fail(&format!("cannot locate this executable: {e}")));
            p.set_file_name("sd_serve");
            p
        });
        let wal_dir = soak_wal.unwrap_or_else(|| {
            std::env::temp_dir().join(format!("sd-soak-{}", std::process::id()))
        });
        let sopts = SoakOptions {
            cycles,
            server_bin,
            server_args: vec![
                "--cluster".into(),
                workload.short().to_lowercase(),
                "--scale".into(),
                gen.effective_scale().to_string(),
            ],
            wal_dir,
            seed: gen.seed,
            rate: opts.rate,
        };
        sd_obs::log_event!(
            Info,
            "soak",
            "{} kill -9 cycles over {} jobs (server {}, wal {})",
            cycles,
            jobs.len(),
            sopts.server_bin.display(),
            sopts.wal_dir.display(),
        );
        match soak::run(&jobs, &sopts) {
            Ok(report) => {
                println!("{}", report.render());
                return;
            }
            Err(e) => {
                sd_obs::log_event!(Error, "soak", "FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    let Some(addr) = addr else {
        fail("--addr <host:port> is required");
    };
    let addr: std::net::SocketAddr = addr
        .parse()
        .unwrap_or_else(|_| fail(&format!("bad --addr {addr}")));

    sd_obs::log_event!(
        Info,
        "loadgen",
        "replaying {} jobs against {addr} ({})",
        jobs.len(),
        match opts.rate {
            Some(r) => format!("target {r}/s"),
            None => "flat out".to_string(),
        }
    );
    let report = loadgen::run(addr, &jobs, &opts).unwrap_or_else(|e| {
        sd_obs::log_event!(Error, "loadgen", "run failed: {e}");
        std::process::exit(1);
    });
    print!("{}", report.render());

    if let Some(path) = &latency_out {
        if let Err(e) = std::fs::write(path, report.latency_hist.csv()) {
            sd_obs::log_event!(Error, "loadgen", "writing {path}: {e}");
            std::process::exit(1);
        }
        sd_obs::log_event!(Info, "loadgen", "latency histogram written to {path}");
    }

    let mut failed = false;
    if let Some(min) = min_rate {
        if report.achieved_rate < min {
            sd_obs::log_event!(
                Error,
                "loadgen",
                "FAIL: achieved rate {:.0}/s below required {min}/s",
                report.achieved_rate
            );
            failed = true;
        }
    }
    if let Some(want) = expect_completed {
        let got = report.delta(COMPLETED.key);
        if (got - want as f64).abs() > 0.5 {
            sd_obs::log_event!(Error, "loadgen", "FAIL: {got} jobs completed, expected {want}");
            failed = true;
        }
        // Cross-check the Prometheus exposition against the same truth.
        for counter in [COMPLETED.series, SUBMITTED.series] {
            match sample_value(&report.metrics_text, counter) {
                Some(v) if (v - want as f64).abs() <= 0.5 => {}
                other => {
                    sd_obs::log_event!(Error, "loadgen", "FAIL: /metrics {counter} = {other:?}, expected {want}");
                    failed = true;
                }
            }
        }
        if sample_value(&report.metrics_text, PENDING.series) != Some(0.0) {
            sd_obs::log_event!(Error, "loadgen", "FAIL: /metrics reports pending jobs after drain");
            failed = true;
        }
    }
    if report.rejected > 0 {
        sd_obs::log_event!(Info, "loadgen", "note: {} submissions rejected", report.rejected);
    }
    if failed {
        std::process::exit(1);
    }

    // The SLO gate runs after every assertion above passed: the run itself is
    // healthy, now ask the server whether its declared objectives survived.
    if slo_gate {
        if opts.shutdown {
            fail("--slo-gate needs the server alive after the run; drop --shutdown");
        }
        let mut client = sd_serve::client::Client::new(addr);
        // The server's sampler publishes its first evaluation ~1s after
        // boot; a gate racing a very short run polls briefly before giving
        // up (a missing --slo on the server stays a hard failure).
        let mut v = client.slo();
        for _ in 0..20 {
            if v.is_ok() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(250));
            v = client.slo();
        }
        let v = v.unwrap_or_else(|e| {
            sd_obs::log_event!(Error, "loadgen", "slo gate: {e}");
            std::process::exit(3);
        });
        let slos = v.get("slos").and_then(sd_serve::json::Json::as_arr);
        let mut breached = 0u32;
        for s in slos.into_iter().flatten() {
            let name = s.get("slo").and_then(sd_serve::json::Json::as_str).unwrap_or("?");
            let budget = s
                .get("budget_remaining")
                .and_then(sd_serve::json::Json::as_f64)
                .unwrap_or(0.0);
            let bad = s
                .get("breached")
                .and_then(sd_serve::json::Json::as_bool)
                .unwrap_or(false);
            println!(
                "slo gate: {name:<24} budget {:>6.1}%  {}",
                budget * 100.0,
                if bad { "BREACHED" } else { "ok" }
            );
            if bad {
                breached += 1;
            }
        }
        if breached > 0 {
            sd_obs::log_event!(Error, "loadgen", "slo gate: {breached} objective(s) breached");
            std::process::exit(3);
        }
        println!("slo gate: all objectives met");
    }
}
