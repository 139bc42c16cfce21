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

use sd_scenario::{Scenario, SourceKind};
use sd_serve::loadgen::{self, LoadgenOptions};
use sd_serve::metrics::{sample_value, COMPLETED, PENDING, SUBMITTED};
use sd_serve::soak::{self, SoakOptions};
use workload::PaperWorkload;

const USAGE: &str = "sd-loadgen — drive live traffic through sd-serve

  --addr <host:port>       service address (required unless --soak)
  --workload <w1|w2|w3|w4> synthetic workload to replay (default w3)
  --scale <f64>            workload scale (default 0.05)
  --seed <u64>             generator seed (default 42)
  --swf <path>             replay an SWF file instead of a generator
  --jobs <n>               cap the number of submissions
  --tenants <n>            submit under n round-robin tenant identities
                           (default: carry each record's own SWF user/group)
  --rate <r>               target submissions per wall second (default: flat out)
  --no-timestamps          submit without virtual timestamps (realtime servers)
  --no-drain               skip the final /v1/drain
  --shutdown               stop the server afterwards, print its final result
  --min-rate <r>           fail (exit 1) if achieved rate falls below r
  --expect-completed <n>   fail (exit 1) unless exactly n jobs completed
  --latency-out <csv>      write the request-latency histogram (ms buckets) to a file
  --max-retries <n>        transport-failure retries per request, with capped
                           exponential backoff + jitter (default 0 = fail fast)
  --slo-gate               after the run, fetch /v1/slo and exit 3 if any
                           declared objective is breached (the server must be
                           started with --slo; incompatible with --shutdown)
  --soak <cycles>          chaos mode: spawn sd-serve with --wal, kill -9 it
                           <cycles> times mid-traffic, restart + resync each
                           time, and fail unless the recovered /v1/result is
                           bit-identical to an uninterrupted reference run
  --soak-wal <dir>         WAL directory for --soak (default: a fresh
                           directory under the system temp dir; wiped first)
  --server-bin <path>      sd-serve binary for --soak (default: the sd-serve
                           next to this executable)
  --help, -h               this text";

fn fail(msg: &str) -> ! {
    println!("{msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut workload = PaperWorkload::W3Ricc;
    // `--scale` and `--seed` are read as the `.scn` keys they stand for.
    let mut gen = Scenario::new("sd-loadgen", SourceKind::Ricc);
    gen.scale = Some(0.05);
    let mut swf_path: Option<String> = None;
    let mut jobs_cap: Option<usize> = None;
    let mut opts = LoadgenOptions::default();
    let mut min_rate: Option<f64> = None;
    let mut expect_completed: Option<u64> = None;
    let mut latency_out: Option<String> = None;
    let mut soak_cycles: Option<u32> = None;
    let mut soak_wal: Option<std::path::PathBuf> = None;
    let mut server_bin: Option<std::path::PathBuf> = None;
    let mut slo_gate = false;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--workload" => {
                let v = value("--workload");
                workload = PaperWorkload::by_short(&v)
                    .unwrap_or_else(|| fail(&format!("unknown --workload {v} (w1|w2|w3|w4)")));
            }
            "--scale" => {
                let v = value("--scale");
                gen.set_flag("--scale", "scenario", "scale", &v).unwrap_or_else(|e| fail(&e));
            }
            "--seed" => {
                let v = value("--seed");
                gen.set_flag("--seed", "scenario", "seed", &v).unwrap_or_else(|e| fail(&e));
            }
            "--swf" => swf_path = Some(value("--swf")),
            "--jobs" => jobs_cap = Some(value("--jobs").parse().unwrap_or_else(|_| fail("bad --jobs"))),
            "--tenants" => {
                let n: u32 = value("--tenants").parse().unwrap_or_else(|_| fail("bad --tenants"));
                if n == 0 {
                    fail("--tenants must be at least 1");
                }
                opts.tenants = Some(n);
            }
            "--rate" => {
                let r: f64 = value("--rate").parse().unwrap_or_else(|_| fail("bad --rate"));
                if r <= 0.0 || r.is_nan() {
                    fail("--rate must be > 0");
                }
                opts.rate = Some(r);
            }
            "--no-timestamps" => opts.virtual_timestamps = false,
            "--no-drain" => opts.drain = false,
            "--shutdown" => opts.shutdown = true,
            "--min-rate" => {
                min_rate = Some(value("--min-rate").parse().unwrap_or_else(|_| fail("bad --min-rate")))
            }
            "--expect-completed" => {
                expect_completed = Some(
                    value("--expect-completed")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --expect-completed")),
                )
            }
            "--latency-out" => latency_out = Some(value("--latency-out")),
            "--max-retries" => {
                opts.max_retries = value("--max-retries")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --max-retries"));
            }
            "--slo-gate" => slo_gate = true,
            "--soak" => {
                let n: u32 = value("--soak").parse().unwrap_or_else(|_| fail("bad --soak"));
                if n == 0 {
                    fail("--soak must be at least 1 cycle");
                }
                soak_cycles = Some(n);
            }
            "--soak-wal" => soak_wal = Some(value("--soak-wal").into()),
            "--server-bin" => server_bin = Some(value("--server-bin").into()),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag: {other}")),
        }
    }
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
