//! `sd-top` — a live terminal dashboard for one `sd-serve` instance.
//!
//! ```sh
//! sd-top --addr 127.0.0.1:8080            # refresh until Ctrl-C
//! sd-top --addr 127.0.0.1:8080 --once     # one plain frame (scripts/CI)
//! ```
//!
//! Each frame polls `/v1/stats` and `/v1/slo` (and `/metrics` for the
//! pass-duration histogram only) and renders throughput, queue depth,
//! tenant shares, a pass-latency sparkline, WAL lag and SLO error-budget
//! bars with plain ANSI escapes — no terminal library, works in any
//! VT100-ish emulator. Snapshot numbers are read by their
//! [`sd_serve::metrics`] rows' keys.

use sd_serve::client::Client;
use sd_serve::json::Json;
use sd_serve::metrics;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const USAGE: &str = "sd-top — live dashboard for sd-serve

  --addr <host:port>   service address (default 127.0.0.1:8080)
  --interval <ms>      refresh period in milliseconds (default 1000)
  --frames <n>         exit after n frames (default: run until interrupted)
  --once               plain single frame without screen control (= --frames 1)
  --help, -h           this text";

fn fail(msg: &str) -> ! {
    println!("{msg}\n\n{USAGE}");
    std::process::exit(2);
}

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a unicode sparkline scaled to its own max.
fn sparkline(values: &VecDeque<f64>) -> String {
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                SPARK[0]
            } else {
                let i = ((v / max) * (SPARK.len() - 1) as f64).round() as usize;
                SPARK[i.min(SPARK.len() - 1)]
            }
        })
        .collect()
}

/// A `[#####-----]` bar for a fraction in [0, 1] (clamped).
fn bar(frac: f64, width: usize) -> String {
    let filled = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("[{}{}]", "#".repeat(filled), "-".repeat(width - filled))
}

fn u64_of(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn f64_of(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Per-frame deltas need the previous cumulative counters.
struct Prev {
    at: Instant,
    completed: u64,
    submitted: u64,
    pass_sum: f64,
    pass_count: f64,
}

fn main() {
    let mut addr = "127.0.0.1:8080".to_string();
    let mut interval = Duration::from_millis(1000);
    let mut frames: Option<u64> = None;
    let mut once = false;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--addr" => addr = value("--addr"),
            "--interval" => {
                let ms: u64 = value("--interval")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --interval"));
                interval = Duration::from_millis(ms.max(100));
            }
            "--frames" => {
                frames = Some(
                    value("--frames")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --frames")),
                )
            }
            "--once" => once = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    if once {
        frames = Some(1);
    }
    let addr: std::net::SocketAddr = addr
        .parse()
        .unwrap_or_else(|_| fail("bad --addr (need host:port)"));

    let mut client = Client::new(addr).with_retries(3);
    let mut pass_means: VecDeque<f64> = VecDeque::with_capacity(60);
    let mut prev: Option<Prev> = None;
    let mut frame = 0u64;
    loop {
        let stats = match client.stats() {
            Ok(s) => s,
            Err(e) => {
                println!("sd-top: {e}");
                std::process::exit(1);
            }
        };
        let metrics_text = client.metrics().unwrap_or_default();
        let slo = client.slo().ok(); // 404 when no SLOs are declared

        let now = Instant::now();
        let completed = u64_of(&stats, metrics::COMPLETED.key);
        let submitted = u64_of(&stats, metrics::SUBMITTED.key);
        let pass_sum =
            metrics::sample_value(&metrics_text, "sd_serve_pass_duration_seconds_sum").unwrap_or(0.0);
        let pass_count =
            metrics::sample_value(&metrics_text, "sd_serve_pass_duration_seconds_count").unwrap_or(0.0);
        let (done_rate, submit_rate, pass_mean_ms) = match &prev {
            Some(p) => {
                let dt = now.duration_since(p.at).as_secs_f64().max(1e-9);
                let dc = (pass_count - p.pass_count).max(0.0);
                let mean = if dc > 0.0 { (pass_sum - p.pass_sum) / dc * 1e3 } else { 0.0 };
                (
                    completed.saturating_sub(p.completed) as f64 / dt,
                    submitted.saturating_sub(p.submitted) as f64 / dt,
                    mean,
                )
            }
            None => (0.0, 0.0, if pass_count > 0.0 { pass_sum / pass_count * 1e3 } else { 0.0 }),
        };
        prev = Some(Prev { at: now, completed, submitted, pass_sum, pass_count });
        if pass_means.len() == 60 {
            pass_means.pop_front();
        }
        pass_means.push_back(pass_mean_ms);

        let mut out = String::with_capacity(2048);
        if !once {
            out.push_str("\x1b[H\x1b[2J"); // home + clear
        }
        out.push_str(&format!(
            "sd-top — {addr}  scheduler={}  t={}s  frame {}\n\n",
            stats.get("scheduler").and_then(Json::as_str).unwrap_or("?"),
            u64_of(&stats, metrics::NOW.key),
            frame + 1,
        ));
        out.push_str(&format!(
            "jobs     submitted {:>8}  pending {:>6}  running {:>6}  completed {:>8}\n",
            submitted,
            u64_of(&stats, metrics::PENDING.key),
            u64_of(&stats, metrics::RUNNING.key),
            completed,
        ));
        out.push_str(&format!(
            "rates    submit {submit_rate:>8.1}/s  complete {done_rate:>8.1}/s\n"
        ));
        let cores = f64_of(&stats, metrics::NODES.key) * f64_of(&stats, metrics::CORES_PER_NODE.key);
        out.push_str(&format!(
            "cluster  busy cores {:>8}  empty nodes {:>5}  util {}\n",
            u64_of(&stats, metrics::BUSY_CORES.key),
            u64_of(&stats, metrics::EMPTY_NODES.key),
            bar(f64_of(&stats, metrics::BUSY_CORES.key) / cores.max(1.0), 20),
        ));
        out.push_str(&format!(
            "passes   run {:>8}  skipped {:>8}  mean {:>7.3} ms  {}\n",
            u64_of(&stats, metrics::SCHED_PASSES.key),
            u64_of(&stats, metrics::PASSES_SKIPPED.key),
            pass_mean_ms,
            sparkline(&pass_means),
        ));
        if let Some(bytes) = stats.get(metrics::WAL_BYTES.key).and_then(Json::as_f64) {
            out.push_str(&format!(
                "wal      {bytes:>8.0} B unsnapshotted  segment age {:>6.1}s  checkpoints {:>4}\n",
                f64_of(&stats, metrics::WAL_SEGMENT_AGE.key),
                u64_of(&stats, metrics::CHECKPOINTS_WRITTEN.key),
            ));
        }
        if let Some(tenants) = stats.get("tenants").and_then(Json::as_arr) {
            if !tenants.is_empty() {
                let total: f64 = tenants.iter().map(|t| f64_of(t, metrics::TENANT_RUNNING_WIDTH.key)).sum();
                out.push_str("\ntenant      share                  submitted  limited  completed\n");
                for t in tenants {
                    let width = f64_of(t, metrics::TENANT_RUNNING_WIDTH.key);
                    let share = if total > 0.0 { width / total } else { 0.0 };
                    out.push_str(&format!(
                        "{:>6}      {} {:>4.0}%  {:>9}  {:>7}  {:>9}\n",
                        u64_of(t, "tenant"),
                        bar(share, 16),
                        share * 100.0,
                        u64_of(t, metrics::TENANT_SUBMITTED.key),
                        u64_of(t, metrics::TENANT_RATE_LIMITED.key),
                        u64_of(t, metrics::TENANT_COMPLETED.key),
                    ));
                }
            }
        }
        if let Some(slos) = slo.as_ref().and_then(|s| s.get("slos")).and_then(Json::as_arr) {
            out.push_str("\nslo                        budget                 fast   slow\n");
            for s in slos {
                let budget = f64_of(s, "budget_remaining");
                let breached = s.get("breached").and_then(Json::as_bool).unwrap_or(false);
                out.push_str(&format!(
                    "{:<24}   {} {:>5.1}%  {:>5.2} {:>6.2}  {}\n",
                    s.get("slo").and_then(Json::as_str).unwrap_or("?"),
                    bar(budget, 16),
                    budget * 100.0,
                    f64_of(s, "burn_fast"),
                    f64_of(s, "burn_slow"),
                    if breached { "BREACHED" } else { "ok" },
                ));
            }
        }
        print!("{out}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();

        frame += 1;
        if frames.is_some_and(|n| frame >= n) {
            return;
        }
        std::thread::sleep(interval);
    }
}
