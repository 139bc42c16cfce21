//! `sd-serve` — run the malleable-job scheduler as a long-lived service.
//!
//! ```sh
//! sd-serve                            # W3-like machine, SD policy, virtual clock
//! sd-serve --port 8080 --workers 8
//! sd-serve --mode realtime --compression 600
//! sd-serve --cluster w4 --scale 0.05 --policy static
//! ```
//!
//! Prints `sd-serve listening on 127.0.0.1:<port>` once bound (port 0 picks
//! an ephemeral port — the CI smoke step parses this line), then blocks
//! until a client posts `/v1/shutdown`.

use cluster::ClusterSpec;
use drom::SharingFactor;
use sd_durable::FsyncPolicy;
use sd_scenario::compile::{build_policy, preset_spec};
use sd_scenario::{ClusterPreset, Scenario, SourceKind, Vocab};
use sd_serve::engine::{ClockMode, Engine};
use sd_serve::server::{self, ServerConfig};
use slurm_sim::{SimState, SlurmConfig};
use workload::PaperWorkload;

const USAGE: &str = "sd-serve — online scheduling service (HTTP/JSON)

  --port <n>             TCP port (default 0 = ephemeral; printed when bound)
  --workers <n>          HTTP worker threads (default 4)
  --mode <virtual|realtime>   clock mode (default virtual)
  --compression <x>      realtime: simulated seconds per wall second (default 60)
  --cluster <w1|w2|w3|w4|ricc|curie|mn4|mn4_real_run>  machine preset (default w3)
  --scale <f64>          machine scale for w* presets, > 0 (default 0.05)
  --nodes <n>            override the node count (at least 1)
  --policy <sd|static>   scheduler (default sd)
  --maxsd <x|inf|dyn>    SD-Policy cut-off, x > 1 (default dyn)
  --model <ideal|worst_case|app_aware>  runtime model (default ideal)
  --sharing <f64>        sharing factor in [0,1) (default 0.5)
  --malleable-fraction <f64>  fraction of draw-decided malleable jobs (default 1)
                         (these eight are read as the `.scn` keys they stand
                         for: a value a scenario file may not hold exits 2)
  --tenant-rate <id=rps> per-tenant submit rate limit in submissions per wall
                         second (repeatable; unlisted tenants are unlimited)
  --trace                enable decision tracing (GET /v1/trace, /v1/explain/{id})
  --trace-capacity <n>   trace ring size in events (default 65536; power of two)
  --wal <dir>            crash tolerance: write-ahead log + checkpoints in
                         <dir>; on restart the service recovers the exact
                         pre-crash state before accepting traffic
  --checkpoint-every <n> records between checkpoints (default 256)
  --wal-fsync <always|checkpoint|never>  fsync policy for WAL appends
                         (default checkpoint; checkpoints always fsync)
  --log-level <error|warn|info|debug|trace>  structured-log verbosity for
                         the in-memory ring, GET /v1/logs and the stderr
                         echo (default info)
  --log-json <path>      also write every retained log record as one JSON
                         line to <path>
  --slo <key=value>      declare a service-level objective (repeatable):
                         p99_wait_seconds=<s>, pass_duration_p95=<s>,
                         submit_availability=<fraction>; enables GET /v1/slo
                         and the sd_serve_slo_* burn-rate gauges
  --help, -h             this text";

fn fail(msg: &str) -> ! {
    println!("{msg}\n\n{USAGE}");
    std::process::exit(2);
}

struct Cli {
    port: u16,
    workers: usize,
    mode: ClockMode,
    /// The `w1..w4` machine, used unless `machine.cluster.preset` names one.
    workload: PaperWorkload,
    /// What the machine and policy flags set, each through its row of
    /// `sd_scenario::KEYS`: `[scenario] scale`, `[cluster]`, `[policy]` and
    /// `[slurm] malleable_fraction`.
    machine: Scenario,
    tenant_rates: Vec<(u64, f64)>,
    trace: bool,
    trace_capacity: usize,
    wal: Option<std::path::PathBuf>,
    checkpoint_every: u64,
    wal_fsync: FsyncPolicy,
    log_level: sd_obs::Level,
    log_json: Option<std::path::PathBuf>,
    slos: Vec<sd_obs::SloSpec>,
}

/// Sets the key `flag` stands for, or exits 2 with the row's message.
fn set(s: &mut Scenario, flag: &str, section: &str, name: &str, value: &str) {
    s.set_flag(flag, section, name, value).unwrap_or_else(|e| fail(&e));
}

fn parse_cli() -> Cli {
    let mut machine = Scenario::new("sd-serve", SourceKind::Ricc);
    machine.scale = Some(0.05);
    let mut cli = Cli {
        port: 0,
        workers: 4,
        mode: ClockMode::Virtual,
        workload: PaperWorkload::W3Ricc,
        machine,
        tenant_rates: Vec::new(),
        trace: false,
        trace_capacity: 65_536,
        wal: None,
        checkpoint_every: 256,
        wal_fsync: FsyncPolicy::default(),
        log_level: sd_obs::Level::Info,
        log_json: None,
        slos: Vec::new(),
    };
    let mut compression: f64 = 60.0;
    let mut realtime = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--port" => cli.port = value("--port").parse().unwrap_or_else(|_| fail("bad --port")),
            "--workers" => {
                cli.workers = value("--workers").parse().unwrap_or_else(|_| fail("bad --workers"));
                if cli.workers == 0 {
                    fail("--workers must be at least 1");
                }
            }
            "--mode" => match value("--mode").as_str() {
                "virtual" => realtime = false,
                "realtime" => realtime = true,
                v => fail(&format!("--mode must be virtual or realtime, got {v}")),
            },
            "--compression" => {
                let v = value("--compression").parse().ok();
                compression = v
                    .filter(|c: &f64| *c > 0.0 && c.is_finite())
                    .unwrap_or_else(|| fail("--compression must be a finite number > 0"));
            }
            "--cluster" => {
                let v = value("--cluster");
                let s = &mut cli.machine;
                match PaperWorkload::by_short(&v) {
                    Some(w) => (cli.workload, s.cluster.preset) = (w, ClusterPreset::Auto),
                    None => s.set_flag("--cluster", "cluster", "preset", &v).unwrap_or_else(|e| {
                        fail(&format!("{e}, or a workload's machine (w1|w2|w3|w4)"))
                    }),
                }
            }
            "--scale" => set(&mut cli.machine, "--scale", "scenario", "scale", &value("--scale")),
            "--nodes" => set(&mut cli.machine, "--nodes", "cluster", "nodes", &value("--nodes")),
            "--policy" => set(&mut cli.machine, "--policy", "policy", "kind", &value("--policy")),
            "--maxsd" => set(&mut cli.machine, "--maxsd", "policy", "maxsd", &value("--maxsd")),
            "--model" => set(&mut cli.machine, "--model", "policy", "model", &value("--model")),
            "--sharing" => {
                set(&mut cli.machine, "--sharing", "policy", "sharing", &value("--sharing"))
            }
            "--malleable-fraction" => {
                let v = value("--malleable-fraction");
                set(&mut cli.machine, "--malleable-fraction", "slurm", "malleable_fraction", &v)
            }
            "--tenant-rate" => {
                let v = value("--tenant-rate");
                let Some((id, rate)) = v.split_once('=') else {
                    fail(&format!("--tenant-rate wants <id=rps>, got {v}"));
                };
                let id: u64 = id.parse().unwrap_or_else(|_| fail("bad --tenant-rate id"));
                let rate: f64 = rate.parse().unwrap_or_else(|_| fail("bad --tenant-rate rps"));
                if rate <= 0.0 || rate.is_nan() {
                    fail("--tenant-rate rps must be > 0");
                }
                cli.tenant_rates.push((id, rate));
            }
            "--trace" => cli.trace = true,
            "--trace-capacity" => {
                cli.trace_capacity = value("--trace-capacity")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --trace-capacity"));
                if cli.trace_capacity == 0 {
                    fail("--trace-capacity must be at least 1");
                }
            }
            "--wal" => cli.wal = Some(value("--wal").into()),
            "--checkpoint-every" => {
                cli.checkpoint_every = value("--checkpoint-every")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --checkpoint-every"));
                if cli.checkpoint_every == 0 {
                    fail("--checkpoint-every must be at least 1");
                }
            }
            "--wal-fsync" => {
                let v = value("--wal-fsync");
                cli.wal_fsync = match v.as_str() {
                    "always" => FsyncPolicy::Always,
                    "checkpoint" => FsyncPolicy::Checkpoint,
                    "never" => FsyncPolicy::Never,
                    _ => fail(&format!(
                        "--wal-fsync must be always, checkpoint or never, got {v}"
                    )),
                };
            }
            "--log-level" => {
                let v = value("--log-level");
                cli.log_level = sd_obs::Level::parse(&v).unwrap_or_else(|| {
                    fail(&format!("--log-level must be error|warn|info|debug|trace, got {v}"))
                });
            }
            "--log-json" => cli.log_json = Some(value("--log-json").into()),
            "--slo" => {
                let v = value("--slo");
                let Some((key, val)) = v.split_once('=') else {
                    fail(&format!("--slo wants <key=value>, got {v}"));
                };
                let val: f64 = val.parse().unwrap_or_else(|_| fail("bad --slo value"));
                let spec = sd_obs::SloSpec::parse(key, val)
                    .unwrap_or_else(|e| fail(&format!("bad --slo: {e}")));
                cli.slos.push(spec);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag: {other}")),
        }
    }
    if realtime {
        cli.mode = ClockMode::Realtime { compression };
    }
    cli
}

/// The machine: a named preset at its native size, else the workload's own
/// machine at `--scale`; `--nodes` overrides either node count.
fn cluster_spec(cli: &Cli) -> ClusterSpec {
    let s = &cli.machine;
    let mut spec = preset_spec(s.cluster.preset, None)
        .unwrap_or_else(|| cli.workload.cluster(s.effective_scale()));
    if let Some(n) = s.cluster.nodes {
        spec.nodes = n;
    }
    spec
}

fn main() {
    let cli = parse_cli();
    // Logging first: everything below (recovery included) emits into the
    // ring and the stderr echo at the configured verbosity.
    sd_obs::set_ring_level(cli.log_level);
    sd_obs::set_stderr_level(cli.log_level);
    if let Some(path) = &cli.log_json {
        sd_obs::attach_json_sink(path)
            .unwrap_or_else(|e| fail(&format!("opening --log-json {}: {e}", path.display())));
    }
    // Continuous profiling: the service holds one always-armed window, so
    // the engine counts from boot on any worker, `/metrics` shows its totals and
    // `GET /v1/profile` has them to fall back on; windowed requests diff
    // two engine snapshots around their own arm/disarm pair.
    slurm_sim::timing::arm();
    let spec = cluster_spec(&cli);
    let policy = &cli.machine.policy;
    let (model, scheduler) = build_policy(policy);
    let sharing = SharingFactor::new(policy.sharing);
    // Not `compile`'s SLURM config: its malleability seed follows a
    // scenario seed, and the service keeps the default draw.
    let cfg = SlurmConfig {
        malleable_fraction: cli.machine.slurm.malleable_fraction,
        ..SlurmConfig::default()
    };

    // Crash tolerance: recover checkpoint + WAL (and collapse the log into a
    // fresh checkpoint) *before* binding — no traffic is accepted until the
    // pre-crash state is fully rebuilt.
    let engine = match &cli.wal {
        Some(dir) => {
            let (engine, status) = Engine::recover(
                dir,
                cli.wal_fsync,
                cli.checkpoint_every,
                spec.clone(),
                cfg,
                model,
                sharing,
                scheduler,
            )
            .unwrap_or_else(|e| fail(&format!("WAL recovery failed: {e}")));
            match status.recovered {
                None => sd_obs::log_event!(
                    Info,
                    "wal",
                    "fresh log in {} (fsync {}, checkpoint every {} records)",
                    dir.display(),
                    cli.wal_fsync.label(),
                    cli.checkpoint_every,
                ),
                Some(mode) => sd_obs::log_event!(
                    Info,
                    "wal",
                    "recovered from {} in {:.3}s ({mode}; {} records replayed)",
                    dir.display(),
                    status.recovery_seconds,
                    status.records_replayed,
                ),
            }
            engine
        }
        None => {
            let state = SimState::new_online(spec.clone(), cfg, model, sharing);
            Engine::new(state, scheduler, ClockMode::Virtual)
        }
    };
    let hists = std::sync::Arc::new(sd_serve::metrics::ServeHistograms::default());
    let ring = cli
        .trace
        .then(|| std::sync::Arc::new(slurm_sim::TraceRing::new(cli.trace_capacity)));
    let mut engine = engine.with_clock(cli.mode).with_histograms(hists.clone());
    if let Some(r) = &ring {
        engine = engine.with_trace(r.clone());
        sd_obs::log_event!(Info, "serve", "decision tracing on";
            ring_capacity = r.capacity());
    }
    if !cli.tenant_rates.is_empty() {
        engine = engine.with_tenant_rates(&cli.tenant_rates);
        sd_obs::log_event!(
            Info,
            "serve",
            "tenant rate limits: {}",
            cli.tenant_rates
                .iter()
                .map(|(id, r)| format!("{id}={r}/s"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    let listener = std::net::TcpListener::bind(("127.0.0.1", cli.port))
        .unwrap_or_else(|e| fail(&format!("binding 127.0.0.1:{}: {e}", cli.port)));
    let addr = listener.local_addr().expect("bound listener has an address");
    println!("sd-serve listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    sd_obs::log_event!(
        Info,
        "serve",
        "machine: {} × {}-core nodes | policy: {} | clock: {:?} | workers: {}",
        spec.nodes,
        spec.node.cores(),
        policy.kind.word(),
        cli.mode,
        cli.workers,
    );
    if !cli.slos.is_empty() {
        sd_obs::log_event!(
            Info,
            "slo",
            "objectives declared: {}",
            cli.slos
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    // Graceful SIGTERM/SIGINT: drain, final checkpoint (with --wal), exit 0.
    sd_serve::signals::install();
    let server_cfg = ServerConfig {
        workers: cli.workers,
        trace: ring,
        hists,
        signal_stop: true,
        slos: cli.slos.clone(),
    };
    let outcome = server::run(engine, listener, server_cfg);
    match &outcome {
        Ok(result) => {
            sd_obs::log_event!(
                Info,
                "serve",
                "shutdown: {} jobs completed, makespan {}, mean slowdown {:.2}, energy {:.1} kWh",
                result.outcomes.len(),
                result.makespan,
                result.mean_slowdown(),
                result.energy_joules / 3.6e6,
            );
        }
        Err(e) => {
            sd_obs::log_event!(Error, "serve", "server error: {e}");
        }
    }
    sd_obs::flush_sink();
    if outcome.is_err() {
        std::process::exit(1);
    }
}
