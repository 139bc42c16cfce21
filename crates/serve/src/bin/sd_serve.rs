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
use sd_scenario::cli::{self, Flag, Value};
use sd_scenario::{ClusterPreset, Scenario, SourceKind, Vocab};
use sd_serve::engine::{ClockMode, Engine};
use sd_serve::server::{self, ServerConfig};
use slurm_sim::{SimState, SlurmConfig};
use workload::PaperWorkload;

struct Cli {
    port: u16,
    workers: usize,
    /// `--mode realtime`; its clock runs at `compression`.
    realtime: bool,
    compression: f64,
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

const TITLE: &str = "sd-serve — online scheduling service (HTTP/JSON)";

const FLAGS: &[Flag<Cli>] = &[
    Flag::value("--port", "<n>", "TCP port (default 0 = ephemeral; printed when bound)",
        |c, v| v.parse().map(|n| c.port = n)),
    Flag::value("--workers", "<n>", "HTTP worker threads (default 4)",
        |c, v| v.at_least_1().map(|n| c.workers = n)),
    Flag::value("--mode", "<virtual|realtime>", "clock mode (default virtual)", |c, v| {
        c.realtime = match v.text {
            "virtual" => false,
            "realtime" => true,
            m => return Err(format!("--mode must be virtual or realtime, got {m}")),
        };
        Ok(())
    }),
    Flag::value("--compression", "<x>", "realtime: simulated seconds per wall second (default 60)",
        |c, v| v.positive().map(|x| c.compression = x)),
    Flag::value("--cluster", "<w1|w2|w3|w4|ricc|curie|mn4|mn4_real_run>",
        "machine preset (default w3)", |c, v| match PaperWorkload::by_short(v.text) {
            Some(w) => {
                (c.workload, c.machine.cluster.preset) = (w, ClusterPreset::Auto);
                Ok(())
            }
            None => (v.key(&mut c.machine, "cluster", "preset"))
                .map_err(|e| format!("{e}, or a workload's machine (w1|w2|w3|w4)")),
        }),
    Flag::value("--scale", "<f64>", "machine scale for w* presets, > 0 (default 0.05)",
        |c, v| v.key(&mut c.machine, "scenario", "scale")),
    Flag::value("--nodes", "<n>", "override the node count (at least 1)",
        |c, v| v.key(&mut c.machine, "cluster", "nodes")),
    Flag::value("--policy", "<sd|static>", "scheduler (default sd)",
        |c, v| v.key(&mut c.machine, "policy", "kind")),
    Flag::value("--maxsd", "<x|inf|dyn>", "SD-Policy cut-off, x > 1 (default dyn)",
        |c, v| v.key(&mut c.machine, "policy", "maxsd")),
    Flag::value("--model", "<ideal|worst_case|app_aware>", "runtime model (default ideal)",
        |c, v| v.key(&mut c.machine, "policy", "model")),
    Flag::value("--sharing", "<f64>", "sharing factor in [0,1) (default 0.5)",
        |c, v| v.key(&mut c.machine, "policy", "sharing")),
    Flag::value("--malleable-fraction", "<f64>",
        "fraction of draw-decided malleable jobs (default 1)\n\
         (these eight are read as the `.scn` keys they stand\n\
         for: a value a scenario file may not hold exits 2)",
        |c, v| v.key(&mut c.machine, "slurm", "malleable_fraction")),
    Flag::value("--tenant-rate", "<id=rps>",
        "per-tenant submit rate limit in submissions per wall\n\
         second (repeatable; unlisted tenants are unlimited)", |c, v| {
            let Some((id, rate)) = v.text.split_once('=') else {
                return Err(format!("--tenant-rate wants <id=rps>, got {}", v.text));
            };
            let id = Value { flag: "--tenant-rate id", text: id }.parse()?;
            let rate = Value { flag: "--tenant-rate rps", text: rate }.positive()?;
            c.tenant_rates.push((id, rate));
            Ok(())
        }),
    Flag::switch("--trace", "enable decision tracing (GET /v1/trace, /v1/explain/{id})",
        |c| c.trace = true),
    Flag::value("--trace-capacity", "<n>",
        "trace ring size in events (default 65536; power of two)",
        |c, v| v.at_least_1().map(|n| c.trace_capacity = n)),
    Flag::value("--wal", "<dir>",
        "crash tolerance: write-ahead log + checkpoints in\n\
         <dir>; on restart the service recovers the exact\n\
         pre-crash state before accepting traffic",
        |c, v| v.parse().map(|d| c.wal = Some(d))),
    Flag::value("--checkpoint-every", "<n>", "records between checkpoints (default 256)",
        |c, v| v.at_least_1().map(|n| c.checkpoint_every = n)),
    Flag::value("--wal-fsync", "<always|checkpoint|never>",
        "fsync policy for WAL appends\n(default checkpoint; checkpoints always fsync)", |c, v| {
            c.wal_fsync = match v.text {
                "always" => FsyncPolicy::Always,
                "checkpoint" => FsyncPolicy::Checkpoint,
                "never" => FsyncPolicy::Never,
                p => return Err(format!("{} must be always, checkpoint or never, got {p}", v.flag)),
            };
            Ok(())
        }),
    Flag::value("--log-level", "<error|warn|info|debug|trace>",
        "structured-log verbosity for\n\
         the in-memory ring, GET /v1/logs and the stderr\n\
         echo (default info)",
        |c, v| v.level().map(|l| c.log_level = l)),
    Flag::value("--log-json", "<path>",
        "also write every retained log record as one JSON\nline to <path>",
        |c, v| v.parse().map(|p| c.log_json = Some(p))),
    Flag::value("--slo", "<key=value>",
        "declare a service-level objective (repeatable):\n\
         p99_wait_seconds=<s>, pass_duration_p95=<s>,\n\
         submit_availability=<fraction>; enables GET /v1/slo\n\
         and the sd_serve_slo_* burn-rate gauges", |c, v| {
            let Some((key, val)) = v.text.split_once('=') else {
                return Err(format!("--slo wants <key=value>, got {}", v.text));
            };
            let val = Value { flag: "--slo value", text: val }.parse()?;
            c.slos.push(sd_obs::SloSpec::parse(key, val).map_err(|e| format!("bad --slo: {e}"))?);
            Ok(())
        }),
];

fn fail(msg: &str) -> ! {
    println!("{msg}\n\n{}", cli::usage(TITLE, FLAGS));
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut machine = Scenario::new("sd-serve", SourceKind::Ricc);
    machine.scale = Some(0.05);
    let mut cli = Cli {
        port: 0,
        workers: 4,
        realtime: false,
        compression: 60.0,
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
    cli::parse_args(TITLE, FLAGS, &mut cli, fail);
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
    let mode = if cli.realtime {
        ClockMode::Realtime { compression: cli.compression }
    } else {
        ClockMode::Virtual
    };
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
    let mut engine = engine.with_clock(mode).with_histograms(hists.clone());
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
        mode,
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
