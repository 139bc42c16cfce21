//! The benchmark's definition as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics with the end-to-end metric each should
//! move, and the simulated statistics pinned at seed 42. `BENCHMARK.json`
//! and `benchmark/manifest.json` are rendered from these tables; a test
//! fails when the committed files and the tables disagree.

use sd_serve::Json;

pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
pub const PATHS: [&str; 1] = ["benchmark"];
/// Measuring time of one run: two or three W4 SD reps (≈4–6 s each; two is
/// the floor, bit-identity needs a pair), ten or more served sessions.
pub const RUN_SECONDS: u64 = 10;
pub const DEFAULT_SEED: u64 = 42;

pub struct Workload {
    pub name: &'static str,
    /// What runs, for the README and the manifest.
    pub what: &'static str,
    pub why: &'static str,
    /// What one "op" is in `ops_per_s` / `op_p50_us` / `op_p99_us`.
    pub op: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "w4_sd",
        what: "W4 Curie scale 0.5 (99 K jobs, 2520 nodes), SdPolicy DynAVGSD, offline SimState::new + Controller loop",
        why: "The paper's big workload: backfill_trial is ~75% of wall at a ~2% trial yield, so mate-scan and trial-pruning work must show here.",
        op: "completed job (throughput); scheduler pass (latency)",
    },
    Workload {
        name: "w4_static",
        what: "same trace, StaticBackfill",
        why: "Bypasses sd-policy entirely and has the largest event-dispatch share: an sd-policy change must not move it, simkit/cluster/state work moves it most.",
        op: "completed job (throughput); scheduler pass (latency)",
    },
    Workload {
        name: "w3_sd",
        what: "W3 RICC scale 2.0 (20 K small jobs, 2048 nodes), SdPolicy, offline",
        why: "Deep availability profile and ~10% malleable starts: earliest_start and shrink/expand mutations dominate instead of rejected scans.",
        op: "completed job (throughput); scheduler pass (latency)",
    },
    Workload {
        name: "serve_live",
        what: "in-process server::run + Engine::new (virtual clock, SD, 2 workers), one closed-loop client over loopback: W3 scale 0.4 (4 000 jobs) in chunks of 25 with advances, then drain",
        why: "Closed loop, 1 client, like sbatch callers: exercises http/json/proto/server/engine while the simulator does little per request.",
        op: "submitted job (throughput, first request to drain ack); POST /v1/jobs round trip (latency)",
    },
    Workload {
        name: "serve_wal",
        what: "same session, engine from Engine::recover on a fresh directory (FsyncPolicy::Checkpoint, checkpoint every 256 records); the crash image taken after the last submit is recovered, drained and compared",
        why: "Same session plus one WAL append per mutation and an O(all-jobs) checkpoint every 256 records: a durable/persist change moves this and not serve_live.",
        op: "submitted job (throughput); POST /v1/jobs round trip (latency)",
    },
    Workload {
        name: "serve_reads",
        what: "engine loaded with the 4 000 jobs and advanced to the median submit instant, then closed-loop reads: 70% GET /v1/jobs/{id}, 10% each /v1/queue, /v1/stats, /metrics",
        why: "Reads beside writes: stats and /metrics rebuild aggregates from outcomes per call, so work deferred from submit to snapshot time shows up here as a loss.",
        op: "read (throughput and round-trip latency)",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Share by which `now` is worse than `base` (negative = better).
    pub fn worse_by(self, base: f64, now: f64) -> f64 {
        match self {
            Better::Higher => (base - now) / base,
            Better::Lower => (now - base) / base,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

/// Every workload reports every one of these, and none is ever zero.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "work per host-second, median over reps/sessions (see each workload's op)",
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "median latency of the workload's op; per rep/session, then median across",
    },
    EndToEnd {
        name: "op_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "p99 latency of the op; every rep/session/batch holds at least 1 000 samples, so ten lie beyond",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the workload's own process",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "trace generation + offline reference + server boot / WAL dir / crash image prep; median of 3; compile time excluded",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Counts that repeat bit-for-bit and may carry a claim as a count.
    pub exact: bool,
    /// The end-to-end metric and workload this should move.
    pub moves: &'static str,
}

const fn time(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        moves,
    }
}

const fn rate(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
        moves,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
        moves,
    }
}

const SETUP: &str = "setup_s on all";
const SIM_ALL: &str = "ops_per_s on w4_sd, w4_static, w3_sd";
const TRIAL: &str = "ops_per_s on w4_sd (~75% of wall) and w3_sd; op_p99_us there";
const ESTART: &str = "ops_per_s on w3_sd only (<=3% of wall on w4_*: predict no change)";
const DISPATCH: &str = "ops_per_s on w4_static first, w4_sd second, ~0 on w3_sd";
const PASS: &str = "op_p50_us/op_p99_us on w4_sd, w4_static, w3_sd; serve.client.advance_p99_us";
const SIMSTAT: &str = "none: a change meant only to speed the simulator must leave it identical";
const SD: &str = "ops_per_s on w4_sd, w3_sd; nothing on w4_static";
const CLIENT: &str = "ops_per_s on serve_live, serve_wal";
const WIRE: &str = "op_p50_us on serve_live, serve_wal, serve_reads; nothing offline";
const ENGINE: &str = "op_p50_us/op_p99_us and ops_per_s on serve_live, serve_wal";
const ENGINE_READ: &str = "op_p50_us/ops_per_s on serve_reads";
const DURABLE: &str = "op_p50_us/op_p99_us on serve_wal; no change on serve_live";
const PERSIST: &str = "op_p99_us on serve_wal (the 1-in-256 submit); serve.engine.recover_ms";
const RECOVER: &str = "none of the end-to-end set: restart time after kill -9, on the sandbox disk";
const OVERHEAD: &str = "none when off; the armed figure is ROADMAP aim 4's budget";

use Better::{Higher, Lower};

/// Traced run only. A workload that does not exercise a layer reports 0
/// for it (e.g. `serve.engine.wal_records` on `serve_live`).
pub const PER_LAYER: [Layer; 75] = [
    // workload, swf
    time("workload.generate_s", "s", SETUP),
    rate("swf.parse_mb_per_s", "MB/s", SETUP),
    // slurm_sim: controller / backfill / reservation
    time("slurm_sim.state_new_s", "s", SIM_ALL),
    time("slurm_sim.run_s", "s", SIM_ALL),
    time("slurm_sim.pass_total_s", "s", SIM_ALL),
    time("slurm_sim.pass_p50_us", "us", PASS),
    time("slurm_sim.pass_p99_us", "us", PASS),
    time("slurm_sim.pass_max_us", "us", PASS),
    time("slurm_sim.dispatch_s", "s", DISPATCH),
    time("slurm_sim.ns_per_event", "ns", SIM_ALL),
    time("slurm_sim.backfill_trial_s", "s", TRIAL),
    time("slurm_sim.earliest_start_s", "s", ESTART),
    count("slurm_sim.events", "count", Lower, SIM_ALL),
    count("slurm_sim.pass_count", "count", Lower, SIM_ALL),
    count("slurm_sim.passes_skipped", "count", Higher, SIM_ALL),
    count("slurm_sim.pass_yield", "ratio", Higher, SIM_ALL),
    count("slurm_sim.backfill_trial_calls", "count", Lower, TRIAL),
    count("slurm_sim.trial_yield", "ratio", Higher, TRIAL),
    count("slurm_sim.earliest_start_calls", "count", Lower, ESTART),
    count("slurm_sim.peak_profile_len", "count", Lower, ESTART),
    count("slurm_sim.makespan_s", "s", Lower, SIMSTAT),
    count("slurm_sim.mean_slowdown", "ratio", Lower, SIMSTAT),
    count("slurm_sim.energy_kwh", "kWh", Lower, SIMSTAT),
    // sd_policy (sampled read-only probe on every 1 000th pass)
    time("sd_policy.collect_candidates_us", "us", SD),
    time("sd_policy.pick_mates_us", "us", SD),
    Layer {
        name: "sd_policy.candidates_per_scan",
        unit: "count",
        better: Lower,
        exact: false,
        moves: SD,
    },
    Layer {
        name: "sd_policy.mate_pool_len",
        unit: "count",
        better: Lower,
        exact: false,
        moves: SD,
    },
    count("sd_policy.malleable_started", "count", Higher, SD),
    count("sd_policy.unique_mates", "count", Higher, SD),
    count("sd_policy.relocations", "count", Higher, SD),
    // sched_metrics
    time(
        "sched_metrics.summary_ms",
        "ms",
        "none of the end-to-end set (campaign post-processing)",
    ),
    // serve, client view
    time("serve.client.advance_p50_us", "us", CLIENT),
    time("serve.client.advance_p99_us", "us", CLIENT),
    time("serve.client.drain_s", "s", CLIENT),
    time("serve.client.read_job_us", "us", ENGINE_READ),
    time("serve.client.read_queue_us", "us", ENGINE_READ),
    time("serve.client.read_stats_us", "us", ENGINE_READ),
    time("serve.client.read_metrics_us", "us", ENGINE_READ),
    // serve::http / json / proto, replayed in isolation
    time("serve.http.parse_request_us", "us", WIRE),
    time("serve.http.write_response_us", "us", WIRE),
    time("serve.json.parse_us", "us", WIRE),
    time("serve.json.render_us", "us", WIRE),
    time("serve.proto.submit_decode_us", "us", WIRE),
    time(
        "serve.proto.encode_result_ms",
        "ms",
        "none of the end-to-end set (result fetch; capped by the 1 MiB response limit)",
    ),
    count(
        "serve.proto.result_bytes_per_job",
        "B",
        Lower,
        "the 4 000-job session limit",
    ),
    // serve::engine over its mpsc Command channel, no HTTP
    time("serve.engine.submit_us", "us", ENGINE),
    time("serve.engine.advance_us", "us", ENGINE),
    time("serve.engine.drain_s", "s", ENGINE),
    time("serve.engine.stats_us", "us", ENGINE_READ),
    time("serve.engine.jobinfo_us", "us", ENGINE_READ),
    time("serve.engine.queue_us", "us", ENGINE_READ),
    time("serve.engine.result_ms", "ms", "none of the end-to-end set"),
    count("serve.engine.wal_records", "count", Lower, DURABLE),
    count("serve.engine.checkpoints_written", "count", Lower, DURABLE),
    count("serve.engine.recover_replayed", "count", Lower, RECOVER),
    // serve::server, serve::metrics
    time(
        "serve.server.wire_overhead_us",
        "us",
        "op_p50_us on serve_live (socket + worker hop + HTTP + JSON)",
    ),
    time("serve.metrics.render_us", "us", ENGINE_READ),
    // durable (+ serve::durable codecs); file I/O is the sandbox's disk
    time("durable.append_never_us", "us", DURABLE),
    time("durable.append_checkpoint_us", "us", DURABLE),
    time(
        "durable.append_always_us",
        "us",
        "none here: fsync per append on the sandbox disk, for scale only",
    ),
    time("durable.checkpoint_write_ms", "ms", DURABLE),
    rate("durable.scan_mb_per_s", "MB/s", RECOVER),
    rate("durable.crc_mb_per_s", "MB/s", RECOVER),
    count("durable.disk_bytes_per_job", "B", Lower, DURABLE),
    time("serve.durable.walcmd_encode_us", "us", DURABLE),
    count("serve.durable.walcmd_bytes", "B", Lower, DURABLE),
    // slurm_sim::state::persist
    time("slurm_sim.checkpoint_bytes_ms", "ms", PERSIST),
    time("slurm_sim.restore_ms", "ms", PERSIST),
    count("slurm_sim.checkpoint_image_bytes", "B", Lower, PERSIST),
    // recovery, end to end inside the engine
    time("serve.engine.recover_ms", "ms", RECOVER),
    // observers
    Layer {
        name: "trace.armed_overhead_pct",
        unit: "%",
        better: Lower,
        exact: false,
        moves: OVERHEAD,
    },
    Layer {
        name: "obs.armed_overhead_pct",
        unit: "%",
        better: Lower,
        exact: false,
        moves: OVERHEAD,
    },
    Layer {
        name: "tracing.overhead_pct",
        unit: "%",
        better: Lower,
        exact: false,
        moves: "none: cost of the traced run itself",
    },
    // calibration, so a reader can undo the scaling
    Layer {
        name: "calib.kernel_ms",
        unit: "ms",
        better: Lower,
        exact: false,
        moves: "none: machine speed, not the program",
    },
    Layer {
        name: "calib.factor",
        unit: "ratio",
        better: Higher,
        exact: false,
        moves: "none: every time metric was multiplied by this",
    },
];

/// Simulated statistics at seed 42 — a change meant only to speed the
/// simulator must leave every one of them identical.
pub struct Pin {
    pub workload: &'static str,
    pub jobs: u64,
    pub makespan_s: u64,
    pub mean_slowdown: f64,
    pub energy_kwh: f64,
}

pub const PINS: [Pin; 4] = [
    Pin {
        workload: "w4_sd",
        jobs: 99_254,
        makespan_s: 12_423_130,
        mean_slowdown: 117.1230374654611,
        energy_kwh: 2164174.614,
    },
    Pin {
        workload: "w4_static",
        jobs: 99_254,
        makespan_s: 12_423_130,
        mean_slowdown: 136.29044037152784,
        energy_kwh: 2164174.41752,
    },
    Pin {
        workload: "w3_sd",
        jobs: 20_000,
        makespan_s: 1_346_636,
        mean_slowdown: 1656.466055854432,
        energy_kwh: 159607.98853333332,
    },
    // The served workloads share one trace; every session must end here.
    Pin {
        workload: "serve_session",
        jobs: 4_000,
        makespan_s: 633_366,
        mean_slowdown: 786.0011541742768,
        energy_kwh: 13629.811433333334,
    },
];

pub fn pin(name: &str) -> &'static Pin {
    PINS.iter()
        .find(|p| p.workload == name)
        .expect("every pinned name is in PINS")
}

fn strs(items: &[&str]) -> Json {
    Json::Arr(items.iter().map(|s| Json::from(*s)).collect())
}

/// `BENCHMARK.json`: exactly the contract's keys, nothing more.
pub fn contract() -> Json {
    Json::obj()
        .set("command", strs(&COMMAND))
        .set("paths", strs(&PATHS))
        .set("run_seconds", RUN_SECONDS)
        .set(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| Json::obj().set("name", w.name).set("why", w.why))
                .collect::<Vec<_>>(),
        )
        .set(
            "end_to_end",
            END_TO_END
                .iter()
                .map(|m| {
                    Json::obj()
                        .set("name", m.name)
                        .set("unit", m.unit)
                        .set("better", m.better.label())
                        .set("bound", m.bound)
                })
                .collect::<Vec<_>>(),
        )
        .set(
            "per_layer",
            PER_LAYER
                .iter()
                .map(|m| {
                    Json::obj()
                        .set("name", m.name)
                        .set("unit", m.unit)
                        .set("better", m.better.label())
                })
                .collect::<Vec<_>>(),
        )
}

/// `benchmark/manifest.json`: everything the contract file has no key for.
pub fn manifest() -> Json {
    Json::obj()
        .set("command", strs(&COMMAND))
        .set(
            "all_workloads_command",
            strs(&["bash", "benchmark/run.sh", "--seed", "42"]),
        )
        .set("run_seconds", RUN_SECONDS)
        .set(
            "calibration_ref_s",
            crate::calib::Kernel::Compute.reference_s(),
        )
        .set(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| {
                    Json::obj()
                        .set("name", w.name)
                        .set("what", w.what)
                        .set("why", w.why)
                        .set("op", w.op)
                })
                .collect::<Vec<_>>(),
        )
        .set(
            "end_to_end",
            END_TO_END
                .iter()
                .map(|m| {
                    Json::obj()
                        .set("name", m.name)
                        .set("unit", m.unit)
                        .set("better", m.better.label())
                        .set("bound", m.bound)
                        .set("what", m.what)
                })
                .collect::<Vec<_>>(),
        )
        .set(
            "per_layer",
            PER_LAYER
                .iter()
                .map(|m| {
                    Json::obj()
                        .set("name", m.name)
                        .set("layer", layer_of(m.name))
                        .set("unit", m.unit)
                        .set("better", m.better.label())
                        .set("exact", m.exact)
                        .set("moves", m.moves)
                })
                .collect::<Vec<_>>(),
        )
        .set(
            "pinned_at_seed_42",
            PINS.iter()
                .map(|p| {
                    Json::obj()
                        .set("workload", p.workload)
                        .set("jobs", p.jobs)
                        .set("makespan_s", p.makespan_s)
                        .set("mean_slowdown", p.mean_slowdown)
                        .set("energy_kwh", p.energy_kwh)
                })
                .collect::<Vec<_>>(),
        )
}

/// The layer (module) a per-layer metric belongs to: its name up to the
/// last dot.
pub fn layer_of(metric: &str) -> &str {
    metric.rsplit_once('.').map_or(metric, |(layer, _)| layer)
}

/// Two-space pretty printer over the server's own JSON tree (scalars keep
/// its shortest-roundtrip rendering).
pub fn pretty(v: &Json) -> String {
    fn go(v: &Json, depth: usize, out: &mut String) {
        let pad = |d: usize| "  ".repeat(d);
        match v {
            Json::Arr(items) if !items.is_empty() => {
                // Arrays of scalars stay on one line.
                if items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)))
                {
                    out.push_str(&v.render().replace(",", ", "));
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad(depth + 1));
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad(depth));
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                // Leaf objects (one metric, one workload) stay on one line.
                let leaf = fields
                    .iter()
                    .all(|(_, f)| !matches!(f, Json::Arr(_) | Json::Obj(_)));
                if leaf && depth > 0 {
                    out.push('{');
                    for (i, (k, f)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&Json::from(k.as_str()).render());
                        out.push_str(": ");
                        out.push_str(&f.render());
                    }
                    out.push('}');
                    return;
                }
                out.push_str("{\n");
                for (i, (k, f)) in fields.iter().enumerate() {
                    out.push_str(&pad(depth + 1));
                    out.push_str(&Json::from(k.as_str()).render());
                    out.push_str(": ");
                    go(f, depth + 1, out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad(depth));
                out.push('}');
            }
            scalar => out.push_str(&scalar.render()),
        }
    }
    let mut out = String::new();
    go(v, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(names.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(
                valid_name(m.name) && valid_unit(m.unit),
                "{} [{}]",
                m.name,
                m.unit
            );
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(pretty(&contract()).len() < 64 * 1024);
    }

    #[test]
    fn committed_files_match_the_tables() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let committed =
            std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(
            committed,
            pretty(&contract()),
            "run `sdbench manifest --write`"
        );
        let committed = std::fs::read_to_string(root.join("manifest.json")).expect("manifest.json");
        assert_eq!(
            committed,
            pretty(&manifest()),
            "run `sdbench manifest --write`"
        );
        // The contract file carries exactly the contract's keys.
        let parsed = Json::parse(&pretty(&contract())).unwrap();
        let Json::Obj(fields) = parsed else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn pretty_round_trips() {
        for doc in [contract(), manifest()] {
            assert_eq!(Json::parse(&pretty(&doc)).unwrap(), doc);
        }
    }

    #[test]
    fn pins_carry_the_papers_sign() {
        // SD-Policy must beat static backfill on mean slowdown (-14% here).
        assert!(pin("w4_sd").mean_slowdown < pin("w4_static").mean_slowdown);
        assert_eq!(pin("w4_sd").jobs, pin("w4_static").jobs, "same trace");
        assert!(PINS.iter().all(|p| p.jobs > 0 && p.makespan_s > 0));
    }

    #[test]
    fn worse_by_follows_direction() {
        assert!((Better::Higher.worse_by(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((Better::Lower.worse_by(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!(Better::Lower.worse_by(100.0, 90.0) < 0.0);
    }
}
