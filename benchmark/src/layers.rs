//! Per-layer replays for the traced run: each layer's public entry point
//! is fed the recorded session (its request bytes, commands, WAL payloads)
//! in isolation and timed from outside. Every replay is one span.

use crate::inputs::{Scenario, Step, SESSION};
use crate::report::Outcome;
use crate::served::{durable_engine, live_engine, Scratch, CHECKPOINT_EVERY};
use crate::span::Spans;
use crate::stats;
use drom::SharingFactor;
use sd_durable::{crc32, scan_bytes, DurableStore, FsyncPolicy};
use sd_policy::SdPolicy;
use sd_serve::durable::WalCmd;
use sd_serve::engine::{Command, Engine};
use sd_serve::http::{self, Request, Response};
use sd_serve::metrics::{self, HttpCounters};
use sd_serve::{proto, Json, ServeHistograms, SubmitRequest};
use simkit::SimTime;
use slurm_sim::{Controller, IdealModel, SimResult, SimState};
use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc::{self, Sender};
use std::time::Instant;

/// Mean microseconds per item of `work` over `items`, calibrated.
fn mean_us<T>(items: &[T], f: f64, mut work: impl FnMut(&T)) -> f64 {
    let t0 = Instant::now();
    for item in items {
        work(item);
    }
    t0.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64 * f
}

/// Median milliseconds of `work` over `reps` repetitions, calibrated.
fn median_ms(reps: usize, f: f64, mut work: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            work();
            t0.elapsed().as_secs_f64() * 1e3 * f
        })
        .collect();
    stats::median(&times)
}

fn submits(script: &[Step]) -> Vec<&SubmitRequest> {
    script
        .iter()
        .filter_map(|s| match s {
            Step::Submit(r) => Some(r),
            _ => None,
        })
        .collect()
}

/// `workload`, `swf`, `sched_metrics`: what set-up and post-processing touch.
pub fn workload_layers(
    sc: &Scenario,
    seed: u64,
    trace: &swf::Trace,
    result: &SimResult,
    f: f64,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let span = spans.begin("layer_workload_generate", None);
    out.metrics.insert(
        "workload.generate_s",
        median_ms(3, f, || drop(black_box(sc.trace(seed)))) / 1e3,
    );
    spans.end(span);

    let text = swf::write_string(trace);
    let span = spans.begin("layer_swf_parse", None);
    let t0 = Instant::now();
    let parsed = swf::parse_str(&text).expect("a written trace parses");
    let parse_s = t0.elapsed().as_secs_f64() * f;
    spans.end(span);
    out.check(parsed.jobs.len() == trace.jobs.len(), || {
        "swf round trip lost jobs".into()
    });
    out.metrics
        .insert("swf.parse_mb_per_s", text.len() as f64 / 1e6 / parse_s);

    let span = spans.begin("layer_sched_metrics_summary", None);
    let cores = sc.cluster().total_cores();
    let ms = median_ms(3, f, || {
        drop(black_box(sched_metrics::Summary::from_result(
            "bench", result, cores,
        )))
    });
    spans.end(span);
    out.metrics.insert("sched_metrics.summary_ms", ms);
}

/// `serve::http`, `serve::json`, `serve::proto`: the session's submit
/// requests and replies as bytes, through each codec on its own.
pub fn wire_layers(
    script: &[Step],
    result: &SimResult,
    f: f64,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let reqs = submits(script);
    let bodies: Vec<Json> = reqs.iter().map(|r| r.encode()).collect();
    let texts: Vec<String> = bodies.iter().map(Json::render).collect();
    // The bytes `Client::request` puts on the wire for each submit.
    let wires: Vec<Vec<u8>> = texts
        .iter()
        .map(|t| {
            let mut req = Request::new("POST", "/v1/jobs");
            req.headers.push(("host".into(), "127.0.0.1:7070".into()));
            req.headers
                .push(("content-type".into(), "application/json".into()));
            req.body = t.clone().into_bytes();
            req.render()
        })
        .collect();
    let acks: Vec<Response> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Response::json(
                201,
                &Json::obj().set("id", i as u64 + 1).set("submit", r.submit),
            )
        })
        .collect();

    let span = spans.begin("layer_http", None);
    let us = mean_us(&wires, f, |w| {
        let parsed = http::read_request(&mut &w[..]).expect("a rendered request parses");
        black_box(parsed);
    });
    out.metrics.insert("serve.http.parse_request_us", us);
    let mut sink = Vec::with_capacity(256);
    let us = mean_us(&acks, f, |a| {
        sink.clear();
        a.write_to(&mut sink, false).expect("write to memory");
        black_box(&sink);
    });
    out.metrics.insert("serve.http.write_response_us", us);
    spans.end(span);

    let span = spans.begin("layer_json", None);
    out.metrics.insert(
        "serve.json.parse_us",
        mean_us(&texts, f, |t| drop(black_box(Json::parse(t)))),
    );
    out.metrics.insert(
        "serve.json.render_us",
        mean_us(&bodies, f, |b| drop(black_box(b.render()))),
    );
    spans.end(span);

    let span = spans.begin("layer_proto", None);
    let us = mean_us(&bodies, f, |b| drop(black_box(SubmitRequest::decode(b))));
    out.metrics.insert("serve.proto.submit_decode_us", us);
    let mut bytes = 0;
    let ms = median_ms(3, f, || {
        bytes = black_box(proto::encode_result(result).render()).len()
    });
    out.metrics.insert("serve.proto.encode_result_ms", ms);
    out.metrics.insert(
        "serve.proto.result_bytes_per_job",
        bytes as f64 / result.outcomes.len().max(1) as f64,
    );
    spans.end(span);
}

/// One command over the engine's channel, as a server worker sends it:
/// a fresh reply channel per command. Returns the reply and microseconds.
fn call<T>(tx: &Sender<Command>, build: impl FnOnce(Sender<T>) -> Command) -> (T, f64) {
    let t0 = Instant::now();
    let (rtx, rrx) = mpsc::channel();
    tx.send(build(rtx)).expect("engine is running");
    let reply = rrx.recv().expect("engine replies");
    (reply, t0.elapsed().as_secs_f64() * 1e6)
}

/// Identity of the checkpoint file currently installed (`None` before the
/// first one): a new install is a new inode.
fn checkpoint_id(dir: &Path) -> Option<(u64, u64)> {
    use std::os::unix::fs::MetadataExt as _;
    std::fs::metadata(dir.join(sd_durable::checkpoint::CHECKPOINT_FILE))
        .ok()
        .map(|m| (m.ino(), m.len()))
}

/// `serve::engine` driven over its `mpsc` command channel, no HTTP. With a
/// `durable_dir` the engine logs and checkpoints exactly like `serve_wal`,
/// and the bytes it puts on disk are counted.
pub fn engine_layers(
    script: &[Step],
    reference: &SimResult,
    durable_dir: Option<&Path>,
    f: f64,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let span = spans.begin("layer_engine", None);
    let engine: Engine = match durable_dir {
        Some(dir) => durable_engine(&SESSION, dir).0,
        None => live_engine(&SESSION),
    };
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || engine.run(rx));
    let (mut submit_us, mut advance_us) = (Vec::new(), Vec::new());
    let mut drain_s = 0.0;
    let mut wal_bytes = 0u64;
    let mut checkpoint_bytes = 0u64;
    let mut last_checkpoint = durable_dir.and_then(checkpoint_id);
    let mut jobs = 0u64;
    let halfway = script.len() / 2;
    for (i, step) in script.iter().enumerate() {
        if i == halfway {
            // Mid-session: a queue, running jobs and outcomes to read.
            let stats_us: Vec<f64> = (0..200)
                .map(|_| call(&tx, |reply| Command::Stats { reply }).1)
                .collect();
            let info_us: Vec<f64> = (0..200u64)
                .map(|k| {
                    call(&tx, |reply| Command::JobInfo {
                        id: 1 + (k * 7919) % jobs.max(1),
                        reply,
                    })
                    .1
                })
                .collect();
            let queue_us: Vec<f64> = (0..200)
                .map(|_| call(&tx, |reply| Command::Queue { limit: 100, reply }).1)
                .collect();
            out.metrics
                .insert("serve.engine.stats_us", stats::median(&stats_us) * f);
            out.metrics
                .insert("serve.engine.jobinfo_us", stats::median(&info_us) * f);
            out.metrics
                .insert("serve.engine.queue_us", stats::median(&queue_us) * f);
            let (snap, _) = call(&tx, |reply| Command::Stats { reply });
            let (http, hists) = (HttpCounters::default(), ServeHistograms::default());
            let render_ms = median_ms(50, f, || {
                drop(black_box(metrics::render(&snap, &http, &hists, &[])))
            });
            out.metrics
                .insert("serve.metrics.render_us", render_ms * 1e3);
        }
        let logged = match step {
            Step::Submit(req) => {
                let req = req.clone();
                let logged = WalCmd::Submit(req.clone());
                let (ack, us) = call(&tx, |reply| Command::Submit { req, reply });
                out.check(ack.is_ok(), || {
                    format!("engine replay refused a submit: {ack:?}")
                });
                submit_us.push(us);
                jobs += 1;
                logged
            }
            Step::Advance(to) => {
                let (ack, us) = call(&tx, |reply| Command::Advance { to: *to, reply });
                out.check(ack.is_ok(), || {
                    format!("engine replay refused an advance: {ack:?}")
                });
                advance_us.push(us);
                WalCmd::Advance(*to)
            }
            Step::Drain => {
                let (ack, us) = call(&tx, |reply| Command::Drain { reply });
                out.check(ack.is_ok(), || {
                    format!("engine replay refused the drain: {ack:?}")
                });
                drain_s = us / 1e6;
                WalCmd::Drain
            }
        };
        if let Some(dir) = durable_dir {
            wal_bytes += (sd_durable::wal::FRAME_HEADER + logged.encode().len()) as u64;
            let now = checkpoint_id(dir);
            if now != last_checkpoint {
                checkpoint_bytes += now.map_or(0, |(_, len)| len);
                last_checkpoint = now;
            }
        }
    }
    let (snap, _) = call(&tx, |reply| Command::Stats { reply });
    let (result, result_us) = call(&tx, |reply| Command::Result { reply });
    let (final_result, _) = call(&tx, |reply| Command::Shutdown { reply });
    handle.join().expect("engine thread");
    spans.end(span);
    out.check(result == *reference && final_result == *reference, || {
        "engine replay over the command channel differs from the offline replay".into()
    });
    out.metrics
        .insert("serve.engine.submit_us", stats::median(&submit_us) * f);
    out.metrics
        .insert("serve.engine.advance_us", stats::median(&advance_us) * f);
    out.metrics.insert("serve.engine.drain_s", drain_s * f);
    out.metrics
        .insert("serve.engine.result_ms", result_us / 1e3 * f);
    if let (Some(dir), Some(wal)) = (durable_dir, snap.wal) {
        // The shutdown checkpoint landed after the last look.
        let now = checkpoint_id(dir);
        if now != last_checkpoint {
            checkpoint_bytes += now.map_or(0, |(_, len)| len);
        }
        out.metrics
            .insert("serve.engine.wal_records", wal.records_written as f64);
        out.metrics.insert(
            "serve.engine.checkpoints_written",
            wal.checkpoints_written as f64,
        );
        out.metrics.insert(
            "durable.disk_bytes_per_job",
            (wal_bytes + checkpoint_bytes) as f64 / jobs.max(1) as f64,
        );
        out.check(wal.records_written == script.len() as u64, || {
            format!(
                "{} WAL records for {} mutating commands",
                wal.records_written,
                script.len()
            )
        });
        out.notes.push(format!(
            "disk: {wal_bytes} WAL bytes + {checkpoint_bytes} checkpoint bytes for {jobs} jobs, checkpoint every {CHECKPOINT_EVERY} records"
        ));
    }
}

/// `slurm_sim::state::persist`: the canonical image of a mid-session
/// state (running, pending and finished jobs all present). Returns the
/// image for the durable replays.
pub fn persist_layers(trace: &swf::Trace, f: f64, spans: &mut Spans, out: &mut Outcome) -> Vec<u8> {
    let span = spans.begin("layer_persist", None);
    let build = || {
        SimState::new(
            SESSION.cluster(),
            SESSION.slurm_config(),
            trace,
            Box::new(IdealModel),
            SharingFactor::HALF,
        )
    };
    let mut ctl = Controller::new(build(), SdPolicy::default());
    let median_submit = trace.jobs[trace.jobs.len() / 2].submit.max(0) as u64;
    ctl.step_until(Some(SimTime(median_submit)));
    let mut image = Vec::new();
    let ms = median_ms(5, f, || image = black_box(ctl.state.checkpoint_bytes()));
    out.metrics.insert("slurm_sim.checkpoint_bytes_ms", ms);
    out.metrics
        .insert("slurm_sim.checkpoint_image_bytes", image.len() as f64);
    let mut restored_jobs = 0;
    let ms = median_ms(5, f, || {
        let st = SimState::restore(
            SESSION.cluster(),
            SESSION.slurm_config(),
            Box::new(IdealModel),
            SharingFactor::HALF,
            &image,
        )
        .expect("a fresh image restores");
        restored_jobs = st.job_count();
    });
    out.metrics.insert("slurm_sim.restore_ms", ms);
    spans.end(span);
    out.check(restored_jobs == trace.jobs.len(), || {
        "restore lost jobs".into()
    });
    image
}

/// `durable` and the `serve::durable` codecs: the session's WAL payloads
/// appended under each fsync policy, a checkpoint of the real image, and
/// the recovery-side scan and checksum. File I/O is the sandbox's disk.
pub fn durable_layers(
    script: &[Step],
    image: &[u8],
    scratch: &Scratch,
    f: f64,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let span = spans.begin("layer_durable", None);
    let cmds: Vec<WalCmd> = script
        .iter()
        .map(|s| match s {
            Step::Submit(r) => WalCmd::Submit(r.clone()),
            Step::Advance(to) => WalCmd::Advance(*to),
            Step::Drain => WalCmd::Drain,
        })
        .collect();
    let submit_cmds: Vec<&WalCmd> = cmds
        .iter()
        .filter(|c| matches!(c, WalCmd::Submit(_)))
        .collect();
    out.metrics.insert(
        "serve.durable.walcmd_encode_us",
        mean_us(&submit_cmds, f, |c| drop(black_box(c.encode()))),
    );
    let payloads: Vec<Vec<u8>> = cmds.iter().map(WalCmd::encode).collect();
    let submit_bytes: usize = submit_cmds.iter().map(|c| c.encode().len()).sum();
    out.metrics.insert(
        "serve.durable.walcmd_bytes",
        submit_bytes as f64 / submit_cmds.len().max(1) as f64,
    );

    let mut never_dir = None;
    for (policy, name, take) in [
        (
            FsyncPolicy::Never,
            "durable.append_never_us",
            payloads.len(),
        ),
        (
            FsyncPolicy::Checkpoint,
            "durable.append_checkpoint_us",
            payloads.len(),
        ),
        // One fsync per append: a couple of hundred say enough.
        (FsyncPolicy::Always, "durable.append_always_us", 200),
    ] {
        let dir = scratch.fresh(&format!("append-{}", policy.label()));
        let (mut store, _) = DurableStore::open(&dir, policy).expect("open a fresh store");
        let mut seq = 0;
        let us = mean_us(&payloads[..take.min(payloads.len())], f, |p| {
            seq += 1;
            store.append(seq, p).expect("append to the WAL");
        });
        out.metrics.insert(name, us);
        if policy == FsyncPolicy::Never {
            never_dir = Some((dir, store, seq));
        }
    }
    let (dir, mut store, seq) = never_dir.expect("the never-policy store was kept");
    let log = std::fs::read(dir.join(sd_durable::WAL_FILE)).expect("read the WAL back");
    let mut records = 0;
    let scan_ms = median_ms(5, f, || records = black_box(scan_bytes(&log)).records.len());
    out.check(records == payloads.len(), || {
        format!("scan found {records} of {} records", payloads.len())
    });
    out.metrics.insert(
        "durable.scan_mb_per_s",
        log.len() as f64 / 1e6 / (scan_ms / 1e3),
    );
    let crc_ms = median_ms(20, f, || {
        black_box(crc32(image));
    });
    out.metrics.insert(
        "durable.crc_mb_per_s",
        image.len() as f64 / 1e6 / (crc_ms / 1e3),
    );
    let ms = median_ms(5, f, || {
        store
            .install_checkpoint(seq, image)
            .expect("install a checkpoint")
    });
    out.metrics.insert("durable.checkpoint_write_ms", ms);
    spans.end(span);
}
