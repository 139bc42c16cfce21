//! The offline replays: `w4_sd`, `w4_static`, `w3_sd`.
//!
//! One rep = `SimState::new` + the controller loop on a pre-generated
//! trace. The scheduler runs inside a [`PassTimer`] — the `TimedScheduler`
//! pattern `sd-serve`'s engine ships with — which clocks each pass; in the
//! traced run it also reads `st.stats` around the pass and, on every
//! 1 000th pass of an SD workload, times the read-only mate scan on the
//! live state.

use crate::calib::Kernel;
use crate::inputs::Scenario;
use crate::report::{median_of_maps, peak_rss_mb, Metrics, Outcome, RunCtx};
use crate::span::Spans;
use crate::{spec, stats};
use drom::SharingFactor;
use sd_policy::mates::{collect_candidates, pick_mates};
use sd_policy::penalty::malleable_wall_time;
use sd_policy::{SdPolicy, SdPolicyConfig};
use slurm_sim::{
    timing, Controller, DirtyFlags, IdealModel, Scheduler, SimResult, SimState, StaticBackfill,
    TraceRing,
};
use std::sync::Arc;
use std::time::Instant;
use swf::Trace;

/// Passes kept as spans in the trace file (all of them feed the histogram).
const SLOWEST_PASSES_KEPT: usize = 200;
/// The mate-scan probe runs on every this-many-th pass.
const PROBE_EVERY: u64 = 1_000;

#[derive(Default)]
pub struct PassLog {
    pub dur_ns: Vec<u32>,
    /// Traced only: pass start, nanoseconds since the rep began.
    pub start_ns: Vec<u64>,
    /// Traced only: passes that started at least one job.
    pub productive: u64,
    pub probe: ProbeStats,
}

#[derive(Default)]
pub struct ProbeStats {
    pub scans: u64,
    pub collect_ns: u64,
    pub pick_ns: u64,
    pub candidates: u64,
    pub pool: u64,
}

/// What the traced run adds around each pass.
struct Traced {
    origin: Instant,
    /// `Some` on SD workloads: the policy configuration the probe scans with.
    probe_cfg: Option<SdPolicyConfig>,
}

pub struct PassTimer<S> {
    inner: S,
    pub log: PassLog,
    traced: Option<Traced>,
}

impl<S> PassTimer<S> {
    pub fn plain(inner: S) -> Self {
        PassTimer {
            inner,
            log: PassLog::default(),
            traced: None,
        }
    }

    pub fn traced(inner: S, origin: Instant, probe_cfg: Option<SdPolicyConfig>) -> Self {
        PassTimer {
            inner,
            log: PassLog::default(),
            traced: Some(Traced { origin, probe_cfg }),
        }
    }
}

/// The scan `SdPolicy::try_malleable` would make for the queue head, on a
/// shared reference: nothing is started, nothing is mutated.
fn probe_mate_scan(st: &SimState, cfg: &SdPolicyConfig, out: &mut ProbeStats) {
    let Some(head) = st.queue.prefix(1).next() else {
        return;
    };
    let full = st.spec().node.cores();
    let freed = st
        .sharing()
        .freed_cores(full, st.job(head.job).spec.ranks_per_node);
    if freed == 0 {
        return;
    }
    let mall_wall = malleable_wall_time(head.req_time, freed as f64 / full as f64);
    let cutoff = cfg.max_slowdown.cutoff(st);
    let t0 = Instant::now();
    let candidates = collect_candidates(st, mall_wall, cutoff, cfg);
    let t1 = Instant::now();
    let picked = pick_mates(
        &candidates,
        head.req_nodes,
        st.cluster.empty_node_count(),
        cfg,
    );
    let t2 = Instant::now();
    std::hint::black_box(picked);
    out.scans += 1;
    out.collect_ns += (t1 - t0).as_nanos() as u64;
    out.pick_ns += (t2 - t1).as_nanos() as u64;
    out.candidates += candidates.len() as u64;
    out.pool += st.eligible_mates().len() as u64;
}

impl<S: Scheduler> Scheduler for PassTimer<S> {
    fn schedule(&mut self, st: &mut SimState) {
        let Some(tr) = &self.traced else {
            let t0 = Instant::now();
            self.inner.schedule(st);
            self.log
                .dur_ns
                .push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            return;
        };
        if let Some(cfg) = &tr.probe_cfg {
            if (self.log.dur_ns.len() as u64).is_multiple_of(PROBE_EVERY) {
                probe_mate_scan(st, cfg, &mut self.log.probe);
            }
        }
        let started = |st: &SimState| st.stats.started_static + st.stats.started_malleable;
        let before = started(st);
        let t0 = Instant::now();
        self.inner.schedule(st);
        let dur = t0.elapsed();
        self.log
            .dur_ns
            .push(dur.as_nanos().min(u32::MAX as u128) as u32);
        self.log.start_ns.push((t0 - tr.origin).as_nanos() as u64);
        self.log.productive += u64::from(started(st) > before);
    }

    fn pass_needed(&self, st: &SimState, dirty: DirtyFlags) -> bool {
        self.inner.pass_needed(st, dirty)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// Tracing off: the pass clock only.
    Plain,
    /// Pass counters, the sampled mate-scan probe, `timing` probes armed.
    Traced,
    /// Tracing off, but a decision-trace ring attached to the simulator.
    RingArmed,
}

pub struct Rep {
    /// `SimState::new` + controller loop + result collection.
    pub wall_s: f64,
    pub new_s: f64,
    pub loop_s: f64,
    pub log: PassLog,
    pub result: SimResult,
    pub timing: Vec<timing::FnTiming>,
}

pub fn one_rep(sc: &Scenario, trace: &Trace, sd: bool, mode: Mode) -> Rep {
    fn drive<S: Scheduler>(state: SimState, timer: PassTimer<S>) -> (PassLog, SimResult) {
        // `Controller::run` is exactly these two calls; split so the pass
        // log can be taken back before the controller is consumed.
        let mut ctl = Controller::new(state, timer);
        ctl.step_until(None);
        let log = std::mem::take(&mut ctl.scheduler.log);
        (log, ctl.into_result())
    }
    if mode == Mode::Traced {
        timing::reset();
        timing::enable();
    }
    let t0 = Instant::now();
    let mut state = SimState::new(
        sc.cluster(),
        sc.slurm_config(),
        trace,
        Box::new(IdealModel),
        SharingFactor::HALF,
    );
    if mode == Mode::RingArmed {
        state.attach_trace(Arc::new(TraceRing::new(1 << 16)));
    }
    let t1 = Instant::now();
    let (log, result) = match (sd, mode) {
        (true, Mode::Traced) => {
            let policy = SdPolicy::default();
            let cfg = policy.cfg.clone();
            drive(state, PassTimer::traced(policy, t0, Some(cfg)))
        }
        (false, Mode::Traced) => drive(state, PassTimer::traced(StaticBackfill, t0, None)),
        (true, _) => drive(state, PassTimer::plain(SdPolicy::default())),
        (false, _) => drive(state, PassTimer::plain(StaticBackfill)),
    };
    let t2 = Instant::now();
    let timing = if mode == Mode::Traced {
        timing::disable();
        timing::report()
    } else {
        Vec::new()
    };
    Rep {
        wall_s: (t2 - t0).as_secs_f64(),
        new_s: (t1 - t0).as_secs_f64(),
        loop_s: (t2 - t1).as_secs_f64(),
        log,
        result,
        timing,
    }
}

/// The checks that do not depend on timing: leftovers, and at seed 42 the
/// pinned simulated statistics.
pub fn check_result(name: &str, res: &SimResult, seed: u64, out: &mut Outcome) {
    let pin = spec::pin(name);
    out.notes.push(format!(
        "{name} simulated: jobs {} makespan_s {} mean_slowdown {:?} energy_kwh {:?}",
        res.outcomes.len(),
        res.makespan,
        res.mean_slowdown(),
        res.energy_kwh()
    ));
    if seed != spec::DEFAULT_SEED {
        return;
    }
    let same = res.outcomes.len() as u64 == pin.jobs
        && res.makespan == pin.makespan_s
        && res.mean_slowdown().to_bits() == pin.mean_slowdown.to_bits()
        && res.energy_kwh().to_bits() == pin.energy_kwh.to_bits();
    out.check(same, || {
        format!(
            "{name} at seed 42 left its pins: expected jobs {} makespan_s {} mean_slowdown {:?} energy_kwh {:?}",
            pin.jobs, pin.makespan_s, pin.mean_slowdown, pin.energy_kwh
        )
    });
    // The paper's sign: SD-Policy lowers mean slowdown on the big workload.
    let baseline = spec::pin("w4_static").mean_slowdown;
    out.check(name != "w4_sd" || res.mean_slowdown() < baseline, || {
        format!(
            "w4_sd mean slowdown {} is not below w4_static's {baseline}",
            res.mean_slowdown()
        )
    });
}

/// Every trace job is an attempted operation; one that did not complete
/// (left pending or running when events ran out) failed.
fn count_jobs(out: &mut Outcome, trace: &Trace, result: &SimResult) {
    out.attempted += trace.jobs.len() as u64;
    out.failed += (trace.jobs.len() - result.outcomes.len()) as u64;
}

fn pass_us(log: &PassLog, factor: f64) -> Vec<f64> {
    log.dur_ns
        .iter()
        .map(|&ns| f64::from(ns) / 1e3 * factor)
        .collect()
}

pub fn run(w: &spec::Workload, sc: &Scenario, sd: bool, ctx: &RunCtx) -> Outcome {
    let mut out = Outcome::new(Kernel::Compute);
    // Offline workloads have no set-up beyond generating the trace.
    let (trace, setup_s) = out.timed_setup(|| sc.trace(ctx.seed));
    out.metrics.insert("setup_s", setup_s);
    if ctx.traced {
        run_traced(w, sc, sd, ctx, &trace, &mut out);
    } else {
        run_plain(w, sc, sd, ctx, &trace, &mut out);
    }
    out
}

fn run_plain(
    w: &spec::Workload,
    sc: &Scenario,
    sd: bool,
    ctx: &RunCtx,
    trace: &Trace,
    out: &mut Outcome,
) {
    let started = Instant::now();
    let mut first: Option<SimResult> = None;
    let (mut rates, mut p50s, mut tails, mut raw_walls) = (vec![], vec![], vec![], vec![]);
    let mut before = out.calibrate();
    // Two reps at least: bit-identity needs a pair.
    while rates.len() < 2 || started.elapsed().as_secs_f64() < ctx.seconds {
        let rep = one_rep(sc, trace, sd, Mode::Plain);
        let after = out.calibrate();
        let f = out.kernel.factor(before, after);
        before = after;
        let jobs = rep.result.outcomes.len();
        count_jobs(out, trace, &rep.result);
        rates.push(jobs as f64 / (rep.wall_s * f));
        raw_walls.push(rep.wall_s);
        let (p50, tail) = stats::p50_and_p99(&pass_us(&rep.log, f));
        p50s.push(p50);
        tails.push(tail);
        out.check(
            stats::supports_tail(rep.log.dur_ns.len(), stats::TAIL_PCT),
            || {
                format!(
                    "only {} passes: p99 has fewer than ten samples beyond",
                    rep.log.dur_ns.len()
                )
            },
        );
        match &first {
            None => first = Some(rep.result),
            Some(f) => out.check(*f == rep.result, || {
                "offline reps are not bit-identical".into()
            }),
        }
    }
    let first = first.expect("at least two reps ran");
    check_result(w.name, &first, ctx.seed, out);
    out.notes.push(format!(
        "{} reps, raw wall_s {:?}, {} passes per rep",
        rates.len(),
        raw_walls,
        first.stats.sched_passes
    ));
    out.metrics.insert("ops_per_s", stats::median(&rates));
    out.metrics.insert("op_p50_us", stats::median(&p50s));
    out.metrics.insert("op_p99_us", stats::median(&tails));
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
}

/// Per-layer figures of one traced rep, times scaled by `f`.
fn layer_metrics(rep: &Rep, f: f64, sd: bool) -> Metrics {
    let mut m = Metrics::new();
    let st = &rep.result.stats;
    let pass_total_s: f64 = rep.log.dur_ns.iter().map(|&ns| f64::from(ns) / 1e9).sum();
    let mut us = pass_us(&rep.log, f);
    us.sort_by(f64::total_cmp);
    let probe = |name: &str| rep.timing.iter().find(|r| r.name == name).cloned();
    let trial = probe("backfill_trial").expect("backfill_trial probe exists");
    let estart = probe("earliest_start").expect("earliest_start probe exists");
    let starts = st.started_static + st.started_malleable;
    m.insert("slurm_sim.state_new_s", rep.new_s * f);
    m.insert("slurm_sim.run_s", rep.loop_s * f);
    m.insert("slurm_sim.pass_total_s", pass_total_s * f);
    m.insert("slurm_sim.pass_p50_us", stats::percentile_sorted(&us, 50.0));
    m.insert("slurm_sim.pass_p99_us", stats::percentile_sorted(&us, 99.0));
    m.insert("slurm_sim.pass_max_us", *us.last().expect("passes ran"));
    m.insert("slurm_sim.dispatch_s", (rep.loop_s - pass_total_s) * f);
    m.insert(
        "slurm_sim.ns_per_event",
        rep.loop_s * f * 1e9 / st.events_dispatched.max(1) as f64,
    );
    m.insert("slurm_sim.backfill_trial_s", trial.total_secs * f);
    m.insert("slurm_sim.earliest_start_s", estart.total_secs * f);
    m.insert("slurm_sim.events", st.events_dispatched as f64);
    m.insert("slurm_sim.pass_count", st.sched_passes as f64);
    m.insert("slurm_sim.passes_skipped", st.passes_skipped as f64);
    m.insert(
        "slurm_sim.pass_yield",
        rep.log.productive as f64 / st.sched_passes.max(1) as f64,
    );
    m.insert("slurm_sim.backfill_trial_calls", trial.count as f64);
    m.insert(
        "slurm_sim.trial_yield",
        starts as f64 / trial.count.max(1) as f64,
    );
    m.insert("slurm_sim.earliest_start_calls", estart.count as f64);
    m.insert("slurm_sim.peak_profile_len", st.peak_profile_len as f64);
    m.insert("slurm_sim.makespan_s", rep.result.makespan as f64);
    m.insert("slurm_sim.mean_slowdown", rep.result.mean_slowdown());
    m.insert("slurm_sim.energy_kwh", rep.result.energy_kwh());
    m.insert("sd_policy.malleable_started", st.started_malleable as f64);
    m.insert("sd_policy.unique_mates", st.unique_mates as f64);
    m.insert("sd_policy.relocations", st.relocations as f64);
    let p = &rep.log.probe;
    if sd && p.scans > 0 {
        let n = p.scans as f64;
        m.insert(
            "sd_policy.collect_candidates_us",
            p.collect_ns as f64 / 1e3 / n * f,
        );
        m.insert("sd_policy.pick_mates_us", p.pick_ns as f64 / 1e3 / n * f);
        m.insert("sd_policy.candidates_per_scan", p.candidates as f64 / n);
        m.insert("sd_policy.mate_pool_len", p.pool as f64 / n);
    }
    m
}

/// `run → state_new | controller_run → pass[i]`, slowest passes only.
fn record_spans(spans: &mut Spans, rep_start_ns: u64, rep: &Rep) {
    let ns = |s: f64| (s * 1e9) as u64;
    let run = spans.push("run", None, rep_start_ns, rep_start_ns + ns(rep.wall_s));
    spans.push(
        "state_new",
        Some(run),
        rep_start_ns,
        rep_start_ns + ns(rep.new_s),
    );
    let ctl = spans.push(
        "controller_run",
        Some(run),
        rep_start_ns + ns(rep.new_s),
        rep_start_ns + ns(rep.wall_s),
    );
    let mut order: Vec<usize> = (0..rep.log.dur_ns.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(rep.log.dur_ns[i]));
    order.truncate(SLOWEST_PASSES_KEPT);
    order.sort_unstable();
    for i in order {
        let s = rep_start_ns + rep.log.start_ns[i];
        spans.push("pass", Some(ctl), s, s + u64::from(rep.log.dur_ns[i]));
    }
}

fn run_traced(
    w: &spec::Workload,
    sc: &Scenario,
    sd: bool,
    ctx: &RunCtx,
    trace: &Trace,
    out: &mut Outcome,
) {
    let mut spans = Spans::new();
    let ring_armed = w.name == "w3_sd";
    let started = Instant::now();
    let mut first: Option<SimResult> = None;
    let (mut plain_s, mut traced_s, mut armed_s, mut layers) = (vec![], vec![], vec![], vec![]);
    let mut before = out.calibrate();
    // Plain and traced reps alternate, so a change of machine phase does
    // not land on one side only.
    while layers.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
        let mut modes = vec![Mode::Plain, Mode::Traced];
        if ring_armed {
            modes.push(Mode::RingArmed);
        }
        for mode in modes {
            let rep_start_ns = spans.now_ns();
            let rep = one_rep(sc, trace, sd, mode);
            let after = out.calibrate();
            let f = out.kernel.factor(before, after);
            before = after;
            count_jobs(out, trace, &rep.result);
            match mode {
                Mode::Plain => plain_s.push(rep.wall_s * f),
                Mode::RingArmed => armed_s.push(rep.wall_s * f),
                Mode::Traced => {
                    traced_s.push(rep.wall_s * f);
                    if layers.is_empty() {
                        record_spans(&mut spans, rep_start_ns, &rep);
                    }
                    out.check(sd || rep.log.probe.scans == 0, || {
                        "the mate-scan probe ran on a static workload".into()
                    });
                    layers.push(layer_metrics(&rep, f, sd));
                }
            }
            match &first {
                None => first = Some(rep.result),
                Some(f) => out.check(*f == rep.result, || {
                    "a traced or ring-armed rep diverged from the untraced result".into()
                }),
            }
        }
    }
    let first = first.expect("reps ran");
    check_result(w.name, &first, ctx.seed, out);
    out.metrics.extend(median_of_maps(&layers));
    let overhead = |with: &[f64]| (stats::median(with) / stats::median(&plain_s) - 1.0) * 100.0;
    out.metrics
        .insert("tracing.overhead_pct", overhead(&traced_s));
    if ring_armed {
        out.metrics
            .insert("trace.armed_overhead_pct", overhead(&armed_s));
    }

    // Layers only set-up and post-processing touch, replayed in isolation.
    let f = out.run_factor();
    crate::layers::workload_layers(sc, ctx.seed, trace, &first, f, &mut spans, out);
    out.notes.push(format!(
        "{} traced reps; calibrated wall_s plain {:?} traced {:?} ring-armed {:?}",
        layers.len(),
        plain_s,
        traced_s,
        armed_s
    ));
    out.spans = Some(spans);
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::PaperWorkload;

    #[test]
    fn traced_and_ring_armed_reps_equal_the_untraced_result() {
        // The sampled collect_candidates probe, the stats reads and the
        // timing probes are observers: the SimResult must not move.
        let sc = Scenario {
            workload: PaperWorkload::W3Ricc,
            scale: 0.05,
        };
        let trace = sc.trace(7);
        let plain = one_rep(&sc, &trace, true, Mode::Plain);
        let traced = one_rep(&sc, &trace, true, Mode::Traced);
        let armed = one_rep(&sc, &trace, true, Mode::RingArmed);
        assert!(traced.log.probe.scans > 0, "the probe ran");
        assert_eq!(
            traced.log.dur_ns.len() as u64,
            traced.result.stats.sched_passes
        );
        assert_eq!(traced.log.start_ns.len(), traced.log.dur_ns.len());
        assert_eq!(plain.result, traced.result);
        assert_eq!(plain.result, armed.result);
        let trial = traced
            .timing
            .iter()
            .find(|r| r.name == "backfill_trial")
            .unwrap();
        assert!(trial.count > 0, "timing probes were armed");
        // Static workloads never probe.
        let st = one_rep(&sc, &trace, false, Mode::Traced);
        assert_eq!(st.log.probe.scans, 0);
        assert_eq!(st.result.stats.started_malleable, 0);
    }

    #[test]
    fn span_tree_keeps_only_the_slowest_passes() {
        let sc = Scenario {
            workload: PaperWorkload::W3Ricc,
            scale: 0.05,
        };
        let rep = one_rep(&sc, &sc.trace(7), true, Mode::Traced);
        assert!(rep.log.dur_ns.len() > SLOWEST_PASSES_KEPT);
        let mut spans = Spans::new();
        record_spans(&mut spans, 0, &rep);
        let passes: Vec<_> = spans.all().iter().filter(|s| s.name == "pass").collect();
        assert_eq!(passes.len(), SLOWEST_PASSES_KEPT);
        let kept_min = passes.iter().map(|s| s.end_ns - s.start_ns).min().unwrap();
        let mut all: Vec<u32> = rep.log.dur_ns.clone();
        all.sort_unstable();
        assert_eq!(kept_min, u64::from(all[all.len() - SLOWEST_PASSES_KEPT]));
    }
}
