//! Decision tracing must not perturb the simulation, and the stream itself
//! must be reproducible: running the same workload twice with tracing armed
//! yields byte-identical virtual-time renderings (DESIGN.md §12). Wall
//! clock readings are confined to the `wall_ns` field that
//! [`render_virtual`] deliberately omits.

use sd_sched::prelude::*;
use sd_sched::sd_scenario::{execute, execute_traced, find_builtin};
use sd_sched::slurm_sim::{render_virtual, TraceEvent, TraceRing};
use std::sync::Arc;

/// Runs one traced simulation and returns (result, events).
fn traced_run(w: PaperWorkload, seed: u64, sd: bool) -> (SimResult, Vec<TraceEvent>) {
    let scale = 0.02;
    let trace = w.generate(seed, scale);
    let ring = Arc::new(TraceRing::new(1 << 20));
    let mut state = SimState::new(
        w.cluster(scale),
        SlurmConfig::default(),
        &trace,
        Box::new(IdealModel),
        SharingFactor::HALF,
    );
    state.attach_trace(ring.clone());
    let res = if sd {
        Controller::new(state, SdPolicy::default()).run()
    } else {
        Controller::new(state, StaticBackfill).run()
    };
    assert_eq!(ring.overwritten(), 0, "ring sized for the whole run");
    (res, ring.snapshot())
}

fn assert_deterministic(w: PaperWorkload, seed: u64, sd: bool) {
    let (res_a, ev_a) = traced_run(w, seed, sd);
    let (res_b, ev_b) = traced_run(w, seed, sd);
    assert_eq!(res_a, res_b, "{w:?} sd={sd}: results diverged");
    let virt_a = render_virtual(&ev_a);
    let virt_b = render_virtual(&ev_b);
    assert!(!virt_a.is_empty(), "traced run produced events");
    assert_eq!(virt_a, virt_b, "{w:?} sd={sd}: virtual-time streams diverged");
    // Sequence numbers are dense from 0 — nothing was lost or reordered.
    for (i, ev) in ev_a.iter().enumerate() {
        assert_eq!(ev.seq, i as u64);
    }
}

#[test]
fn virtual_stream_is_identical_across_runs() {
    assert_deterministic(PaperWorkload::W3Ricc, 42, true);
    assert_deterministic(PaperWorkload::W3Ricc, 42, false);
}

#[test]
fn virtual_stream_is_seed_sensitive() {
    let (_, ev_a) = traced_run(PaperWorkload::W3Ricc, 1, true);
    let (_, ev_b) = traced_run(PaperWorkload::W3Ricc, 2, true);
    assert_ne!(
        render_virtual(&ev_a),
        render_virtual(&ev_b),
        "different seeds produce different decision streams"
    );
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // The traced result equals the untraced result bit-for-bit: emission is
    // observation only, and a dormant sink costs nothing behaviourally.
    let w = PaperWorkload::W3Ricc;
    let trace = w.generate(42, 0.02);
    let bare = run_trace(
        w.cluster(0.02),
        SlurmConfig::default(),
        &trace,
        Box::new(IdealModel),
        SharingFactor::HALF,
        SdPolicy::default(),
    );
    let (traced, events) = traced_run(w, 42, true);
    assert_eq!(bare, traced, "attaching a trace ring changed the simulation");
    assert!(events.len() > bare.outcomes.len(), "at least one event per job");
}

#[test]
fn scenario_execute_traced_matches_execute() {
    let s = find_builtin("bursty").expect("bursty is a built-in scenario");
    let mut points = sd_sched::sd_scenario::expand(&s);
    points.truncate(1);
    let plain = execute(&points[0]).expect("bursty runs");
    let ring = Arc::new(TraceRing::new(1 << 20));
    let traced = execute_traced(&points[0], ring.clone()).expect("bursty runs traced");
    assert_eq!(plain.result, traced.result);
    let again = Arc::new(TraceRing::new(1 << 20));
    execute_traced(&points[0], again.clone()).expect("bursty runs traced again");
    assert_eq!(
        render_virtual(&ring.snapshot()),
        render_virtual(&again.snapshot()),
        "scenario-level traced runs are reproducible"
    );
}
