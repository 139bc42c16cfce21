//! End-to-end SWF replay over a checked-in fixture: parse → clean →
//! simulate with both schedulers. This is the offline stand-in for the
//! ROADMAP's "real trace replay untested end-to-end" item — the code path
//! is identical to feeding a genuine archive file through a `source = swf`
//! scenario (`scenarios/swf-replay.scn`).

use sd_sched::prelude::*;
use sd_sched::slurm_sim::replay::{infer_cluster, replay_state};

fn fixture() -> (swf::Trace, usize) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tiny.swf");
    swf::parse_file(&path).expect("fixture parses")
}

#[test]
fn fixture_parses_with_expected_shape() {
    let (trace, skipped) = fixture();
    assert_eq!(skipped, 0, "every fixture line is well-formed");
    assert_eq!(trace.len(), 26);
    assert_eq!(trace.header.max_nodes(), Some(16));
    assert_eq!(trace.header.max_procs(), Some(128));
    let spec = infer_cluster(&trace);
    assert_eq!(spec.nodes, 16);
    assert_eq!(spec.node.cores(), 8);
}

#[test]
fn replay_cleans_then_completes_every_job() {
    let (trace, _) = fixture();
    let spec = infer_cluster(&trace);
    let (state, kept) = replay_state(
        trace,
        spec,
        SlurmConfig::default(),
        Box::new(IdealModel),
        SharingFactor::HALF,
    );
    // 26 records − 1 zero-runtime − 1 minority-partition = 24 simulatable.
    assert_eq!(kept, 24);
    let res = Controller::new(state, StaticBackfill).run();
    assert_eq!(res.outcomes.len(), 24);
    assert_eq!(res.leftover_pending, 0);
    assert_eq!(res.leftover_running, 0);
    assert!(res.makespan > 0);
    // The 256-proc record was clamped to the 128-core machine, not dropped.
    assert!(res.outcomes.iter().all(|o| o.procs <= 128));
}

#[test]
fn replay_is_deterministic_and_sd_policy_runs_it_too() {
    let (trace, _) = fixture();
    let spec = infer_cluster(&trace);
    let run = |sd: bool| {
        let (state, _) = replay_state(
            trace.clone(),
            spec.clone(),
            SlurmConfig::default(),
            Box::new(IdealModel),
            SharingFactor::HALF,
        );
        if sd {
            Controller::new(state, SdPolicy::default()).run()
        } else {
            Controller::new(state, StaticBackfill).run()
        }
    };
    let a = run(false);
    let b = run(false);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.energy_joules, b.energy_joules);

    let sd = run(true);
    assert_eq!(sd.outcomes.len(), 24, "SD-Policy also completes the fixture");
    assert_eq!(sd.leftover_pending, 0);
}

#[test]
fn scenario_engine_replays_the_fixture_via_swf_source() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tiny.swf");
    let mut s = Scenario::new("fixture-replay", SourceKind::Swf);
    s.workload.path = Some(path.to_string_lossy().into_owned());
    let points = expand(&s);
    assert_eq!(points.len(), 1);
    let out = execute(&points[0]).expect("fixture replay runs");
    assert_eq!(out.result.outcomes.len(), 24);
    assert_eq!(out.result.leftover_pending, 0);
}
