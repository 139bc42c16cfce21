//! Every log record an engine emits carries that engine's virtual instant at
//! the moment it is emitted — not another engine's, and not the instant of
//! the engine's previous call. Two engines run on two threads in lockstep at
//! disjoint virtual instants (one below 1 000 s, one from 1 000 s on), and
//! every record they leave in the process-wide ring is checked against the
//! instant its own fields name.
//!
//! Its own test binary: the ring and its level are process-wide, and this
//! test turns debug records on.

use drom::SharingFactor;
use sd_durable::FsyncPolicy;
use sd_obs::LogRecord;
use sd_policy::SdPolicy;
use sd_serve::engine::{ClockMode, Engine};
use sd_serve::proto::SubmitRequest;
use slurm_sim::{IdealModel, SimState, SlurmConfig};
use std::sync::{Arc, Barrier};

const STEPS: u64 = 40;

fn spec() -> cluster::ClusterSpec {
    let mut spec = cluster::ClusterSpec::ricc();
    spec.nodes = 8;
    spec
}

/// A one-node job of tenant `tenant`, submitted at the engine's clock.
fn job(tenant: u64) -> SubmitRequest {
    SubmitRequest {
        procs: 8,
        req_time: 40,
        run_time: 20,
        submit: None,
        malleable: None,
        trace_id: None,
        tenant: Some(tenant),
        project: None,
    }
}

/// Each step: wait for the other engine, advance to `instant(step)`, submit
/// one job there. Returns the instants advanced to.
fn drive(mut e: Engine, tenant: u64, instant: impl Fn(u64) -> u64, lockstep: &Barrier) -> Vec<u64> {
    let instants: Vec<u64> = (1..=STEPS).map(instant).collect();
    for &to in &instants {
        lockstep.wait();
        assert_eq!(e.advance(to).unwrap(), to);
        e.submit(job(tenant)).unwrap();
    }
    instants
}

fn field<'r>(r: &'r LogRecord, key: &str) -> Option<&'r str> {
    r.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn number(r: &LogRecord, key: &str) -> u64 {
    field(r, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("record {r:?} has no numeric `{key}`"))
}

#[test]
fn each_engine_stamps_its_own_records_with_its_own_instant() {
    sd_obs::set_ring_level(sd_obs::Level::Debug);
    sd_obs::set_stderr_level(sd_obs::Level::Error);
    let dir = std::env::temp_dir().join(format!("sd-serve-log-clock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let machine = || (spec(), SlurmConfig::default(), Box::new(IdealModel), SharingFactor::HALF);

    // Engine A logs to a WAL (its `wal` records are stamped too) and runs
    // from 1 000 s on; engine B is in memory and stays below 1 000 s.
    let (s, cfg, model, sharing) = machine();
    let scheduler = Box::new(SdPolicy::default());
    let (a, _) = Engine::recover(&dir, FsyncPolicy::Never, 4, s, cfg, model, sharing, scheduler).unwrap();
    let (s, cfg, model, sharing) = machine();
    let b = Engine::new(SimState::new_online(s, cfg, model, sharing), Box::new(SdPolicy::default()), ClockMode::Virtual);

    let head = sd_obs::ring_head();
    let lockstep = Arc::new(Barrier::new(2));
    let other = Arc::clone(&lockstep);
    let on_b = std::thread::spawn(move || drive(b, 2, |k| 7 * k, &other));
    let a_instants = drive(a, 1, |k| 1_000 + 10 * k, &lockstep);
    let b_instants = on_b.join().unwrap();

    let tail = sd_obs::read_since(head, 1 << 14);
    assert_eq!(tail.dropped, 0);
    let (mut advanced, mut accepted, mut checkpoints) = (0, 0, 0);
    for r in &tail.records {
        match (r.target.as_str(), r.message.as_str()) {
            ("engine", "clock advanced") => {
                advanced += 1;
                assert_eq!(r.virt_secs, number(r, "to"), "an advance is stamped with where it went: {r:?}");
            }
            ("engine", "submit accepted") => {
                accepted += 1;
                // Each engine's `k`-th job is submitted right after its
                // `k`-th advance.
                let own = if number(r, "tenant") == 1 { &a_instants } else { &b_instants };
                let step = number(r, "id") as usize - 1;
                assert_eq!(r.virt_secs, own[step], "a submit is stamped with its own engine's clock: {r:?}");
            }
            ("wal", "checkpoint installed") => {
                checkpoints += 1;
                assert!(a_instants.contains(&r.virt_secs), "only engine A has a WAL: {r:?}");
            }
            _ => {}
        }
    }
    assert_eq!((advanced, accepted), (2 * STEPS, 2 * STEPS), "every record was found");
    assert!(checkpoints >= STEPS / 2, "engine A installed a checkpoint every 4 records");
    std::fs::remove_dir_all(&dir).unwrap();
}
