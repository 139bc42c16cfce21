//! The store's failure rule, proven over every call of a scripted session:
//! for each fault kind, injected at each storage call index (once, or from
//! that call on), every append that returned `Ok` is recovered, in order,
//! and none that returned `Err` is — save, when the fault persists, the one
//! record whose cut-back also failed, whose outcome is documented as unknown.
//! Opening the store never panics, faulted or not.

mod fault;

use fault::{Faulty, FAULTS};
use sd_durable::{DurableStore, FsyncPolicy};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The session: `true` appends the next command, `false` checkpoints. It
/// ends in appends, as a crash does: no checkpoint wipes their log.
const SCRIPT: [bool; 10] = [true, true, true, false, true, true, false, true, true, true];

/// What one command's record holds: its number, repeated so that a short
/// write tears it.
fn payload(cmd: u8) -> Vec<u8> {
    vec![cmd; 6]
}

fn tmp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "sd-storage-faults-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// What a session did: the commands acknowledged and refused, in order.
#[derive(Debug, Default)]
struct Outcome {
    acked: Vec<u8>,
    refused: Vec<u8>,
}

/// Runs [`SCRIPT`] over `storage` as the engine does: a refused append
/// consumes no seq, and a checkpoint's payload is the acknowledged commands.
fn session(storage: Faulty, policy: FsyncPolicy) -> Outcome {
    let mut out = Outcome::default();
    let Ok((mut store, rec)) = DurableStore::open_with(Box::new(storage), policy) else {
        return out;
    };
    assert!(rec.is_fresh());
    let mut next_seq = rec.next_seq;
    for (cmd, &append) in (1u8..).zip(&SCRIPT) {
        if !append {
            let _ = store.install_checkpoint(next_seq - 1, &out.acked);
        } else if store.append(next_seq, &payload(cmd)).is_ok() {
            out.acked.push(cmd);
            next_seq += 1;
        } else {
            out.refused.push(cmd);
        }
    }
    out
}

/// The commands the directory recovers: the checkpoint's, then the log's.
fn recovered(dir: &Path) -> Vec<u8> {
    let (_store, rec) = DurableStore::open(dir, FsyncPolicy::Never).expect("a faulted session leaves a store that opens");
    let mut cmds = rec.checkpoint.unwrap_or_default();
    for r in rec.records {
        assert_eq!(r.payload.len(), 6, "seq {}: a torn record was replayed", r.seq);
        cmds.push(r.payload[0]);
    }
    cmds
}

#[test]
fn every_acked_append_survives_every_storage_fault() {
    for policy in [FsyncPolicy::Never, FsyncPolicy::Checkpoint, FsyncPolicy::Always] {
        let dir = tmp_dir();
        let counting = Faulty::counting(&dir);
        let calls = counting.calls();
        let clean = session(counting, policy);
        assert_eq!(recovered(&dir), clean.acked, "{policy:?}: no fault");
        std::fs::remove_dir_all(&dir).unwrap();
        let calls = calls.load(Ordering::Relaxed);
        for fault in FAULTS {
            let mut refused = 0;
            for from_on in [false, true] {
                for at in 0..calls {
                    let case = format!("{policy:?} {fault:?} at call {at}{}", if from_on { " on" } else { "" });
                    let dir = tmp_dir();
                    let out = session(Faulty::new(&dir, fault, at, from_on), policy);
                    let got = recovered(&dir);
                    let mut with_unknown = out.acked.clone();
                    with_unknown.extend(out.refused.first());
                    let unknown_allowed = from_on && got == with_unknown;
                    assert!(got == out.acked || unknown_allowed, "{case}: recovered {got:?}, {out:?}");
                    refused += out.refused.len();
                    std::fs::remove_dir_all(&dir).unwrap();
                }
            }
            assert!(refused > 0, "{policy:?} {fault:?} never refused an append");
        }
    }
}
