//! Wire formats for crash tolerance (DESIGN.md §14): the WAL record payload
//! (one state-mutating API command) and the engine-level checkpoint payload
//! (service counters + the canonical [`slurm_sim::SimState`] image).
//!
//! `sd-durable` owns framing, checksums and the recovery protocol; this
//! module owns what the framed bytes *mean* — the field order of each
//! payload, written and read through `sd_durable::codec`.

use crate::proto::SubmitRequest;
use sd_durable::codec::{Reader, Writer};

/// One durably logged command. Only deterministic state mutations are
/// logged: reads, and submissions refused by the (wall-clock) rate limiter,
/// never reach the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum WalCmd {
    Submit(SubmitRequest),
    Cancel(u64),
    Advance(u64),
    Drain,
}

const TAG_SUBMIT: u8 = 0;
const TAG_CANCEL: u8 = 1;
const TAG_ADVANCE: u8 = 2;
const TAG_DRAIN: u8 = 3;

impl WalCmd {
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        let mut w = Writer::new(&mut buf);
        match self {
            WalCmd::Submit(r) => {
                w.u8(TAG_SUBMIT);
                w.u64(r.procs);
                w.u64(r.req_time);
                w.u64(r.run_time);
                w.opt_u64(r.submit);
                match r.malleable {
                    None => w.u8(2),
                    Some(b) => w.bool(b),
                }
                w.opt_u64(r.trace_id);
                w.opt_u64(r.tenant);
                w.opt_u64(r.project);
            }
            WalCmd::Cancel(id) => {
                w.u8(TAG_CANCEL);
                w.u64(*id);
            }
            WalCmd::Advance(to) => {
                w.u8(TAG_ADVANCE);
                w.u64(*to);
            }
            WalCmd::Drain => w.u8(TAG_DRAIN),
        }
        buf
    }

    pub fn decode(bytes: &[u8]) -> Result<WalCmd, String> {
        let mut r = Reader::new(bytes);
        let cmd = match r.u8()? {
            TAG_SUBMIT => WalCmd::Submit(SubmitRequest {
                procs: r.u64()?,
                req_time: r.u64()?,
                run_time: r.u64()?,
                submit: r.opt_u64()?,
                malleable: match r.u8()? {
                    0 => Some(false),
                    1 => Some(true),
                    2 => None,
                    b => return Err(format!("bad malleable byte {b}")),
                },
                trace_id: r.opt_u64()?,
                tenant: r.opt_u64()?,
                project: r.opt_u64()?,
            }),
            TAG_CANCEL => WalCmd::Cancel(r.u64()?),
            TAG_ADVANCE => WalCmd::Advance(r.u64()?),
            TAG_DRAIN => WalCmd::Drain,
            t => return Err(format!("unknown WAL command tag {t}")),
        };
        r.finish()?;
        Ok(cmd)
    }
}

/// Engine-level state riding on top of the simulator image in a checkpoint:
/// the virtual-clock floor, the accepted-submission counter and the per-
/// tenant wire counters (`(tenant, submitted, rate_limited)` rows).
///
/// Deliberately *not* here: the wall-clock token buckets (rate limiting
/// restarts full — a crash must never carry over throttling debt) and the
/// trace ring (diagnostics, rebuilt empty).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct EngineCheckpoint {
    pub floor: u64,
    pub submitted: u64,
    pub tenant_wire: Vec<(u64, u64, u64)>,
    pub state: Vec<u8>,
}

const MAGIC: u32 = 0x5344_4543; // "SDEC"
const VERSION: u32 = 1;

impl EngineCheckpoint {
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.state.len());
        let mut w = Writer::new(&mut buf);
        w.u32(MAGIC);
        w.u32(VERSION);
        w.u64(self.floor);
        w.u64(self.submitted);
        w.len(self.tenant_wire.len());
        for &(t, s, r) in &self.tenant_wire {
            w.u64(t);
            w.u64(s);
            w.u64(r);
        }
        w.len(self.state.len());
        w.bytes(&self.state);
        buf
    }

    pub fn decode(bytes: &[u8]) -> Result<EngineCheckpoint, String> {
        let mut r = Reader::new(bytes);
        if (r.u32()?, r.u32()?) != (MAGIC, VERSION) {
            return Err("not an engine checkpoint (bad magic/version)".into());
        }
        let floor = r.u64()?;
        let submitted = r.u64()?;
        let rows = r.len(24)?;
        let mut tenant_wire = Vec::with_capacity(rows);
        for _ in 0..rows {
            tenant_wire.push((r.u64()?, r.u64()?, r.u64()?));
        }
        let n = r.len(1)?;
        let state = r.take(n)?.to_vec();
        r.finish()?;
        Ok(EngineCheckpoint { floor, submitted, tenant_wire, state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit() -> SubmitRequest {
        SubmitRequest {
            procs: 64,
            req_time: 3600,
            run_time: 1800,
            submit: Some(42),
            malleable: None,
            trace_id: Some(7),
            tenant: Some(3),
            project: None,
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn wal_commands_round_trip() {
        let cmds = [
            WalCmd::Submit(submit()),
            WalCmd::Submit(SubmitRequest {
                submit: None,
                malleable: Some(true),
                ..submit()
            }),
            WalCmd::Cancel(9),
            WalCmd::Advance(1_000_000),
            WalCmd::Drain,
        ];
        for cmd in cmds {
            let bytes = cmd.encode();
            assert_eq!(WalCmd::decode(&bytes).unwrap(), cmd);
        }
        // The bytes `6f73e6f` wrote for each command.
        let all_some = SubmitRequest { malleable: Some(true), project: Some(9), ..submit() };
        let all_none = SubmitRequest {
            submit: None,
            trace_id: None,
            tenant: None,
            ..submit()
        };
        for (cmd, golden) in [
            (
                WalCmd::Submit(all_some),
                "00 4000000000000000 100e000000000000 0807000000000000 012a00000000000000 01 \
                 010700000000000000 010300000000000000 010900000000000000",
            ),
            (
                WalCmd::Submit(all_none),
                "00 4000000000000000 100e000000000000 0807000000000000 00 02 00 00 00",
            ),
            (WalCmd::Cancel(9), "01 0900000000000000"),
            (WalCmd::Advance(1_000_000), "02 40420f0000000000"),
            (WalCmd::Drain, "03"),
        ] {
            assert_eq!(hex(&cmd.encode()), golden.replace(' ', ""), "{cmd:?}");
        }
    }

    #[test]
    fn wal_decode_rejects_garbage() {
        assert!(WalCmd::decode(&[]).is_err());
        assert!(WalCmd::decode(&[99]).is_err());
        // Truncated submit.
        let bytes = WalCmd::Submit(submit()).encode();
        for cut in 0..bytes.len() {
            assert!(WalCmd::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut long = WalCmd::Drain.encode();
        long.push(0);
        assert!(WalCmd::decode(&long).is_err());
    }

    #[test]
    fn engine_checkpoint_round_trips() {
        let cp = EngineCheckpoint {
            floor: 500,
            submitted: 12,
            tenant_wire: vec![(0, 4, 0), (3, 8, 2)],
            state: vec![1, 2, 3, 4, 5],
        };
        let bytes = cp.encode();
        assert_eq!(EngineCheckpoint::decode(&bytes).unwrap(), cp);
        // The bytes `6f73e6f` wrote for this checkpoint.
        assert_eq!(
            hex(&bytes),
            "43454453 01000000 f401000000000000 0c00000000000000 0200000000000000 \
             0000000000000000 0400000000000000 0000000000000000 \
             0300000000000000 0800000000000000 0200000000000000 \
             0500000000000000 0102030405"
                .replace(' ', "")
        );
        assert!(EngineCheckpoint::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(EngineCheckpoint::decode(b"junk").is_err());
    }
}
