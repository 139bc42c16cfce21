//! Directory-level store: one checkpoint + one WAL, the recovery protocol
//! that ties them together, and the one rule for a failed write.
//!
//! Layout: `<dir>/checkpoint.bin` + `<dir>/wal.log`. Every byte goes through
//! one [`Storage`]; [`DurableStore::open`] uses the real [`FsStorage`].
//!
//! Invariants the protocol maintains:
//!
//! 1. Every state-mutating command is appended (with its global seq) to the
//!    WAL *before* it is applied — single-writer ordering makes the log a
//!    total order of effects.
//! 2. A checkpoint records `applied_seq`, the seq of the last record its
//!    payload already reflects. Recovery skips the prefix with
//!    `seq ≤ applied_seq` and replays the rest, which must run
//!    `applied_seq + 1, + 2, …` with no gap; so crashing between checkpoint
//!    install and WAL truncation never double-applies, and a log that does
//!    not follow its checkpoint is refused, never half-replayed.
//! 3. An append that returns `Err` leaves the log as it was: the store cuts
//!    it back to its last good length, so no torn or unacknowledged frame
//!    precedes the next one. If that cut fails too, the log's length is
//!    unknown: every later append and checkpoint is refused until a restart,
//!    and the record whose cut failed may then be recovered or not. (A
//!    checkpoint must not land after it: that record would replay on top of
//!    state applied after it was refused.)
//! 4. The log is truncated only after a new checkpoint is installed, so a
//!    failed checkpoint loses nothing: the old image plus the full log
//!    still recover every acknowledged record.

use crate::checkpoint::{self, CHECKPOINT_FILE};
use crate::storage::{FsStorage, Storage};
use crate::wal::{encode_frame, scan_bytes, ScanOutcome, WalRecord, MAX_RECORD_LEN};
use std::fmt::Display;
use std::io;
use std::path::Path;
use std::time::Instant;

pub const WAL_FILE: &str = "wal.log";

/// When appended records are flushed to stable storage.
///
/// Surviving `kill -9` (process death, OS survives) needs no fsync at all —
/// written pages live in the page cache. The knob only matters for power
/// loss / kernel panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every append (power-loss durable per record, slowest).
    Always,
    /// fsync only when installing a checkpoint (default: the durability
    /// boundary is the last checkpoint; tail records may be lost on power
    /// failure but never on process death).
    #[default]
    Checkpoint,
    /// never fsync (benchmarks and tests).
    Never,
}

impl FsyncPolicy {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "checkpoint" => Some(FsyncPolicy::Checkpoint),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Checkpoint => "checkpoint",
            FsyncPolicy::Never => "never",
        }
    }
}

/// What recovery found in the directory.
#[derive(Debug)]
pub struct Recovery {
    /// Checkpoint payload, when a checkpoint exists.
    pub checkpoint: Option<Vec<u8>>,
    /// WAL records to replay, in order: the checkpoint's `applied_seq + 1, + 2, …`.
    pub records: Vec<WalRecord>,
    /// True when a torn/corrupt WAL tail was discarded.
    pub torn_tail: bool,
    /// First unused sequence number (resume the writer from here).
    pub next_seq: u64,
}

impl Recovery {
    /// Anything to restore at all? False for a fresh directory.
    pub fn is_fresh(&self) -> bool {
        self.checkpoint.is_none() && self.records.is_empty()
    }
}

/// Open store, positioned to append.
pub struct DurableStore {
    storage: Box<dyn Storage>,
    policy: FsyncPolicy,
    /// Frame buffer, reused so an append is one `Storage::append`.
    buf: Vec<u8>,
    /// Bytes of whole, acknowledged frames in the log; `None` once a failed
    /// append could not be cut back, which refuses every later write.
    len: Option<u64>,
    records_written: u64,
    checkpoints_written: u64,
    /// When the current WAL segment (records since the last checkpoint)
    /// started accumulating; `None` while the segment is empty. Feeds the
    /// `sd_serve_wal_segment_age_seconds` gauge — the signal the ROADMAP's
    /// still-open compaction policy needs.
    segment_started: Option<Instant>,
}

/// An error that names the file it is about.
fn in_file(file: &str, e: impl Display) -> io::Error {
    io::Error::other(format!("{file}: {e}"))
}

impl DurableStore {
    /// Open (or create) the store at `dir` on the real file system,
    /// recovering whatever is there.
    pub fn open(dir: &Path, policy: FsyncPolicy) -> io::Result<(DurableStore, Recovery)> {
        DurableStore::open_with(Box::new(FsStorage::open(dir)?), policy)
    }

    /// Open the store held by `storage`, recovering whatever is there. The
    /// WAL is cut to its longest valid prefix so later appends never follow
    /// garbage. A checkpoint that does not read or decode, or a log whose
    /// records do not follow it, is an error: replaying past either would
    /// rebuild a state that never existed.
    pub fn open_with(mut storage: Box<dyn Storage>, policy: FsyncPolicy) -> io::Result<(DurableStore, Recovery)> {
        let image = storage.read(CHECKPOINT_FILE).map_err(|e| in_file(CHECKPOINT_FILE, e))?;
        let decode = |image: Vec<u8>| checkpoint::decode(&image).ok_or_else(|| in_file(CHECKPOINT_FILE, "corrupt image"));
        let checkpoint = image.map(decode).transpose()?;
        let applied_seq = checkpoint.as_ref().map_or(0, |c| c.applied_seq);
        let log = storage.read(WAL_FILE).map_err(|e| in_file(WAL_FILE, e))?;
        let ScanOutcome { mut records, valid_bytes, torn_tail } = scan_bytes(&log.unwrap_or_default());
        let stale = records.iter().take_while(|r| r.seq <= applied_seq).count();
        records.drain(..stale);
        if let Some((want, r)) = (applied_seq + 1..).zip(&records).find(|(want, r)| r.seq != *want) {
            let e = format_args!("record seq {} where seq {want} belongs (checkpoint covers seq {applied_seq})", r.seq);
            return Err(in_file(WAL_FILE, e));
        }
        storage.truncate(valid_bytes)?;
        let next_seq = applied_seq + records.len() as u64 + 1;
        let recovery = Recovery { checkpoint: checkpoint.map(|c| c.payload), records, torn_tail, next_seq };
        let segment_started = (valid_bytes > 0).then(Instant::now);
        let (buf, len) = (Vec::with_capacity(256), Some(valid_bytes));
        let store = DurableStore { storage, policy, buf, len, records_written: 0, checkpoints_written: 0, segment_started };
        Ok((store, recovery))
    }

    /// Append one record; call *before* applying its effect. On `Err` the
    /// log is as it was before the call (see the module docs). A payload
    /// longer than the scan accepts is refused before anything is written:
    /// acked, it would cut the log at recovery and lose every later record.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> io::Result<()> {
        let len = self.log_len()?;
        if payload.len() > MAX_RECORD_LEN as usize {
            let e = format!("record of {} bytes exceeds the {MAX_RECORD_LEN}-byte limit", payload.len());
            return Err(io::Error::new(io::ErrorKind::InvalidInput, e));
        }
        self.buf.clear();
        encode_frame(&mut self.buf, seq, payload);
        let written = self.storage.append(&self.buf).and_then(|()| match self.policy {
            FsyncPolicy::Always => self.storage.sync(),
            _ => Ok(()),
        });
        if let Err(e) = written {
            self.len = self.storage.truncate(len).ok().map(|()| len);
            return Err(e);
        }
        self.len = Some(len + self.buf.len() as u64);
        self.records_written += 1;
        self.segment_started.get_or_insert_with(Instant::now);
        Ok(())
    }

    /// Install a checkpoint capturing all effects up to `applied_seq`, then
    /// truncate the WAL. Crash-safe at every step, and on `Err` the old
    /// checkpoint or the new one still recovers everything with the log.
    /// Checkpoints are rare, so the install is fsync-protected whatever the
    /// (per-append) policy.
    pub fn install_checkpoint(&mut self, applied_seq: u64, payload: &[u8]) -> io::Result<()> {
        self.log_len()?;
        self.storage.replace(CHECKPOINT_FILE, &checkpoint::encode(applied_seq, payload))?;
        self.storage.truncate(0)?;
        self.len = Some(0);
        self.segment_started = None;
        if self.policy != FsyncPolicy::Never {
            self.storage.sync()?;
        }
        self.checkpoints_written += 1;
        Ok(())
    }

    /// The log's length, or the refusal of a store whose length is unknown.
    fn log_len(&self) -> io::Result<u64> {
        self.len
            .ok_or_else(|| io::Error::other("a failed append could not be cut back; restart to recover the log"))
    }

    pub fn wal_records_written(&self) -> u64 {
        self.records_written
    }

    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// Current on-disk WAL size in bytes (zero right after a checkpoint).
    pub fn wal_bytes(&self) -> u64 {
        self.len.unwrap_or_default()
    }

    /// Age of the oldest un-checkpointed WAL record in seconds (0.0 when
    /// the segment is empty).
    pub fn wal_segment_age_seconds(&self) -> f64 {
        self.segment_started
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "sd-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Installs a checkpoint image without touching the log.
    fn install_image(dir: &Path, applied_seq: u64, payload: &[u8]) {
        let image = checkpoint::encode(applied_seq, payload);
        FsStorage::open(dir).unwrap().replace(CHECKPOINT_FILE, &image).unwrap();
    }

    fn open_err(dir: &Path) -> String {
        DurableStore::open(dir, FsyncPolicy::Never).err().expect("open must refuse").to_string()
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = tmp_dir("fresh");
        let (_store, rec) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(rec.is_fresh());
        assert_eq!(rec.next_seq, 1);
        assert!(!rec.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = tmp_dir("replay");
        {
            let (mut store, rec) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
            assert!(rec.is_fresh());
            store.append(1, b"one").unwrap();
            store.append(2, b"two").unwrap();
            store.append(3, b"three").unwrap();
        } // dropped without checkpoint ≈ crash
        let (_store, rec) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(rec.checkpoint.is_none());
        let seqs: Vec<u64> = rec.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(rec.next_seq, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_and_bounds_replay() {
        let dir = tmp_dir("ckpt");
        {
            let (mut store, _) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
            assert_eq!(store.wal_bytes(), 0);
            assert_eq!(store.wal_segment_age_seconds(), 0.0, "empty segment");
            store.append(1, b"one").unwrap();
            store.append(2, b"two").unwrap();
            assert!(store.wal_bytes() > 0, "appends grow the log");
            assert!(store.wal_segment_age_seconds() >= 0.0);
            store.install_checkpoint(2, b"state@2").unwrap();
            assert_eq!(store.wal_bytes(), 0, "checkpoint collapses the log");
            assert_eq!(store.wal_segment_age_seconds(), 0.0);
            store.append(3, b"three").unwrap();
            assert_eq!(
                store.wal_bytes(),
                (crate::wal::FRAME_HEADER + 5) as u64,
                "one frame: header + payload"
            );
        }
        let (_store, rec) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(rec.checkpoint.as_deref(), Some(b"state@2".as_slice()));
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].seq, 3);
        assert_eq!(rec.next_seq, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The crash window between checkpoint install and WAL truncation:
    /// records the checkpoint already covers must be skipped, not replayed.
    #[test]
    fn stale_wal_records_are_skipped_after_checkpoint() {
        let dir = tmp_dir("stale");
        {
            let (mut store, _) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
            store.append(1, b"one").unwrap();
            store.append(2, b"two").unwrap();
        }
        // Simulate "checkpoint installed, truncate never happened".
        install_image(&dir, 2, b"state@2");
        let (_store, rec) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(rec.checkpoint.as_deref(), Some(b"state@2".as_slice()));
        assert!(rec.records.is_empty(), "covered records must not replay");
        assert_eq!(rec.next_seq, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Once a checkpoint truncated the log, the image is the only copy of
    /// the early records: one that does not decode must refuse the open, not
    /// recover the later records onto an empty state.
    #[test]
    fn a_corrupt_checkpoint_is_refused_not_treated_as_absent() {
        let dir = tmp_dir("badckpt");
        {
            let (mut store, _) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
            store.append(1, b"one").unwrap();
            store.append(2, b"two").unwrap();
            store.install_checkpoint(2, b"state@2").unwrap();
            store.append(3, b"three").unwrap();
        }
        let path = dir.join(CHECKPOINT_FILE);
        let mut image = std::fs::read(&path).unwrap();
        image[20] ^= 0x01;
        std::fs::write(&path, &image).unwrap();
        let err = open_err(&dir);
        assert!(err.contains(CHECKPOINT_FILE), "{err}");
        // A checkpoint that cannot be read at all is refused the same way.
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        assert!(open_err(&dir).contains(CHECKPOINT_FILE));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The records after the skipped prefix must run `applied_seq + 1, + 2, …`.
    #[test]
    fn a_log_that_does_not_follow_its_checkpoint_is_refused() {
        let dir = tmp_dir("gap");
        let log = |seqs: &[u64]| {
            let mut image = Vec::new();
            for &seq in seqs {
                encode_frame(&mut image, seq, b"cmd");
            }
            std::fs::write(dir.join(WAL_FILE), image).unwrap();
        };
        std::fs::create_dir_all(&dir).unwrap();
        // No checkpoint: the log must start at seq 1.
        log(&[3]);
        let err = open_err(&dir);
        assert!(err.contains(WAL_FILE) && err.contains("seq 3 where seq 1 belongs"), "{err}");
        // A hole after the checkpoint's stale prefix.
        install_image(&dir, 2, b"state@2");
        log(&[1, 2, 3, 5]);
        assert!(open_err(&dir).contains("seq 5 where seq 4 belongs"));
        // Stale prefix, then the next seqs in order: recovers.
        log(&[1, 2, 3, 4]);
        let (_store, rec) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        let seqs: Vec<u64> = rec.records.iter().map(|r| r.seq).collect();
        assert_eq!((seqs, rec.next_seq), (vec![3, 4], 5));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The scan stops at a frame longer than `MAX_RECORD_LEN`, so acking
    /// one would lose it and every record after it at the next open.
    #[test]
    fn an_oversize_record_is_refused_not_acked() {
        let dir = tmp_dir("oversize");
        {
            let (mut store, _) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
            store.append(1, b"one").unwrap();
            let bytes = store.wal_bytes();
            let oversize = vec![0u8; MAX_RECORD_LEN as usize + 1];
            let err = store.append(2, &oversize).expect_err("an oversize record must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert_eq!((store.wal_bytes(), store.wal_records_written()), (bytes, 1), "nothing written");
            store.append(2, b"two").unwrap();
        }
        let (_store, rec) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        let payloads: Vec<&[u8]> = rec.records.iter().map(|r| r.payload.as_slice()).collect();
        assert_eq!(payloads, [b"one".as_slice(), b"two"]);
        assert!(!rec.torn_tail);
        assert_eq!(rec.next_seq, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_and_flagged() {
        let dir = tmp_dir("torn");
        {
            let (mut store, _) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
            store.append(1, b"good").unwrap();
        }
        // Torn append: half a frame of garbage at the tail.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]).unwrap();
        drop(f);
        let (mut store, rec) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.records.len(), 1);
        // New appends land after the valid prefix and scan clean.
        store.append(2, b"after").unwrap();
        drop(store);
        let (_s, rec2) = DurableStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(!rec2.torn_tail);
        assert_eq!(rec2.records.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
