//! The write-ahead log: length-prefixed, checksummed frames.
//!
//! On-disk grammar (all integers little-endian):
//!
//! ```text
//! wal     := frame*
//! frame   := len:u32  crc:u32  seq:u64  payload:[u8; len]
//! crc     := CRC-32(seq_bytes ++ payload)
//! ```
//!
//! `seq` is a global monotone sequence number assigned by the single writer;
//! it ties the log to the checkpoint (recovery skips frames whose `seq` is
//! already covered by the checkpoint's `applied_seq`). The payload is opaque
//! bytes — the service layer owns the record encoding.
//!
//! Recovery scans the longest valid prefix: the scan stops at the first frame
//! that is short, oversized, or fails its checksum, and reports whether any
//! bytes were discarded (`torn_tail`). A torn or bit-flipped tail is the
//! expected artifact of `kill -9` / power loss mid-append and is never an
//! error — the scanner cannot panic on any input.

use crate::codec::{seq_checksum, Reader, Writer};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Frame header size: len(4) + crc(4) + seq(8).
pub const FRAME_HEADER: usize = 16;

/// Sanity cap so a garbage length prefix cannot trigger a huge allocation.
pub(crate) const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

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

/// One recovered frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub seq: u64,
    pub payload: Vec<u8>,
}

/// Result of scanning a log image for its longest valid prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome {
    pub records: Vec<WalRecord>,
    /// Bytes of the valid prefix; the file is truncated to this length
    /// before the writer appends again.
    pub valid_bytes: u64,
    /// True when trailing bytes after the valid prefix were discarded.
    pub torn_tail: bool,
}

/// Encode one frame into `buf` (single `write` syscall per append).
pub fn encode_frame(buf: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    let mut w = Writer::new(buf);
    w.u32(payload.len() as u32);
    w.u32(seq_checksum(seq, payload));
    w.u64(seq);
    w.bytes(payload);
}

/// The next frame, or `None` when what is left is short, oversized or
/// fails its checksum.
fn read_frame(r: &mut Reader<'_>) -> Option<WalRecord> {
    let len = r.u32().ok()?;
    let stored_crc = r.u32().ok()?;
    let seq = r.u64().ok()?;
    if len > MAX_RECORD_LEN {
        return None;
    }
    let payload = r.take(len as usize).ok()?;
    (seq_checksum(seq, payload) == stored_crc).then(|| WalRecord { seq, payload: payload.to_vec() })
}

/// Longest-valid-prefix scan over an in-memory log image. Pure, total, and
/// panic-free on arbitrary bytes (property-tested in `tests/corruption.rs`).
pub fn scan_bytes(data: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut r = Reader::new(data);
    let mut valid = 0;
    while let Some(record) = read_frame(&mut r) {
        records.push(record);
        valid = data.len() - r.remaining();
    }
    ScanOutcome {
        records,
        valid_bytes: valid as u64,
        torn_tail: valid < data.len(),
    }
}

/// Scan a log file; a missing file is an empty log.
pub(crate) fn scan_file(path: &Path) -> io::Result<ScanOutcome> {
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut data)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(scan_bytes(&data))
}

/// Appender positioned at the end of the valid prefix.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    policy: FsyncPolicy,
    buf: Vec<u8>,
    records_written: u64,
    bytes: u64,
}

impl WalWriter {
    /// Open (creating if absent), truncate to `valid_bytes` — dropping any
    /// torn tail so new appends never follow garbage — and seek to the end.
    pub fn open(path: &Path, valid_bytes: u64, policy: FsyncPolicy) -> io::Result<WalWriter> {
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        file.set_len(valid_bytes)?;
        file.seek(SeekFrom::Start(valid_bytes))?;
        Ok(WalWriter {
            file,
            policy,
            buf: Vec::with_capacity(256),
            records_written: 0,
            bytes: valid_bytes,
        })
    }

    pub fn append(&mut self, seq: u64, payload: &[u8]) -> io::Result<()> {
        self.buf.clear();
        encode_frame(&mut self.buf, seq, payload);
        self.file.write_all(&self.buf)?;
        if self.policy == FsyncPolicy::Always {
            self.file.sync_data()?;
        }
        self.records_written += 1;
        self.bytes += self.buf.len() as u64;
        Ok(())
    }

    /// Truncate the log to empty (after a checkpoint has captured its
    /// contents).
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        if self.policy != FsyncPolicy::Never {
            self.file.sync_data()?;
        }
        self.bytes = 0;
        Ok(())
    }

    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Current on-disk size of the log in bytes (valid prefix at open plus
    /// every append since, zeroed by [`reset`]).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_image(records: &[(u64, &[u8])]) -> Vec<u8> {
        let mut buf = Vec::new();
        for (seq, payload) in records {
            encode_frame(&mut buf, *seq, payload);
        }
        buf
    }

    #[test]
    fn roundtrip_preserves_records() {
        let image = log_image(&[(1, b"alpha"), (2, b""), (3, &[0u8; 100])]);
        let out = scan_bytes(&image);
        assert!(!out.torn_tail);
        assert_eq!(out.valid_bytes, image.len() as u64);
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.records[0].seq, 1);
        assert_eq!(out.records[0].payload, b"alpha");
        assert_eq!(out.records[1].payload, b"");
        assert_eq!(out.records[2].payload, vec![0u8; 100]);
        // The frame's bytes, as `6f73e6f` wrote them.
        assert_eq!(
            log_image(&[(3, b"alpha")]),
            [5, 0, 0, 0, 0x3b, 0xe4, 0x7c, 0xa4, 3, 0, 0, 0, 0, 0, 0, 0, b'a', b'l', b'p', b'h', b'a']
        );
    }

    #[test]
    fn empty_log_is_clean() {
        let out = scan_bytes(&[]);
        assert!(out.records.is_empty());
        assert!(!out.torn_tail);
    }

    #[test]
    fn truncated_tail_recovers_prefix() {
        let image = log_image(&[(1, b"first"), (2, b"second")]);
        // Cut mid-way through the second frame.
        let cut = FRAME_HEADER + 5 + FRAME_HEADER + 2;
        let out = scan_bytes(&image[..cut]);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].payload, b"first");
        assert!(out.torn_tail);
        assert_eq!(out.valid_bytes, (FRAME_HEADER + 5) as u64);
    }

    #[test]
    fn bit_flip_in_payload_drops_frame() {
        let mut image = log_image(&[(1, b"first"), (2, b"second")]);
        let last = image.len() - 1;
        image[last] ^= 0x40;
        let out = scan_bytes(&image);
        assert_eq!(out.records.len(), 1);
        assert!(out.torn_tail);
    }

    #[test]
    fn huge_length_prefix_is_rejected_not_allocated() {
        let mut image = log_image(&[(1, b"ok")]);
        image.extend_from_slice(&[0xFF; 4]); // len = u32::MAX
        image.extend_from_slice(&[0u8; 12]);
        let out = scan_bytes(&image);
        assert_eq!(out.records.len(), 1);
        assert!(out.torn_tail);
    }

    #[test]
    fn writer_truncates_torn_tail_on_open() {
        let dir = std::env::temp_dir().join(format!("sd-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut image = log_image(&[(1, b"keep")]);
        image.extend_from_slice(b"torn!");
        std::fs::write(&path, &image).unwrap();

        let scan = scan_file(&path).unwrap();
        assert!(scan.torn_tail);
        let mut w = WalWriter::open(&path, scan.valid_bytes, FsyncPolicy::Never).unwrap();
        w.append(2, b"after").unwrap();
        drop(w);

        let out = scan_file(&path).unwrap();
        assert!(!out.torn_tail);
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[1].payload, b"after");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
