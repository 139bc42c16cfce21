//! The write-ahead log's codec: length-prefixed, checksummed frames. Pure
//! over bytes; the store appends the frames and reads the log back.
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
//! it ties the log to the checkpoint (recovery skips the frames the
//! checkpoint's `applied_seq` covers, and the rest must follow it without a
//! gap). The payload is opaque bytes — the service layer owns the record
//! encoding.
//!
//! Recovery scans the longest valid prefix: the scan stops at the first frame
//! that is short, oversized, or fails its checksum, and reports whether any
//! bytes were discarded (`torn_tail`). A torn or bit-flipped tail is the
//! expected artifact of `kill -9` / power loss mid-append and is never an
//! error — the scanner cannot panic on any input.

use crate::codec::{seq_checksum, Reader, Writer};

/// Frame header size: len(4) + crc(4) + seq(8).
pub const FRAME_HEADER: usize = 16;

/// Sanity cap so a garbage length prefix cannot trigger a huge allocation.
pub(crate) const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

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
    /// Bytes of the valid prefix; the store cuts the log to this length
    /// before it appends again.
    pub valid_bytes: u64,
    /// True when trailing bytes after the valid prefix were discarded.
    pub torn_tail: bool,
}

/// Encode one frame into `buf` (one `Storage::append` per record).
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
}
