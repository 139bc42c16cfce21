//! The checkpoint image's codec: a checksummed header around the caller's
//! payload. Pure over bytes; the store installs the image atomically.
//!
//! On-disk grammar (all integers little-endian):
//!
//! ```text
//! checkpoint := magic:u32("SDCK")  version:u32  applied_seq:u64
//!               len:u32  crc:u32  payload:[u8; len]
//! crc        := CRC-32(applied_seq_bytes ++ payload)
//! ```
//!
//! `applied_seq` is the sequence number of the last WAL record whose effect
//! the payload captures; recovery replays only records with a larger seq, so
//! a crash *between* installing the checkpoint and truncating the WAL cannot
//! double-apply.
//!
//! Installation is atomic (`Storage::replace`): write `checkpoint.tmp`, fsync
//! it, `rename(2)` over `checkpoint.bin`, then fsync the directory. A reader
//! only ever sees the old or the new image, never a torn one. The log the
//! image replaced is already truncated, so a file that exists but does not
//! decode (tampering, a failing disk) has no fallback: recovery refuses it.

use crate::codec::{seq_checksum, Reader, Writer};

pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
const MAGIC: u32 = 0x5344_434B; // "SDCK"
const VERSION: u32 = 1;
const HEADER: usize = 24; // magic(4) + version(4) + applied_seq(8) + len(4) + crc(4)

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub applied_seq: u64,
    pub payload: Vec<u8>,
}

/// Serialize a checkpoint image (pure; used by the writer and by tests).
pub fn encode(applied_seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER + payload.len());
    let mut w = Writer::new(&mut buf);
    w.u32(MAGIC);
    w.u32(VERSION);
    w.u64(applied_seq);
    w.u32(payload.len() as u32);
    w.u32(seq_checksum(applied_seq, payload));
    w.bytes(payload);
    buf
}

/// Decode a checkpoint image; `None` on any corruption. Total and panic-free
/// on arbitrary bytes.
pub fn decode(data: &[u8]) -> Option<Checkpoint> {
    let mut r = Reader::new(data);
    if r.u32().ok()? != MAGIC || r.u32().ok()? != VERSION {
        return None;
    }
    let applied_seq = r.u64().ok()?;
    let len = r.u32().ok()? as usize;
    let stored_crc = r.u32().ok()?;
    let payload = r.take(len).ok()?;
    r.finish().ok()?;
    (seq_checksum(applied_seq, payload) == stored_crc).then(|| Checkpoint {
        applied_seq,
        payload: payload.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let image = encode(42, b"state bytes");
        let cp = decode(&image).expect("valid image decodes");
        assert_eq!(cp.applied_seq, 42);
        assert_eq!(cp.payload, b"state bytes");
        // The image's bytes, as `6f73e6f` wrote them.
        let mut golden = vec![b'K', b'C', b'D', b'S', 1, 0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0];
        golden.extend_from_slice(&[11, 0, 0, 0, 0x35, 0x6d, 0x60, 0xd3]);
        golden.extend_from_slice(b"state bytes");
        assert_eq!(image, golden);
    }

    #[test]
    fn corruption_yields_none() {
        let image = encode(7, b"payload");
        for i in 0..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x01;
            // Flipping the low bit of any byte must invalidate the image
            // (magic, version, seq, len, crc, or payload all participate).
            assert!(decode(&bad).is_none(), "flip at byte {i} went undetected");
        }
        assert!(decode(&image[..image.len() - 1]).is_none());
        assert!(decode(&[]).is_none());
    }

    #[test]
    fn install_and_read_back() {
        use crate::storage::{FsStorage, Storage};
        let dir = std::env::temp_dir().join(format!("sd-ckpt-test-{}", std::process::id()));
        let mut disk = FsStorage::open(&dir).unwrap();
        let read = |disk: &mut FsStorage| decode(&disk.read(CHECKPOINT_FILE).unwrap()?);
        assert!(read(&mut disk).is_none());
        disk.replace(CHECKPOINT_FILE, &encode(3, b"v1")).unwrap();
        assert_eq!(read(&mut disk).unwrap().payload, b"v1");
        disk.replace(CHECKPOINT_FILE, &encode(9, b"v2-longer-payload")).unwrap();
        let cp = read(&mut disk).unwrap();
        assert_eq!(cp.applied_seq, 9);
        assert_eq!(cp.payload, b"v2-longer-payload");
        assert!(!dir.join("checkpoint.tmp").exists(), "the rename consumed the temporary file");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
