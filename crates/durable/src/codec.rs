//! The one byte codec (DESIGN.md §14): little-endian integers, floats as
//! their bit pattern, options as a presence byte, sequences as a `u64`
//! count. The WAL frame and checkpoint headers here, `sd_serve::durable`'s
//! command and engine-checkpoint payloads and `slurm_sim`'s `SimState`
//! image are all written and read through this pair; each layer owns its
//! field order, none owns a byte layout.
//!
//! [`Reader`] takes bytes from outside the program (a file that survived a
//! crash, or did not): every method returns `Err` rather than panic, and
//! [`Reader::len`] bounds a count before anyone allocates for it.

use crate::crc::Crc32;

/// Appends encoded values to a caller-owned buffer.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    #[inline]
    pub fn new(buf: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { buf }
    }
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    #[inline]
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    /// An element count; pair with [`Reader::len`].
    #[inline]
    pub fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }
    /// Raw bytes, no length prefix.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Consumes encoded values from a byte slice, front to back.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }
    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!("truncated: need {n} bytes at offset {}", self.pos));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    #[inline]
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    #[inline]
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }
    #[inline]
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("took 4 bytes")))
    }
    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("took 8 bytes")))
    }
    #[inline]
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
    #[inline]
    pub fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }
    /// A count of elements that each encode to at least `min_size` bytes.
    /// A count the remaining input cannot hold is rejected here, before
    /// the caller sizes a `Vec` by it.
    #[inline]
    pub fn len(&mut self, min_size: usize) -> Result<usize, String> {
        let n = self.u64()?;
        let fit = self.remaining() / min_size;
        if n > fit as u64 {
            return Err(format!(
                "length {n} exceeds the {fit} elements of {min_size}+ bytes the input can hold"
            ));
        }
        Ok(n as usize)
    }
    #[inline]
    pub fn finish(self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes")),
        }
    }
}

/// The checksum of both framed formats: CRC-32 over the little-endian
/// sequence number followed by the payload.
pub(crate) fn seq_checksum(seq: u64, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&seq.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_errors_are_clean() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.opt_u64(None);
        w.opt_u64(Some(9));
        w.len(2);
        w.bytes(b"xy");
        assert_eq!(buf.len(), 1 + 1 + 4 + 8 + 8 + 1 + 9 + 8 + 2);
        assert_eq!(buf[2..6], [0xEF, 0xBE, 0xAD, 0xDE], "little-endian");

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.opt_u64(), Ok(None));
        assert_eq!(r.opt_u64(), Ok(Some(9)));
        assert_eq!(r.len(1), Ok(2));
        assert_eq!(r.take(2), Ok(&b"xy"[..]));
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err(), "reading past the end");
        r.finish().expect("everything consumed");

        assert!(Reader::new(&[2]).bool().is_err());
        assert!(Reader::new(&[2, 0]).opt_u64().is_err());
        assert!(Reader::new(&[1, 2, 3]).u32().is_err());
        assert!(Reader::new(&[0]).finish().is_err());
    }

    /// `len` admits exactly the counts the rest of the input can hold.
    #[test]
    fn len_guard_is_exact() {
        let image = |n: u64, rest: usize| {
            let mut buf = Vec::new();
            Writer::new(&mut buf).u64(n);
            buf.resize(8 + rest, 0);
            buf
        };
        for (min_size, rest) in [(1, 0), (1, 5), (24, 0), (24, 23), (24, 24), (24, 49), (24, 72)] {
            let fit = (rest / min_size) as u64;
            assert_eq!(Reader::new(&image(fit, rest)).len(min_size), Ok(fit as usize));
            let over = Reader::new(&image(fit + 1, rest)).len(min_size);
            assert!(over.is_err(), "{min_size}-byte elements, {rest} bytes left: {over:?}");
        }
        assert!(Reader::new(&image(u64::MAX, 100)).len(1).is_err());
        assert!(Reader::new(&[0; 7]).len(1).is_err(), "count itself truncated");
    }
}
