//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), table-driven.
//!
//! The workspace is dependency-free, so the checksum lives here rather than
//! pulling `crc32fast`. One table lookup per byte is plenty for WAL records
//! that are tens of bytes each.

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// Incremental CRC-32 over multiple slices (a frame checksums the sequence
/// number and the payload without concatenating them first).
#[derive(Debug, Clone)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.0;
        for &b in data {
            c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot convenience.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"abcdefghijklmnopqrstuvwxyz";
        let mut inc = Crc32::new();
        inc.update(&data[..7]);
        inc.update(&data[7..19]);
        inc.update(&data[19..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 64];
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at {byte}.{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
