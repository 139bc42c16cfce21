//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), slicing-by-16.
//!
//! The workspace is dependency-free, so the checksum lives here rather than
//! pulling `crc32fast`. It covers WAL records of tens of bytes and checkpoint
//! images of half a megabyte (510 KB at 4 000 jobs), so it folds 16 bytes
//! per step through sixteen table lookups instead of one lookup per byte.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes, so sixteen
/// lookups, one per byte of a block, XOR into the block's whole effect.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// Incremental CRC-32 over multiple slices (a frame checksums the sequence
/// number and the payload without concatenating them first).
#[derive(Debug, Clone)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds 16 bytes per step: the state is XORed into the block's first
    /// four bytes, then byte `k` looks up row `15 - k`. The tail of fewer
    /// than 16 bytes goes through row 0 one byte at a time.
    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.0;
        let (blocks, rest) = data.as_chunks::<16>();
        for mut block in blocks.iter().copied() {
            for (b, s) in block.iter_mut().zip(c.to_le_bytes()) {
                *b ^= s;
            }
            c = block.iter().zip(TABLES.iter().rev()).fold(0, |acc, (&b, row)| acc ^ row[b as usize]);
        }
        for &b in rest {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
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

    /// Table-free CRC-32: one shift and conditional XOR per bit.
    fn bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    /// Every remainder 0..16 after 0–5 whole 16-byte blocks.
    #[test]
    fn matches_the_bitwise_reference_at_every_short_length() {
        let data = noise(80);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn matches_the_bitwise_reference_over_a_mebibyte() {
        let data = noise(1 << 20);
        let want = bitwise(&data);
        assert_eq!(crc32(&data), want);
        let mut inc = Crc32::new();
        for piece in data.chunks(4099) {
            inc.update(piece);
        }
        assert_eq!(inc.finish(), want);
    }

    proptest::proptest! {
        /// Random lengths at random alignments, one-shot and split at 1–4
        /// points, so block boundaries fall inside the incremental state.
        #[test]
        fn matches_the_bitwise_reference_at_any_offset_and_split(
            buf in proptest::collection::vec(proptest::any::<u8>(), 4096 + 16),
            start in 0usize..16,
            len in 0usize..=4096,
            cuts in proptest::collection::vec(0usize..=4096, 1..=4),
        ) {
            let data = &buf[start..start + len];
            let want = bitwise(data);
            proptest::prop_assert_eq!(crc32(data), want);
            let mut at: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
            at.sort_unstable();
            let mut inc = Crc32::new();
            let mut from = 0;
            for to in at {
                inc.update(&data[from..to]);
                from = to;
            }
            inc.update(&data[from..]);
            proptest::prop_assert_eq!(inc.finish(), want, "cut at {:?}", cuts);
        }
    }
}
