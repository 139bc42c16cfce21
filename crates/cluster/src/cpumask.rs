//! CPU affinity masks.
//!
//! A [`CpuMask`] is a bitset over the cores of one node, stored inline: a
//! fixed word array, so a mask is `Copy` and a node launch or teardown never
//! touches the allocator. The DROM substrate manipulates these to express
//! task→core pinning; the SD-Policy node-management layer (paper Listing 3)
//! uses the socket helpers to keep co-scheduled jobs isolated on separate
//! sockets.

use std::fmt;

const BITS: usize = 64;
const WORDS: usize = 4;

/// Set bit positions of `word`, ascending.
pub fn bits(word: u64) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(word), |&w| Some(w & w.wrapping_sub(1)))
        .take_while(|&w| w != 0)
        .map(|w| w.trailing_zeros() as usize)
}

/// The lowest `n` bits of a word set (`n ≤ 64`).
fn low_bits(n: usize) -> u64 {
    if n >= BITS {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// A set of CPU core indices within one node.
///
/// Words beyond the node's width are always zero, so the derived `==` and
/// `Hash` compare sets, not storage.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CpuMask {
    words: [u64; WORDS],
    ncores: usize,
}

impl CpuMask {
    /// Widest node a mask can describe.
    pub const MAX_CORES: usize = WORDS * BITS;

    /// Empty mask for a node with `ncores` cores. Panics beyond
    /// [`CpuMask::MAX_CORES`] (programming error; outside input goes through
    /// [`CpuMask::from_words`]).
    pub fn empty(ncores: usize) -> CpuMask {
        assert!(
            ncores <= Self::MAX_CORES,
            "{ncores} cores exceed the {}-core mask width",
            Self::MAX_CORES
        );
        CpuMask {
            words: [0; WORDS],
            ncores,
        }
    }

    /// Mask with every core of the node set.
    pub fn full(ncores: usize) -> CpuMask {
        CpuMask::range(ncores, 0, ncores)
    }

    /// Mask covering the half-open core range `[lo, hi)`.
    pub fn range(ncores: usize, lo: usize, hi: usize) -> CpuMask {
        let mut m = CpuMask::empty(ncores);
        let hi = hi.min(ncores);
        for (i, w) in m.words.iter_mut().enumerate() {
            let base = i * BITS;
            *w = low_bits(hi.saturating_sub(base)) & !low_bits(lo.saturating_sub(base));
        }
        m
    }

    /// Number of cores this mask is defined over (node width, not popcount).
    pub fn width(&self) -> usize {
        self.ncores
    }

    /// Sets core `c`. Panics if out of range (programming error).
    pub fn set(&mut self, c: usize) {
        assert!(c < self.ncores, "core {c} out of range {}", self.ncores);
        self.words[c / BITS] |= 1 << (c % BITS);
    }

    /// Clears core `c`.
    pub fn clear(&mut self, c: usize) {
        assert!(c < self.ncores, "core {c} out of range {}", self.ncores);
        self.words[c / BITS] &= !(1 << (c % BITS));
    }

    /// Whether core `c` is in the mask.
    pub fn contains(&self, c: usize) -> bool {
        c < self.ncores && self.words[c / BITS] & (1 << (c % BITS)) != 0
    }

    /// Number of cores set.
    #[inline]
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Union, in place.
    pub fn union_with(&mut self, other: &CpuMask) {
        debug_assert_eq!(self.ncores, other.ncores);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Intersection, in place.
    pub fn intersect_with(&mut self, other: &CpuMask) {
        debug_assert_eq!(self.ncores, other.ncores);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Removes `other`'s cores, in place.
    pub fn subtract(&mut self, other: &CpuMask) {
        debug_assert_eq!(self.ncores, other.ncores);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// True if the two masks share no core.
    pub fn is_disjoint(&self, other: &CpuMask) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & b == 0)
    }

    /// Iterates over set core indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| bits(w).map(move |b| i * BITS + b))
    }

    /// Raw bitset words (64 cores per word, ascending; exactly as many as
    /// the width needs), for persistence.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words[..self.ncores.div_ceil(BITS)]
    }

    /// Rebuilds a mask from raw words. `None` when the width exceeds
    /// [`CpuMask::MAX_CORES`], the word count doesn't match the width or a
    /// bit beyond `ncores` is set.
    pub fn from_words(ncores: usize, words: &[u64]) -> Option<CpuMask> {
        if ncores > Self::MAX_CORES || words.len() != ncores.div_ceil(BITS) {
            return None;
        }
        let mut m = CpuMask::empty(ncores);
        m.words[..words.len()].copy_from_slice(words);
        let mut stray = m;
        stray.subtract(&CpuMask::full(ncores));
        stray.is_empty().then_some(m)
    }

    /// The lowest `n` set cores as a new mask (used when shrinking a task to
    /// a core budget while keeping placement stable), a word at a time.
    pub fn take_lowest(&self, n: usize) -> CpuMask {
        let mut out = CpuMask::empty(self.ncores);
        let mut left = n;
        for (o, &w) in out.words.iter_mut().zip(&self.words) {
            let ones = w.count_ones() as usize;
            if ones <= left {
                *o = w;
                left -= ones;
            } else {
                // Clear the lowest `left` bits; what they were is the answer.
                let mut high = w;
                for _ in 0..left {
                    high &= high - 1;
                }
                *o = w & !high;
                break;
            }
        }
        out
    }
}

impl fmt::Debug for CpuMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CpuMask[{}/{}:", self.count(), self.ncores)?;
        let mut first = true;
        // Render as compressed ranges: 0-3,8,12-15
        let mut iter = self.iter().peekable();
        while let Some(start) = iter.next() {
            let mut end = start;
            while iter.peek() == Some(&(end + 1)) {
                end = iter.next().unwrap();
            }
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if start == end {
                write!(f, "{start}")?;
            } else {
                write!(f, "{start}-{end}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_contains() {
        let mut m = CpuMask::empty(128);
        assert!(!m.contains(70));
        m.set(70);
        assert!(m.contains(70));
        assert_eq!(m.count(), 1);
        m.clear(70);
        assert!(m.is_empty());
    }

    #[test]
    fn full_and_range() {
        let m = CpuMask::full(48);
        assert_eq!(m.count(), 48);
        let r = CpuMask::range(48, 24, 48);
        assert_eq!(r.count(), 24);
        assert!(!r.contains(23));
        assert!(r.contains(24));
        assert!(r.contains(47));
    }

    #[test]
    fn range_clamps_to_width() {
        let r = CpuMask::range(8, 4, 100);
        assert_eq!(r.count(), 4);
    }

    #[test]
    fn set_operations() {
        let a = CpuMask::range(16, 0, 8);
        let b = CpuMask::range(16, 8, 16);
        assert!(a.is_disjoint(&b));

        let mut u = a;
        u.union_with(&b);
        assert_eq!(u.count(), 16);

        let mut i = u;
        i.intersect_with(&a);
        assert_eq!(i, a);

        let mut s = u;
        s.subtract(&a);
        assert_eq!(s, b);
    }

    #[test]
    fn iter_ascending() {
        let mut m = CpuMask::empty(96);
        for c in [90, 3, 65] {
            m.set(c);
        }
        let v: Vec<usize> = m.iter().collect();
        assert_eq!(v, vec![3, 65, 90]);
    }

    #[test]
    fn take_lowest() {
        let m = CpuMask::range(16, 4, 12);
        let low = m.take_lowest(3);
        assert_eq!(low.iter().collect::<Vec<_>>(), vec![4, 5, 6]);
        let all = m.take_lowest(100);
        assert_eq!(all, m);
    }

    #[test]
    fn debug_renders_ranges() {
        let mut m = CpuMask::empty(16);
        for c in [0, 1, 2, 3, 8, 12, 13] {
            m.set(c);
        }
        assert_eq!(format!("{m:?}"), "CpuMask[7/16:0-3,8,12-13]");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        CpuMask::empty(4).set(4);
    }
}
