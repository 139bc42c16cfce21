//! Deterministic random streams.
//!
//! Every stochastic component (arrival process, size/runtime sampling,
//! application assignment …) takes its own forked stream so that adding a new
//! consumer never perturbs the draws seen by existing ones — a requirement
//! for comparing policies on *identical* workloads.
//!
//! The generator is a self-contained xoshiro256++ seeded through SplitMix64,
//! so the crate has no external dependencies and the streams are stable
//! across platforms and toolchain upgrades.

/// SplitMix64 step, used to expand seeds and derive independent sub-seeds.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, forkable random number generator.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
    seed: u64,
}

impl DetRng {
    /// Creates a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the 64-bit seed into xoshiro256++ state via SplitMix64, the
        // initialisation recommended by the xoshiro authors.
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s, seed }
    }

    /// The seed this stream was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent stream identified by `stream`.
    ///
    /// Forking is a pure function of `(seed, stream)`: the parent's position
    /// is not consumed, so forks can be taken in any order.
    pub fn fork(&self, stream: u64) -> DetRng {
        let mut s = self.seed ^ 0xA076_1D64_78BD_642F;
        let a = splitmix64(&mut s);
        let mut t = stream.wrapping_add(0x2545_F491_4F6C_DD1D);
        let b = splitmix64(&mut t);
        DetRng::new(a ^ b.rotate_left(17))
    }

    /// Next 64 bits of the stream (xoshiro256++).
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits → the dyadic rationals k / 2^53 in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`; `lo == hi` returns `lo`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            lo
        } else {
            let x = lo + self.f64() * (hi - lo);
            // Guard the open upper bound: if the sum rounds up to `hi`,
            // clamp to the next float below it rather than jumping to `lo`.
            if x < hi {
                x
            } else {
                hi.next_down().max(lo)
            }
        }
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        let span = (hi - lo).wrapping_add(1);
        if span == 0 {
            // lo = 0, hi = u64::MAX: the whole domain.
            return self.next_u64();
        }
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let x = self.next_u64();
            if x < zone {
                return lo + x % span;
            }
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Picks an index in `[0, weights.len())` proportional to `weights`.
    ///
    /// Falls back to index 0 if all weights are non-positive.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
        if total <= 0.0 || weights.is_empty() {
            return 0;
        }
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forks_are_independent_of_parent_position() {
        let parent = DetRng::new(99);
        let mut f1 = parent.fork(3);
        let mut consumed = DetRng::new(99);
        let _ = consumed.next_u64(); // advance the parent
        let mut f2 = consumed.fork(3);
        for _ in 0..10 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn forks_with_different_streams_differ() {
        let parent = DetRng::new(99);
        let mut f1 = parent.fork(1);
        let mut f2 = parent.fork(2);
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn range_bounds_hold() {
        let mut r = DetRng::new(5);
        for _ in 0..1000 {
            let x = r.range_f64(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            let n = r.range_u64(10, 20);
            assert!((10..=20).contains(&n));
        }
        assert_eq!(r.range_u64(5, 5), 5);
        assert_eq!(r.range_f64(1.0, 1.0), 1.0);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = DetRng::new(11);
        let w = [0.0, 10.0, 0.0];
        for _ in 0..100 {
            assert_eq!(r.weighted_index(&w), 1);
        }
        let mut counts = [0usize; 2];
        let w2 = [1.0, 3.0];
        for _ in 0..4000 {
            counts[r.weighted_index(&w2)] += 1;
        }
        let frac = counts[1] as f64 / 4000.0;
        assert!((0.70..0.80).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0), "clamped above 1");
    }
}
