//! The weight index over the mate pool — Eq. 3 evaluated before Eq. 4.
//!
//! Mate selection needs at most `m` mates whose whole-node weights sum to
//! exactly `W` (Eq. 3). Every candidate list is a subset of the mate pool,
//! so when the pool's own weights cannot reach the sum no scan can: the
//! multiset of pool weights answers that in a few comparisons, before any
//! candidate is filtered or scored.

use super::MateEntry;

/// The multiset of the mate pool's weights as `(weight, count)` pairs,
/// ascending by weight, every count ≥ 1. Derived from the pool (never
/// serialised) and updated at the pool's two mutation sites.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(super) struct PoolWeights(Vec<(u32, u32)>);

impl PoolWeights {
    /// The index a pool must have (rebuild on restore, oracle for validation).
    pub(super) fn recount(pool: &[MateEntry]) -> PoolWeights {
        let mut idx = PoolWeights::default();
        for e in pool {
            idx.insert(e.weight);
        }
        idx
    }

    pub(super) fn insert(&mut self, weight: u32) {
        match self.0.binary_search_by_key(&weight, |&(w, _)| w) {
            Ok(i) => self.0[i].1 += 1,
            Err(i) => self.0.insert(i, (weight, 1)),
        }
    }

    pub(super) fn remove(&mut self, weight: u32) {
        let i = self
            .0
            .binary_search_by_key(&weight, |&(w, _)| w)
            .expect("every pool entry's weight is indexed");
        self.0[i].1 -= 1;
        if self.0[i].1 == 0 {
            self.0.remove(i);
        }
    }

    /// Can between one and `max_mates` pool entries have weights summing to
    /// exactly `need`? See [`weights_cover`].
    pub(super) fn covers(&self, need: u32, max_mates: usize) -> bool {
        weights_cover(&self.0, need, max_mates)
    }
}

/// Eq. 3 over a weight multiset: can between one and `max_mates` of its
/// items have weights summing to exactly `need`? `weights` holds
/// `(weight, count)` pairs, ascending by weight, every count ≥ 1. Exact for
/// `max_mates ≤ 2`; for more mates only the necessary "some weight fits"
/// bound is checked, so a `true` is then a maybe — a `false` is always
/// final. The one answer to this question: the mate pool's index and the
/// policy's check of a scored candidate list both ask it here.
pub fn weights_cover(weights: &[(u32, u32)], need: u32, max_mates: usize) -> bool {
    let w = weights;
    if max_mates == 0 || w.is_empty() {
        return false;
    }
    if max_mates > 2 {
        return w[0].0 <= need;
    }
    if w.binary_search_by_key(&need, |&(w, _)| w).is_ok() {
        return true;
    }
    if max_mates == 1 {
        return false;
    }
    // Two-pointer walk over the ascending weights for a pair.
    let (mut lo, mut hi) = (0, w.len() - 1);
    while lo <= hi {
        let sum = w[lo].0 as u64 + w[hi].0 as u64;
        if sum < need as u64 {
            lo += 1;
        } else if sum > need as u64 {
            if hi == 0 {
                break;
            }
            hi -= 1;
        } else {
            // The same weight twice needs two entries of it.
            return lo < hi || w[lo].1 >= 2;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(weights: &[u32]) -> PoolWeights {
        let mut idx = PoolWeights::default();
        for &w in weights {
            idx.insert(w);
        }
        idx
    }

    #[test]
    fn insert_and_remove_keep_pairs_sorted_and_positive() {
        let mut idx = index(&[4, 2, 4, 9]);
        assert_eq!(idx.0, vec![(2, 1), (4, 2), (9, 1)]);
        idx.remove(4);
        idx.remove(2);
        assert_eq!(idx.0, vec![(4, 1), (9, 1)]);
        idx.remove(4);
        idx.remove(9);
        assert_eq!(idx, PoolWeights::default());
    }

    #[test]
    fn single_and_pair_cover() {
        let idx = index(&[2, 3, 3, 8]);
        assert!(idx.covers(3, 1));
        assert!(!idx.covers(5, 1), "a single must match exactly");
        assert!(idx.covers(5, 2), "2 + 3");
        assert!(idx.covers(6, 2), "3 + 3: two entries of weight 3");
        assert!(!idx.covers(4, 2), "2 + 2 needs a second weight-2 entry");
        assert!(!idx.covers(16, 2), "8 + 8 needs a second weight-8 entry");
        assert!(!idx.covers(7, 2));
        assert!(!idx.covers(1, 2));
        assert!(!idx.covers(0, 2), "at least one mate takes part");
        assert!(!idx.covers(3, 0));
        assert!(!PoolWeights::default().covers(3, 2));
    }

    #[test]
    fn three_or_more_mates_is_a_necessary_bound_only() {
        let idx = index(&[2, 2, 2]);
        assert!(idx.covers(6, 3));
        assert!(idx.covers(5, 3), "conservative: never a false negative");
        assert!(!idx.covers(1, 3), "no weight fits at all");
    }
}
