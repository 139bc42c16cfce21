//! Property tests: CpuMask set algebra against a reference HashSet model.

use cluster::CpuMask;
use proptest::prelude::*;
use std::collections::HashSet;

const W: usize = 96; // two 48-core sockets

fn arb_mask() -> impl Strategy<Value = (CpuMask, HashSet<usize>)> {
    prop::collection::hash_set(0usize..W, 0..W).prop_map(|set| {
        let mut m = CpuMask::empty(W);
        for &c in &set {
            m.set(c);
        }
        (m, set)
    })
}

proptest! {
    #[test]
    fn count_matches_model((m, set) in arb_mask()) {
        prop_assert_eq!(m.count(), set.len());
        prop_assert_eq!(m.is_empty(), set.is_empty());
        for c in 0..W {
            prop_assert_eq!(m.contains(c), set.contains(&c));
        }
    }

    #[test]
    fn union_matches_model((a, sa) in arb_mask(), (b, sb) in arb_mask()) {
        let mut u = a;
        u.union_with(&b);
        let expect: HashSet<usize> = sa.union(&sb).copied().collect();
        prop_assert_eq!(u.iter().collect::<HashSet<_>>(), expect);
    }

    #[test]
    fn intersect_matches_model((a, sa) in arb_mask(), (b, sb) in arb_mask()) {
        let mut i = a;
        i.intersect_with(&b);
        let expect: HashSet<usize> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(i.iter().collect::<HashSet<_>>(), expect);
    }

    #[test]
    fn subtract_matches_model((a, sa) in arb_mask(), (b, sb) in arb_mask()) {
        let mut d = a;
        d.subtract(&b);
        let expect: HashSet<usize> = sa.difference(&sb).copied().collect();
        prop_assert_eq!(d.iter().collect::<HashSet<_>>(), expect);
        prop_assert!(d.is_disjoint(&b));
    }

    #[test]
    fn take_lowest_is_prefix((a, _sa) in arb_mask(), n in 0usize..W) {
        let low = a.take_lowest(n);
        prop_assert_eq!(low.count(), n.min(a.count()));
        // Every taken core is in the original, and they are the smallest.
        let taken: Vec<usize> = low.iter().collect();
        let original: Vec<usize> = a.iter().collect();
        prop_assert_eq!(&taken[..], &original[..taken.len()]);
    }

    #[test]
    fn iter_is_sorted((a, _s) in arb_mask()) {
        let v: Vec<usize> = a.iter().collect();
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(v, sorted);
    }
}

/// Regression: every mask operation must also hold on zero-width masks
/// (a node with no cores), which the random model above never generates.
#[test]
fn zero_width_masks_are_inert() {
    let mut a = CpuMask::empty(0);
    let b = CpuMask::full(0);
    a.union_with(&b);
    a.intersect_with(&b);
    a.subtract(&b);
    assert_eq!(a.count(), 0);
    assert!(a.is_empty());
    assert!(a.is_disjoint(&b));
    assert_eq!(a.take_lowest(5).count(), 0);
    assert_eq!(CpuMask::range(0, 0, 0).count(), 0);
    assert_eq!(a.iter().count(), 0);
    assert_eq!(format!("{a:?}"), "CpuMask[0/0:]");
}

/// The inline word array at every width that sits on a word edge, up to the
/// cap: `full`/`range`/`iter` agree with per-bit construction, `words()` is
/// exactly as long as the width needs, the persistence round trip is the
/// identity, and storage beyond the width stays zero — so two masks built
/// differently but holding the same cores are `==` and hash alike.
#[test]
fn word_edges_up_to_the_cap() {
    use std::hash::{BuildHasher, RandomState};
    let hasher = RandomState::new();
    for w in [1, 63, 64, 65, 128, CpuMask::MAX_CORES] {
        let full = CpuMask::full(w);
        assert_eq!(full.count(), w);
        assert_eq!(full.iter().collect::<Vec<_>>(), (0..w).collect::<Vec<_>>());
        assert_eq!(full.words().len(), w.div_ceil(64));
        assert_eq!(full, CpuMask::range(w, 0, usize::MAX));
        assert_eq!(CpuMask::from_words(w, full.words()), Some(full));

        // Bit by bit, then cleared back down to the top half.
        let mut built = CpuMask::empty(w);
        (0..w).for_each(|c| built.set(c));
        assert_eq!(built, full);
        (0..w / 2).for_each(|c| built.clear(c));
        let top = CpuMask::range(w, w / 2, w);
        assert_eq!(built, top);
        assert_eq!(hasher.hash_one(built), hasher.hash_one(top));
        assert_eq!(
            top.iter().collect::<Vec<_>>(),
            (w / 2..w).collect::<Vec<_>>()
        );
        let mut rest = full;
        rest.subtract(&top);
        assert_eq!(rest, CpuMask::range(w, 0, w / 2));
        assert_eq!(CpuMask::from_words(w, top.words()), Some(top));

        // A bit past the width, or a word too many or too few, is malformed.
        if w % 64 != 0 {
            let mut words = full.words().to_vec();
            *words.last_mut().unwrap() |= 1 << (w % 64);
            assert_eq!(CpuMask::from_words(w, &words), None);
        }
        assert_eq!(CpuMask::from_words(w, &vec![0; w.div_ceil(64) + 1]), None);
        assert_eq!(CpuMask::from_words(w, &vec![0; w.div_ceil(64) - 1]), None);
    }
    let too_wide = CpuMask::MAX_CORES + 1;
    assert_eq!(
        CpuMask::from_words(too_wide, &vec![0; too_wide.div_ceil(64)]),
        None
    );
}

#[test]
#[should_panic(expected = "exceed")]
fn constructing_past_the_cap_panics() {
    CpuMask::empty(CpuMask::MAX_CORES + 1);
}
