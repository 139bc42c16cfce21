//! Core-distribution algorithms for the node table (paper §3.3, Listing 3).
//!
//! "Cores distribution keeps jobs in separate sockets to improve data
//! locality and reduce interference between jobs".
//!
//! Both functions are pure: they map a node spec plus core budgets and masks
//! to new [`CpuMask`]s, so they are easy to property-test. Both are mask
//! algebra over socket masks, a word at a time: per-socket counts are
//! popcounts, and no core is visited on its own.

use cluster::cpumask::CpuMask;
use cluster::spec::NodeSpec;

/// Number of distinct sockets a mask touches: the tests' isolation check.
#[cfg(test)]
pub(crate) fn sockets_touched(spec: &NodeSpec, mask: &CpuMask) -> u32 {
    let mut touched = vec![false; spec.sockets as usize];
    for c in mask.iter() {
        touched[spec.socket_of(c as u32) as usize] = true;
    }
    touched.iter().filter(|&&t| t).count() as u32
}

/// Socket `s`'s cores as a mask over the node.
fn socket_mask(spec: &NodeSpec, s: u32) -> CpuMask {
    let lo = (s * spec.cores_per_socket) as usize;
    CpuMask::range(spec.cores() as usize, lo, lo + spec.cores_per_socket as usize)
}

/// Shrinks `mask` to `target` cores, preferring to vacate whole sockets
/// (keeps the sockets where the job already has the most cores, the lower
/// socket on a tie, and the lowest cores of the last socket it keeps).
pub(crate) fn shrink_socket_first(spec: &NodeSpec, mask: &CpuMask, target: u32) -> CpuMask {
    let have = mask.count() as u32;
    if target >= have {
        return *mask;
    }
    let mut out = CpuMask::empty(spec.cores() as usize);
    // The cores on sockets not kept yet: a kept socket counts 0 here, so
    // each round's densest is the next in (most cores, lowest id) order.
    let mut rest = *mask;
    let mut remaining = target as usize;
    while remaining > 0 {
        let (mut densest, mut most) = (CpuMask::empty(spec.cores() as usize), 0);
        for s in 0..spec.sockets {
            let mut on = socket_mask(spec, s);
            on.intersect_with(&rest);
            let n = on.count();
            if n > most {
                (densest, most) = (on, n);
            }
        }
        if most <= remaining {
            out.union_with(&densest);
            remaining -= most;
        } else {
            out.union_with(&densest.take_lowest(remaining));
            remaining = 0;
        }
        rest.subtract(&densest);
    }
    out
}

/// Expands `mask` by `extra` cores taken from `available` (lowest first,
/// preferring sockets the job already occupies for locality).
pub(crate) fn expand_into(
    spec: &NodeSpec,
    mask: &CpuMask,
    available: &CpuMask,
    extra: u32,
) -> CpuMask {
    // The sockets the job occupies.
    let mut home = CpuMask::empty(mask.width());
    for s in 0..spec.sockets {
        let socket = socket_mask(spec, s);
        if !socket.is_disjoint(mask) {
            home.union_with(&socket);
        }
    }
    let mut free = *available;
    free.subtract(mask);
    // First same-socket cores, then anything free.
    let mut near = free;
    near.intersect_with(&home);
    let near = near.take_lowest(extra as usize);
    free.subtract(&near);
    let mut out = *mask;
    out.union_with(&near);
    out.union_with(&free.take_lowest(extra as usize - near.count()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::spec::ClusterSpec;
    use proptest::prelude::any;

    fn mn4() -> NodeSpec {
        ClusterSpec::marenostrum4(1).node // 2 × 24
    }

    /// [`shrink_socket_first`] as first written, core by core: the oracle
    /// the mask algebra must equal bit for bit.
    fn shrink_per_core(spec: &NodeSpec, mask: &CpuMask, target: u32) -> CpuMask {
        let have = mask.count() as u32;
        if target >= have {
            return *mask;
        }
        let mut per_socket: Vec<(u32, u32)> = (0..spec.sockets)
            .map(|s| {
                let cnt = mask.iter().filter(|&c| spec.socket_of(c as u32) == s).count() as u32;
                (s, cnt)
            })
            .collect();
        per_socket.sort_by_key(|&(s, cnt)| (std::cmp::Reverse(cnt), s));
        let mut out = CpuMask::empty(spec.cores() as usize);
        let mut remaining = target;
        for (s, _) in per_socket {
            let lo = s * spec.cores_per_socket;
            for c in lo..lo + spec.cores_per_socket {
                if remaining == 0 {
                    break;
                }
                if mask.contains(c as usize) {
                    out.set(c as usize);
                    remaining -= 1;
                }
            }
        }
        out
    }

    /// [`expand_into`] as first written, core by core: the oracle.
    fn expand_per_core(
        spec: &NodeSpec,
        mask: &CpuMask,
        available: &CpuMask,
        extra: u32,
    ) -> CpuMask {
        let mut out = *mask;
        let mut remaining = extra;
        // First pass: same-socket cores.
        for c in available.iter() {
            if remaining == 0 {
                break;
            }
            let sock = spec.socket_of(c as u32);
            if !out.contains(c) && mask.iter().any(|mc| spec.socket_of(mc as u32) == sock) {
                out.set(c);
                remaining -= 1;
            }
        }
        // Second pass: anything free.
        for c in available.iter() {
            if remaining == 0 {
                break;
            }
            if !out.contains(c) {
                out.set(c);
                remaining -= 1;
            }
        }
        out
    }

    /// A mask over `spec`'s cores from raw words: `density` 0 keeps every
    /// drawn bit, 1 keeps about half, 2 about a quarter — so masks run from
    /// full sockets to a few scattered cores.
    fn mask_of(spec: &NodeSpec, words: [u64; 3], density: u8) -> CpuMask {
        let width = spec.cores() as usize;
        let mut m = CpuMask::full(width);
        let mut drawn = CpuMask::empty(width);
        for (i, w) in words.iter().enumerate() {
            let w = match density {
                0 => !0,
                1 => *w,
                _ => w & w.rotate_left(17),
            };
            for b in cluster::cpumask::bits(w) {
                if i * 64 + b < width {
                    drawn.set(i * 64 + b);
                }
            }
        }
        m.intersect_with(&drawn);
        m
    }

    /// 2 × 4 (RICC), 2 × 8, 2 × 24 (MareNostrum 4) and a 4 × 40 node whose
    /// sockets straddle mask words.
    fn shape(i: usize) -> NodeSpec {
        let (sockets, cores_per_socket) = [(2, 4), (2, 8), (2, 24), (4, 40)][i];
        NodeSpec { sockets, cores_per_socket, ..mn4() }
    }

    proptest::proptest! {
        /// The word versions return the per-core oracles' masks bit for bit,
        /// over budgets from nothing to more than the node holds. The job's
        /// mask keeps only the sockets in `on` (bit `s` for socket `s`), so
        /// the same-socket preference has sockets to prefer.
        #[test]
        fn word_distribution_matches_per_core_oracles(
            node in 0usize..4,
            words in (any::<u64>(), any::<u64>(), any::<u64>()),
            density in (0u8..3, 0u8..3),
            on in 0u32..16,
            budget in 0u32..170,
        ) {
            let spec = shape(node);
            let (a, b, c) = words;
            let mut mask = CpuMask::empty(spec.cores() as usize);
            for s in (0..spec.sockets).filter(|s| on >> s & 1 == 1) {
                mask.union_with(&socket_mask(&spec, s));
            }
            mask.intersect_with(&mask_of(&spec, [a, b, c], density.0));
            let available = mask_of(&spec, [c, a, b], density.1);
            proptest::prop_assert_eq!(
                shrink_socket_first(&spec, &mask, budget),
                shrink_per_core(&spec, &mask, budget)
            );
            proptest::prop_assert_eq!(
                expand_into(&spec, &mask, &available, budget),
                expand_per_core(&spec, &mask, &available, budget)
            );
        }
    }

    #[test]
    fn shrink_prefers_vacating_a_socket() {
        let spec = mn4();
        let full = CpuMask::full(48);
        let kept = shrink_socket_first(&spec, &full, 24);
        assert_eq!(kept.count(), 24);
        assert_eq!(sockets_touched(&spec, &kept), 1, "kept cores on one socket");
    }

    #[test]
    fn shrink_to_larger_target_is_identity() {
        let spec = mn4();
        let m = CpuMask::range(48, 0, 10);
        assert_eq!(shrink_socket_first(&spec, &m, 20), m);
    }

    #[test]
    fn shrink_keeps_subset_of_original() {
        let spec = mn4();
        let m = CpuMask::range(48, 12, 40); // straddles both sockets
        let kept = shrink_socket_first(&spec, &m, 10);
        assert_eq!(kept.count(), 10);
        for c in kept.iter() {
            assert!(m.contains(c), "core {c} not in original mask");
        }
        // The densest socket of the original is socket 1 (cores 24..40, 16
        // of them, against 12 on socket 0), so all 10 kept cores are there.
        assert!(kept.iter().all(|c| spec.socket_of(c as u32) == 1));
    }

    #[test]
    fn expand_prefers_same_socket() {
        let spec = mn4();
        let m = CpuMask::range(48, 0, 4); // socket 0
        let mut avail = CpuMask::empty(48);
        avail.set(30); // socket 1
        avail.set(5); // socket 0
        let grown = expand_into(&spec, &m, &avail, 1);
        assert!(grown.contains(5), "same-socket core taken first");
        assert!(!grown.contains(30));
    }

    #[test]
    fn expand_falls_back_to_other_socket() {
        let spec = mn4();
        let m = CpuMask::range(48, 0, 4);
        let avail = CpuMask::range(48, 24, 26); // only socket-1 cores free
        let grown = expand_into(&spec, &m, &avail, 2);
        assert_eq!(grown.count(), 6);
        assert!(grown.contains(24) && grown.contains(25));
    }

    #[test]
    fn expand_never_exceeds_available() {
        let spec = mn4();
        let m = CpuMask::range(48, 0, 2);
        let avail = CpuMask::range(48, 2, 4);
        let grown = expand_into(&spec, &m, &avail, 10);
        assert_eq!(grown.count(), 4, "only 2 extra cores existed");
    }
}
