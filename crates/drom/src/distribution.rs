//! Core-distribution algorithms for the node manager (paper §3.3, Listing 3).
//!
//! "Cores distribution keeps jobs in separate sockets to improve data
//! locality and reduce interference between jobs" and "maintains running and
//! new processes balanced in the number of cores per task".
//!
//! All functions are pure: they map a node spec plus core budgets and masks
//! to new [`CpuMask`]s, so they are easy to property-test.

use cluster::cpumask::CpuMask;
use cluster::spec::NodeSpec;

/// Splits `total` cores into `parts` budgets differing by at most one
/// (balanced distribution). The first `total % parts` budgets get the extra
/// core — deterministic, so placement is reproducible.
pub(crate) fn balanced_budgets(total: u32, parts: u32) -> Vec<u32> {
    assert!(parts > 0, "cannot split across zero jobs");
    let base = total / parts;
    let extra = (total % parts) as usize;
    (0..parts as usize)
        .map(|i| base + u32::from(i < extra))
        .collect()
}

/// Number of distinct sockets a mask touches: the tests' isolation check.
#[cfg(test)]
pub(crate) fn sockets_touched(spec: &NodeSpec, mask: &CpuMask) -> u32 {
    let mut touched = vec![false; spec.sockets as usize];
    for c in mask.iter() {
        touched[spec.socket_of(c as u32) as usize] = true;
    }
    touched.iter().filter(|&&t| t).count() as u32
}

/// Shrinks `mask` to `target` cores, preferring to vacate whole sockets
/// (keeps the sockets where the job already has the most cores).
pub(crate) fn shrink_socket_first(spec: &NodeSpec, mask: &CpuMask, target: u32) -> CpuMask {
    let have = mask.count() as u32;
    if target >= have {
        return *mask;
    }
    // Count the job's cores per socket.
    let mut per_socket: Vec<(u32, u32)> = (0..spec.sockets)
        .map(|s| {
            let cnt = mask
                .iter()
                .filter(|&c| spec.socket_of(c as u32) == s)
                .count() as u32;
            (s, cnt)
        })
        .collect();
    // Keep densest sockets first; tie-break on socket id for determinism.
    per_socket.sort_by_key(|&(s, cnt)| (std::cmp::Reverse(cnt), s));

    let mut out = CpuMask::empty(spec.cores() as usize);
    let mut remaining = target;
    for (s, _) in per_socket {
        if remaining == 0 {
            break;
        }
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

/// Expands `mask` by `extra` cores taken from `available` (lowest first,
/// preferring sockets the job already occupies for locality).
pub(crate) fn expand_into(
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
        if out.contains(c) {
            continue;
        }
        let sock = spec.socket_of(c as u32);
        let on_socket = mask
            .iter()
            .any(|mc| spec.socket_of(mc as u32) == sock);
        if on_socket {
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

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::spec::ClusterSpec;

    fn mn4() -> NodeSpec {
        ClusterSpec::marenostrum4(1).node // 2 × 24
    }

    #[test]
    fn balanced_budgets_differ_by_at_most_one() {
        assert_eq!(balanced_budgets(48, 2), vec![24, 24]);
        assert_eq!(balanced_budgets(48, 5), vec![10, 10, 10, 9, 9]);
        assert_eq!(balanced_budgets(3, 5), vec![1, 1, 1, 0, 0]);
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
        // Densest socket of the original is socket 0 (cores 12..24 = 12 of
        // them vs 16 on socket 1) — wait, socket 1 has 40-24=16. Densest is 1.
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
