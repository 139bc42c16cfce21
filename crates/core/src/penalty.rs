//! Mate penalty — the paper's Eq. 4.
//!
//! `pᵢ = (wait_time + increase + req_time) / req_time`
//!
//! "The penalty will give precedence to jobs that waited less in the queue
//! and jobs that request a larger amount of time, so the impact in slowdown
//! will be minimum." The `increase` term is the worst-case (Eq. 6) runtime
//! stretch over the co-residency window.

/// Eq. 4: estimated post-shrink slowdown of a mate.
///
/// * `wait` — seconds the mate spent queued before starting,
/// * `increase` — estimated runtime stretch from lending cores,
/// * `req_time` — the mate's user-requested wall time (the only duration the
///   scheduler can know — paper §3.2.2).
pub(crate) fn mate_penalty(wait: u64, increase: u64, req_time: u64) -> f64 {
    let req = req_time.max(1) as f64;
    (wait as f64 + increase as f64 + req) / req
}

/// Worst-case (Eq. 6) runtime increase of a mate shrunk to the fraction
/// `keep_fraction` of its nodes' cores for `overlap` seconds: during the
/// window it progresses at `keep_fraction`, so it must run an extra
/// `(1 − keep_fraction) · overlap` afterwards.
pub(crate) fn shrink_increase(keep_fraction: f64, overlap: u64) -> u64 {
    let f = keep_fraction.clamp(0.0, 1.0);
    ((1.0 - f) * overlap as f64).ceil() as u64
}

/// Wall-clock duration of the new (malleable-backfilled) job under the
/// worst-case model: it runs its whole life at `rate`, so
/// `wall = ceil(req_time / rate)` (this is `req_time + runtime_increase` in
/// Listing 1's terms).
pub fn malleable_wall_time(req_time: u64, rate: f64) -> u64 {
    debug_assert!(rate > 0.0);
    (req_time as f64 / rate).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_formula() {
        // wait 100, increase 50, req 150 → (100+50+150)/150 = 2.0
        assert!((mate_penalty(100, 50, 150) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn no_wait_no_increase_is_unit_penalty() {
        assert!((mate_penalty(0, 0, 500) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn penalty_prefers_long_requests() {
        // Same wait and increase: the longer job has the lower penalty —
        // the paper's fairness argument.
        let short = mate_penalty(600, 300, 600);
        let long = mate_penalty(600, 300, 86_400);
        assert!(long < short);
    }

    #[test]
    fn penalty_prefers_recent_starters() {
        let waited_long = mate_penalty(10_000, 100, 3_600);
        let waited_short = mate_penalty(10, 100, 3_600);
        assert!(waited_short < waited_long);
    }

    #[test]
    fn zero_req_time_guarded() {
        let p = mate_penalty(10, 10, 0);
        assert!(p.is_finite());
    }

    #[test]
    fn shrink_increase_half_rate() {
        // Shrunk to half speed for 1000 s → 500 s extra.
        assert_eq!(shrink_increase(0.5, 1000), 500);
        assert_eq!(shrink_increase(1.0, 1000), 0);
        assert_eq!(shrink_increase(0.0, 1000), 1000);
    }

    #[test]
    fn malleable_wall_time_inflates_by_rate() {
        assert_eq!(malleable_wall_time(1000, 0.5), 2000);
        assert_eq!(malleable_wall_time(1000, 1.0), 1000);
        assert_eq!(malleable_wall_time(999, 0.3), 3330);
    }
}
