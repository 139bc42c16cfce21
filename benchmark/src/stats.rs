//! Order statistics shared by every workload: medians across reps and
//! sessions, nearest-rank percentiles, and the "ten samples beyond" rule
//! that decides which tail percentile a sample count can support.

/// Median of `v` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller measures at least one unit.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`pct` in 0..=100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n` samples.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n.saturating_sub(((pct / 100.0 * n as f64).ceil() as usize).max(1))
}

/// A timing is reported at a tail percentile only when at least ten
/// samples lie beyond it (choosing-metrics §1).
pub fn supports_tail(n: usize, pct: f64) -> bool {
    n > 0 && samples_beyond(n, pct) >= 10
}

/// The tail every latency is reported at. Each workload collects at least
/// 1 000 samples per rep/session/batch, so ten lie beyond it.
pub const TAIL_PCT: f64 = 99.0;

/// `(p50, p99)` of unsorted samples.
pub fn p50_and_p99(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    (percentile_sorted(&s, 50.0), percentile_sorted(&s, TAIL_PCT))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 4 000 submits per session: p99 leaves 40 beyond.
        assert_eq!(samples_beyond(4000, 99.0), 40);
        assert!(supports_tail(4000, 99.0));
        // p99 needs 1 000 samples, p90 needs 100.
        assert!(supports_tail(1000, TAIL_PCT));
        assert!(!supports_tail(999, TAIL_PCT));
        assert!(supports_tail(100, 90.0));
        assert!(!supports_tail(99, 90.0));
        assert!(!supports_tail(0, 90.0));
        assert_eq!(
            p50_and_p99(&(1..=1000).map(f64::from).collect::<Vec<_>>()),
            (500.0, 990.0)
        );
    }
}
