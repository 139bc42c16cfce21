//! Fixed-bucket histograms: the latency/wait distribution primitive behind
//! `sd-loadgen`'s percentile report, the `/metrics` histogram series and
//! `--latency-out` CSV export.
//!
//! Buckets are cumulative-style like Prometheus: `bounds` holds ascending
//! upper bounds, with an implicit `+Inf` bucket after the last. Quantiles
//! are interpolated inside the winning bucket (assuming a uniform spread),
//! which is the proper way to report p50/p90/p99 from bucketed data — the
//! error is bounded by the bucket width instead of depending on sample
//! count like sorted-vector percentiles do.

/// The one bucket rule (Prometheus `le`): the index of the first of the
/// ascending upper `bounds` that is `>= v`, or `bounds.len()` — the
/// overflow bucket — when `v` is above them all. A value equal to a bound
/// counts into that bound's bucket.
pub fn le_bucket<T: PartialOrd + Copy>(bounds: &[T], v: T) -> usize {
    bounds.partition_point(|&b| b < v)
}

/// p50/p90/p99/max of one per-job metric, read off a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct Percentiles {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

/// Plain counters behind `&mut self`. `sd_serve::metrics::AtomicHistogram`
/// is the other storage — relaxed atomics behind `&self`, for writers on
/// several threads — and places values with the same [`le_bucket`].
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// Per-bucket counts; `counts[bounds.len()]` is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    pub fn new(bounds: Vec<f64>) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascend");
        let n = bounds.len() + 1;
        Histogram { bounds, counts: vec![0; n], count: 0, sum: 0.0, max: 0.0 }
    }

    /// Log-spaced bounds from `lo` to `hi` (inclusive-ish), `per_decade`
    /// buckets per decade — the shape used for latencies and waits.
    pub(crate) fn log_spaced(lo: f64, hi: f64, per_decade: u32) -> Histogram {
        debug_assert!(lo > 0.0 && hi > lo && per_decade > 0);
        let step = 10f64.powf(1.0 / per_decade as f64);
        let mut bounds = Vec::new();
        let mut b = lo;
        while b < hi * (1.0 + 1e-9) {
            bounds.push(b);
            b *= step;
        }
        Histogram::new(bounds)
    }

    /// Request-latency buckets in milliseconds: 10 µs .. 10 s.
    pub fn latency_ms() -> Histogram {
        Histogram::log_spaced(0.01, 10_000.0, 3)
    }

    /// Queue-wait buckets in (virtual) seconds: 1 s .. ~11 days.
    pub fn wait_seconds() -> Histogram {
        Histogram::log_spaced(1.0, 1_000_000.0, 2)
    }

    pub fn observe(&mut self, v: f64) {
        let idx = le_bucket(&self.bounds, v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket-interpolated quantile, `q` in `[0, 1]`. The winning bucket's
    /// span is assumed uniformly filled; the overflow bucket reports the
    /// observed maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= rank {
                if i == self.bounds.len() {
                    return self.max; // overflow bucket: best bound we have
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i].min(self.max);
                let frac = (rank - cum as f64) / c as f64;
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
            cum = next;
        }
        self.max
    }

    /// p50/p90/p99/max from the buckets; `None` when empty.
    pub fn percentiles(&self) -> Option<Percentiles> {
        if self.count == 0 {
            return None;
        }
        Some(Percentiles {
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max,
        })
    }

    /// Deterministic CSV: one row per bucket (`le`, per-bucket count,
    /// cumulative count), overflow bucket as `+Inf`, then `sum`/`max`.
    pub fn csv(&self) -> String {
        let mut out = String::from("bucket_le,count,cumulative\n");
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if i == self.bounds.len() {
                out.push_str(&format!("+Inf,{c},{cum}\n"));
            } else {
                out.push_str(&format!("{},{c},{cum}\n", self.bounds[i]));
            }
        }
        out.push_str(&format!("sum,{},\n", self.sum));
        out.push_str(&format!("max,{},\n", self.max));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_counts_and_moments() {
        let mut h = Histogram::new(vec![1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.counts(), &[1, 2, 1, 1]);
        assert_eq!(h.sum(), 560.5);
        assert_eq!(h.max(), 500.0);
        assert!(!h.is_empty());
    }

    #[test]
    fn boundary_value_lands_in_its_le_bucket() {
        // Prometheus `le` semantics: v == bound counts into that bucket.
        let mut h = Histogram::new(vec![1.0, 10.0]);
        h.observe(1.0);
        h.observe(10.0);
        assert_eq!(h.counts(), &[1, 1, 0]);
    }

    #[test]
    fn quantiles_interpolate_within_bucket() {
        let mut h = Histogram::new(vec![10.0, 20.0, 30.0]);
        for _ in 0..50 {
            h.observe(5.0); // bucket (0, 10]
        }
        for _ in 0..50 {
            h.observe(25.0); // bucket (20, 30]
        }
        // p50 sits exactly at the first bucket's upper edge.
        assert!((h.quantile(0.5) - 10.0).abs() < 1e-9);
        // p75 is halfway through the (20, 25] span (hi capped at max=25).
        let p75 = h.quantile(0.75);
        assert!(p75 > 20.0 && p75 <= 25.0, "p75={p75}");
        let p = h.percentiles().unwrap();
        assert_eq!(p.max, 25.0);
        assert!(p.p99 <= 25.0);
    }

    #[test]
    fn overflow_quantile_reports_observed_max() {
        let mut h = Histogram::new(vec![1.0]);
        h.observe(7.0);
        h.observe(9.0);
        assert_eq!(h.quantile(0.99), 9.0);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::latency_ms();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.percentiles().is_none());
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn csv_is_cumulative_and_labelled() {
        let mut h = Histogram::new(vec![1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        h.observe(9.0);
        let csv = h.csv();
        assert!(csv.starts_with("bucket_le,count,cumulative\n"));
        assert!(csv.contains("1,1,1\n"));
        assert!(csv.contains("2,1,2\n"));
        assert!(csv.contains("+Inf,1,3\n"));
        assert!(csv.contains("max,9,"));
    }

    #[test]
    fn log_spaced_covers_range() {
        let h = Histogram::latency_ms();
        let b = h.bounds();
        assert!(b.first().unwrap() <= &0.011);
        assert!(b.last().unwrap() >= &9_999.0);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }
}
