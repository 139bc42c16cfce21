//! Streaming statistics.
//!
//! [`Welford`] implements the numerically stable one-pass mean/variance
//! algorithm; metric collectors keep one per series so multi-hundred-thousand
//! job runs never materialise per-job vectors unless asked to.

/// One-pass mean / variance / min / max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Welford {
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (Chan et al. parallel form).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
        assert!((w.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_welford_is_zeroed() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.add(1.0);
        a.add(3.0);
        let before = (a.count(), a.mean());
        a.merge(&Welford::new());
        assert_eq!((a.count(), a.mean()), before);

        let mut e = Welford::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }
}
