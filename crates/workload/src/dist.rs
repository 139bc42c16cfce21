//! Probability distributions for workload modelling.
//!
//! Implemented in-crate (instead of pulling `rand_distr`) so the exact
//! sampling algorithms are pinned: workload generation must be reproducible
//! bit-for-bit across toolchain updates for the experiments to be
//! comparable. All samplers draw from [`simkit::DetRng`].
//!
//! The set is what the generators draw from: log-uniform (job sizes within
//! a size class), log-normal (runtimes) and exponential (interarrival gaps),
//! plus the standard normal the log-normal is built on.

use simkit::DetRng;

/// A distribution that can draw `f64` samples.
pub(crate) trait Sampler {
    fn sample(&self, rng: &mut DetRng) -> f64;
}

/// Standard normal via Box–Muller (stateless variant).
#[inline]
pub(crate) fn standard_normal(rng: &mut DetRng) -> f64 {
    // Avoid u1 == 0 (log singularity).
    let u1 = loop {
        let u = rng.f64();
        if u > f64::EPSILON {
            break u;
        }
    };
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal: `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    pub(crate) mu: f64,
    pub(crate) sigma: f64,
}

impl LogNormal {
    /// Parameterises from the desired median and the multiplicative spread
    /// (sigma in log-space).
    pub(crate) fn from_median(median: f64, sigma: f64) -> LogNormal {
        LogNormal {
            mu: median.ln(),
            sigma,
        }
    }
}

impl Sampler for LogNormal {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Exponential with the given mean (`1/rate`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exponential {
    pub mean: f64,
}

impl Sampler for Exponential {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        let u = loop {
            let u = rng.f64();
            if u > f64::EPSILON {
                break u;
            }
        };
        -self.mean * u.ln()
    }
}

/// Log-uniform over `[lo, hi]`: `exp(U(ln lo, ln hi))`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogUniform {
    pub lo: f64,
    pub hi: f64,
}

impl Sampler for LogUniform {
    fn sample(&self, rng: &mut DetRng) -> f64 {
        debug_assert!(self.lo > 0.0 && self.hi >= self.lo);
        rng.range_f64(self.lo.ln(), self.hi.ln()).exp()
    }
}

/// Rounds a sampled value up to the next "round" user estimate, mimicking
/// how users request 30 min / 1 h / 2 h / … wall-times.
pub(crate) fn round_up_to_common_limit(secs: f64) -> u64 {
    const LIMITS: &[u64] = &[
        300, 600, 1800, 3600, 7200, 14_400, 21_600, 43_200, 86_400, 172_800, 345_600, 604_800,
    ];
    let s = secs.max(1.0) as u64;
    for &l in LIMITS {
        if s <= l {
            return l;
        }
    }
    // Beyond a week: round up to whole days.
    s.div_ceil(86_400) * 86_400
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(0xC0FFEE)
    }

    /// Mean and population variance, two passes.
    fn moments(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        (mean, xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n)
    }

    fn sample_stats<S: Sampler>(s: &S, n: usize) -> (f64, f64) {
        let mut r = rng();
        moments(&(0..n).map(|_| s.sample(&mut r)).collect::<Vec<_>>())
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut r)).collect();
        let (mean, var) = moments(&xs);
        assert!(mean.abs() < 0.025, "mean {mean}");
        assert!((var - 1.0).abs() < 0.0375, "var {var}");
    }

    #[test]
    fn lognormal_median_and_mean() {
        let ln = LogNormal::from_median(100.0, 0.5);
        let mut r = rng();
        let mut samples: Vec<f64> = (0..20_001).map(|_| ln.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[10_000];
        assert!((median / 100.0 - 1.0).abs() < 0.05, "median {median}");
        // The theoretical mean is exp(mu + sigma²/2).
        let want = (ln.mu + ln.sigma * ln.sigma / 2.0).exp();
        let (mean, _) = sample_stats(&ln, 50_000);
        assert!((mean / want - 1.0).abs() < 0.05, "mean {mean} vs {want}");
    }

    #[test]
    fn exponential_mean() {
        let (mean, var) = sample_stats(&Exponential { mean: 42.0 }, 50_000);
        assert!((mean / 42.0 - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var / (42.0 * 42.0) - 1.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn loguniform_bounds_and_median() {
        let lu = LogUniform { lo: 1.0, hi: 1000.0 };
        let mut r = rng();
        let mut samples: Vec<f64> = (0..20_001).map(|_| lu.sample(&mut r)).collect();
        for &s in &samples {
            assert!((1.0..=1000.0).contains(&s));
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // median of log-uniform = geometric mean of bounds ≈ 31.6
        assert!((samples[10_000] / 31.62 - 1.0).abs() < 0.1);
    }

    #[test]
    fn round_up_limits() {
        assert_eq!(round_up_to_common_limit(1.0), 300);
        assert_eq!(round_up_to_common_limit(301.0), 600);
        assert_eq!(round_up_to_common_limit(3600.0), 3600);
        assert_eq!(round_up_to_common_limit(100_000.0), 172_800);
        assert_eq!(round_up_to_common_limit(700_000.0), 9 * 86_400);
    }

    #[test]
    fn sampling_is_deterministic() {
        let ln = LogNormal::from_median(100.0, 0.5);
        let a: Vec<f64> = {
            let mut r = DetRng::new(1);
            (0..10).map(|_| ln.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = DetRng::new(1);
            (0..10).map(|_| ln.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
