//! Job arrival processes.
//!
//! The Cirne model is configured with the **ANL arrival pattern** (paper
//! §4): a non-homogeneous Poisson process with a strong daily cycle (peak
//! submissions during working hours) and a weekend dip. We implement it by
//! thinning a homogeneous Poisson process against an hour-of-day × weekday
//! intensity profile.

use crate::dist::{Exponential, Sampler};
use simkit::{DetRng, DAY, HOUR};

/// Hour-of-day relative intensity profile (ANL-like: low at night, ramping
/// from 8 h, peak 10 h–17 h, tapering in the evening). Mean is ~1.0.
pub(crate) const ANL_HOURLY: [f64; 24] = [
    0.35, 0.30, 0.25, 0.22, 0.20, 0.22, 0.35, 0.60, 1.10, 1.60, 1.90, 2.00, 1.85, 1.90, 1.95,
    1.85, 1.70, 1.50, 1.20, 0.95, 0.80, 0.65, 0.50, 0.40,
];

/// A non-homogeneous Poisson arrival process.
#[derive(Debug, Clone)]
pub struct ArrivalModel {
    /// Mean interarrival time in seconds at intensity 1.0.
    pub mean_interarrival: f64,
    /// Relative intensity per hour of day (24 entries).
    pub(crate) hourly: [f64; 24],
    /// Multiplier applied on Saturdays/Sundays (day 5 and 6 of the week;
    /// the trace starts on a Monday by convention).
    pub weekend_factor: f64,
}

impl ArrivalModel {
    /// Constant-rate Poisson arrivals.
    pub fn uniform(mean_interarrival: f64) -> ArrivalModel {
        ArrivalModel {
            mean_interarrival,
            hourly: [1.0; 24],
            weekend_factor: 1.0,
        }
    }

    /// The ANL pattern used for the Cirne workloads.
    pub fn anl(mean_interarrival: f64) -> ArrivalModel {
        ArrivalModel {
            mean_interarrival,
            hourly: ANL_HOURLY,
            weekend_factor: 0.55,
        }
    }

    /// A stylised square-wave day/night cycle: working hours (8 h–20 h) run
    /// at `contrast` times the night intensity, normalised so the profile's
    /// mean stays 1.0 (the configured `mean_interarrival` is preserved).
    /// `contrast` is clamped to ≥ 1.
    pub fn day_night(mean_interarrival: f64, contrast: f64) -> ArrivalModel {
        let c = contrast.max(1.0);
        let mut hourly = [1.0; 24];
        for (h, v) in hourly.iter_mut().enumerate() {
            if (8..20).contains(&h) {
                *v = c;
            }
        }
        let mean: f64 = hourly.iter().sum::<f64>() / 24.0;
        for v in hourly.iter_mut() {
            *v /= mean;
        }
        ArrivalModel {
            mean_interarrival,
            hourly,
            weekend_factor: 1.0,
        }
    }

    /// Sets the weekend intensity multiplier (builder-style).
    pub fn with_weekend_factor(mut self, factor: f64) -> ArrivalModel {
        self.weekend_factor = factor.max(0.0);
        self
    }

    /// Relative intensity at a given instant (hour cycle × weekend factor).
    pub fn intensity(&self, t: u64) -> f64 {
        let hour = ((t % DAY) / HOUR) as usize;
        let weekday = (t / DAY) % 7;
        let wf = if weekday >= 5 { self.weekend_factor } else { 1.0 };
        self.hourly[hour] * wf
    }

    /// Peak relative intensity (thinning envelope).
    fn peak(&self) -> f64 {
        let hmax = self.hourly.iter().cloned().fold(0.0_f64, f64::max);
        hmax * self.weekend_factor.max(1.0)
    }

    /// Generates `n` arrival instants (seconds, non-decreasing, starting
    /// after `t0`) by thinning.
    pub fn generate(&self, n: usize, t0: u64, rng: &mut DetRng) -> Vec<u64> {
        let peak = self.peak().max(1e-9);
        // Homogeneous candidate process at the peak rate.
        let gap = Exponential {
            mean: self.mean_interarrival / peak,
        };
        let mut out = Vec::with_capacity(n);
        let mut t = t0 as f64;
        while out.len() < n {
            t += gap.sample(rng).max(1e-9);
            let accept_p = self.intensity(t as u64) / peak;
            if rng.chance(accept_p) {
                out.push(t as u64);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_mean_interarrival_matches() {
        let m = ArrivalModel::uniform(100.0);
        let mut rng = DetRng::new(3);
        let arr = m.generate(20_000, 0, &mut rng);
        let span = (arr.last().unwrap() - arr[0]) as f64;
        let mean = span / (arr.len() - 1) as f64;
        assert!((mean / 100.0 - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn arrivals_are_nondecreasing() {
        let m = ArrivalModel::anl(60.0);
        let mut rng = DetRng::new(7);
        let arr = m.generate(5_000, 1_000, &mut rng);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(arr[0] >= 1_000);
    }

    #[test]
    fn anl_daytime_heavier_than_night() {
        let m = ArrivalModel::anl(30.0);
        let mut rng = DetRng::new(11);
        let arr = m.generate(50_000, 0, &mut rng);
        let mut day = 0usize;
        let mut night = 0usize;
        for &t in &arr {
            let hour = (t % DAY) / HOUR;
            if (10..18).contains(&hour) {
                day += 1;
            } else if hour < 6 {
                night += 1;
            }
        }
        // 8 daytime hours vs 6 night hours; intensity ratio ≈ 1.9/0.25 ≈ 7.6,
        // so even normalised per hour the day count dominates clearly.
        assert!(day > 3 * night, "day {day} night {night}");
    }

    #[test]
    fn weekend_dip_visible() {
        let m = ArrivalModel::anl(30.0);
        let mut rng = DetRng::new(13);
        let arr = m.generate(100_000, 0, &mut rng);
        let mut weekday = 0usize;
        let mut weekend = 0usize;
        for &t in &arr {
            if (t / DAY) % 7 >= 5 {
                weekend += 1;
            } else {
                weekday += 1;
            }
        }
        let per_weekday = weekday as f64 / 5.0;
        let per_weekend = weekend as f64 / 2.0;
        let ratio = per_weekend / per_weekday;
        assert!((0.40..0.75).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn generation_is_deterministic() {
        let m = ArrivalModel::anl(45.0);
        let a = m.generate(100, 0, &mut DetRng::new(5));
        let b = m.generate(100, 0, &mut DetRng::new(5));
        assert_eq!(a, b);
    }

    #[test]
    fn day_night_contrast_and_mean_preserved() {
        let m = ArrivalModel::day_night(50.0, 4.0);
        // Mean intensity stays 1.0 so the configured rate is honoured.
        let mean: f64 = m.hourly.iter().sum::<f64>() / 24.0;
        assert!((mean - 1.0).abs() < 1e-12, "mean {mean}");
        // Day vs night ratio equals the contrast.
        assert!((m.hourly[12] / m.hourly[2] - 4.0).abs() < 1e-12);
        assert_eq!(m.weekend_factor, 1.0);
        // Degenerate contrast collapses to uniform.
        let flat = ArrivalModel::day_night(50.0, 0.5);
        assert!(flat.hourly.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn weekend_factor_builder() {
        let m = ArrivalModel::day_night(30.0, 2.0).with_weekend_factor(0.3);
        assert!((m.weekend_factor - 0.3).abs() < 1e-12);
        let sat = 5 * DAY + 12 * HOUR;
        assert!(m.intensity(sat) < m.intensity(12 * HOUR));
    }

    #[test]
    fn intensity_profile_lookup() {
        let m = ArrivalModel::anl(1.0);
        assert_eq!(m.intensity(11 * HOUR), ANL_HOURLY[11]);
        // Saturday (day 5), 11:00
        let sat = 5 * DAY + 11 * HOUR;
        assert!((m.intensity(sat) - ANL_HOURLY[11] * 0.55).abs() < 1e-12);
    }
}
