//! Distribution views of the per-job metrics.
//!
//! Averages hide the fairness story the paper tells in §4.2 (SD-Policy
//! "generates a more fair distribution of the slowdown"); percentiles make
//! it visible.

/// Percentile summary of one per-job metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Percentiles {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl Percentiles {
    /// Computes percentiles with linear interpolation; `None` when empty.
    pub fn compute(values: &mut [f64]) -> Option<Percentiles> {
        if values.is_empty() {
            return None;
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let at = |q: f64| -> f64 {
            let pos = q * (values.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                values[lo]
            } else {
                let frac = pos - lo as f64;
                values[lo] * (1.0 - frac) + values[hi] * frac
            }
        };
        Some(Percentiles {
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            max: *values.last().unwrap(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_sequence() {
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = Percentiles::compute(&mut v).unwrap();
        assert!((p.p50 - 50.5).abs() < 1e-9);
        assert!((p.p90 - 90.1).abs() < 1e-9);
        assert!((p.p99 - 99.01).abs() < 1e-9);
        assert_eq!(p.max, 100.0);
    }

    #[test]
    fn single_value() {
        let mut v = vec![7.0];
        let p = Percentiles::compute(&mut v).unwrap();
        assert_eq!(p, Percentiles { p50: 7.0, p90: 7.0, p99: 7.0, max: 7.0 });
    }

    #[test]
    fn empty_is_none() {
        assert!(Percentiles::compute(&mut [] as &mut [f64]).is_none());
    }

    #[test]
    fn unsorted_input_handled() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        let p = Percentiles::compute(&mut v).unwrap();
        assert_eq!(p.p50, 3.0);
        assert_eq!(p.max, 5.0);
    }
}
