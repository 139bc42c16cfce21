/// The one formula behind every reported average: a count and a running
/// sum, added in call order and divided once on read, so two folds over the
/// same values in the same order agree bit for bit. The mean of nothing is 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mean {
    n: u64,
    sum: f64,
}

impl Mean {
    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

impl FromIterator<f64> for Mean {
    fn from_iter<I: IntoIterator<Item = f64>>(it: I) -> Mean {
        let mut m = Mean::default();
        for x in it {
            m.add(x);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_sum_over_count() {
        let m: Mean = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert_eq!(m.count(), 8);
        assert_eq!(m.mean(), 5.0);
    }

    #[test]
    fn empty_mean_is_zero() {
        assert_eq!(Mean::default().mean(), 0.0);
        assert_eq!(Mean::default().count(), 0);
    }

    #[test]
    fn folds_in_call_order() {
        // The same additions, in the same order, a hand-written loop does.
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 0.1).collect();
        let mut sum = 0.0;
        for &x in &xs {
            sum += x;
        }
        let m: Mean = xs.iter().copied().collect();
        assert_eq!(m.mean().to_bits(), (sum / 100.0).to_bits());
    }
}
