//! Running summary statistics.

use serde::{Deserialize, Serialize};

/// Running count / mean / variance accumulator using Welford's online
/// algorithm, plus min/max tracking.
///
/// Used throughout the workspace for latency, energy and speedup series.
/// The 95% confidence half-width uses the normal approximation
/// (`1.96 · stderr`), which is what the paper's error bars report for its
/// 21-application samples.
///
/// # Examples
///
/// ```
/// use rcsim_stats::Accumulator;
///
/// let acc: Accumulator = [2.0_f64, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
///     .into_iter()
///     .collect();
/// assert_eq!(acc.mean(), 5.0);
/// assert!((acc.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds `n` identical observations of value `x` (e.g. histogram bins).
    pub fn add_n(&mut self, x: f64, n: u64) {
        for _ in 0..n {
            self.add(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }

    /// Arithmetic mean. Returns 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Unbiased sample variance (`n - 1` denominator); 0 if fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (`n` denominator); 0 if empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean (`s / sqrt(n)`); 0 if fewer than two
    /// observations.
    pub fn std_err(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of the 95% confidence interval of the mean, using the
    /// normal approximation (`1.96 · stderr`).
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_err()
    }
}

impl FromIterator<f64> for Accumulator {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = Accumulator::new();
        acc.extend(iter);
        acc
    }
}

impl Extend<f64> for Accumulator {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_safe() {
        let acc = Accumulator::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.std_err(), 0.0);
        assert_eq!(acc.min(), None);
        assert_eq!(acc.max(), None);
    }

    #[test]
    fn single_observation() {
        let mut acc = Accumulator::new();
        acc.add(42.0);
        assert_eq!(acc.mean(), 42.0);
        assert_eq!(acc.min(), Some(42.0));
        assert_eq!(acc.max(), Some(42.0));
        assert_eq!(acc.sample_variance(), 0.0);
    }

    #[test]
    fn known_variance() {
        let acc: Accumulator = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((acc.population_variance() - 4.0).abs() < 1e-12);
        assert!((acc.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn add_n_equals_repeated_add() {
        let mut a = Accumulator::new();
        a.add_n(3.0, 5);
        let b: Accumulator = std::iter::repeat_n(3.0, 5).collect();
        assert_eq!(a.count(), b.count());
        assert!((a.mean() - b.mean()).abs() < 1e-12);
    }

    #[test]
    fn ci95_shrinks_with_samples() {
        let small: Accumulator = (0..10).map(|i| i as f64).collect();
        let large: Accumulator = (0..1000).map(|i| (i % 10) as f64).collect();
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }
}
