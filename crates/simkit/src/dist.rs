//! Sampling distributions used by the workload generator and network model.
//!
//! Only the distributions the paper's evaluation axes require are provided:
//! exponential inter-arrival times (Poisson arrival process), uniform and
//! Zipfian data-item selection (hot-spot workloads), and fixed values for
//! deterministic delays. Everything is implemented via inverse-CDF /
//! rejection sampling on top of [`SimRng`] so the crate does not depend on
//! any external distribution library.

use crate::rng::SimRng;

/// A sampling distribution over `f64`.
pub trait Distribution {
    /// Draw one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution mean, used by analytic components (e.g. the STL
    /// estimator) that need expected values rather than samples.
    fn mean(&self) -> f64;
}

/// A degenerate distribution that always returns the same value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed(pub f64);

impl Distribution for Fixed {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.0
    }
    fn mean(&self) -> f64 {
        self.0
    }
}

/// A continuous uniform distribution on `[low, high)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Create a uniform distribution. Panics if `high < low` or either bound
    /// is not finite.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(
            low.is_finite() && high.is_finite(),
            "uniform bounds must be finite"
        );
        assert!(high >= low, "uniform requires high >= low");
        Uniform { low, high }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.low + (self.high - self.low) * rng.next_f64()
    }
    fn mean(&self) -> f64 {
        0.5 * (self.low + self.high)
    }
}

/// An exponential distribution with the given rate (events per unit time).
///
/// Sampling inter-arrival gaps from `Exponential::with_rate(lambda)` produces
/// a Poisson arrival process of rate `lambda`, which is the open-workload
/// arrival model the paper's Section 5 sweeps over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Create an exponential distribution from its rate parameter λ > 0.
    pub fn with_rate(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be positive"
        );
        Exponential { rate }
    }

    /// Create an exponential distribution from its mean (1/λ).
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive"
        );
        Exponential { rate: 1.0 / mean }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF; 1 - u avoids ln(0).
        let u = 1.0 - rng.next_f64();
        -u.ln() / self.rate
    }
    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

/// A Zipfian distribution over the integers `0..n`, returned as `f64`
/// item indices. Used for skewed (hot-spot) data-access workloads.
///
/// `theta = 0` degenerates to uniform; larger `theta` is more skewed.
/// Sampling uses the precomputed-CDF inverse-transform method, which is exact
/// and fast for the catalogue sizes used in the experiments (≤ ~100k items).
#[derive(Debug, Clone)]
pub struct Zipfian {
    cdf: Vec<f64>,
}

impl Zipfian {
    /// Create a Zipfian distribution over `0..n` with skew parameter `theta >= 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipfian needs a non-empty support");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "zipfian skew must be >= 0"
        );
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        // Guard against floating point drift on the last bucket.
        if let Some(last) = weights.last_mut() {
            *last = 1.0;
        }
        Zipfian { cdf: weights }
    }

    /// Draw an item index in `[0, n)`.
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

impl Distribution for Zipfian {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_index(rng) as f64
    }
    fn mean(&self) -> f64 {
        // E[X] under the CDF representation: sum over k of (1 - F(k)).
        let n = self.cdf.len();
        let mut mean = 0.0;
        for k in 0..n {
            let p_k = if k == 0 {
                self.cdf[0]
            } else {
                self.cdf[k] - self.cdf[k - 1]
            };
            mean += k as f64 * p_k;
        }
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean<D: Distribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn fixed_always_returns_value() {
        let d = Fixed(3.25);
        let mut rng = SimRng::new(0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.25);
        }
        assert_eq!(d.mean(), 3.25);
    }

    #[test]
    fn uniform_samples_within_bounds_and_mean_matches() {
        let d = Uniform::new(2.0, 6.0);
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&v));
        }
        assert!((sample_mean(&d, 100_000, 2) - 4.0).abs() < 0.05);
        assert_eq!(d.mean(), 4.0);
    }

    #[test]
    #[should_panic(expected = "high >= low")]
    fn uniform_rejects_inverted_bounds() {
        let _ = Uniform::new(5.0, 1.0);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let d = Exponential::with_rate(0.5);
        assert_eq!(d.mean(), 2.0);
        let m = sample_mean(&d, 200_000, 3);
        assert!((m - 2.0).abs() < 0.05, "sample mean {m}");
        let d2 = Exponential::with_mean(4.0);
        assert!((sample_mean(&d2, 200_000, 4) - 4.0).abs() < 0.1);
    }

    #[test]
    fn exponential_is_nonnegative() {
        let d = Exponential::with_rate(3.0);
        let mut rng = SimRng::new(6);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::with_rate(0.0);
    }

    #[test]
    fn zipfian_theta_zero_is_uniformish() {
        let d = Zipfian::new(10, 0.0);
        let mut rng = SimRng::new(7);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[d.sample_index(&mut rng)] += 1;
        }
        for &c in &counts {
            let freq = c as f64 / 100_000.0;
            assert!((freq - 0.1).abs() < 0.01, "freq {freq}");
        }
    }

    #[test]
    fn zipfian_skew_prefers_small_indices() {
        let d = Zipfian::new(100, 1.0);
        let mut rng = SimRng::new(8);
        let mut count0 = 0;
        let mut count99 = 0;
        for _ in 0..100_000 {
            match d.sample_index(&mut rng) {
                0 => count0 += 1,
                99 => count99 += 1,
                _ => {}
            }
        }
        assert!(count0 > 10 * count99.max(1), "0: {count0}, 99: {count99}");
    }

    #[test]
    fn zipfian_indices_in_range() {
        let d = Zipfian::new(17, 0.8);
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            assert!(d.sample_index(&mut rng) < 17);
        }
    }

    #[test]
    fn zipfian_mean_is_consistent_with_samples() {
        let d = Zipfian::new(50, 0.9);
        let analytic = d.mean();
        let empirical = sample_mean(&d, 200_000, 10);
        assert!(
            (analytic - empirical).abs() < 0.5,
            "{analytic} vs {empirical}"
        );
    }
}
