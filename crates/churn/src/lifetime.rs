//! Weibull node-lifetime model.

use rand_distr::{Distribution, Weibull};

use armada_sim::SimRng;
use armada_types::SimDuration;

use crate::gamma::gamma;

/// A Weibull lifetime distribution parameterised by its *mean*, as the
/// paper specifies ("lifetime of edge nodes is modeled using Weibull
/// distribution (average lifetime = 50 seconds)").
///
/// # Examples
///
/// ```
/// use armada_churn::WeibullLifetime;
/// use armada_sim::SimRng;
/// use armada_types::SimDuration;
///
/// let life = WeibullLifetime::with_mean(SimDuration::from_secs(50), 1.5);
/// let mut rng = SimRng::seed_from(1);
/// let sample = life.sample(&mut rng);
/// assert!(sample > SimDuration::ZERO);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WeibullLifetime {
    shape: f64,
    scale_s: f64,
}

impl WeibullLifetime {
    /// Creates a lifetime distribution with the given mean and shape.
    /// The scale is derived via `mean = scale · Γ(1 + 1/shape)`.
    ///
    /// # Panics
    ///
    /// Panics if the mean is zero or the shape is not strictly positive
    /// and finite.
    pub fn with_mean(mean: SimDuration, shape: f64) -> Self {
        assert!(!mean.is_zero(), "mean lifetime must be positive");
        assert!(shape.is_finite() && shape > 0.0, "shape must be positive");
        let scale_s = mean.as_secs_f64() / gamma(1.0 + 1.0 / shape);
        WeibullLifetime { shape, scale_s }
    }

    /// The distribution's shape parameter.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The analytic mean of the distribution.
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.scale_s * gamma(1.0 + 1.0 / self.shape))
    }

    /// Draws one lifetime. Samples are clamped to at least one
    /// millisecond so a node never leaves before it finishes joining.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let dist = Weibull::new(self.scale_s, self.shape).expect("validated parameters");
        let secs: f64 = dist.sample(rng);
        SimDuration::from_secs_f64(secs).max(SimDuration::from_millis(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_mean_matches_requested() {
        let life = WeibullLifetime::with_mean(SimDuration::from_secs(50), 1.5);
        let mean = life.mean().as_secs_f64();
        assert!((mean - 50.0).abs() < 1e-6, "got {mean}");
    }

    #[test]
    fn empirical_mean_converges() {
        let life = WeibullLifetime::with_mean(SimDuration::from_secs(50), 1.5);
        let mut rng = SimRng::seed_from(99);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| life.sample(&mut rng).as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 50.0).abs() < 1.5, "empirical mean {mean}");
    }

    #[test]
    fn samples_are_positive() {
        let life = WeibullLifetime::with_mean(SimDuration::from_secs(1), 0.5);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1_000 {
            assert!(life.sample(&mut rng) >= SimDuration::from_millis(1));
        }
    }

    #[test]
    #[should_panic(expected = "mean lifetime")]
    fn zero_mean_rejected() {
        let _ = WeibullLifetime::with_mean(SimDuration::ZERO, 1.5);
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn bad_shape_rejected() {
        let _ = WeibullLifetime::with_mean(SimDuration::from_secs(50), 0.0);
    }
}
