//! Client-side adaptive frame-rate control.
//!
//! The paper's AR application sends frames "at a max rate of 20 FPS
//! (which can adaptively decrease based on the network and processing
//! performance)". This controller implements that behaviour with AIMD:
//! multiplicative decrease when observed end-to-end latency exceeds the
//! target, additive recovery toward the cap otherwise.

use armada_types::SimDuration;

/// An additive-increase / multiplicative-decrease frame-rate controller.
///
/// # Examples
///
/// ```
/// use armada_types::SimDuration;
/// use armada_workload::AimdController;
///
/// let mut ctl = AimdController::new(20.0, SimDuration::from_millis(100));
/// assert_eq!(ctl.fps(), 20.0);
/// // Latency above target: back off.
/// ctl.on_latency(SimDuration::from_millis(250));
/// assert!(ctl.fps() < 20.0);
/// // Healthy latency: creep back up.
/// for _ in 0..100 { ctl.on_latency(SimDuration::from_millis(40)); }
/// assert_eq!(ctl.fps(), 20.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AimdController {
    fps: f64,
    max_fps: f64,
    min_fps: f64,
    target: SimDuration,
    additive_step: f64,
    decrease_factor: f64,
    /// EWMA of observed latency in ms (for inspection/metrics).
    ewma_ms: f64,
    /// Whether `ewma_ms` holds a real observation yet. A sentinel value
    /// cannot stand in for this: a genuine 0 ms observation must seed
    /// the EWMA once and then be smoothed over, not re-seed it forever.
    ewma_seeded: bool,
    ewma_alpha: f64,
}

impl AimdController {
    /// Creates a controller starting at `max_fps` with the given latency
    /// target.
    ///
    /// # Panics
    ///
    /// Panics if `max_fps` is not strictly positive and finite.
    pub fn new(max_fps: f64, target: SimDuration) -> Self {
        assert!(
            max_fps.is_finite() && max_fps > 0.0,
            "max_fps must be positive"
        );
        AimdController {
            fps: max_fps,
            max_fps,
            min_fps: (max_fps / 20.0).max(0.5),
            target,
            additive_step: 0.5,
            decrease_factor: 0.7,
            ewma_ms: 0.0,
            ewma_seeded: false,
            ewma_alpha: 0.3,
        }
    }

    /// Current frame rate in frames per second.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// The configured latency target.
    pub fn target(&self) -> SimDuration {
        self.target
    }

    /// The inter-frame interval at the current rate.
    pub fn frame_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.fps)
    }

    /// Feeds one end-to-end latency observation, adapting the rate.
    pub fn on_latency(&mut self, latency: SimDuration) {
        let ms = latency.as_millis_f64();
        self.ewma_ms = if self.ewma_seeded {
            self.ewma_alpha * ms + (1.0 - self.ewma_alpha) * self.ewma_ms
        } else {
            self.ewma_seeded = true;
            ms
        };
        if SimDuration::from_millis_f64(self.ewma_ms) > self.target {
            self.fps = (self.fps * self.decrease_factor).max(self.min_fps);
        } else {
            self.fps = (self.fps + self.additive_step).min(self.max_fps);
        }
    }

    /// Resets the rate to the cap and clears the latency estimate — used
    /// when switching to a different edge node, whose performance is
    /// unrelated to the previous one's.
    pub fn reset(&mut self) {
        self.fps = self.max_fps;
        self.ewma_ms = 0.0;
        self.ewma_seeded = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctl() -> AimdController {
        AimdController::new(20.0, SimDuration::from_millis(100))
    }

    /// The latency estimate the rate adapts on.
    fn smoothed(c: &AimdController) -> SimDuration {
        SimDuration::from_millis_f64(c.ewma_ms)
    }

    #[test]
    fn starts_at_cap() {
        let c = ctl();
        assert_eq!(c.fps(), 20.0);
        assert_eq!(c.frame_interval(), SimDuration::from_millis(50));
    }

    #[test]
    fn sustained_overload_floors_at_min() {
        let mut c = ctl();
        for _ in 0..100 {
            c.on_latency(SimDuration::from_millis(500));
        }
        assert_eq!(c.fps(), 1.0, "min fps is max/20");
    }

    #[test]
    fn recovery_is_gradual() {
        let mut c = ctl();
        for _ in 0..10 {
            c.on_latency(SimDuration::from_millis(400));
        }
        let low = c.fps();
        c.on_latency(SimDuration::from_millis(10));
        // EWMA still elevated right after overload; eventually recovers.
        for _ in 0..200 {
            c.on_latency(SimDuration::from_millis(10));
        }
        assert!(c.fps() > low);
        assert_eq!(c.fps(), 20.0);
    }

    #[test]
    fn single_spike_does_not_collapse_rate() {
        let mut c = ctl();
        for _ in 0..20 {
            c.on_latency(SimDuration::from_millis(40));
        }
        c.on_latency(SimDuration::from_millis(180));
        // EWMA absorbs one spike: 0.3·180 + 0.7·40 = 82 < 100.
        assert_eq!(c.fps(), 20.0);
    }

    #[test]
    fn reset_restores_cap_and_clears_ewma() {
        let mut c = ctl();
        for _ in 0..50 {
            c.on_latency(SimDuration::from_millis(300));
        }
        assert!(c.fps() < 20.0);
        c.reset();
        assert_eq!(c.fps(), 20.0);
        assert_eq!(smoothed(&c), SimDuration::ZERO);
    }

    /// Regression: `ewma_ms == 0.0` used to double as the "unseeded"
    /// sentinel, so a genuine 0 ms observation silently re-seeded the
    /// EWMA on every subsequent sample instead of being smoothed over.
    #[test]
    fn zero_latency_seeds_once_then_smooths() {
        let mut c = ctl();
        c.on_latency(SimDuration::ZERO);
        assert_eq!(smoothed(&c), SimDuration::ZERO);
        // The next observation must be smoothed against the seeded 0 ms
        // estimate (0.3 · 100 + 0.7 · 0 = 30 ms), not replace it.
        c.on_latency(SimDuration::from_millis(100));
        assert_eq!(smoothed(&c), SimDuration::from_millis(30));
    }

    /// After `reset()` the estimate is deliberately cleared: the first
    /// observation on the new node re-seeds, the second smooths.
    #[test]
    fn reset_then_observe_reseeds_then_smooths() {
        let mut c = ctl();
        for _ in 0..50 {
            c.on_latency(SimDuration::from_millis(300));
        }
        c.reset();
        c.on_latency(SimDuration::from_millis(40));
        assert_eq!(
            smoothed(&c),
            SimDuration::from_millis(40),
            "first post-reset sample seeds the estimate outright"
        );
        c.on_latency(SimDuration::from_millis(140));
        // 0.3 · 140 + 0.7 · 40 = 70 ms.
        assert_eq!(smoothed(&c), SimDuration::from_millis(70));
    }

    #[test]
    #[should_panic(expected = "max_fps must be positive")]
    fn zero_cap_rejected() {
        let _ = AimdController::new(0.0, SimDuration::from_millis(100));
    }

    proptest! {
        #[test]
        fn fps_always_within_bounds(
            latencies in proptest::collection::vec(0u64..1_000, 1..300),
        ) {
            let mut c = ctl();
            for ms in latencies {
                c.on_latency(SimDuration::from_millis(ms));
                prop_assert!(c.fps() >= 1.0 - 1e-9);
                prop_assert!(c.fps() <= 20.0 + 1e-9);
            }
        }

        #[test]
        fn good_latency_never_decreases_rate(
            start_bad in 1usize..20,
        ) {
            let mut c = ctl();
            for _ in 0..start_bad {
                c.on_latency(SimDuration::from_millis(400));
            }
            // Wait for the EWMA to drain below target with good samples,
            // after which fps must be non-decreasing.
            let mut draining = true;
            let mut prev = c.fps();
            for _ in 0..100 {
                c.on_latency(SimDuration::from_millis(5));
                if !draining {
                    prop_assert!(c.fps() >= prev);
                }
                if smoothed(&c) <= c.target() {
                    draining = false;
                }
                prev = c.fps();
            }
        }
    }
}
