//! The what-if cache and the node-side performance monitor.

use armada_types::{SimDuration, SimTime};

/// The cached "what-if" processing measurement (paper §IV-C2).
///
/// `Process_probe()` answers from this cache; the test workload is only
/// re-run when node state changes, so heavy probing traffic does not
/// multiply test-workload invocations (the effect measured in Fig. 9a/9b).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WhatIfCache {
    value: Option<SimDuration>,
    /// When the cached value was measured.
    measured_at: Option<SimTime>,
    /// A refresh has been requested/scheduled but not yet completed.
    refresh_pending: bool,
}

impl WhatIfCache {
    /// An empty cache; [`WhatIfCache::get`] falls back to the supplied
    /// default until the first measurement lands.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached value, or `fallback` (typically the node's uncontended
    /// base frame time) before the first measurement.
    pub fn get(&self, fallback: SimDuration) -> SimDuration {
        self.value.unwrap_or(fallback)
    }

    /// When the current value was measured, if ever.
    pub fn measured_at(&self) -> Option<SimTime> {
        self.measured_at
    }

    /// `true` while a refresh is in flight — used to coalesce triggers.
    pub fn refresh_pending(&self) -> bool {
        self.refresh_pending
    }

    /// Marks a refresh as requested. Returns `false` if one was already
    /// pending (the caller should not start another test workload).
    pub fn begin_refresh(&mut self) -> bool {
        if self.refresh_pending {
            return false;
        }
        self.refresh_pending = true;
        true
    }

    /// Stores a completed measurement.
    pub fn store(&mut self, value: SimDuration, at: SimTime) {
        self.value = Some(value);
        self.measured_at = Some(at);
        self.refresh_pending = false;
    }
}

/// EWMA-based monitor of live-frame processing times.
///
/// Implements the paper's third test-workload trigger: "performance
/// monitor in edge nodes reports noticeable change of processing time
/// under the same number of attached users" — e.g. adaptive request
/// rates, or host workloads outside the system's control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfMonitor {
    ewma_ms: f64,
    /// EWMA value when the test workload last ran; drift is measured
    /// against this basis.
    basis_ms: f64,
    alpha: f64,
    /// Relative drift that trips the trigger.
    threshold: f64,
}

impl PerfMonitor {
    /// Creates a monitor tripping at the given relative drift (e.g.
    /// `0.25` for ±25 %).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not strictly positive and finite.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "drift threshold must be positive"
        );
        PerfMonitor {
            ewma_ms: 0.0,
            basis_ms: 0.0,
            alpha: 0.2,
            threshold,
        }
    }

    /// The smoothed measured processing delay of live frames
    /// (`D_proc_current`).
    pub fn current(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.ewma_ms)
    }

    /// Feeds one live-frame processing measurement. Returns `true` if
    /// the drift against the last test-workload basis exceeds the
    /// threshold — i.e. the test workload should be re-invoked.
    pub fn observe(&mut self, processing: SimDuration) -> bool {
        let ms = processing.as_millis_f64();
        self.ewma_ms = if self.ewma_ms == 0.0 {
            ms
        } else {
            self.alpha * ms + (1.0 - self.alpha) * self.ewma_ms
        };
        if self.basis_ms <= 0.0 {
            return false;
        }
        (self.ewma_ms - self.basis_ms).abs() / self.basis_ms > self.threshold
    }

    /// Records that the test workload ran when no live traffic has been
    /// observed yet: the test measurement itself seeds the drift basis.
    pub fn rebase_with(&mut self, measured: SimDuration) {
        self.basis_ms = if self.ewma_ms > 0.0 {
            self.ewma_ms
        } else {
            measured.as_millis_f64()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_falls_back_before_first_measurement() {
        let cache = WhatIfCache::new();
        assert_eq!(
            cache.get(SimDuration::from_millis(24)),
            SimDuration::from_millis(24)
        );
        assert_eq!(cache.measured_at(), None);
    }

    #[test]
    fn cache_serves_stored_value() {
        let mut cache = WhatIfCache::new();
        assert!(cache.begin_refresh());
        cache.store(SimDuration::from_millis(37), SimTime::from_secs(1));
        assert_eq!(cache.get(SimDuration::ZERO), SimDuration::from_millis(37));
        assert_eq!(cache.measured_at(), Some(SimTime::from_secs(1)));
        assert!(!cache.refresh_pending());
    }

    #[test]
    fn concurrent_refreshes_coalesce() {
        let mut cache = WhatIfCache::new();
        assert!(cache.begin_refresh());
        assert!(!cache.begin_refresh(), "second trigger must coalesce");
        cache.store(SimDuration::from_millis(10), SimTime::ZERO);
        assert!(cache.begin_refresh(), "after store a new refresh may start");
    }

    #[test]
    fn monitor_silent_before_basis() {
        let mut m = PerfMonitor::new(0.25);
        // Without a basis, even wild swings don't trigger.
        assert!(!m.observe(SimDuration::from_millis(10)));
        assert!(!m.observe(SimDuration::from_millis(500)));
    }

    #[test]
    fn monitor_detects_sustained_drift() {
        let mut m = PerfMonitor::new(0.25);
        for _ in 0..20 {
            m.observe(SimDuration::from_millis(30));
        }
        m.rebase_with(SimDuration::ZERO);
        // Stable performance: no trigger.
        assert!(!m.observe(SimDuration::from_millis(31)));
        // Sustained slowdown (e.g. host workload): triggers once EWMA
        // drifts past 25 %.
        let mut fired = false;
        for _ in 0..30 {
            fired |= m.observe(SimDuration::from_millis(60));
        }
        assert!(fired);
    }

    #[test]
    fn monitor_detects_speedup_too() {
        let mut m = PerfMonitor::new(0.25);
        for _ in 0..20 {
            m.observe(SimDuration::from_millis(60));
        }
        m.rebase_with(SimDuration::ZERO);
        let mut fired = false;
        for _ in 0..30 {
            fired |= m.observe(SimDuration::from_millis(20));
        }
        assert!(fired, "drift is two-sided");
    }

    #[test]
    fn rebase_resets_drift() {
        let mut m = PerfMonitor::new(0.25);
        for _ in 0..10 {
            m.observe(SimDuration::from_millis(30));
        }
        m.rebase_with(SimDuration::ZERO);
        for _ in 0..30 {
            m.observe(SimDuration::from_millis(60));
        }
        m.rebase_with(SimDuration::ZERO);
        assert!(
            !m.observe(SimDuration::from_millis(60)),
            "fresh basis, no drift"
        );
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn bad_threshold_rejected() {
        let _ = PerfMonitor::new(0.0);
    }
}
