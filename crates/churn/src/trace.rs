//! Replayable churn traces.

use rand_distr::{Distribution, Poisson};

use armada_sim::SimRng;
use armada_types::{SimDuration, SimTime};

use crate::lifetime::WeibullLifetime;

/// One node's lifecycle within a churn trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Trace-local node index (0-based, in join order).
    pub index: usize,
    /// When the node joins the system.
    pub join_at: SimTime,
    /// When the node leaves/fails (never before `join_at`).
    pub leave_at: SimTime,
}

impl ChurnEvent {
    /// `true` if the node is alive at `t` (join inclusive, leave
    /// exclusive).
    pub fn alive_at(&self, t: SimTime) -> bool {
        self.join_at <= t && t < self.leave_at
    }

    /// The node's lifetime.
    pub fn lifetime(&self) -> SimDuration {
        self.leave_at.saturating_since(self.join_at)
    }
}

/// A generated, replayable churn trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnTrace {
    events: Vec<ChurnEvent>,
    duration: SimDuration,
}

impl ChurnTrace {
    /// The per-node lifecycle events, in join order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// The timeline length the trace was generated for.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Total number of nodes appearing over the timeline.
    pub fn total_nodes(&self) -> usize {
        self.events.len()
    }

    /// Number of nodes alive at `t` — the grey stair line of Fig. 8.
    pub fn alive_at(&self, t: SimTime) -> usize {
        self.events.iter().filter(|e| e.alive_at(t)).count()
    }

    /// The paper's Fig. 8 configuration: a pinned-seed trace with
    /// arrivals Poisson(k = 4) per 30 s window and Weibull(mean = 50 s)
    /// lifetimes over a 3-minute timeline, seeded so that exactly 18
    /// nodes appear — "We randomly select a configuration from multiple
    /// runs of this process, which results in a total of 18 edge nodes
    /// over a 3-minute timeline."
    pub fn paper_fig8() -> ChurnTrace {
        let builder = ChurnTraceBuilder::new()
            .duration(SimDuration::from_secs(180))
            .window(SimDuration::from_secs(30))
            .arrivals_per_window(4.0)
            .mean_lifetime(SimDuration::from_secs(50))
            .initial_nodes(3);
        // Seed selected by scanning (see test
        // `paper_fig8_has_18_nodes`): the first seed whose draw yields
        // 18 total nodes *and* keeps at least 3 nodes alive at every
        // second — mirroring the paper's "randomly select a
        // configuration from multiple runs" (their Fig. 8 stair line
        // never empties either; continuous service requires it).
        for seed in 0..100_000 {
            let trace = builder.clone().build(&mut SimRng::seed_from(seed));
            if trace.total_nodes() != 18 {
                continue;
            }
            let min_alive = (0..=180)
                .map(|s| trace.alive_at(SimTime::from_secs(s)))
                .min()
                .unwrap_or(0);
            if min_alive >= 3 {
                return trace;
            }
        }
        unreachable!("a qualifying seed exists in the scanned range")
    }
}

/// Builder for [`ChurnTrace`]s.
#[derive(Debug, Clone)]
pub struct ChurnTraceBuilder {
    duration: SimDuration,
    window: SimDuration,
    arrivals_per_window: f64,
    lifetime_mean: SimDuration,
    lifetime_shape: f64,
    initial_nodes: usize,
}

impl Default for ChurnTraceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ChurnTraceBuilder {
    /// Starts from the paper's §V-D2 defaults: 3-minute timeline, 30 s
    /// windows, Poisson(k = 4) arrivals, Weibull lifetimes with 50 s
    /// mean and shape 1.5, no initial nodes.
    pub fn new() -> Self {
        ChurnTraceBuilder {
            duration: SimDuration::from_secs(180),
            window: SimDuration::from_secs(30),
            arrivals_per_window: 4.0,
            lifetime_mean: SimDuration::from_secs(50),
            lifetime_shape: 1.5,
            initial_nodes: 0,
        }
    }

    /// Timeline length.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Arrival-window length (paper: 30 s).
    pub fn window(mut self, w: SimDuration) -> Self {
        self.window = w;
        self
    }

    /// Mean arrivals per window (paper: `k = 4`).
    pub fn arrivals_per_window(mut self, k: f64) -> Self {
        self.arrivals_per_window = k;
        self
    }

    /// Mean node lifetime (paper: 50 s).
    pub fn mean_lifetime(mut self, mean: SimDuration) -> Self {
        self.lifetime_mean = mean;
        self
    }

    /// Weibull shape parameter (default 1.5).
    pub fn lifetime_shape(mut self, shape: f64) -> Self {
        self.lifetime_shape = shape;
        self
    }

    /// Nodes already alive at t = 0 (their lifetimes start then).
    pub fn initial_nodes(mut self, n: usize) -> Self {
        self.initial_nodes = n;
        self
    }

    /// Generates a trace from the configured models.
    ///
    /// # Panics
    ///
    /// Panics if the duration or window is zero, or the arrival rate is
    /// not positive and finite.
    pub fn build(self, rng: &mut SimRng) -> ChurnTrace {
        assert!(!self.duration.is_zero(), "duration must be positive");
        assert!(!self.window.is_zero(), "window must be positive");
        assert!(
            self.arrivals_per_window.is_finite() && self.arrivals_per_window > 0.0,
            "arrival rate must be positive"
        );
        let lifetime = WeibullLifetime::with_mean(self.lifetime_mean, self.lifetime_shape);
        let poisson = Poisson::new(self.arrivals_per_window).expect("validated rate");

        let mut joins: Vec<SimTime> = (0..self.initial_nodes).map(|_| SimTime::ZERO).collect();
        let mut window_start = SimTime::ZERO;
        let end = SimTime::ZERO + self.duration;
        while window_start < end {
            let window_end = (window_start + self.window).min(end);
            let count = poisson.sample(rng) as usize;
            let span_us = (window_end - window_start).as_micros();
            for _ in 0..count {
                let offset = if span_us == 0 {
                    0
                } else {
                    rng.uniform(0.0, span_us as f64) as u64
                };
                let at = window_start + SimDuration::from_micros(offset);
                if at < end {
                    joins.push(at);
                }
            }
            window_start = window_end;
        }
        joins.sort_unstable();

        let events = joins
            .into_iter()
            .enumerate()
            .map(|(index, join_at)| {
                let leave_at = join_at + lifetime.sample(rng);
                ChurnEvent {
                    index,
                    join_at,
                    leave_at,
                }
            })
            .collect();
        ChurnTrace {
            events,
            duration: self.duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(seed: u64) -> ChurnTrace {
        ChurnTraceBuilder::new()
            .initial_nodes(2)
            .build(&mut SimRng::seed_from(seed))
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        assert_eq!(build(5), build(5));
        assert_ne!(build(5), build(6));
    }

    #[test]
    fn joins_are_sorted_and_within_duration() {
        let trace = build(11);
        let end = SimTime::ZERO + trace.duration();
        let mut prev = SimTime::ZERO;
        for e in trace.events() {
            assert!(e.join_at >= prev);
            assert!(e.join_at < end);
            assert!(e.leave_at > e.join_at, "lifetimes are strictly positive");
            prev = e.join_at;
        }
    }

    #[test]
    fn initial_nodes_alive_at_zero() {
        let trace = build(3);
        assert!(trace.alive_at(SimTime::ZERO) >= 2);
    }

    #[test]
    fn expected_node_count_matches_poisson_rate() {
        // 6 windows × k=4 + 2 initial ≈ 26 expected; average over seeds.
        let total: usize = (0..50).map(|s| build(s).total_nodes()).sum();
        let avg = total as f64 / 50.0;
        assert!((avg - 26.0).abs() < 3.0, "avg {avg}");
    }

    #[test]
    fn paper_fig8_has_18_nodes() {
        let trace = ChurnTrace::paper_fig8();
        assert_eq!(trace.total_nodes(), 18);
        assert_eq!(trace.duration(), SimDuration::from_secs(180));
        // Service never becomes impossible: ≥3 nodes alive throughout.
        let min_alive = (0..=180)
            .map(|s| trace.alive_at(SimTime::from_secs(s)))
            .min()
            .unwrap();
        assert!(min_alive >= 3, "min alive {min_alive}");
        // Deterministic across calls.
        assert_eq!(trace, ChurnTrace::paper_fig8());
    }

    #[test]
    fn mean_lifetime_is_respected_empirically() {
        let mut total = 0.0;
        let mut count = 0usize;
        for seed in 0..40 {
            let t = build(seed);
            for e in t.events() {
                total += e.lifetime().as_secs_f64();
                count += 1;
            }
        }
        let mean = total / count as f64;
        assert!((mean - 50.0).abs() < 5.0, "mean lifetime {mean}");
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_rejected() {
        let _ = ChurnTraceBuilder::new()
            .duration(SimDuration::ZERO)
            .build(&mut SimRng::seed_from(0));
    }

    proptest! {
        #[test]
        fn alive_count_never_exceeds_total(seed in 0u64..200, t_s in 0u64..180) {
            let trace = build(seed);
            let alive = trace.alive_at(SimTime::from_secs(t_s));
            prop_assert!(alive <= trace.total_nodes());
        }

        #[test]
        fn events_alive_exactly_between_join_and_leave(seed in 0u64..50) {
            let trace = build(seed);
            for e in trace.events() {
                prop_assert!(e.alive_at(e.join_at));
                prop_assert!(!e.alive_at(e.leave_at));
            }
        }
    }
}
