//! A per-peer circuit breaker with half-open probing.

/// The breaker's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// The peer is considered down; requests are refused locally.
    Open,
    /// The cooldown elapsed; exactly the next request probes the peer.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-case name, used in `chaos.breaker.*` trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// A state change, returned so callers can emit trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// Opens after N consecutive failures, refuses requests for a cooldown,
/// then lets one probe through (half-open); a successful probe closes
/// it, a failed probe re-opens it.
///
/// Time is an opaque microsecond counter so one implementation serves
/// both the simulator (virtual time) and the live runtime (wall clock).
///
/// # Examples
///
/// ```
/// use armada_client::{BreakerState, CircuitBreaker};
///
/// let mut b = CircuitBreaker::new(3, 1_000_000);
/// for t in 0..3 {
///     assert!(b.allow(t).0);
///     b.on_failure(t);
/// }
/// assert_eq!(b.state(), BreakerState::Open);
/// assert!(!b.allow(500_000).0);            // still cooling down
/// let (ok, transition) = b.allow(1_000_002);
/// assert!(ok && transition.is_some());      // half-open probe
/// b.on_success();
/// assert_eq!(b.state(), BreakerState::Closed);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown_us: u64,
    failures: u32,
    state: BreakerState,
    opened_at_us: u64,
    transitions: u64,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `threshold` consecutive
    /// failures and cools down for `cooldown_us` before half-opening.
    pub fn new(threshold: u32, cooldown_us: u64) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown_us,
            failures: 0,
            state: BreakerState::Closed,
            opened_at_us: 0,
            transitions: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Total state transitions so far.
    pub fn transition_count(&self) -> u64 {
        self.transitions
    }

    fn shift(&mut self, to: BreakerState) -> Option<Transition> {
        if self.state == to {
            return None;
        }
        let t = Transition {
            from: self.state,
            to,
        };
        self.state = to;
        self.transitions += 1;
        Some(t)
    }

    /// Should a request to this peer be attempted at `now_us`?
    ///
    /// Returns the open → half-open transition when the cooldown
    /// elapses, so the caller can trace it.
    pub fn allow(&mut self, now_us: u64) -> (bool, Option<Transition>) {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => (true, None),
            BreakerState::Open => {
                if now_us.saturating_sub(self.opened_at_us) >= self.cooldown_us {
                    (true, self.shift(BreakerState::HalfOpen))
                } else {
                    (false, None)
                }
            }
        }
    }

    /// Records a successful request.
    pub fn on_success(&mut self) -> Option<Transition> {
        self.failures = 0;
        self.shift(BreakerState::Closed)
    }

    /// Records a failed request at `now_us`.
    pub fn on_failure(&mut self, now_us: u64) -> Option<Transition> {
        self.failures = self.failures.saturating_add(1);
        let should_open = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.failures >= self.threshold,
            BreakerState::Open => false,
        };
        if should_open {
            self.opened_at_us = now_us;
            self.shift(BreakerState::Open)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cycle_closed_open_half_open_closed() {
        let mut b = CircuitBreaker::new(2, 100);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.on_failure(0).is_none());
        let t = b.on_failure(1).expect("threshold reached");
        assert_eq!((t.from, t.to), (BreakerState::Closed, BreakerState::Open));
        assert!(!b.allow(50).0);
        let (ok, t) = b.allow(101);
        assert!(ok);
        let t = t.expect("half-open transition");
        assert_eq!((t.from, t.to), (BreakerState::Open, BreakerState::HalfOpen));
        let t = b.on_success().expect("probe closes");
        assert_eq!(
            (t.from, t.to),
            (BreakerState::HalfOpen, BreakerState::Closed)
        );
        assert_eq!(b.transition_count(), 3);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let mut b = CircuitBreaker::new(1, 100);
        b.on_failure(0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(100).0);
        let t = b.on_failure(150).expect("probe failure re-opens");
        assert_eq!((t.from, t.to), (BreakerState::HalfOpen, BreakerState::Open));
        assert!(!b.allow(200).0, "cooldown restarts from the probe failure");
        assert!(b.allow(250).0);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(3, 100);
        b.on_failure(0);
        b.on_failure(1);
        b.on_success();
        assert!(b.on_failure(2).is_none(), "streak restarted");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn zero_threshold_is_clamped_to_one() {
        let mut b = CircuitBreaker::new(0, 10);
        assert!(b.on_failure(0).is_some());
    }
}
