//! Configuration structures for the manager, clients and experiments.

use crate::time::SimDuration;

/// The client-side policy used to rank probed edge candidates
/// (paper §IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LocalSelectionPolicy {
    /// Pick the candidate with the smallest local-view overhead
    /// `LO = D_prop + D_proc_whatif`.
    BestLocal,
    /// Pick the candidate with the smallest global overhead
    /// `GO = n·(D_proc_whatif − D_proc_current) + LO`, which also accounts
    /// for the degradation imposed on the candidate's existing users.
    /// This is the paper's (and our) default.
    #[default]
    GlobalOverhead,
    /// Filter out candidates whose `LO` violates the QoS bound, then pick
    /// the minimum-`GO` survivor.
    QosFiltered,
}

/// How the client turns ranked probe results into a stay-or-switch
/// decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectorMode {
    /// Rank and switch on this round's measurements alone (the paper's
    /// behaviour).
    #[default]
    Reactive,
    /// Rank on reliability-weighted short-horizon forecasts and only
    /// switch when the candidate wins on both the measured and the
    /// predicted overhead (reliability-aware predictive selection).
    Predictive,
}

impl SelectorMode {
    /// Stable lowercase name, for trace events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SelectorMode::Reactive => "reactive",
            SelectorMode::Predictive => "predictive",
        }
    }
}

/// A client's quality-of-service requirement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosRequirement {
    /// Maximum acceptable end-to-end latency.
    pub max_latency: SimDuration,
}

impl Default for QosRequirement {
    /// A 150 ms bound — a common interactivity threshold for AR-style
    /// cognitive assistance.
    fn default() -> Self {
        QosRequirement {
            max_latency: SimDuration::from_millis(150),
        }
    }
}

/// Client-side configuration: probing cadence, candidate-list size and
/// selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientConfig {
    /// Size of the candidate edge list requested from the Central Manager
    /// (`TopN` in the paper). `top_n - 1` backup connections are kept warm.
    pub top_n: usize,
    /// Period between consecutive edge-discovery/probing rounds
    /// (`T_probing` in the paper).
    pub probing_period: SimDuration,
    /// The ranking policy applied to probing results.
    pub policy: LocalSelectionPolicy,
    /// QoS bound consulted by [`LocalSelectionPolicy::QosFiltered`].
    pub qos: QosRequirement,
    /// Maximum frame offload rate in frames per second (the paper's AR
    /// application caps at 20 FPS).
    pub max_fps: f64,
    /// End-to-end latency above which the adaptive rate controller backs
    /// off.
    pub target_latency: SimDuration,
    /// Maximum unacknowledged frames in flight; further frames are
    /// dropped rather than queued (real AR clients skip frames instead
    /// of pipelining a backlog).
    pub max_inflight: u32,
    /// Switch hysteresis: a candidate must beat the current node's
    /// predicted overhead by this relative margin before the client
    /// migrates (jittered probes would otherwise cause oscillation).
    pub switch_margin: f64,
    /// How probe results are turned into switch decisions.
    pub selector: SelectorMode,
}

impl Default for ClientConfig {
    /// The paper's evaluation defaults: `TopN = 3`, 10 s probing period,
    /// global-overhead policy, 20 FPS cap.
    fn default() -> Self {
        ClientConfig {
            top_n: 3,
            probing_period: SimDuration::from_secs(10),
            policy: LocalSelectionPolicy::GlobalOverhead,
            qos: QosRequirement::default(),
            max_fps: 20.0,
            // Back off when end-to-end latency threatens the 150 ms
            // interactivity bound (matches the default QoS requirement).
            target_latency: SimDuration::from_millis(150),
            max_inflight: 4,
            switch_margin: 0.1,
            selector: SelectorMode::Reactive,
        }
    }
}

impl ClientConfig {
    /// Returns a copy with a different `TopN`.
    ///
    /// # Panics
    ///
    /// Panics if `top_n` is zero — a client must probe at least one
    /// candidate.
    pub fn with_top_n(mut self, top_n: usize) -> Self {
        assert!(top_n > 0, "TopN must be at least 1");
        self.top_n = top_n;
        self
    }

    /// Returns a copy with a different probing period.
    pub fn with_probing_period(mut self, period: SimDuration) -> Self {
        self.probing_period = period;
        self
    }

    /// Returns a copy with a different local selection policy.
    pub fn with_policy(mut self, policy: LocalSelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with a different selector mode.
    pub fn with_selector(mut self, selector: SelectorMode) -> Self {
        self.selector = selector;
        self
    }
}

/// Manager-side and environment-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Radius of the initial geo-proximity filter, in kilometres. The
    /// manager widens the GeoHash search beyond this only when too few
    /// local candidates exist.
    pub proximity_radius_km: f64,
    /// Period between node status heartbeats to the Central Manager.
    pub heartbeat_period: SimDuration,
    /// Heartbeats a node may miss before the manager marks it dead.
    pub heartbeat_miss_limit: u32,
    /// Delay before an accepted join's test-workload refresh fires,
    /// expressed as a multiple of the common user RTT (the paper uses 2×).
    pub join_refresh_rtt_multiple: f64,
    /// The "common user RTT" used to size the join-refresh delay.
    pub common_rtt: SimDuration,
    /// Relative drift in measured processing time that trips the node's
    /// performance monitor (the paper's third test-workload trigger).
    pub perf_drift_threshold: f64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            proximity_radius_km: 80.0,
            heartbeat_period: SimDuration::from_secs(2),
            heartbeat_miss_limit: 3,
            join_refresh_rtt_multiple: 2.0,
            common_rtt: SimDuration::from_millis(20),
            perf_drift_threshold: 0.25,
        }
    }
}

impl SystemConfig {
    /// Delay between a successful join and its test-workload invocation:
    /// `join_refresh_rtt_multiple × common_rtt` (paper: twice the common
    /// user RTT, so the refreshed what-if measurement includes the new
    /// user's live traffic).
    pub fn join_refresh_delay(&self) -> SimDuration {
        self.common_rtt.mul_f64(self.join_refresh_rtt_multiple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_evaluation() {
        let c = ClientConfig::default();
        assert_eq!(c.top_n, 3);
        assert_eq!(c.probing_period, SimDuration::from_secs(10));
        assert_eq!(c.policy, LocalSelectionPolicy::GlobalOverhead);
        assert_eq!(c.max_fps, 20.0);
        assert_eq!(c.selector, SelectorMode::Reactive);
    }

    #[test]
    fn builder_methods_compose() {
        let c = ClientConfig::default()
            .with_top_n(6)
            .with_probing_period(SimDuration::from_secs(5))
            .with_policy(LocalSelectionPolicy::BestLocal)
            .with_selector(SelectorMode::Predictive);
        assert_eq!(c.top_n, 6);
        assert_eq!(c.probing_period, SimDuration::from_secs(5));
        assert_eq!(c.policy, LocalSelectionPolicy::BestLocal);
        assert_eq!(c.selector, SelectorMode::Predictive);
    }

    #[test]
    #[should_panic(expected = "TopN must be at least 1")]
    fn zero_top_n_rejected() {
        let _ = ClientConfig::default().with_top_n(0);
    }

    #[test]
    fn join_refresh_delay_is_two_rtts_by_default() {
        let s = SystemConfig::default();
        assert_eq!(s.join_refresh_delay(), SimDuration::from_millis(40));
    }

    #[test]
    fn qos_default_is_150ms() {
        assert_eq!(
            QosRequirement::default().max_latency,
            SimDuration::from_millis(150)
        );
    }
}
