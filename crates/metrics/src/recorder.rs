//! The central latency recorder.

use std::collections::BTreeMap;

use armada_types::{SimDuration, SimTime, UserId};

use crate::cdf::Cdf;
use crate::stats;

/// One end-to-end latency observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySample {
    /// The observing user.
    pub user: UserId,
    /// When the frame completed (response received).
    pub at: SimTime,
    /// End-to-end latency of the frame.
    pub latency: SimDuration,
}

/// Collects per-user end-to-end latencies and derives every view the
/// evaluation needs.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<LatencySample>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, user: UserId, at: SimTime, latency: SimDuration) {
        self.samples.push(LatencySample { user, at, latency });
    }

    /// All raw samples, in recording order.
    pub fn samples(&self) -> &[LatencySample] {
        &self.samples
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Overall mean latency; `None` when empty.
    pub fn mean(&self) -> Option<SimDuration> {
        let values: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.latency.as_millis_f64())
            .collect();
        stats::mean(&values).map(SimDuration::from_millis_f64)
    }

    /// Per-user mean latencies, keyed by user.
    pub fn per_user_mean(&self) -> BTreeMap<UserId, SimDuration> {
        let mut grouped: BTreeMap<UserId, Vec<f64>> = BTreeMap::new();
        for s in &self.samples {
            grouped
                .entry(s.user)
                .or_default()
                .push(s.latency.as_millis_f64());
        }
        grouped
            .into_iter()
            .filter_map(|(u, v)| stats::mean(&v).map(|m| (u, SimDuration::from_millis_f64(m))))
            .collect()
    }

    /// The paper's headline metric: the *user-weighted* mean — the mean
    /// over users of each user's own mean latency in the half-open
    /// window `[from, to)`. Unlike a per-frame mean, users throttled to
    /// low frame rates (often the ones suffering most) are not
    /// underweighted.
    pub fn user_mean_in_window(&self, from: SimTime, to: SimTime) -> Option<SimDuration> {
        let mut grouped: BTreeMap<UserId, Vec<f64>> = BTreeMap::new();
        for s in &self.samples {
            if s.at >= from && s.at < to {
                grouped
                    .entry(s.user)
                    .or_default()
                    .push(s.latency.as_millis_f64());
            }
        }
        let per_user: Vec<f64> = grouped.values().filter_map(|v| stats::mean(v)).collect();
        stats::mean(&per_user).map(SimDuration::from_millis_f64)
    }

    /// Per-time-bin user-weighted mean (mean of per-user bin means) —
    /// the Fig. 8 trace metric. Bins with no samples are omitted.
    pub fn binned_user_mean(&self, bin: SimDuration) -> Vec<(SimTime, SimDuration)> {
        assert!(!bin.is_zero(), "bin width must be positive");
        let mut grouped: BTreeMap<u64, BTreeMap<UserId, Vec<f64>>> = BTreeMap::new();
        for s in &self.samples {
            let idx = s.at.as_micros() / bin.as_micros();
            grouped
                .entry(idx)
                .or_default()
                .entry(s.user)
                .or_default()
                .push(s.latency.as_millis_f64());
        }
        grouped
            .into_iter()
            .filter_map(|(idx, users)| {
                let per_user: Vec<f64> = users.values().filter_map(|v| stats::mean(v)).collect();
                stats::mean(&per_user).map(|m| {
                    (
                        SimTime::from_micros(idx * bin.as_micros()),
                        SimDuration::from_millis_f64(m),
                    )
                })
            })
            .collect()
    }

    /// The paper's fairness metric (Fig. 9d): the standard deviation of
    /// per-user mean latencies, optionally restricted to a window.
    /// Higher means less fair. `None` when no user has samples.
    pub fn fairness_stddev(&self, window: Option<(SimTime, SimTime)>) -> Option<SimDuration> {
        let mut grouped: BTreeMap<UserId, Vec<f64>> = BTreeMap::new();
        for s in &self.samples {
            if let Some((from, to)) = window {
                if s.at < from || s.at >= to {
                    continue;
                }
            }
            grouped
                .entry(s.user)
                .or_default()
                .push(s.latency.as_millis_f64());
        }
        let per_user: Vec<f64> = grouped.values().filter_map(|v| stats::mean(v)).collect();
        stats::stddev(&per_user).map(SimDuration::from_millis_f64)
    }

    /// Mean latency per time bin of width `bin` — the Fig. 6/8 trace
    /// series. Bins with no samples are omitted.
    pub fn binned_mean(&self, bin: SimDuration) -> Vec<(SimTime, SimDuration)> {
        assert!(!bin.is_zero(), "bin width must be positive");
        let mut grouped: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for s in &self.samples {
            let idx = s.at.as_micros() / bin.as_micros();
            grouped
                .entry(idx)
                .or_default()
                .push(s.latency.as_millis_f64());
        }
        grouped
            .into_iter()
            .filter_map(|(idx, v)| {
                stats::mean(&v).map(|m| {
                    (
                        SimTime::from_micros(idx * bin.as_micros()),
                        SimDuration::from_millis_f64(m),
                    )
                })
            })
            .collect()
    }

    /// Per-user binned mean series (Fig. 6 plots one line per user).
    pub fn per_user_binned_mean(
        &self,
        bin: SimDuration,
    ) -> BTreeMap<UserId, Vec<(SimTime, SimDuration)>> {
        let mut out: BTreeMap<UserId, LatencyRecorder> = BTreeMap::new();
        for s in &self.samples {
            out.entry(s.user).or_default().samples.push(*s);
        }
        out.into_iter()
            .map(|(u, rec)| (u, rec.binned_mean(bin)))
            .collect()
    }

    /// CDF over all samples (optionally one user's).
    pub fn cdf(&self, user: Option<UserId>) -> Cdf {
        self.samples
            .iter()
            .filter(|s| user.is_none_or(|u| s.user == u))
            .map(|s| s.latency)
            .collect()
    }

    /// Maximum single latency observed; `None` when empty.
    pub fn max(&self) -> Option<SimDuration> {
        self.samples.iter().map(|s| s.latency).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> LatencyRecorder {
        let mut r = LatencyRecorder::new();
        // user 1: 40, 60 (mean 50); user 2: 100, 100 (mean 100).
        r.record(
            UserId::new(1),
            SimTime::from_secs(1),
            SimDuration::from_millis(40),
        );
        r.record(
            UserId::new(1),
            SimTime::from_secs(70),
            SimDuration::from_millis(60),
        );
        r.record(
            UserId::new(2),
            SimTime::from_secs(2),
            SimDuration::from_millis(100),
        );
        r.record(
            UserId::new(2),
            SimTime::from_secs(80),
            SimDuration::from_millis(100),
        );
        r
    }

    #[test]
    fn overall_mean() {
        assert_eq!(rec().mean(), Some(SimDuration::from_millis(75)));
    }

    #[test]
    fn windowed_mean_filters_by_time() {
        let r = rec();
        let m = r
            .user_mean_in_window(SimTime::from_secs(60), SimTime::from_secs(120))
            .unwrap();
        assert_eq!(m, SimDuration::from_millis(80)); // (60 + 100) / 2
        assert!(r
            .user_mean_in_window(SimTime::from_secs(200), SimTime::from_secs(300))
            .is_none());
    }

    #[test]
    fn per_user_means() {
        let m = rec().per_user_mean();
        assert_eq!(m[&UserId::new(1)], SimDuration::from_millis(50));
        assert_eq!(m[&UserId::new(2)], SimDuration::from_millis(100));
    }

    #[test]
    fn fairness_is_stddev_of_user_means() {
        // User means 50 and 100 → population stddev 25.
        let f = rec().fairness_stddev(None).unwrap();
        assert_eq!(f, SimDuration::from_millis(25));
    }

    #[test]
    fn fairness_respects_window() {
        let f = rec()
            .fairness_stddev(Some((SimTime::from_secs(60), SimTime::from_secs(120))))
            .unwrap();
        // Window means: user1 60, user2 100 → stddev 20.
        assert_eq!(f, SimDuration::from_millis(20));
    }

    #[test]
    fn user_weighted_mean_counts_users_equally() {
        let mut r = LatencyRecorder::new();
        // User 1 streams fast (many cheap samples), user 2 is throttled
        // (few expensive samples).
        for i in 0..20 {
            r.record(
                UserId::new(1),
                SimTime::from_millis(i * 10),
                SimDuration::from_millis(40),
            );
        }
        r.record(
            UserId::new(2),
            SimTime::from_millis(50),
            SimDuration::from_millis(200),
        );
        let frame_weighted = r.mean().unwrap();
        let user_weighted = r
            .user_mean_in_window(SimTime::ZERO, SimTime::from_secs(1))
            .unwrap();
        assert!(frame_weighted < SimDuration::from_millis(60));
        assert_eq!(
            user_weighted,
            SimDuration::from_millis(120),
            "(40 + 200) / 2"
        );
    }

    #[test]
    fn binned_user_mean_weighs_users_not_frames() {
        let mut r = LatencyRecorder::new();
        for _ in 0..9 {
            r.record(
                UserId::new(1),
                SimTime::from_millis(10),
                SimDuration::from_millis(10),
            );
        }
        r.record(
            UserId::new(2),
            SimTime::from_millis(20),
            SimDuration::from_millis(110),
        );
        let bins = r.binned_user_mean(SimDuration::from_secs(1));
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].1, SimDuration::from_millis(60));
    }

    #[test]
    fn binned_mean_groups_by_time() {
        let r = rec();
        let bins = r.binned_mean(SimDuration::from_secs(60));
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0], (SimTime::ZERO, SimDuration::from_millis(70)));
        assert_eq!(
            bins[1],
            (SimTime::from_secs(60), SimDuration::from_millis(80))
        );
    }

    #[test]
    fn per_user_series_split() {
        let r = rec();
        let series = r.per_user_binned_mean(SimDuration::from_secs(60));
        assert_eq!(series.len(), 2);
        assert_eq!(series[&UserId::new(1)].len(), 2);
    }

    #[test]
    fn cdf_filters_by_user() {
        let r = rec();
        assert_eq!(r.cdf(None).len(), 4);
        assert_eq!(r.cdf(Some(UserId::new(1))).len(), 2);
    }

    #[test]
    fn empty_recorder_yields_nones() {
        let r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.mean(), None);
        assert_eq!(r.fairness_stddev(None), None);
        assert!(r.binned_mean(SimDuration::from_secs(1)).is_empty());
        assert_eq!(r.max(), None);
    }

    #[test]
    fn max_finds_worst_sample() {
        assert_eq!(rec().max(), Some(SimDuration::from_millis(100)));
    }
}
