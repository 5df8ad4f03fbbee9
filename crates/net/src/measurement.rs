//! Fig.-1-style RTT measurement campaigns.
//!
//! The paper opens with a measurement study: 15 participants on home
//! Wi-Fi in the Minneapolis–St. Paul metro probing (1) five volunteer
//! edge nodes, (2) the AWS Local Zone, and (3) the closest cloud region.
//! [`MeasurementCampaign`] reproduces that study over the [`Network`]
//! model and summarises the per-target RTT distributions.

use armada_sim::SimRng;
use armada_types::SimDuration;

use crate::endpoint::Addr;
use crate::network::Network;

/// Summary statistics of a set of RTT samples toward one target.
#[derive(Debug, Clone, PartialEq)]
pub struct RttSummary {
    /// The probed target.
    pub target: Addr,
    /// Number of samples aggregated.
    pub samples: usize,
    /// Minimum observed RTT.
    pub min: SimDuration,
    /// Median observed RTT.
    pub median: SimDuration,
    /// 95th-percentile observed RTT.
    pub p95: SimDuration,
    /// Maximum observed RTT.
    pub max: SimDuration,
    /// Mean observed RTT.
    pub mean: SimDuration,
}

/// A repeated-probe RTT measurement campaign from a set of sources to a
/// set of targets.
///
/// # Examples
///
/// ```
/// use armada_net::{Addr, Endpoint, MeasurementCampaign, Network};
/// use armada_sim::SimRng;
/// use armada_types::{AccessNetwork, GeoPoint, NodeId, UserId};
///
/// let mut net = Network::new(Default::default());
/// let home = GeoPoint::new(44.98, -93.26);
/// net.add_endpoint(Addr::User(UserId::new(1)),
///     Endpoint::new(home, AccessNetwork::HomeWifi));
/// net.add_endpoint(Addr::Node(NodeId::new(1)),
///     Endpoint::new(home.offset_km(2.0, 0.0), AccessNetwork::Fiber));
///
/// let campaign = MeasurementCampaign::new(
///     vec![Addr::User(UserId::new(1))],
///     vec![Addr::Node(NodeId::new(1))],
///     50,
/// );
/// let mut rng = SimRng::seed_from(1);
/// let summaries = campaign.run(&net, &mut rng);
/// assert_eq!(summaries.len(), 1);
/// assert!(summaries[0].median.as_millis_f64() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct MeasurementCampaign {
    sources: Vec<Addr>,
    targets: Vec<Addr>,
    probes_per_pair: usize,
}

impl MeasurementCampaign {
    /// Creates a campaign probing every (source, target) pair
    /// `probes_per_pair` times.
    ///
    /// # Panics
    ///
    /// Panics if `probes_per_pair` is zero.
    pub fn new(sources: Vec<Addr>, targets: Vec<Addr>, probes_per_pair: usize) -> Self {
        assert!(
            probes_per_pair > 0,
            "campaign needs at least one probe per pair"
        );
        MeasurementCampaign {
            sources,
            targets,
            probes_per_pair,
        }
    }

    /// Runs the campaign, returning one summary per target aggregated
    /// over all sources. Unreachable pairs contribute no samples; a
    /// target unreachable from every source yields a summary with
    /// `samples == 0` and zeroed statistics.
    pub fn run(&self, net: &Network, rng: &mut SimRng) -> Vec<RttSummary> {
        self.targets
            .iter()
            .map(|&target| {
                let mut samples = Vec::new();
                for &source in &self.sources {
                    for _ in 0..self.probes_per_pair {
                        if let Some(rtt) = net.rtt(source, target, rng) {
                            samples.push(rtt);
                        }
                    }
                }
                summarise(target, samples)
            })
            .collect()
    }
}

fn summarise(target: Addr, mut samples: Vec<SimDuration>) -> RttSummary {
    if samples.is_empty() {
        return RttSummary {
            target,
            samples: 0,
            min: SimDuration::ZERO,
            median: SimDuration::ZERO,
            p95: SimDuration::ZERO,
            max: SimDuration::ZERO,
            mean: SimDuration::ZERO,
        };
    }
    samples.sort_unstable();
    let n = samples.len();
    let idx = |q: f64| ((n - 1) as f64 * q).round() as usize;
    let mean_us = samples.iter().map(|d| d.as_micros()).sum::<u64>() / n as u64;
    RttSummary {
        target,
        samples: n,
        min: samples[0],
        median: samples[idx(0.5)],
        p95: samples[idx(0.95)],
        max: samples[n - 1],
        mean: SimDuration::from_micros(mean_us),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Endpoint;
    use crate::latency::LatencyModelParams;
    use armada_types::{AccessNetwork, GeoPoint, NodeId, UserId};

    fn fig1_net() -> (Network, Vec<Addr>, Vec<Addr>) {
        let mut net = Network::new(LatencyModelParams::default());
        let home = GeoPoint::new(44.98, -93.26);
        let mut users = Vec::new();
        for i in 0..15 {
            let addr = Addr::User(UserId::new(i));
            let spot = home.offset_km((i as f64) * 1.1 - 8.0, (i as f64 * 0.7) - 5.0);
            net.add_endpoint(addr, Endpoint::new(spot, AccessNetwork::HomeWifi));
            users.push(addr);
        }
        let mut targets = Vec::new();
        for i in 0..5 {
            let addr = Addr::Node(NodeId::new(i));
            let spot = home.offset_km(i as f64 * 2.0 - 4.0, 3.0);
            net.add_endpoint(addr, Endpoint::new(spot, AccessNetwork::Fiber));
            targets.push(addr);
        }
        // Local Zone: in-metro data centre with ISP peering penalty.
        let lz = Addr::Node(NodeId::new(100));
        net.add_endpoint(
            lz,
            Endpoint::new(home.offset_km(12.0, -4.0), AccessNetwork::DataCenter)
                .with_extra_one_way_ms(5.0),
        );
        targets.push(lz);
        // Closest cloud: us-east-2.
        let cloud = Addr::Node(NodeId::new(101));
        net.add_endpoint(
            cloud,
            Endpoint::new(GeoPoint::new(40.0, -83.0), AccessNetwork::DataCenter),
        );
        targets.push(cloud);
        (net, users, targets)
    }

    #[test]
    fn fig1_ordering_volunteers_beat_local_zone_beat_cloud() {
        let (net, users, targets) = fig1_net();
        let campaign = MeasurementCampaign::new(users, targets.clone(), 30);
        let mut rng = SimRng::seed_from(42);
        let summaries = campaign.run(&net, &mut rng);
        assert_eq!(summaries.len(), 7);
        let volunteer_best = summaries[..5].iter().map(|s| s.median).min().unwrap();
        let lz = summaries[5].median;
        let cloud = summaries[6].median;
        assert!(volunteer_best < lz, "volunteer {volunteer_best} vs lz {lz}");
        assert!(lz < cloud, "lz {lz} vs cloud {cloud}");
    }

    #[test]
    fn summary_statistics_are_ordered() {
        let (net, users, targets) = fig1_net();
        let campaign = MeasurementCampaign::new(users, targets, 20);
        let mut rng = SimRng::seed_from(7);
        for s in campaign.run(&net, &mut rng) {
            assert!(s.samples > 0);
            assert!(s.min <= s.median);
            assert!(s.median <= s.p95);
            assert!(s.p95 <= s.max);
            assert!(s.min <= s.mean && s.mean <= s.max);
        }
    }

    #[test]
    fn unreachable_target_yields_empty_summary() {
        let (mut net, users, _) = fig1_net();
        let ghost = Addr::Node(NodeId::new(200));
        // Registered then downed: reachable by address but not by link.
        net.add_endpoint(
            ghost,
            Endpoint::new(GeoPoint::new(44.9, -93.2), AccessNetwork::Fiber),
        );
        net.set_down(ghost);
        let campaign = MeasurementCampaign::new(users, vec![ghost], 5);
        let mut rng = SimRng::seed_from(1);
        let s = &campaign.run(&net, &mut rng)[0];
        assert_eq!(s.samples, 0);
        assert_eq!(s.median, SimDuration::ZERO);
    }

    #[test]
    fn samples_match_requested_count() {
        let (net, users, targets) = fig1_net();
        let campaign = MeasurementCampaign::new(users.clone(), targets, 10);
        let mut rng = SimRng::seed_from(2);
        for s in campaign.run(&net, &mut rng) {
            assert_eq!(s.samples, users.len() * 10);
        }
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn zero_probes_rejected() {
        let _ = MeasurementCampaign::new(vec![], vec![], 0);
    }
}
