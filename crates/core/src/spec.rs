//! Environment specifications, including the paper's two canonical
//! setups.

use armada_net::LatencyModelParams;
use armada_sim::SimRng;
use armada_types::{
    AccessNetwork, GeoPoint, HardwareProfile, NodeClass, SimDuration, SystemConfig,
};

/// One edge node in an environment description.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable label ("V1", "D6", "Cloud", …).
    pub label: String,
    /// Volunteer / dedicated / cloud.
    pub class: NodeClass,
    /// Hardware profile (Table II).
    pub hw: HardwareProfile,
    /// Geographic position.
    pub location: GeoPoint,
    /// Access technology.
    pub access: AccessNetwork,
    /// Extra fixed one-way delay in ms (e.g. Local Zone peering
    /// penalty).
    pub extra_one_way_ms: f64,
}

/// One application user in an environment description.
#[derive(Debug, Clone, PartialEq)]
pub struct UserSpec {
    /// Geographic position.
    pub location: GeoPoint,
    /// Access technology.
    pub access: AccessNetwork,
    /// Declared network affiliations (node indices): existing LAN or
    /// preferred channels the manager's global selection favours
    /// (paper §IV-B "optionally-provided network affiliation").
    pub affiliations: Vec<usize>,
}

/// Configuration of the geo-sharded manager federation
/// (`armada-federation`): how many shards partition the world and how
/// the periodic summary sync is timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FederationSpec {
    /// Number of manager shards (clamped to the number of distinct seed
    /// points at partition time).
    pub shards: usize,
    /// Interval between summary-sync rounds.
    pub sync_period: SimDuration,
    /// Offset of the first sync round from t = 0. Kept strictly between
    /// the heartbeat instants (which land on exact period multiples) so
    /// each round ships the heartbeats that just happened and no sync
    /// event ever ties with a registry write.
    pub sync_offset: SimDuration,
    /// What a client waits on each shard of its route that is down
    /// before it counts the request lost and asks the next-nearest one
    /// (the connect timeout of the real runtime).
    pub route_retry: SimDuration,
}

impl FederationSpec {
    /// A `shards`-way federation with the default timings: sync every
    /// heartbeat period (2 s) offset by 500 µs, 300 ms routing retry.
    pub fn new(shards: usize) -> Self {
        FederationSpec {
            shards,
            sync_period: SimDuration::from_secs(2),
            sync_offset: SimDuration::from_micros(500),
            route_retry: SimDuration::from_millis(300),
        }
    }
}

/// A complete environment description.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvSpec {
    /// The edge nodes present from t = 0 (churned nodes come separately).
    pub nodes: Vec<NodeSpec>,
    /// The application users.
    pub users: Vec<UserSpec>,
    /// The parametric latency model.
    pub latency: LatencyModelParams,
    /// tc-style pinned RTTs: `(user_index, node_index, rtt_ms)`.
    /// Pairs not listed fall back to the parametric model.
    pub pairwise_rtt_ms: Vec<(usize, usize, f64)>,
    /// Manager/environment configuration.
    pub system: SystemConfig,
    /// Geo-sharded manager federation; `None` runs the single central
    /// manager of the baseline (a federation of one: no peer, no sync).
    pub federation: Option<FederationSpec>,
}

/// The Minneapolis–St. Paul anchor point used by the canonical
/// environments.
pub(crate) fn msp() -> GeoPoint {
    GeoPoint::new(44.9778, -93.2650)
}

impl EnvSpec {
    /// The paper's **real-world** setup (§V-C, Table II): five volunteer
    /// laptops (V1–V5) and four AWS Local Zone instances (D6–D9) around
    /// the MSP metro, one cloud instance in the closest region, and
    /// `n_users` participants on home Wi-Fi within ~10 miles of each
    /// other. The paper uses 15 users.
    pub fn realworld(n_users: usize) -> EnvSpec {
        let anchor = msp();
        let mut nodes = Vec::new();
        // Volunteer laptops: placed in the three participant
        // neighbourhoods (see below). The strong V1 sits downtown; the
        // weaker V4/V5 are the *nearest* nodes of the outer clusters —
        // the configuration in which locality-based selection hurts.
        let volunteer_spots: [(f64, f64, AccessNetwork); 5] = [
            (0.0, 1.0, AccessNetwork::Fiber),      // V1: downtown
            (-6.0, -4.0, AccessNetwork::HomeWifi), // V2: west cluster
            (7.0, 4.0, AccessNetwork::Fiber),      // V3: east cluster
            (-8.0, -6.0, AccessNetwork::HomeWifi), // V4: west edge
            (9.0, 6.0, AccessNetwork::HomeWifi),   // V5: east edge
        ];
        for (i, (label, class, hw)) in armada_types::table2_profiles().into_iter().enumerate() {
            match class {
                NodeClass::Volunteer => {
                    let (e, n, access) = volunteer_spots[i];
                    nodes.push(NodeSpec {
                        label,
                        class,
                        hw,
                        location: anchor.offset_km(e, n),
                        access,
                        extra_one_way_ms: 0.0,
                    });
                }
                NodeClass::Dedicated => {
                    // Local Zone instances share one in-metro data centre;
                    // the extra delay models the ISP peering overhead the
                    // paper measured (Fig. 1).
                    nodes.push(NodeSpec {
                        label,
                        class,
                        hw,
                        location: anchor.offset_km(14.0, -6.0),
                        access: AccessNetwork::DataCenter,
                        extra_one_way_ms: 5.0,
                    });
                }
                NodeClass::Cloud => {
                    // Closest cloud region (us-east-2, Ohio).
                    nodes.push(NodeSpec {
                        label,
                        class,
                        hw,
                        location: GeoPoint::new(40.0, -83.0),
                        access: AccessNetwork::DataCenter,
                        extra_one_way_ms: 0.0,
                    });
                }
            }
        }
        // Participants cluster in three neighbourhoods (recruited in
        // groups, as in the paper's campaign): 40% west (nearest nodes:
        // the weak V4/V2), 30% east (nearest: the weakest V5 and V3),
        // 30% downtown (nearest: the strong V1). All users stay within
        // ~10 miles of each other.
        let clusters = [(-7.0, -5.0), (8.0, 5.0), (0.0, 0.0)];
        let users = (0..n_users)
            .map(|i| {
                let cluster = clusters[match i % 10 {
                    0..=3 => 0,
                    4..=6 => 1,
                    _ => 2,
                }];
                let angle = i as f64 * 2.399_963; // golden angle
                let radius = 0.5 + 2.5 * ((i * 37 % 100) as f64 / 100.0);
                UserSpec {
                    location: anchor.offset_km(
                        cluster.0 + radius * angle.cos(),
                        cluster.1 + radius * angle.sin(),
                    ),
                    access: AccessNetwork::HomeWifi,
                    affiliations: Vec::new(),
                }
            })
            .collect();
        EnvSpec {
            nodes,
            users,
            latency: LatencyModelParams::default(),
            pairwise_rtt_ms: Vec::new(),
            system: SystemConfig::default(),
            federation: None,
        }
    }

    /// The paper's **emulation** setup (§V-D1): nine volunteer-class
    /// EC2 nodes (4 × t2.medium, 4 × t2.xlarge, 1 × t2.2xlarge) and
    /// `n_users` t2.micro users within a 50-mile area, with pairwise
    /// RTTs pinned tc-style to real-world measurements in the 8–55 ms
    /// range. `seed` fixes the RTT draw.
    pub fn emulation(n_users: usize, seed: u64) -> EnvSpec {
        let anchor = msp();
        let mut nodes = Vec::new();
        let mut add = |label: String, hw: HardwareProfile, e: f64, n: f64| {
            nodes.push(NodeSpec {
                label,
                class: NodeClass::Volunteer,
                hw,
                location: anchor.offset_km(e, n),
                access: AccessNetwork::DataCenter,
                extra_one_way_ms: 0.0,
            });
        };
        for i in 0..4 {
            add(
                format!("medium-{i}"),
                ec2_profile("t2.medium"),
                -30.0 + 20.0 * i as f64,
                -25.0,
            );
        }
        for i in 0..4 {
            add(
                format!("xlarge-{i}"),
                ec2_profile("t2.xlarge"),
                -30.0 + 20.0 * i as f64,
                25.0,
            );
        }
        add("2xlarge-0".into(), ec2_profile("t2.2xlarge"), 0.0, 0.0);

        let users: Vec<UserSpec> = (0..n_users)
            .map(|i| {
                let angle = i as f64 * 2.399_963;
                let radius = 5.0 + 35.0 * ((i * 53 % 100) as f64 / 100.0);
                UserSpec {
                    location: anchor.offset_km(radius * angle.cos(), radius * angle.sin()),
                    access: AccessNetwork::HomeWifi,
                    affiliations: Vec::new(),
                }
            })
            .collect();

        // tc-style pinned RTTs: uniform 8–55 ms per (user, node) pair,
        // deterministic in `seed`.
        let mut rng = SimRng::seed_from(seed).stream("emulation-rtt");
        let mut pairwise = Vec::with_capacity(n_users * nodes.len());
        for u in 0..n_users {
            for n in 0..nodes.len() {
                pairwise.push((u, n, rng.uniform(8.0, 55.0)));
            }
        }
        EnvSpec {
            nodes,
            users,
            // Jitter still applies on top of the pinned base, as queueing
            // noise did in the real emulation.
            latency: LatencyModelParams {
                jitter_gain: 0.3,
                ..Default::default()
            },
            pairwise_rtt_ms: pairwise,
            system: SystemConfig::default(),
            federation: None,
        }
    }

    /// Shards the manager tier per `spec` (builder style).
    pub fn with_federation(mut self, spec: FederationSpec) -> Self {
        self.federation = Some(spec);
        self
    }

    /// The churn experiment's node hardware pool (§V-D2): 8 × t2.medium,
    /// 8 × t2.xlarge, 2 × t2.2xlarge, matched to churn-trace arrivals in
    /// a seeded random order.
    pub fn churn_templates() -> Vec<HardwareProfile> {
        let mut out = Vec::with_capacity(18);
        for _ in 0..8 {
            out.push(ec2_profile("t2.medium"));
        }
        for _ in 0..8 {
            out.push(ec2_profile("t2.xlarge"));
        }
        for _ in 0..2 {
            out.push(ec2_profile("t2.2xlarge"));
        }
        out
    }
}

impl EnvSpec {
    /// Builds the network substrate for this environment: endpoints for
    /// every node and user (indexed as `NodeId(i)` / `UserId(i)`), the
    /// Central Manager endpoint, and any tc-style pairwise overrides.
    /// Used by the scenario runner and directly by measurement-style
    /// experiments (Fig. 1, Fig. 3).
    pub fn to_network(&self) -> armada_net::Network {
        use armada_net::{Addr, Endpoint, Network};
        use armada_types::{NodeId, SimDuration, UserId};
        let mut net = Network::new(self.latency);
        net.add_endpoint(
            Addr::Manager,
            Endpoint::new(msp(), AccessNetwork::DataCenter),
        );
        for (i, node) in self.nodes.iter().enumerate() {
            net.add_endpoint(
                Addr::Node(NodeId::new(i as u64)),
                Endpoint::new(node.location, node.access)
                    .with_extra_one_way_ms(node.extra_one_way_ms),
            );
        }
        for (i, user) in self.users.iter().enumerate() {
            net.add_endpoint(
                Addr::User(UserId::new(i as u64)),
                Endpoint::new(user.location, user.access),
            );
        }
        for &(u, n, rtt_ms) in &self.pairwise_rtt_ms {
            net.set_pairwise_rtt(
                Addr::User(UserId::new(u as u64)),
                Addr::Node(NodeId::new(n as u64)),
                SimDuration::from_millis_f64(rtt_ms),
            );
        }
        net
    }
}

/// Calibrated per-frame processing profiles for the EC2 instance types
/// the paper's emulation uses. The t3.xlarge real-world measurement
/// (30 ms, Table II) anchors the scale.
pub fn ec2_profile(instance_type: &str) -> HardwareProfile {
    match instance_type {
        "t2.medium" => HardwareProfile::new("AWS EC2 t2.medium", 2, 42.0),
        "t2.xlarge" => HardwareProfile::new("AWS EC2 t2.xlarge", 4, 30.0).with_concurrency(2),
        "t2.2xlarge" => HardwareProfile::new("AWS EC2 t2.2xlarge", 8, 22.0).with_concurrency(4),
        "t3.xlarge" => HardwareProfile::new("AWS EC2 t3.xlarge", 4, 30.0),
        other => panic!("unknown instance type {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realworld_matches_table2() {
        let env = EnvSpec::realworld(15);
        assert_eq!(env.nodes.len(), 10);
        assert_eq!(env.users.len(), 15);
        let volunteers = env
            .nodes
            .iter()
            .filter(|n| n.class == NodeClass::Volunteer)
            .count();
        let dedicated = env
            .nodes
            .iter()
            .filter(|n| n.class == NodeClass::Dedicated)
            .count();
        let cloud = env
            .nodes
            .iter()
            .filter(|n| n.class == NodeClass::Cloud)
            .count();
        assert_eq!((volunteers, dedicated, cloud), (5, 4, 1));
        assert_eq!(env.nodes[0].label, "V1");
        assert_eq!(env.nodes[0].hw.base_frame_ms(), 24.0);
    }

    #[test]
    fn realworld_users_within_ten_miles_of_anchor() {
        let env = EnvSpec::realworld(15);
        for u in &env.users {
            assert!(msp().distance_miles(u.location) <= 11.0);
        }
    }

    #[test]
    fn realworld_cloud_is_far_away() {
        let env = EnvSpec::realworld(1);
        let cloud = env
            .nodes
            .iter()
            .find(|n| n.class == NodeClass::Cloud)
            .unwrap();
        assert!(msp().distance_km(cloud.location) > 500.0);
    }

    #[test]
    fn emulation_matches_paper_counts_and_rtt_range() {
        let env = EnvSpec::emulation(15, 7);
        assert_eq!(env.nodes.len(), 9);
        assert_eq!(env.users.len(), 15);
        assert_eq!(env.pairwise_rtt_ms.len(), 15 * 9);
        for &(_, _, rtt) in &env.pairwise_rtt_ms {
            assert!((8.0..55.0).contains(&rtt), "rtt {rtt}");
        }
    }

    #[test]
    fn emulation_is_deterministic_per_seed() {
        assert_eq!(EnvSpec::emulation(5, 3), EnvSpec::emulation(5, 3));
        assert_ne!(
            EnvSpec::emulation(5, 3).pairwise_rtt_ms,
            EnvSpec::emulation(5, 4).pairwise_rtt_ms
        );
    }

    #[test]
    fn churn_templates_match_paper_mix() {
        let t = EnvSpec::churn_templates();
        assert_eq!(t.len(), 18);
        assert_eq!(t.iter().filter(|h| h.cores() == 2).count(), 8);
        assert_eq!(t.iter().filter(|h| h.cores() == 4).count(), 8);
        assert_eq!(t.iter().filter(|h| h.cores() == 8).count(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown instance type")]
    fn unknown_instance_type_panics() {
        let _ = ec2_profile("m5.metal");
    }
}
