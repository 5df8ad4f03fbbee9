//! Fast, test-sized versions of the paper's headline result shapes.
//! The full-scale regenerations live in `armada-bench` binaries; these
//! keep the shapes under regression protection in `cargo test`.

use armada::core::{EnvSpec, Scenario, Strategy};
use armada::net::{Addr, MeasurementCampaign};
use armada::sim::SimRng;
use armada::types::{NodeClass, NodeId, SimDuration, SimTime, UserId};

/// Fig. 1: volunteer < Local Zone < cloud RTT ordering.
#[test]
fn fig1_rtt_ordering() {
    let env = EnvSpec::realworld(8);
    let net = env.to_network();
    let sources: Vec<Addr> = (0..8).map(|i| Addr::User(UserId::new(i))).collect();
    let class_median = |class: NodeClass| {
        let targets: Vec<Addr> = env
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.class == class)
            .map(|(i, _)| Addr::Node(NodeId::new(i as u64)))
            .collect();
        let campaign = MeasurementCampaign::new(sources.clone(), targets, 40);
        let mut rng = SimRng::seed_from(1);
        let summaries = campaign.run(&net, &mut rng);
        summaries.iter().map(|s| s.median).min().unwrap()
    };
    let volunteer = class_median(NodeClass::Volunteer);
    let dedicated = class_median(NodeClass::Dedicated);
    let cloud = class_median(NodeClass::Cloud);
    assert!(
        volunteer < dedicated,
        "volunteer {volunteer} vs local zone {dedicated}"
    );
    assert!(dedicated < cloud, "local zone {dedicated} vs cloud {cloud}");
    assert!(cloud > SimDuration::from_millis(60), "cloud pays WAN RTT");
}

/// Table II: the executor reproduces every profile's base frame time.
#[test]
fn table2_processing_times() {
    for (label, _, hw) in armada::types::table2_profiles() {
        let mut exec = armada::workload::PsExecutor::new(&hw);
        exec.admit((), SimTime::ZERO);
        let done = exec.advance(SimTime::from_secs(1));
        let measured = done[0].1.saturating_since(SimTime::ZERO);
        assert_eq!(measured, hw.base_frame_time(), "{label}");
    }
}

/// Fig. 5 at reduced scale: client-centric beats the edge baselines and
/// dedicated-only ends behind the cloud.
#[test]
fn fig5_orderings_at_ten_users() {
    let steady = |strategy: Strategy| {
        Scenario::new(EnvSpec::realworld(10), strategy)
            .duration(SimDuration::from_secs(30))
            .seed(5)
            .run()
            .recorder()
            .user_mean_in_window(SimTime::from_secs(15), SimTime::from_secs(30))
            .unwrap()
            .as_millis_f64()
    };
    let cc = steady(Strategy::client_centric());
    let geo = steady(Strategy::GeoProximity);
    let wrr = steady(Strategy::ResourceAwareWrr);
    let dedicated = steady(Strategy::DedicatedOnly);
    let cloud = steady(Strategy::ClosestCloud);
    assert!(cc < geo, "cc {cc:.1} vs geo {geo:.1}");
    assert!(cc < wrr, "cc {cc:.1} vs wrr {wrr:.1}");
    assert!(cc < dedicated && cc < cloud);
    assert!(
        dedicated > cloud,
        "fixed dedicated tier saturates: {dedicated:.1} vs cloud {cloud:.1}"
    );
}

/// Fig. 9's overhead shape at reduced scale: probe volume grows with
/// TopN, test-workload invocations stay nearly flat.
#[test]
fn fig9_probe_vs_test_workload_scaling() {
    let run = |top_n: usize| {
        let result = Scenario::new(
            EnvSpec::realworld(6),
            Strategy::client_centric_with(
                armada::types::ClientConfig::default()
                    .with_top_n(top_n)
                    .with_probing_period(SimDuration::from_secs(5)),
            ),
        )
        .duration(SimDuration::from_secs(40))
        .seed(6)
        .run();
        (
            result.world().total_probes_sent(),
            result.world().total_test_invocations(),
        )
    };
    let (probes_1, tests_1) = run(1);
    let (probes_5, tests_5) = run(5);
    assert!(
        probes_5 as f64 >= 2.0 * probes_1 as f64,
        "probes must grow strongly with TopN: {probes_1} -> {probes_5}"
    );
    let probe_growth = probes_5 as f64 / probes_1 as f64;
    let test_growth = tests_5 as f64 / tests_1.max(1) as f64;
    assert!(
        test_growth < probe_growth,
        "test workloads are cache-refreshes, not per-probe: {test_growth:.1} vs {probe_growth:.1}"
    );
}

/// Table I semantics: probes answer from cache; joins synchronise on
/// seqNum — surviving a concurrent-selection conflict.
#[test]
fn join_synchronisation_resolves_selection_conflicts() {
    use armada::node::EdgeNode;
    use armada::types::{GeoPoint, HardwareProfile};
    let mut node = EdgeNode::new(
        NodeId::new(1),
        NodeClass::Volunteer,
        HardwareProfile::new("conflict-test", 4, 24.0),
        GeoPoint::new(44.98, -93.26),
        SimDuration::from_millis(40),
        0.25,
    );
    // Two users probe at the same instant and both pick this node.
    let actions = &mut Vec::new();
    let reply_a = node.process_probe(SimTime::ZERO, actions);
    let reply_b = node.process_probe(SimTime::ZERO, actions);
    assert_eq!(reply_a.seq_num, reply_b.seq_num);
    let first = node.join(UserId::new(1), reply_a.seq_num, SimTime::ZERO, actions);
    let second = node.join(UserId::new(2), reply_b.seq_num, SimTime::ZERO, actions);
    assert!(first.is_ok());
    assert!(
        second.is_err(),
        "the conflicting join must be rejected (Algorithm 1)"
    );
    assert_eq!(node.attached_count(), 1);
}
