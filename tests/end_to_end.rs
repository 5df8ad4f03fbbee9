//! End-to-end integration tests across the full workspace: environment
//! construction, scenario dynamics, strategy behaviour, failover and
//! the static-optimal adapter.

use armada::baselines;
use armada::chaos::{FaultPlan, PeerId};
use armada::core::{to_assignment_problem, EnvSpec, Scenario, Strategy};
use armada::types::{ClientConfig, LocalSelectionPolicy, NodeClass, SimDuration, SimTime, UserId};

fn steady_ms(strategy: Strategy, users: usize, seed: u64) -> f64 {
    Scenario::new(EnvSpec::realworld(users), strategy)
        .duration(SimDuration::from_secs(30))
        .seed(seed)
        .run()
        .recorder()
        .user_mean_in_window(SimTime::from_secs(15), SimTime::from_secs(30))
        .map(|d| d.as_millis_f64())
        .expect("frames flowed")
}

#[test]
fn full_runs_are_bit_deterministic() {
    let run = || {
        let r = Scenario::new(EnvSpec::realworld(6), Strategy::client_centric())
            .duration(SimDuration::from_secs(20))
            .seed(77)
            .run();
        (
            r.recorder().len(),
            r.recorder().mean(),
            r.world().total_probes_sent(),
            r.world().total_test_invocations(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn client_centric_beats_every_baseline_at_high_demand() {
    let cc = steady_ms(Strategy::client_centric(), 12, 9);
    for strategy in [
        Strategy::GeoProximity,
        Strategy::ResourceAwareWrr,
        Strategy::DedicatedOnly,
        Strategy::ClosestCloud,
    ] {
        let name = strategy.name();
        let baseline = steady_ms(strategy, 12, 9);
        assert!(
            cc < baseline,
            "{name}: client-centric {cc:.1}ms must beat {baseline:.1}ms"
        );
    }
}

#[test]
fn every_client_converges_to_a_local_edge_node() {
    let result = Scenario::new(EnvSpec::realworld(8), Strategy::client_centric())
        .duration(SimDuration::from_secs(20))
        .seed(3)
        .run();
    for client in result.world().clients() {
        let node = client.current_node().expect("attached");
        let class = result.world().node(node).expect("exists").class();
        assert_ne!(
            class,
            NodeClass::Cloud,
            "{}: no one should need the cloud",
            client.id()
        );
        // Paper: TopN − 1 backups are kept warm.
        assert!(client.backups().len() <= 2);
    }
}

#[test]
fn failover_keeps_service_continuous() {
    // Kill whichever node serves user 0 and verify frames keep flowing
    // with no hard failure (TopN = 3 leaves 2 warm backups).
    let pilot = Scenario::new(EnvSpec::realworld(6), Strategy::client_centric())
        .duration(SimDuration::from_secs(5))
        .seed(4)
        .run();
    let victim = pilot
        .world()
        .client(UserId::new(0))
        .unwrap()
        .current_node()
        .unwrap();
    let at = SimTime::from_secs(10);
    let crash = FaultPlan::new(4).crash(PeerId::node(victim.as_u64()), at, SimTime::MAX);
    let result = Scenario::new(EnvSpec::realworld(6), Strategy::client_centric())
        .duration(SimDuration::from_secs(25))
        .seed(4)
        .with_fault_plan(crash)
        .run();

    let client = result.world().client(UserId::new(0)).unwrap();
    assert_ne!(client.current_node(), Some(victim));
    assert_eq!(
        client.stats().hard_failures,
        0,
        "backups must absorb the failure"
    );
    // No response gap longer than a second for user 0 around the kill.
    let mut gaps_ms: Vec<f64> = Vec::new();
    let mut last: Option<SimTime> = None;
    for s in result
        .recorder()
        .samples()
        .iter()
        .filter(|s| s.user == UserId::new(0))
    {
        if s.at >= SimTime::from_secs(8) && s.at <= SimTime::from_secs(14) {
            if let Some(prev) = last {
                gaps_ms.push(s.at.saturating_since(prev).as_millis_f64());
            }
            last = Some(s.at);
        }
    }
    let worst = gaps_ms.iter().cloned().fold(0.0f64, f64::max);
    assert!(worst < 1_000.0, "worst gap {worst:.0}ms across the failure");
}

#[test]
fn qos_filtered_policy_avoids_slow_candidates() {
    let config = ClientConfig::default().with_policy(LocalSelectionPolicy::QosFiltered);
    let result = Scenario::new(EnvSpec::realworld(6), Strategy::client_centric_with(config))
        .duration(SimDuration::from_secs(20))
        .seed(5)
        .run();
    let mean = result.recorder().mean().expect("frames flowed");
    assert!(
        mean < SimDuration::from_millis(150),
        "QoS-filtered selection stays inside the bound, got {mean}"
    );
}

#[test]
fn snapshot_problem_agrees_with_simulated_latencies() {
    // The analytic single-user latency must be close to what the
    // simulator measures for an uncontended assignment.
    let result = Scenario::new(EnvSpec::realworld(1), Strategy::client_centric())
        .duration(SimDuration::from_secs(20))
        .seed(6)
        .run();
    let measured = result.recorder().mean().unwrap().as_millis_f64();
    let (problem, node_ids) = to_assignment_problem(result.world(), 20.0);
    let serving = result
        .world()
        .client(UserId::new(0))
        .unwrap()
        .current_node()
        .unwrap();
    let node_index = node_ids.iter().position(|&n| n == serving).unwrap();
    let analytic = problem.latency_with_load_ms(0, node_index, 1);
    let diff = (measured - analytic).abs();
    assert!(
        diff < 15.0,
        "analytic {analytic:.1}ms vs simulated {measured:.1}ms differ by {diff:.1}ms"
    );
}

#[test]
fn optimal_solver_beats_simulated_baselines_analytically() {
    for strategy in [
        Strategy::GeoProximity,
        Strategy::ResourceAwareWrr,
        Strategy::DedicatedOnly,
        Strategy::ClosestCloud,
    ] {
        let name = strategy.name();
        let result = Scenario::new(EnvSpec::realworld(10), strategy)
            .duration(SimDuration::from_secs(5))
            .seed(7)
            .run();
        let (problem, node_ids) = to_assignment_problem(result.world(), 20.0);
        // Where the simulated baseline placed each user, as indices
        // into the snapshot's nodes.
        let placed = (0..problem.users().len() as u64)
            .map(|u| {
                let client = result.world().client(UserId::new(u)).unwrap();
                let node = client.current_node().expect("every user is placed");
                node_ids.iter().position(|&n| n == node).unwrap()
            })
            .collect();
        let simulated = problem.mean_latency_ms(&baselines::Assignment::new(placed));
        let optimal = problem.mean_latency_ms(&baselines::optimal(&problem, 0));
        assert!(
            optimal <= simulated + 1e-9,
            "{name}: optimal {optimal:.1} ms vs simulated {simulated:.1} ms"
        );
    }
}

#[test]
fn reactive_failover_is_slower_than_proactive() {
    let run = |strategy: Strategy| {
        let pilot = Scenario::new(EnvSpec::realworld(4), strategy.clone())
            .duration(SimDuration::from_secs(5))
            .seed(8)
            .run();
        let victim = pilot
            .world()
            .client(UserId::new(0))
            .unwrap()
            .current_node()
            .unwrap();
        // Kill before the first periodic re-probe (~10 s) so the pilot's
        // serving node is still the victim's serving node.
        let at = SimTime::from_secs(7);
        let crash = FaultPlan::new(8).crash(PeerId::node(victim.as_u64()), at, SimTime::MAX);
        Scenario::new(EnvSpec::realworld(4), strategy)
            .duration(SimDuration::from_secs(25))
            .seed(8)
            .with_fault_plan(crash)
            .run()
    };
    let gap_after_kill = |result: &armada::core::RunResult| {
        let mut last = SimTime::ZERO;
        let mut worst = 0.0f64;
        for s in result
            .recorder()
            .samples()
            .iter()
            .filter(|s| s.user == UserId::new(0))
        {
            if s.at > SimTime::from_secs(6) && last > SimTime::ZERO {
                worst = worst.max(s.at.saturating_since(last).as_millis_f64());
            }
            last = s.at;
        }
        worst
    };
    let proactive = run(Strategy::client_centric());
    let reactive = run(Strategy::client_centric_reactive());
    let (p, r) = (gap_after_kill(&proactive), gap_after_kill(&reactive));
    assert!(
        r > p,
        "reactive recovery gap ({r:.0}ms) must exceed proactive ({p:.0}ms)"
    );
    assert!(
        r > 1_000.0,
        "reactive pays the reconnect timeout, got {r:.0}ms"
    );
}

#[test]
fn pinned_strategy_enforces_the_given_assignment() {
    use std::collections::HashMap;
    let env = EnvSpec::realworld(3);
    // Pin everyone to the cloud (node index 9).
    let map: HashMap<_, _> = (0..3)
        .map(|i| (UserId::new(i), armada::types::NodeId::new(9)))
        .collect();
    let result = Scenario::new(env, Strategy::Pinned { map })
        .duration(SimDuration::from_secs(15))
        .seed(9)
        .run();
    for client in result.world().clients() {
        assert_eq!(client.current_node(), Some(armada::types::NodeId::new(9)));
    }
    assert!(result.recorder().mean().unwrap() > SimDuration::from_millis(100));
}
