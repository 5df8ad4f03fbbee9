//! Adapter from a live [`World`] to the static [`AssignmentProblem`]
//! used by the optimal baseline (Fig. 7).

use armada_baselines::{AssignmentProblem, NodeSpec, UserSpec};
use armada_net::Addr;
use armada_types::{NodeId, UserId};
use armada_workload::FRAME_SIZE;

use crate::world::World;

/// Snapshots the world's alive nodes and users into the paper's static
/// assignment formulation: mean RTTs (jitter-free), per-user frame
/// transfer delays, and the hardware profiles backing `D_proc`.
///
/// Returns the problem plus the node-id order used for its node indices,
/// so callers can translate an [`armada_baselines::Assignment`] back to
/// real identities.
pub fn to_assignment_problem(world: &World, fps: f64) -> (AssignmentProblem, Vec<NodeId>) {
    let mut user_ids: Vec<UserId> = world.clients().map(|c| c.id()).collect();
    user_ids.sort_unstable();
    let mut node_ids: Vec<NodeId> = world
        .nodes()
        .filter(|n| world.node_is_up(n.id()))
        .map(|n| n.id())
        .collect();
    node_ids.sort_unstable();

    let users: Vec<UserSpec> = user_ids
        .iter()
        .map(|&u| {
            let transfer_ms = world
                .network()
                .endpoint(Addr::User(u))
                .map(|ep| ep.uplink().transfer_time(FRAME_SIZE).as_millis_f64())
                .unwrap_or(8.0);
            UserSpec::new(u).with_transfer_ms(transfer_ms)
        })
        .collect();

    let nodes: Vec<NodeSpec> = node_ids
        .iter()
        .map(|&id| {
            let node = world.node(id).expect("listed above");
            NodeSpec::new(id, node.hardware().clone())
        })
        .collect();

    let rtt_ms: Vec<Vec<f64>> = user_ids
        .iter()
        .map(|&u| {
            node_ids
                .iter()
                .map(|&n| {
                    world
                        .network()
                        .mean_rtt(Addr::User(u), Addr::Node(n))
                        .map(|d| d.as_millis_f64())
                        // Unreachable pairs are effectively infinite.
                        .unwrap_or(1e9)
                })
                .collect()
        })
        .collect();

    let problem = AssignmentProblem::new(users, nodes, fps).with_rtt_ms(rtt_ms);
    (problem, node_ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnvSpec, Scenario, Strategy};
    use armada_chaos::{FaultPlan, PeerId};
    use armada_types::{SimDuration, SimTime};

    #[test]
    fn snapshot_covers_all_alive_nodes_and_users() {
        let result = Scenario::new(EnvSpec::realworld(5), Strategy::client_centric())
            .duration(SimDuration::from_secs(5))
            .run();
        let (problem, node_ids) = to_assignment_problem(result.world(), 20.0);
        assert_eq!(problem.users().len(), 5);
        assert_eq!(problem.nodes().len(), 10);
        assert_eq!(node_ids.len(), 10);
        // RTTs are sane: positive, cloud far larger than best local.
        for u in 0..5 {
            let rtts: Vec<f64> = (0..10).map(|n| problem.rtt_ms(u, n)).collect();
            let min = rtts.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = rtts.iter().cloned().fold(0.0f64, f64::max);
            assert!(min > 1.0 && min < 40.0, "min rtt {min}");
            assert!(max > 50.0, "cloud rtt {max}");
        }
    }

    #[test]
    fn dead_nodes_are_excluded() {
        let at = SimTime::from_secs(1);
        let crash = FaultPlan::new(0).crash(PeerId::node(0), at, SimTime::MAX);
        let result = Scenario::new(EnvSpec::realworld(3), Strategy::client_centric())
            .duration(SimDuration::from_secs(5))
            .with_fault_plan(crash)
            .run();
        let (problem, node_ids) = to_assignment_problem(result.world(), 20.0);
        assert_eq!(problem.nodes().len(), 9);
        assert!(!node_ids.contains(&NodeId::new(0)));
    }

    #[test]
    fn optimal_on_snapshot_beats_cloud_assignment() {
        let result = Scenario::new(EnvSpec::realworld(6), Strategy::client_centric())
            .duration(SimDuration::from_secs(5))
            .run();
        let (problem, node_ids) = to_assignment_problem(result.world(), 20.0);
        let optimal = armada_baselines::optimal(&problem, 0);
        let cloud_index = node_ids.len() - 1; // cloud has the largest id
        let all_cloud = armada_baselines::Assignment::new(vec![cloud_index; 6]);
        assert!(
            problem.mean_latency_ms(&optimal) < problem.mean_latency_ms(&all_cloud),
            "optimal must beat the all-cloud assignment"
        );
    }
}
