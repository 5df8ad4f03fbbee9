//! Sharding the manager tier must not change what users select: with
//! every shard up and synced, a federated run is behaviourally identical
//! to the single-manager baseline, and a shard failure costs at most one
//! routing retry (plus summary staleness bounded by one sync period).

use armada::core::{EnvSpec, FederationSpec, RunResult, Scenario, Strategy};
use armada::types::{SimDuration, SimTime, UserId};

const SEED: u64 = 42;
const N_USERS: usize = 12;
const DURATION_S: u64 = 30;

fn run(env: EnvSpec) -> RunResult {
    Scenario::new(env, Strategy::client_centric())
        .duration(SimDuration::from_secs(DURATION_S))
        .seed(SEED)
        .run()
}

/// The tentpole equivalence claim: a 4-way federation with all shards up
/// makes the same same-seed selection decisions as the single manager —
/// same attachments, same samples, same probe traffic.
#[test]
fn four_shard_federation_matches_the_single_manager_baseline() {
    let baseline = run(EnvSpec::realworld(N_USERS));
    let federated = run(EnvSpec::realworld(N_USERS).with_federation(FederationSpec::new(4)));

    let cluster = federated.world().managers();
    assert_eq!(cluster.shard_count(), 4);

    for i in 0..N_USERS {
        let user = UserId::new(i as u64);
        assert_eq!(
            baseline.world().client(user).unwrap().current_node(),
            federated.world().client(user).unwrap().current_node(),
            "user {i} attached differently under federation"
        );
    }
    assert_eq!(baseline.recorder().len(), federated.recorder().len());
    assert_eq!(baseline.recorder().mean(), federated.recorder().mean());
    assert_eq!(
        baseline.world().total_probes_sent(),
        federated.world().total_probes_sent()
    );
    assert_eq!(
        baseline.world().total_hard_failures(),
        federated.world().total_hard_failures()
    );
}

/// Sharding spreads the control-plane write load: every shard owns a
/// share of registrations/heartbeats, and together they own them all.
#[test]
fn federation_shards_the_registry_load() {
    let federated = run(EnvSpec::realworld(N_USERS).with_federation(FederationSpec::new(2)));
    let cluster = federated.world().managers();

    let own_counts: Vec<usize> = cluster.shards().iter().map(|s| s.own_count()).collect();
    assert_eq!(own_counts.iter().sum::<usize>(), 10, "all 10 nodes homed");
    assert!(
        own_counts.iter().all(|&c| c > 0),
        "every shard must own some nodes, got {own_counts:?}"
    );
    for shard in cluster.shards() {
        assert!(shard.counters().sync_rounds > 0, "shards synced");
        assert!(
            shard.counters().heartbeats > 0,
            "each shard serves its own heartbeats"
        );
    }
}

/// Killing a user's home shard must not strand them: discovery re-routes
/// to the next-nearest shard (one routing retry), which serves from
/// synced summaries, and frames keep flowing throughout.
#[test]
fn home_shard_failure_re_routes_discovery_and_streaming_survives() {
    let spec = FederationSpec::new(2);
    // Pilot: find user 0's home shard.
    let pilot = run(EnvSpec::realworld(N_USERS).with_federation(spec));
    let user0_loc = EnvSpec::realworld(N_USERS).users[0].location;
    let home = pilot.world().managers().map().home(user0_loc);

    let kill_at = SimTime::from_secs(10);
    let result = Scenario::new(
        EnvSpec::realworld(N_USERS).with_federation(spec),
        Strategy::client_centric(),
    )
    .duration(SimDuration::from_secs(DURATION_S))
    .seed(SEED)
    .kill_shard(home.as_u64() as usize, kill_at)
    .run();

    let cluster = result.world().managers();
    assert!(!cluster.is_up(home), "the kill must stick");

    // The surviving shard served discoveries after the kill (periodic
    // re-probing lands there via the failover path).
    let fallback = cluster
        .shards()
        .iter()
        .find(|s| s.id() != home)
        .expect("two shards");
    assert!(
        fallback.counters().discoveries > 0,
        "the surviving shard must serve re-routed discoveries"
    );

    // Streaming never stopped: user 0 has samples right up to the end,
    // and no inter-sample gap after the kill exceeds the failover budget
    // (one routing retry + one sync period, plus scheduling slack).
    let budget_us = (spec.route_retry + spec.sync_period).as_micros() + 2_000_000;
    let mut last: Option<SimTime> = None;
    let mut max_gap_us = 0u64;
    for sample in result
        .recorder()
        .samples()
        .iter()
        .filter(|s| s.user == UserId::new(0) && s.at >= kill_at)
    {
        if let Some(prev) = last {
            max_gap_us = max_gap_us.max(sample.at.saturating_since(prev).as_micros());
        }
        last = Some(sample.at);
    }
    let last = last.expect("user 0 streamed after the shard kill");
    assert!(
        last >= SimTime::from_secs(DURATION_S - 2),
        "user 0 stopped streaming at {last}"
    );
    assert!(
        max_gap_us < budget_us,
        "worst post-kill sample gap {max_gap_us}µs exceeds the failover budget {budget_us}µs"
    );
}

/// Sync-message loss delays summary freshness but cannot change where
/// users end up: a receiver that missed a delta gets a full resync on
/// the next round, so a 4-shard federation under seeded 10% sync loss
/// still converges to the single-manager baseline's final attachments.
#[test]
fn federation_converges_to_baseline_under_sync_message_loss() {
    use armada::chaos::FaultPlan;

    let baseline = run(EnvSpec::realworld(N_USERS));
    let lossy = Scenario::new(
        EnvSpec::realworld(N_USERS).with_federation(FederationSpec::new(4)),
        Strategy::client_centric(),
    )
    .duration(SimDuration::from_secs(DURATION_S))
    .seed(SEED)
    .with_fault_plan(FaultPlan::new(SEED).with_sync_drop(0.10))
    .run();

    let stats = lossy.world().fault_stats().expect("plan installed");
    assert!(stats.sync_dropped > 0, "the 10% loss must actually bite");

    for i in 0..N_USERS {
        let user = UserId::new(i as u64);
        assert_eq!(
            baseline.world().client(user).unwrap().current_node(),
            lossy.world().client(user).unwrap().current_node(),
            "user {i} diverged under sync loss"
        );
    }
    // Convergence stayed bounded: every shard kept completing rounds
    // (loss never wedges the sync loop) and the missed-delta recovery
    // shows up as sync traffic, not as stranded users.
    let cluster = lossy.world().managers();
    for shard in cluster.shards() {
        assert!(shard.counters().sync_rounds > 0, "sync loop kept running");
    }
}

/// A revived shard is caught up by a full resync and resumes serving its
/// home users.
#[test]
fn revived_shard_resumes_after_full_resync() {
    let spec = FederationSpec::new(2);
    let pilot = run(EnvSpec::realworld(N_USERS).with_federation(spec));
    let user0_loc = EnvSpec::realworld(N_USERS).users[0].location;
    let home = pilot.world().managers().map().home(user0_loc);

    let result = Scenario::new(
        EnvSpec::realworld(N_USERS).with_federation(spec),
        Strategy::client_centric(),
    )
    .duration(SimDuration::from_secs(DURATION_S))
    .seed(SEED)
    .kill_shard(home.as_u64() as usize, SimTime::from_secs(8))
    .revive_shard(home.as_u64() as usize, SimTime::from_secs(16))
    .run();

    let cluster = result.world().managers();
    assert!(cluster.is_up(home));
    // After revival the home shard serves again: it accumulated
    // discoveries past the ones before the kill, and everyone is still
    // attached at the end.
    for client in result.world().clients() {
        assert!(client.current_node().is_some());
    }
}

/// Sharding moves the registry load, it neither loses nor duplicates a
/// write: driven straight through the cluster over a 60 s timeline, 20
/// nodes and 200 users in a continental box, two shards handle exactly
/// the single manager's registry operations, each node's registration
/// and every one of its heartbeats land on one shard, and every user's
/// top candidate is the single manager's.
#[test]
fn shards_conserve_registry_ops_and_keep_each_node_whole() {
    use armada::federation::{FederatedCluster, ShardMap};
    use armada::manager::GlobalSelectionPolicy;
    use armada::node::NodeStatus;
    use armada::types::{mix64, GeoPoint, NodeClass, NodeId, SystemConfig};

    const USERS: u64 = 200;
    const NODES: u64 = 20;
    const HEARTBEAT_S: u64 = 2;
    const TIMELINE_S: u64 = 60;
    // A node's registration plus one heartbeat a period.
    const OPS_PER_NODE: u64 = 1 + TIMELINE_S / HEARTBEAT_S;

    let unit = |i: u64| (mix64(4242 ^ i) >> 11) as f64 / (1u64 << 53) as f64;
    let point = |i: u64| GeoPoint::new(25.0 + unit(2 * i) * 24.0, -124.0 + unit(2 * i + 1) * 57.0);
    let nodes: Vec<NodeStatus> = (0..NODES)
        .map(|i| NodeStatus {
            node: NodeId::new(i),
            class: NodeClass::Volunteer,
            location: point(i),
            attached_users: 0,
            load_score: unit(1_000 + i),
        })
        .collect();
    let users: Vec<GeoPoint> = (0..USERS).map(|i| point(NODES + i)).collect();

    // Per K: every shard's registry ops, and each user's top candidate.
    let run_k = |k: usize| {
        let mut points: Vec<GeoPoint> = nodes.iter().map(|n| n.location).collect();
        points.extend_from_slice(&users);
        let mut cluster = FederatedCluster::new(
            ShardMap::partition(&points, k),
            SystemConfig::default(),
            GlobalSelectionPolicy::default(),
        );
        for node in &nodes {
            cluster.register(*node, SimTime::ZERO);
        }
        // Heartbeats on the period grid, sync rounds 500 µs off it, as
        // the simulator phases them.
        for step in 1..=TIMELINE_S / HEARTBEAT_S {
            let at = SimTime::from_secs(step * HEARTBEAT_S);
            for node in &nodes {
                cluster.heartbeat(*node, at);
            }
            cluster.sync_round(SimTime::from_micros(at.as_micros() + 500));
        }
        let now = SimTime::from_secs(TIMELINE_S);
        let top1: Vec<Option<NodeId>> = users
            .iter()
            .map(|&loc| {
                let routed = cluster
                    .discover(loc, &[], 3, now)
                    .expect("every shard is up");
                routed.candidates.first().copied()
            })
            .collect();
        let ops: Vec<u64> = cluster
            .shards()
            .iter()
            .map(|s| s.counters().registry_ops())
            .collect();
        (ops, top1)
    };

    let (single_ops, single_top1) = run_k(1);
    assert_eq!(single_ops, [NODES * OPS_PER_NODE]);
    let (ops, top1) = run_k(2);
    assert_eq!(ops.len(), 2);
    assert_eq!(
        ops.iter().sum::<u64>(),
        single_ops[0],
        "ops per shard {ops:?}"
    );
    assert!(
        ops.iter().all(|o| o % OPS_PER_NODE == 0),
        "a node's {OPS_PER_NODE} ops are split across shards: {ops:?}"
    );
    assert_eq!(top1, single_top1, "top-1 candidates differ from K=1");
}

#[cfg(feature = "trace")]
mod traced {
    use super::*;
    use armada::trace::{inspect, MemorySink, Severity, Tracer};

    fn traced_federated_run() -> (String, RunResult) {
        let spec = FederationSpec::new(4);
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        let result = Scenario::new(
            EnvSpec::realworld(N_USERS).with_federation(spec),
            Strategy::client_centric(),
        )
        .duration(SimDuration::from_secs(DURATION_S))
        .seed(SEED)
        .kill_shard(0, SimTime::from_secs(12))
        .with_tracer(tracer.clone())
        .run();
        tracer.flush();
        let text = buffer.lock().expect("not poisoned").clone();
        (text, result)
    }

    /// Federated runs are as deterministic as baseline ones: the whole
    /// event stream — sync rounds, shard routing, the failover — is
    /// byte-identical across same-seed reruns.
    #[test]
    fn federated_traces_are_byte_identical_across_reruns() {
        let (first, result_a) = traced_federated_run();
        let (second, result_b) = traced_federated_run();
        assert!(!first.is_empty());
        assert_eq!(first, second, "federated trace must be deterministic");
        assert_eq!(result_a.recorder().len(), result_b.recorder().len());
        assert_eq!(result_a.recorder().mean(), result_b.recorder().mean());
    }

    /// The federation-specific event kinds show up and reconstruct the
    /// shard story: routing decisions, periodic sync rounds, the kill,
    /// and bounded failover re-routes.
    #[test]
    fn federated_trace_reconstructs_routing_sync_and_failover() {
        let spec = FederationSpec::new(4);
        let (text, _) = traced_federated_run();
        let events = inspect::parse_jsonl(&text).expect("trace parses");
        let unknown = inspect::unknown_kinds(&events);
        assert!(unknown.is_empty(), "kinds not in KINDS: {unknown:?}");

        let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
        assert!(count("fed.route") > 0, "discoveries must emit fed.route");
        assert!(count("fed.sync") > 0, "sync rounds must emit fed.sync");
        assert_eq!(count("shard.down"), 1, "exactly one shard kill");
        assert!(
            count("fed.failover") > 0,
            "users homed on the dead shard must re-route"
        );

        // Every failover resolves: a successful re-routed discovery for
        // the same user follows within the routing retry (plus the probe
        // timeout for scheduling slack).
        let budget_us = spec.route_retry.as_micros() + 1_100_000;
        for (i, event) in events.iter().enumerate() {
            if event.kind != "fed.failover" {
                continue;
            }
            let user = event.field_u64("user").unwrap();
            let resolved = events[i..].iter().find(|e| {
                e.kind == "fed.route"
                    && e.field_u64("user") == Some(user)
                    && e.field_u64("failover") == Some(1)
                    && e.field_u64("returned").unwrap_or(0) > 0
            });
            let route = resolved.expect("failover must resolve to a served discovery");
            assert!(
                route.t_us - event.t_us <= budget_us,
                "failover for user {user} took {}µs (budget {budget_us}µs)",
                route.t_us - event.t_us
            );
        }

        // Sync rounds land on the configured off-grid instants.
        let first_sync = events.iter().find(|e| e.kind == "fed.sync").unwrap();
        assert_eq!(first_sync.t_us, spec.sync_offset.as_micros());
    }
}
