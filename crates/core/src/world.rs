//! The simulation world: all mutable system state.

use std::collections::{HashMap, HashSet};

use armada_client::EdgeClient;
use armada_federation::FederatedCluster;
use armada_metrics::LatencyRecorder;
use armada_net::Network;
use armada_node::{EdgeNode, NodeAction};
use armada_trace::Tracer;
use armada_types::{
    ClientConfig, NodeId, SimDuration, SimTime, SystemConfig, U64BuildHasher, UserId,
};

use crate::strategy::Strategy;

/// A map keyed by a simulator id. The ids are the run's own, not input
/// an attacker picks, and every event reads these tables, so they hash
/// with [`U64BuildHasher`] instead of SipHash.
pub(crate) type IdMap<K, V> = HashMap<K, V, U64BuildHasher>;

/// A set of simulator ids, hashed like [`IdMap`].
pub(crate) type IdSet<K> = HashSet<K, U64BuildHasher>;

/// Everything the scenario events read and mutate.
///
/// Obtained from [`crate::Scenario::run`] via [`crate::RunResult`]; the
/// public accessors expose the measurement surfaces (recorder, client
/// and node statistics, manager counters).
pub struct World {
    pub(crate) net: Network,
    /// The manager tier: the shards of
    /// [`crate::EnvSpec::with_federation`], or a federation of one.
    pub(crate) managers: FederatedCluster,
    /// How long a client waits on a shard that is down before it gives
    /// up on it ([`crate::FederationSpec::route_retry`]).
    pub(crate) route_retry: SimDuration,
    pub(crate) nodes: IdMap<NodeId, EdgeNode>,
    pub(crate) clients: IdMap<UserId, EdgeClient>,
    pub(crate) recorder: LatencyRecorder,
    pub(crate) strategy: Strategy,
    pub(crate) client_config: ClientConfig,
    pub(crate) system: SystemConfig,
    pub(crate) streaming: IdSet<UserId>,
    pub(crate) periodic_started: IdSet<UserId>,
    /// Nodes that have left for good (churn departures); wake-ups and
    /// actions for them are dropped.
    pub(crate) dead_nodes: IdSet<NodeId>,
    /// Scenario horizon: self-perpetuating loops stop past this point.
    pub(crate) end_time: SimTime,
    /// Serving-node failures as observed by clients: `(user, when)`.
    pub(crate) failure_events: Vec<(UserId, SimTime)>,
    /// Declared network affiliations per user, passed to discovery.
    pub(crate) affiliations: IdMap<UserId, Vec<NodeId>>,
    /// Structured event sink (disabled by default; events are stamped
    /// with virtual time, so traced runs stay deterministic).
    pub(crate) tracer: Tracer,
    /// The node cores' actions, lent to each entry into a node and
    /// empty between entries.
    pub(crate) node_actions: Vec<NodeAction>,
}

impl World {
    /// The latency measurements collected during the run.
    pub fn recorder(&self) -> &LatencyRecorder {
        &self.recorder
    }

    /// The network substrate.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The manager tier: one shard in a standalone run, the shards of
    /// [`crate::EnvSpec::with_federation`] in a federated one.
    pub fn managers(&self) -> &FederatedCluster {
        &self.managers
    }

    /// Total discovery queries served by the manager tier.
    pub fn discoveries_served(&self) -> u64 {
        self.managers.discoveries_served()
    }

    /// All edge nodes ever present (including churned-out ones).
    pub fn nodes(&self) -> impl Iterator<Item = &EdgeNode> {
        self.nodes.values()
    }

    /// A specific node, if it ever existed.
    pub fn node(&self, id: NodeId) -> Option<&EdgeNode> {
        self.nodes.get(&id)
    }

    /// All clients.
    pub fn clients(&self) -> impl Iterator<Item = &EdgeClient> {
        self.clients.values()
    }

    /// A specific client.
    pub fn client(&self, id: UserId) -> Option<&EdgeClient> {
        self.clients.get(&id)
    }

    /// The strategy that ran.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Total probe requests sent by all clients (Fig. 9a).
    pub fn total_probes_sent(&self) -> u64 {
        self.clients.values().map(|c| c.stats().probes_sent).sum()
    }

    /// Total test-workload invocations across all nodes (Fig. 9b).
    pub fn total_test_invocations(&self) -> u64 {
        self.nodes
            .values()
            .map(|n| n.stats().test_invocations)
            .sum()
    }

    /// Total hard failures (re-discovery required) across all clients
    /// (Fig. 10b).
    pub fn total_hard_failures(&self) -> u64 {
        self.clients.values().map(|c| c.stats().hard_failures).sum()
    }

    /// Total failovers absorbed by warm backups.
    pub fn total_backup_failovers(&self) -> u64 {
        self.clients
            .values()
            .map(|c| c.stats().backup_failovers)
            .sum()
    }

    /// Every serving-node failure observed by a client, with its time —
    /// the events Fig. 10a measures recovery gaps around.
    pub fn failure_events(&self) -> &[(UserId, SimTime)] {
        &self.failure_events
    }

    /// Number of clients with a probe round awaiting conclusion. A
    /// concluded round is closed, so at quiesce (no probe round in
    /// flight) this is zero — the invariant that a round's bookkeeping
    /// does not outlive the round.
    pub fn open_probe_rounds(&self) -> usize {
        let clients = self.clients.values();
        clients.filter_map(EdgeClient::open_probe_round).count()
    }

    /// The tracer events of this run are emitted through.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Total circuit-breaker state transitions across all users'
    /// discovery paths.
    pub fn breaker_transitions(&self) -> u64 {
        self.clients().map(EdgeClient::breaker_transitions).sum()
    }

    /// Users currently in degraded mode (manager unreachable, probing
    /// their cached shortlist; any attachment keeps serving).
    pub fn degraded_users(&self) -> usize {
        self.clients().filter(|c| c.is_degraded()).count()
    }

    /// Fault-injection counters, when the run carries a fault plan.
    pub fn fault_stats(&self) -> Option<armada_chaos::InjectorStats> {
        self.net.fault_stats()
    }

    /// `true` while the node is present and reachable.
    pub(crate) fn node_is_up(&self, id: NodeId) -> bool {
        !self.dead_nodes.contains(&id) && self.net.is_up(armada_net::Addr::Node(id))
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("nodes", &self.nodes.len())
            .field("clients", &self.clients.len())
            .field("samples", &self.recorder.len())
            .field("strategy", &self.strategy.name())
            .finish()
    }
}
