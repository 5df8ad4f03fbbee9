//! The one table of event names.

/// Every event kind emitted in the workspace, with the role that writes
/// it. A kind not listed here is a name nobody agreed on:
/// [`inspect::unknown_kinds`](crate::inspect::unknown_kinds) finds it in
/// a trace and `trace_inspect` fails on it.
///
/// Roles: `client`, `node` and `manager` are the narrators of the three
/// protocol cores (`armada_client::Narrator`, `armada_node::Narrator`,
/// `armada_manager::Narrator`), so both runtimes write these alike;
/// `simulator` is the scenario runner's world (churn, kills, shard and
/// fault-plan outages, shard routing); a `live …` role is one live
/// driver's own (load shedding, the heartbeat link, peer-sync health);
/// `bench` and `perfbench` mark the benchmark binaries' runs.
pub const KINDS: &[(&str, &str)] = &[
    ("probe.round.start", "client"),
    ("probe.round.done", "client"),
    ("sel.predict", "client"),
    ("client.join", "client"),
    ("client.join.rejected", "client"),
    ("client.switch", "client"),
    ("sel.switch", "client"),
    ("client.assign", "client"),
    ("client.failure", "client"),
    ("client.failover", "client"),
    ("frame.done", "client"),
    ("fed.failover", "client"),
    ("mgr.discover", "client"),
    ("mgr.busy", "client"),
    ("chaos.breaker.open", "client"),
    ("chaos.breaker.half_open", "client"),
    ("chaos.breaker.close", "client"),
    ("chaos.degraded", "client"),
    ("chaos.degraded.recovered", "client"),
    ("node.join", "node"),
    ("node.join.rejected", "node"),
    ("node.unexpected_join", "node"),
    ("node.detach", "node"),
    ("node.whatif.refresh", "node"),
    ("node.register", "manager"),
    ("mgr.prune", "manager"),
    ("fed.sync", "manager"),
    ("fed.route", "simulator"),
    ("node.leave", "simulator"),
    ("churn.join", "simulator"),
    ("shard.down", "simulator"),
    ("shard.up", "simulator"),
    ("chaos.crash", "simulator"),
    ("chaos.restart", "simulator"),
    ("probe.udp.fallback", "live client"),
    ("node.shed", "live node"),
    ("node.heartbeat.reregister", "live node"),
    ("node.heartbeat.reconnected", "live node"),
    ("node.heartbeat.lost", "live node"),
    ("mgr.shed", "live manager"),
    ("mgr.request.panic", "live manager"),
    ("fed.peer.dead", "live manager"),
    ("fed.peer.revived", "live manager"),
    ("overload.evict", "live node, live manager"),
    ("discover.sweep", "bench"),
    ("perf.session.start", "perfbench"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_is_listed_once() {
        let mut names: Vec<&str> = KINDS.iter().map(|&(kind, _)| kind).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KINDS.len());
    }
}
