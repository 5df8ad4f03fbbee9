//! Scenario construction and execution.

use armada_chaos::{FaultPlan, PeerClass, PeerId};
use armada_churn::ChurnTrace;
use armada_client::EdgeClient;
use armada_federation::{FederatedCluster, ShardMap};
use armada_manager::{GlobalSelectionPolicy, Narrator};
use armada_metrics::LatencyRecorder;
use armada_net::{Addr, Endpoint};
use armada_node::EdgeNode;
use armada_sim::SimRng;
use armada_trace::{s, u, Severity, Tracer};
use armada_types::{
    AccessNetwork, GeoPoint, HardwareProfile, NodeClass, NodeId, ShardId, SimDuration, SimTime,
    UserId,
};
use rand::Rng;

use crate::runner;
use crate::spec::{msp, EnvSpec};
use crate::strategy::Strategy;
use crate::world::{IdMap, IdSet, World};

/// When users enter the system.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Arrivals {
    /// Everyone at t = 0.
    AllAtStart,
    /// User `i` joins at `i × interval` (the paper's Fig. 6 pattern:
    /// "15 users join the system one after another every 10 seconds").
    Every(SimDuration),
    /// Explicit per-user join times.
    At(Vec<SimTime>),
}

/// A runnable experiment: environment + strategy + workload schedule.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Scenario {
    env: EnvSpec,
    strategy: Strategy,
    duration: SimDuration,
    seed: u64,
    arrivals: Arrivals,
    churn: Option<ChurnTrace>,
    tracer: Tracer,
    fault_plan: Option<FaultPlan>,
}

impl Scenario {
    /// Creates a scenario over `env` driven by `strategy`, with a
    /// 60-second duration, all users joining at the start, and seed 0.
    pub fn new(env: EnvSpec, strategy: Strategy) -> Self {
        Scenario {
            env,
            strategy,
            duration: SimDuration::from_secs(60),
            seed: 0,
            arrivals: Arrivals::AllAtStart,
            churn: None,
            tracer: Tracer::disabled(),
            fault_plan: None,
        }
    }

    /// Installs a deterministic fault plan (drops, delays, duplicates,
    /// partitions, crash-restarts, sync loss) for this run. Its crash
    /// windows are the run's one failure schedule: a node, the manager
    /// or a federation shard goes down at `down_at` and comes back at
    /// `up_at` ([`SimTime::MAX`] for never). The plan's seed, not the
    /// scenario seed, drives every fault decision, so a plan replays
    /// the same faults under any workload seed. A no-op plan (zero
    /// probabilities, no schedules) leaves the run byte-identical to a
    /// plan-free one.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches a structured-event tracer. Events are stamped with
    /// virtual time, so a traced run emits a byte-identical stream for
    /// a given configuration and seed.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Sets the virtual run length.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Sets the randomness seed (network jitter, churn matching, …).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Users join one after another every `interval` (user `i` at
    /// `i × interval`).
    pub fn users_joining_every(mut self, interval: SimDuration) -> Self {
        self.arrivals = Arrivals::Every(interval);
        self
    }

    /// Explicit join time per user (indexed like `env.users`).
    ///
    /// # Panics
    ///
    /// `run` panics if the length differs from the user count.
    pub fn users_join_at(mut self, times: Vec<SimTime>) -> Self {
        self.arrivals = Arrivals::At(times);
        self
    }

    /// Applies a churn trace: each trace event becomes an extra
    /// volunteer node (hardware drawn from
    /// [`EnvSpec::churn_templates`], matched in seeded random order)
    /// that joins and leaves at the trace's times.
    pub fn with_churn(mut self, trace: ChurnTrace) -> Self {
        self.churn = Some(trace);
        self
    }

    /// Builds the world and runs the full event timeline. Deterministic
    /// for a given configuration and seed.
    pub fn run(self) -> RunResult {
        let Scenario {
            env,
            strategy,
            duration,
            seed,
            arrivals,
            churn,
            tracer,
            fault_plan,
        } = self;
        let client_config = strategy.client_config();
        let n_users = env.users.len();

        // --- Network ------------------------------------------------
        let mut net = env.to_network();
        let crashes = fault_plan
            .as_ref()
            .map(|p| p.crashes.clone())
            .unwrap_or_default();
        if let Some(plan) = fault_plan {
            net.set_fault_plan(plan);
        }

        // --- Components ----------------------------------------------
        // The manager tier is a federation, of one unless the
        // environment asks for more. The shard map partitions over every
        // static placement (nodes *and* users): churn-only environments
        // have no static nodes, yet their users still need geo-spread
        // home shards.
        let mut points: Vec<GeoPoint> = env.nodes.iter().map(|n| n.location).collect();
        points.extend(env.users.iter().map(|u| u.location));
        let map = ShardMap::partition(&points, env.federation.map_or(1, |f| f.shards));
        let managers = FederatedCluster::new(map, env.system, GlobalSelectionPolicy::default());
        let mut nodes = IdMap::default();
        for (i, spec) in env.nodes.iter().enumerate() {
            let id = NodeId::new(i as u64);
            nodes.insert(
                id,
                EdgeNode::new(
                    id,
                    spec.class,
                    spec.hw.clone(),
                    spec.location,
                    env.system.join_refresh_delay(),
                    env.system.perf_drift_threshold,
                ),
            );
        }
        let mut clients = IdMap::default();
        for (i, spec) in env.users.iter().enumerate() {
            let id = UserId::new(i as u64);
            clients.insert(id, EdgeClient::new(id, spec.location, client_config));
        }

        let world = World {
            net,
            managers,
            route_retry: env.federation.map_or(SimDuration::ZERO, |f| f.route_retry),
            nodes,
            clients,
            recorder: LatencyRecorder::new(),
            strategy,
            client_config,
            system: env.system,
            streaming: IdSet::default(),
            periodic_started: IdSet::default(),
            dead_nodes: IdSet::default(),
            end_time: SimTime::ZERO + duration,
            failure_events: Vec::new(),
            affiliations: env
                .users
                .iter()
                .enumerate()
                .map(|(i, u)| {
                    let nodes = u
                        .affiliations
                        .iter()
                        .map(|&n| NodeId::new(n as u64))
                        .collect();
                    (UserId::new(i as u64), nodes)
                })
                .collect(),
            tracer,
            node_actions: Vec::new(),
        };

        // --- Timeline -------------------------------------------------
        let mut sim = runner::Sim::with_events(world, seed);
        // Manager housekeeping by the core's forgetting rule, run every
        // liveness budget as the live manager runs it.
        let budget = sim.world().managers.shards()[0]
            .registry()
            .liveness_budget();
        sim.schedule_periodic(budget, budget, move |w: &mut World, ctx| {
            let forgotten = w.managers.forget_dead(ctx.now());
            Narrator::at(&w.tracer, ctx.now().as_micros()).pruned(forgotten);
            ctx.now() < w.end_time
        });
        // Federated housekeeping: periodic summary-sync rounds. Sync
        // consumes no randomness and its instants are offset from the
        // heartbeat grid, so federated runs stay deterministic and sync
        // never ties with a registry write.
        if let Some(fed_spec) = env.federation {
            sim.schedule_periodic(
                fed_spec.sync_offset,
                fed_spec.sync_period,
                move |w: &mut World, ctx| {
                    let now_us = ctx.now().as_micros();
                    // Under a fault plan, each shard-to-shard summary
                    // push can be lost; the decision is a pure hash of
                    // (seed, pair, round), so lossy sync replays
                    // identically under the same seed.
                    let mut injector = w.net.fault_injector_mut().filter(|inj| !inj.is_noop());
                    let mut lost = |from: ShardId, to: ShardId| match injector.as_mut() {
                        Some(inj) => inj.drop_sync(from.as_u64(), to.as_u64(), now_us),
                        None => false,
                    };
                    let narrate = Narrator::at(&w.tracer, now_us);
                    w.managers.sync_round_filtered(&mut lost, narrate);
                    ctx.now() < w.end_time
                },
            );
        }
        // Fault-plan crash-restart windows, the run's one failure
        // schedule, scheduled ahead of the static node lifecycles so a
        // crash at t = 0 lands before its node boots. Unknown targets (a
        // node index that never exists, a shard in a non-federated run)
        // are ignored rather than panicking: plans are often swept
        // across differently-sized environments. Client crashes are not
        // modeled: users simply stop producing load when their link is
        // partitioned instead. A standalone manager crashes as
        // `PeerClass::Manager`.
        let federated = env.federation.is_some();
        for crash in crashes {
            let peer = crash.peer;
            if peer.class == PeerClass::User || (peer.class == PeerClass::Shard && !federated) {
                continue;
            }
            sim.schedule_at(crash.down_at, move |w: &mut World, ctx| {
                crash_peer(w, ctx, peer, false);
            });
            if crash.up_at < SimTime::MAX {
                sim.schedule_at(crash.up_at, move |w: &mut World, ctx| {
                    crash_peer(w, ctx, peer, true);
                });
            }
        }

        for i in 0..env.nodes.len() {
            let id = NodeId::new(i as u64);
            sim.schedule_at(SimTime::ZERO, move |w: &mut World, ctx| {
                runner::start_node_lifecycle(w, ctx, id);
            });
        }

        // Churned volunteer nodes.
        if let Some(trace) = churn {
            let mut hw_rng = SimRng::seed_from(seed).stream("churn-hw");
            let mut templates = EnvSpec::churn_templates();
            // Seeded Fisher–Yates: "randomly match simulated edge nodes
            // with instances".
            for i in (1..templates.len()).rev() {
                let j = hw_rng.gen_range(0..=i);
                templates.swap(i, j);
            }
            for event in trace.events() {
                let id = NodeId::new(1_000 + event.index as u64);
                let hw = templates[event.index % templates.len()].clone();
                let angle = event.index as f64 * 2.399_963;
                let radius = 5.0 + 35.0 * ((event.index * 29 % 100) as f64 / 100.0);
                let location = msp().offset_km(radius * angle.cos(), radius * angle.sin());
                let join_at = event.join_at;
                let leave_at = event.leave_at;
                sim.schedule_at(join_at, move |w: &mut World, ctx| {
                    churn_node_join(w, ctx, id, hw.clone(), location);
                });
                sim.schedule_at(leave_at, move |w: &mut World, ctx| {
                    runner::node_leave(w, ctx, id);
                });
            }
        }

        // User arrivals.
        let join_times: Vec<SimTime> = match arrivals {
            Arrivals::AllAtStart => vec![SimTime::ZERO; n_users],
            Arrivals::Every(interval) => (0..n_users)
                .map(|i| SimTime::ZERO + interval * i as u64)
                .collect(),
            Arrivals::At(times) => {
                assert_eq!(times.len(), n_users, "one join time per user");
                times
            }
        };
        for (i, at) in join_times.into_iter().enumerate() {
            let user = UserId::new(i as u64);
            sim.schedule_at(at, move |w: &mut World, ctx| {
                runner::user_join(w, ctx, user);
            });
        }

        let end = sim.run_until(SimTime::ZERO + duration);
        RunResult {
            world: sim.into_world(),
            end,
        }
    }
}

/// One end of a fault-plan crash window: takes `peer` down, or brings
/// it back when `up`, through the runtime's own down/up operation for
/// its class, and narrates `chaos.crash` / `chaos.restart` if that
/// changed anything. A node that never existed, a shard index past the
/// federation, or a peer already in the requested state is left alone.
fn crash_peer(w: &mut World, ctx: &mut runner::Ctx<'_>, peer: PeerId, up: bool) {
    let now_us = ctx.now().as_micros();
    let narrate = |w: &World| {
        let (severity, kind) = if up {
            (Severity::Info, "chaos.restart")
        } else {
            (Severity::Warn, "chaos.crash")
        };
        w.tracer.emit_at(now_us, severity, kind, || {
            vec![("class", s(peer.class.as_str())), ("peer", u(peer.id))]
        });
    };
    match peer.class {
        PeerClass::Node => {
            let id = NodeId::new(peer.id);
            if !up && w.node_is_up(id) {
                narrate(w);
                runner::node_leave(w, ctx, id);
            } else if up && w.nodes.contains_key(&id) && w.dead_nodes.remove(&id) {
                w.net.set_up(Addr::Node(id));
                narrate(w);
                runner::start_node_lifecycle(w, ctx, id);
            }
        }
        PeerClass::Manager => {
            if up {
                w.net.set_up(Addr::Manager);
                narrate(w);
            } else if w.net.is_up(Addr::Manager) {
                w.net.set_down(Addr::Manager);
                narrate(w);
            }
        }
        PeerClass::Shard => {
            let id = ShardId::new(peer.id);
            let flipped = (peer.id as usize) < w.managers.shard_count()
                && if up {
                    w.managers.revive(id)
                } else {
                    w.managers.kill(id)
                };
            if flipped {
                narrate(w);
            }
        }
        PeerClass::User => {}
    }
}

/// A churned node materialises: endpoint, node object, manager
/// registration, heartbeats.
fn churn_node_join(
    w: &mut World,
    ctx: &mut runner::Ctx<'_>,
    id: NodeId,
    hw: HardwareProfile,
    location: armada_types::GeoPoint,
) {
    w.net.add_endpoint(
        Addr::Node(id),
        Endpoint::new(location, AccessNetwork::DataCenter),
    );
    w.tracer
        .emit_at(ctx.now().as_micros(), Severity::Info, "churn.join", || {
            vec![("node", u(id.as_u64()))]
        });
    w.dead_nodes.remove(&id);
    let node = EdgeNode::new(
        id,
        NodeClass::Volunteer,
        hw,
        location,
        w.system.join_refresh_delay(),
        w.system.perf_drift_threshold,
    );
    w.nodes.insert(id, node);
    runner::start_node_lifecycle(w, ctx, id);
}

/// The outcome of a scenario run: final world state plus the collected
/// measurements.
#[derive(Debug)]
pub struct RunResult {
    world: World,
    end: SimTime,
}

impl RunResult {
    /// The collected latency samples.
    pub fn recorder(&self) -> &LatencyRecorder {
        self.world.recorder()
    }

    /// The final world state (clients, nodes, manager, counters).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The virtual time at which the run ended.
    pub fn end_time(&self) -> SimTime {
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_types::{ClientConfig, SelectorMode};

    fn small_env() -> EnvSpec {
        EnvSpec::realworld(4)
    }

    fn short(strategy: Strategy) -> RunResult {
        Scenario::new(small_env(), strategy)
            .duration(SimDuration::from_secs(15))
            .seed(7)
            .run()
    }

    #[test]
    fn client_centric_streams_frames() {
        let result = short(Strategy::client_centric());
        assert!(
            result.recorder().len() > 100,
            "got {} samples",
            result.recorder().len()
        );
        let mean = result.recorder().mean().unwrap();
        assert!(
            mean.as_millis_f64() > 10.0 && mean.as_millis_f64() < 200.0,
            "mean {mean}"
        );
        // Every client ended up attached to some node.
        for client in result.world().clients() {
            assert!(client.current_node().is_some());
        }
    }

    #[test]
    fn predictive_strategy_streams_like_the_reactive_one() {
        let config = ClientConfig::default().with_selector(SelectorMode::Predictive);
        let predictive = short(Strategy::client_centric_with(config));
        assert!(
            predictive.recorder().len() > 100,
            "got {} samples",
            predictive.recorder().len()
        );
        for client in predictive.world().clients() {
            assert!(client.current_node().is_some());
        }
        // In a calm environment the predictor is a no-op: the run is
        // indistinguishable from the measured-overhead baseline.
        let reactive = short(Strategy::client_centric());
        assert_eq!(predictive.recorder().len(), reactive.recorder().len());
        assert_eq!(predictive.recorder().mean(), reactive.recorder().mean());
    }

    #[test]
    fn all_baselines_run() {
        for strategy in [
            Strategy::GeoProximity,
            Strategy::ResourceAwareWrr,
            Strategy::DedicatedOnly,
            Strategy::ClosestCloud,
        ] {
            let name = strategy.name();
            let result = short(strategy);
            // Closest-cloud exceeds the AIMD latency target, so its
            // users throttle toward 1 FPS — far fewer samples is correct.
            assert!(
                result.recorder().len() > 40,
                "{name}: got {} samples",
                result.recorder().len()
            );
        }
    }

    #[test]
    fn cloud_baseline_is_slowest() {
        let cc = short(Strategy::client_centric()).recorder().mean().unwrap();
        let cloud = short(Strategy::ClosestCloud).recorder().mean().unwrap();
        assert!(
            cloud > cc,
            "cloud ({cloud}) should be slower than client-centric ({cc})"
        );
        // Cloud latency is dominated by the ~70–90 ms WAN RTT.
        assert!(cloud.as_millis_f64() > 80.0, "cloud {cloud}");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = short(Strategy::client_centric());
        let b = short(Strategy::client_centric());
        assert_eq!(a.recorder().len(), b.recorder().len());
        assert_eq!(a.recorder().mean(), b.recorder().mean());
        assert_eq!(a.world().total_probes_sent(), b.world().total_probes_sent());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::new(small_env(), Strategy::client_centric())
            .duration(SimDuration::from_secs(10))
            .seed(1)
            .run();
        let b = Scenario::new(small_env(), Strategy::client_centric())
            .duration(SimDuration::from_secs(10))
            .seed(2)
            .run();
        assert_ne!(a.recorder().mean(), b.recorder().mean());
    }

    #[test]
    fn staggered_arrivals_delay_streaming() {
        let result = Scenario::new(small_env(), Strategy::client_centric())
            .users_joining_every(SimDuration::from_secs(5))
            .duration(SimDuration::from_secs(25))
            .seed(3)
            .run();
        // The last user (joins at 15 s) has no samples before ~15 s.
        let early: Vec<_> = result
            .recorder()
            .samples()
            .iter()
            .filter(|s| s.user == UserId::new(3) && s.at < SimTime::from_secs(15))
            .collect();
        assert!(early.is_empty());
        assert!(!result.recorder().cdf(Some(UserId::new(3))).is_empty());
    }

    #[test]
    fn killed_node_triggers_failover() {
        // Find which node serves user 0, then kill it mid-run.
        let probe_run = Scenario::new(small_env(), Strategy::client_centric())
            .duration(SimDuration::from_secs(5))
            .seed(7)
            .run();
        let serving = probe_run
            .world()
            .client(UserId::new(0))
            .unwrap()
            .current_node()
            .unwrap();
        let at = SimTime::from_secs(8);
        let crash = FaultPlan::new(7).crash(PeerId::node(serving.as_u64()), at, SimTime::MAX);
        let result = Scenario::new(small_env(), Strategy::client_centric())
            .duration(SimDuration::from_secs(20))
            .seed(7)
            .with_fault_plan(crash)
            .run();
        let client = result.world().client(UserId::new(0)).unwrap();
        assert_ne!(
            client.current_node(),
            Some(serving),
            "must have moved off the dead node"
        );
        let failovers = client.stats().backup_failovers + client.stats().hard_failures;
        assert!(failovers >= 1, "the failure must have been noticed");
        // Frames kept flowing after the kill.
        let late = result
            .recorder()
            .samples()
            .iter()
            .filter(|s| s.user == UserId::new(0) && s.at > SimTime::from_secs(10))
            .count();
        assert!(late > 0, "user 0 streamed after the failure");
    }

    #[test]
    fn churn_scenario_runs_with_nodes_coming_and_going() {
        let trace = ChurnTrace::paper_fig8();
        let mut env = EnvSpec::emulation(5, 1);
        env.nodes.clear(); // churn-only environment
        env.pairwise_rtt_ms.clear();
        let result = Scenario::new(env, Strategy::client_centric())
            .with_churn(trace)
            .duration(SimDuration::from_secs(180))
            .seed(9)
            .run();
        assert!(result.recorder().len() > 100);
        // Churn nodes were created.
        let churned = result
            .world()
            .nodes()
            .filter(|n| n.id().as_u64() >= 1_000)
            .count();
        assert_eq!(churned, 18);
    }
}
