//! The network fabric: endpoints, pairwise overrides, link state and
//! delay queries.

use std::collections::{HashMap, HashSet};

use armada_chaos::{FaultInjector, FaultPlan, InjectorStats, PeerId};
use armada_sim::SimRng;
use armada_types::{DataSize, SimDuration, U64BuildHasher};

use crate::endpoint::{Addr, Endpoint};
use crate::latency::LatencyModelParams;

/// The fate of one message under the chaos-aware delivery path.
///
/// [`Network::deliver_one_way`] and friends fold the installed
/// [`FaultPlan`] into the latency model: a message can arrive (possibly
/// late, possibly twice), vanish in flight, or fail fast because the
/// link is partitioned or an endpoint is down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivery {
    /// The message arrives after `delay`; a duplicate fault also
    /// delivers a second copy after `duplicate`.
    Delivered {
        /// In-flight delay of the (first) copy.
        delay: SimDuration,
        /// Arrival delay of the duplicate copy, if one was injected.
        duplicate: Option<SimDuration>,
    },
    /// Silently lost in flight: the sender learns nothing, the receiver
    /// sees nothing. Loss manifests as a timeout.
    Dropped,
    /// The endpoint is down or the link is partitioned: fails fast,
    /// like a connection reset.
    Unreachable,
}

impl Delivery {
    /// The first-copy delay, if the message arrives at all.
    pub fn delay(self) -> Option<SimDuration> {
        match self {
            Delivery::Delivered { delay, .. } => Some(delay),
            _ => None,
        }
    }
}

/// Extra arrival offset of an injected duplicate over the original.
const DUPLICATE_LAG: SimDuration = SimDuration::from_millis(1);

/// The simulated network connecting users, edge nodes and the manager.
///
/// Delay queries return `None` when either endpoint is down, which is how
/// node failures and departures manifest to the rest of the system —
/// exactly as a connection reset would in the real deployment.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Network {
    params: LatencyModelParams,
    /// Keyed by simulator ids, not input an attacker picks: every
    /// message reads this map and the two below, so they hash with
    /// [`U64BuildHasher`], not SipHash.
    endpoints: HashMap<Addr, Endpoint, U64BuildHasher>,
    /// Pinned one-way delays (symmetric), in the style of the paper's
    /// `tc` emulation configuration. Keys are stored normalised
    /// (smaller address first).
    overrides: HashMap<(Addr, Addr), SimDuration, U64BuildHasher>,
    down: HashSet<Addr, U64BuildHasher>,
    /// Deterministic fault injection, when a plan is installed. Fault
    /// decisions are pure hashes of the plan seed — they never draw
    /// from the shared [`SimRng`] — so installing a no-op plan leaves
    /// every query byte-identical to running without one.
    chaos: Option<FaultInjector>,
}

impl Network {
    /// Creates an empty network with the given latency model.
    pub fn new(params: LatencyModelParams) -> Self {
        Network {
            params,
            endpoints: HashMap::default(),
            overrides: HashMap::default(),
            down: HashSet::default(),
            chaos: None,
        }
    }

    /// Installs a fault plan; subsequent `deliver_*` queries evaluate it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.chaos = Some(FaultInjector::new(plan));
    }

    /// Mutable access to the installed injector (sync-plane faults are
    /// decided by the scenario runner through this).
    pub fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.chaos.as_mut()
    }

    /// Counters from the installed injector, if any.
    pub fn fault_stats(&self) -> Option<InjectorStats> {
        self.chaos.as_ref().map(|c| c.stats())
    }

    /// The latency model in use.
    pub fn params(&self) -> &LatencyModelParams {
        &self.params
    }

    /// Registers (or replaces) an endpoint.
    pub fn add_endpoint(&mut self, addr: Addr, endpoint: Endpoint) {
        self.endpoints.insert(addr, endpoint);
        self.down.remove(&addr);
    }

    /// Returns the endpoint registered at `addr`.
    pub fn endpoint(&self, addr: Addr) -> Option<&Endpoint> {
        self.endpoints.get(&addr)
    }

    /// Number of registered endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// `true` if no endpoints are registered.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Marks an endpoint as down; subsequent delay queries involving it
    /// return `None`.
    pub fn set_down(&mut self, addr: Addr) {
        if self.endpoints.contains_key(&addr) {
            self.down.insert(addr);
        }
    }

    /// Brings a downed endpoint back up.
    pub fn set_up(&mut self, addr: Addr) {
        self.down.remove(&addr);
    }

    /// `true` if the endpoint is registered and not marked down.
    pub fn is_up(&self, addr: Addr) -> bool {
        self.up(addr).is_some()
    }

    /// The endpoint at `addr` iff it is registered and not marked down:
    /// one map read, and the `down` set only while something is down.
    fn up(&self, addr: Addr) -> Option<&Endpoint> {
        let endpoint = self.endpoints.get(&addr)?;
        (self.down.is_empty() || !self.down.contains(&addr)).then_some(endpoint)
    }

    /// The pinned one-way delay between `a` and `b`, if any; no lookup
    /// while nothing is pinned.
    fn pinned(&self, a: Addr, b: Addr) -> Option<SimDuration> {
        if self.overrides.is_empty() {
            return None;
        }
        self.overrides.get(&normalise(a, b)).copied()
    }

    /// Pins the one-way delay between two endpoints (both directions),
    /// mirroring a `tc netem` rule. Passing the pair again replaces the
    /// previous value.
    pub fn set_pairwise_one_way(&mut self, a: Addr, b: Addr, one_way: SimDuration) {
        self.overrides.insert(normalise(a, b), one_way);
    }

    /// Convenience: pins the *RTT* between two endpoints (stored as half
    /// per direction).
    pub fn set_pairwise_rtt(&mut self, a: Addr, b: Addr, rtt: SimDuration) {
        self.set_pairwise_one_way(a, b, rtt / 2);
    }

    /// The fixed path-diversity offset for a pair: a stable draw in
    /// `[0, path_diversity_ms)` per unordered pair, modelling per-path
    /// routing/ISP differences the distance model cannot see.
    fn path_offset(&self, a: Addr, b: Addr) -> SimDuration {
        let max = self.params.path_diversity_ms;
        if max <= 0.0 {
            return SimDuration::ZERO;
        }
        let unit = (pair_hash(a, b) % 10_000) as f64 / 10_000.0;
        SimDuration::from_millis_f64(unit * max)
    }

    /// Samples the one-way propagation delay from `a` to `b`.
    ///
    /// Returns `None` if either endpoint is unregistered or down. A
    /// pairwise override suppresses the distance model (including the
    /// path-diversity offset) but still receives the jitter component
    /// (tc pins the base delay; queueing noise remains).
    pub fn one_way(&self, a: Addr, b: Addr, rng: &mut SimRng) -> Option<SimDuration> {
        let (ea, eb) = (self.up(a)?, self.up(b)?);
        Some(self.sample_leg(a, b, ea, eb, rng))
    }

    /// [`Network::one_way`] on endpoints already resolved.
    fn sample_leg(
        &self,
        a: Addr,
        b: Addr,
        ea: &Endpoint,
        eb: &Endpoint,
        rng: &mut SimRng,
    ) -> SimDuration {
        if let Some(pinned) = self.pinned(a, b) {
            let jitter = self.params.sample_jitter_ms(ea, eb, rng);
            return pinned + SimDuration::from_millis_f64(jitter);
        }
        self.params.sample_one_way(ea, eb, rng) + self.path_offset(a, b)
    }

    /// Samples a full round-trip time between `a` and `b` (two
    /// independent one-way samples).
    pub fn rtt(&self, a: Addr, b: Addr, rng: &mut SimRng) -> Option<SimDuration> {
        let fwd = self.one_way(a, b, rng)?;
        let back = self.one_way(b, a, rng)?;
        Some(fwd + back)
    }

    /// The expected (jitter-free) RTT between `a` and `b`, if both are
    /// up. Useful for analytical baselines such as the optimal solver.
    pub fn mean_rtt(&self, a: Addr, b: Addr) -> Option<SimDuration> {
        let (ea, eb) = (self.up(a)?, self.up(b)?);
        if let Some(pinned) = self.pinned(a, b) {
            return Some(pinned * 2);
        }
        Some((self.params.mean_one_way(ea, eb) + self.path_offset(a, b)) * 2)
    }

    /// Serialisation delay for pushing `size` from `a` toward `b`:
    /// limited by `a`'s uplink and `b`'s downlink.
    pub fn transfer_delay(&self, a: Addr, b: Addr, size: DataSize) -> Option<SimDuration> {
        let (ea, eb) = (self.up(a)?, self.up(b)?);
        Some(transfer_time(ea, eb, size))
    }

    /// One-way delivery delay for a message of `size` from `a` to `b`:
    /// propagation plus transfer.
    pub fn delivery_delay(
        &self,
        a: Addr,
        b: Addr,
        size: DataSize,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        let (ea, eb) = (self.up(a)?, self.up(b)?);
        Some(self.sample_leg(a, b, ea, eb, rng) + transfer_time(ea, eb, size))
    }

    /// Iterates over registered addresses in unspecified order.
    pub fn addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.endpoints.keys().copied()
    }

    /// Chaos-aware [`Network::one_way`]: samples the propagation delay
    /// and folds in the installed fault plan at virtual time `now_us`.
    ///
    /// Without a plan (or with a no-op plan) this is exactly
    /// `one_way`, with `None` mapped to [`Delivery::Unreachable`].
    pub fn deliver_one_way(&mut self, a: Addr, b: Addr, now_us: u64, rng: &mut SimRng) -> Delivery {
        match self.one_way(a, b, rng) {
            None => Delivery::Unreachable,
            Some(base) => self.apply_chaos(a, b, base, now_us),
        }
    }

    /// Chaos-aware [`Network::rtt`]: each direction is decided
    /// independently; losing either leg loses the round trip.
    pub fn deliver_rtt(&mut self, a: Addr, b: Addr, now_us: u64, rng: &mut SimRng) -> Delivery {
        let fwd = self.deliver_one_way(a, b, now_us, rng);
        let back = self.deliver_one_way(b, a, now_us, rng);
        match (fwd, back) {
            (Delivery::Unreachable, _) | (_, Delivery::Unreachable) => Delivery::Unreachable,
            (Delivery::Dropped, _) | (_, Delivery::Dropped) => Delivery::Dropped,
            (Delivery::Delivered { delay: f, .. }, Delivery::Delivered { delay: b, .. }) => {
                Delivery::Delivered {
                    delay: f + b,
                    duplicate: None,
                }
            }
        }
    }

    /// Chaos-aware [`Network::delivery_delay`] for a message of `size`.
    pub fn deliver_message(
        &mut self,
        a: Addr,
        b: Addr,
        size: DataSize,
        now_us: u64,
        rng: &mut SimRng,
    ) -> Delivery {
        match self.delivery_delay(a, b, size, rng) {
            None => Delivery::Unreachable,
            Some(base) => self.apply_chaos(a, b, base, now_us),
        }
    }

    /// Applies the installed plan to a message whose clean in-flight
    /// delay would be `base`.
    fn apply_chaos(&mut self, a: Addr, b: Addr, base: SimDuration, now_us: u64) -> Delivery {
        let Some(chaos) = self.chaos.as_mut() else {
            return Delivery::Delivered {
                delay: base,
                duplicate: None,
            };
        };
        let decision = chaos.decide(peer_of(a), peer_of(b), now_us);
        if decision.unreachable {
            return Delivery::Unreachable;
        }
        if !decision.deliver {
            return Delivery::Dropped;
        }
        let delay =
            base.mul_f64(decision.slowdown) + SimDuration::from_micros(decision.extra_delay_us);
        let duplicate = (decision.duplicates > 0).then_some(delay + DUPLICATE_LAG);
        Delivery::Delivered { delay, duplicate }
    }
}

/// Maps a simulator address into the chaos plan's peer namespace.
fn peer_of(addr: Addr) -> PeerId {
    match addr {
        Addr::User(u) => PeerId::user(u.as_u64()),
        Addr::Node(n) => PeerId::node(n.as_u64()),
        Addr::Manager => PeerId::manager(0),
    }
}

/// Serialisation time of `size` from `a` to `b`: limited by `a`'s
/// uplink and `b`'s downlink.
fn transfer_time(a: &Endpoint, b: &Endpoint, size: DataSize) -> SimDuration {
    let up = a.uplink().transfer_time(size);
    let down = b.downlink().transfer_time(size);
    up.max(down)
}

/// Normalises an unordered pair for symmetric lookup.
fn normalise(a: Addr, b: Addr) -> (Addr, Addr) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A stable per-pair hash used to derive path-diversity offsets.
fn pair_hash(a: Addr, b: Addr) -> u64 {
    use std::hash::{Hash, Hasher};
    #[derive(Default)]
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            let mut h = if self.0 == 0 {
                0xcbf2_9ce4_8422_2325
            } else {
                self.0
            };
            for &byte in bytes {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            self.0 = h;
        }
    }
    let mut hasher = Fnv::default();
    normalise(a, b).hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_types::{AccessNetwork, GeoPoint, NodeId, UserId};

    fn small_net(jitter: bool) -> Network {
        let params = if jitter {
            LatencyModelParams::default()
        } else {
            LatencyModelParams::deterministic()
        };
        let mut net = Network::new(params);
        let origin = GeoPoint::new(44.98, -93.26);
        net.add_endpoint(
            Addr::User(UserId::new(1)),
            Endpoint::new(origin, AccessNetwork::HomeWifi),
        );
        net.add_endpoint(
            Addr::Node(NodeId::new(1)),
            Endpoint::new(origin.offset_km(5.0, 0.0), AccessNetwork::Fiber),
        );
        net.add_endpoint(
            Addr::Node(NodeId::new(2)),
            Endpoint::new(origin.offset_km(900.0, 0.0), AccessNetwork::DataCenter),
        );
        net.add_endpoint(
            Addr::Manager,
            Endpoint::new(origin, AccessNetwork::DataCenter),
        );
        net
    }

    const U1: Addr = Addr::User(UserId::new(1));
    const N1: Addr = Addr::Node(NodeId::new(1));
    const N2: Addr = Addr::Node(NodeId::new(2));

    #[test]
    fn rtt_reflects_distance() {
        let net = small_net(false);
        let mut rng = SimRng::seed_from(0);
        let near = net.rtt(U1, N1, &mut rng).unwrap();
        let far = net.rtt(U1, N2, &mut rng).unwrap();
        assert!(far > near * 2, "near={near} far={far}");
    }

    #[test]
    fn down_endpoint_is_unreachable() {
        let mut net = small_net(false);
        let mut rng = SimRng::seed_from(0);
        assert!(net.rtt(U1, N1, &mut rng).is_some());
        net.set_down(N1);
        assert!(net.rtt(U1, N1, &mut rng).is_none());
        assert!(net.one_way(N1, U1, &mut rng).is_none());
        assert!(net
            .transfer_delay(U1, N1, DataSize::from_bytes(10))
            .is_none());
        net.set_up(N1);
        assert!(net.rtt(U1, N1, &mut rng).is_some());
    }

    #[test]
    fn unknown_endpoint_is_unreachable() {
        let net = small_net(false);
        let mut rng = SimRng::seed_from(0);
        assert!(net.rtt(U1, Addr::Node(NodeId::new(99)), &mut rng).is_none());
        assert!(!net.is_up(Addr::Node(NodeId::new(99))));
    }

    #[test]
    fn pairwise_override_pins_delay_symmetrically() {
        let mut net = small_net(false);
        net.set_pairwise_rtt(U1, N2, SimDuration::from_millis(8));
        let mut rng = SimRng::seed_from(0);
        assert_eq!(
            net.rtt(U1, N2, &mut rng).unwrap(),
            SimDuration::from_millis(8)
        );
        assert_eq!(
            net.rtt(N2, U1, &mut rng).unwrap(),
            SimDuration::from_millis(8)
        );
        assert_eq!(net.mean_rtt(U1, N2).unwrap(), SimDuration::from_millis(8));
    }

    #[test]
    fn transfer_delay_limited_by_slower_side() {
        let mut net = Network::new(LatencyModelParams::deterministic());
        let p = GeoPoint::new(0.0, 0.0);
        net.add_endpoint(
            U1,
            Endpoint::new(p, AccessNetwork::HomeWifi)
                .with_uplink(armada_types::Bandwidth::from_megabits_per_sec(8.0)),
        );
        net.add_endpoint(N1, Endpoint::new(p, AccessNetwork::DataCenter));
        // 0.02 MB at 8 Mbps = 20 ms uplink-dominated.
        let d = net
            .transfer_delay(U1, N1, DataSize::from_megabytes(0.02))
            .unwrap();
        assert!((d.as_millis_f64() - 20.0).abs() < 0.01, "{d}");
    }

    #[test]
    fn delivery_delay_adds_propagation_and_transfer() {
        let net = small_net(false);
        let mut rng = SimRng::seed_from(0);
        let size = DataSize::from_megabytes(0.02);
        let prop = net.one_way(U1, N1, &mut rng).unwrap();
        let xfer = net.transfer_delay(U1, N1, size).unwrap();
        let total = net.delivery_delay(U1, N1, size, &mut rng).unwrap();
        assert_eq!(total, prop + xfer);
    }

    #[test]
    fn mean_rtt_is_deterministic_floor_of_samples() {
        let net = small_net(true);
        let mean = net.mean_rtt(U1, N1).unwrap();
        let mut rng = SimRng::seed_from(3);
        for _ in 0..100 {
            assert!(net.rtt(U1, N1, &mut rng).unwrap() >= mean);
        }
    }

    #[test]
    fn path_diversity_differentiates_pairs_stably() {
        let mut net = Network::new(LatencyModelParams {
            path_diversity_ms: 8.0,
            ..LatencyModelParams::deterministic()
        });
        let p = GeoPoint::new(44.98, -93.26);
        for i in 0..6 {
            net.add_endpoint(
                Addr::Node(NodeId::new(i)),
                Endpoint::new(p, AccessNetwork::Fiber),
            );
        }
        net.add_endpoint(U1, Endpoint::new(p, AccessNetwork::HomeWifi));
        let rtts: Vec<_> = (0..6)
            .map(|i| net.mean_rtt(U1, Addr::Node(NodeId::new(i))).unwrap())
            .collect();
        // Same locations and access: differences come purely from the
        // per-pair offsets, which must be stable and non-degenerate.
        let distinct: std::collections::HashSet<_> = rtts.iter().collect();
        assert!(distinct.len() >= 4, "pairs should mostly differ: {rtts:?}");
        for (i, rtt) in rtts.iter().enumerate() {
            assert_eq!(
                net.mean_rtt(U1, Addr::Node(NodeId::new(i as u64))).unwrap(),
                *rtt,
                "offsets are stable"
            );
        }
    }

    #[test]
    fn noop_fault_plan_leaves_deliveries_byte_identical() {
        let plain = small_net(true);
        let mut chaotic = small_net(true);
        chaotic.set_fault_plan(FaultPlan::new(123));
        let mut rng_a = SimRng::seed_from(9);
        let mut rng_b = SimRng::seed_from(9);
        for i in 0..200u64 {
            let clean = plain.delivery_delay(U1, N1, DataSize::from_bytes(512), &mut rng_a);
            let faulted = chaotic.deliver_message(U1, N1, DataSize::from_bytes(512), i, &mut rng_b);
            assert_eq!(
                faulted,
                Delivery::Delivered {
                    delay: clean.unwrap(),
                    duplicate: None
                }
            );
        }
        assert_eq!(chaotic.fault_stats().unwrap(), InjectorStats::default());
    }

    #[test]
    fn partition_makes_links_unreachable_for_its_window() {
        use armada_chaos::{PeerClass, PeerSel};
        let mut net = small_net(false);
        net.set_fault_plan(FaultPlan::new(1).partition(
            PeerSel::Class(PeerClass::User),
            PeerSel::Class(PeerClass::Manager),
            armada_types::SimTime::from_secs(1),
            armada_types::SimTime::from_secs(2),
        ));
        let mut rng = SimRng::seed_from(0);
        let before = net.deliver_rtt(U1, Addr::Manager, 0, &mut rng);
        assert!(before.delay().is_some());
        let during = net.deliver_rtt(U1, Addr::Manager, 1_500_000, &mut rng);
        assert!(matches!(during, Delivery::Unreachable));
        // Node links are untouched by a user↔manager cut.
        assert!(net
            .deliver_rtt(U1, N1, 1_500_000, &mut rng)
            .delay()
            .is_some());
        let after = net.deliver_rtt(U1, Addr::Manager, 2_000_000, &mut rng);
        assert!(after.delay().is_some());
    }

    #[test]
    fn drop_faults_lose_messages_and_slowdown_scales_delay() {
        use armada_chaos::LinkFaults;
        let mut net = small_net(false);
        net.set_fault_plan(FaultPlan::new(5).with_faults(LinkFaults {
            drop: 0.5,
            slowdown: 3.0,
            ..LinkFaults::NONE
        }));
        let mut rng = SimRng::seed_from(0);
        let clean = small_net(false)
            .delivery_delay(U1, N1, DataSize::from_bytes(64), &mut SimRng::seed_from(0))
            .unwrap();
        let mut dropped = 0;
        for i in 0..200u64 {
            match net.deliver_message(U1, N1, DataSize::from_bytes(64), i, &mut rng) {
                Delivery::Dropped => dropped += 1,
                Delivery::Delivered { delay, .. } => {
                    assert_eq!(
                        delay,
                        clean.mul_f64(3.0),
                        "slowdown multiplies the base delay"
                    )
                }
                Delivery::Unreachable => panic!("no partitions in this plan"),
            }
        }
        assert!(
            (60..140).contains(&dropped),
            "~50% drop rate, got {dropped}/200"
        );
        assert_eq!(net.fault_stats().unwrap().dropped, dropped as u64);
    }

    #[test]
    fn duplicate_faults_deliver_a_lagged_second_copy() {
        use armada_chaos::LinkFaults;
        let mut net = small_net(false);
        net.set_fault_plan(FaultPlan::new(2).with_faults(LinkFaults {
            duplicate: 1.0,
            ..LinkFaults::NONE
        }));
        let mut rng = SimRng::seed_from(0);
        match net.deliver_one_way(U1, N1, 0, &mut rng) {
            Delivery::Delivered {
                delay,
                duplicate: Some(second),
            } => {
                assert_eq!(second, delay + DUPLICATE_LAG)
            }
            other => panic!("expected a duplicated delivery, got {other:?}"),
        }
    }

    #[test]
    fn readding_downed_endpoint_brings_it_up() {
        let mut net = small_net(false);
        net.set_down(N1);
        assert!(!net.is_up(N1));
        let ep = *net.endpoint(N1).unwrap();
        net.add_endpoint(N1, ep);
        assert!(net.is_up(N1));
    }
}
