//! Seeded, deterministic fault plans and their evaluator.

use std::collections::HashMap;

use armada_types::{fnv1a, SimTime};

use crate::hash::{mix, unit};

/// The kind of peer a [`PeerId`] names.
///
/// The simulator's users, edge nodes and managers all communicate over
/// one substrate; federation shards exchange sync messages among
/// themselves. Fault plans select over all four classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PeerClass {
    /// A client device.
    User,
    /// An edge node.
    Node,
    /// A manager (shard 0 in a single-manager deployment).
    Manager,
    /// A federation shard, for sync-plane faults.
    Shard,
}

impl PeerClass {
    /// Stable lowercase name, for trace events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            PeerClass::User => "user",
            PeerClass::Node => "node",
            PeerClass::Manager => "manager",
            PeerClass::Shard => "shard",
        }
    }
}

/// A runtime-agnostic peer name: both the simulator's `Addr` space and
/// live socket peers map into this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId {
    /// What kind of peer this is.
    pub class: PeerClass,
    /// Numeric identity within the class.
    pub id: u64,
}

impl PeerId {
    /// Names a user.
    pub const fn user(id: u64) -> Self {
        PeerId {
            class: PeerClass::User,
            id,
        }
    }

    /// Names an edge node.
    pub const fn node(id: u64) -> Self {
        PeerId {
            class: PeerClass::Node,
            id,
        }
    }

    /// Names a manager.
    pub const fn manager(id: u64) -> Self {
        PeerId {
            class: PeerClass::Manager,
            id,
        }
    }

    /// Names a federation shard.
    pub const fn shard(id: u64) -> Self {
        PeerId {
            class: PeerClass::Shard,
            id,
        }
    }

    fn link_hash(self, other: PeerId) -> u64 {
        // Orderless: faults on a link apply to both directions.
        let (a, b) = if self <= other {
            (self, other)
        } else {
            (other, self)
        };
        let bytes = [a.class as u8 as u64, a.id, b.class as u8 as u64, b.id];
        let mut buf = [0u8; 32];
        for (i, w) in bytes.iter().enumerate() {
            buf[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        fnv1a(&buf)
    }
}

/// Selects a set of peers inside a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PeerSel {
    /// Every peer.
    Any,
    /// Every peer of one class.
    Class(PeerClass),
    /// Exactly one peer.
    One(PeerId),
    /// An explicit list of peers.
    Set(Vec<PeerId>),
}

impl PeerSel {
    /// `true` if `peer` is selected.
    pub fn matches(&self, peer: PeerId) -> bool {
        match self {
            PeerSel::Any => true,
            PeerSel::Class(c) => peer.class == *c,
            PeerSel::One(p) => *p == peer,
            PeerSel::Set(ps) => ps.contains(&peer),
        }
    }
}

/// Per-link fault probabilities and magnitudes.
///
/// All probabilities are clamped to `[0, 1]` at evaluation time; the
/// slow-down factor is a multiplier (≥ 1.0) on the base delivery delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently lost.
    pub drop: f64,
    /// Probability a message is held back by an extra delay.
    pub delay: f64,
    /// Extra delay in microseconds when the delay fault fires.
    pub delay_us: u64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message is jittered by a random fraction of
    /// [`LinkFaults::delay_us`], which reorders it relative to later
    /// messages on the same link.
    pub reorder: f64,
    /// Probability a frame's bytes are corrupted (wire layer only; the
    /// simulator's messages are not byte-encoded).
    pub corrupt: f64,
    /// Multiplier applied to the base delivery delay (slow peer).
    pub slowdown: f64,
}

impl LinkFaults {
    /// No faults at all.
    pub const NONE: LinkFaults = LinkFaults {
        drop: 0.0,
        delay: 0.0,
        delay_us: 0,
        duplicate: 0.0,
        reorder: 0.0,
        corrupt: 0.0,
        slowdown: 1.0,
    };

    /// A plain message-loss fault.
    pub const fn lossy(drop: f64) -> Self {
        LinkFaults {
            drop,
            ..LinkFaults::NONE
        }
    }

    /// A blended fault profile scaled by one intensity knob in
    /// `[0, 1]`: intensity 0.3 means 30 % of the "full chaos" profile
    /// (15 % drop, 30 % delayed by 40 ms, 9 % duplicated, 15 %
    /// reordered).
    pub fn uniform(intensity: f64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        LinkFaults {
            drop: 0.5 * i,
            delay: i,
            delay_us: 40_000,
            duplicate: 0.3 * i,
            reorder: 0.5 * i,
            corrupt: 0.0,
            slowdown: 1.0,
        }
    }

    /// `true` if this profile can never alter a delivery.
    pub fn is_noop(&self) -> bool {
        self.drop <= 0.0
            && (self.delay <= 0.0 || self.delay_us == 0)
            && self.duplicate <= 0.0
            && (self.reorder <= 0.0 || self.delay_us == 0)
            && self.corrupt <= 0.0
            && self.slowdown <= 1.0
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::NONE
    }
}

/// A scheduled partition: while active, every message between the two
/// selections fails fast as unreachable.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// One side of the cut.
    pub a: PeerSel,
    /// The other side of the cut.
    pub b: PeerSel,
    /// When the partition starts (inclusive).
    pub from: SimTime,
    /// When it heals (exclusive).
    pub until: SimTime,
}

impl Partition {
    fn active(&self, now_us: u64) -> bool {
        self.from.as_micros() <= now_us && now_us < self.until.as_micros()
    }

    fn cuts(&self, x: PeerId, y: PeerId) -> bool {
        (self.a.matches(x) && self.b.matches(y)) || (self.a.matches(y) && self.b.matches(x))
    }
}

/// A scheduled, time-windowed slow-down: while active, every link
/// touching the selected peers is multiplied by `factor`.
///
/// Ramped slowdowns are expressed as a sequence of windows with
/// escalating factors; oscillating-RTT scenarios alternate windows on
/// and off the same peer.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownWindow {
    /// Which peers slow down.
    pub sel: PeerSel,
    /// Multiplier on the base delivery delay while active (≥ 1.0).
    pub factor: f64,
    /// When the slow-down starts (inclusive).
    pub from: SimTime,
    /// When it ends (exclusive).
    pub until: SimTime,
}

impl SlowdownWindow {
    fn active(&self, now_us: u64) -> bool {
        self.from.as_micros() <= now_us && now_us < self.until.as_micros()
    }
}

/// A scheduled crash and restart of one peer.
///
/// The plan only records the schedule; the scenario runner translates
/// it into the runtime's own down/up operations (node lifecycle,
/// manager endpoint, shard kill/revive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crash {
    /// The peer that crashes.
    pub peer: PeerId,
    /// When it goes down.
    pub down_at: SimTime,
    /// When it comes back (use [`SimTime::MAX`] for "never").
    pub up_at: SimTime,
}

/// A seeded, deterministic description of everything that goes wrong.
///
/// # Examples
///
/// ```
/// use armada_chaos::{FaultPlan, LinkFaults, PeerClass, PeerSel};
/// use armada_types::SimTime;
///
/// let plan = FaultPlan::new(42)
///     .with_faults(LinkFaults::uniform(0.2))
///     .partition(
///         PeerSel::Class(PeerClass::User),
///         PeerSel::Class(PeerClass::Manager),
///         SimTime::from_secs(10),
///         SimTime::from_secs(15),
///     )
///     .with_sync_drop(0.1);
/// assert!(!plan.is_noop());
/// assert!(FaultPlan::new(42).is_noop());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed every decision hash is derived from.
    pub seed: u64,
    /// Default fault profile applied to every link.
    pub faults: LinkFaults,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
    /// Time-windowed slow-downs, active only inside their windows.
    pub slowdown_windows: Vec<SlowdownWindow>,
    /// Crash-restart schedules.
    pub crashes: Vec<Crash>,
    /// Probability a federation sync message (one shard's summary push
    /// to one receiver) is lost.
    pub sync_drop: f64,
}

impl FaultPlan {
    /// An empty (no-op) plan under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: LinkFaults::NONE,
            partitions: Vec::new(),
            slowdown_windows: Vec::new(),
            crashes: Vec::new(),
            sync_drop: 0.0,
        }
    }

    /// Replaces the default per-link fault profile.
    pub fn with_faults(mut self, faults: LinkFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Schedules a partition between two selections.
    pub fn partition(mut self, a: PeerSel, b: PeerSel, from: SimTime, until: SimTime) -> Self {
        self.partitions.push(Partition { a, b, from, until });
        self
    }

    /// Slows every link touching the selected peers by `factor`, but
    /// only inside `[from, until)`.
    pub fn slow_peer_during(
        mut self,
        sel: PeerSel,
        factor: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.slowdown_windows.push(SlowdownWindow {
            sel,
            factor: factor.max(1.0),
            from,
            until,
        });
        self
    }

    /// Schedules a crash and restart.
    pub fn crash(mut self, peer: PeerId, down_at: SimTime, up_at: SimTime) -> Self {
        self.crashes.push(Crash {
            peer,
            down_at,
            up_at,
        });
        self
    }

    /// Sets the federation sync-message loss probability.
    pub fn with_sync_drop(mut self, p: f64) -> Self {
        self.sync_drop = p;
        self
    }

    /// `true` if the plan can never alter any delivery: evaluating it
    /// is then provably a no-op (and consumes no randomness).
    pub fn is_noop(&self) -> bool {
        self.faults.is_noop()
            && self.partitions.is_empty()
            && self.slowdown_windows.iter().all(|w| w.factor <= 1.0)
            && self.crashes.is_empty()
            && self.sync_drop <= 0.0
    }

    fn faults_for(&self, a: PeerId, b: PeerId, now_us: u64) -> LinkFaults {
        let mut faults = self.faults;
        for w in &self.slowdown_windows {
            if w.active(now_us) && (w.sel.matches(a) || w.sel.matches(b)) {
                faults.slowdown *= w.factor.max(1.0);
            }
        }
        faults
    }
}

/// What the injector decided about one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDecision {
    /// `false` if the message is silently lost.
    pub deliver: bool,
    /// `true` if the link is partitioned: fail fast, do not time out.
    pub unreachable: bool,
    /// Extra in-flight delay (delay and reorder faults).
    pub extra_delay_us: u64,
    /// Number of *extra* copies delivered (duplicate fault).
    pub duplicates: u32,
    /// `true` if the frame's bytes should be corrupted (wire layer).
    pub corrupt: bool,
    /// Multiplier on the base delivery delay.
    pub slowdown: f64,
}

impl FaultDecision {
    /// An untouched delivery.
    pub const CLEAN: FaultDecision = FaultDecision {
        deliver: true,
        unreachable: false,
        extra_delay_us: 0,
        duplicates: 0,
        corrupt: false,
        slowdown: 1.0,
    };
}

/// Counters describing everything an injector has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectorStats {
    /// Messages evaluated.
    pub decided: u64,
    /// Messages silently dropped.
    pub dropped: u64,
    /// Messages refused by an active partition.
    pub unreachable: u64,
    /// Messages held back by a delay or reorder fault.
    pub delayed: u64,
    /// Extra copies scheduled by the duplicate fault.
    pub duplicated: u64,
    /// Frames marked for byte corruption.
    pub corrupted: u64,
    /// Federation sync messages dropped.
    pub sync_dropped: u64,
}

impl InjectorStats {
    /// Fraction of evaluated messages that were delivered (1.0 when
    /// nothing was evaluated).
    pub fn success_rate(&self) -> f64 {
        if self.decided == 0 {
            return 1.0;
        }
        1.0 - (self.dropped + self.unreachable) as f64 / self.decided as f64
    }
}

/// Evaluates a [`FaultPlan`] message by message.
///
/// Every decision is a pure function of the plan seed, the (orderless)
/// link and a per-link sequence number, so two injectors over the same
/// plan fed the same message sequence make identical decisions — and a
/// no-op plan short-circuits without touching any state.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    noop: bool,
    counters: HashMap<(PeerId, PeerId), u64>,
    stats: InjectorStats,
}

impl FaultInjector {
    /// Wraps a plan for evaluation.
    pub fn new(plan: FaultPlan) -> Self {
        let noop = plan.is_noop();
        FaultInjector {
            plan,
            noop,
            counters: HashMap::new(),
            stats: InjectorStats::default(),
        }
    }

    /// The plan being evaluated.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// `true` if the plan can never alter a delivery.
    pub fn is_noop(&self) -> bool {
        self.noop
    }

    /// Counters so far.
    pub fn stats(&self) -> InjectorStats {
        self.stats
    }

    /// `true` if a partition between `a` and `b` is active at `now_us`.
    pub fn partitioned(&self, a: PeerId, b: PeerId, now_us: u64) -> bool {
        self.plan
            .partitions
            .iter()
            .any(|p| p.active(now_us) && p.cuts(a, b))
    }

    fn next_seq(&mut self, a: PeerId, b: PeerId) -> u64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        let ctr = self.counters.entry(key).or_insert(0);
        let seq = *ctr;
        *ctr += 1;
        seq
    }

    /// Decides the fate of one `src → dst` message at `now_us`.
    pub fn decide(&mut self, src: PeerId, dst: PeerId, now_us: u64) -> FaultDecision {
        if self.noop {
            return FaultDecision::CLEAN;
        }
        self.stats.decided += 1;
        if self.partitioned(src, dst, now_us) {
            self.stats.unreachable += 1;
            return FaultDecision {
                deliver: false,
                unreachable: true,
                ..FaultDecision::CLEAN
            };
        }
        let faults = self.plan.faults_for(src, dst, now_us);
        if faults.is_noop() {
            return FaultDecision::CLEAN;
        }
        let link = src.link_hash(dst);
        let seq = self.next_seq(src, dst);
        let draw = |salt: u64| unit(mix(self.plan.seed, link, seq, salt));

        if draw(1) < faults.drop.clamp(0.0, 1.0) {
            self.stats.dropped += 1;
            return FaultDecision {
                deliver: false,
                ..FaultDecision::CLEAN
            };
        }
        let mut decision = FaultDecision {
            slowdown: faults.slowdown.max(1.0),
            ..FaultDecision::CLEAN
        };
        if faults.delay_us > 0 && draw(2) < faults.delay.clamp(0.0, 1.0) {
            decision.extra_delay_us += faults.delay_us;
        }
        if faults.delay_us > 0 && draw(3) < faults.reorder.clamp(0.0, 1.0) {
            // A hash-sized fraction of the delay budget: enough to leapfrog
            // later messages on the same link.
            decision.extra_delay_us += mix(self.plan.seed, link, seq, 4) % faults.delay_us.max(1);
        }
        if decision.extra_delay_us > 0 {
            self.stats.delayed += 1;
        }
        if draw(5) < faults.duplicate.clamp(0.0, 1.0) {
            decision.duplicates = 1;
            self.stats.duplicated += 1;
        }
        if draw(6) < faults.corrupt.clamp(0.0, 1.0) {
            decision.corrupt = true;
            self.stats.corrupted += 1;
        }
        decision
    }

    /// Decides whether one federation sync message (`from` shard to
    /// `to` shard) is lost at `now_us`.
    pub fn drop_sync(&mut self, from: u64, to: u64, now_us: u64) -> bool {
        if self.noop {
            return false;
        }
        let (a, b) = (PeerId::shard(from), PeerId::shard(to));
        if self.partitioned(a, b, now_us) {
            self.stats.sync_dropped += 1;
            return true;
        }
        if self.plan.sync_drop <= 0.0 {
            return false;
        }
        let link = a.link_hash(b);
        let seq = self.next_seq(a, b);
        let lost = unit(mix(self.plan.seed, link, seq, 7)) < self.plan.sync_drop.clamp(0.0, 1.0);
        if lost {
            self.stats.sync_dropped += 1;
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_of(inj: &mut FaultInjector, a: PeerId, b: PeerId, n: usize) -> Vec<FaultDecision> {
        (0..n).map(|_| inj.decide(a, b, 0)).collect()
    }

    #[test]
    fn noop_plan_is_clean_and_stateless() {
        let mut inj = FaultInjector::new(FaultPlan::new(1));
        assert!(inj.is_noop());
        for _ in 0..100 {
            assert_eq!(
                inj.decide(PeerId::user(1), PeerId::node(2), 0),
                FaultDecision::CLEAN
            );
        }
        assert_eq!(inj.stats(), InjectorStats::default());
        assert!(!inj.drop_sync(0, 1, 0));
    }

    #[test]
    fn zero_intensity_uniform_profile_is_noop() {
        assert!(LinkFaults::uniform(0.0).is_noop());
        assert!(FaultPlan::new(3)
            .with_faults(LinkFaults::uniform(0.0))
            .is_noop());
        assert!(!FaultPlan::new(3)
            .with_faults(LinkFaults::uniform(0.2))
            .is_noop());
    }

    #[test]
    fn same_seed_replays_identically() {
        let plan = FaultPlan::new(99).with_faults(LinkFaults::uniform(0.6));
        let a = seq_of(
            &mut FaultInjector::new(plan.clone()),
            PeerId::user(1),
            PeerId::node(7),
            64,
        );
        let b = seq_of(
            &mut FaultInjector::new(plan),
            PeerId::user(1),
            PeerId::node(7),
            64,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let mk = |seed| {
            seq_of(
                &mut FaultInjector::new(FaultPlan::new(seed).with_faults(LinkFaults::uniform(0.6))),
                PeerId::user(1),
                PeerId::node(7),
                64,
            )
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn links_have_independent_sequences() {
        let plan = FaultPlan::new(5).with_faults(LinkFaults::lossy(0.5));
        let mut interleaved = FaultInjector::new(plan.clone());
        let mut solo = FaultInjector::new(plan);
        let (u, n1, n2) = (PeerId::user(1), PeerId::node(1), PeerId::node(2));
        // Interleave traffic on a second link; the first link's fate
        // sequence must not shift.
        let mut got = Vec::new();
        for _ in 0..32 {
            got.push(interleaved.decide(u, n1, 0));
            interleaved.decide(u, n2, 0);
        }
        let want = seq_of(&mut solo, u, n1, 32);
        assert_eq!(got, want);
    }

    #[test]
    fn drop_probability_is_roughly_honoured() {
        let mut inj = FaultInjector::new(FaultPlan::new(11).with_faults(LinkFaults::lossy(0.3)));
        let n = 2000;
        let dropped = (0..n)
            .filter(|_| !inj.decide(PeerId::user(1), PeerId::node(1), 0).deliver)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "rate {rate}");
        assert_eq!(inj.stats().dropped, dropped as u64);
    }

    #[test]
    fn partitions_cut_both_directions_within_window() {
        let plan = FaultPlan::new(1).partition(
            PeerSel::Class(PeerClass::User),
            PeerSel::Class(PeerClass::Manager),
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        let mut inj = FaultInjector::new(plan);
        let (u, m) = (PeerId::user(1), PeerId::manager(0));
        let before = inj.decide(u, m, SimTime::from_secs(9).as_micros());
        assert!(before.deliver && !before.unreachable);
        let during = inj.decide(u, m, SimTime::from_secs(10).as_micros());
        assert!(!during.deliver && during.unreachable);
        let reverse = inj.decide(m, u, SimTime::from_secs(15).as_micros());
        assert!(reverse.unreachable);
        let after = inj.decide(u, m, SimTime::from_secs(20).as_micros());
        assert!(after.deliver, "partition heals at the exclusive end");
        // Node traffic is unaffected.
        assert!(
            inj.decide(u, PeerId::node(3), SimTime::from_secs(15).as_micros())
                .deliver
        );
        assert_eq!(inj.stats().unreachable, 2);
    }

    #[test]
    fn windowed_slowdowns_apply_only_inside_their_window() {
        let plan = FaultPlan::new(1)
            .slow_peer_during(
                PeerSel::One(PeerId::node(4)),
                5.0,
                SimTime::from_secs(10),
                SimTime::from_secs(20),
            )
            .slow_peer_during(
                PeerSel::One(PeerId::node(4)),
                2.0,
                SimTime::from_secs(15),
                SimTime::from_secs(25),
            );
        assert!(!plan.is_noop());
        let mut inj = FaultInjector::new(plan);
        let (u, n) = (PeerId::user(1), PeerId::node(4));
        let at = |s: u64| SimTime::from_secs(s).as_micros();
        assert_eq!(inj.decide(u, n, at(9)).slowdown, 1.0, "before the window");
        assert_eq!(inj.decide(u, n, at(10)).slowdown, 5.0, "inclusive start");
        assert_eq!(inj.decide(u, n, at(17)).slowdown, 10.0, "windows stack");
        assert_eq!(inj.decide(u, n, at(20)).slowdown, 2.0, "exclusive end");
        assert_eq!(inj.decide(u, n, at(25)).slowdown, 1.0, "all healed");
        // Unselected peers are untouched throughout.
        assert_eq!(inj.decide(u, PeerId::node(5), at(17)).slowdown, 1.0);
    }

    #[test]
    fn inactive_windows_alone_do_not_make_a_plan_noop() {
        // A plan whose only content is windowed slowdowns is active...
        let windowed = FaultPlan::new(2).slow_peer_during(
            PeerSel::Any,
            3.0,
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert!(!windowed.is_noop());
        // ...unless every window's factor is a no-op multiplier.
        let flat = FaultPlan::new(2).slow_peer_during(
            PeerSel::Any,
            1.0,
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert!(flat.is_noop());
    }

    #[test]
    fn sync_drop_is_deterministic_and_counted() {
        let plan = FaultPlan::new(17).with_sync_drop(0.5);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        let fa: Vec<bool> = (0..64).map(|_| a.drop_sync(0, 1, 0)).collect();
        let fb: Vec<bool> = (0..64).map(|_| b.drop_sync(0, 1, 0)).collect();
        assert_eq!(fa, fb);
        let dropped = fa.iter().filter(|d| **d).count() as u64;
        assert!(dropped > 0);
        assert_eq!(a.stats().sync_dropped, dropped);
    }

    #[test]
    fn success_rate_reflects_losses() {
        assert_eq!(InjectorStats::default().success_rate(), 1.0);
        let s = InjectorStats {
            decided: 10,
            dropped: 2,
            unreachable: 1,
            ..Default::default()
        };
        assert!((s.success_rate() - 0.7).abs() < 1e-12);
    }
}
