//! Deterministic fault injection for the Armada runtimes.
//!
//! The paper's robustness results (fast failover under node loss,
//! fault tolerance under churn) were produced by injecting faults by
//! hand into an EC2 emulation. This crate makes that repeatable: a
//! seeded [`FaultPlan`] describes per-link message faults
//! (drop/delay/duplicate/reorder/corrupt), scheduled partitions,
//! per-peer slow-downs and crash-restart schedules, and a
//! [`FaultInjector`] evaluates it **deterministically** — every
//! decision is a pure hash of `(plan seed, link, per-link sequence
//! number)`, never a draw from a shared RNG stream. Two consequences
//! fall out of that design:
//!
//! * replaying the same plan against the same workload reproduces the
//!   exact same fault sequence, and
//! * a zero-intensity plan consumes no randomness at all, so a run
//!   with a no-op plan is byte-identical to a run with no chaos.
//!
//! Enforcement points live with the consumers: `armada-net` consults
//! an injector inside its delivery path (simulation), and
//! [`FaultyTransport`] / [`ChaosProxy`] impose the same fault classes
//! on live TCP streams at the socket boundary.
//!
//! [`StormPlan`] extends the same determinism from message faults to
//! *connection* hostility — seeded connection floods, slow-loris
//! cohorts and reconnect stampedes — for driving the live servers'
//! overload-control machinery.
//!
//! # Examples
//!
//! ```
//! use armada_chaos::{FaultInjector, FaultPlan, LinkFaults, PeerId};
//!
//! let plan = FaultPlan::new(7).with_faults(LinkFaults::lossy(0.5));
//! let mut inj = FaultInjector::new(plan);
//! let (a, b) = (PeerId::user(1), PeerId::node(2));
//! let first: Vec<bool> = (0..8).map(|_| inj.decide(a, b, 0).deliver).collect();
//!
//! // Same seed, same link, same sequence: the same fate, every time.
//! let mut replay = FaultInjector::new(FaultPlan::new(7).with_faults(LinkFaults::lossy(0.5)));
//! let second: Vec<bool> = (0..8).map(|_| replay.decide(a, b, 0).deliver).collect();
//! assert_eq!(first, second);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hash;
mod plan;
mod proxy;
mod storm;
mod transport;

pub use plan::{
    Crash, FaultDecision, FaultInjector, FaultPlan, InjectorStats, LinkFaults, Partition,
    PeerClass, PeerId, PeerSel, SlowdownWindow,
};
pub use proxy::ChaosProxy;
pub use storm::{StormEvent, StormPlan, StormRole};
pub use transport::FaultyTransport;
