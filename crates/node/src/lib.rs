//! The edge node: the server side of the paper's probing protocol.
//!
//! An [`EdgeNode`] owns a processor-sharing frame executor and exposes
//! the paper's Table I APIs. [`serve`] answers each as a wire request,
//! for the simulator and the live node alike: it calls the method
//! below and narrates what it decided.
//!
//! | API | Request | Here |
//! |---|---|---|
//! | `RTT_probe()` | `RttProbe` | answered `RttPong` at once (the round trip is the measurement) |
//! | `Process_probe()` | `ProcessProbe` | [`EdgeNode::process_probe`] — returns the cached "what-if" processing delay, the node's `seqNum` and its current workload state |
//! | `Join()` | `Join` | [`EdgeNode::join`] — Algorithm 1: accept iff the presented `seqNum` matches |
//! | `Unexpected_join()` | `UnexpectedJoin` | [`EdgeNode::unexpected_join`] — non-rejectable failover attach |
//! | `Leave()` | `Leave` | [`EdgeNode::leave`] |
//! | (offload) | `Frame` | [`EdgeNode::offload`] — answered when the frame completes |
//!
//! The what-if cache is refreshed by actually running a synthetic test
//! frame through the executor, and invalidated by the paper's three
//! triggers: user join, user leave, and performance-monitor drift.
//!
//! The node is pure logic over virtual time: it never blocks or sleeps.
//! Methods append [`NodeAction`]s (e.g. "invoke the test workload after
//! 2×RTT") to a buffer the runtime owns and reuses, and the scenario
//! runner turns them into scheduled events. What a
//! node decided is traced by its [`Narrator`]: [`serve`] narrates each
//! request, and both runtimes narrate the what-if refreshes they carry
//! out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod monitor;
mod narrate;
mod node;
mod probe;
mod serve;

pub use monitor::{PerfMonitor, WhatIfCache};
pub use narrate::Narrator;
pub use node::{EdgeNode, NodeAction, NodeStats};
pub use probe::{NodeStatus, ProbeReply};
pub use serve::serve;
