//! The edge node: the server side of the paper's probing protocol.
//!
//! An [`EdgeNode`] owns a processor-sharing frame executor and exposes
//! the paper's Table I APIs:
//!
//! | API | Here |
//! |---|---|
//! | `RTT_probe()` | handled by the network layer (pure propagation) |
//! | `Process_probe()` | [`EdgeNode::process_probe`] — returns the cached "what-if" processing delay, the node's `seqNum` and its current workload state |
//! | `Join()` | [`EdgeNode::join`] — Algorithm 1: accept iff the presented `seqNum` matches |
//! | `Unexpected_join()` | [`EdgeNode::unexpected_join`] — non-rejectable failover attach |
//! | `Leave()` | [`EdgeNode::leave`] |
//!
//! The what-if cache is refreshed by actually running a synthetic test
//! frame through the executor, and invalidated by the paper's three
//! triggers: user join, user leave, and performance-monitor drift.
//!
//! The node is pure logic over virtual time: it never blocks or sleeps.
//! Methods return [`NodeAction`]s (e.g. "invoke the test workload after
//! 2×RTT") that the scenario runner turns into scheduled events. What a
//! node decided is traced by its [`Narrator`], which both runtimes call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod monitor;
mod narrate;
mod node;
mod probe;

pub use monitor::{PerfMonitor, WhatIfCache};
pub use narrate::Narrator;
pub use node::{EdgeNode, NodeAction, NodeStats};
pub use probe::{NodeStatus, ProbeReply};
