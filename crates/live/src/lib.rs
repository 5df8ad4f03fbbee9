//! A live, networked implementation of the Armada protocol over TCP.
//!
//! The simulator (`armada-core`) reproduces the paper's figures; this
//! crate demonstrates that the same protocol is a real networked system:
//! a [`LiveManager`], [`LiveNode`]s and [`LiveClient`]s speak a
//! length-prefixed protocol (JSON or compact binary) over TCP and UDP.
//! The servers run on `armada-reactor` event loops — a few threads
//! serve any number of connections, with heartbeats, federation sync
//! and UDP probes all driven by readiness and timer-wheel deadlines —
//! and so does every client session of the process, on one loop thread
//! of its own; per-node artificial delays stand in for geographic
//! distance when everything runs on localhost.
//!
//! The manager is the simulator's manager
//! (`armada_manager::CentralManager`) on a wall clock, and the node
//! is its `armada_node::EdgeNode`: frames share the
//! hardware profile's cores in its processor-sharing ledger and
//! complete on reactor timers, so probing observes genuine queueing and
//! contention; clients probe candidates concurrently, rank them with the
//! same `LO`/`GO` policies as the simulator (`armada-client` is shared
//! code), hold warm backup connections, and fail over without
//! re-discovery.
//!
//! # Examples
//!
//! See `examples/live_cluster.rs` at the workspace root for a complete
//! localhost deployment, and this crate's integration tests for minimal
//! usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod manager;
mod node;

pub use client::{LiveClient, PendingSession, SessionReport};
pub use manager::{LiveManager, LiveManagerConfig, BUSY_RETRY_MS};
pub use node::{LiveNode, LiveNodeConfig, NodeConfig};
// The protocol types moved to `armada-wire`; re-exported so existing
// `armada_live::{Request, ...}` call sites keep compiling unchanged.
pub use armada_wire::{
    Codec, FrameError, Request, Response, WireConfig, WireNodeStatus, WireSummary,
};
