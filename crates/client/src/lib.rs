//! The client side of the 2-step distributed edge selection.
//!
//! After the Central Manager returns a coarse candidate list, the client
//! probes each candidate (`RTT_probe()` + `Process_probe()`), ranks them
//! with a local selection policy, joins the winner with sequence-number
//! synchronisation, and keeps the remaining candidates as warm backups —
//! Algorithm 2 of the paper.
//!
//! * [`ProbeResult`] — one candidate's combined probing outcome, with its
//!   local-view overhead `LO` and global overhead `GO`,
//! * [`rank_candidates`] — the `SortLocalSelectionPolicy()` step,
//! * [`EdgeClient`] — the per-user state machine: the probing round
//!   (`start_probe_round → replies / losses → conclude_probe_round`),
//!   current node, backup list, adaptive frame rate, failover decisions,
//!   and the control plane: the manager route walk under a
//!   [`CircuitBreaker`] per rank, degraded mode's cached shortlist, the
//!   one retry schedule of every way back to discovery and when a live
//!   session gives up; drivers only carry its messages,
//! * [`Narrator`] — the client-side trace events, written once, by the core.
//!
//! # Examples
//!
//! ```
//! use armada_client::{rank_candidates, ProbeResult};
//! use armada_types::{LocalSelectionPolicy, NodeId, QosRequirement, SimDuration};
//!
//! let probe = |id: u64, rtt_ms: u64, whatif_ms: u64| ProbeResult {
//!     node: NodeId::new(id),
//!     rtt: SimDuration::from_millis(rtt_ms),
//!     whatif_proc: SimDuration::from_millis(whatif_ms),
//!     current_proc: SimDuration::from_millis(whatif_ms),
//!     attached_users: 0,
//!     seq_num: 0,
//! };
//! // Node 2 has a slower CPU but a much faster network path.
//! let ranked = rank_candidates(
//!     vec![probe(1, 40, 24), probe(2, 10, 31)],
//!     LocalSelectionPolicy::GlobalOverhead,
//!     QosRequirement::default(),
//! );
//! assert_eq!(ranked[0].node, NodeId::new(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod client;
mod control;
mod narrate;
mod predict;
mod probe;

pub use breaker::{BreakerState, CircuitBreaker, Transition};
pub use client::{ClientDecision, ClientStats, EdgeClient, FailoverDecision, JoinFollowup};
pub use client::{FRAME_ACK_TIMEOUT, IDLE_RETRY};
pub use control::{ManagerReply, Verdict, ATTACH_TRIES, BREAKER_COOLDOWN, BREAKER_THRESHOLD};
pub use control::{REDISCOVER_BACKOFF, RETRY_BACKOFF};
pub use narrate::Narrator;
pub use predict::{
    PredictionSummary, PredictiveSelector, PredictorParams, ReliabilityScore, RttForecast,
};
pub use probe::{rank_candidates, ProbeResult, PROBE_TIMEOUT};
