//! The optimal edge assignment of the paper's Fig. 7 and the static
//! problem it solves.
//!
//! Fig. 7 compares the client-centric scheme against an **optimal**
//! assignment that minimises the mean end-to-end latency of the static
//! formulation in §III-C. This crate holds that formulation — an
//! [`AssignmentProblem`] snapshot of mean RTTs, per-user frame transfer
//! delays and the hardware behind `D_proc` — and its solvers:
//! [`exhaustive_optimal`], [`search_optimal`] and [`optimal`], which
//! picks between them by instance size.
//!
//! The §V-B baselines (geo-proximity, resource-aware WRR,
//! dedicated-only, closest cloud) are not here: they are simulated
//! strategies (`armada_core::Strategy`), whose assignment rule lives
//! once, in the scenario runner. A simulated run's attachments map onto
//! an [`Assignment`] to be scored against the optimum.
//!
//! # Examples
//!
//! ```
//! use armada_baselines::{AssignmentProblem, NodeSpec, UserSpec};
//! use armada_types::{HardwareProfile, NodeId, UserId};
//!
//! let problem = AssignmentProblem::new(
//!     vec![UserSpec::new(UserId::new(0)), UserSpec::new(UserId::new(1))],
//!     vec![
//!         NodeSpec::new(NodeId::new(0),
//!             HardwareProfile::new("fast", 8, 24.0).with_concurrency(4)),
//!         NodeSpec::new(NodeId::new(1), HardwareProfile::new("cloud", 4, 30.0)),
//!     ],
//!     20.0,
//! )
//! .with_rtt_ms(vec![vec![10.0, 80.0], vec![12.0, 80.0]]);
//!
//! let optimal = armada_baselines::optimal(&problem, 42);
//! // Both users fit on the nearby fast node.
//! assert_eq!(optimal.node_of(0), 0);
//! assert_eq!(optimal.node_of(1), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod optimal;
mod problem;

pub use optimal::{exhaustive_optimal, optimal, search_optimal};
pub use problem::{Assignment, AssignmentProblem, NodeSpec, UserSpec};
