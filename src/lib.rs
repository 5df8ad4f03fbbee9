//! # Armada — client-centric edge selection for heterogeneous
//! edge-dense environments
//!
//! A from-scratch Rust implementation of the system described in
//! *"Towards Elasticity in Heterogeneous Edge-dense Environments"*
//! (ICDCS 2022): a distributed, 2-step edge-selection approach for
//! volunteer-augmented edge clouds, together with everything needed to
//! reproduce the paper's evaluation.
//!
//! This crate is the facade: it re-exports the workspace's sub-crates
//! under stable module names. Start with:
//!
//! * [`core`] — build an environment and run end-to-end scenarios on
//!   the deterministic simulator,
//! * [`live`] — run the same protocol over real TCP sockets (std::net),
//! * [`baselines`] — the static assignment problem and its optimal solver,
//! * the `examples/` directory — `quickstart`, `live_cluster`,
//!   `churn_survival`, `policy_playground`.
//!
//! # Examples
//!
//! ```
//! use armada::core::{EnvSpec, Scenario, Strategy};
//! use armada::types::SimDuration;
//!
//! let result = Scenario::new(EnvSpec::realworld(5), Strategy::client_centric())
//!     .duration(SimDuration::from_secs(20))
//!     .seed(1)
//!     .run();
//! println!("mean latency: {}", result.recorder().mean().unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use armada_baselines as baselines;
pub use armada_chaos as chaos;
pub use armada_churn as churn;
pub use armada_client as client;
pub use armada_core as core;
pub use armada_federation as federation;
pub use armada_geo as geo;
pub use armada_live as live;
pub use armada_manager as manager;
pub use armada_metrics as metrics;
pub use armada_net as net;
pub use armada_node as node;
pub use armada_sim as sim;
pub use armada_trace as trace;
pub use armada_types as types;
pub use armada_workload as workload;
