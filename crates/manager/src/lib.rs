//! The Central Manager: the first step of the paper's 2-step edge
//! selection.
//!
//! Edge nodes register and send periodic status heartbeats; users send
//! *edge discovery* queries. The manager answers with a coarse-grained
//! **candidate edge list** of `TopN` nodes, produced by
//!
//! 1. a geo-proximity filter (GeoHash-backed widening search, so remote
//!    nodes remain available as a last resort), then
//! 2. a ranking that combines resource availability, distance and
//!    optional network affiliation (paper §IV-B).
//!
//! Accuracy is deliberately coarse: the client's probing step makes the
//! final call, so the manager "is coarse-grained with high tolerance to
//! edge selection inaccuracy and mismatch".
//!
//! # Examples
//!
//! ```
//! use armada_manager::{CentralManager, GlobalSelectionPolicy};
//! use armada_node::NodeStatus;
//! use armada_types::{GeoPoint, NodeClass, NodeId, SimTime, SystemConfig};
//!
//! let mut mgr = CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
//! let home = GeoPoint::new(44.98, -93.26);
//! for i in 0..5 {
//!     mgr.register(NodeStatus {
//!         node: NodeId::new(i),
//!         class: NodeClass::Volunteer,
//!         location: home.offset_km(i as f64 * 3.0, 0.0),
//!         attached_users: 0,
//!         load_score: 0.0,
//!     }, SimTime::ZERO);
//! }
//! let candidates = mgr.discover(home, &[], 3, SimTime::ZERO);
//! assert_eq!(candidates.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod discovery;
mod manager;
mod narrate;
pub mod reference;
mod registry;
mod selection;
mod snapshot;
mod table;

pub use discovery::Engine;
pub use manager::{admissible_load, CentralManager, ShardCounters};
pub use narrate::Narrator;
pub use reference::widen_and_rank;
pub use registry::{NodeRecord, NodeRegistry, Pruned, RegistryView};
pub use selection::{partial_select_by, GlobalSelectionPolicy, ScoredCandidate};
pub use snapshot::DiscoverySnapshot;
pub use table::{CowTable, CowView};
