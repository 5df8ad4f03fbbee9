//! Core vocabulary types shared by every Armada crate.
//!
//! This crate defines the identifiers, physical quantities, hardware
//! descriptions and configuration structures used throughout the Armada
//! edge-selection system — the reproduction of *"Towards Elasticity in
//! Heterogeneous Edge-dense Environments"* (ICDCS 2022).
//!
//! Everything here is plain data: `Copy`/`Clone` and free of behaviour
//! beyond unit conversions and small invariant-preserving constructors.
//! Only what the wire's JSON codec carries (`GeoPoint`, `NodeClass`)
//! converts to and from `armada-json`.
//!
//! # Examples
//!
//! ```
//! use armada_types::{NodeId, SimDuration, DataSize, Bandwidth};
//!
//! let node = NodeId::new(7);
//! assert_eq!(node.to_string(), "node-7");
//!
//! // 0.02 MB frame over a 20 Mbit/s uplink:
//! let frame = DataSize::from_megabytes(0.02);
//! let uplink = Bandwidth::from_megabits_per_sec(20.0);
//! let delay: SimDuration = uplink.transfer_time(frame);
//! assert!((delay.as_millis_f64() - 8.0).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod config;
mod data;
mod error;
mod geo;
mod hardware;
mod hash;
mod id;
mod network;
mod time;

pub use backoff::Backoff;
pub use config::{ClientConfig, LocalSelectionPolicy, QosRequirement, SelectorMode, SystemConfig};
pub use data::{Bandwidth, DataSize};
pub use error::{ArmadaError, Result};
pub use geo::{GeoPoint, EARTH_RADIUS_KM};
pub use hardware::{table2_profiles, HardwareProfile, NodeClass};
pub use hash::{fnv1a, mix64, splitmix64, U64BuildHasher, U64Hasher};
pub use id::{NodeId, ShardId, UserId};
pub use network::AccessNetwork;
pub use time::{SimDuration, SimTime};
