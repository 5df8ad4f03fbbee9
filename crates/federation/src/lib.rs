//! Geo-sharded manager federation.
//!
//! The single central manager of the baseline becomes K *shards*, each
//! owning registration, heartbeats, and liveness for one geohash region
//! of the world ([`ShardMap`]). Every sync round each shard pushes the
//! record of every node it owns to its peers, so a border user's
//! discovery merges its home shard's registry with neighbour-shard
//! state, and a neighbour can serve a user whose home shard has failed
//! — the client walks its route order to it
//! ([`FederatedCluster::discover_at`]).
//!
//! The design goal is *behavioural equivalence*: with every shard up
//! and synced, a federated discovery ranks exactly the candidates the
//! single-manager baseline would — sharding changes where control-plane
//! load lands, not which node a user selects. It holds by construction:
//! a shard *is* an `armada_manager::CentralManager`, whose merged
//! registry also takes the peers' records, so liveness, own-over-peer
//! precedence, the index, the published `DiscoverySnapshot`, the push
//! and the counters are that crate's; this one adds the map and the
//! sync rounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod map;

pub use cluster::{FederatedCluster, RoutedDiscovery, SyncStats};
pub use map::{ShardMap, ShardSite};

pub use armada_types::ShardId;
