//! Geo-proximity index with widening search.
//!
//! The manager stores every registered node's position here and answers
//! "which nodes are near this user?" queries. The search starts at a
//! GeoHash precision covering the configured radius and *widens* (coarser
//! prefixes) until enough candidates are found, so that remote nodes are
//! reachable as a last resort — exactly the behaviour described in paper
//! §IV-B.
//!
//! Two query paths coexist:
//!
//! * the original full scan ([`ProximityIndex::within_km`]) — exact,
//!   O(N) per call, retained as the *reference* the differential test
//!   suite compares against, and
//! * the incremental [`DiskScan`] — an expanding cell-ring search over
//!   multi-resolution GeoHash buckets that visits each cell at most
//!   once across widening rounds and emits neighbors in deterministic
//!   `(distance, id)` order. This is the sparse-fleet discovery path: a
//!   widening search over a million-node fleet touches only the buckets
//!   its growing disk actually covers instead of re-scanning every node
//!   on every radius doubling.
//!
//! [`ProximityIndex::count_near`] reads the same buckets' sizes, without
//! their ids, to estimate how crowded a disk is.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use armada_types::{mix64, GeoPoint, NodeId, U64BuildHasher, EARTH_RADIUS_KM};

type FastMap<K, V> = HashMap<K, V, U64BuildHasher>;
type FastSet<K> = HashSet<K, U64BuildHasher>;

/// A position with its latitude cosine cached.
///
/// [`TrigPoint::distance_km`] replicates [`GeoPoint::distance_km`]
/// term for term, so the result is bit-identical while the per-pair
/// work drops from two `cos` + two `sin` to just the two `sin` — the
/// disk scan computes one distance per candidate it touches, and this
/// is its single hottest operation. (The radians are one multiply each
/// and are not kept: every indexed node stores one of these.)
#[derive(Debug, Clone, Copy)]
struct TrigPoint {
    point: GeoPoint,
    cos_lat: f64,
}

impl TrigPoint {
    fn new(point: GeoPoint) -> TrigPoint {
        TrigPoint {
            point,
            cos_lat: point.lat().to_radians().cos(),
        }
    }

    /// Haversine distance, bit-identical to
    /// `GeoPoint::distance_km(self, other)` (same operations, same
    /// order, same rounding).
    fn distance_km(&self, other: &TrigPoint) -> f64 {
        let dlat = other.point.lat().to_radians() - self.point.lat().to_radians();
        let dlon = other.point.lon().to_radians() - self.point.lon().to_radians();
        let a =
            (dlat / 2.0).sin().powi(2) + self.cos_lat * other.cos_lat * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }
}

/// A search radius guaranteed to cover the whole globe: no great-circle
/// distance exceeds half the Earth's circumference (≈ 20 015 km), so a
/// widening search whose radius reached this value has seen every node
/// it can ever see. Widening loops cap here instead of doubling toward
/// `f64::INFINITY` when their liveness view and the index disagree.
pub const GLOBE_COVER_RADIUS_KM: f64 = 20_016.0;

/// Beyond this radius the spherical-cap bounding box spans most of the
/// globe anyway (half the antipodal distance); [`DiskScan`] switches to
/// one exhaustive sweep of the remaining buckets. Must stay below
/// `π/2 · EARTH_RADIUS_KM` ≈ 10 007 km so the cap geometry below stays
/// in its valid range.
const FULL_SCAN_RADIUS_KM: f64 = 10_000.0;

/// The bucketing precision of [`ProximityIndex::new`], and the finest
/// [`ProximityIndex::for_radius`] keeps.
const DEFAULT_PRECISION: usize = 6;

/// Cell budget per widening round: the scan picks the finest bucketing
/// precision whose cover of the query disk stays under this many cells,
/// keeping per-round work bounded no matter the radius.
const MAX_CELLS_PER_ROUND: u64 = 256;

/// Cell budget of [`ProximityIndex::count_near`]: a handful of coarse
/// cells, so the estimate costs a few map reads, not a scan.
const MAX_CELLS_PER_COUNT: u64 = 16;

/// Indexes this small are cheaper to sweep once than to cover cell by
/// cell.
const SMALL_INDEX_FULL_SCAN: usize = 64;

/// Number of position shards. A mutation clones (at most) one shard of
/// ~`len / POS_SHARDS` entries instead of the whole position table, so
/// copy-on-write against an outstanding snapshot costs O(len/shards).
/// Power of two so `shard_of` can mask.
const POS_SHARDS: usize = 256;

/// Number of bucket-map segments per precision level, for the same
/// reason: a cell update clones one segment's map skeleton, not the
/// level's. Power of two so `segment_of` can mask.
const LEVEL_SEGMENTS: usize = 64;

/// Max ids per bucket chunk. Dense metro cells hold tens of thousands
/// of ids; chunking caps the bytes a single append copies under
/// copy-on-write at `CHUNK_CAP * 8` instead of the whole cell.
const CHUNK_CAP: usize = 512;

/// Segments reclaimed per mutation once the stale-entry debt crosses
/// its threshold — amortised so no single mutation pays a full sweep.
const SWEEP_SEGMENTS_PER_STEP: usize = 4;

/// Ids and cell keys go through [`mix64`] first: sequential ones would
/// otherwise pile into a few shards/segments.
fn shard_of(id: NodeId) -> usize {
    mix64(id.as_u64()) as usize & (POS_SHARDS - 1)
}

fn segment_of(key: u64) -> usize {
    mix64(key) as usize & (LEVEL_SEGMENTS - 1)
}

/// One grid cell's id list, stored as fixed-capacity chunks behind
/// `Arc` so an append while a snapshot holds the cell copies at most
/// [`CHUNK_CAP`] ids, never the whole (possibly huge) cell.
#[derive(Debug, Clone, Default)]
struct Bucket {
    chunks: Vec<Arc<Vec<NodeId>>>,
}

impl Bucket {
    fn push(&mut self, id: NodeId) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK_CAP => Arc::make_mut(last).push(id),
            _ => self.chunks.push(Arc::new(vec![id])),
        }
    }

    fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.chunks.iter().flat_map(|c| c.iter().copied())
    }

    fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    fn from_ids(ids: Vec<NodeId>) -> Bucket {
        Bucket {
            chunks: ids
                .chunks(CHUNK_CAP)
                .map(|c| Arc::new(c.to_vec()))
                .collect(),
        }
    }
}

/// A node returned by a proximity query, with its distance to the query
/// point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedNeighbor {
    /// The matching node.
    pub id: NodeId,
    /// Great-circle distance from the query point, in kilometres.
    pub distance_km: f64,
}

/// The integer cell grid at one GeoHash precision.
///
/// A GeoHash of `p` characters encodes `⌈5p/2⌉` longitude bits and
/// `⌊5p/2⌋` latitude bits by binary subdivision, so its cells are
/// exactly the cells of a `2^lon_bits × 2^lat_bits` grid. Indexing them
/// by integer coordinates instead of base-32 strings keeps bucket keys
/// allocation-free and makes ring enumeration direct arithmetic.
#[derive(Debug, Clone, Copy)]
struct Grid {
    lon_cells: u32,
    lat_cells: u32,
}

impl Grid {
    fn at(precision: usize) -> Grid {
        let bits = 5 * precision as u32;
        Grid {
            lon_cells: 1 << bits.div_ceil(2),
            lat_cells: 1 << (bits / 2),
        }
    }

    fn cell_x(&self, lon: f64) -> u32 {
        let raw = ((lon + 180.0) / 360.0 * self.lon_cells as f64) as i64;
        raw.clamp(0, i64::from(self.lon_cells) - 1) as u32
    }

    fn cell_y(&self, lat: f64) -> u32 {
        let raw = ((lat + 90.0) / 180.0 * self.lat_cells as f64) as i64;
        raw.clamp(0, i64::from(self.lat_cells) - 1) as u32
    }

    fn key(&self, point: GeoPoint) -> u64 {
        pack(self.cell_x(point.lon()), self.cell_y(point.lat()))
    }
}

fn pack(x: u32, y: u32) -> u64 {
    (u64::from(x) << 32) | u64::from(y)
}

/// A contiguous block of cells at one precision; longitude wraps.
#[derive(Debug, Clone, Copy)]
struct CellRect {
    x0: u32,
    x_count: u32,
    y0: u32,
    y1: u32,
}

impl CellRect {
    fn contains(&self, x: u32, y: u32, lon_cells: u32) -> bool {
        y >= self.y0 && y <= self.y1 && (x + lon_cells - self.x0) % lon_cells < self.x_count
    }

    fn area(&self) -> u64 {
        u64::from(self.x_count) * u64::from(self.y1 - self.y0 + 1)
    }
}

/// An in-memory spatial index over edge-node positions.
///
/// Nodes are bucketed by GeoHash cell at every precision from 1 up to
/// the index precision; queries scan matching cells and rank by true
/// haversine distance, so results are exact while candidate generation
/// stays cheap.
///
/// # Examples
///
/// ```
/// use armada_geo::ProximityIndex;
/// use armada_types::{GeoPoint, NodeId};
///
/// let origin = GeoPoint::new(44.98, -93.26);
/// let mut idx = ProximityIndex::new();
/// idx.insert(NodeId::new(1), origin.offset_km(1.0, 0.0));
/// idx.insert(NodeId::new(2), origin.offset_km(30.0, 0.0));
/// let ranked = idx.within_km(origin, 50.0);
/// assert_eq!(ranked[0].id, NodeId::new(1));
/// assert!(ranked[0].distance_km < ranked[1].distance_km);
/// ```
/// Internally every sub-structure sits behind its own `Arc`, sharded
/// small: [`POS_SHARDS`] position shards, [`LEVEL_SEGMENTS`] bucket-map
/// segments per precision level, and [`CHUNK_CAP`]-id chunks inside
/// each cell. `Clone` is therefore O(shards) reference bumps — a
/// snapshot — and a mutation performed while such a snapshot is
/// outstanding copies only the one shard/segment/chunk it touches
/// (copy-on-write via `Arc::make_mut`), never the whole fleet.
///
/// Removals and moves do **not** eagerly rewrite bucket cells: the old
/// entries go *stale* in place (scans detect them by comparing against
/// the authoritative position shards and skip or re-locate them), and
/// an amortised round-robin sweep reclaims them once the stale debt
/// exceeds a fraction of the live population. This keeps every
/// mutation O(changes) while bucket memory stays bounded.
#[derive(Debug, Clone)]
pub struct ProximityIndex {
    /// Index precision: fine enough to bucket metro-scale deployments.
    precision: usize,
    /// Position with its cached latitude cosine (which feeds the disk
    /// scan's distance computation; see [`TrigPoint`]), sharded by
    /// hashed id. The shards are the *authoritative* membership and
    /// position record; bucket entries are advisory.
    shards: Vec<Arc<FastMap<NodeId, TrigPoint>>>,
    /// Live node count (shard maps hold exactly the live nodes).
    len: usize,
    /// `levels[l][s]` holds segment `s` of the cells at precision
    /// `l + 1`, keyed by packed integer cell coordinates.
    levels: Vec<Vec<Arc<FastMap<u64, Bucket>>>>,
    /// Upper bound on bucket entries whose node has moved or left.
    stale: usize,
    /// Round-robin position of the incremental stale sweep.
    sweep_cursor: usize,
}

impl Default for ProximityIndex {
    fn default() -> Self {
        ProximityIndex::new()
    }
}

impl ProximityIndex {
    /// Creates an empty index at the default bucketing precision (6
    /// characters, cells ≈ 1.2 km × 0.6 km).
    pub fn new() -> Self {
        Self::with_precision(DEFAULT_PRECISION)
    }

    /// Creates an empty index holding only the levels, up to the default
    /// precision, that a scan of a disk of `min_radius_km` or wider can
    /// read.
    ///
    /// A scan reads each disk at the finest level whose cells over it fit
    /// its cell budget, so a level whose cells over the narrowest such
    /// disk exceed that budget wherever the disk lies is never read:
    /// holding it would cost every insert one more bucket write and
    /// every clone 64 more segment pointers. Answers do not depend on the
    /// precision; a narrower scan than `min_radius_km` just reads a
    /// coarser level than it could.
    pub fn for_radius(min_radius_km: f64) -> Self {
        let readable = (1..=DEFAULT_PRECISION)
            .rev()
            .find(|&precision| min_cover_cells(min_radius_km, precision) <= MAX_CELLS_PER_ROUND);
        Self::with_precision(readable.unwrap_or(1))
    }

    /// Creates an empty index with a custom bucketing precision.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is outside `1..=MAX_PRECISION`.
    pub fn with_precision(precision: usize) -> Self {
        assert!(
            (1..=crate::geohash::MAX_PRECISION).contains(&precision),
            "invalid index precision"
        );
        // Every slot starts out pointing at the *same* empty map: sharing
        // is intentional — the first write to a shard COWs it into its own
        // allocation, so empty shards cost one allocation total.
        let empty: Arc<FastMap<NodeId, TrigPoint>> = Arc::new(FastMap::default());
        let empty_segment: Arc<FastMap<u64, Bucket>> = Arc::new(FastMap::default());
        ProximityIndex {
            precision,
            shards: vec![empty; POS_SHARDS],
            len: 0,
            levels: vec![vec![empty_segment; LEVEL_SEGMENTS]; precision],
            stale: 0,
            sweep_cursor: 0,
        }
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no nodes are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts or moves a node. Returns the previous position if the node
    /// was already present.
    ///
    /// Cost is O(changes) even while clones of this index are
    /// outstanding: one position shard and (for moves/joins) at most
    /// one bucket chunk per precision level are copied, never the
    /// whole structure.
    pub fn insert(&mut self, id: NodeId, point: GeoPoint) -> Option<GeoPoint> {
        let shard = shard_of(id);
        let prev = self.shards[shard].get(&id).map(|t| t.point);
        // Heartbeats from stationary nodes re-insert the same position;
        // skip all bucket churn (and any shard copy) in that common case.
        if prev == Some(point) {
            return prev;
        }
        Arc::make_mut(&mut self.shards[shard]).insert(id, TrigPoint::new(point));
        match prev {
            Some(old) => {
                // A move appends to the new cell wherever the cell key
                // changed; the old entries go stale in place and are
                // reclaimed by the amortised sweep.
                for (level, segments) in self.levels.iter_mut().enumerate() {
                    let grid = Grid::at(level + 1);
                    let new_key = grid.key(point);
                    if grid.key(old) == new_key {
                        continue;
                    }
                    Arc::make_mut(&mut segments[segment_of(new_key)])
                        .entry(new_key)
                        .or_default()
                        .push(id);
                    self.stale += 1;
                }
            }
            None => {
                self.len += 1;
                for (level, segments) in self.levels.iter_mut().enumerate() {
                    let key = Grid::at(level + 1).key(point);
                    Arc::make_mut(&mut segments[segment_of(key)])
                        .entry(key)
                        .or_default()
                        .push(id);
                }
            }
        }
        self.maybe_sweep();
        prev
    }

    /// Removes a node, returning its position if it was present.
    ///
    /// Only the node's position shard is written; its bucket entries go
    /// stale in place (scans skip ids absent from the shards) and are
    /// reclaimed by the amortised sweep.
    pub fn remove(&mut self, id: NodeId) -> Option<GeoPoint> {
        let shard = shard_of(id);
        if !self.shards[shard].contains_key(&id) {
            return None;
        }
        let removed = Arc::make_mut(&mut self.shards[shard]).remove(&id)?;
        self.len -= 1;
        self.stale += self.precision;
        self.maybe_sweep();
        Some(removed.point)
    }

    /// Sweeps a few bucket segments when the stale debt crosses its
    /// threshold. The threshold scales with the live population (so a
    /// steady churn rate settles into bounded overhead) and the work is
    /// bounded per mutation (so no single call pays a full rebuild).
    fn maybe_sweep(&mut self) {
        if self.stale <= 64 + self.len * self.precision / 2 {
            return;
        }
        let total = self.precision * LEVEL_SEGMENTS;
        for _ in 0..SWEEP_SEGMENTS_PER_STEP {
            let slot = self.sweep_cursor % total;
            self.sweep_cursor = (self.sweep_cursor + 1) % total;
            self.sweep_segment(slot / LEVEL_SEGMENTS, slot % LEVEL_SEGMENTS);
        }
    }

    /// Rebuilds the buckets of one `(level, segment)` pair, dropping
    /// entries whose node left or moved cells (and duplicate entries a
    /// move-away-then-back can leave). Buckets with nothing stale are
    /// kept as-is so their chunks stay shared with live snapshots.
    fn sweep_segment(&mut self, level: usize, seg: usize) {
        let grid = Grid::at(level + 1);
        let shards = &self.shards;
        let is_current = |id: NodeId, key: u64| {
            shards[shard_of(id)]
                .get(&id)
                .is_some_and(|t| grid.key(t.point) == key)
        };
        // Read-only pass first: touch (and copy) nothing unless this
        // segment actually holds stale or duplicate entries.
        let mut dirty: Vec<u64> = Vec::new();
        for (&key, bucket) in self.levels[level][seg].iter() {
            let mut seen = FastSet::default();
            if bucket
                .ids()
                .any(|id| !seen.insert(id) || !is_current(id, key))
            {
                dirty.push(key);
            }
        }
        if dirty.is_empty() {
            return;
        }
        let map = Arc::make_mut(&mut self.levels[level][seg]);
        let mut removed = 0usize;
        for key in dirty {
            let Some(bucket) = map.get_mut(&key) else {
                continue;
            };
            let mut seen = FastSet::default();
            let live: Vec<NodeId> = bucket
                .ids()
                .filter(|&id| seen.insert(id) && is_current(id, key))
                .collect();
            removed += bucket.len() - live.len();
            if live.is_empty() {
                map.remove(&key);
            } else {
                *bucket = Bucket::from_ids(live);
            }
        }
        self.stale = self.stale.saturating_sub(removed);
    }

    /// Returns the stored position of `id`, if indexed.
    pub fn position(&self, id: NodeId) -> Option<GeoPoint> {
        self.shards[shard_of(id)].get(&id).map(|t| t.point)
    }

    /// Iterates over all `(id, position)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, GeoPoint)> + '_ {
        self.positions_iter().map(|(id, t)| (id, t.point))
    }

    /// Iterates every live `(id, entry)` pair across all shards.
    fn positions_iter(&self) -> impl Iterator<Item = (NodeId, &TrigPoint)> {
        self.shards
            .iter()
            .flat_map(|s| s.iter().map(|(&id, entry)| (id, entry)))
    }

    /// All nodes within `radius_km` of `from`, sorted nearest-first
    /// (ties broken by `NodeId` for determinism).
    ///
    /// Exact but O(N): every position is scanned. The discovery hot
    /// path uses [`ProximityIndex::disk_scan`] instead; this full scan
    /// is the reference the differential tests compare it against.
    pub fn within_km(&self, from: GeoPoint, radius_km: f64) -> Vec<RankedNeighbor> {
        let mut out: Vec<RankedNeighbor> = self
            .positions_iter()
            .map(|(id, t)| RankedNeighbor {
                id,
                distance_km: from.distance_km(t.point),
            })
            .filter(|n| n.distance_km <= radius_km)
            .collect();
        sort_ranked(&mut out);
        out
    }

    /// Starts an incremental expanding-disk scan centred on `from`.
    ///
    /// Call [`DiskScan::extend_to`] with a non-decreasing radius
    /// sequence; each call returns exactly the neighbors whose distance
    /// falls inside the newly covered annulus, in `(distance, id)`
    /// order. Across all calls every node is emitted at most once and
    /// every bucket cell is read at most once, so a full widening
    /// search costs O(nodes inside the final disk cover), not
    /// O(rounds × N).
    pub fn disk_scan(&self, from: GeoPoint) -> DiskScan<'_> {
        DiskScan {
            index: self,
            from,
            from_trig: TrigPoint::new(from),
            pending: Vec::new(),
            emitted: Vec::new(),
            seen: FastSet::default(),
            scanned: vec![None; self.precision],
            all_scanned: false,
            prev_radius: -1.0,
        }
    }

    /// A cheap upper estimate of how many indexed nodes lie within
    /// `radius_km` of `from`: the bucket sizes of the few coarse cells
    /// that cover the disk (at most 16; the whole index for a disk too
    /// wide for that), stale entries included. No position is read and
    /// no distance computed — a discovery engine reads it to tell a
    /// dense neighbourhood from a sparse one.
    pub fn count_near(&self, from: GeoPoint, radius_km: f64) -> usize {
        if radius_km >= FULL_SCAN_RADIUS_KM {
            return self.len;
        }
        let Some((precision, rect)) =
            cap_cover(from, radius_km, self.precision, MAX_CELLS_PER_COUNT)
        else {
            return self.len;
        };
        let grid = Grid::at(precision);
        let level = &self.levels[precision - 1];
        let mut count = 0;
        for y in rect.y0..=rect.y1 {
            for k in 0..rect.x_count {
                let key = pack((rect.x0 + k) % grid.lon_cells, y);
                count += level[segment_of(key)].get(&key).map_or(0, Bucket::len);
            }
        }
        count
    }
}

/// Sorts nearest-first with deterministic NodeId tie-breaking.
fn sort_ranked(out: &mut [RankedNeighbor]) {
    out.sort_by(|a, b| {
        a.distance_km
            .partial_cmp(&b.distance_km)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });
}

/// A candidate waiting for the scan radius to reach its distance.
#[derive(Debug, PartialEq)]
struct PendingEntry {
    distance_km: f64,
    id: NodeId,
}

impl Eq for PendingEntry {}

impl Ord for PendingEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance_km
            .total_cmp(&other.distance_km)
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for PendingEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An in-progress expanding bucket-ring search (see
/// [`ProximityIndex::disk_scan`]).
///
/// Internally each widening round computes the spherical-cap bounding
/// box of the query disk, picks the finest bucketing precision whose
/// cell cover of that box stays within a fixed budget, and reads only
/// the cells not already read at that precision (the cover grows
/// monotonically, so the new cells form an expanding ring around the
/// previous cover). Discovered nodes park in an unsorted pending pool
/// until the requested radius actually reaches them; each round's
/// reached batch is then sorted by `(distance, id)`, which makes the
/// emission order deterministic and exactly equal to the full-scan
/// reference. (A batch sort beats a heap here: the common query is
/// satisfied in one round, so almost every queued node is emitted
/// immediately, and one cache-friendly sort is cheaper than per-element
/// sift-up/sift-down.)
#[derive(Debug)]
pub struct DiskScan<'a> {
    index: &'a ProximityIndex,
    from: GeoPoint,
    /// Cached trig form of `from`; candidate distances come from
    /// [`TrigPoint::distance_km`], bit-identical to the full formula.
    from_trig: TrigPoint,
    /// Queued candidates beyond the covered radius, unsorted. Every
    /// node within round `k`'s radius has been queued by round `k` at
    /// the latest (its *current* cell lies inside that round's
    /// conservative cover), and emission is gated purely on distance —
    /// so round `k` emits exactly the nodes in the `(r_{k-1}, r_k]`
    /// annulus and sorting each reached batch preserves the global
    /// emission order. (A stale bucket entry can queue a node a round
    /// *early* — at its current distance, read from the position
    /// shards — which only parks it here longer; never late.)
    pending: Vec<PendingEntry>,
    emitted: Vec<RankedNeighbor>,
    /// Nodes already queued or emitted (cells of different precisions
    /// overlap spatially; ids must not be scanned twice).
    seen: FastSet<NodeId>,
    /// Per-precision rect already read. Rects only grow, and the round
    /// precision only coarsens, so each cell is read at most once.
    scanned: Vec<Option<CellRect>>,
    all_scanned: bool,
    prev_radius: f64,
}

impl DiskScan<'_> {
    /// Grows the covered disk to `radius_km` (which must not decrease
    /// across calls) and returns the newly covered neighbors — exactly
    /// those with `prev_radius < distance ≤ radius_km` — in
    /// `(distance, id)` order. The concatenation of all returned slices
    /// equals `within_km(from, radius_km)`.
    pub fn extend_to(&mut self, radius_km: f64) -> &[RankedNeighbor] {
        debug_assert!(
            radius_km >= self.prev_radius,
            "disk scan radius must not shrink"
        );
        self.prev_radius = radius_km;
        if !self.all_scanned {
            if self.index.len() <= SMALL_INDEX_FULL_SCAN || radius_km >= FULL_SCAN_RADIUS_KM {
                self.scan_everything();
            } else {
                self.scan_cap_cover(radius_km);
            }
        }
        let start = self.emitted.len();
        // Partition the reached entries out of the pending pool, then
        // sort just that batch into emission order.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].distance_km <= radius_km {
                let entry = self.pending.swap_remove(i);
                self.emitted.push(RankedNeighbor {
                    id: entry.id,
                    distance_km: entry.distance_km,
                });
            } else {
                i += 1;
            }
        }
        sort_ranked(&mut self.emitted[start..]);
        &self.emitted[start..]
    }

    /// All neighbors emitted so far, in `(distance, id)` order.
    pub fn emitted(&self) -> &[RankedNeighbor] {
        &self.emitted
    }

    /// `true` once every indexed node has been emitted — widening
    /// further cannot find anything new.
    pub fn exhausted(&self) -> bool {
        self.emitted.len() == self.index.len()
    }

    fn queue(
        seen: &mut FastSet<NodeId>,
        pending: &mut Vec<PendingEntry>,
        from: &TrigPoint,
        id: NodeId,
        point: &TrigPoint,
    ) {
        if seen.insert(id) {
            pending.push(PendingEntry {
                distance_km: from.distance_km(point),
                id,
            });
        }
    }

    fn scan_everything(&mut self) {
        for (id, trig) in self.index.positions_iter() {
            Self::queue(&mut self.seen, &mut self.pending, &self.from_trig, id, trig);
        }
        self.all_scanned = true;
    }

    /// Reads the not-yet-read cells of a conservative cover of the
    /// radius-`radius_km` disk. As the radius grows a level's cover only
    /// grows, so the chosen level only ever coarsens across rounds.
    fn scan_cap_cover(&mut self, radius_km: f64) {
        let (precision, rect) = cap_cover(
            self.from,
            radius_km,
            self.index.precision,
            MAX_CELLS_PER_ROUND,
        )
        .expect("precision 1 always fits the cell budget");
        self.scan_rect(precision, rect);
    }

    fn scan_rect(&mut self, precision: usize, rect: CellRect) {
        let grid = Grid::at(precision);
        let level = precision - 1;
        let prev = self.scanned[level];
        for y in rect.y0..=rect.y1 {
            for k in 0..rect.x_count {
                let x = (rect.x0 + k) % grid.lon_cells;
                if let Some(prev) = prev {
                    if prev.contains(x, y, grid.lon_cells) {
                        continue;
                    }
                }
                let key = pack(x, y);
                if let Some(bucket) = self.index.levels[level][segment_of(key)].get(&key) {
                    for id in bucket.ids() {
                        // Bucket entries may be stale (node left, or
                        // moved cells): the position shards are the
                        // authority. A departed id is skipped; a moved
                        // id is queued at its *current* distance (its
                        // current cell also holds an entry, so it is
                        // never missed — `seen` dedups the pair).
                        let Some(trig) = self.index.shards[shard_of(id)].get(&id) else {
                            continue;
                        };
                        Self::queue(&mut self.seen, &mut self.pending, &self.from_trig, id, trig);
                    }
                }
            }
        }
        self.scanned[level] = Some(rect);
    }
}

/// A conservative cover of the radius-`radius_km` disk around `from`:
/// the finest precision up to `max_precision` whose cells over the
/// disk's bounding box number at most `max_cells`, and those cells;
/// `None` if none fits. Precision 1 has at most 8 × 4 cells, so a
/// budget of 32 always fits.
fn cap_cover(
    from: GeoPoint,
    radius_km: f64,
    max_precision: usize,
    max_cells: u64,
) -> Option<(usize, CellRect)> {
    // Spherical-cap bounding box on the same sphere distance_km
    // measures on, padded so float rounding can only over-cover
    // (over-covering is harmless: membership is decided by the exact
    // haversine distance, never by the cover).
    let r = radius_km * 1.000_001 + 1e-9;
    let dlat_deg = (r / EARTH_RADIUS_KM).to_degrees();
    let lat_lo = from.lat() - dlat_deg;
    let lat_hi = from.lat() + dlat_deg;
    let sin_ratio = (r / EARTH_RADIUS_KM).sin() / from.lat().to_radians().cos().max(1e-12);
    // A cap containing a pole spans every longitude.
    let full_lon = lat_hi >= 90.0 || lat_lo <= -90.0 || sin_ratio >= 1.0;
    let dlon_deg = if full_lon {
        180.0
    } else {
        (sin_ratio.asin().to_degrees() * 1.000_001).min(180.0)
    };
    for precision in (1..=max_precision).rev() {
        let grid = Grid::at(precision);
        let y0 = grid.cell_y(lat_lo.max(-90.0));
        let y1 = grid.cell_y(lat_hi.min(90.0));
        let (x0, x_count) = if dlon_deg >= 180.0 {
            (0, grid.lon_cells)
        } else {
            let x0 = grid.cell_x(wrap_lon(from.lon() - dlon_deg));
            let x1 = grid.cell_x(wrap_lon(from.lon() + dlon_deg));
            (x0, (x1 + grid.lon_cells - x0) % grid.lon_cells + 1)
        };
        let rect = CellRect {
            x0,
            x_count,
            y0,
            y1,
        };
        if rect.area() <= max_cells {
            return Some((precision, rect));
        }
    }
    None
}

/// A lower bound on the cells [`cap_cover`] takes at `precision` for a
/// disk of `radius_km` centred anywhere, growing with the radius (and
/// `u64::MAX` from [`FULL_SCAN_RADIUS_KM`] on, where a scan reads no
/// level). A span of `L` meets at least `⌊L / c⌋ + 1` cells of width
/// `c`; one fewer is counted at each end in case float rounding moves
/// an end across a cell edge. The box is narrowest in longitude on the
/// equator, and a cap around a pole spans every longitude.
fn min_cover_cells(radius_km: f64, precision: usize) -> u64 {
    if radius_km >= FULL_SCAN_RADIUS_KM {
        return u64::MAX;
    }
    let grid = Grid::at(precision);
    let span_deg = 2.0 * (radius_km / EARTH_RADIUS_KM).to_degrees();
    let cells = |cell_deg: f64| {
        ((span_deg / cell_deg).floor() as u64)
            .saturating_sub(1)
            .max(1)
    };
    let rows = cells(180.0 / f64::from(grid.lat_cells));
    let columns = cells(360.0 / f64::from(grid.lon_cells));
    (rows * columns).min(u64::from(grid.lon_cells))
}

/// Wraps a longitude into `[-180, 180)`.
fn wrap_lon(lon: f64) -> f64 {
    let mut l = (lon + 180.0) % 360.0;
    if l < 0.0 {
        l += 360.0;
    }
    l - 180.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn origin() -> GeoPoint {
        GeoPoint::new(44.9778, -93.2650)
    }

    fn build(offsets_km: &[(f64, f64)]) -> ProximityIndex {
        let mut idx = ProximityIndex::new();
        for (i, &(e, n)) in offsets_km.iter().enumerate() {
            idx.insert(NodeId::new(i as u64), origin().offset_km(e, n));
        }
        idx
    }

    #[test]
    fn within_filters_by_radius() {
        let idx = build(&[(1.0, 0.0), (5.0, 5.0), (100.0, 0.0)]);
        let near = idx.within_km(origin(), 20.0);
        assert_eq!(near.len(), 2);
        assert!(near.iter().all(|n| n.distance_km <= 20.0));
    }

    #[test]
    fn remove_then_query_excludes_node() {
        let mut idx = build(&[(1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(idx.len(), 2);
        let pos = idx.remove(NodeId::new(0));
        assert!(pos.is_some());
        assert_eq!(idx.len(), 1);
        assert!(idx.remove(NodeId::new(0)).is_none());
        let near = idx.within_km(origin(), 50.0);
        assert_eq!(near.len(), 1);
        assert_eq!(near[0].id, NodeId::new(1));
    }

    #[test]
    fn reinsert_moves_node() {
        let mut idx = ProximityIndex::new();
        idx.insert(NodeId::new(7), origin());
        let prev = idx.insert(NodeId::new(7), origin().offset_km(100.0, 0.0));
        assert!(prev.is_some());
        assert_eq!(idx.len(), 1);
        assert!(idx.within_km(origin(), 10.0).is_empty());
    }

    #[test]
    fn reinsert_at_same_position_is_a_refresh() {
        let mut idx = ProximityIndex::new();
        idx.insert(NodeId::new(7), origin());
        assert_eq!(idx.insert(NodeId::new(7), origin()), Some(origin()));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.within_km(origin(), 1.0).len(), 1);
    }

    #[test]
    fn empty_index_behaves() {
        let idx = ProximityIndex::new();
        assert!(idx.is_empty());
        assert!(idx.within_km(origin(), 1000.0).is_empty());
        assert_eq!(idx.count_near(origin(), 1000.0), 0);
        let mut scan = idx.disk_scan(origin());
        assert!(scan.extend_to(500.0).is_empty());
        assert!(scan.exhausted());
    }

    /// The manager's 80 km radius reads precision 4 at the finest, and
    /// no disk of a radius or wider, wherever it lies, takes a finer
    /// cover than `for_radius` of that radius keeps.
    #[test]
    fn for_radius_keeps_every_level_a_wider_scan_reads() {
        assert_eq!(ProximityIndex::for_radius(80.0).precision, 4);
        assert_eq!(ProximityIndex::for_radius(0.1).precision, DEFAULT_PRECISION);
        assert_eq!(ProximityIndex::for_radius(FULL_SCAN_RADIUS_KM).precision, 1);
        let mut radius = 0.5;
        while radius < FULL_SCAN_RADIUS_KM {
            let kept = ProximityIndex::for_radius(radius).precision;
            for lat in [0.0, 0.004, -0.3, 44.98, -71.5] {
                for step in 0..400 {
                    let from = GeoPoint::new(lat, -180.0 + step as f64 * 0.9013);
                    let (read, _) =
                        cap_cover(from, radius, DEFAULT_PRECISION, MAX_CELLS_PER_ROUND).unwrap();
                    assert!(read <= kept, "{radius} km at {from:?}: {read} > {kept}");
                }
            }
            radius *= 1.17;
        }
    }

    #[test]
    fn disk_scan_matches_within_km_round_by_round() {
        // Cross the SMALL_INDEX_FULL_SCAN threshold so the cap-cover
        // path is actually exercised.
        let mut idx = ProximityIndex::new();
        let mut expected_ids: Vec<NodeId> = Vec::new();
        for i in 0..200u64 {
            let east = (i as f64 * 37.0) % 2000.0 - 1000.0;
            let north = (i as f64 * 53.0) % 1400.0 - 700.0;
            idx.insert(NodeId::new(i), origin().offset_km(east, north));
            expected_ids.push(NodeId::new(i));
        }
        let mut scan = idx.disk_scan(origin());
        let mut radius = 5.0;
        let mut cumulative: Vec<RankedNeighbor> = Vec::new();
        while radius < GLOBE_COVER_RADIUS_KM * 2.0 {
            cumulative.extend_from_slice(scan.extend_to(radius));
            let reference = idx.within_km(origin(), radius);
            assert_eq!(cumulative, reference, "divergence at radius {radius}");
            if scan.exhausted() {
                break;
            }
            radius *= 2.0;
        }
        assert!(scan.exhausted());
        assert_eq!(scan.emitted().len(), idx.len());
    }

    /// The tentpole contract: mutating the index while a clone
    /// (snapshot) is outstanding must copy only the shards/segments the
    /// mutation touches, never the whole structure.
    #[test]
    fn mutation_under_snapshot_copies_only_touched_shards() {
        let mut idx = ProximityIndex::new();
        for i in 0..2_000u64 {
            idx.insert(
                NodeId::new(i),
                origin().offset_km((i % 97) as f64, (i / 97) as f64),
            );
        }
        let snap = idx.clone();
        idx.insert(NodeId::new(50_000), origin().offset_km(3.0, 3.0));
        let shared_shards = idx
            .shards
            .iter()
            .zip(&snap.shards)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert_eq!(shared_shards, POS_SHARDS - 1, "one position shard copied");
        for (level, segments) in idx.levels.iter().enumerate() {
            let shared = segments
                .iter()
                .zip(&snap.levels[level])
                .filter(|(a, b)| Arc::ptr_eq(a, b))
                .count();
            assert_eq!(shared, LEVEL_SEGMENTS - 1, "one segment copied per level");
        }
        // A remove touches only its position shard: every bucket
        // segment stays shared with the pre-remove state.
        let snap2 = idx.clone();
        idx.remove(NodeId::new(3));
        for (level, segments) in idx.levels.iter().enumerate() {
            for (seg, map) in segments.iter().enumerate() {
                assert!(
                    Arc::ptr_eq(map, &snap2.levels[level][seg]),
                    "remove must not rewrite buckets eagerly"
                );
            }
        }
        // And the snapshots still answer exactly (stale entries are
        // invisible to queries).
        assert_eq!(
            idx.within_km(origin(), 40.0).len(),
            snap2.within_km(origin(), 40.0).len() - 1
        );
    }

    /// Sustained churn must not let stale bucket entries accumulate
    /// unboundedly: the amortised sweep keeps the debt proportional to
    /// the live population.
    #[test]
    fn stale_sweep_bounds_bucket_debt_under_churn() {
        let mut idx = ProximityIndex::new();
        for i in 0..300u64 {
            idx.insert(
                NodeId::new(i),
                origin().offset_km((i % 17) as f64, (i / 17) as f64),
            );
        }
        for i in 10..300u64 {
            idx.remove(NodeId::new(i));
        }
        // Churn: move the survivors back and forth across cells.
        let churn = |idx: &mut ProximityIndex, rounds: u64| {
            for round in 0..rounds {
                for i in 0..10u64 {
                    let e = if round % 2 == 0 { 250.0 } else { -250.0 };
                    idx.insert(NodeId::new(i), origin().offset_km(e + i as f64, 0.0));
                }
            }
        };
        churn(&mut idx, 200);
        assert_eq!(idx.len(), 10);
        // The sweep lags the mutation stream by at most one full
        // rotation over all (level, segment) slots; each of those
        // mutations adds at most `precision` debt.
        let rotation = idx.precision * LEVEL_SEGMENTS / SWEEP_SEGMENTS_PER_STEP;
        let bound = 64 + idx.len * idx.precision / 2 + rotation * idx.precision;
        assert!(
            idx.stale <= bound,
            "stale debt {} exceeded bound {}",
            idx.stale,
            bound
        );
        // Boundedness, not just a snapshot: twice the churn must not
        // move the debt past the same bound.
        let after_first = idx.stale;
        churn(&mut idx, 200);
        assert!(
            idx.stale <= bound,
            "stale debt grew from {} to {} past bound {}",
            after_first,
            idx.stale,
            bound
        );
        let total_entries: usize = idx
            .levels
            .iter()
            .flatten()
            .flat_map(|seg| seg.values())
            .map(Bucket::len)
            .sum();
        assert!(
            total_entries <= idx.len * idx.precision + idx.stale + 64,
            "bucket entries {} not bounded by live {} + stale {}",
            total_entries,
            idx.len * idx.precision,
            idx.stale
        );
        // Queries stay exact through all of it.
        let got = idx.within_km(origin(), GLOBE_COVER_RADIUS_KM);
        assert_eq!(got.len(), 10);
        let mut scan = idx.disk_scan(origin());
        let mut cumulative: Vec<RankedNeighbor> = Vec::new();
        for radius in [10.0, 100.0, 1_000.0, GLOBE_COVER_RADIUS_KM] {
            cumulative.extend_from_slice(scan.extend_to(radius));
            assert_eq!(cumulative, idx.within_km(origin(), radius));
        }
    }

    /// Stale entries must be tolerated mid-scan: nodes that moved or
    /// left after heavy churn (no sweep in between) are skipped or
    /// re-located via the position shards, keeping the disk scan equal
    /// to the full scan.
    #[test]
    fn disk_scan_is_exact_over_unswept_churn() {
        let mut idx = ProximityIndex::new();
        for i in 0..150u64 {
            idx.insert(
                NodeId::new(i),
                origin().offset_km((i % 13) as f64 * 3.0, (i / 13) as f64 * 3.0),
            );
        }
        // Move some far away, delete others — few enough mutations
        // that the sweep threshold is not crossed, so the old bucket
        // entries are still present and must be handled by the scan.
        for i in 0..20u64 {
            idx.insert(NodeId::new(i), origin().offset_km(900.0 + i as f64, 0.0));
        }
        for i in 50..70u64 {
            idx.remove(NodeId::new(i));
        }
        assert!(idx.stale > 0, "churn must leave stale entries behind");
        for from in [origin(), origin().offset_km(900.0, 0.0)] {
            let mut scan = idx.disk_scan(from);
            let mut cumulative: Vec<RankedNeighbor> = Vec::new();
            for radius in [20.0, 80.0, 320.0, 1_280.0, GLOBE_COVER_RADIUS_KM] {
                cumulative.extend_from_slice(scan.extend_to(radius));
                assert_eq!(cumulative, idx.within_km(from, radius));
            }
            assert!(scan.exhausted());
        }
    }

    #[test]
    fn disk_scan_handles_date_line_and_poles() {
        let mut idx = ProximityIndex::new();
        // A cluster straddling the antimeridian and one near each pole.
        for (i, (lat, lon)) in [
            (10.0, 179.9),
            (10.0, -179.9),
            (10.2, 179.5),
            (89.5, 10.0),
            (-89.5, -120.0),
        ]
        .iter()
        .enumerate()
        {
            idx.insert(NodeId::new(i as u64), GeoPoint::new(*lat, *lon));
        }
        // Pad the index over the full-scan threshold with far nodes.
        for i in 100..180u64 {
            idx.insert(
                NodeId::new(i),
                GeoPoint::new(-40.0 + (i as f64 % 10.0), -60.0 + (i as f64 / 10.0)),
            );
        }
        for from in [
            GeoPoint::new(10.0, 179.99),
            GeoPoint::new(89.9, -170.0),
            GeoPoint::new(-89.9, 5.0),
        ] {
            let mut scan = idx.disk_scan(from);
            let mut cumulative: Vec<RankedNeighbor> = Vec::new();
            for radius in [50.0, 100.0, 400.0, 3_000.0, 12_000.0, GLOBE_COVER_RADIUS_KM] {
                cumulative.extend_from_slice(scan.extend_to(radius));
                assert_eq!(cumulative, idx.within_km(from, radius));
            }
            assert!(scan.exhausted());
        }
    }

    proptest! {
        /// The cached-trig distance must be *bit*-identical to
        /// `GeoPoint::distance_km`: these values flow into emitted
        /// neighbors and candidate scores that differential tests
        /// compare with `==` against the full-scan reference.
        #[test]
        fn trig_distance_is_bit_identical_to_geopoint_distance(
            lat1 in -90.0f64..90.0, lon1 in -180.0f64..180.0,
            lat2 in -90.0f64..90.0, lon2 in -180.0f64..180.0,
        ) {
            let a = GeoPoint::new(lat1, lon1);
            let b = GeoPoint::new(lat2, lon2);
            let cached = TrigPoint::new(a).distance_km(&TrigPoint::new(b));
            prop_assert_eq!(cached.to_bits(), a.distance_km(b).to_bits());
        }

        #[test]
        fn no_wider_scan_reads_a_level_for_radius_drops(
            lat in -89.9f64..89.9, lon in -180.0f64..180.0,
            min_radius in 0.1f64..3_000.0, widen in 1.0f64..4.0,
        ) {
            let kept = ProximityIndex::for_radius(min_radius).precision;
            let radius = min_radius * widen;
            let from = GeoPoint::new(lat, lon);
            let (read, _) = cap_cover(from, radius, DEFAULT_PRECISION, MAX_CELLS_PER_ROUND).unwrap();
            prop_assert!(read <= kept || radius >= FULL_SCAN_RADIUS_KM);
        }

        #[test]
        fn within_results_respect_radius_and_order(
            seeds in proptest::collection::vec((-200.0f64..200.0, -200.0f64..200.0), 0..30),
            radius in 1.0f64..300.0,
        ) {
            let idx = build(&seeds);
            let found = idx.within_km(origin(), radius);
            for pair in found.windows(2) {
                prop_assert!(pair[0].distance_km <= pair[1].distance_km);
            }
            for n in &found {
                prop_assert!(n.distance_km <= radius);
            }
        }

        #[test]
        fn disk_scan_equals_full_scan_at_any_scale(
            seeds in proptest::collection::vec((-88.0f64..88.0, -179.0f64..179.0), 0..120),
            qlat in -80.0f64..80.0,
            qlon in -179.0f64..179.0,
            start_radius in 1.0f64..200.0,
        ) {
            let mut idx = ProximityIndex::new();
            for (i, &(lat, lon)) in seeds.iter().enumerate() {
                idx.insert(NodeId::new(i as u64), GeoPoint::new(lat, lon));
            }
            let from = GeoPoint::new(qlat, qlon);
            let mut scan = idx.disk_scan(from);
            let mut cumulative: Vec<RankedNeighbor> = Vec::new();
            let mut radius = start_radius;
            loop {
                cumulative.extend_from_slice(scan.extend_to(radius));
                prop_assert_eq!(&cumulative, &idx.within_km(from, radius));
                // The coarse estimate never undercounts the disk.
                prop_assert!(idx.count_near(from, radius) >= cumulative.len());
                if scan.exhausted() || radius >= GLOBE_COVER_RADIUS_KM {
                    break;
                }
                radius *= 2.0;
            }
        }
    }
}
