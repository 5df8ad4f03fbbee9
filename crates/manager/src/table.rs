//! A sharded copy-on-write record table.
//!
//! [`CowTable`] is the manager-side answer to the COW write-stall
//! cliff: the old design kept the whole record table behind a single
//! `Arc<HashMap>`, so the first mutation after a snapshot deep-cloned
//! every record. Here the table is split into many small shards, each
//! behind its own `Arc`; taking a view ([`CowTable::view`]) is
//! O(shards) reference bumps, and a mutation while a view is
//! outstanding copies only the one shard it touches —
//! O(records / shards), independent of epoch count.

use std::collections::HashMap;
use std::sync::Arc;

use armada_types::{mix64, NodeId, U64BuildHasher};

type Shard<V> = HashMap<NodeId, V, U64BuildHasher>;

/// Default shard count; a mutation under an outstanding view copies
/// ~`len / 256` records instead of `len`.
const DEFAULT_SHARDS: usize = 256;

/// A mutable, sharded copy-on-write map from [`NodeId`] to `V`.
///
/// See the [module docs](self) for the sharing contract. `Clone` (and
/// [`CowTable::view`]) cost O(shards); mutations cost O(len/shards)
/// worst case — only when the touched shard is still shared.
#[derive(Debug, Clone)]
pub struct CowTable<V> {
    shards: Vec<Arc<Shard<V>>>,
    len: usize,
    mask: usize,
}

impl<V: Clone> CowTable<V> {
    /// Creates an empty table with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty table with at least `shards` shards (rounded up
    /// to a power of two so routing is a mask).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        // Every slot shares one empty shard on purpose: the first insert
        // into a shard COWs it, so an empty table costs one allocation.
        let empty: Arc<Shard<V>> = Arc::new(Shard::default());
        CowTable {
            shards: vec![empty; n],
            len: 0,
            mask: n - 1,
        }
    }

    fn shard_of(&self, id: NodeId) -> usize {
        mix64(id.as_u64()) as usize & self.mask
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a reference to the value for `id`, if present.
    pub fn get(&self, id: NodeId) -> Option<&V> {
        self.shards[self.shard_of(id)].get(&id)
    }

    /// `true` if `id` is present.
    pub fn contains_key(&self, id: NodeId) -> bool {
        self.shards[self.shard_of(id)].contains_key(&id)
    }

    /// Inserts or replaces the value for `id`, returning the previous
    /// value if any. Copies at most one shard (only if it is shared
    /// with an outstanding view).
    pub fn insert(&mut self, id: NodeId, value: V) -> Option<V> {
        let shard = self.shard_of(id);
        let prev = Arc::make_mut(&mut self.shards[shard]).insert(id, value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes the value for `id`, returning it if it was present.
    /// Leaves the shard untouched (and shared) when `id` is absent.
    pub fn remove(&mut self, id: NodeId) -> Option<V> {
        let shard = self.shard_of(id);
        if !self.shards[shard].contains_key(&id) {
            return None;
        }
        let prev = Arc::make_mut(&mut self.shards[shard]).remove(&id);
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// Iterates every `(id, value)` pair in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> {
        self.shards
            .iter()
            .flat_map(|s| s.iter().map(|(&id, v)| (id, v)))
    }

    /// Iterates every value in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.shards.iter().flat_map(|s| s.values())
    }

    /// Number of shards still shared with `other` (a clone or an
    /// earlier state of this table).
    #[cfg(test)]
    pub(crate) fn shards_shared_with(&self, other: &CowTable<V>) -> usize {
        let shared = |(a, b): &(&Arc<Shard<V>>, &Arc<Shard<V>>)| Arc::ptr_eq(a, b);
        self.shards.iter().zip(&other.shards).filter(shared).count()
    }

    /// Freezes the current contents into an immutable [`CowView`]:
    /// O(shards) reference bumps, no record is copied. Later mutations
    /// of the table never show through the view.
    pub fn view(&self) -> CowView<V> {
        CowView {
            shards: self.shards.clone(),
            len: self.len,
            mask: self.mask,
        }
    }
}

impl<V: Clone> Default for CowTable<V> {
    fn default() -> Self {
        CowTable::new()
    }
}

/// An immutable point-in-time view of a [`CowTable`], sharing the
/// table's shards until the table next writes to them.
#[derive(Debug, Clone)]
pub struct CowView<V> {
    shards: Vec<Arc<Shard<V>>>,
    len: usize,
    mask: usize,
}

impl<V> CowView<V> {
    /// Number of entries in the frozen view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the frozen view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a reference to the frozen value for `id`, if present.
    pub fn get(&self, id: NodeId) -> Option<&V> {
        self.shards[mix64(id.as_u64()) as usize & self.mask].get(&id)
    }

    /// `true` if `id` is present in the frozen view.
    pub fn contains_key(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Iterates every frozen `(id, value)` pair in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> {
        self.shards
            .iter()
            .flat_map(|s| s.iter().map(|(&id, v)| (id, v)))
    }

    /// Iterates every frozen value in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.shards.iter().flat_map(|s| s.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_map_semantics() {
        let mut t: CowTable<u32> = CowTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(NodeId::new(1), 10), None);
        assert_eq!(t.insert(NodeId::new(1), 11), Some(10));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(NodeId::new(1)), Some(&11));
        assert!(t.contains_key(NodeId::new(1)));
        assert_eq!(t.remove(NodeId::new(1)), Some(11));
        assert_eq!(t.remove(NodeId::new(1)), None);
        assert!(t.is_empty());
    }

    #[test]
    fn views_are_isolated_from_later_writes() {
        let mut t: CowTable<u32> = CowTable::new();
        for i in 0..100u64 {
            t.insert(NodeId::new(i), i as u32);
        }
        let view = t.view();
        t.insert(NodeId::new(200), 200);
        t.remove(NodeId::new(3));
        assert_eq!(view.len(), 100);
        assert_eq!(view.get(NodeId::new(3)), Some(&3));
        assert!(!view.contains_key(NodeId::new(200)));
        assert_eq!(t.len(), 100);
        assert_eq!(view.values().count(), 100);
        assert_eq!(view.iter().count(), 100);
    }

    /// The tentpole contract: a mutation while a view is outstanding
    /// copies exactly the one shard it touches.
    #[test]
    fn mutation_under_view_copies_one_shard() {
        let mut t: CowTable<u64> = CowTable::with_shards(64);
        for i in 0..10_000u64 {
            t.insert(NodeId::new(i), i);
        }
        let view = t.view();
        t.insert(NodeId::new(123), 999);
        let shared = t
            .shards
            .iter()
            .zip(&view.shards)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert_eq!(shared, 63, "exactly one shard may be copied");
        // Removing an absent id must not copy anything.
        let view2 = t.view();
        t.remove(NodeId::new(1_000_000));
        assert!(t
            .shards
            .iter()
            .zip(&view2.shards)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        let t: CowTable<u8> = CowTable::with_shards(100);
        assert_eq!(t.shards.len(), 128);
        let t: CowTable<u8> = CowTable::with_shards(0);
        assert_eq!(t.shards.len(), 1);
    }
}
