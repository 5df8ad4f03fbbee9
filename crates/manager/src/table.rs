//! A sharded copy-on-write record table.
//!
//! [`CowTable`] is the manager-side answer to the COW write-stall
//! cliff: the old design kept the whole record table behind a single
//! `Arc<HashMap>`, so the first mutation after a snapshot deep-cloned
//! every record. Here the table is split into many small shards, each
//! behind its own `Arc`, and the shard list sits behind one more:
//! taking a view ([`CowTable::view`]) is one reference bump. The first
//! write under an outstanding view clones the shard list once
//! (O(shards) reference bumps), and every write under it copies only
//! the one shard it touches — O(records / shards), independent of
//! epoch count. A write with no view outstanding copies nothing.
//!
//! # Shard layout
//!
//! A shard keeps its entries packed: a `Vec<(NodeId, V)>` holds them
//! contiguously, and an index of 32-bit words says where each one
//! sits. The index is open-addressed and linear-probed, at most 7/8
//! full; a word is `0` for an empty bucket, else an 8-bit tag of the
//! key's [`mix64`] above the entry's slot plus one. The tag screens
//! the probes, so a lookup or a write reads one entry, the one it is
//! after, and the index (4 bytes a bucket, no control bytes) stays
//! small enough to sit in cache. A removal is a `swap_remove` that
//! re-points the moved entry's word, and the removed word's bucket is
//! refilled by backward shift, so no tombstone is left.
//!
//! What the layout buys is the walk: [`CowTable::iter`],
//! [`CowTable::values`] and the registry's liveness pass read each
//! shard as one slice instead of stepping through a hash table's
//! buckets, which at 20 000 records takes well under half the time.
//! A copy-on-write copy of a shard clones its `Vec` and its index.
//!
//! Why not a `HashMap<NodeId, slot>` beside the `Vec`: its 16-byte
//! buckets do not stay in cache at 200 000 records, so each lookup
//! paid one more miss than the hash table of records it replaced, and
//! the ring scan, one lookup per node it reaches, slowed by about a
//! tenth. The hash bits split three ways: the low ones route a key to
//! its shard, bits 32 and up pick its home bucket, the top 8 are its
//! tag.
//!
//! A shard's `Vec` grows by a quarter of its length, not by doubling:
//! at 20 000 records a shard holds about 80, and doubling 256 such
//! vectors costs more memory than the hash tables they replaced.

use std::sync::Arc;

use armada_types::{mix64, NodeId};

/// One shard: its entries, packed, and the index that finds them
/// (module docs).
#[derive(Debug, Clone)]
struct Shard<V> {
    entries: Vec<(NodeId, V)>,
    index: Vec<u32>,
}

/// The low bits of an index word: the entry's slot plus one, so a
/// shard holds fewer than 2^24 entries (2^32 in a default table).
const SLOT_BITS: u32 = 24;

/// The 8-bit tag of a key's hash, kept above the slot in its word.
fn tag_of(hash: u64) -> u32 {
    (hash >> 56) as u32
}

/// The index word for the entry at `slot` whose key hashes to `hash`.
fn word_of(hash: u64, slot: usize) -> u32 {
    tag_of(hash) << SLOT_BITS | (slot as u32 + 1)
}

fn slot_of(word: u32) -> usize {
    (word & ((1 << SLOT_BITS) - 1)) as usize - 1
}

fn home_of(hash: u64, mask: usize) -> usize {
    (hash >> 32) as usize & mask
}

impl<V> Shard<V> {
    fn empty() -> Self {
        Shard {
            entries: Vec::new(),
            index: Vec::new(),
        }
    }

    /// The bucket holding `id` (whose [`mix64`] is `hash`) and the slot
    /// of its entry, if present: the slot is read off the word the
    /// probe matched, not looked up again.
    fn find(&self, id: NodeId, hash: u64) -> Option<(usize, usize)> {
        let mask = self.index.len().checked_sub(1)?;
        let tag = tag_of(hash);
        let mut bucket = home_of(hash, mask);
        loop {
            let word = self.index[bucket];
            if word == 0 {
                return None;
            }
            if word >> SLOT_BITS == tag {
                let slot = slot_of(word);
                if self.entries[slot].0 == id {
                    return Some((bucket, slot));
                }
            }
            bucket = (bucket + 1) & mask;
        }
    }

    /// The slot of `id`'s entry, if present.
    fn slot(&self, id: NodeId, hash: u64) -> Option<usize> {
        self.find(id, hash).map(|(_, slot)| slot)
    }

    fn get(&self, id: NodeId, hash: u64) -> Option<&V> {
        Some(&self.entries[self.slot(id, hash)?].1)
    }

    /// The home bucket of the entry `word` points at.
    fn home_of_word(&self, word: u32, mask: usize) -> usize {
        home_of(mix64(self.entries[slot_of(word)].0.as_u64()), mask)
    }

    /// Writes `word` into the first empty bucket from `home`.
    fn place(index: &mut [u32], home: usize, word: u32) {
        let mask = index.len() - 1;
        let mut bucket = home;
        while index[bucket] != 0 {
            bucket = (bucket + 1) & mask;
        }
        index[bucket] = word;
    }

    fn insert(&mut self, id: NodeId, hash: u64, value: V) -> Option<V> {
        if let Some(slot) = self.slot(id, hash) {
            return Some(std::mem::replace(&mut self.entries[slot].1, value));
        }
        let len = self.entries.len();
        assert!(len + 1 < 1 << SLOT_BITS, "a shard holds under 2^24 entries");
        if (len + 1) * 8 > self.index.len() * 7 {
            let mut index = vec![0; (self.index.len() * 2).max(8)];
            let mask = index.len() - 1;
            for &word in self.index.iter().filter(|&&w| w != 0) {
                Self::place(&mut index, self.home_of_word(word, mask), word);
            }
            self.index = index;
        }
        if len == self.entries.capacity() {
            self.entries.reserve_exact((len / 4).max(4));
        }
        let home = home_of(hash, self.index.len() - 1);
        Self::place(&mut self.index, home, word_of(hash, len));
        self.entries.push((id, value));
        None
    }

    /// Removes the entry at `slot`, whose word sits in `bucket` (a
    /// [`Shard::find`] on this shard or on the one it was copied from:
    /// a copy keeps every bucket).
    fn remove_at(&mut self, bucket: usize, slot: usize) -> V {
        self.erase(bucket);
        let (_, value) = self.entries.swap_remove(slot);
        // The last entry moved into `slot`: re-point its word.
        if let Some(&(moved, _)) = self.entries.get(slot) {
            let hash = mix64(moved.as_u64());
            let (from, mask) = (word_of(hash, self.entries.len()), self.index.len() - 1);
            let mut bucket = home_of(hash, mask);
            while self.index[bucket] != from {
                bucket = (bucket + 1) & mask;
            }
            self.index[bucket] = word_of(hash, slot);
        }
        value
    }

    /// Empties `hole` by backward shift: each later word of the probe
    /// run whose home does not lie after the hole moves into it, so
    /// every probe still ends at an empty bucket.
    fn erase(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut bucket = (hole + 1) & mask;
        loop {
            let word = self.index[bucket];
            if word == 0 {
                break;
            }
            let home = self.home_of_word(word, mask);
            if bucket.wrapping_sub(home) & mask >= bucket.wrapping_sub(hole) & mask {
                self.index[hole] = word;
                hole = bucket;
            }
            bucket = (bucket + 1) & mask;
        }
        self.index[hole] = 0;
    }
}

/// Default shard count; a mutation under an outstanding view copies
/// ~`len / 256` records instead of `len`.
const DEFAULT_SHARDS: usize = 256;

/// A mutable, sharded copy-on-write map from [`NodeId`] to `V`.
///
/// See the [module docs](self) for the sharing contract and the shard
/// layout. `Clone` (and [`CowTable::view`]) cost one reference bump;
/// the first write under a clone or a view clones the shard list
/// (O(shards) reference bumps), and a write costs O(len/shards) worst
/// case — only when the touched shard is still shared, and then it
/// clones that shard's packed `Vec` and index. Lookups read one entry;
/// [`CowTable::iter`] and [`CowTable::values`] walk the packed shards
/// in order.
#[derive(Debug, Clone)]
pub struct CowTable<V> {
    shards: Arc<Vec<Arc<Shard<V>>>>,
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
        let empty: Arc<Shard<V>> = Arc::new(Shard::empty());
        CowTable {
            shards: Arc::new(vec![empty; n]),
            len: 0,
            mask: n - 1,
        }
    }

    /// `id`'s shard and its [`mix64`], which the shard's index reads
    /// too.
    fn shard_of(&self, id: NodeId) -> (usize, u64) {
        let hash = mix64(id.as_u64());
        (hash as usize & self.mask, hash)
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
        let (shard, hash) = self.shard_of(id);
        self.shards[shard].get(id, hash)
    }

    /// `true` if `id` is present.
    pub fn contains_key(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Inserts or replaces the value for `id`, returning the previous
    /// value if any. Copies at most one shard (only if it is shared
    /// with an outstanding view), and the shard list if a view shares
    /// it.
    pub fn insert(&mut self, id: NodeId, value: V) -> Option<V> {
        let (shard, hash) = self.shard_of(id);
        let prev = self.shard_mut(shard).insert(id, hash, value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// The shard at `shard`, writable: the shard list is cloned first
    /// if a view or a clone still shares it, and the shard itself if
    /// anything still shares that.
    fn shard_mut(&mut self, shard: usize) -> &mut Shard<V> {
        Arc::make_mut(&mut Arc::make_mut(&mut self.shards)[shard])
    }

    /// Mutable access to the value for `id`, if present: one lookup,
    /// and a copy of the shard only if `id` is in it and it is shared
    /// with an outstanding view (a copy keeps every slot).
    pub(crate) fn get_mut(&mut self, id: NodeId) -> Option<&mut V> {
        let (shard, hash) = self.shard_of(id);
        let slot = self.shards[shard].slot(id, hash)?;
        Some(&mut self.shard_mut(shard).entries[slot].1)
    }

    /// Removes the value for `id`, returning it if it was present: one
    /// probe, and nothing copied (or unshared) when `id` is absent.
    pub fn remove(&mut self, id: NodeId) -> Option<V> {
        let (shard, hash) = self.shard_of(id);
        let (bucket, slot) = self.shards[shard].find(id, hash)?;
        self.len -= 1;
        Some(self.shard_mut(shard).remove_at(bucket, slot))
    }

    /// Iterates every `(id, value)` pair in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> {
        self.slices().flatten().map(|(id, v)| (*id, v))
    }

    /// Iterates every value in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slices().flatten().map(|(_, v)| v)
    }

    /// Each shard's packed entries, one slice per shard.
    pub(crate) fn slices(&self) -> impl Iterator<Item = &[(NodeId, V)]> {
        self.shards.iter().map(|s| s.entries.as_slice())
    }

    /// Number of shards still shared with `other` (a clone or an
    /// earlier state of this table).
    #[cfg(test)]
    pub(crate) fn shards_shared_with(&self, other: &CowTable<V>) -> usize {
        let shared = |(a, b): &(&Arc<Shard<V>>, &Arc<Shard<V>>)| Arc::ptr_eq(a, b);
        self.shards
            .iter()
            .zip(other.shards.iter())
            .filter(shared)
            .count()
    }

    /// Where the shard list and each shard live: a write that copied
    /// either moves its address.
    #[cfg(test)]
    pub(crate) fn addresses(&self) -> Vec<usize> {
        let shards = self.shards.iter().map(|s| Arc::as_ptr(s) as usize);
        std::iter::once(Arc::as_ptr(&self.shards) as usize)
            .chain(shards)
            .collect()
    }

    /// Freezes the current contents into an immutable [`CowView`]: one
    /// reference bump, no record is copied. Later mutations of the
    /// table never show through the view.
    pub fn view(&self) -> CowView<V> {
        CowView {
            shards: Arc::clone(&self.shards),
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
    shards: Arc<Vec<Arc<Shard<V>>>>,
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
        let hash = mix64(id.as_u64());
        self.shards[hash as usize & self.mask].get(id, hash)
    }

    /// `true` if `id` is present in the frozen view.
    pub fn contains_key(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Iterates every frozen `(id, value)` pair in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> {
        let entries = self.shards.iter().flat_map(|s| &s.entries);
        entries.map(|(id, v)| (*id, v))
    }

    /// Iterates every frozen value in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use proptest::prelude::*;

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
            .zip(view.shards.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert_eq!(shared, 63, "exactly one shard may be copied");
        // Removing an absent id must not copy anything.
        let view2 = t.view();
        t.remove(NodeId::new(1_000_000));
        assert!(Arc::ptr_eq(&t.shards, &view2.shards));
    }

    /// A view is the table's own shard list, one reference bump, and so
    /// is a clone; the first write under either clones the list once.
    #[test]
    fn a_view_shares_the_shard_list() {
        let mut t: CowTable<u64> = CowTable::with_shards(16);
        for i in 0..100u64 {
            t.insert(NodeId::new(i), i);
        }
        let view = t.view();
        assert!(Arc::ptr_eq(&t.shards, &view.shards));
        assert!(Arc::ptr_eq(&t.shards, &t.clone().shards));
        t.insert(NodeId::new(7), 70);
        assert!(!Arc::ptr_eq(&t.shards, &view.shards));
        let list = Arc::as_ptr(&t.shards);
        t.insert(NodeId::new(8), 80);
        t.remove(NodeId::new(9));
        assert_eq!(Arc::as_ptr(&t.shards), list, "the list is cloned once");
        assert_eq!((view.get(NodeId::new(7)), view.len()), (Some(&7), 100));
    }

    /// With no view outstanding a write copies nothing: neither the
    /// list nor the shard it touches.
    #[test]
    fn a_write_with_no_view_held_copies_nothing() {
        let mut t: CowTable<u64> = CowTable::with_shards(16);
        for i in 0..100u64 {
            t.insert(NodeId::new(i), i);
        }
        drop(t.view());
        let before = t.addresses();
        *t.get_mut(NodeId::new(3)).unwrap() = 30;
        t.insert(NodeId::new(4), 40);
        t.remove(NodeId::new(5));
        assert_eq!(t.addresses(), before);
    }

    /// Ids the property test draws from: few enough that removals hit
    /// mid-shard slots and probe runs collide, enough to grow a shard's
    /// `Vec` and index several times.
    const ID_SPACE: u64 = 48;

    proptest! {
        /// The packed layout against a plain `HashMap`: random inserts,
        /// replacements and removals over a small id space (so removals
        /// hit mid-shard slots and re-point the moved entry), with views
        /// taken along the way. After every step the table equals the
        /// model, and every earlier view still equals the model as it
        /// was when that view was taken.
        #[test]
        fn packed_shards_match_a_hash_map_model(
            shards in 1usize..=8,
            ops in collection::vec((0u8..3, 0u64..ID_SPACE, 0u32..1_000, 0u8..5), 1..200),
        ) {
            let mut table: CowTable<u32> = CowTable::with_shards(shards);
            let mut model: HashMap<NodeId, u32> = HashMap::new();
            let mut views: Vec<(CowView<u32>, HashMap<NodeId, u32>)> = Vec::new();
            for (op, id, value, take_view) in ops {
                let id = NodeId::new(id);
                if op == 0 {
                    prop_assert_eq!(table.remove(id), model.remove(&id));
                } else {
                    prop_assert_eq!(table.insert(id, value), model.insert(id, value));
                }
                if take_view == 0 {
                    views.push((table.view(), model.clone()));
                }
                prop_assert_eq!(table.len(), model.len());
                for probe in 0..ID_SPACE {
                    let probe = NodeId::new(probe);
                    prop_assert_eq!(table.get(probe), model.get(&probe));
                    prop_assert_eq!(table.contains_key(probe), model.contains_key(&probe));
                }
                let walked: HashMap<NodeId, u32> = table.iter().map(|(id, &v)| (id, v)).collect();
                prop_assert_eq!(walked.len(), table.len(), "the walk yields each entry once");
                prop_assert_eq!(&walked, &model);
                for (view, then) in &views {
                    prop_assert_eq!(view.len(), then.len());
                    let frozen: HashMap<NodeId, u32> =
                        view.iter().map(|(id, &v)| (id, v)).collect();
                    prop_assert_eq!(&frozen, then);
                    for probe in 0..ID_SPACE {
                        let probe = NodeId::new(probe);
                        prop_assert_eq!(view.get(probe), then.get(&probe));
                    }
                }
            }
        }
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        let t: CowTable<u8> = CowTable::with_shards(100);
        assert_eq!(t.shards.len(), 128);
        let t: CowTable<u8> = CowTable::with_shards(0);
        assert_eq!(t.shards.len(), 1);
    }
}
