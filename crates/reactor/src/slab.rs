//! A generational slab: the reactor's connection registry.
//!
//! Connections are addressed by a [`Key`] carrying both a slot index
//! and a generation counter. Removing an entry bumps the slot's
//! generation, so a key held by offloaded work (a blocking-pool job
//! finishing after the connection died, a late timer, a command queued
//! from another thread) can never alias whatever reuses the slot — the
//! stale key simply stops resolving.

/// A stable handle to one slab entry.
///
/// `index` addresses the slot; `generation` must match the slot's
/// current generation for the key to resolve. Both fit in 31 bits so a
/// key packs into the low 62 bits of a poller token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    index: u32,
    generation: u32,
}

impl Key {
    /// Packs the key into the low 62 bits of a `u64` (for poller
    /// tokens). Inverse of [`Key::from_bits`].
    #[must_use]
    pub fn to_bits(self) -> u64 {
        (u64::from(self.generation) << 31) | u64::from(self.index)
    }

    /// Unpacks a key packed by [`Key::to_bits`].
    #[must_use]
    pub fn from_bits(bits: u64) -> Key {
        Key {
            index: (bits & 0x7FFF_FFFF) as u32,
            generation: ((bits >> 31) & 0x7FFF_FFFF) as u32,
        }
    }
}

struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A vec-backed arena with O(1) insert/remove and generational keys.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Slab<T> {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, reusing the lowest freed slot if any.
    pub fn insert(&mut self, value: T) -> Key {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.value = Some(value);
            return Key {
                index,
                generation: slot.generation,
            };
        }
        let index = u32::try_from(self.slots.len()).expect("slab capacity exceeded");
        assert!(index < (1 << 31), "slab capacity exceeded");
        self.slots.push(Slot {
            generation: 0,
            value: Some(value),
        });
        Key {
            index,
            generation: 0,
        }
    }

    fn slot(&self, key: Key) -> Option<&Slot<T>> {
        self.slots
            .get(key.index as usize)
            .filter(|s| s.generation == key.generation && s.value.is_some())
    }

    /// Resolves a key, `None` if it was removed (or never issued).
    #[must_use]
    pub fn get(&self, key: Key) -> Option<&T> {
        self.slot(key).and_then(|s| s.value.as_ref())
    }

    /// Mutable [`Slab::get`].
    pub fn get_mut(&mut self, key: Key) -> Option<&mut T> {
        self.slots
            .get_mut(key.index as usize)
            .filter(|s| s.generation == key.generation)
            .and_then(|s| s.value.as_mut())
    }

    /// Removes and returns the entry; the slot's generation is bumped
    /// so `key` (and any copies of it) permanently stop resolving.
    /// Returns `None` for stale keys.
    pub fn remove(&mut self, key: Key) -> Option<T> {
        let slot = self
            .slots
            .get_mut(key.index as usize)
            .filter(|s| s.generation == key.generation)?;
        let value = slot.value.take()?;
        // Wrap within 31 bits so `to_bits` stays collision-free.
        slot.generation = (slot.generation + 1) & 0x7FFF_FFFF;
        self.free.push(key.index);
        self.len -= 1;
        Some(value)
    }

    /// Removes every entry, yielding them (used at reactor teardown).
    pub fn drain(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if let Some(value) = slot.value.take() {
                slot.generation = (slot.generation + 1) & 0x7FFF_FFFF;
                self.free.push(index as u32);
                out.push(value);
            }
        }
        self.len = 0;
        out
    }

    /// Keys of all live entries (allocates; used for teardown sweeps).
    #[must_use]
    pub fn keys(&self) -> Vec<Key> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.value.is_some())
            .map(|(index, s)| Key {
                index: index as u32,
                generation: s.generation,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.len(), 1);
    }

    /// The satellite contract: a slot reused after close must not be
    /// reachable through the old key — stale ids from offloaded work
    /// land on `None`, never on the new occupant.
    #[test]
    fn slot_reuse_after_close_invalidates_stale_keys() {
        let mut slab = Slab::new();
        let first = slab.insert(1u32);
        assert_eq!(slab.remove(first), Some(1));
        let second = slab.insert(2u32);
        // Same physical slot, different generation.
        assert_eq!(first.index, second.index);
        assert_ne!(first.generation, second.generation);
        assert_eq!(slab.get(first), None, "stale key must not alias");
        assert_eq!(slab.remove(first), None, "stale remove is a no-op");
        assert_eq!(slab.get(second), Some(&2));
        // A second stale removal attempt still cannot disturb the slot.
        assert_eq!(slab.get_mut(first), None);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn key_bits_roundtrip() {
        let mut slab = Slab::new();
        let k = slab.insert(());
        slab.remove(k);
        let k = slab.insert(()); // generation 1
        let packed = k.to_bits();
        assert_eq!(Key::from_bits(packed), k);
    }

    #[test]
    fn drain_empties_and_invalidates() {
        let mut slab = Slab::new();
        let keys: Vec<_> = (0..4).map(|i| slab.insert(i)).collect();
        let mut drained = slab.drain();
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2, 3]);
        assert!(slab.is_empty());
        for k in keys {
            assert_eq!(slab.get(k), None);
        }
    }
}
