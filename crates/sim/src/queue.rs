//! A stable time-ordered event queue: a radix heap over `(time, slot)`
//! keys, with the payloads in a slab.
//!
//! The keys are 16 bytes whatever the payload, so the buckets move only
//! keys when they split; a payload is written once into its slot and
//! read once when it pops. A radix heap needs its pushes to be no
//! earlier than its last pop — the simulator's clock never runs
//! backwards, and its engine clamps every schedule to "now" — and in
//! return keeps equal times in push order without a sequence number:
//! keys of one time always share a bucket, in the order they came.

use armada_types::SimTime;

/// One bucket per possible highest differing bit, plus bucket 0 for
/// keys equal to the last pop.
const BUCKETS: usize = 65;

/// A queued event's key: its time in microseconds and the slab slot
/// holding its payload.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: u64,
    slot: u32,
}

/// A priority queue of timestamped events with stable FIFO ordering for
/// simultaneous events.
///
/// **Precondition:** no push is earlier than the time of the last
/// [`EventQueue::pop`] (debug builds assert it). [`EventQueue::clear`]
/// lifts it.
///
/// # Examples
///
/// ```
/// use armada_sim::EventQueue;
/// use armada_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(10), "late");
/// q.push(SimTime::from_millis(1), "early");
/// q.push(SimTime::from_millis(10), "late-second");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert_eq!(q.pop().unwrap().1, "late-second");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<T> {
    /// `buckets[0]` holds the keys equal to `last`, read from `head`
    /// on; `buckets[b]` for `b ≥ 1` the keys whose highest bit that
    /// differs from `last` is bit `b − 1`. Each bucket is in push order.
    buckets: [Vec<Key>; BUCKETS],
    /// Bit `b` set iff `buckets[b]` holds an unread key.
    occupied: u128,
    /// How far bucket 0 has been read.
    head: usize,
    /// The time of the last pop.
    last: u64,
    /// The payloads, by slot; `None` on the free list.
    slots: Vec<Option<T>>,
    /// Slots whose payload has popped, reused before the slab grows.
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The bucket `time` belongs in while the last pop was at `last`.
fn bucket(time: u64, last: u64) -> usize {
    (u64::BITS - (time ^ last).leading_zeros()) as usize
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            head: 0,
            last: 0,
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Enqueues `payload` to fire at `time`, which must not be earlier
    /// than the last pop.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let time = time.as_micros();
        debug_assert!(time >= self.last, "pushed before the last pop");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                self.slots.push(Some(payload));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        let b = bucket(time, self.last);
        self.buckets[b].push(Key { time, slot });
        self.occupied |= 1 << b;
        self.len += 1;
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_until(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline`, FIFO among ties; a later one stays queued, and the
    /// time of the last pop stays where it was.
    pub(crate) fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        if self.occupied & 1 == 0 {
            let b = self.occupied.trailing_zeros() as usize;
            if b >= BUCKETS {
                return None;
            }
            let min = self.buckets[b].iter().map(|k| k.time).min()?;
            if min > deadline.as_micros() {
                return None;
            }
            self.redistribute(b, min);
        } else if self.last > deadline.as_micros() {
            return None;
        }
        let key = self.buckets[0][self.head];
        self.head += 1;
        if self.head == self.buckets[0].len() {
            self.buckets[0].clear();
            self.head = 0;
            self.occupied &= !1;
        }
        self.len -= 1;
        self.free.push(key.slot);
        let payload = self.slots[key.slot as usize].take();
        Some((
            SimTime::from_micros(key.time),
            payload.expect("a queued slot"),
        ))
    }

    /// Makes `min`, the least time in bucket `b`, the last pop, moving
    /// that bucket's keys down to the buckets they now belong in, in
    /// order. Every bucket below `b` is empty, and none above it moves.
    fn redistribute(&mut self, b: usize, min: u64) {
        self.last = min;
        let mut keys = std::mem::take(&mut self.buckets[b]);
        self.occupied &= !(1 << b);
        for key in keys.drain(..) {
            let to = bucket(key.time, min);
            self.buckets[to].push(key);
            self.occupied |= 1 << to;
        }
        // The emptied bucket keeps its capacity.
        self.buckets[b] = keys;
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.occupied & 1 == 1 {
            return Some(SimTime::from_micros(self.last));
        }
        let b = self.occupied.trailing_zeros() as usize;
        let keys = self.buckets.get(b)?;
        keys.iter().map(|k| SimTime::from_micros(k.time)).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events and forgets the last pop, so any time
    /// may be pushed next.
    pub fn clear(&mut self) {
        for keys in &mut self.buckets {
            keys.clear();
        }
        self.occupied = 0;
        self.head = 0;
        self.last = 0;
        self.slots.clear();
        self.free.clear();
        self.len = 0;
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;
    use rand::RngCore;

    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for t in [30u64, 10, 20, 5, 25] {
            q.push(SimTime::from_millis(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3), ());
        q.push(SimTime::from_millis(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(1));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn an_event_past_the_deadline_stays_queued_and_earlier_pushes_still_fit() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), 'a');
        q.push(SimTime::from_millis(9), 'c');
        assert_eq!(q.pop_until(SimTime::from_millis(5)).unwrap().1, 'a');
        assert!(q.pop_until(SimTime::from_millis(5)).is_none());
        // The refusal moved nothing: a time between the last pop and the
        // queued event may still be pushed.
        q.push(SimTime::from_millis(5), 'b');
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        let rest: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, c)| c)).collect();
        assert_eq!(rest, ['b', 'c']);
    }

    #[test]
    fn the_slab_reuses_popped_slots() {
        let mut q = EventQueue::new();
        for round in 0..1_000u64 {
            q.push(SimTime::from_micros(round * 10 + 3), round);
            q.push(SimTime::from_micros(round * 10), round);
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        assert!(
            q.slots.len() <= 4,
            "{} slots for two at a time",
            q.slots.len()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// 5 000 pushes (never earlier than the last pop), pops, peeks
        /// and, rarely, clears, interleaved against a binary heap ordered
        /// by `(time, push sequence)`. A push lands up to `2^bits − 1` µs
        /// after the last pop: from dense ties at `bits = 0` to 2⁴⁰ µs.
        #[test]
        fn matches_a_sequenced_binary_heap(bits in 0u32..=40, seed in 0u64..u64::MAX) {
            let mut rng = crate::SimRng::seed_from(seed);
            let mut q = EventQueue::new();
            let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let (mut seq, mut last) = (0u64, 0u64);
            for _ in 0..5_000 {
                match rng.next_u32() % 1_000 {
                    0 => {
                        q.clear();
                        model.clear();
                        last = 0;
                    }
                    1..=550 => {
                        let at = last + (rng.next_u64() & ((1 << bits) - 1));
                        q.push(SimTime::from_micros(at), seq);
                        model.push(Reverse((at, seq)));
                        seq += 1;
                    }
                    551..=900 => {
                        let want = model.pop().map(|Reverse((t, s))| (SimTime::from_micros(t), s));
                        prop_assert_eq!(q.pop(), want);
                        if let Some((t, _)) = want {
                            last = t.as_micros();
                        }
                    }
                    _ => {
                        let want = model.peek().map(|Reverse((t, _))| SimTime::from_micros(*t));
                        prop_assert_eq!(q.peek_time(), want);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
                // Every slot not on the free list holds a pending event.
                prop_assert_eq!(q.slots.len() - q.free.len(), model.len());
            }
            while let Some(Reverse((t, s))) = model.pop() {
                prop_assert_eq!(q.pop(), Some((SimTime::from_micros(t), s)));
            }
            prop_assert!(q.pop().is_none());
        }
    }

    proptest! {
        #[test]
        fn pop_sequence_is_sorted_and_complete(times in proptest::collection::vec(0u64..1000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            prop_assert_eq!(q.len(), times.len());
            let mut popped = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some((t, idx)) = q.pop() {
                prop_assert!(t >= last);
                // FIFO among equal times: indices at the same time ascend.
                if t == last {
                    if let Some(&(pt, pidx)) = popped.last() {
                        if pt == t {
                            prop_assert!(idx > pidx);
                        }
                    }
                }
                popped.push((t, idx));
                last = t;
            }
            prop_assert_eq!(popped.len(), times.len());
            // Every index appears exactly once.
            let mut seen: Vec<usize> = popped.iter().map(|&(_, i)| i).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        }
    }
}
