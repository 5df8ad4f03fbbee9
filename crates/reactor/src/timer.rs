//! A hierarchical timer wheel on millisecond ticks.
//!
//! Four levels of 64 slots each: level 0 resolves single ticks over a
//! 64 ms horizon, each higher level covers 64× more at 64× coarser
//! resolution (~4.7 hours total; anything beyond parks in an overflow
//! list and cascades in when the wheel catches up). Insert and cancel
//! are O(1); [`TimerWheel::advance`] pays O(ticks elapsed) bookkeeping,
//! which is trivial even after a coarse multi-second sleep because
//! almost every visited slot is empty.
//!
//! Expiry is deterministic: entries fire ordered by (requested
//! deadline, insertion sequence), regardless of how coarsely the clock
//! advanced — so a reactor thread that oversleeps drains its deadlines
//! in exactly the order a perfectly-ticking one would have.

use crate::slab::{Key, Slab};

const LEVELS: usize = 4;
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64
/// Ticks covered by the whole wheel (level 3's horizon).
const WHEEL_SPAN: u64 = 1 << (SLOT_BITS * LEVELS as u32); // 2^24 ≈ 4.7 h

/// Handle to a scheduled timer, for cancellation.
pub type TimerKey = Key;

struct Entry<T> {
    /// The deadline as requested (may be ≤ `now` at insert time; such
    /// entries fire on the next advance, still ordered by deadline).
    deadline: u64,
    /// Insertion order, the deterministic tiebreak for equal deadlines.
    seq: u64,
    value: T,
}

/// The wheel itself. `T` is the per-timer payload (the reactor stores
/// an enum naming what the timer drives: a connection deadline, an
/// idle reap, a scheduled task).
pub struct TimerWheel<T> {
    now: u64,
    seq: u64,
    entries: Slab<Entry<T>>,
    /// `slots[level][slot]` holds keys into `entries`. Stale keys
    /// (cancelled timers) are skipped lazily when the slot drains.
    slots: Vec<Vec<Vec<Key>>>,
    /// Deadlines beyond the wheel span, cascaded in on rollover.
    overflow: Vec<Key>,
}

impl<T> TimerWheel<T> {
    /// An empty wheel positioned at tick 0.
    #[must_use]
    pub fn new() -> Self {
        TimerWheel {
            now: 0,
            seq: 0,
            entries: Slab::new(),
            slots: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            overflow: Vec::new(),
        }
    }

    /// The wheel's current tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `value` to fire once `advance` reaches `deadline`
    /// (absolute tick). Deadlines at or before the current tick fire on
    /// the next advance.
    pub fn insert(&mut self, deadline: u64, value: T) -> TimerKey {
        let seq = self.seq;
        self.seq += 1;
        let key = self.entries.insert(Entry {
            deadline,
            seq,
            value,
        });
        self.place(key, deadline);
        key
    }

    /// Files `key` into the slot owning `deadline`, relative to `now`.
    fn place(&mut self, key: Key, deadline: u64) {
        let delta = deadline.saturating_sub(self.now).max(1);
        if delta >= WHEEL_SPAN {
            self.overflow.push(key);
            return;
        }
        // The finest level whose span covers the delta; the slot is the
        // deadline's digit at that level.
        let mut lvl = 0;
        while lvl < LEVELS - 1 && delta >= (1u64 << (SLOT_BITS * (lvl as u32 + 1))) {
            lvl += 1;
        }
        let target = self.now + delta;
        let slot = ((target >> (SLOT_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[lvl][slot].push(key);
    }

    /// Cancels a pending timer, returning its payload. Stale keys
    /// (already fired or cancelled) return `None`. The slot reference
    /// is left behind and skipped lazily — cancel is O(1).
    pub fn cancel(&mut self, key: TimerKey) -> Option<T> {
        self.entries.remove(key).map(|e| e.value)
    }

    /// Advances the clock to `to`, appending every fired timer to
    /// `out` as `(requested_deadline, value)`, ordered by (deadline,
    /// insertion seq).
    pub fn advance(&mut self, to: u64, out: &mut Vec<(u64, T)>) {
        if to <= self.now {
            return;
        }
        let mut fired: Vec<(u64, u64, T)> = Vec::new();
        while self.now < to {
            // Skip runs of provably-silent ticks: nothing can fire
            // before the nearest populated level-0 slot, and nothing
            // can move between levels before the next 64-tick cascade
            // boundary. Jumping to the earlier of the two keeps a
            // multi-second advance O(events + boundaries), not
            // O(milliseconds elapsed).
            let boundary = (self.now | (SLOTS as u64 - 1)) + 1;
            let mut next_interesting = boundary.min(to);
            for ahead in 1..=(SLOTS as u64) {
                let tick = self.now + ahead;
                if tick > next_interesting {
                    break;
                }
                if !self.slots[0][(tick & (SLOTS as u64 - 1)) as usize].is_empty() {
                    next_interesting = tick;
                    break;
                }
            }
            self.now = next_interesting;
            // Cascade boundaries: when the low digits roll over, pull
            // the owning higher-level slot (and overflow at full span)
            // down and re-file its entries at finer resolution.
            for lvl in 1..LEVELS {
                if self.now & ((1u64 << (SLOT_BITS * lvl as u32)) - 1) == 0 {
                    let slot =
                        ((self.now >> (SLOT_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
                    let keys = std::mem::take(&mut self.slots[lvl][slot]);
                    for key in keys {
                        if let Some(deadline) = self.entries.get(key).map(|e| e.deadline) {
                            self.place(key, deadline);
                        }
                    }
                }
            }
            if self.now.is_multiple_of(WHEEL_SPAN) {
                let keys = std::mem::take(&mut self.overflow);
                for key in keys {
                    if let Some(deadline) = self.entries.get(key).map(|e| e.deadline) {
                        self.place(key, deadline);
                    }
                }
            }
            // Drain the level-0 slot for this tick.
            let slot = (self.now & (SLOTS as u64 - 1)) as usize;
            if self.slots[0][slot].is_empty() {
                continue;
            }
            let keys = std::mem::take(&mut self.slots[0][slot]);
            for key in keys {
                // Lazily skip cancelled entries; everything live in a
                // level-0 slot at its tick is due by construction.
                if let Some(entry) = self.entries.remove(key) {
                    fired.push((entry.deadline, entry.seq, entry.value));
                }
            }
        }
        fired.sort_by_key(|(deadline, seq, _)| (*deadline, *seq));
        out.extend(
            fired
                .into_iter()
                .map(|(deadline, _, value)| (deadline, value)),
        );
    }

    /// A lower bound on the next tick at which something may fire —
    /// the poll timeout. Waking at the returned tick and calling
    /// [`TimerWheel::advance`] is always sufficient: either a timer
    /// fires or a higher-level slot cascades and the next bound
    /// tightens. `None` when nothing is scheduled.
    #[must_use]
    pub fn next_wakeup(&self) -> Option<u64> {
        if self.entries.is_empty() {
            return None;
        }
        // Nearest level-0 entry within the next 64 ticks.
        for ahead in 1..=SLOTS as u64 {
            let tick = self.now + ahead;
            let slot = (tick & (SLOTS as u64 - 1)) as usize;
            if self.slots[0][slot]
                .iter()
                .any(|k| self.entries.get(*k).is_some())
            {
                return Some(tick);
            }
        }
        // Otherwise everything pending sits in a coarser level (or
        // overflow); the next cascade boundary is a safe lower bound.
        let next_boundary = (self.now | ((1 << SLOT_BITS) - 1)) + 1;
        Some(next_boundary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut TimerWheel<&'static str>, to: u64) -> Vec<(u64, &'static str)> {
        let mut out = Vec::new();
        wheel.advance(to, &mut out);
        out
    }

    #[test]
    fn fires_in_deadline_order_at_fine_ticks() {
        let mut wheel = TimerWheel::new();
        wheel.insert(5, "b");
        wheel.insert(3, "a");
        wheel.insert(9, "c");
        assert_eq!(drain(&mut wheel, 2), vec![]);
        assert_eq!(drain(&mut wheel, 3), vec![(3, "a")]);
        assert_eq!(drain(&mut wheel, 10), vec![(5, "b"), (9, "c")]);
        assert!(wheel.entries.is_empty());
    }

    /// The satellite contract: a coarse advance (one big jump over many
    /// deadlines, as after an overslept poll) fires everything due in
    /// exactly (deadline, insertion) order — including entries that
    /// lived on different wheel levels.
    #[test]
    fn coarse_advance_preserves_deterministic_order() {
        let mut wheel = TimerWheel::new();
        // Mix of horizons: level 0 (<64), level 1 (<4096), level 2.
        wheel.insert(4100, "far");
        wheel.insert(40, "near-b");
        wheel.insert(40, "near-b2"); // equal deadline: insertion order
        wheel.insert(7, "near-a");
        wheel.insert(700, "mid");
        let fired = drain(&mut wheel, 10_000);
        assert_eq!(
            fired,
            vec![
                (7, "near-a"),
                (40, "near-b"),
                (40, "near-b2"),
                (700, "mid"),
                (4100, "far"),
            ]
        );
    }

    #[test]
    fn equal_deadlines_fire_in_insertion_order_across_jumps() {
        // Whether the clock walks tick-by-tick or jumps, the order is
        // identical.
        let deadlines = [50u64, 12, 50, 3000, 12, 70];
        let run = |step: u64| {
            let mut wheel = TimerWheel::new();
            for (i, d) in deadlines.iter().enumerate() {
                wheel.insert(*d, i);
            }
            let mut out = Vec::new();
            let mut t = 0;
            while t < 5000 {
                t += step;
                wheel.advance(t, &mut out);
            }
            out
        };
        assert_eq!(run(1), run(4999));
        assert_eq!(run(1), run(37));
    }

    #[test]
    fn cancellation_is_honoured_under_coarse_ticks() {
        let mut wheel = TimerWheel::new();
        let keep = wheel.insert(100, "keep");
        let drop1 = wheel.insert(100, "drop1");
        let drop2 = wheel.insert(5000, "drop2"); // lives on a higher level
        assert_eq!(wheel.cancel(drop1), Some("drop1"));
        assert_eq!(wheel.cancel(drop2), Some("drop2"));
        assert_eq!(wheel.cancel(drop2), None, "double-cancel is a no-op");
        assert_eq!(wheel.entries.len(), 1);
        let fired = drain(&mut wheel, 6000);
        assert_eq!(fired, vec![(100, "keep")]);
        assert_eq!(wheel.cancel(keep), None, "fired timers cannot be cancelled");
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let mut wheel = TimerWheel::new();
        wheel.advance(100, &mut Vec::new());
        wheel.insert(50, "late"); // already overdue
        wheel.insert(100, "now"); // due exactly at the current tick
        let fired = drain(&mut wheel, 101);
        assert_eq!(fired, vec![(50, "late"), (100, "now")]);
    }

    #[test]
    fn next_wakeup_is_a_sound_lower_bound() {
        let mut wheel = TimerWheel::new();
        assert_eq!(wheel.next_wakeup(), None);
        wheel.insert(9, "x");
        assert_eq!(wheel.next_wakeup(), Some(9));
        // A far entry yields a cascade boundary, never beyond the
        // deadline.
        let mut far = TimerWheel::new();
        far.insert(500, "y");
        let bound = far.next_wakeup().unwrap();
        assert!(bound <= 500, "bound {bound} must not overshoot");
        // Repeatedly sleeping to the bound and advancing must reach
        // the deadline (no livelock, no missed fire).
        let mut out = Vec::new();
        let mut hops = 0;
        while out.is_empty() {
            let to = far.next_wakeup().expect("still pending");
            far.advance(to, &mut out);
            hops += 1;
            assert!(hops < 100, "bound must make progress");
        }
        assert_eq!(out, vec![(500, "y")]);
    }

    #[test]
    fn overflow_horizon_still_fires() {
        let mut wheel = TimerWheel::new();
        let deadline = WHEEL_SPAN + 77;
        wheel.insert(deadline, "eventually");
        let mut out = Vec::new();
        wheel.advance(WHEEL_SPAN - 1, &mut out);
        assert!(out.is_empty());
        wheel.advance(deadline, &mut out);
        assert_eq!(out, vec![(deadline, "eventually")]);
    }
}
