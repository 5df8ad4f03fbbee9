//! Steal-gated rounds.
//!
//! On a shared VM the hypervisor takes the CPU away for stretches
//! (`/proc/stat` field 8): the same binary's frame RTT read 107 µs,
//! 630 µs and 12.6 ms as steal went 0 % → 28 % → 50 %. One long run
//! averages those stretches in; short rounds let the benchmark see
//! which stretches were stolen and leave them out.
//!
//! Steal is not the whole story. The development host also slows a
//! guest for seconds at a time without reporting a tick of steal (a
//! single-threaded loop ran anywhere between 0.6× and 1× its best
//! speed, in phases of 5–20 s). Such a phase can only make a round
//! slower, never faster, so of the clean rounds the slower half is set
//! aside too: a metric's value is the median of the better half of
//! the clean rounds' own statistics — their better quartile. Over ten
//! same-commit runs that cut `frame_stream`'s spread from 30 % to
//! 17 % and never widened one. Failures are counted over every
//! round, clean or not.

use std::time::{Duration, Instant};

use crate::host::{self, CpuTicks};
use crate::stats;

/// A round is clean when no more than this share of machine time was
/// stolen while it ran. An idle guest on the development host showed
/// 9 % at its worst, so the line sits just above idle.
pub const MAX_STEAL: f64 = 0.10;

/// How a run's `--seconds` are spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub warmup: Duration,
    pub round: Duration,
    pub rounds: usize,
}

impl Plan {
    /// A tenth of the run (at least half a second) warms up; the rest
    /// is cut into one-second rounds. `--quick` is one two-second
    /// round behind a half-second warm-up.
    pub fn for_seconds(seconds: u64, quick: bool) -> Plan {
        if quick {
            return Plan {
                warmup: Duration::from_millis(500),
                round: Duration::from_secs(2),
                rounds: 1,
            };
        }
        let total = Duration::from_secs(seconds.max(2));
        let warmup = (total / 10).max(Duration::from_millis(500));
        let round = Duration::from_secs(1);
        let rounds = ((total - warmup).as_millis() / round.as_millis()).max(1) as usize;
        Plan {
            warmup,
            round,
            rounds,
        }
    }
}

/// Host counters read at one instant of the run.
#[derive(Debug, Clone, Copy)]
pub struct Boundary {
    /// Nanoseconds since the run's origin.
    pub at_ns: u64,
    pub ticks: CpuTicks,
    pub cpu_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Boundary {
    pub fn sample(origin: Instant) -> Boundary {
        let (allocs, alloc_bytes) = host::alloc_counts();
        Boundary {
            at_ns: origin.elapsed().as_nanos() as u64,
            ticks: host::cpu_ticks(),
            cpu_ns: host::process_cpu_ns(),
            allocs,
            alloc_bytes,
        }
    }
}

/// Sleeps through the warm-up and then through each round, sampling
/// the host at every boundary: `plan.rounds + 1` samples, the first at
/// the end of the warm-up. The generators run on their own threads;
/// this one wakes once a round.
pub fn pace(origin: Instant, plan: &Plan) -> Vec<Boundary> {
    let mut out = Vec::with_capacity(plan.rounds + 1);
    let mut deadline = plan.warmup;
    for _ in 0..=plan.rounds {
        if let Some(wait) = deadline.checked_sub(origin.elapsed()) {
            std::thread::sleep(wait);
        }
        out.push(Boundary::sample(origin));
        deadline += plan.round;
    }
    out
}

/// One measured interval between two boundaries.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub start_ns: u64,
    pub end_ns: u64,
    pub steal: f64,
    pub cpu_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Round {
    pub fn between(a: &Boundary, b: &Boundary) -> Round {
        Round {
            start_ns: a.at_ns,
            end_ns: b.at_ns,
            steal: b.ticks.steal_fraction_since(a.ticks),
            cpu_ns: b.cpu_ns - a.cpu_ns,
            allocs: b.allocs - a.allocs,
            alloc_bytes: b.alloc_bytes - a.alloc_bytes,
        }
    }

    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn is_clean(&self) -> bool {
        self.steal <= MAX_STEAL
    }
}

pub fn rounds_of(boundaries: &[Boundary]) -> Vec<Round> {
    boundaries
        .windows(2)
        .map(|w| Round::between(&w[0], &w[1]))
        .collect()
}

/// Which rounds a run's medians are taken over.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    pub used: Vec<bool>,
    pub clean: usize,
    /// Too few rounds were clean, so every round was used and the
    /// record says so rather than the verdict.
    pub noisy: bool,
}

/// Clean rounds only, provided at least a third of the rounds (and at
/// least three, or all of a shorter run) are clean.
pub fn select(clean: &[bool]) -> Selection {
    let total = clean.len();
    let n_clean = clean.iter().filter(|&&c| c).count();
    let needed = total.div_ceil(3).max(3).min(total);
    let noisy = n_clean < needed;
    Selection {
        used: if noisy {
            vec![true; total]
        } else {
            clean.to_vec()
        },
        clean: n_clean,
        noisy,
    }
}

/// Splits `(completion time, value)` samples into per-round lists; a
/// sample belongs to the round it completed in, and samples outside
/// every round (warm-up, wind-down) are dropped.
pub fn bin(samples: &[(u64, f64)], rounds: &[Round]) -> Vec<Vec<f64>> {
    let mut bins = vec![Vec::new(); rounds.len()];
    for &(done_ns, value) in samples {
        if let Some(i) = rounds
            .iter()
            .position(|r| r.start_ns <= done_ns && done_ns < r.end_ns)
        {
            bins[i].push(value);
        }
    }
    bins
}

/// Median of the better half of the selected rounds' statistics
/// (`higher_is_better` says which half that is), with the quartile
/// spread of all selected rounds. Rounds without a value (no
/// operation completed in them) are skipped.
pub fn reduce(
    per_round: &[Option<f64>],
    selection: &Selection,
    higher_is_better: bool,
) -> (Option<f64>, Option<f64>) {
    let mut values: Vec<f64> = per_round
        .iter()
        .zip(&selection.used)
        .filter_map(|(v, &used)| v.filter(|_| used))
        .collect();
    let spread = stats::spread(&values);
    values.sort_unstable_by(f64::total_cmp);
    if higher_is_better {
        values.reverse();
    }
    values.truncate(values.len().div_ceil(2));
    (stats::median(&values), spread)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_spends_the_seconds_it_is_given() {
        let p = Plan::for_seconds(20, false);
        assert_eq!(p.warmup, Duration::from_secs(2));
        assert_eq!(p.rounds, 18);
        assert_eq!(
            p.warmup + p.round * p.rounds as u32,
            Duration::from_secs(20)
        );
        let short = Plan::for_seconds(1, false);
        assert_eq!(
            (short.warmup, short.rounds),
            (Duration::from_millis(500), 1)
        );
        let q = Plan::for_seconds(20, true);
        assert_eq!((q.rounds, q.round), (1, Duration::from_secs(2)));
    }

    #[test]
    fn better_half_median_ignores_stolen_and_slowed_rounds() {
        // Rounds 2 and 5 ran while the hypervisor was away.
        let clean = [true, true, false, true, true, false, true, true];
        let sel = select(&clean);
        assert!(!sel.noisy);
        assert_eq!(sel.clean, 6);
        let per_round = [
            Some(100.0),
            Some(104.0),
            Some(630.0),
            Some(98.0),
            None, // nothing completed in this round
            Some(12_600.0),
            Some(102.0),
            Some(160.0), // clean by steal, slowed all the same
        ];
        // Clean values 98 100 102 104 160: as latencies the better half
        // is 98 100 102, as rates 160 104 102.
        let (value, spread) = reduce(&per_round, &sel, false);
        assert_eq!(value, Some(100.0));
        assert!(spread.unwrap() > 0.1, "the spread is of all clean rounds");
        assert_eq!(reduce(&per_round, &sel, true).0, Some(104.0));
        // An even count keeps half: 1 2 3 4 → 1 2 → 1.5.
        let four = [Some(4.0), Some(1.0), Some(3.0), Some(2.0)];
        assert_eq!(reduce(&four, &select(&[true; 4]), false).0, Some(1.5));
        assert_eq!(reduce(&[None], &select(&[true]), false), (None, None));
    }

    #[test]
    fn too_few_clean_rounds_fall_back_to_all_and_say_so() {
        let clean = [false, true, false, false, false, true, false, false, false];
        let sel = select(&clean);
        assert!(sel.noisy);
        assert_eq!(sel.clean, 2);
        assert!(sel.used.iter().all(|&u| u));
        // A one-round quick run is its own selection.
        assert_eq!(select(&[true]).used, vec![true]);
        assert!(!select(&[true]).noisy);
        assert!(select(&[false]).noisy);
    }

    #[test]
    fn samples_land_in_the_round_they_completed_in() {
        let b = |at_ns, steal, total| Boundary {
            at_ns,
            ticks: CpuTicks { steal, total },
            cpu_ns: at_ns / 2,
            allocs: at_ns / 1000,
            alloc_bytes: at_ns,
        };
        let rounds = rounds_of(&[b(1_000, 0, 0), b(2_000, 5, 100), b(3_000, 45, 200)]);
        assert_eq!(rounds.len(), 2);
        assert!(rounds[0].is_clean());
        assert!(!rounds[1].is_clean());
        assert_eq!(rounds[0].cpu_ns, 500);
        let bins = bin(
            &[
                (500, 1.0),
                (1_000, 2.0),
                (1_999, 3.0),
                (2_000, 4.0),
                (3_000, 5.0),
            ],
            &rounds,
        );
        assert_eq!(bins, vec![vec![2.0, 3.0], vec![4.0]]);
    }
}
