//! The reference walk: how fast the host is while a workload runs.
//!
//! The development host's speed drifts by a quarter over minutes and
//! by more for seconds at a time, with no steal reported: the same
//! binary on the same pinned CPU read 1 012 `fleet_mixed` queries/s in
//! one half hour and 1 295 in the next, and ten runs in a row spread by
//! 7 % or by 28 % depending on the ten minutes they fell in. Rounds and
//! their better half (`rounds`) deal with the seconds; nothing inside a
//! run can deal with the minutes except a second measurement, taken at
//! the same time on the same CPU, of work that never changes.
//!
//! That work is a pointer chase: every 100 ms a thread of the benchmark
//! takes 20 000 dependent steps through a 4 MB table laid out as one
//! random cycle, and times them on its own CPU clock. It is bound by
//! what slows the workloads when the host is busy — memory and
//! translation latency, clock rate — and shares nothing with the
//! program under test but the CPU. A run's time-like end-to-end values
//! are scaled by nominal ÷ measured walk cost, which states them at the
//! speed of a host on which a step costs `NOMINAL_STEP_NS`.
//!
//! Over 36 pinned runs taken in a bad half hour, scaling took the
//! quartile spread of ten `fleet_mixed` runs from 20.5 % to 9.8 %
//! (latency) and 26.1 % to 16.3 % (rate), of `session_setup` from
//! 14.5 % to 10.7 % and 13.4 % to 9.1 %; `frame_stream`, half of whose
//! frame is a timer and does not follow the CPU, went from 1.9 % to
//! 3.6 % and 5.4 % to 6.3 %. An arithmetic loop and a burst of system
//! calls were tried as the reference and tracked the workloads less
//! well. The walk takes about 3.5 % of the CPU.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::host;

/// Entries of the table: 4 MB of `u64`, twice the development host's
/// L2, so most steps miss it.
const TABLE_LEN: usize = 512 * 1024;
/// Steps per walk.
const STEPS: usize = 20_000;
/// Pause between two walks.
const PERIOD: Duration = Duration::from_millis(100);
/// What a step cost on the development host in its usual state,
/// interleaved with a workload: the speed results are stated at.
pub const NOMINAL_STEP_NS: f64 = 165.0;

/// One timed walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Walk {
    /// Nanoseconds since the run's origin when the walk ended.
    pub at_ns: u64,
    /// Thread CPU time the walk took.
    pub cpu_ns: u64,
}

/// A table in which following `table[i]` from any entry visits every
/// other entry before it returns (Sattolo's shuffle), so a walk never
/// settles into a short loop the cache could hold.
pub fn one_cycle(len: usize, seed: u64) -> Vec<u64> {
    let mut table: Vec<u64> = (0..len as u64).collect();
    let mut x = seed | 1;
    for i in (1..len).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table.swap(i, (x % i as u64) as usize);
    }
    table
}

/// The walker thread, from `start` to `finish`.
pub struct Reference {
    stop: Arc<AtomicBool>,
    walker: JoinHandle<Vec<Walk>>,
}

impl Reference {
    /// Builds the table and starts walking it, on the CPU the process
    /// is pinned to.
    pub fn start(origin: Instant) -> Reference {
        let table = one_cycle(TABLE_LEN, 0x9E37_79B9_7F4A_7C15);
        host::note_own_bytes(TABLE_LEN * std::mem::size_of::<u64>());
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let walker = std::thread::spawn(move || {
            let mut walks = Vec::with_capacity(1_024);
            let mut at = 0usize;
            loop {
                std::thread::park_timeout(PERIOD);
                if stopped.load(Ordering::Relaxed) {
                    return walks;
                }
                let before = host::thread_cpu_ns();
                for _ in 0..STEPS {
                    at = table[at] as usize;
                }
                let cpu_ns = host::thread_cpu_ns() - before;
                std::hint::black_box(at);
                walks.push(Walk {
                    at_ns: origin.elapsed().as_nanos() as u64,
                    cpu_ns,
                });
            }
        });
        Reference { stop, walker }
    }

    pub fn finish(self) -> Vec<Walk> {
        self.stop.store(true, Ordering::Relaxed);
        self.walker.thread().unpark();
        self.walker.join().expect("reference walker")
    }
}

/// Measured ÷ nominal cost of a step over the walks that ended inside
/// `[from_ns, to_ns)`: above one on a host slower than nominal. `None`
/// when no walk did.
pub fn ratio(walks: &[Walk], from_ns: u64, to_ns: u64) -> Option<f64> {
    let inside: Vec<f64> = walks
        .iter()
        .filter(|w| from_ns <= w.at_ns && w.at_ns < to_ns)
        .map(|w| w.cpu_ns as f64)
        .collect();
    if inside.is_empty() {
        return None;
    }
    let mean_ns = inside.iter().sum::<f64>() / inside.len() as f64;
    Some(mean_ns / (STEPS as f64 * NOMINAL_STEP_NS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle() {
        let table = one_cycle(1_000, 7);
        let mut at = 0usize;
        for step in 1..=1_000 {
            at = table[at] as usize;
            assert_eq!(at == 0, step == 1_000, "back at the start after {step}");
        }
        assert_ne!(table, one_cycle(1_000, 9));
    }

    #[test]
    fn ratio_is_mean_cost_over_nominal_inside_the_span() {
        let nominal_walk = (STEPS as f64 * NOMINAL_STEP_NS) as u64;
        let walk = |at_ns, cpu_ns| Walk { at_ns, cpu_ns };
        let walks = [
            walk(50, 9 * nominal_walk), // warm-up: outside
            walk(100, nominal_walk),
            walk(200, 2 * nominal_walk),
            walk(300, 9 * nominal_walk), // the end is exclusive
        ];
        assert_eq!(ratio(&walks, 100, 300), Some(1.5));
        assert_eq!(ratio(&walks, 400, 500), None);
    }

    #[test]
    fn walker_walks_and_stops() {
        let origin = Instant::now();
        let reference = Reference::start(origin);
        std::thread::sleep(PERIOD * 3);
        let walks = reference.finish();
        assert!(!walks.is_empty());
        assert!(walks.iter().all(|w| w.cpu_ns > 0));
        assert!(
            origin.elapsed() < Duration::from_secs(2),
            "finish does not wait out a period"
        );
    }
}
