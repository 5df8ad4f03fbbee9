//! A shared worker-pool harness for running independent experiment
//! units in parallel.
//!
//! Every figure/table experiment reduces to a list of *independent*
//! units — usually full [`Scenario`] runs over different `(environment,
//! strategy, seed, duration)` combinations. The harness executes such a
//! list across a pool of OS threads and returns the results **in spec
//! order**, so aggregation code is identical to the serial version and
//! the emitted tables/CSV are byte-for-byte the same regardless of the
//! thread count (each simulation owns its seeded RNG; nothing is shared
//! between units).
//!
//! Thread count resolution (see [`Harness::from_env`]): the
//! `--threads N` CLI flag, else the `ARMADA_BENCH_THREADS` environment
//! variable, else all available cores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use armada_core::{EnvSpec, RunResult, Scenario, Strategy};
use armada_types::SimDuration;

/// Compile-time proof that scenario runs can cross thread boundaries;
/// the parallel harness depends on it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Scenario>();
    assert_send::<RunResult>();
};

/// One experiment run: environment + strategy + seed + virtual
/// duration. The common case of [`Harness::run_specs`]; anything more
/// elaborate (churn, staggered arrivals, kills) goes through the generic
/// [`Harness::run`].
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The environment to instantiate.
    pub env: EnvSpec,
    /// The placement strategy under test.
    pub strategy: Strategy,
    /// Randomness seed.
    pub seed: u64,
    /// Virtual run length.
    pub duration: SimDuration,
}

impl RunSpec {
    /// The equivalent scenario.
    pub fn into_scenario(self) -> Scenario {
        Scenario::new(self.env, self.strategy)
            .seed(self.seed)
            .duration(self.duration)
    }
}

/// A fixed-size worker pool executing independent work items.
#[derive(Debug, Clone)]
pub struct Harness {
    threads: usize,
}

impl Harness {
    /// A harness with exactly `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        Harness {
            threads: threads.max(1),
        }
    }

    /// Resolves the thread count from, in order of precedence: a
    /// `--threads N` (or `--threads=N`) CLI argument, the
    /// `ARMADA_BENCH_THREADS` environment variable, and finally the
    /// number of available cores.
    pub fn from_env() -> Self {
        Harness::new(threads_from_env())
    }

    /// The worker count this harness was configured with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every item of `items` on the worker pool and
    /// returns the results **in input order**.
    ///
    /// Items are claimed work-stealing style (one shared cursor), but
    /// each result is written to the slot of its input index, so the
    /// output is independent of scheduling. A panic inside `f`
    /// propagates to the caller once the pool has drained.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            // Serial reference path: identical results by construction.
            return items.into_iter().map(f).collect();
        }
        let work: Vec<Mutex<Option<T>>> = items
            .into_iter()
            .map(|item| Mutex::new(Some(item)))
            .collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    let item = work[index]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("each slot is claimed exactly once");
                    let result = f(item);
                    *slots[index].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every slot was filled")
            })
            .collect()
    }

    /// Runs a list of `(env, strategy, seed, duration)` specs, in spec
    /// order.
    pub fn run_specs(&self, specs: Vec<RunSpec>) -> Vec<RunResult> {
        self.run(specs, |spec| spec.into_scenario().run())
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::from_env()
    }
}

fn threads_from_env() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        if let Some(value) = arg.strip_prefix("--threads=") {
            if let Ok(n) = value.parse::<usize>() {
                return n.max(1);
            }
        }
        if arg == "--threads" {
            if let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                return n.max(1);
            }
        }
    }
    if let Ok(value) = std::env::var("ARMADA_BENCH_THREADS") {
        if let Ok(n) = value.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let harness = Harness::new(4);
        let items: Vec<u64> = (0..64).collect();
        let doubled = harness.run(items.clone(), |x| {
            // Vary per-item wall time so completion order scrambles.
            std::thread::sleep(std::time::Duration::from_micros((64 - x) * 10));
            x * 2
        });
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_matches_many_threads() {
        let serial = Harness::new(1).run((0..20).collect::<Vec<u64>>(), |x| x * x);
        let parallel = Harness::new(8).run((0..20).collect::<Vec<u64>>(), |x| x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let harness = Harness::new(4);
        assert_eq!(harness.run(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(harness.run(vec![9u8], |x| x + 1), vec![10]);
    }

    #[test]
    fn thread_count_floors_at_one() {
        assert_eq!(Harness::new(0).threads(), 1);
    }

    #[test]
    fn four_threads_run_at_least_twice_as_fast_as_one() {
        // Sleep-bound units overlap even on a single-core machine, so
        // this demonstrates the pool genuinely runs units concurrently
        // (CPU-bound speedup additionally needs as many physical cores).
        let sleepers: Vec<u64> = vec![40; 8];
        let f = |ms: u64| std::thread::sleep(std::time::Duration::from_millis(ms));
        let t0 = std::time::Instant::now();
        Harness::new(1).run(sleepers.clone(), f);
        let serial = t0.elapsed();
        let t1 = std::time::Instant::now();
        Harness::new(4).run(sleepers, f);
        let parallel = t1.elapsed();
        assert!(
            serial >= parallel * 2,
            "expected >=2x speedup: serial {serial:?} vs 4-thread {parallel:?}"
        );
    }
}
