//! An elastic pool for blocking work the reactor must not run inline.
//!
//! Protocol handlers that sleep (simulated one-way delay, workload
//! execution) would stall an entire event loop if run on a reactor
//! thread. They are offloaded here instead. The pool is elastic in both
//! directions: a job submitted while no worker is idle spawns a new
//! worker (up to a cap), and workers that sit idle past a grace period
//! exit — so a burst of 500 delayed requests gets 500-way parallelism
//! briefly, and a quiet process carries no threads at all.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<State>,
    available: Condvar,
}

struct State {
    jobs: VecDeque<Job>,
    idle: usize,
    workers: usize,
    shutdown: bool,
}

/// Error returned by [`BlockingPool::try_spawn`] when every worker is
/// busy, the worker cap is reached, and the pending-job queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSaturated;

impl std::fmt::Display for PoolSaturated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("blocking pool saturated: worker cap reached and queue full")
    }
}

impl std::error::Error for PoolSaturated {}

/// Elastic blocking-work pool. Cloneable; dropping the last clone lets
/// outstanding jobs finish and then retires all workers.
#[derive(Clone)]
pub struct BlockingPool {
    shared: Arc<Shared>,
    max_workers: usize,
    queue_cap: usize,
}

impl Default for BlockingPool {
    fn default() -> Self {
        BlockingPool::new(256)
    }
}

impl BlockingPool {
    /// How long an idle worker lingers before exiting.
    const IDLE_GRACE: Duration = Duration::from_secs(5);

    /// A pool that grows up to `max_workers` threads under load, with
    /// an unbounded pending-job queue.
    #[must_use]
    pub fn new(max_workers: usize) -> Self {
        BlockingPool::bounded(max_workers, 0)
    }

    /// A pool that grows up to `max_workers` threads and, once every
    /// worker is busy, holds at most `queue_cap` pending jobs (`0` =
    /// unbounded). The bound is enforced only by
    /// [`BlockingPool::try_spawn`]; [`BlockingPool::spawn`] always
    /// enqueues.
    #[must_use]
    pub fn bounded(max_workers: usize, queue_cap: usize) -> Self {
        BlockingPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(State {
                    jobs: VecDeque::new(),
                    idle: 0,
                    workers: 0,
                    shutdown: false,
                }),
                available: Condvar::new(),
            }),
            max_workers: max_workers.max(1),
            queue_cap,
        }
    }

    /// Current worker-thread count (for tests).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.lock().workers
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `job` on a pool thread, spawning one if none is idle.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, job: F) {
        let state = self.lock();
        self.enqueue(state, Box::new(job));
    }

    /// Like [`BlockingPool::spawn`], but refuses the job when the pool
    /// is saturated: every worker busy, the worker cap reached, and
    /// `queue_cap` jobs already pending. A pool built with a zero
    /// `queue_cap` never refuses.
    ///
    /// # Errors
    ///
    /// [`PoolSaturated`] when the job was not enqueued (the caller
    /// should degrade — e.g. answer `Busy` — rather than block).
    pub fn try_spawn<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), PoolSaturated> {
        let state = self.lock();
        if !state.shutdown
            && self.queue_cap > 0
            && state.idle == 0
            && state.workers >= self.max_workers
            && state.jobs.len() >= self.queue_cap
        {
            return Err(PoolSaturated);
        }
        self.enqueue(state, Box::new(job));
        Ok(())
    }

    fn enqueue(&self, mut state: std::sync::MutexGuard<'_, State>, job: Job) {
        if state.shutdown {
            return;
        }
        state.jobs.push_back(job);
        if state.idle == 0 && state.workers < self.max_workers {
            state.workers += 1;
            drop(state);
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name("armada-blocking".into())
                .spawn(move || worker_loop(&shared));
            if spawned.is_err() {
                // Spawn failed (thread exhaustion): undo the count; an
                // existing worker will pick the job up eventually.
                self.lock().workers -= 1;
            }
        } else {
            drop(state);
        }
        self.shared.available.notify_one();
    }
}

impl Drop for BlockingPool {
    fn drop(&mut self) {
        if Arc::strong_count(&self.shared) == 1 {
            self.lock().shutdown = true;
            self.shared.available.notify_all();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state.idle += 1;
                let (guard, waited) = shared
                    .available
                    .wait_timeout(state, BlockingPool::IDLE_GRACE)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                state = guard;
                state.idle -= 1;
                if waited.timed_out() && state.jobs.is_empty() {
                    break None; // idle too long — retire
                }
            }
        };
        match job {
            Some(job) => job(),
            None => break,
        }
    }
    let mut state = shared
        .queue
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    state.workers -= 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_jobs_and_scales_with_concurrency() {
        let pool = BlockingPool::new(32);
        let done = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            let gate = Arc::clone(&gate);
            pool.spawn(move || {
                let (open, cv) = &*gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // All 8 jobs block on the gate, so 8 workers must have spawned.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.workers() < 8 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.workers(), 8);
        {
            let (open, cv) = &*gate;
            *open.lock().unwrap() = true;
            cv.notify_all();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) < 8 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn respects_the_worker_cap() {
        let pool = BlockingPool::new(2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        for _ in 0..6 {
            let gate = Arc::clone(&gate);
            pool.spawn(move || {
                let (open, cv) = &*gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
        }
        std::thread::sleep(Duration::from_millis(50));
        assert!(pool.workers() <= 2);
        let (open, cv) = &*gate;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }

    /// Blocks `n` workers of `pool` on a gate; returns the gate opener.
    fn saturate(pool: &BlockingPool, n: usize) -> Arc<(Mutex<bool>, Condvar)> {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (started, running) = std::sync::mpsc::channel();
        for _ in 0..n {
            let gate = Arc::clone(&gate);
            let started = started.clone();
            pool.spawn(move || {
                started.send(()).unwrap();
                let (open, cv) = &*gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
        }
        // Wait until each gate job is running, so the queue is
        // observably empty-but-busy. `pool.workers()` cannot tell: it
        // counts a worker from the decision to spawn it, while its job
        // still sits in the queue and counts against the bound.
        for _ in 0..n {
            running
                .recv_timeout(Duration::from_secs(5))
                .expect("a gate job starts");
        }
        gate
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (open, cv) = &**gate;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }

    #[test]
    fn try_spawn_rejects_only_past_the_queue_bound() {
        let pool = BlockingPool::bounded(1, 2);
        let gate = saturate(&pool, 1);
        // Worker busy, queue empty: two jobs fit the bound, the third
        // is refused instead of growing the queue.
        assert!(pool.try_spawn(|| {}).is_ok());
        assert!(pool.try_spawn(|| {}).is_ok());
        assert_eq!(pool.try_spawn(|| {}), Err(PoolSaturated));
        open_gate(&gate);
        // Once the backlog drains, the pool accepts again.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.try_spawn(|| {}).is_err() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(pool.try_spawn(|| {}).is_ok(), "drained pool must accept");
    }

    #[test]
    fn unbounded_pools_never_reject() {
        let pool = BlockingPool::bounded(1, 0);
        let gate = saturate(&pool, 1);
        for _ in 0..64 {
            assert!(pool.try_spawn(|| {}).is_ok());
        }
        open_gate(&gate);
    }

    #[test]
    fn infallible_spawn_ignores_the_bound() {
        let pool = BlockingPool::bounded(1, 1);
        let gate = saturate(&pool, 1);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        open_gate(&gate);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) < 8 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(done.load(Ordering::SeqCst), 8, "spawn must never drop jobs");
    }
}
