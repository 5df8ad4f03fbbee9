//! A processor-sharing executor modelling contention on heterogeneous
//! multi-core edge nodes.
//!
//! Each in-flight frame needs `base_frame_time` of dedicated-core work.
//! While at most `cores` frames are in flight each runs at full speed;
//! beyond that the node's cores are shared equally, so every job slows
//! down by `cores / n`. Queueing delay and overload degradation therefore
//! *emerge* from arrivals rather than being assumed — which is exactly
//! the phenomenon the paper's what-if probing must observe.

use armada_types::{HardwareProfile, SimDuration, SimTime};

/// Work remaining below this many core-microseconds counts as complete
/// (guards floating-point residue).
const EPS_US: f64 = 1e-6;

#[derive(Debug, Clone)]
struct Job<T> {
    tag: T,
    remaining_us: f64,
}

/// A processor-sharing executor over jobs tagged with caller-chosen
/// metadata `T`.
///
/// The owner drives it with virtual time: [`PsExecutor::admit`] new work,
/// [`PsExecutor::advance`] to collect completions (or their `_into`
/// forms, which append to a buffer the caller keeps), and
/// [`PsExecutor::next_completion`] to know when to schedule the next
/// wake-up. The `epoch` counter increments on every state change so
/// stale wake-up events can be recognised and dropped.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct PsExecutor<T> {
    cores: f64,
    base_work_us: f64,
    jobs: Vec<Job<T>>,
    last_update: SimTime,
    epoch: u64,
}

impl<T> PsExecutor<T> {
    /// Creates an idle executor for the given hardware.
    pub fn new(hw: &HardwareProfile) -> Self {
        PsExecutor {
            cores: hw.concurrency() as f64,
            base_work_us: hw.base_frame_time().as_micros() as f64,
            jobs: Vec::new(),
            last_update: SimTime::ZERO,
            epoch: 0,
        }
    }

    /// Number of jobs currently in flight.
    pub fn in_flight(&self) -> usize {
        self.jobs.len()
    }

    /// The state-change counter. Incremented by every admit and every
    /// completion; callers embed it in scheduled wake-ups to detect
    /// staleness.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The per-job speed factor at the current load (1.0 when
    /// uncontended).
    pub fn speed_factor(&self) -> f64 {
        let n = self.jobs.len() as f64;
        if n <= self.cores {
            1.0
        } else {
            self.cores / n
        }
    }

    /// Admits one frame's worth of work at time `now`, first accounting
    /// for progress up to `now`. Returns completions that occurred
    /// strictly before the admission.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` precedes the executor's last
    /// update (time must be monotone).
    pub fn admit(&mut self, tag: T, now: SimTime) -> Vec<(T, SimTime)> {
        let mut done = Vec::new();
        self.admit_into(tag, now, &mut done);
        done
    }

    /// [`PsExecutor::admit`], appending the completions to `done`.
    pub fn admit_into(&mut self, tag: T, now: SimTime, done: &mut Vec<(T, SimTime)>) {
        self.advance_into(now, done);
        self.jobs.push(Job {
            tag,
            remaining_us: self.base_work_us,
        });
        self.epoch += 1;
    }

    /// Advances virtual time to `now`, applying processor-sharing
    /// progress piecewise across completion boundaries. Returns the jobs
    /// that completed, with their exact completion times, in completion
    /// order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now` precedes the last update.
    pub fn advance(&mut self, now: SimTime) -> Vec<(T, SimTime)> {
        let mut done = Vec::new();
        self.advance_into(now, &mut done);
        done
    }

    /// [`PsExecutor::advance`], appending the completions to `done`.
    pub fn advance_into(&mut self, now: SimTime, done: &mut Vec<(T, SimTime)>) {
        debug_assert!(now >= self.last_update, "executor time went backwards");
        let before = done.len();
        let mut cursor = self.last_update;
        while cursor < now && !self.jobs.is_empty() {
            let rate = self.speed_factor();
            let min_remaining = self
                .jobs
                .iter()
                .map(|j| j.remaining_us)
                .fold(f64::INFINITY, f64::min);
            let to_boundary_us = min_remaining / rate;
            let available_us = (now - cursor).as_micros() as f64;
            if to_boundary_us <= available_us + EPS_US {
                // Run to the completion boundary, harvest finished jobs.
                let boundary = cursor + SimDuration::from_micros(to_boundary_us.round() as u64);
                let boundary = boundary.min(now);
                for job in &mut self.jobs {
                    job.remaining_us -= to_boundary_us * rate;
                }
                let mut i = 0;
                while i < self.jobs.len() {
                    if self.jobs[i].remaining_us <= EPS_US {
                        let job = self.jobs.swap_remove(i);
                        done.push((job.tag, boundary));
                        self.epoch += 1;
                    } else {
                        i += 1;
                    }
                }
                cursor = boundary;
                // Guard against zero-length boundaries stalling the loop.
                if to_boundary_us <= EPS_US && done.len() == before {
                    break;
                }
            } else {
                for job in &mut self.jobs {
                    job.remaining_us -= available_us * rate;
                }
                cursor = now;
            }
        }
        self.last_update = now;
    }

    /// Predicts when the earliest in-flight job will finish, assuming no
    /// further arrivals: `(epoch, completion_time)`. Returns `None` when
    /// idle.
    ///
    /// The state must already be advanced to `now`; the prediction is the
    /// minimum remaining work divided by the current sharing rate.
    pub fn next_completion(&self, now: SimTime) -> Option<(u64, SimTime)> {
        let min_remaining = self
            .jobs
            .iter()
            .map(|j| j.remaining_us)
            .fold(f64::INFINITY, f64::min);
        if !min_remaining.is_finite() {
            return None;
        }
        let wait_us = min_remaining / self.speed_factor();
        let base = now.max(self.last_update);
        Some((
            self.epoch,
            base + SimDuration::from_micros(wait_us.ceil() as u64),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_types::HardwareProfile;
    use proptest::prelude::*;

    /// Test helper: a profile whose frame concurrency equals its core
    /// count (the executor shares by concurrency, not raw cores).
    fn hw(cores: u32, frame_ms: f64) -> HardwareProfile {
        HardwareProfile::new("test", cores, frame_ms).with_concurrency(cores)
    }

    #[test]
    fn single_job_takes_base_time() {
        let mut exec = PsExecutor::new(&hw(4, 30.0));
        exec.admit("a", SimTime::ZERO);
        let done = exec.advance(SimTime::from_millis(30));
        assert_eq!(done, vec![("a", SimTime::from_millis(30))]);
        assert_eq!(exec.in_flight(), 0);
    }

    #[test]
    fn up_to_cores_jobs_run_at_full_speed() {
        let mut exec = PsExecutor::new(&hw(4, 30.0));
        for tag in 0..4 {
            exec.admit(tag, SimTime::ZERO);
        }
        assert_eq!(exec.speed_factor(), 1.0);
        let done = exec.advance(SimTime::from_millis(30));
        assert_eq!(done.len(), 4);
        for (_, t) in done {
            assert_eq!(t, SimTime::from_millis(30));
        }
    }

    #[test]
    fn overload_slows_everyone() {
        // 2 cores, 8 simultaneous jobs of 30 ms: each runs at 1/4 speed,
        // so all finish at 120 ms.
        let mut exec = PsExecutor::new(&hw(2, 30.0));
        for tag in 0..8 {
            exec.admit(tag, SimTime::ZERO);
        }
        assert_eq!(exec.speed_factor(), 0.25);
        let done = exec.advance(SimTime::from_millis(120));
        assert_eq!(done.len(), 8);
        for (_, t) in &done {
            assert_eq!(*t, SimTime::from_millis(120));
        }
    }

    #[test]
    fn later_arrival_finishes_later_and_speeds_up_after_first_completes() {
        // 1 core, 30 ms frames. Job A at t=0; job B at t=10ms.
        // 0–10ms: A alone (rate 1) → A has 20ms left.
        // 10ms on: both share → each at 0.5.
        // A finishes at 10 + 20/0.5·... wait: A remaining 20ms at 0.5 → 40ms → t=50.
        // B: 10–50ms at 0.5 → 20ms done; remaining 10ms alone → t=60.
        let mut exec = PsExecutor::new(&hw(1, 30.0));
        exec.admit("a", SimTime::ZERO);
        let pre = exec.admit("b", SimTime::from_millis(10));
        assert!(pre.is_empty());
        let done = exec.advance(SimTime::from_millis(100));
        assert_eq!(
            done,
            vec![
                ("a", SimTime::from_millis(50)),
                ("b", SimTime::from_millis(60)),
            ]
        );
    }

    #[test]
    fn next_completion_predicts_exactly() {
        let mut exec = PsExecutor::new(&hw(1, 30.0));
        exec.admit("a", SimTime::ZERO);
        exec.admit("b", SimTime::ZERO);
        // Two jobs share one core: first completes at 60 ms.
        let (epoch, t) = exec.next_completion(SimTime::ZERO).unwrap();
        assert_eq!(t, SimTime::from_millis(60));
        assert_eq!(epoch, exec.epoch());
        let done = exec.advance(t);
        assert_eq!(done.len(), 2, "tied jobs complete together");
    }

    #[test]
    fn epoch_changes_on_admit_and_completion() {
        let mut exec = PsExecutor::new(&hw(2, 10.0));
        let e0 = exec.epoch();
        exec.admit((), SimTime::ZERO);
        let e1 = exec.epoch();
        assert_ne!(e0, e1);
        exec.advance(SimTime::from_millis(10));
        assert_ne!(exec.epoch(), e1);
    }

    #[test]
    fn advance_is_incremental() {
        // Advancing in many small steps equals one big step.
        let build = || {
            let mut e = PsExecutor::new(&hw(2, 25.0));
            for tag in 0..5 {
                e.admit(tag, SimTime::ZERO);
            }
            e
        };
        let mut big = build();
        let done_big = big.advance(SimTime::from_millis(200));

        let mut small = build();
        let mut done_small = Vec::new();
        for step in 1..=200 {
            done_small.extend(small.advance(SimTime::from_millis(step)));
        }
        let times = |v: &[(i32, SimTime)]| v.iter().map(|&(g, t)| (g, t)).collect::<Vec<_>>();
        assert_eq!(times(&done_big), times(&done_small));
    }

    proptest! {
        #[test]
        fn work_conservation(
            cores in 1u32..8,
            frame_ms in 5.0f64..50.0,
            arrivals in proptest::collection::vec(0u64..100_000, 1..20),
        ) {
            // Total busy time ≥ total work / cores and every job completes.
            let mut exec = PsExecutor::new(&hw(cores, frame_ms));
            let mut sorted = arrivals.clone();
            sorted.sort_unstable();
            let mut completed = Vec::new();
            for (i, &at_us) in sorted.iter().enumerate() {
                completed.extend(exec.admit(i, SimTime::from_micros(at_us)));
            }
            completed.extend(exec.advance(SimTime::from_secs(1_000)));
            prop_assert_eq!(completed.len(), sorted.len());
            prop_assert_eq!(exec.in_flight(), 0);
            // Each job's response time is at least the base frame time.
            for (idx, t) in &completed {
                let admitted = SimTime::from_micros(sorted[*idx]);
                let response = t.saturating_since(admitted);
                prop_assert!(
                    response.as_millis_f64() >= frame_ms - 0.01,
                    "response {} shorter than base {}", response, frame_ms
                );
            }
        }

        #[test]
        fn completions_never_precede_admission_order_for_simultaneous(
            n in 1usize..12,
        ) {
            let mut exec = PsExecutor::new(&hw(2, 20.0));
            for tag in 0..n {
                exec.admit(tag, SimTime::ZERO);
            }
            let done = exec.advance(SimTime::from_secs(100));
            prop_assert_eq!(done.len(), n);
            // All admitted simultaneously with equal work: all complete
            // simultaneously.
            let t0 = done[0].1;
            for (_, t) in &done {
                prop_assert_eq!(*t, t0);
            }
        }
    }
}
