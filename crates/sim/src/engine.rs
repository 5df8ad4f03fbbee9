//! The simulation executor.

use armada_types::{SimDuration, SimTime};

use crate::queue::EventQueue;
use crate::rng::SimRng;

/// A closure scheduled as an event: runs against the world with a
/// scheduling context.
pub type Thunk<W, E> = Box<dyn FnOnce(&mut W, &mut Context<'_, W, E>)>;

/// The values a [`Simulation`] queues and dispatches.
///
/// A world with hot events of its own names them in one type, so they
/// queue by value and dispatch through one `match`; everything else
/// still schedules a closure, which [`Event::from_fn`] wraps.
pub trait Event<W>: Sized {
    /// Runs the event against `world`.
    fn fire(self, world: &mut W, ctx: &mut Context<'_, W, Self>);

    /// The event that runs `f`.
    fn from_fn(f: Thunk<W, Self>) -> Self;
}

/// The default event: a boxed closure.
pub struct Boxed<W>(Thunk<W, Boxed<W>>);

impl<W> Event<W> for Boxed<W> {
    fn fire(self, world: &mut W, ctx: &mut Context<'_, W, Self>) {
        (self.0)(world, ctx)
    }

    fn from_fn(f: Thunk<W, Self>) -> Self {
        Boxed(f)
    }
}

/// The scheduling context handed to every executing event.
///
/// Events use it to read the virtual clock, draw deterministic random
/// numbers and schedule further events, which queue behind every event
/// already scheduled for the same instant.
pub struct Context<'a, W, E = Boxed<W>> {
    now: SimTime,
    rng: &'a mut SimRng,
    queue: &'a mut EventQueue<E>,
    _world: std::marker::PhantomData<fn(&mut W)>,
}

impl<'a, W, E: Event<W>> Context<'a, W, E> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run's root RNG. Prefer deriving labelled sub-streams via
    /// [`SimRng::stream`] in long-lived components.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Schedules `event` at absolute time `at`. Times in the past are
    /// clamped to "immediately after the current event".
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.queue.push(at.max(self.now), event);
    }

    /// Schedules `f` to run at absolute time `at`, clamped as
    /// [`Context::schedule`] clamps.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Context<'_, W, E>) + 'static,
    ) {
        self.schedule(at, E::from_fn(Box::new(f)));
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut W, &mut Context<'_, W, E>) + 'static,
    ) {
        self.schedule_at(self.now + delay, f);
    }

    /// Schedules a recurring task. `f` runs every `period` starting
    /// `first_delay` from now, until it returns `false`.
    pub fn schedule_periodic(
        &mut self,
        first_delay: SimDuration,
        period: SimDuration,
        f: impl FnMut(&mut W, &mut Context<'_, W, E>) -> bool + 'static,
    ) {
        fn tick<W, E: Event<W>>(
            mut f: impl FnMut(&mut W, &mut Context<'_, W, E>) -> bool + 'static,
            period: SimDuration,
        ) -> impl FnOnce(&mut W, &mut Context<'_, W, E>) + 'static {
            move |world, ctx| {
                if f(world, ctx) {
                    ctx.schedule_in(period, tick(f, period));
                }
            }
        }
        self.schedule_in(first_delay, tick(f, period));
    }
}

/// A deterministic discrete-event simulation over a world type `W`,
/// dispatching events of type `E` (boxed closures unless the world
/// names its own).
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Simulation<W, E = Boxed<W>> {
    world: W,
    clock: SimTime,
    queue: EventQueue<E>,
    rng: SimRng,
    executed: u64,
}

impl<W> Simulation<W> {
    /// Creates a simulation of closures over `world`, seeding all
    /// randomness from `seed`.
    pub fn new(world: W, seed: u64) -> Self {
        Simulation::with_events(world, seed)
    }
}

impl<W, E: Event<W>> Simulation<W, E> {
    /// Creates a simulation of `E` events over `world`, seeding all
    /// randomness from `seed`.
    pub fn with_events(world: W, seed: u64) -> Self {
        Simulation {
            world,
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: SimRng::seed_from(seed),
            executed: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// The run's root RNG.
    pub fn rng(&self) -> &SimRng {
        &self.rng
    }

    /// Schedules `f` at absolute time `at` (clamped to now if in the
    /// past).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Context<'_, W, E>) + 'static,
    ) {
        self.queue.push(at.max(self.clock), E::from_fn(Box::new(f)));
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut W, &mut Context<'_, W, E>) + 'static,
    ) {
        self.schedule_at(self.clock + delay, f);
    }

    /// Schedules a recurring task (see [`Context::schedule_periodic`]).
    pub fn schedule_periodic(
        &mut self,
        first_delay: SimDuration,
        period: SimDuration,
        f: impl FnMut(&mut W, &mut Context<'_, W, E>) -> bool + 'static,
    ) {
        let start = self.clock;
        self.schedule_at(start + first_delay, move |world, ctx| {
            let mut f = f;
            if f(world, ctx) {
                let period = period;
                ctx.schedule_periodic(period, period, f);
            }
        });
    }

    /// Executes the single earliest pending event, advancing the clock to
    /// its timestamp. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.step_until(SimTime::MAX)
    }

    /// [`Simulation::step`], if the earliest event is due by `deadline`.
    fn step_until(&mut self, deadline: SimTime) -> bool {
        let Some((time, event)) = self.queue.pop_until(deadline) else {
            return false;
        };
        debug_assert!(time >= self.clock, "event queue went backwards");
        self.clock = time;
        let mut ctx = Context {
            now: time,
            rng: &mut self.rng,
            queue: &mut self.queue,
            _world: std::marker::PhantomData,
        };
        event.fire(&mut self.world, &mut ctx);
        self.executed += 1;
        true
    }

    /// Runs until the event queue is exhausted. Returns the final time.
    ///
    /// Beware self-perpetuating periodic tasks: use [`Simulation::run_until`]
    /// when the workload never drains on its own.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.clock
    }

    /// Runs events with timestamps `<= deadline`, then advances the clock
    /// to exactly `deadline` (even if the queue drained earlier). Pending
    /// later events remain queued.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while self.step_until(deadline) {}
        self.clock = self.clock.max(deadline);
        self.clock
    }
}

impl<W: std::fmt::Debug, E> std::fmt::Debug for Simulation<W, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.clock)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Simulation::new(Vec::new(), 0);
        sim.schedule_in(SimDuration::from_millis(30), |w: &mut Vec<u32>, _| {
            w.push(3)
        });
        sim.schedule_in(SimDuration::from_millis(10), |w: &mut Vec<u32>, _| {
            w.push(1)
        });
        sim.schedule_in(SimDuration::from_millis(20), |w: &mut Vec<u32>, _| {
            w.push(2)
        });
        sim.run();
        assert_eq!(sim.world(), &vec![1, 2, 3]);
        assert_eq!(sim.executed, 3);
    }

    #[test]
    fn nested_scheduling_works() {
        let mut sim = Simulation::new(0u64, 0);
        sim.schedule_in(SimDuration::from_millis(1), |w, ctx| {
            *w += 1;
            ctx.schedule_in(SimDuration::from_millis(1), |w, ctx| {
                *w += 10;
                ctx.schedule_in(SimDuration::from_millis(1), |w, _| *w += 100);
            });
        });
        let end = sim.run();
        assert_eq!(*sim.world(), 111);
        assert_eq!(end, SimTime::from_millis(3));
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Simulation::new(Vec::new(), 0);
        for ms in [5u64, 15, 25] {
            sim.schedule_at(SimTime::from_millis(ms), move |w: &mut Vec<u64>, _| {
                w.push(ms)
            });
        }
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.world(), &vec![5, 15]);
        assert_eq!(sim.now(), SimTime::from_millis(20));
        assert_eq!(sim.queue.len(), 1);
        sim.run();
        assert_eq!(sim.world(), &vec![5, 15, 25]);
    }

    #[test]
    fn run_until_advances_clock_even_when_empty() {
        let mut sim = Simulation::new((), 0);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn periodic_tasks_repeat_until_false() {
        let mut sim = Simulation::new(0u32, 0);
        sim.schedule_periodic(
            SimDuration::from_millis(10),
            SimDuration::from_millis(10),
            |count, _| {
                *count += 1;
                *count < 5
            },
        );
        sim.run();
        assert_eq!(*sim.world(), 5);
        assert_eq!(sim.now(), SimTime::from_millis(50));
    }

    #[test]
    fn periodic_from_context_keeps_cadence() {
        let mut sim = Simulation::new(Vec::new(), 0);
        sim.schedule_in(SimDuration::from_millis(5), |_, ctx| {
            ctx.schedule_periodic(
                SimDuration::from_millis(10),
                SimDuration::from_millis(10),
                |w: &mut Vec<u64>, ctx| {
                    w.push(ctx.now().as_micros() / 1000);
                    w.len() < 3
                },
            );
        });
        sim.run();
        assert_eq!(sim.world(), &vec![15, 25, 35]);
    }

    #[test]
    fn past_times_clamp_to_now() {
        let mut sim = Simulation::new(Vec::new(), 0);
        sim.schedule_at(SimTime::from_millis(10), |w: &mut Vec<&str>, ctx| {
            w.push("first");
            // Scheduling "in the past" runs immediately after, not before.
            ctx.schedule_at(SimTime::ZERO, |w, _| w.push("clamped"));
        });
        sim.run();
        assert_eq!(sim.world(), &vec!["first", "clamped"]);
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> Vec<u64> {
            let mut sim = Simulation::new(Vec::new(), seed);
            sim.schedule_periodic(
                SimDuration::from_millis(1),
                SimDuration::from_millis(1),
                |w: &mut Vec<u64>, ctx| {
                    let x = ctx.rng().next_u64();
                    w.push(x);
                    w.len() < 20
                },
            );
            sim.run();
            sim.into_world()
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn simultaneous_events_fifo_across_nesting() {
        let mut sim = Simulation::new(Vec::new(), 0);
        let t = SimTime::from_millis(5);
        sim.schedule_at(t, |w: &mut Vec<u32>, ctx| {
            w.push(1);
            // Same-time event scheduled during execution runs after
            // already-queued same-time events.
            ctx.schedule_at(ctx.now(), |w, _| w.push(3));
        });
        sim.schedule_at(t, |w: &mut Vec<u32>, _| w.push(2));
        sim.run();
        assert_eq!(sim.world(), &vec![1, 2, 3]);
    }
}
