//! A deterministic discrete-event simulation engine.
//!
//! All of Armada's protocol logic — probing, joins, frame offloading,
//! churn, failover — runs on virtual time supplied by this engine, which
//! makes every experiment in the paper exactly reproducible from a seed.
//!
//! The engine is deliberately small: a virtual clock, a stable event
//! queue (a radix heap whose payloads sit in a slab), seeded RNG
//! streams, and an executor that dispatches events against a
//! user-supplied world type `W`. An event is a boxed closure unless the
//! world names its own [`Event`] type, whose hot variants then queue by
//! value.
//!
//! # Examples
//!
//! ```
//! use armada_sim::Simulation;
//! use armada_types::{SimDuration, SimTime};
//!
//! // The "world" is any state the events mutate.
//! let mut sim = Simulation::new(Vec::<u64>::new(), 42);
//! sim.schedule_in(SimDuration::from_millis(5), |world, ctx| {
//!     world.push(ctx.now().as_micros());
//!     // Events can schedule more events.
//!     ctx.schedule_in(SimDuration::from_millis(10), |world, ctx| {
//!         world.push(ctx.now().as_micros());
//!     });
//! });
//! sim.run();
//! assert_eq!(sim.world(), &vec![5_000, 15_000]);
//! assert_eq!(sim.now(), SimTime::from_millis(15));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod queue;
mod rng;

pub use engine::{Boxed, Context, Event, Simulation, Thunk};
pub use queue::EventQueue;
pub use rng::SimRng;
