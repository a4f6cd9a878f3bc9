//! # simkit — deterministic discrete-event simulation kernel
//!
//! The substrate under the StopWatch reproduction. The original StopWatch
//! (Li, Gao, Reiter — DSN 2013) is a Xen modification running on physical
//! hosts; this workspace re-creates the whole platform as a deterministic
//! discrete-event simulation, and `simkit` provides the three primitives the
//! rest of the stack builds on:
//!
//! * [`time`] — nanosecond [`time::SimTime`] (simulated real time) and
//!   [`time::VirtNanos`] (guest virtual time), kept apart by the type system;
//! * [`engine`] — the event loop ([`engine::Sim`]) with deterministic
//!   tie-breaking, dispatching each world's closed event type through
//!   [`engine::World`];
//! * [`slab`] — a free-list slab parking large event payloads
//!   ([`slab::Slab`]);
//! * [`rng`] — seeded, label-splittable random streams ([`rng::SimRng`]);
//! * [`metrics`] — exact-percentile sample sets and counters.
//!
//! # Examples
//!
//! ```
//! use simkit::prelude::*;
//!
//! #[derive(Default)]
//! struct Counter { arrivals: u32 }
//!
//! struct Arrival;
//!
//! impl World for Counter {
//!     type Event = Arrival;
//!     fn handle(&mut self, _sim: &mut Sim<Self>, _event: Arrival) {
//!         self.arrivals += 1;
//!     }
//! }
//!
//! let mut sim: Sim<Counter> = Sim::new();
//! let mut world = Counter::default();
//! // A Poisson-ish arrival process, deterministic under the seed.
//! let mut rng = SimRng::new(42).stream("arrivals");
//! let mut t = SimTime::ZERO;
//! for _ in 0..10 {
//!     t = t + rng.exp_duration(SimDuration::from_millis(3));
//!     sim.schedule(t, Arrival);
//! }
//! sim.run(&mut world);
//! assert_eq!(world.arrivals, 10);
//! ```

pub mod engine;
pub mod fxhash;
pub mod metrics;
pub mod rng;
pub mod slab;
pub mod time;
mod wheel;

/// One-line import for the common types.
pub mod prelude {
    pub use crate::engine::{EventId, Sim, World};
    pub use crate::metrics::{Counters, Samples};
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimTime, VirtNanos, VirtOffset};
}
