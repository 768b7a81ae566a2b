//! # sda-sim — deterministic discrete-event simulation engine
//!
//! This crate is the simulation substrate for the reproduction of Kao &
//! Garcia-Molina, *Deadline Assignment in a Distributed Soft Real-Time
//! System* (ICDCS '93). The paper's experiments were written in the DeNet
//! simulation language; this crate provides the equivalent machinery as a
//! library:
//!
//! * [`SimTime`] — a totally-ordered simulation clock value,
//! * [`EventQueue`] — the future-event list: payloads inline in the heap,
//!   deterministic FIFO tie-breaking among simultaneous events,
//! * [`pq`] — the packed-key 4-ary heap both it and the schedulers'
//!   ready queues sit on,
//! * [`Engine`] / [`Simulation`] — the event loop and the model trait,
//! * [`rng`] — seedable, named, independent random-number streams
//!   (xoshiro256\*\* seeded via SplitMix64),
//! * [`dist`] — the distributions used by the paper's workload model
//!   (exponential, uniform, Erlang, …) with validated constructors, and
//!   the closed [`Sampler`](dist::Sampler) enum that draws them,
//! * [`stats`] — Welford tallies, time-weighted integrals, streaming
//!   quantiles and confidence intervals for replicated experiments.
//!
//! The engine is single-threaded and fully deterministic: running the same
//! model with the same seed produces the same event trace, which the paper's
//! DeNet setup did not guarantee.
//!
//! ## Example
//!
//! A single-server queue in a few lines (the `handle` callback receives the
//! model's own event type):
//!
//! ```
//! use sda_sim::{Engine, Simulation, Context, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Arrival, Departure }
//!
//! #[derive(Default)]
//! struct Queue { in_system: u32, served: u32 }
//!
//! impl Simulation for Queue {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Context<Ev>, ev: Ev) {
//!         match ev {
//!             Ev::Arrival => {
//!                 self.in_system += 1;
//!                 if self.in_system == 1 {
//!                     ctx.schedule_in(1.0, Ev::Departure);
//!                 }
//!                 if ctx.now() < SimTime::from(10.0) {
//!                     ctx.schedule_in(2.0, Ev::Arrival);
//!                 }
//!             }
//!             Ev::Departure => {
//!                 self.in_system -= 1;
//!                 self.served += 1;
//!                 if self.in_system > 0 {
//!                     ctx.schedule_in(1.0, Ev::Departure);
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Queue::default());
//! engine.context_mut().schedule_at(SimTime::ZERO, Ev::Arrival);
//! let report = engine.run_until(SimTime::from(20.0));
//! assert_eq!(report.end_time, SimTime::from(20.0));
//! assert!(engine.model().served > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod event;
mod time;

pub mod dist;
pub mod mailbox;
pub mod pq;
pub mod rng;
pub mod stats;

pub use engine::{Context, Engine, RunReport, Simulation};
pub use event::{EventQueue, ScheduledEvent};
pub use time::SimTime;
