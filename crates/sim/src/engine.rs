//! The event loop: [`Engine`], [`Context`] and the [`Simulation`] trait.

use std::fmt;

use crate::event::EventQueue;
use crate::time::SimTime;

/// A discrete-event model.
///
/// The engine pops the earliest event, advances the clock, and calls
/// [`Simulation::handle`], which may schedule further events through the
/// [`Context`]. See the [crate-level example](crate).
pub trait Simulation {
    /// The model-defined event payload type.
    type Event;

    /// Reacts to `event` firing at `ctx.now()`.
    fn handle(&mut self, ctx: &mut Context<Self::Event>, event: Self::Event);
}

/// The engine-side state visible to a model while it handles an event:
/// the clock and the future-event list.
pub struct Context<E> {
    now: SimTime,
    queue: EventQueue<E>,
    events_handled: u64,
}

impl<E> Context<E> {
    fn new() -> Context<E> {
        Context {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            events_handled: 0,
        }
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: the simulation
    /// cannot travel into the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.assert_future(at);
        self.queue.schedule(at, event);
    }

    /// Schedules `event` after a delay of `dt ≥ 0` model units.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative, infinite or NaN.
    pub fn schedule_in(&mut self, dt: f64, event: E) {
        self.assert_delay(dt);
        self.queue.schedule(self.now + dt, event);
    }

    #[inline]
    fn assert_future(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            at
        );
    }

    #[inline]
    fn assert_delay(&self, dt: f64) {
        assert!(
            dt.is_finite() && dt >= 0.0,
            "delay must be finite and non-negative, got {dt}"
        );
    }

    /// Sets the event queue's order-fuzz seed (see
    /// [`EventQueue::set_order_fuzz`]): 0 keeps exact FIFO order among
    /// simultaneous events, any other value replaces it with a seeded
    /// deterministic permutation. Call before seeding initial events for
    /// a whole-run permutation.
    pub fn set_order_fuzz(&mut self, seed: u64) {
        self.queue.set_order_fuzz(seed);
    }

    /// Number of events handled so far.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }
}

impl<E> fmt::Debug for Context<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("handled", &self.events_handled)
            .finish()
    }
}

/// Summary of a completed [`Engine::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// The clock value when the loop returned.
    pub end_time: SimTime,
    /// Total events handled during this call.
    pub events: u64,
}

/// The discrete-event engine: owns the model and the [`Context`].
///
/// # Examples
///
/// See the [crate-level example](crate).
pub struct Engine<S: Simulation> {
    model: S,
    ctx: Context<S::Event>,
}

impl<S: Simulation> Engine<S> {
    /// Creates an engine around `model` with an empty event list at `t = 0`.
    pub fn new(model: S) -> Engine<S> {
        Engine {
            model,
            ctx: Context::new(),
        }
    }

    /// Borrows the model.
    pub fn model(&self) -> &S {
        &self.model
    }

    /// Mutably borrows the model.
    pub fn model_mut(&mut self) -> &mut S {
        &mut self.model
    }

    /// Borrows the context (clock + event list).
    pub fn context(&self) -> &Context<S::Event> {
        &self.ctx
    }

    /// Mutably borrows the context, e.g. to seed initial events.
    pub fn context_mut(&mut self) -> &mut Context<S::Event> {
        &mut self.ctx
    }

    /// Consumes the engine, returning the model (e.g. to read final state).
    pub fn into_model(self) -> S {
        self.model
    }

    /// Runs every event at or before `horizon` (inclusive of events at
    /// exactly `horizon`), then leaves the clock at the later of its
    /// current value and `horizon` — also when the event list drains
    /// first. Later events stay queued for the next call.
    pub fn run_until(&mut self, horizon: SimTime) -> RunReport {
        let start_events = self.ctx.events_handled;
        // Single heap access per event: pop-if-due instead of
        // peek-then-pop.
        while let Some(scheduled) = self.ctx.queue.pop_at_or_before(horizon) {
            debug_assert!(scheduled.time >= self.ctx.now, "event list went backwards");
            self.ctx.now = scheduled.time;
            self.ctx.events_handled += 1;
            self.model.handle(&mut self.ctx, scheduled.event);
        }
        if self.ctx.now < horizon {
            self.ctx.now = horizon;
        }
        RunReport {
            end_time: self.ctx.now,
            events: self.ctx.events_handled - start_events,
        }
    }
}

impl<S: Simulation + fmt::Debug> fmt::Debug for Engine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("model", &self.model)
            .field("ctx", &self.ctx)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Ticker {
        ticks: u32,
        limit: u32,
    }

    #[derive(Debug)]
    struct Tick;

    impl Simulation for Ticker {
        type Event = Tick;
        fn handle(&mut self, ctx: &mut Context<Tick>, _: Tick) {
            self.ticks += 1;
            if self.ticks < self.limit {
                ctx.schedule_in(1.0, Tick);
            }
        }
    }

    fn ticker(limit: u32) -> Engine<Ticker> {
        let mut e = Engine::new(Ticker { ticks: 0, limit });
        e.context_mut().schedule_at(SimTime::ZERO, Tick);
        e
    }

    #[test]
    fn run_until_drains_queue_and_parks_the_clock_at_the_horizon() {
        let mut e = ticker(5);
        let report = e.run_until(SimTime::from(10.0));
        assert_eq!(e.model().ticks, 5);
        assert_eq!(report.events, 5);
        // The last event fired at t = 4; the clock still reaches the
        // horizon once the list has drained.
        assert_eq!(report.end_time, SimTime::from(10.0));
        assert_eq!(e.context().now(), SimTime::from(10.0));
    }

    #[test]
    fn run_until_respects_horizon_and_advances_clock() {
        let mut e = ticker(100);
        let report = e.run_until(SimTime::from(2.5));
        assert_eq!(report.events, 3);
        // Events at t = 0, 1, 2 fire; the next would be at 3.0 > 2.5.
        assert_eq!(e.model().ticks, 3);
        assert_eq!(e.context().now(), SimTime::from(2.5));
        // Continuing picks up where we left off.
        let report = e.run_until(SimTime::from(1_000.0));
        assert_eq!(report.events, 97);
        assert_eq!(e.model().ticks, 100);
    }

    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        let mut e = ticker(2);
        e.run_until(SimTime::from(10.0));
        e.context_mut().schedule_at(SimTime::ZERO, Tick);
    }

    #[test]
    fn into_model_returns_state() {
        let mut e = ticker(2);
        e.run_until(SimTime::from(10.0));
        assert_eq!(e.into_model().ticks, 2);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_delay_panics() {
        let mut e = ticker(1);
        e.context_mut().schedule_in(f64::NAN, Tick);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_delay_panics() {
        let mut e = ticker(1);
        e.context_mut().schedule_in(f64::INFINITY, Tick);
    }

    #[test]
    fn invalid_delays_panic_with_the_exact_message() {
        // Drive the scheduler from inside a handler, as models do, and
        // pin the whole message for each kind of bad delay.
        struct Probe {
            bad: f64,
        }
        impl Simulation for Probe {
            type Event = ();
            fn handle(&mut self, ctx: &mut Context<()>, _event: ()) {
                ctx.schedule_in(self.bad, ());
            }
        }
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut e = Engine::new(Probe { bad });
                e.context_mut().schedule_at(SimTime::ZERO, ());
                e.run_until(SimTime::from(1.0));
            }))
            .expect_err("schedule_in must panic");
            let msg = match caught.downcast::<String>() {
                Ok(s) => *s,
                Err(other) => (*other
                    .downcast::<&'static str>()
                    .expect("panic payload is a string"))
                .to_owned(),
            };
            assert_eq!(
                msg,
                format!("delay must be finite and non-negative, got {bad}")
            );
        }
    }

    #[test]
    fn events_handled_accumulates_across_calls() {
        let mut e = ticker(10);
        e.run_until(SimTime::from(3.0));
        e.run_until(SimTime::from(100.0));
        assert_eq!(e.context().events_handled(), 10);
    }
}
