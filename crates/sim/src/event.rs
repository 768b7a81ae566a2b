//! The future-event list: a priority queue of `(time, payload)` pairs
//! with deterministic FIFO tie-breaking.
//!
//! Events are never withdrawn once scheduled — preemption invalidates a
//! stale completion by an epoch carried in the event itself, not by
//! cancelling it — so the payload travels inline in the heap entry: one
//! heap push per schedule, one heap pop per event, no side tables.
//!
//! Entries order by `(time, sequence)`, so simultaneous events fire in
//! FIFO order — the property that makes the whole simulation
//! deterministic. The pair is packed into one `u128`
//! ([`pq::key_from_f64`] bits above the sequence number) so the
//! underlying [`pq::MinHeap`] compares a single integer per sift step.

use std::fmt;

use crate::pq::{self, MinHeap};
use crate::time::SimTime;

/// An event extracted from the queue: its firing time plus the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The simulation time at which the event fires.
    pub time: SimTime,
    /// The model-defined payload.
    pub event: E,
}

/// Packs `(time, seq)` into the heap key: time bits (order-preserving)
/// above, insertion sequence below, so simultaneous events fire in FIFO
/// order — the property that makes the whole simulation deterministic.
#[inline]
fn pack_key(time: SimTime, seq: u64) -> u128 {
    (u128::from(pq::key_from_f64(time.as_f64())) << 64) | u128::from(seq)
}

/// Seeded bijective scramble of the FIFO sequence (a splitmix64-style
/// finalizer: add, xor-shift, odd multiplies). Being a bijection on
/// `u64`, scrambled sequences stay unique — no two heap keys ever
/// collide — while the *order* of simultaneous events becomes a seeded
/// pseudo-random permutation. Time order is untouched: the scramble
/// only fills the low 64 bits of the packed key.
#[inline]
fn scramble_seq(seq: u64, seed: u64) -> u64 {
    let mut z = seq.wrapping_add(seed);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline]
fn time_of_key(key: u128) -> SimTime {
    SimTime::new(pq::f64_from_key((key >> 64) as u64))
}

/// A future-event list: a priority queue of `(time, payload)` pairs with
/// deterministic FIFO ordering among simultaneous events.
///
/// # Examples
///
/// ```
/// use sda_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from(2.0), "late");
/// q.schedule(SimTime::from(1.0), "early");
/// q.schedule(SimTime::from(1.0), "early-2nd");
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "early-2nd");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: MinHeap<E>,
    next_seq: u64,
    /// Order-fuzz seed: 0 = exact FIFO among simultaneous events (the
    /// default); non-zero scrambles the sequence bits of every key
    /// through [`scramble_seq`], turning same-timestamp order into a
    /// seeded permutation.
    fuzz: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: MinHeap::new(),
            next_seq: 0,
            fuzz: 0,
        }
    }

    /// The sequence bits the next event's key will carry: the raw FIFO
    /// sequence by default, a seeded bijective scramble of it under
    /// order fuzz.
    #[inline]
    fn key_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.fuzz == 0 {
            seq
        } else {
            scramble_seq(seq, self.fuzz)
        }
    }

    /// Sets the order-fuzz seed. `0` (the default) keeps the documented
    /// FIFO order among simultaneous events; any other value replaces
    /// that tie order with a seeded pseudo-random permutation (still
    /// fully deterministic for a given seed, and never affecting the
    /// time order). A model whose observable behavior is tie-order
    /// independent — as a discrete-event simulation over continuous
    /// distributions should be — produces identical results under every
    /// seed, which is exactly what fuzz harnesses assert.
    ///
    /// Affects only events scheduled *after* the call; set it before
    /// scheduling anything for a whole-run permutation.
    pub fn set_order_fuzz(&mut self, seed: u64) {
        self.fuzz = seed;
    }

    /// The active order-fuzz seed (0 = exact FIFO).
    pub fn order_fuzz(&self) -> u64 {
        self.fuzz
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.key_seq();
        self.heap.push(pack_key(time, seq), event);
    }

    /// Removes and returns the earliest pending event. Returns `None`
    /// when the queue is empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let (key, event) = self.heap.pop()?;
        Some(ScheduledEvent {
            time: time_of_key(key),
            event,
        })
    }

    /// Pops the earliest pending event only if it fires at or before
    /// `horizon` — the one-heap-access fast path for
    /// [`Engine::run_until`](crate::Engine::run_until) loops.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        let (key, _) = self.heap.peek()?;
        if (key >> 64) as u64 > pq::key_from_f64(horizon.as_f64()) {
            return None;
        }
        self.pop()
    }

    /// Pops the earliest pending event only if it fires strictly before
    /// `bound` — the window-loop variant of
    /// [`EventQueue::pop_at_or_before`] used by the sharded engine, where
    /// a window `[T, T + W)` owns its left edge but not its right.
    pub fn pop_before(&mut self, bound: SimTime) -> Option<ScheduledEvent<E>> {
        let (key, _) = self.heap.peek()?;
        if (key >> 64) as u64 >= pq::key_from_f64(bound.as_f64()) {
            return None;
        }
        self.pop()
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|(key, _)| time_of_key(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (fired or pending).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from(3.0), 3);
        q.schedule(SimTime::from(1.0), 1);
        q.schedule(SimTime::from(2.0), 2);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from(1.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn peek_time_reports_the_head_without_removing_it() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from(5.0), "b");
        q.schedule(SimTime::from(1.0), "a");
        assert_eq!(q.peek_time(), Some(SimTime::from(1.0)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.peek_time(), Some(SimTime::from(5.0)));
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn scheduled_total_counts_everything() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0);
        q.schedule(SimTime::ZERO, 1);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2, "fired events still count");
    }

    #[test]
    fn pop_before_is_strict() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from(1.0), "a");
        q.schedule(SimTime::from(2.0), "b");
        assert_eq!(q.pop_before(SimTime::from(1.0)), None, "bound is exclusive");
        assert_eq!(q.pop_before(SimTime::from(2.0)).unwrap().event, "a");
        assert_eq!(q.pop_before(SimTime::from(2.0)), None);
        assert_eq!(q.pop_at_or_before(SimTime::from(2.0)).unwrap().event, "b");
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(!format!("{q:?}").is_empty());
    }

    #[test]
    fn order_fuzz_permutes_only_same_timestamp_order() {
        // Two timestamps, many events each: fuzz must keep the time
        // order exact, deliver every event exactly once, and actually
        // permute the equal-time order for some seed.
        let run = |fuzz: u64| -> Vec<i32> {
            let mut q = EventQueue::new();
            q.set_order_fuzz(fuzz);
            for i in 0..32 {
                q.schedule(SimTime::from(1.0), i);
                q.schedule(SimTime::from(2.0), 100 + i);
            }
            let mut out = Vec::new();
            while let Some(ev) = q.pop() {
                out.push(ev.event);
            }
            out
        };
        let fifo = run(0);
        assert_eq!(fifo, (0..32).chain(100..132).collect::<Vec<_>>());
        let mut any_permuted = false;
        for seed in 1..=8u64 {
            let fuzzed = run(seed);
            // Same multiset, and all t=1 events still precede all t=2.
            let mut sorted = fuzzed.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, fifo, "seed {seed} lost or duplicated events");
            assert!(
                fuzzed[..32].iter().all(|&e| e < 100),
                "seed {seed} let a t=2 event jump the time order"
            );
            if fuzzed != fifo {
                any_permuted = true;
            }
            // Determinism: the same seed replays the same permutation.
            assert_eq!(fuzzed, run(seed), "seed {seed} is not deterministic");
        }
        assert!(any_permuted, "no seed permuted the tie order");
    }

    #[test]
    fn order_fuzz_zero_is_identity_and_scramble_is_bijective() {
        assert_eq!(EventQueue::<u8>::new().order_fuzz(), 0);
        // Injectivity spot-check over a window of sequences.
        let mut seen: Vec<u64> = (0..4096).map(|s| scramble_seq(s, 0xF722)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4096, "scramble collided within a window");
    }
}
