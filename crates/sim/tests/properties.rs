//! Property-based tests for the simulation substrate.

use proptest::prelude::*;

use sda_sim::dist::{Erlang, Exponential, Uniform};
use sda_sim::rng::RngFactory;
use sda_sim::stats::{Ratio, Tally};
use sda_sim::{EventQueue, SimTime};

proptest! {
    /// The event queue pops every scheduled event exactly once, in
    /// non-decreasing time order, with FIFO order among equal times —
    /// i.e. it is a stable sort of the input by time.
    #[test]
    fn event_queue_is_stable_time_sort(times in prop::collection::vec(0.0f64..100.0, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            // Quantize times so duplicates actually occur.
            q.schedule(SimTime::from((t * 4.0).floor() / 4.0), i);
        }
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push((ev.time, ev.event));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// The queue matches a naive reference model under arbitrary
    /// interleavings of scheduling and popping: pops come in
    /// (time, insertion) order, every event comes out exactly once, and
    /// `len` tracks the model after every operation.
    #[test]
    fn event_queue_matches_reference_model(
        ops in prop::collection::vec((any::<bool>(), 0.0f64..64.0), 1..400),
    ) {
        let mut q = EventQueue::new();
        // Reference: (time, id) of pending events; ids are insertion order.
        let mut pending: Vec<(f64, usize)> = Vec::new();
        let mut id = 0usize;
        for (is_schedule, t) in ops {
            if is_schedule {
                // Quantize times so equal-time FIFO ordering is exercised.
                let t = (t * 2.0).floor() / 2.0;
                q.schedule(SimTime::from(t), id);
                pending.push((t, id));
                id += 1;
            } else {
                let expect = pending
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(a.1 .1.cmp(&b.1 .1)))
                    .map(|(k, _)| k)
                    .map(|k| pending.remove(k));
                let got = q.pop().map(|ev| (ev.time, ev.event));
                prop_assert_eq!(got, expect.map(|(t, i)| (SimTime::from(t), i)));
            }
            prop_assert_eq!(q.len(), pending.len());
        }
        // Drain: the remainder comes out in reference order.
        pending.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (t, i) in pending {
            let got = q.pop().expect("queue drained early");
            prop_assert_eq!((got.time, got.event), (SimTime::from(t), i));
        }
        prop_assert!(q.pop().is_none());
        prop_assert_eq!(q.scheduled_total(), id as u64);
    }

    /// The same interleavings under a non-zero order-fuzz seed: time
    /// order stays exact and every event is delivered exactly once; only
    /// the order among equal times may differ from the model.
    #[test]
    fn fuzzed_event_queue_keeps_time_order_and_delivers_once(
        seed in 1u64..u64::MAX,
        ops in prop::collection::vec((any::<bool>(), 0.0f64..64.0), 1..400),
    ) {
        let mut q = EventQueue::new();
        q.set_order_fuzz(seed);
        let mut pending: Vec<(f64, usize)> = Vec::new();
        let mut delivered = Vec::new();
        let mut id = 0usize;
        for (is_schedule, t) in ops {
            if is_schedule {
                let t = (t * 2.0).floor() / 2.0;
                q.schedule(SimTime::from(t), id);
                pending.push((t, id));
                id += 1;
            } else {
                let earliest = pending.iter().map(|&(t, _)| t).min_by(f64::total_cmp);
                match q.pop() {
                    Some(ev) => {
                        // The popped event is pending and none fires earlier.
                        prop_assert_eq!(Some(ev.time), earliest.map(SimTime::from));
                        let k = pending.iter().position(|&(_, i)| i == ev.event);
                        prop_assert!(k.is_some(), "event {} delivered twice", ev.event);
                        prop_assert_eq!(SimTime::from(pending.swap_remove(k.unwrap()).0), ev.time);
                        delivered.push(ev.event);
                    }
                    None => prop_assert!(pending.is_empty(), "pop missed a pending event"),
                }
            }
            prop_assert_eq!(q.len(), pending.len());
        }
        let mut last = SimTime::ZERO;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.time >= last, "time order violated");
            last = ev.time;
            delivered.push(ev.event);
        }
        delivered.sort_unstable();
        prop_assert_eq!(delivered, (0..id).collect::<Vec<_>>());
    }

    /// `pop_at_or_before(h)` returns exactly the events `pop` would,
    /// stopping at the horizon, for arbitrary schedules and horizons.
    #[test]
    fn pop_at_or_before_agrees_with_pop(
        times in prop::collection::vec(0.0f64..100.0, 0..150),
        horizon in 0.0f64..120.0,
    ) {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            let t = (t * 4.0).floor() / 4.0;
            a.schedule(SimTime::from(t), i);
            b.schedule(SimTime::from(t), i);
        }
        let h = SimTime::from(horizon);
        loop {
            let via_bounded = a.pop_at_or_before(h);
            let expected = match b.peek_time() {
                Some(t) if t <= h => b.pop(),
                _ => None,
            };
            prop_assert_eq!(&via_bounded, &expected);
            if via_bounded.is_none() {
                break;
            }
        }
        // The bounded pop left everything beyond the horizon untouched.
        prop_assert_eq!(a.len(), b.len());
    }

    /// Welford tally matches the naive two-pass computation.
    #[test]
    fn tally_matches_two_pass(xs in prop::collection::vec(-1e3f64..1e3, 2..300)) {
        let t: Tally = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        prop_assert!((t.mean() - mean).abs() < 1e-6);
        prop_assert!((t.variance() - var).abs() < 1e-4 * var.max(1.0));
        prop_assert_eq!(t.count(), xs.len() as u64);
    }

    /// Merging split tallies equals the whole, at any split point.
    #[test]
    fn tally_merge_associative(xs in prop::collection::vec(-50.0f64..50.0, 2..100), cut in 0usize..100) {
        let cut = cut % xs.len();
        let (a, b) = xs.split_at(cut);
        let mut ta: Tally = a.iter().copied().collect();
        let tb: Tally = b.iter().copied().collect();
        ta.merge(&tb);
        let whole: Tally = xs.iter().copied().collect();
        prop_assert!((ta.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((ta.variance() - whole.variance()).abs() < 1e-6);
    }

    /// Uniform samples stay in range; exponential and Erlang samples are
    /// non-negative, for arbitrary parameters and seeds.
    #[test]
    fn distribution_supports(seed in any::<u64>(), lo in -5.0f64..5.0, width in 0.0f64..10.0, mean in 0.01f64..100.0) {
        let mut rng = RngFactory::new(seed).stream("support");
        let u = Uniform::new(lo, lo + width).unwrap();
        let e = Exponential::with_mean(mean).unwrap();
        let g = Erlang::new(3, mean).unwrap();
        for _ in 0..100 {
            let x = u.sample_with(&mut rng);
            prop_assert!(x >= lo - 1e-12 && x <= lo + width + 1e-12);
            prop_assert!(e.sample_with(&mut rng) >= 0.0);
            prop_assert!(g.sample_with(&mut rng) >= 0.0);
        }
    }

    /// Ratio merge adds counts; percent stays within [0, 100].
    #[test]
    fn ratio_merge_and_bounds(hits in prop::collection::vec(any::<bool>(), 0..200), cut in 0usize..200) {
        let cut = if hits.is_empty() { 0 } else { cut % hits.len() };
        let mut a = Ratio::new();
        let mut b = Ratio::new();
        for (i, &h) in hits.iter().enumerate() {
            if i < cut { a.record(h) } else { b.record(h) }
        }
        let mut merged = a;
        merged.merge(&b);
        prop_assert_eq!(merged.denominator(), hits.len() as u64);
        prop_assert_eq!(merged.numerator(), hits.iter().filter(|&&h| h).count() as u64);
        prop_assert!((0.0..=100.0).contains(&merged.percent()));
    }

    /// Named RNG streams never collide for distinct labels (statistical:
    /// first outputs differ for a few hundred label pairs).
    #[test]
    fn rng_streams_distinct(seed in any::<u64>(), a in 0usize..500, b in 0usize..500) {
        prop_assume!(a != b);
        let f = RngFactory::new(seed);
        let mut sa = f.stream_indexed("lbl", a);
        let mut sb = f.stream_indexed("lbl", b);
        use rand::RngCore;
        prop_assert_ne!(sa.next_u64(), sb.next_u64());
    }
}
