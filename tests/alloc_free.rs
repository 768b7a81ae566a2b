//! Proof that the steady-state simulation loop is allocation-free.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! settling period past warm-up (during which slabs, ready queues, event
//! heaps, the task pool and the stats buffers reach their working
//! capacity), the measured window must perform (amortized) **zero** heap
//! allocations per simulated event: every arrival, dispatch, preemption,
//! completion and abort runs on recycled storage.
//!
//! The assertion allows a small absolute number of allocations per
//! window (≤ 64 over hundreds of thousands of events) because slabs may
//! still double once if a random-walk queue depth sets a new high-water
//! mark after settling; that is still zero per event, amortized.
//!
//! The allocation counter is process-global, and the test harness runs
//! this binary's tests on parallel threads, so every test holds
//! [`SERIAL`] for its whole body: no other test can allocate inside a
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests of this binary (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]. The mutex guards no data, so a test that panicked
/// while holding it leaves nothing inconsistent: recover from poisoning.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct CountingAllocator;

// SAFETY: delegates every operation verbatim to the system allocator;
// the counter uses a relaxed atomic and allocates nothing itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

use sda::core::{AdaptiveSlack, SdaStrategy};
use sda::sim::{Engine, SimTime};
use sda::system::{run_once_sharded, Event, NetworkModel, RunConfig, SystemConfig, SystemModel};
use sda::workload::{ArrivalProcess, GlobalShape, SlackRange};

/// Runs one simulation and returns `(allocations, events)` over the
/// post-settling measurement window `[settle_until, horizon]`.
fn measure_window(cfg: SystemConfig, settle_until: f64, horizon: f64) -> (u64, u64) {
    let rng = sda::sim::rng::RngFactory::new(0xA110C);
    let model = SystemModel::new(cfg, &rng).expect("valid config");
    let mut engine = Engine::new(model);
    engine
        .context_mut()
        .schedule_at(SimTime::ZERO, Event::Init { warmup_end: 500.0 });

    // Warm-up + settling: statistics reset at t = 500 (which itself
    // allocates fresh quantile estimators once), then capacities grow to
    // their working set until `settle_until`.
    engine.run_until(SimTime::from(settle_until));

    let events_before = engine.context().events_handled();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    engine.run_until(SimTime::from(horizon));
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let events = engine.context().events_handled() - events_before;
    (allocs, events)
}

/// The original ρ = 0.9 EDF scenario.
fn measure(preemptive: bool) -> (u64, u64) {
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
    cfg.workload.load = 0.9;
    cfg.preemptive = preemptive;
    measure_window(cfg, 3_000.0, 12_000.0)
}

#[test]
fn steady_state_is_allocation_free_per_event() {
    let _serial = serial();
    for preemptive in [false, true] {
        let (allocs, events) = measure(preemptive);
        assert!(
            events > 50_000,
            "measurement window too small: {events} events (preemptive={preemptive})"
        );
        // Amortized zero per event: allow only stray capacity doublings.
        assert!(
            allocs <= 64,
            "steady state allocated {allocs} times over {events} events \
             (preemptive={preemptive}) — the hot path regressed to \
             per-event allocation"
        );
    }
}

#[test]
fn dag_workload_steady_state_is_allocation_free_per_event() {
    let _serial = serial();
    // The DAG-structured task path: every arrival fills a pooled
    // `DagRun` (random layered structure, CSR edge lists, reverse-topo
    // critical-path pass), every completion counts down fan-in
    // in-degrees and may release a multi-node wave. All of it runs on
    // recycled storage — node/edge/CSR/scratch vectors retain capacity
    // across tasks, and the per-task structure is bounded (depth 4,
    // width ≤ 3), so the stationary absolute cap applies.
    //
    // The settling period is longer than the flat scenarios': a fresh
    // task-slab slot's `DagRun` grows ~17 vectors from empty (vs ~6 for
    // a `FlatRun`), so each in-flight high-water-mark record costs ~3×
    // the one-time allocations, and the random-walk population needs
    // more time before new records become rare enough for the absolute
    // cap.
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_div1());
    cfg.workload.shape = GlobalShape::Dag {
        depth: 4,
        max_width: 3,
        edge_density: 0.4,
    };
    cfg.workload.slack = SlackRange::PSP_BASELINE;
    cfg.workload.load = 0.85;
    let (allocs, events) = measure_window(cfg, 20_000.0, 29_000.0);
    assert!(
        events > 50_000,
        "measurement window too small: {events} events"
    );
    assert!(
        allocs <= 64,
        "DAG steady state allocated {allocs} times over {events} events — \
         the DAG task lifecycle regressed to per-event allocation"
    );
}

#[test]
fn sharded_engine_steady_state_is_allocation_free_per_window() {
    let _serial = serial();
    // The sharded conservative-parallel engine adds per-window machinery
    // on top of the serial hot path: mailbox drains, record pushes, the
    // manager's merge sort and the sequencer's k-way merge. All of it
    // runs on pre-reserved storage (fixed-capacity mailboxes, reusable
    // drain/record buffers, a retained-capacity sequencer heap), so the
    // *steady-state* allocation rate must be amortized zero per window.
    //
    // The sharded entry point spawns its shard threads per run, so the
    // one-time setup cannot be excluded by a settling horizon like the
    // serial scenarios above. Instead, measure two runs that differ only
    // in duration: the setup cost (model build, threads, mailboxes,
    // working-set growth) is identical, so the short→long delta isolates
    // the steady-state loop over the extra ~9 000 windows.
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
    cfg.workload.load = 0.9;
    cfg.network = NetworkModel::Constant { delay: 1.0 };
    let measure = |duration: f64| {
        let run = RunConfig {
            warmup: 500.0,
            duration,
            seed: 0xA110C,
            order_fuzz: 0,
        };
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let result = run_once_sharded(&cfg, &run, 2).expect("valid config");
        (ALLOCATIONS.load(Ordering::Relaxed) - before, result.events)
    };
    let (short_allocs, short_events) = measure(3_000.0);
    let (long_allocs, long_events) = measure(12_000.0);
    let events = long_events - short_events;
    let allocs = long_allocs.saturating_sub(short_allocs);
    assert!(
        events > 50_000,
        "measurement window too small: {events} extra events"
    );
    // ~9 000 extra windows: one allocation per window would already be
    // ~6% of the extra events, well over this 2% budget. Healthy value:
    // a handful of late capacity doublings.
    assert!(
        allocs * 50 <= events,
        "sharded steady state allocated {allocs} times over {events} extra \
         events — a per-window allocation crept into the engine"
    );
}

#[test]
fn churn_steady_state_is_allocation_free_per_event() {
    let _serial = serial();
    // The fault-injection surface: exponential crash/repair churn on
    // pipelines over a constant-delay network. Every crash purges a
    // node's queue into a recycled loss buffer, bumps the epoch, and
    // re-dispatches the in-flight casualties through the pooled
    // `reissue` path — all on retained storage. Crashes keep (rarely)
    // breaking queue high-water marks on the surviving nodes (each
    // outage concentrates the load on fewer servers), so assert a
    // strict rate bound like the MMPP scenario rather than the
    // stationary absolute cap.
    use sda::system::FailureModel;
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
    cfg.workload.load = 0.7;
    cfg.network = NetworkModel::Constant { delay: 0.5 };
    cfg.failure = FailureModel::Exponential {
        mttf: 400.0,
        mttr: 50.0,
    };
    let (allocs, events) = measure_window(cfg, 12_000.0, 24_000.0);
    assert!(
        events > 50_000,
        "measurement window too small: {events} events"
    );
    assert!(
        allocs * 250 <= events,
        "churn steady state allocated {allocs} times over {events} events — \
         the crash/re-dispatch path regressed toward per-event allocation"
    );
}

#[test]
fn mmpp_adaptive_steady_state_is_allocation_free_per_event() {
    let _serial = serial();
    // The time-varying-workload surface: MMPP-modulated arrivals, the
    // feedback EWMA updating on every completion, and ADAPT(EQF-DIV1)
    // re-stamping the slack scale at every stage activation. The MMPP
    // phase machine and the feedback loop are plain scalar state, so
    // steady state must stay allocation-free. Burst phases also grow the
    // queues well past the stationary working set, exercising slab
    // re-use under a bigger high-water mark.
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::adaptive(
        SdaStrategy::eqf_div1(),
        AdaptiveSlack::default(),
    ));
    cfg.workload.load = 0.8;
    cfg.workload.arrivals = ArrivalProcess::Mmpp2 {
        burst_ratio: 4.0,
        dwell_quiet: 300.0,
        dwell_burst: 100.0,
    };
    let (allocs, events) = measure_window(cfg, 12_000.0, 24_000.0);
    assert!(
        events > 50_000,
        "measurement window too small: {events} events"
    );
    // Unlike the stationary scenarios, a bursty stream keeps (rarely)
    // breaking its own high-water marks: an extreme burst opens new
    // task-slab slots whose pooled `FlatRun`s grow from empty, and
    // deepens queue slabs — each record costs a handful of allocations
    // and is then retained forever. That is still amortized-zero per
    // event; assert a strict rate bound instead of the stationary
    // absolute cap. (A genuine regression to per-task allocation would
    // be ~1 allocation per ~4 events here, two orders of magnitude over
    // this budget; observed healthy value: ~1 per ~400 events.)
    assert!(
        allocs * 250 <= events,
        "MMPP + ADAPT(EQF) steady state allocated {allocs} times over \
         {events} events — the time-varying path regressed toward \
         per-event allocation"
    );
}
