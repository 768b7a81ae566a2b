//! The sharded conservative-parallel engine: one run, all cores.
//!
//! The serial engine executes a run's events one at a time from a single
//! future-event list. Under a network model with a **positive minimum
//! hop delay** `W` ([`NetworkModel::min_hop_delay`]), every cross-node
//! interaction — a subtask hand-off or a result return — takes at least
//! `W` to arrive, so a node's events inside a window `[T, T + W)` can
//! only depend on remote actions from *before* `T`. That is the
//! classical conservative-simulation lookahead, and this module exploits
//! it with a null-message-free bulk-synchronous protocol:
//!
//! * the node set is partitioned into contiguous **shards**; each shard
//!   worker owns its members' [`Node`] state and a private [`EventQueue`]
//!   of node-side events (deliveries and service completions);
//! * the **process manager** runs as a deterministically-merged shard of
//!   its own on the calling thread: it owns the only
//!   [`TaskFactory`](sda_workload::TaskFactory) (all randomness), the
//!   task slab, the metrics, and a **delivery calendar** of in-flight
//!   hand-offs;
//! * per window, shards execute their events strictly below the window
//!   bound (inclusive of the horizon in the final window) and emit
//!   completion/discard **records**; at the barrier the manager merges
//!   all records in a documented total order, runs the precedence and
//!   metrics bookkeeping, pre-generates the next windows' local
//!   arrivals, and forwards everything that arrives in the next window
//!   through per-shard [`Mailbox`]es.
//!
//! There are **no shard→shard messages**: every hand-off is routed
//! through the manager, whose serial merge phase is what makes the
//! engine deterministic.
//!
//! # Total merge order
//!
//! Records are merged by `(time, node id, per-node sequence)`, and a
//! record at time `t` is processed **before** any manager event (global
//! arrival, result return, end of warm-up) at the same `t`. Within one
//! node, records carry a monotone sequence number, so the per-node order
//! is exactly the node's execution order regardless of the shard count —
//! which makes a seeded run **bit-identical across shard counts**.
//! Against the serial engine the only possible divergence is the
//! resolution of *exact* floating-point time ties between events on
//! different endpoints (the serial engine breaks those by global
//! scheduling order, which no longer exists across shards); with
//! continuously-distributed workloads such ties have measure zero, and
//! the sharded runs of the golden configurations reproduce the serial
//! fingerprints bit-for-bit.
//!
//! Under [`OverloadPolicy::AbortTardy`] there is one semantic
//! divergence: a hand-off already forwarded to a shard when its task
//! aborts is executed anyway (the abort is observed at the merge, where
//! the ordinary stale-completion accounting settles it), whereas the
//! serial engine drops it on arrival. Slot accounting stays exact either
//! way; only the miss statistics can differ slightly.
//!
//! # When sharding helps — and when it cannot
//!
//! The protocol needs `W > 0` to make progress: under
//! [`NetworkModel::Zero`] (the paper's free communication) or any model
//! whose minimum hop delay is zero, the window width collapses and the
//! engine falls back to the serial path
//! ([`run_once_sharded`](crate::run_once_sharded) documents the gate).
//! Speed-up comes from node-side work (queueing, dispatch, service
//! completions) being the bulk of a run; the manager merge is the serial
//! fraction, so configurations dominated by global-task bookkeeping gain
//! less.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use sda_core::{NodeId, Submission, TaskId};
use sda_sched::Job;
use sda_sim::mailbox::Mailbox;
use sda_sim::rng::RngFactory;
use sda_sim::{EventQueue, SimTime};

use crate::config::{OverloadPolicy, SystemConfig};
use crate::failure::FailureTimeline;
use crate::model::{Event, EventSink, SystemModel};
use crate::node::Node;
use crate::runner::{RunConfig, RunError, RunResult};

/// Fixed capacity of every cross-shard mailbox (deliveries in, records
/// out). Sized with orders-of-magnitude headroom over any realistic
/// per-window volume; an overflow aborts the run with a structured
/// [`RunError::MailboxOverflow`] rather than silently dropping events.
pub(crate) const MAILBOX_CAPACITY: usize = 1 << 14;

/// A reusable spin barrier for the bulk-synchronous window protocol
/// (`shards + 1` participants, two crossings per window). Spinning is
/// the right trade here: phases are sub-millisecond and the thread count
/// is chosen to fit the machine.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> SpinBarrier {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arriver: reset for the next round, then release
            // everyone. The release on `generation` publishes the reset
            // (and all pre-barrier writes) to the spinners.
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::AcqRel);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins = spins.wrapping_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Window parameters published by the manager before the barrier that
/// releases the shards into the window; the barrier supplies the
/// ordering, so the individual loads/stores can be relaxed.
struct Shared {
    barrier: SpinBarrier,
    bound_bits: AtomicU64,
    inclusive: AtomicBool,
    done: AtomicBool,
    /// Set (with `error` filled) by whichever side first hits a mailbox
    /// overflow; the manager then shuts the window protocol down cleanly
    /// and surfaces the error instead of panicking in a worker thread.
    failed: AtomicBool,
    /// First overflow's diagnostics; later ones are dropped.
    error: Mutex<Option<RunError>>,
}

impl Shared {
    fn new(participants: usize) -> Shared {
        Shared {
            barrier: SpinBarrier::new(participants),
            bound_bits: AtomicU64::new(0),
            inclusive: AtomicBool::new(false),
            done: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
        }
    }

    fn fail(&self, err: RunError) {
        let mut slot = self.error.lock().expect("no poisoned lock");
        if slot.is_none() {
            *slot = Some(err);
        }
        self.failed.store(true, Ordering::Release);
    }

    fn publish(&self, bound: f64, inclusive: bool) {
        self.bound_bits.store(bound.to_bits(), Ordering::Relaxed);
        self.inclusive.store(inclusive, Ordering::Relaxed);
    }

    fn window(&self) -> (f64, bool) {
        (
            f64::from_bits(self.bound_bits.load(Ordering::Relaxed)),
            self.inclusive.load(Ordering::Relaxed),
        )
    }
}

/// One delivery forwarded manager → shard: a job (local arrival or
/// global hand-off) entering `node`'s queue at `time`. Mailbox FIFO
/// order is the calendar's deterministic `(time, sequence)` drain order.
#[derive(Debug, Clone, Copy)]
struct Handoff {
    time: f64,
    node: NodeId,
    job: Job,
}

/// An entry of the manager's delivery calendar: everything that will
/// enter some node's queue at a known future instant.
#[derive(Debug, Clone, Copy)]
enum CalEntry {
    /// A pre-generated local arrival (the sequencer draws these from the
    /// workload's RNG streams in global time order).
    Arrival { node: NodeId, job: Job },
    /// A global subtask hand-off in network transit.
    Handoff { task: TaskId, sub: Submission },
}

/// What a shard → manager record reports about its job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordKind {
    /// Service completion.
    Done,
    /// Admission discard (firm-deadline policy).
    Discard,
    /// Lost to a node failure: the job was queued/in service on a
    /// crashing node, or was delivered to a node that was down. The
    /// manager's merge runs the loss accounting and the re-dispatch.
    Lost,
}

/// One completion, admission discard or failure loss reported
/// shard → manager. `seq` is a per-node monotone counter: the
/// `(time, node, seq)` sort key reconstructs a total order that is
/// independent of the shard count.
#[derive(Debug, Clone, Copy)]
struct Record {
    time: f64,
    node: NodeId,
    seq: u32,
    kind: RecordKind,
    job: Job,
}

/// Node-side events of one shard's private queue.
#[derive(Debug, Clone, Copy)]
enum ShardEvent {
    /// A mailbox hand-off re-materialized at its delivery time.
    Deliver { node: NodeId, job: Job },
    /// Mirrors [`Event::ServiceComplete`] (same epoch staleness check).
    Complete { node: NodeId, epoch: u64 },
    /// Mirrors [`Event::NodeDown`]: failure events are node-local, so
    /// each worker self-schedules its own nodes' outages from its
    /// failure-timeline copy — no cross-shard coordination needed.
    Down { node: NodeId, up_at: f64 },
    /// Mirrors [`Event::NodeUp`].
    Up { node: NodeId },
    /// Mirrors the node-stat half of [`Event::EndWarmup`]. Scheduled at
    /// queue creation so its FIFO sequence is the lowest possible and it
    /// pops ahead of any same-instant event, exactly like the serial
    /// engine's Init-scheduled `EndWarmup`.
    EndWarmup,
}

/// The manager's [`EventSink`]: hand-offs go to the cross-shard delivery
/// calendar, manager-endpoint events to the manager's own queue. The
/// timestamp arithmetic (`SimTime::new(now + delay)`) is bit-identical
/// to the serial [`Context::schedule_in`](sda_sim::Context).
struct ManagerSink<'a> {
    now: f64,
    calendar: &'a mut EventQueue<CalEntry>,
    queue: &'a mut EventQueue<Event>,
}

impl EventSink for ManagerSink<'_> {
    #[inline]
    fn now(&self) -> f64 {
        self.now
    }

    fn schedule(&mut self, delay: f64, event: Event) {
        debug_assert!(
            delay.is_finite() && delay >= 0.0,
            "scheduling delay must be finite and non-negative, got {delay}"
        );
        let at = SimTime::new(self.now + delay);
        match event {
            Event::SubtaskArrive { task, sub } => {
                self.calendar.schedule(at, CalEntry::Handoff { task, sub });
            }
            Event::GlobalArrival | Event::ResultReturn { .. } | Event::EndWarmup => {
                self.queue.schedule(at, event);
            }
            Event::Init { .. }
            | Event::LocalArrival { .. }
            | Event::ServiceComplete { .. }
            | Event::NodeDown { .. }
            | Event::NodeUp { .. } => {
                unreachable!("node-side event {event:?} scheduled on the manager sink");
            }
        }
    }
}

/// Pre-generates local arrivals in global time order.
///
/// The serial engine interleaves per-node arrival streams through its
/// event list; the shared `workload.local.service` / `…slack` streams
/// are therefore drawn in global arrival-time order. The sequencer
/// reproduces exactly that: a k-way merge over the per-node next-arrival
/// times (ties broken by node index), drawing each node's next
/// inter-arrival gap — and the arriving task's attributes — at the same
/// points of every stream as the serial run.
struct Sequencer {
    /// Min-heap of `(next-arrival-time bits, node index)`; exhausted
    /// streams leave the heap. The bit representation of a non-negative
    /// finite `f64` is order-preserving, so the tuple ordering is
    /// `(time, node)`.
    heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
}

impl Sequencer {
    /// Draws every node's first inter-arrival gap, in node order — the
    /// serial `Init` handler's draw order.
    fn new(model: &mut SystemModel, nodes: usize) -> Sequencer {
        let mut heap = BinaryHeap::with_capacity(nodes);
        for i in 0..nodes {
            let node = NodeId::new(i as u32);
            if let Some(gap) = model.factory_mut().next_local_interarrival(node) {
                heap.push(std::cmp::Reverse((gap.to_bits(), i as u32)));
            }
        }
        Sequencer { heap }
    }

    /// Materializes every local arrival up to `limit` into the calendar,
    /// drawing follow-up gaps as it goes. Idempotent per limit: already
    /// generated arrivals are never revisited.
    fn generate(
        &mut self,
        model: &mut SystemModel,
        calendar: &mut EventQueue<CalEntry>,
        limit: f64,
        inclusive: bool,
    ) {
        while let Some(&std::cmp::Reverse((bits, idx))) = self.heap.peek() {
            let t = f64::from_bits(bits);
            let within = if inclusive { t <= limit } else { t < limit };
            if !within {
                break;
            }
            self.heap.pop();
            let node = NodeId::new(idx);
            let task = model.factory_mut().make_local(node, t);
            let id = model.manager_mut().fresh_local_id();
            let job = Job::local(id, t, task.attrs.ex, task.attrs.deadline);
            calendar.schedule(SimTime::new(t), CalEntry::Arrival { node, job });
            if let Some(gap) = model.factory_mut().next_local_interarrival(node) {
                self.heap
                    .push(std::cmp::Reverse(((t + gap).to_bits(), idx)));
            }
        }
    }
}

/// One shard: a contiguous block of nodes, their private event queue,
/// and the per-node record sequence counters.
struct ShardWorker {
    /// This shard's index (for overflow diagnostics).
    shard: usize,
    /// Global index of `nodes[0]`.
    base: usize,
    nodes: Vec<Node>,
    queue: EventQueue<ShardEvent>,
    /// This worker's failure-timeline copy; only its own nodes' streams
    /// are ever consumed (via `next_outage`), so all copies agree
    /// bit-for-bit with the serial engine's single timeline.
    timeline: FailureTimeline,
    /// Per-node monotone record sequence (parallel to `nodes`).
    rec_seq: Vec<u32>,
    /// Reusable mailbox drain buffer.
    scratch: Vec<Handoff>,
    /// Reusable admission-discard buffer (mirrors the model's).
    discard_buf: Vec<Job>,
    /// Reusable crash-loss buffer (mirrors the model's).
    lost_buf: Vec<Job>,
    preemptive: bool,
    overload: OverloadPolicy,
    /// Node-side events handled, *excluding* the per-shard `EndWarmup`
    /// (whose serial counterpart is the manager's pop): the run total
    /// `1 (Init) + manager pops + Σ shard counts` matches the serial
    /// engine's `events_handled`.
    events: u64,
}

impl ShardWorker {
    fn run(
        mut self,
        shared: &Shared,
        inbox: &Mailbox<Handoff>,
        records: &Mailbox<Record>,
    ) -> ShardWorker {
        loop {
            shared.barrier.wait();
            if shared.done.load(Ordering::Acquire) {
                break;
            }
            if shared.failed.load(Ordering::Acquire) {
                // Another participant overflowed: stop doing real work
                // (but keep the inbox drained and the barriers manned)
                // until the manager shuts the protocol down.
                inbox.drain_into(&mut self.scratch);
                self.scratch.clear();
            } else {
                let (bound, inclusive) = shared.window();
                if let Err(err) = self.run_window(bound, inclusive, inbox, records) {
                    shared.fail(err);
                }
            }
            shared.barrier.wait();
        }
        self
    }

    fn run_window(
        &mut self,
        bound: f64,
        inclusive: bool,
        inbox: &Mailbox<Handoff>,
        records: &Mailbox<Record>,
    ) -> Result<(), RunError> {
        inbox.drain_into(&mut self.scratch);
        for i in 0..self.scratch.len() {
            let h = self.scratch[i];
            self.queue.schedule(
                SimTime::new(h.time),
                ShardEvent::Deliver {
                    node: h.node,
                    job: h.job,
                },
            );
        }
        self.scratch.clear();
        let bound_t = SimTime::new(bound);
        loop {
            let next = if inclusive {
                self.queue.pop_at_or_before(bound_t)
            } else {
                self.queue.pop_before(bound_t)
            };
            let Some(scheduled) = next else { break };
            let now_t = scheduled.time;
            match scheduled.event {
                ShardEvent::Deliver { node, job } => {
                    self.events += 1;
                    let li = node.index() - self.base;
                    if self.nodes[li].is_down() {
                        // Delivery to a dead node: lost in flight. The
                        // manager pre-filters these against its timeline
                        // at forward time, so this only fires on exact
                        // ties between a delivery and an outage edge
                        // where the event orders disagree (measure-zero
                        // under continuous draws); the record path keeps
                        // the accounting sound even then.
                        self.push_record(
                            records,
                            bound,
                            now_t.as_f64(),
                            li,
                            RecordKind::Lost,
                            job,
                        )?;
                        continue;
                    }
                    self.nodes[li].enqueue(now_t, job);
                    self.dispatch(now_t, bound, li, records)?;
                }
                ShardEvent::Complete { node, epoch } => {
                    // Counted even when stale, like the serial engine.
                    self.events += 1;
                    let li = node.index() - self.base;
                    if !self.nodes[li].completion_is_current(epoch) {
                        continue;
                    }
                    let job = self.nodes[li].finish_service(now_t);
                    self.push_record(records, bound, now_t.as_f64(), li, RecordKind::Done, job)?;
                    self.dispatch(now_t, bound, li, records)?;
                }
                ShardEvent::Down { node, up_at } => {
                    self.events += 1;
                    let li = node.index() - self.base;
                    self.lost_buf.clear();
                    self.nodes[li].fail(now_t, &mut self.lost_buf);
                    // The loss order (in-service first, then queue
                    // service order) matches the serial `fail`; the
                    // per-node `seq` preserves it through the merge sort.
                    for i in 0..self.lost_buf.len() {
                        let job = self.lost_buf[i];
                        self.push_record(
                            records,
                            bound,
                            now_t.as_f64(),
                            li,
                            RecordKind::Lost,
                            job,
                        )?;
                    }
                    self.queue
                        .schedule(SimTime::new(up_at), ShardEvent::Up { node });
                }
                ShardEvent::Up { node } => {
                    self.events += 1;
                    let li = node.index() - self.base;
                    self.nodes[li].recover(now_t);
                    if let Some((down, up)) = self.timeline.next_outage(node.index()) {
                        self.queue
                            .schedule(SimTime::new(down), ShardEvent::Down { node, up_at: up });
                    }
                }
                ShardEvent::EndWarmup => {
                    for node in &mut self.nodes {
                        node.reset_stats(now_t);
                    }
                }
            }
        }
        Ok(())
    }

    /// The node-side half of [`SystemModel`]'s dispatch: one
    /// [`Node::dispatch`] round. Discards and completions become records;
    /// their metrics/precedence half runs manager-side at the merge.
    fn dispatch(
        &mut self,
        now_t: SimTime,
        bound: f64,
        li: usize,
        records: &Mailbox<Record>,
    ) -> Result<(), RunError> {
        let started =
            self.nodes[li].dispatch(now_t, self.preemptive, self.overload, &mut self.discard_buf);
        for i in 0..self.discard_buf.len() {
            let j = self.discard_buf[i];
            self.push_record(records, bound, now_t.as_f64(), li, RecordKind::Discard, j)?;
        }
        if let Some(job) = started {
            let epoch = self.nodes[li].service_epoch();
            let node = self.nodes[li].id();
            self.queue
                .schedule(now_t + job.service, ShardEvent::Complete { node, epoch });
        }
        Ok(())
    }

    fn push_record(
        &mut self,
        records: &Mailbox<Record>,
        bound: f64,
        time: f64,
        li: usize,
        kind: RecordKind,
        job: Job,
    ) -> Result<(), RunError> {
        let seq = self.rec_seq[li];
        self.rec_seq[li] += 1;
        let record = Record {
            time,
            node: self.nodes[li].id(),
            seq,
            kind,
            job,
        };
        if records.push(record) {
            Ok(())
        } else {
            Err(RunError::MailboxOverflow {
                shard: self.shard,
                window: bound,
                capacity: records.capacity(),
                kind: "record",
            })
        }
    }
}

/// Processes one window's records and manager events in the documented
/// total order: ascending time; records before manager events at equal
/// times; records tie-broken by `(node, seq)`. Returns the number of
/// manager events popped (for event-count parity with the serial run).
fn merge_window(
    model: &mut SystemModel,
    records: &[Record],
    calendar: &mut EventQueue<CalEntry>,
    mgr_queue: &mut EventQueue<Event>,
    bound: f64,
    inclusive: bool,
) -> u64 {
    let mut handled = 0u64;
    let mut ri = 0usize;
    loop {
        let rec_time = records.get(ri).map(|r| r.time);
        let evt_time = mgr_queue.peek_time().map(SimTime::as_f64);
        let take_record = match (rec_time, evt_time) {
            (Some(rt), Some(et)) => rt <= et,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_record {
            let r = records[ri];
            ri += 1;
            debug_assert!(
                if inclusive {
                    r.time <= bound
                } else {
                    r.time < bound
                },
                "record at {} escaped its window (bound {bound})",
                r.time
            );
            match r.kind {
                RecordKind::Done => {
                    let mut sink = ManagerSink {
                        now: r.time,
                        calendar,
                        queue: mgr_queue,
                    };
                    model.on_job_done(&mut sink, r.job, r.node);
                }
                RecordKind::Discard => model.on_job_discarded(r.time, r.job),
                RecordKind::Lost => {
                    // Loss accounting + re-dispatch: the replacement
                    // hand-off goes back out through the calendar with a
                    // full hop of transit (≥ the lookahead), so the
                    // window protocol stays sound.
                    let mut sink = ManagerSink {
                        now: r.time,
                        calendar,
                        queue: mgr_queue,
                    };
                    model.on_job_lost(&mut sink, r.job);
                }
            }
        } else {
            let et = evt_time.expect("checked above");
            let within = if inclusive { et <= bound } else { et < bound };
            if !within {
                break;
            }
            let scheduled = mgr_queue.pop().expect("peeked entry exists");
            handled += 1;
            match scheduled.event {
                Event::GlobalArrival => {
                    let mut sink = ManagerSink {
                        now: et,
                        calendar,
                        queue: mgr_queue,
                    };
                    model.handle_global_arrival(&mut sink);
                }
                Event::ResultReturn { task } => model.finish_task(task, et),
                Event::EndWarmup => model.manager_mut().reset_warmup(),
                Event::SubtaskArrive { task, sub } => {
                    // A hand-off `drain_calendar` withheld because its
                    // destination is down at `et`: the loss is processed
                    // here, at its logical time. The task may have been
                    // aborted by an earlier event of this window — then
                    // the serial engine drops the arrival before looking
                    // at the node, so mirror that order.
                    if !model.manager_mut().handoff_aborted(task) {
                        let mut sink = ManagerSink {
                            now: et,
                            calendar,
                            queue: mgr_queue,
                        };
                        let lost = model.handoff_lost(&mut sink, task, sub);
                        debug_assert!(lost, "withheld hand-off not lost at delivery");
                    }
                }
                other => unreachable!("manager queue held node event {other:?}"),
            }
        }
    }
    debug_assert!(ri == records.len(), "unprocessed records past the bound");
    handled
}

/// Forwards every calendar entry up to `limit` to its shard's mailbox,
/// building hand-off jobs at their delivery time (exactly the serial
/// `deliver` construction). Aborted tasks' hand-offs are dropped here
/// with their accounting settled (and counted as drops so event totals
/// stay comparable), mirroring the serial engine's drop-on-arrival.
/// Hand-offs addressed to a node that the failure timeline says will be
/// down at delivery are *withheld* from the worker and re-queued on
/// `mgr_queue` at their delivery time: the loss accounting and
/// re-dispatch must not run early, at drain time, because they mutate
/// manager state (metrics, the warmup reset, adaptive feedback) that
/// the window's earlier events have not yet touched — `merge_window`
/// processes them at their logical instant instead. Returns the number
/// of deliveries pushed (the final window repeats until this hits
/// zero), or the overflow diagnostics if a shard's delivery mailbox ran
/// out of capacity.
#[allow(clippy::too_many_arguments)] // the window protocol's full state
fn drain_calendar(
    model: &mut SystemModel,
    calendar: &mut EventQueue<CalEntry>,
    mgr_queue: &mut EventQueue<Event>,
    limit: f64,
    inclusive: bool,
    mailboxes: &[Mailbox<Handoff>],
    shard_of: &[u32],
    dropped: &mut u64,
) -> Result<u64, RunError> {
    let mut pushed = 0u64;
    while let Some(at) = calendar.peek_time() {
        let t = at.as_f64();
        let within = if inclusive { t <= limit } else { t < limit };
        if !within {
            break;
        }
        let entry = calendar.pop().expect("peeked entry exists");
        let (node, job) = match entry.event {
            CalEntry::Arrival { node, job } => (node, job),
            CalEntry::Handoff { task, sub } => {
                if model.manager_mut().handoff_aborted(task) {
                    *dropped += 1;
                    continue;
                }
                if model.handoff_doomed(sub.node, t) {
                    // The destination will be down at delivery: withhold
                    // the hand-off from the worker, but *process* the
                    // loss (accounting + re-dispatch) at its logical
                    // time — `merge_window` pops this event at `t`,
                    // interleaved with the window's records and manager
                    // events in time order. Same-instant losses keep
                    // their calendar order through the queue's FIFO
                    // tie-break, which is the serial engine's
                    // same-instant processing order.
                    mgr_queue.schedule(at, Event::SubtaskArrive { task, sub });
                    continue;
                }
                let job = Job::global(
                    task,
                    sub.subtask,
                    t,
                    sub.ex,
                    sub.pex,
                    sub.deadline,
                    sub.priority,
                );
                (sub.node, job)
            }
        };
        let shard = shard_of[node.index()] as usize;
        if !mailboxes[shard].push(Handoff { time: t, node, job }) {
            return Err(RunError::MailboxOverflow {
                shard,
                window: limit,
                capacity: mailboxes[shard].capacity(),
                kind: "delivery",
            });
        }
        pushed += 1;
    }
    Ok(pushed)
}

/// Runs the model once with `shards ≥ 2` node shards advancing
/// concurrently under the conservative window protocol, each cross-shard
/// mailbox holding at most `mailbox_capacity` events per window
/// ([`MAILBOX_CAPACITY`] unless the caller bounds it deliberately, as
/// `--mailbox-capacity` does). Returns the final model too, so tests can
/// inspect slab accounting (`tasks_in_flight`) after a sharded run.
/// Callers gate on `shards >= 2 && config.network.min_hop_delay() > 0`
/// (see [`run_once_sharded`](crate::run_once_sharded)).
pub(crate) fn run_sharded(
    config: &SystemConfig,
    run: &RunConfig,
    shards: usize,
    mailbox_capacity: usize,
) -> Result<(RunResult, SystemModel), RunError> {
    let lookahead = config.network.min_hop_delay();
    debug_assert!(
        shards >= 2 && lookahead > 0.0,
        "run_sharded requires ≥2 shards and positive lookahead"
    );
    let rng = RngFactory::new(run.seed);
    let mut model = SystemModel::new(config.clone(), &rng)?;
    let horizon = run.warmup + run.duration;

    // ---- Partition the node set into contiguous shards. ----
    let nodes = model.take_nodes();
    let n = nodes.len();
    let shard_count = shards.min(n).max(1);
    let bounds: Vec<usize> = (0..=shard_count).map(|s| s * n / shard_count).collect();
    let mut shard_of = vec![0u32; n];
    for s in 0..shard_count {
        for slot in &mut shard_of[bounds[s]..bounds[s + 1]] {
            *slot = s as u32;
        }
    }
    let mut blocks: Vec<Vec<Node>> = Vec::with_capacity(shard_count);
    {
        let mut rest = nodes;
        for s in (0..shard_count).rev() {
            blocks.push(rest.split_off(bounds[s]));
        }
        debug_assert!(rest.is_empty());
        blocks.reverse();
    }
    let mut workers: Vec<ShardWorker> = Vec::with_capacity(shard_count);
    for (s, block) in blocks.into_iter().enumerate() {
        let mut queue = EventQueue::new();
        if run.order_fuzz != 0 {
            // Any non-zero seed is a valid same-timestamp permutation;
            // give each queue its own so shards don't share one.
            queue.set_order_fuzz(run.order_fuzz.wrapping_add(s as u64 + 2));
        }
        if run.warmup > 0.0 {
            queue.schedule(SimTime::new(run.warmup), ShardEvent::EndWarmup);
        }
        // Every worker builds the full fleet's timeline (bit-identical
        // across copies) but consumes only its own nodes' streams.
        let mut timeline = FailureTimeline::new(&config.failure, n, &rng);
        for li in 0..block.len() {
            let gi = bounds[s] + li;
            if let Some((down, up)) = timeline.next_outage(gi) {
                queue.schedule(
                    SimTime::new(down),
                    ShardEvent::Down {
                        node: NodeId::new(gi as u32),
                        up_at: up,
                    },
                );
            }
        }
        let len = block.len();
        workers.push(ShardWorker {
            shard: s,
            base: bounds[s],
            nodes: block,
            queue,
            timeline,
            rec_seq: vec![0; len],
            scratch: Vec::new(),
            discard_buf: Vec::new(),
            lost_buf: Vec::new(),
            preemptive: config.preemptive,
            overload: config.overload,
            events: 0,
        });
    }

    // ---- Manager state; replicate the serial Init exactly. ----
    let mut calendar: EventQueue<CalEntry> = EventQueue::new();
    let mut mgr_queue: EventQueue<Event> = EventQueue::new();
    if run.order_fuzz != 0 {
        calendar.set_order_fuzz(run.order_fuzz);
        mgr_queue.set_order_fuzz(run.order_fuzz.wrapping_add(1));
    }
    let mut sequencer = Sequencer::new(&mut model, n);
    {
        let mut sink = ManagerSink {
            now: 0.0,
            calendar: &mut calendar,
            queue: &mut mgr_queue,
        };
        model.schedule_next_global(&mut sink);
    }
    if run.warmup > 0.0 {
        mgr_queue.schedule(SimTime::new(run.warmup), Event::EndWarmup);
    }

    let mailboxes: Vec<Mailbox<Handoff>> = (0..shard_count)
        .map(|_| Mailbox::with_capacity(mailbox_capacity))
        .collect();
    let recboxes: Vec<Mailbox<Record>> = (0..shard_count)
        .map(|_| Mailbox::with_capacity(mailbox_capacity))
        .collect();
    let shared = Shared::new(shard_count + 1);

    // The serial engine's Init pop; dropped hand-offs are added as they
    // occur (their serial counterpart is a popped-and-dropped
    // SubtaskArrive event).
    let mut manager_events: u64 = 1;
    let mut dropped: u64 = 0;
    let mut rec_buf: Vec<Record> = Vec::new();

    // ---- Prime the first window [0, T₁). ----
    let mut bound = lookahead.min(horizon);
    let mut inclusive = bound >= horizon;
    sequencer.generate(&mut model, &mut calendar, bound, inclusive);
    // No workers are running yet, so a priming overflow returns
    // directly.
    drain_calendar(
        &mut model,
        &mut calendar,
        &mut mgr_queue,
        bound,
        inclusive,
        &mailboxes,
        &shard_of,
        &mut dropped,
    )?;
    shared.publish(bound, inclusive);

    let mut finished: Vec<ShardWorker> = Vec::with_capacity(shard_count);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shard_count);
        for (s, worker) in workers.drain(..).enumerate() {
            let shared = &shared;
            let inbox = &mailboxes[s];
            let recbox = &recboxes[s];
            handles.push(scope.spawn(move || worker.run(shared, inbox, recbox)));
        }
        loop {
            shared.barrier.wait(); // release shards into the window
            shared.barrier.wait(); // window done; records are in
            if shared.failed.load(Ordering::Acquire) {
                // A worker overflowed its record mailbox: stop cleanly.
                // The error itself is picked up after the scope ends.
                shared.done.store(true, Ordering::Release);
                shared.barrier.wait(); // release shards so they observe `done`
                break;
            }
            rec_buf.clear();
            for recbox in &recboxes {
                recbox.drain_into(&mut rec_buf);
            }
            rec_buf.sort_unstable_by_key(|r| (r.time.to_bits(), r.node.index(), r.seq));
            manager_events += merge_window(
                &mut model,
                &rec_buf,
                &mut calendar,
                &mut mgr_queue,
                bound,
                inclusive,
            );
            // Next window: advance by the lookahead, clamped to the
            // horizon; the final (inclusive) window repeats until no
            // delivery lands at or before the horizon anymore.
            let (next_bound, next_inclusive) = if inclusive {
                (bound, true)
            } else {
                let nb = (bound + lookahead).min(horizon);
                (nb, nb >= horizon)
            };
            sequencer.generate(&mut model, &mut calendar, next_bound, next_inclusive);
            let pushed = drain_calendar(
                &mut model,
                &mut calendar,
                &mut mgr_queue,
                next_bound,
                next_inclusive,
                &mailboxes,
                &shard_of,
                &mut dropped,
            );
            let pushed = match pushed {
                Ok(pushed) => pushed,
                Err(err) => {
                    shared.fail(err);
                    shared.done.store(true, Ordering::Release);
                    shared.barrier.wait(); // release shards so they observe `done`
                    break;
                }
            };
            // A withheld (doomed) hand-off pushes nothing but leaves a
            // loss event on the manager queue at or before the horizon;
            // the next merge must still process it (and its re-dispatch
            // may put a delivery back in the calendar), so the final
            // window is only done when both are empty.
            let mgr_pending = mgr_queue.peek_time().is_some_and(|t| t.as_f64() <= horizon);
            if inclusive && pushed == 0 && !mgr_pending {
                shared.done.store(true, Ordering::Release);
                shared.barrier.wait(); // release shards so they observe `done`
                break;
            }
            bound = next_bound;
            inclusive = next_inclusive;
            shared.publish(bound, inclusive);
        }
        for handle in handles {
            finished.push(handle.join().expect("shard worker panicked"));
        }
    });
    if let Some(err) = shared.error.lock().expect("no poisoned lock").take() {
        return Err(err);
    }

    // ---- Reassemble and report, exactly like the serial harness. ----
    let mut shard_events: u64 = 0;
    let mut nodes_back: Vec<Node> = Vec::with_capacity(n);
    for worker in finished {
        shard_events += worker.events;
        nodes_back.extend(worker.nodes);
    }
    model.put_nodes(nodes_back);
    let horizon_t = SimTime::new(horizon);
    let result = RunResult {
        metrics: model.metrics().clone(),
        node_utilization: model
            .nodes()
            .iter()
            .map(|node| node.utilization(horizon_t))
            .collect(),
        node_queue_length: model
            .nodes()
            .iter()
            .map(|node| node.mean_queue_length(horizon_t))
            .collect(),
        end_time: horizon,
        events: manager_events + dropped + shard_events,
    };
    Ok((result, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkModel;
    use crate::runner::run_once;
    use sda_core::SdaStrategy;

    fn networked(strategy: SdaStrategy, delay: f64) -> SystemConfig {
        let mut cfg = SystemConfig::ssp_baseline(strategy);
        cfg.network = NetworkModel::Constant { delay };
        cfg
    }

    #[test]
    fn sharded_matches_serial_on_constant_network() {
        let cfg = networked(SdaStrategy::eqf_ud(), 1.5);
        let run = RunConfig {
            warmup: 200.0,
            duration: 3_000.0,
            seed: 0x51AD,
            order_fuzz: 0,
        };
        let serial = run_once(&cfg, &run).unwrap();
        let sharded = run_sharded(&cfg, &run, 2, MAILBOX_CAPACITY).unwrap().0;
        assert_eq!(serial, sharded, "2-shard run must match serial bit-for-bit");
    }

    #[test]
    fn sharded_is_invariant_across_shard_counts() {
        let cfg = networked(SdaStrategy::ud_div1(), 0.75);
        let run = RunConfig {
            warmup: 150.0,
            duration: 2_000.0,
            seed: 0xC047,
            order_fuzz: 0,
        };
        let two = run_sharded(&cfg, &run, 2, MAILBOX_CAPACITY).unwrap().0;
        let three = run_sharded(&cfg, &run, 3, MAILBOX_CAPACITY).unwrap().0;
        let six = run_sharded(&cfg, &run, 6, MAILBOX_CAPACITY).unwrap().0;
        assert_eq!(two, three, "2 vs 3 shards");
        assert_eq!(two, six, "2 vs 6 shards");
    }

    #[test]
    fn spin_barrier_synchronizes() {
        let barrier = SpinBarrier::new(4);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                    assert_eq!(counter.load(Ordering::SeqCst), 4);
                    barrier.wait();
                });
            }
        });
    }

    #[test]
    fn aborttardy_sharded_leaks_no_task_slots() {
        // Firm-deadline overload with cross-shard hand-offs in flight:
        // every abort path must settle the outstanding accounting, so
        // the run ends with a bounded in-flight count even though
        // hand-offs already forwarded to shards execute anyway.
        let mut cfg = networked(SdaStrategy::ud_ud(), 0.5);
        cfg.overload = OverloadPolicy::AbortTardy;
        cfg.workload.load = 0.95;
        let run = RunConfig {
            warmup: 100.0,
            duration: 2_500.0,
            seed: 0xF1FE,
            order_fuzz: 0,
        };
        let (result, model) = run_sharded(&cfg, &run, 3, MAILBOX_CAPACITY).unwrap();
        assert!(
            result.metrics.aborted_globals > 0,
            "overload config must abort tasks for this test to bite"
        );
        let in_flight = model.tasks_in_flight();
        let completed = result.metrics.global.completed();
        assert!(
            in_flight < 200,
            "{in_flight} tasks still in flight after {completed} completions — leaked slots?"
        );
        // Invariant across shard counts despite the divergent abort
        // semantics: the drop-at-drain decisions are manager-side.
        let again = run_sharded(&cfg, &run, 2, MAILBOX_CAPACITY).unwrap().0;
        assert_eq!(result, again, "AbortTardy must stay shard-count invariant");
    }

    #[test]
    fn scripted_churn_matches_serial_across_shard_counts() {
        use crate::failure::{DownInterval, FailureModel};
        let mut cfg = networked(SdaStrategy::eqf_ud(), 1.0);
        cfg.failure = FailureModel::Scripted {
            downs: vec![
                DownInterval {
                    node: 0,
                    from: 300.0,
                    until: 700.0,
                },
                DownInterval {
                    node: 3,
                    from: 500.0,
                    until: 650.0,
                },
                DownInterval {
                    node: 0,
                    from: 1_400.0,
                    until: 1_500.0,
                },
            ],
        };
        let run = RunConfig {
            warmup: 200.0,
            duration: 2_500.0,
            seed: 0xC42,
            order_fuzz: 0,
        };
        let serial = run_once(&cfg, &run).unwrap();
        assert!(
            serial.metrics.lost_subtasks > 0,
            "scenario must lose in-flight subtasks for the test to bite"
        );
        for shards in [2, 3, 6] {
            let sharded = run_sharded(&cfg, &run, shards, MAILBOX_CAPACITY).unwrap().0;
            assert_eq!(
                serial, sharded,
                "{shards}-shard churn run must match serial"
            );
        }
    }

    #[test]
    fn exponential_churn_matches_serial_across_shard_counts() {
        use crate::failure::FailureModel;
        let mut cfg = networked(SdaStrategy::ud_div1(), 0.5);
        cfg.failure = FailureModel::Exponential {
            mttf: 400.0,
            mttr: 60.0,
        };
        let run = RunConfig {
            warmup: 150.0,
            duration: 2_000.0,
            seed: 0xFA11,
            order_fuzz: 0,
        };
        let serial = run_once(&cfg, &run).unwrap();
        assert!(
            serial.metrics.lost_locals > 0,
            "random outages must hit some queued local work"
        );
        for shards in [2, 3, 6] {
            let sharded = run_sharded(&cfg, &run, shards, MAILBOX_CAPACITY).unwrap().0;
            assert_eq!(
                serial, sharded,
                "{shards}-shard exponential-churn run must match serial"
            );
        }
    }

    #[test]
    fn churn_loss_at_the_warmup_boundary_matches_serial() {
        // Regression: a hand-off lost just after the warmup boundary
        // must be counted identically in both engines. The sharded
        // drain detects the doomed delivery at forward time; if the
        // loss were *processed* then too, the `EndWarmup` metrics reset
        // — which the window merge has not yet reached — would wipe a
        // loss the serial engine counts (this seed lineage, through the
        // replication harness, produces exactly that straddle; it is
        // the `ext_churn --smoke` cell that first caught the bug).
        use crate::failure::FailureModel;
        use crate::runner::{run_replications_sharded, run_replications_with_threads};
        let mut cfg = SystemConfig::combined_baseline(SdaStrategy::ud_div1());
        cfg.workload.load = 0.6;
        cfg.network = NetworkModel::Constant { delay: 0.5 };
        cfg.failure = FailureModel::Exponential {
            mttf: 400.0,
            mttr: 40.0,
        };
        let run = RunConfig {
            warmup: 200.0,
            duration: 1_500.0,
            seed: 0x5DA_0003,
            order_fuzz: 0,
        };
        let serial = run_replications_with_threads(&cfg, &run, 1, 1).unwrap();
        assert!(serial.runs[0].metrics.lost_subtasks > 0);
        for shards in [2, 3, 6] {
            let sharded = run_replications_sharded(&cfg, &run, 1, shards, None).unwrap();
            assert_eq!(
                serial.runs, sharded.runs,
                "{shards}-shard replication must match serial"
            );
        }
    }

    #[test]
    fn churn_with_aborttardy_leaks_no_slots_sharded() {
        use crate::failure::FailureModel;
        let mut cfg = networked(SdaStrategy::ud_ud(), 0.5);
        cfg.overload = OverloadPolicy::AbortTardy;
        cfg.workload.load = 0.9;
        cfg.failure = FailureModel::Exponential {
            mttf: 250.0,
            mttr: 40.0,
        };
        let run = RunConfig {
            warmup: 100.0,
            duration: 2_500.0,
            seed: 0x10EAF,
            order_fuzz: 0,
        };
        let (result, model) = run_sharded(&cfg, &run, 3, MAILBOX_CAPACITY).unwrap();
        assert!(result.metrics.aborted_globals > 0);
        assert!(result.metrics.lost_subtasks > 0);
        let in_flight = model.tasks_in_flight();
        assert!(
            in_flight < 200,
            "{in_flight} tasks still in flight — abort+churn leaked slots?"
        );
        // Lost work is terminal: it must never enter the response-time
        // sample, so observed responses + terminal outcomes add up.
        let m = &result.metrics;
        assert_eq!(
            m.global.response().count() + m.aborted_globals + m.abandoned_globals,
            m.global.completed(),
            "every global task resolves exactly once"
        );
        assert_eq!(
            m.local.response().count() + m.aborted_locals + m.lost_locals,
            m.local.completed(),
            "every local job resolves exactly once"
        );
    }

    #[test]
    fn tiny_mailbox_overflows_gracefully() {
        let cfg = networked(SdaStrategy::eqf_ud(), 0.5);
        let run = RunConfig {
            warmup: 100.0,
            duration: 2_000.0,
            seed: 0x0F10,
            order_fuzz: 0,
        };
        match run_sharded(&cfg, &run, 2, 4) {
            Err(RunError::MailboxOverflow {
                shard,
                window,
                capacity,
                kind,
            }) => {
                assert!(shard < 2, "shard index out of range: {shard}");
                assert_eq!(capacity, 4);
                assert!(window.is_finite() && window >= 0.0);
                assert!(kind == "record" || kind == "delivery", "kind = {kind}");
            }
            Err(other) => panic!("expected MailboxOverflow, got {other}"),
            Ok(_) => panic!("capacity-4 mailboxes must overflow at baseline load"),
        }
    }

    #[test]
    fn order_fuzz_changes_tie_breaks_but_not_invariants() {
        // A seeded same-timestamp permutation must not break conservation:
        // across ≥8 fuzz seeds every job still resolves exactly once and
        // no task slots leak, with churn active the whole run.
        use crate::failure::{DownInterval, FailureModel};
        let mut cfg = networked(SdaStrategy::eqf_ud(), 1.0);
        cfg.failure = FailureModel::Scripted {
            downs: vec![
                DownInterval {
                    node: 1,
                    from: 250.0,
                    until: 600.0,
                },
                DownInterval {
                    node: 4,
                    from: 900.0,
                    until: 1_100.0,
                },
            ],
        };
        for fuzz in 1..=8u64 {
            let run = RunConfig {
                warmup: 150.0,
                duration: 1_800.0,
                seed: 0xF022,
                order_fuzz: fuzz * 0x9E37,
            };
            let serial = run_once(&cfg, &run).unwrap();
            let (sharded, model) = run_sharded(&cfg, &run, 3, MAILBOX_CAPACITY).unwrap();
            for (label, m) in [("serial", &serial.metrics), ("sharded", &sharded.metrics)] {
                assert_eq!(
                    m.global.response().count() + m.aborted_globals + m.abandoned_globals,
                    m.global.completed(),
                    "fuzz {fuzz} {label}: global accounting broke"
                );
                assert_eq!(
                    m.local.response().count() + m.aborted_locals + m.lost_locals,
                    m.local.completed(),
                    "fuzz {fuzz} {label}: local accounting broke"
                );
            }
            assert!(
                model.tasks_in_flight() < 100,
                "fuzz {fuzz}: leaked task slots"
            );
        }
    }
}
