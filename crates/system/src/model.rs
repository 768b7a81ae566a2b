//! The executable system model: events, arrivals, dispatching,
//! precedence enforcement.
//!
//! The process-manager decisions — admission, deadline assignment,
//! precedence bookkeeping, the pooled task slab and the metrics — live
//! in [`ProcessManager`]; this model owns the nodes, the workload
//! generator, the network and failure models and the trace, and turns
//! the manager's outcomes into events. The steady-state loop is
//! allocation-free: submissions and admission discards go through
//! reusable buffers, and jobs stay resident in each node's queue slab
//! across dispatch and preemption. Every completion is routed back to
//! the owning task, which answers with the next submittable wave — a
//! serial hand-off, a fan-out, or (for DAGs) an arbitrary fan-in that
//! releases only when its last predecessor finishes — and every hand-off
//! crosses the [`NetworkModel`](crate::NetworkModel) like any other.

use sda_core::{NodeId, Submission, SubtaskRef, TaskId};
use sda_sched::{Job, JobOrigin};
use sda_sim::dist::Exponential;
use sda_sim::rng::{RngFactory, Stream};
use sda_sim::{Context, SimTime, Simulation};
use sda_workload::{ConfigError, TaskFactory};

use crate::config::{NetworkModel, SystemConfig};
use crate::failure::FailureTimeline;
use crate::manager::{DiscardOutcome, LossOutcome, PooledRun, ProcessManager, SubtaskOutcome};
use crate::metrics::Metrics;
use crate::node::Node;

/// Simulation events of the system model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Schedules the initial arrivals and the end-of-warm-up marker; must
    /// fire exactly once at the start of the run.
    Init {
        /// When the warm-up transient ends and statistics restart.
        warmup_end: f64,
    },
    /// A local task arrives at `node` (per-node Poisson stream).
    LocalArrival {
        /// The generating (and executing) node.
        node: NodeId,
    },
    /// A global task arrives (system-wide Poisson stream) and is handed
    /// to the process manager.
    GlobalArrival,
    /// The job in service at `node` completes — *if* `epoch` still names
    /// the current service start. Preemption never cancels completion
    /// events; it leaves them in the future-event list to be recognized
    /// as stale here (see [`Node::service_epoch`]).
    ServiceComplete {
        /// The node whose server finished.
        node: NodeId,
        /// The node's service epoch when this completion was scheduled.
        epoch: u64,
    },
    /// A global subtask hand-off reaches its destination node after
    /// transit through the network. Only scheduled under a non-zero
    /// [`NetworkModel`](crate::NetworkModel); with free communication
    /// hand-offs are delivered inline and this event never occurs.
    SubtaskArrive {
        /// The owning global task.
        task: TaskId,
        /// The submission in flight (destination node, virtual deadline,
        /// service demand).
        sub: Submission,
    },
    /// The result of a finished global task reaches the process manager
    /// after transit; the task's completion time (for metrics and the
    /// end-to-end deadline check) is this arrival, not the last
    /// subtask's service completion. Only scheduled under a non-zero
    /// network model.
    ResultReturn {
        /// The finished task.
        task: TaskId,
    },
    /// Node `node` crashes: its queued and in-service jobs are lost, and
    /// hand-offs in flight toward it are lost on arrival. Scheduled from
    /// the [`FailureModel`](crate::FailureModel) timeline; carries the
    /// repair time so the matching [`Event::NodeUp`] is scheduled without
    /// re-querying the timeline.
    NodeDown {
        /// The crashing node.
        node: NodeId,
        /// When the node comes back up.
        up_at: f64,
    },
    /// Node `node` finishes repair and rejoins with empty queues.
    NodeUp {
        /// The recovering node.
        node: NodeId,
    },
    /// Warm-up ends: all statistics restart.
    EndWarmup,
}

/// One record of a traced global task's lifecycle. Enable tracing with
/// [`SystemModel::set_trace_tasks`]; traces show exactly which virtual
/// deadlines the strategy assigned and when each precedence step fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A traced global task arrived.
    Arrival {
        /// The task.
        task: TaskId,
        /// Arrival time.
        time: f64,
        /// End-to-end deadline.
        deadline: f64,
    },
    /// A subtask of a traced task was submitted to its node.
    Submitted {
        /// The owning task.
        task: TaskId,
        /// Submission time.
        time: f64,
        /// Destination node.
        node: NodeId,
        /// The assigned virtual deadline.
        deadline: f64,
    },
    /// A subtask of a traced task completed service.
    SubtaskDone {
        /// The owning task.
        task: TaskId,
        /// Completion time.
        time: f64,
        /// The node that served it.
        node: NodeId,
        /// Whether the subtask finished after its virtual deadline.
        virtual_miss: bool,
    },
    /// A traced task finished.
    Finished {
        /// The task.
        task: TaskId,
        /// Completion time.
        time: f64,
        /// Whether the end-to-end deadline was missed.
        missed: bool,
    },
    /// A traced task was killed by the firm-deadline policy.
    Aborted {
        /// The task.
        task: TaskId,
        /// Abort time.
        time: f64,
    },
}

/// Where the model's generated events go.
///
/// The serial engine's [`Context`] is one implementation (events land in
/// the run's single future-event list); the sharded engine's manager
/// sink is the other (hand-offs are routed to the cross-shard delivery
/// calendar, manager-endpoint events to the manager's own queue). The
/// process-manager logic — arrivals, precedence bookkeeping, deadline
/// assignment, metrics — is written once against this trait, so the
/// serial and sharded paths execute the *same* monomorphized model code
/// and stay bit-for-bit comparable.
pub(crate) trait EventSink {
    /// The time of the event currently being handled.
    fn now(&self) -> f64;
    /// Schedules `event` to fire `delay ≥ 0` time units after
    /// [`EventSink::now`].
    fn schedule(&mut self, delay: f64, event: Event);
}

impl EventSink for Context<Event> {
    #[inline]
    fn now(&self) -> f64 {
        Context::now(self).as_f64()
    }

    #[inline]
    fn schedule(&mut self, delay: f64, event: Event) {
        self.schedule_in(delay, event);
    }
}

/// The distributed system of paper §3.2 as a discrete-event model:
/// `k` nodes with independent schedulers, per-node local arrivals, a
/// global arrival stream feeding the [`ProcessManager`], and metrics.
///
/// Drive it with an [`Engine`](sda_sim::Engine); see
/// [`run_once`](crate::run_once) for the canonical harness.
#[derive(Debug)]
pub struct SystemModel {
    config: SystemConfig,
    factory: TaskFactory,
    nodes: Vec<Node>,
    /// Admission, deadline assignment, precedence, the task slab and the
    /// metrics; the model turns its outcomes into events.
    manager: ProcessManager,
    /// Reusable submission buffer (arrival waves and completion
    /// follow-ups; uses never nest).
    sub_buf: Vec<Submission>,
    /// Transit delay of each buffered submission, parallel to `sub_buf`
    /// (all zero under free communication; a positive entry means the
    /// hand-off is in flight as a [`Event::SubtaskArrive`]).
    delay_buf: Vec<f64>,
    /// Reusable buffer for admission-policy discards.
    discard_buf: Vec<Job>,
    /// Reusable buffer for jobs lost to a node crash.
    lost_buf: Vec<Job>,
    /// Hand-offs that reached a down node during
    /// [`SystemModel::submit_buffered`]; their re-dispatch is deferred to
    /// [`SystemModel::flush_lost_handoffs`] because `sub_buf` (which
    /// re-dispatching reuses) is still being iterated at detection time.
    lost_handoffs: Vec<(TaskId, SubtaskRef)>,
    /// The per-node failure/repair timeline. Serial runs consume it via
    /// `next_outage` to schedule [`Event::NodeDown`]/[`Event::NodeUp`];
    /// the sharded manager (whose workers own the outage scheduling)
    /// queries it only via `is_down` for re-dispatch targeting. The two
    /// access patterns are never mixed on one copy.
    timeline: FailureTimeline,
    /// RNG stream of the network-delay model (only `Exponential` draws
    /// from it, so deterministic models perturb nothing).
    net_rng: Stream,
    /// The hop-delay distribution, pre-built once for the
    /// `NetworkModel::Exponential` case so the per-hand-off path pays no
    /// re-validation (`None` for the deterministic models).
    net_exp: Option<Exponential>,
    /// How many more global tasks may start tracing.
    trace_budget: u64,
    /// Ids of global tasks currently being traced.
    trace_ids: std::collections::BTreeSet<u64>,
    trace: Vec<TraceEvent>,
}

impl SystemModel {
    /// Builds the model: validates the workload and derives all RNG
    /// streams from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid workload parameters.
    pub fn new(config: SystemConfig, rng: &RngFactory) -> Result<SystemModel, ConfigError> {
        config.network.validate(config.workload.nodes)?;
        config.failure.validate(config.workload.nodes)?;
        let timeline = FailureTimeline::new(&config.failure, config.workload.nodes, rng);
        let factory = TaskFactory::new(config.workload.clone(), rng)?;
        let nodes = (0..config.workload.nodes)
            .map(|i| Node::new(NodeId::new(i as u32), config.policy))
            .collect();
        let net_rng = rng.stream("system.network");
        let net_exp = match config.network {
            NetworkModel::Exponential { mean } => {
                Some(Exponential::with_mean(mean).expect("validated above"))
            }
            _ => None,
        };
        let manager = ProcessManager::new(&config);
        Ok(SystemModel {
            config,
            factory,
            nodes,
            manager,
            sub_buf: Vec::new(),
            delay_buf: Vec::new(),
            discard_buf: Vec::new(),
            lost_buf: Vec::new(),
            lost_handoffs: Vec::new(),
            timeline,
            net_rng,
            net_exp,
            trace_budget: 0,
            trace_ids: std::collections::BTreeSet::new(),
            trace: Vec::new(),
        })
    }

    /// Enables lifecycle tracing for the next `n` global tasks to
    /// arrive (call before running). Tracing is off by default and costs
    /// nothing when off.
    pub fn set_trace_tasks(&mut self, n: u64) {
        self.trace_budget = n;
    }

    /// The recorded trace events, in occurrence order.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    #[inline]
    fn traced(&self, task: TaskId) -> bool {
        !self.trace_ids.is_empty() && self.trace_ids.contains(&task.raw())
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Collected metrics (so far).
    pub fn metrics(&self) -> &Metrics {
        self.manager.metrics()
    }

    /// The nodes, for utilization/queue-length inspection.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of global tasks currently in flight.
    pub fn tasks_in_flight(&self) -> usize {
        self.manager.tasks_in_flight()
    }

    /// The process manager — the sharded engine's merge phase drives it
    /// directly for local-id draws, warm-up resets and hand-off abort
    /// checks.
    pub(crate) fn manager_mut(&mut self) -> &mut ProcessManager {
        &mut self.manager
    }

    /// Moves the node set out of the model — the sharded engine hands
    /// ownership of each partition to its shard worker while the manager
    /// keeps the (now node-less) model for arrivals, precedence
    /// bookkeeping and metrics. Under a non-zero network every hand-off
    /// is delayed, so no manager-side path ever touches `self.nodes`
    /// while they are lent out.
    pub(crate) fn take_nodes(&mut self) -> Vec<Node> {
        std::mem::take(&mut self.nodes)
    }

    /// Returns the nodes lent out by [`SystemModel::take_nodes`] (for
    /// end-of-run utilization collection).
    pub(crate) fn put_nodes(&mut self, nodes: Vec<Node>) {
        debug_assert!(self.nodes.is_empty(), "put_nodes over a live node set");
        self.nodes = nodes;
    }

    /// The workload generator — the sharded engine's sequencer drives
    /// local-arrival pre-generation through it directly.
    pub(crate) fn factory_mut(&mut self) -> &mut TaskFactory {
        &mut self.factory
    }

    fn schedule_next_local(&mut self, ctx: &mut Context<Event>, node: NodeId) {
        if let Some(gap) = self.factory.next_local_interarrival(node) {
            ctx.schedule_in(gap, Event::LocalArrival { node });
        }
    }

    pub(crate) fn schedule_next_global<S: EventSink>(&mut self, sink: &mut S) {
        if let Some(gap) = self.factory.next_global_interarrival() {
            sink.schedule(gap, Event::GlobalArrival);
        }
    }

    fn handle_local_arrival(&mut self, ctx: &mut Context<Event>, node: NodeId) {
        let now = ctx.now().as_f64();
        let task = self.factory.make_local(node, now);
        if self.nodes[node.index()].is_down() {
            // The host is down; its users' submissions go nowhere. The
            // arrival stream itself keeps running (the generator draw
            // above keeps the streams aligned with a failure-free run).
            self.manager.local_lost();
            self.schedule_next_local(ctx, node);
            return;
        }
        let id = self.manager.fresh_local_id();
        let job = Job::local(id, now, task.attrs.ex, task.attrs.deadline);
        self.nodes[node.index()].enqueue(ctx.now(), job);
        self.schedule_next_local(ctx, node);
        self.dispatch(ctx, node);
    }

    pub(crate) fn handle_global_arrival<S: EventSink>(&mut self, sink: &mut S) {
        let now = sink.now();
        let factory = &mut self.factory;
        let id = self.manager.admit(
            now,
            |run| match run {
                PooledRun::Flat(run) => factory.make_global_flat(now, run),
                PooledRun::Dag(run) => factory.make_global_dag(now, run),
            },
            &mut self.sub_buf,
        );
        if self.trace_budget > 0 {
            self.trace_budget -= 1;
            self.trace_ids.insert(id.raw());
            self.trace.push(TraceEvent::Arrival {
                task: id,
                time: now,
                deadline: self
                    .manager
                    .global_deadline(id)
                    .expect("admitted task is live"),
            });
        }
        // The initial fan-out travels process manager → node.
        self.submit_buffered(sink, id, None);
        self.schedule_next_global(sink);
        self.dispatch_buffered(sink);
        self.flush_lost_handoffs(sink);
    }

    /// Delivers one hand-off: enqueues the submission as a job of `task`
    /// at its node (used inline under free communication, and from
    /// [`Event::SubtaskArrive`] when the hand-off crossed the network).
    fn deliver(&mut self, now: SimTime, task: TaskId, sub: Submission) {
        let t = now.as_f64();
        let job = Job::global(
            task,
            sub.subtask,
            t,
            sub.ex,
            sub.pex,
            sub.deadline,
            sub.priority,
        );
        self.nodes[sub.node.index()].enqueue(now, job);
        if self.traced(task) {
            self.trace.push(TraceEvent::Submitted {
                task,
                time: t,
                node: sub.node,
                deadline: sub.deadline,
            });
        }
    }

    /// Samples one hand-off's transit time via the pre-built
    /// distribution when the model is `Exponential` (the only variant
    /// that draws randomness), falling back to
    /// [`NetworkModel::sample_delay`] for the deterministic variants.
    #[inline]
    fn hop_delay(&mut self, from: Option<NodeId>, to: Option<NodeId>) -> f64 {
        match &self.net_exp {
            Some(exp) => exp.sample_with(&mut self.net_rng),
            None => self
                .config
                .network
                .sample_delay(from, to, &mut self.net_rng),
        }
    }

    /// Routes the submissions waiting in `sub_buf` as hand-offs of
    /// `task` departing from `from` (`None` = the process manager):
    /// zero-delay hand-offs are enqueued immediately, delayed ones are
    /// scheduled as [`Event::SubtaskArrive`]. Both buffers are left
    /// intact for [`SystemModel::dispatch_buffered`].
    fn submit_buffered<S: EventSink>(&mut self, sink: &mut S, task: TaskId, from: Option<NodeId>) {
        let record = !self.config.network.is_zero();
        self.delay_buf.clear();
        for i in 0..self.sub_buf.len() {
            let sub = self.sub_buf[i];
            let delay = self.hop_delay(from, Some(sub.node));
            if record {
                self.manager.metrics.transit.add(delay);
            }
            if delay > 0.0 {
                self.delay_buf.push(delay);
                sink.schedule(delay, Event::SubtaskArrive { task, sub });
            } else if self.nodes[sub.node.index()].is_down() {
                // Zero-delay hand-off to a dead node: lost. Re-dispatch
                // is deferred (`sub_buf` is being iterated right now) and
                // the infinite pseudo-delay keeps `dispatch_buffered`
                // away from the down node.
                self.delay_buf.push(f64::INFINITY);
                self.lost_handoffs.push((task, sub.subtask));
            } else {
                self.delay_buf.push(0.0);
                self.deliver(SimTime::new(sink.now()), task, sub);
            }
        }
    }

    /// Dispatches each node that received a zero-delay hand-off in
    /// [`SystemModel::submit_buffered`], in submission order — the same
    /// order the collect-then-dispatch path used. Nodes whose hand-off
    /// is still in flight are dispatched when it arrives.
    fn dispatch_buffered<S: EventSink>(&mut self, sink: &mut S) {
        for i in 0..self.sub_buf.len() {
            if self.delay_buf[i] > 0.0 {
                continue;
            }
            let node = self.sub_buf[i].node;
            self.dispatch(sink, node);
        }
    }

    /// Re-dispatches the hand-offs that [`SystemModel::submit_buffered`]
    /// found addressed to a down node. Must run after
    /// [`SystemModel::dispatch_buffered`]: re-dispatching reuses
    /// `sub_buf`, which the submit/dispatch pair iterates.
    fn flush_lost_handoffs<S: EventSink>(&mut self, sink: &mut S) {
        while let Some((task, subtask)) = self.lost_handoffs.pop() {
            self.redispatch(sink, task, subtask);
        }
    }

    /// Sharded-engine *detection* half of the down-destination check in
    /// [`SystemModel::handle_subtask_arrive`]: whether a hand-off
    /// delivered to `node` at time `t` will find it down. The manager's
    /// failure timeline is an oracle (every outage is a pure function of
    /// the seeded per-node streams), so the calendar drain can ask this
    /// at *forward* time and withhold the doomed hand-off from its
    /// worker. Worker-side detection cannot replace this: two
    /// same-instant losses on different shards would merge in
    /// `(time, node, seq)` order, which need not match the serial
    /// schedule order, and the re-dispatch retry budget makes that order
    /// observable.
    pub(crate) fn handoff_doomed(&mut self, node: NodeId, t: f64) -> bool {
        self.timeline.is_down(node.index(), t)
    }

    /// Sharded-engine *processing* half: loss accounting + re-dispatch
    /// for a hand-off [`SystemModel::handoff_doomed`] withheld. Runs when
    /// the window merge reaches the delivery's logical time, so every
    /// metric and feedback mutation interleaves with the window's other
    /// events exactly as in the serial schedule (a loss straddling the
    /// warmup boundary, say, must be reset away or kept identically in
    /// both engines). Returns `true` when the hand-off was lost
    /// (accounting settled; the replacement, if any, re-dispatched
    /// through `sink`).
    pub(crate) fn handoff_lost<S: EventSink>(
        &mut self,
        sink: &mut S,
        task: TaskId,
        sub: Submission,
    ) -> bool {
        let now = sink.now();
        if !self.timeline.is_down(sub.node.index(), now) {
            return false;
        }
        self.redispatch(sink, task, sub.subtask);
        true
    }

    /// A hand-off scheduled by [`SystemModel::submit_buffered`] arrives
    /// at its destination node.
    fn handle_subtask_arrive(&mut self, ctx: &mut Context<Event>, task: TaskId, sub: Submission) {
        if self.manager.handoff_aborted(task) {
            // The task was killed while this hand-off was in flight; the
            // subtask is dropped on arrival.
            return;
        }
        if self.nodes[sub.node.index()].is_down() {
            // The destination died while the hand-off was in transit:
            // the work is lost on arrival.
            self.redispatch(ctx, task, sub.subtask);
            return;
        }
        self.deliver(ctx.now(), task, sub);
        self.dispatch(ctx, sub.node);
    }

    fn handle_service_complete(&mut self, ctx: &mut Context<Event>, node: NodeId, epoch: u64) {
        if !self.nodes[node.index()].completion_is_current(epoch) {
            // The job this completion belonged to was preempted after the
            // event was scheduled; the rescheduled completion (with the
            // job's new epoch) is elsewhere in the event list.
            return;
        }
        let job = self.nodes[node.index()].finish_service(ctx.now());
        self.on_job_done(ctx, job, node);
        self.dispatch(ctx, node);
    }

    pub(crate) fn on_job_done<S: EventSink>(&mut self, sink: &mut S, job: Job, node: NodeId) {
        let now = sink.now();
        let JobOrigin::Global { task, .. } = job.origin else {
            self.manager.local_done(&job, now);
            return;
        };
        if self.traced(task) {
            self.trace.push(TraceEvent::SubtaskDone {
                task,
                time: now,
                node,
                virtual_miss: now > job.deadline,
            });
        }
        match self.manager.subtask_done(&job, now, &mut self.sub_buf) {
            SubtaskOutcome::Swallowed => {}
            SubtaskOutcome::Finished => {
                // The result travels node → process manager; the task
                // finishes (for the end-to-end deadline check) when it
                // arrives there.
                let ret = if self.config.network.is_zero() {
                    0.0
                } else {
                    let d = self.hop_delay(Some(node), None);
                    self.manager.metrics.transit.add(d);
                    d
                };
                if ret > 0.0 {
                    sink.schedule(ret, Event::ResultReturn { task });
                } else {
                    self.finish_task(task, now);
                }
            }
            SubtaskOutcome::Progressed => {
                // Follow-up hand-offs travel from the node whose
                // completion released them (serial forwarding; for a
                // fan-in, the last-finishing branch's node).
                self.submit_buffered(sink, task, Some(node));
                self.dispatch_buffered(sink);
                self.flush_lost_handoffs(sink);
            }
        }
    }

    /// Records a finished global task at `now` (its completion time at
    /// the process manager).
    pub(crate) fn finish_task(&mut self, task: TaskId, now: f64) {
        if let Some(missed) = self.manager.finish(task, now) {
            if self.traced(task) {
                self.trace.push(TraceEvent::Finished {
                    task,
                    time: now,
                    missed,
                });
            }
        }
    }

    pub(crate) fn on_job_discarded(&mut self, now: f64, job: Job) {
        let outcome = self.manager.job_discarded(&job);
        if let (DiscardOutcome::GlobalAborted, JobOrigin::Global { task, .. }) =
            (outcome, job.origin)
        {
            if self.traced(task) {
                self.trace.push(TraceEvent::Aborted { task, time: now });
            }
        }
    }

    /// Accounts for one job lost to a node crash: a local task is a
    /// terminal miss (its node's users see nothing back); a global
    /// subtask enters the re-dispatch path.
    pub(crate) fn on_job_lost<S: EventSink>(&mut self, sink: &mut S, job: Job) {
        match job.origin {
            JobOrigin::Local { .. } => self.manager.local_lost(),
            JobOrigin::Global { task, subtask } => self.redispatch(sink, task, subtask),
        }
    }

    /// Recovery path for one lost global-subtask copy: the manager
    /// re-decomposes the remaining deadline budget (or abandons the
    /// task), and the replacement is submitted, manager-routed, to the
    /// nearest surviving node.
    fn redispatch<S: EventSink>(&mut self, sink: &mut S, task: TaskId, subtask: SubtaskRef) {
        let now = sink.now();
        let nodes = &self.nodes;
        let timeline = &mut self.timeline;
        let n = self.config.workload.nodes;
        let speeds = self.factory.node_speeds();
        let outcome = self
            .manager
            .subtask_lost(task, subtask, now, &mut self.sub_buf, |orig| {
                let target = pick_live(nodes, timeline, n, now, orig)?;
                Some((target, speeds[orig.index()] / speeds[target.index()]))
            });
        match outcome {
            LossOutcome::Swallowed => {}
            LossOutcome::Abandoned => {
                if self.traced(task) {
                    self.trace.push(TraceEvent::Aborted { task, time: now });
                }
            }
            LossOutcome::Reissued => {
                // The target is live, so it cannot re-enter the lost
                // path at this instant (other casualties of the same
                // delivery batch may still be queued behind us in
                // `lost_handoffs`).
                let pending = self.lost_handoffs.len();
                self.submit_buffered(sink, task, None);
                self.dispatch_buffered(sink);
                debug_assert_eq!(
                    self.lost_handoffs.len(),
                    pending,
                    "re-dispatch to a live node lost"
                );
            }
        }
    }

    /// [`Event::NodeDown`]: crashes `node`, losing its queued and
    /// in-service jobs, and books the matching [`Event::NodeUp`].
    fn handle_node_down(&mut self, ctx: &mut Context<Event>, node: NodeId, up_at: f64) {
        let now = ctx.now();
        let mut lost = std::mem::take(&mut self.lost_buf);
        lost.clear();
        self.nodes[node.index()].fail(now, &mut lost);
        for job in lost.drain(..) {
            self.on_job_lost(ctx, job);
        }
        self.lost_buf = lost;
        ctx.schedule_in(up_at - now.as_f64(), Event::NodeUp { node });
    }

    /// [`Event::NodeUp`]: the node rejoins with empty queues, and the
    /// timeline's next outage (if any) is booked.
    fn handle_node_up(&mut self, ctx: &mut Context<Event>, node: NodeId) {
        let now = ctx.now();
        self.nodes[node.index()].recover(now);
        if let Some((down, up)) = self.timeline.next_outage(node.index()) {
            ctx.schedule_in(down - now.as_f64(), Event::NodeDown { node, up_at: up });
        }
    }

    /// Starts the next job at `node` through [`Node::dispatch`],
    /// accounts its admission discards and schedules the started job's
    /// completion. A preempted job's pending completion is invalidated
    /// by the epoch check instead of being cancelled.
    fn dispatch<S: EventSink>(&mut self, sink: &mut S, node: NodeId) {
        let now = sink.now();
        let started = self.nodes[node.index()].dispatch(
            SimTime::new(now),
            self.config.preemptive,
            self.config.overload,
            &mut self.discard_buf,
        );
        for i in 0..self.discard_buf.len() {
            let j = self.discard_buf[i];
            self.on_job_discarded(now, j);
        }
        if let Some(job) = started {
            let epoch = self.nodes[node.index()].service_epoch();
            sink.schedule(job.service, Event::ServiceComplete { node, epoch });
        }
    }
}

/// The nearest live node at or above `from` (wrapping) among `n`, `None`
/// when the whole fleet is down. Serial runs read the authoritative
/// per-node down flags; the sharded manager — whose nodes are lent out
/// to the shard workers — asks its own failure-timeline copy, which
/// agrees with the workers' copies bit-for-bit.
fn pick_live(
    nodes: &[Node],
    timeline: &mut FailureTimeline,
    n: usize,
    now: f64,
    from: NodeId,
) -> Option<NodeId> {
    (0..n)
        .map(|k| (from.index() + k) % n)
        .find(|&i| match nodes.get(i) {
            Some(node) => !node.is_down(),
            None => !timeline.is_down(i, now),
        })
        .map(|i| NodeId::new(i as u32))
}

impl Simulation for SystemModel {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Context<Event>, event: Event) {
        match event {
            Event::Init { warmup_end } => {
                let nodes: Vec<NodeId> = self.nodes.iter().map(Node::id).collect();
                for node in nodes {
                    self.schedule_next_local(ctx, node);
                }
                self.schedule_next_global(ctx);
                for i in 0..self.config.workload.nodes {
                    if let Some((down, up)) = self.timeline.next_outage(i) {
                        ctx.schedule_in(
                            down,
                            Event::NodeDown {
                                node: NodeId::new(i as u32),
                                up_at: up,
                            },
                        );
                    }
                }
                if warmup_end > 0.0 {
                    ctx.schedule_in(warmup_end, Event::EndWarmup);
                }
            }
            Event::LocalArrival { node } => self.handle_local_arrival(ctx, node),
            Event::GlobalArrival => self.handle_global_arrival(ctx),
            Event::ServiceComplete { node, epoch } => {
                self.handle_service_complete(ctx, node, epoch)
            }
            Event::SubtaskArrive { task, sub } => self.handle_subtask_arrive(ctx, task, sub),
            Event::ResultReturn { task } => self.finish_task(task, ctx.now().as_f64()),
            Event::NodeDown { node, up_at } => self.handle_node_down(ctx, node, up_at),
            Event::NodeUp { node } => self.handle_node_up(ctx, node),
            Event::EndWarmup => {
                self.manager.reset_warmup();
                for node in &mut self.nodes {
                    node.reset_stats(ctx.now());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OverloadPolicy;
    use sda_core::SdaStrategy;
    use sda_sim::{Engine, SimTime};

    fn engine(config: SystemConfig, seed: u64) -> Engine<SystemModel> {
        let model = SystemModel::new(config, &RngFactory::new(seed)).unwrap();
        let mut e = Engine::new(model);
        e.context_mut()
            .schedule_at(SimTime::ZERO, Event::Init { warmup_end: 100.0 });
        e
    }

    #[test]
    fn baseline_run_completes_tasks() {
        let mut e = engine(SystemConfig::ssp_baseline(SdaStrategy::eqf_ud()), 1);
        e.run_until(SimTime::from(2_000.0));
        let m = e.model().metrics();
        assert!(m.local.completed() > 500, "locals: {}", m.local.completed());
        assert!(
            m.global.completed() > 100,
            "globals: {}",
            m.global.completed()
        );
        assert!(m.local.response().mean() > 0.0);
    }

    #[test]
    fn utilization_approaches_configured_load() {
        let mut e = engine(SystemConfig::ssp_baseline(SdaStrategy::ud_ud()), 2);
        let horizon = SimTime::from(20_000.0);
        e.run_until(horizon);
        let model = e.model();
        let mean_util: f64 = model
            .nodes()
            .iter()
            .map(|n| n.utilization(horizon))
            .sum::<f64>()
            / model.nodes().len() as f64;
        assert!(
            (mean_util - 0.5).abs() < 0.03,
            "utilization {mean_util} should be near load 0.5"
        );
    }

    #[test]
    fn no_tasks_leak() {
        let mut e = engine(SystemConfig::psp_baseline(SdaStrategy::ud_div1()), 3);
        e.run_until(SimTime::from(5_000.0));
        // In-flight tasks should be bounded (queued work), not growing
        // with the number of generated tasks.
        let inflight = e.model().tasks_in_flight();
        let completed = e.model().metrics().global.completed();
        assert!(completed > 500);
        assert!(
            inflight < 200,
            "{inflight} tasks in flight — leak? completed {completed}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut e = engine(SystemConfig::ssp_baseline(SdaStrategy::eqf_ud()), seed);
            e.run_until(SimTime::from(3_000.0));
            let m = e.model().metrics();
            (
                m.local.completed(),
                m.global.completed(),
                m.local.miss_percent(),
                m.global.miss_percent(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn abort_tardy_discards_and_counts() {
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
        cfg.overload = OverloadPolicy::AbortTardy;
        // Push load high enough that some jobs are tardy at dispatch.
        cfg.workload.load = 0.9;
        let mut e = engine(cfg, 4);
        e.run_until(SimTime::from(5_000.0));
        let m = e.model().metrics();
        assert!(
            m.aborted_locals + m.aborted_globals > 0,
            "at load 0.9 with tight slack, some aborts must occur"
        );
        // Aborted tasks count as misses.
        assert!(m.global.miss_ratio() > 0.0);
    }

    #[test]
    fn warmup_resets_statistics() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let model = SystemModel::new(cfg, &RngFactory::new(5)).unwrap();
        let mut e = Engine::new(model);
        e.context_mut().schedule_at(
            SimTime::ZERO,
            Event::Init {
                warmup_end: 1_000.0,
            },
        );
        e.run_until(SimTime::from(999.0));
        assert!(e.model().metrics().local.completed() > 0);
        e.run_until(SimTime::from(1_000.5));
        // Just past warm-up: counters were cleared at exactly t=1000.
        let after = e.model().metrics().local.completed();
        assert!(after < 10, "warm-up reset failed: {after} completions");
    }

    #[test]
    fn preemptive_edf_runs_and_preempts() {
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        cfg.preemptive = true;
        cfg.workload.load = 0.7;
        let mut e = engine(cfg.clone(), 14);
        e.run_until(SimTime::from(5_000.0));
        let preemptions: u64 = e.model().nodes().iter().map(|n| n.preemptions()).sum();
        assert!(preemptions > 0, "busy preemptive system must preempt");
        let m = e.model().metrics();
        assert!(m.local.completed() > 1_000);

        // Work conservation: same total completions as non-preemptive,
        // up to boundary effects.
        cfg.preemptive = false;
        let mut e2 = engine(cfg, 14);
        e2.run_until(SimTime::from(5_000.0));
        let a = m.local.completed() as f64 + e.model().metrics().global.completed() as f64;
        let b = e2.model().metrics().local.completed() as f64
            + e2.model().metrics().global.completed() as f64;
        assert!(
            (a - b).abs() / b < 0.02,
            "work conservation: {a} vs {b} completions"
        );
    }

    #[test]
    fn trace_captures_complete_lifecycles() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let model = SystemModel::new(cfg, &RngFactory::new(12)).unwrap();
        let mut e = Engine::new(model);
        e.model_mut().set_trace_tasks(u64::MAX); // trace everything briefly
        e.context_mut()
            .schedule_at(SimTime::ZERO, Event::Init { warmup_end: 0.0 });
        e.run_until(SimTime::from(300.0));
        let trace = e.model().trace();
        assert!(!trace.is_empty());

        // Pick the first task that finished and check its event sequence.
        let finished_task = trace
            .iter()
            .find_map(|ev| match ev {
                TraceEvent::Finished { task, .. } => Some(*task),
                _ => None,
            })
            .expect("some task finishes within 300 units");
        let events: Vec<&TraceEvent> = trace
            .iter()
            .filter(|ev| match ev {
                TraceEvent::Arrival { task, .. }
                | TraceEvent::Submitted { task, .. }
                | TraceEvent::SubtaskDone { task, .. }
                | TraceEvent::Finished { task, .. }
                | TraceEvent::Aborted { task, .. } => *task == finished_task,
            })
            .collect();
        assert!(matches!(events[0], TraceEvent::Arrival { .. }));
        assert!(matches!(
            events.last().unwrap(),
            TraceEvent::Finished { .. }
        ));
        // Serial m=4 task: 4 submissions and 4 completions, alternating.
        let submits = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Submitted { .. }))
            .count();
        let dones = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::SubtaskDone { .. }))
            .count();
        assert_eq!(submits, 4);
        assert_eq!(dones, 4);
        // Times are monotone.
        let times: Vec<f64> = events
            .iter()
            .map(|ev| match ev {
                TraceEvent::Arrival { time, .. }
                | TraceEvent::Submitted { time, .. }
                | TraceEvent::SubtaskDone { time, .. }
                | TraceEvent::Finished { time, .. }
                | TraceEvent::Aborted { time, .. } => *time,
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let model = SystemModel::new(cfg, &RngFactory::new(13)).unwrap();
        let mut e = Engine::new(model);
        e.context_mut()
            .schedule_at(SimTime::ZERO, Event::Init { warmup_end: 0.0 });
        e.run_until(SimTime::from(200.0));
        assert!(e.model().trace().is_empty());
    }

    #[test]
    fn constant_delays_stretch_global_response() {
        use crate::config::NetworkModel;
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let mut free = engine(cfg.clone(), 21);
        free.run_until(SimTime::from(6_000.0));

        cfg.network = NetworkModel::Constant { delay: 0.25 };
        let mut net = engine(cfg, 21);
        net.run_until(SimTime::from(6_000.0));

        let mf = free.model().metrics();
        let mn = net.model().metrics();
        assert!(mn.global.completed() > 100);
        // A serial m=4 task pays 5 hops of 0.25 = 1.25 extra end to end.
        let extra = mn.global.response().mean() - mf.global.response().mean();
        assert!(
            extra > 1.0,
            "delays must stretch the end-to-end response (got +{extra:.3})"
        );
        // Every hand-off was recorded: 5 per completed task (4 subtask
        // hops + 1 result return), modulo tasks still in flight.
        assert!(mn.transit.count() >= 5 * mn.global.completed());
        assert_eq!(mn.transit.mean(), 0.25);
        // Free communication records no transit observations.
        assert_eq!(mf.transit.count(), 0);
        // Locals never cross the network.
        assert_eq!(
            mf.local.completed(),
            mn.local.completed(),
            "local stream must be untouched by the network model"
        );
    }

    #[test]
    fn exponential_delays_average_the_configured_mean() {
        use crate::config::NetworkModel;
        let mut cfg = SystemConfig::psp_baseline(SdaStrategy::eqf_div1());
        cfg.network = NetworkModel::Exponential { mean: 0.5 };
        let mut e = engine(cfg, 22);
        e.run_until(SimTime::from(8_000.0));
        let m = e.model().metrics();
        assert!(m.global.completed() > 300);
        assert!(m.transit.count() > 1_000);
        assert!(
            (m.transit.mean() - 0.5).abs() < 0.05,
            "transit mean {} should be near 0.5",
            m.transit.mean()
        );
        assert!(m.transit.min() >= 0.0);
    }

    #[test]
    fn delayed_tasks_do_not_leak_in_flight_slots() {
        use crate::config::NetworkModel;
        let mut cfg = SystemConfig::psp_baseline(SdaStrategy::ud_div1());
        cfg.network = NetworkModel::Exponential { mean: 0.4 };
        cfg.overload = OverloadPolicy::AbortTardy;
        cfg.workload.load = 0.9;
        let mut e = engine(cfg, 23);
        e.run_until(SimTime::from(8_000.0));
        let m = e.model().metrics();
        assert!(m.aborted_globals > 0, "high load must abort something");
        assert!(m.global.completed() > 500);
        let inflight = e.model().tasks_in_flight();
        assert!(
            inflight < 300,
            "{inflight} tasks in flight with transit + aborts — leak?"
        );
    }

    #[test]
    fn aborted_tasks_counted_in_miss_but_not_in_percentiles() {
        // Model-level regression for the documented ClassMetrics
        // semantics under AbortTardy: every terminal global is either a
        // completion (one response observation) or an abort (none).
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
        cfg.overload = OverloadPolicy::AbortTardy;
        cfg.workload.load = 0.9;
        let mut e = engine(cfg, 24);
        e.run_until(SimTime::from(6_000.0));
        let m = e.model().metrics();
        assert!(m.aborted_globals > 0 && m.aborted_locals > 0);
        assert_eq!(
            m.global.response().count() + m.aborted_globals,
            m.global.completed(),
            "terminal = completed-with-response + aborted"
        );
        assert_eq!(
            m.local.response().count() + m.aborted_locals,
            m.local.completed()
        );
        // Aborts are all misses.
        assert!(m.global.missed() >= m.aborted_globals);
        assert!(m.local.missed() >= m.aborted_locals);
    }

    #[test]
    fn node_speeds_skew_utilization() {
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        cfg.workload.node_speeds = Some(vec![0.5, 1.0, 1.0, 1.0, 1.0, 2.0]);
        let mut e = engine(cfg, 25);
        let horizon = SimTime::from(20_000.0);
        e.run_until(horizon);
        let utils: Vec<f64> = e
            .model()
            .nodes()
            .iter()
            .map(|n| n.utilization(horizon))
            .collect();
        // The half-speed node serves the same arrival stream at twice the
        // service time; the double-speed node at half.
        assert!(
            utils[0] > 1.5 * utils[1],
            "slow node {} vs normal {}",
            utils[0],
            utils[1]
        );
        assert!(
            utils[5] < 0.75 * utils[1],
            "fast node {} vs normal {}",
            utils[5],
            utils[1]
        );
        assert!(e.model().metrics().global.completed() > 100);
    }

    #[test]
    fn feedback_pressure_tracks_load() {
        let mut calm = engine(SystemConfig::ssp_baseline(SdaStrategy::eqf_ud()), 31);
        calm.run_until(SimTime::from(5_000.0));
        let calm_p = calm.model().metrics().feedback.pressure();
        assert!(calm.model().metrics().feedback.observations() > 1_000);
        assert!((0.0..=1.0).contains(&calm_p));

        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        cfg.workload.load = 0.95;
        let mut hot = engine(cfg, 31);
        hot.run_until(SimTime::from(5_000.0));
        let hot_p = hot.model().metrics().feedback.pressure();
        assert!(
            hot_p > calm_p + 0.2,
            "pressure at load 0.95 ({hot_p:.2}) must clearly exceed load 0.5 ({calm_p:.2})"
        );
    }

    #[test]
    fn adaptive_strategy_changes_assignment_and_stays_sound() {
        use sda_core::AdaptiveSlack;
        let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
        cfg.workload.load = 0.85;
        let mut base = engine(cfg.clone(), 32);
        base.run_until(SimTime::from(6_000.0));

        cfg.strategy = SdaStrategy::adaptive(SdaStrategy::eqf_div1(), AdaptiveSlack::default());
        let mut adaptive = engine(cfg, 32);
        adaptive.run_until(SimTime::from(6_000.0));

        let mb = base.model().metrics();
        let ma = adaptive.model().metrics();
        // Same arrival streams (same seed), different assignment: the
        // closed loop must actually change behavior…
        assert_ne!(
            mb.global.response().mean().to_bits(),
            ma.global.response().mean().to_bits(),
            "ADAPT must not be a no-op at high load"
        );
        // …without breaking the lifecycle: everything still completes.
        assert!(ma.global.completed() > 500);
        assert!(adaptive.model().tasks_in_flight() < 200);
        // The loop promotes globals when pressure is high: their miss
        // ratio must not get worse.
        assert!(
            ma.global.miss_ratio() <= mb.global.miss_ratio() + 1e-9,
            "adaptive global miss {} vs static {}",
            ma.global.miss_ratio(),
            mb.global.miss_ratio()
        );
    }

    #[test]
    fn zero_gain_adapt_is_bit_identical_to_base() {
        use sda_core::AdaptiveSlack;
        let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
        cfg.workload.load = 0.8;
        let mut base = engine(cfg.clone(), 33);
        base.run_until(SimTime::from(4_000.0));
        // Gain 0 keeps the scale pinned at exactly 1.0, which multiplies
        // every slack share by the IEEE-754 neutral element.
        cfg.strategy = SdaStrategy::adaptive(
            SdaStrategy::eqf_div1(),
            AdaptiveSlack::new(0.0, 1.0).unwrap(),
        );
        let mut wrapped = engine(cfg, 33);
        wrapped.run_until(SimTime::from(4_000.0));
        let mb = base.model().metrics();
        let mw = wrapped.model().metrics();
        assert_eq!(mb.global.completed(), mw.global.completed());
        assert_eq!(
            mb.global.response().mean().to_bits(),
            mw.global.response().mean().to_bits()
        );
        assert_eq!(
            mb.local.response().mean().to_bits(),
            mw.local.response().mean().to_bits()
        );
    }

    #[test]
    fn mmpp_arrivals_run_through_the_full_model() {
        use sda_workload::ArrivalProcess;
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        cfg.workload.arrivals = ArrivalProcess::Mmpp2 {
            burst_ratio: 6.0,
            dwell_quiet: 200.0,
            dwell_burst: 60.0,
        };
        let mut bursty = engine(cfg, 34);
        let horizon = SimTime::from(30_000.0);
        bursty.run_until(horizon);
        let m = bursty.model().metrics();
        assert!(m.local.completed() > 10_000);
        assert!(m.global.completed() > 1_000);
        // The long-run utilization still matches the configured load —
        // burstiness redistributes arrivals, it does not add work.
        let util: f64 = bursty
            .model()
            .nodes()
            .iter()
            .map(|n| n.utilization(horizon))
            .sum::<f64>()
            / 6.0;
        assert!(
            (util - 0.5).abs() < 0.05,
            "MMPP long-run utilization {util} should stay near load 0.5"
        );
    }

    /// A DAG baseline for the system-level tests: 4 layers, width ≤ 3,
    /// moderate cross-layer density, PSP slack range.
    fn dag_baseline(strategy: SdaStrategy) -> SystemConfig {
        use sda_workload::{GlobalShape, SlackRange};
        let mut cfg = SystemConfig::ssp_baseline(strategy);
        cfg.workload.shape = GlobalShape::Dag {
            depth: 4,
            max_width: 3,
            edge_density: 0.4,
        };
        cfg.workload.slack = SlackRange::PSP_BASELINE;
        cfg
    }

    #[test]
    fn dag_workload_runs_and_completes_tasks() {
        let mut e = engine(dag_baseline(SdaStrategy::eqf_div1()), 40);
        e.run_until(SimTime::from(5_000.0));
        let m = e.model().metrics();
        assert!(
            m.local.completed() > 1_000,
            "locals: {}",
            m.local.completed()
        );
        assert!(
            m.global.completed() > 300,
            "globals: {}",
            m.global.completed()
        );
        assert!(m.global.response().mean() > 0.0);
        // In-flight population stays bounded: fan-ins all resolve.
        assert!(e.model().tasks_in_flight() < 200);
    }

    #[test]
    fn dag_workload_is_deterministic_given_seed() {
        let run = |seed| {
            let mut e = engine(dag_baseline(SdaStrategy::eqf_div1()), seed);
            e.run_until(SimTime::from(3_000.0));
            let m = e.model().metrics();
            (
                m.local.completed(),
                m.global.completed(),
                m.global.miss_percent().to_bits(),
                m.global.response().mean().to_bits(),
            )
        };
        assert_eq!(run(41), run(41));
        assert_ne!(run(41), run(42));
    }

    #[test]
    fn dag_workload_with_delays_and_abort_tardy_does_not_leak() {
        use crate::config::NetworkModel;
        let mut cfg = dag_baseline(SdaStrategy::ud_div1());
        cfg.network = NetworkModel::Exponential { mean: 0.3 };
        cfg.overload = OverloadPolicy::AbortTardy;
        cfg.workload.load = 0.9;
        let mut e = engine(cfg, 42);
        e.run_until(SimTime::from(8_000.0));
        let m = e.model().metrics();
        assert!(m.aborted_globals > 0, "high load must abort something");
        assert!(m.global.completed() > 200);
        // Every aborted or delayed hand-off is accounted: the slab must
        // drain down to the queued population even with fan-ins whose
        // branches die mid-flight.
        let inflight = e.model().tasks_in_flight();
        assert!(
            inflight < 300,
            "{inflight} DAG tasks in flight with transit + aborts — leak?"
        );
        // Transit observations cover every hand-off of completed tasks
        // (initial fan-out + internal edges + result return).
        assert!(m.transit.count() > m.global.completed());
    }

    #[test]
    fn dag_deadline_strategies_differentiate() {
        // The slack-division insight survives on DAGs: EQF/DIV-1 must
        // beat the do-nothing UD-UD baseline for globals at high load.
        let mut cfg = dag_baseline(SdaStrategy::ud_ud());
        cfg.workload.load = 0.8;
        let mut ud = engine(cfg.clone(), 43);
        ud.run_until(SimTime::from(8_000.0));
        let ud_miss = ud.model().metrics().global.miss_percent();

        cfg.strategy = SdaStrategy::eqf_div1();
        let mut eqf = engine(cfg, 43);
        eqf.run_until(SimTime::from(8_000.0));
        let eqf_miss = eqf.model().metrics().global.miss_percent();
        assert!(
            eqf_miss < ud_miss,
            "EQF-DIV1 ({eqf_miss:.2}%) should beat UD-UD ({ud_miss:.2}%) on DAGs"
        );
    }

    #[test]
    fn globals_first_elevates_subtasks_over_locals() {
        // With GF, global subtasks should rarely wait behind locals; the
        // end-to-end global miss rate must be far below UD's at the same
        // seed and load.
        use sda_core::{ParallelStrategy, SerialStrategy};
        let mut cfg = SystemConfig::psp_baseline(SdaStrategy::ud_ud());
        cfg.workload.load = 0.8;
        let mut e_ud = engine(cfg.clone(), 6);
        e_ud.run_until(SimTime::from(8_000.0));
        let ud_miss = e_ud.model().metrics().global.miss_percent();

        cfg.strategy = SdaStrategy::new(
            SerialStrategy::UltimateDeadline,
            ParallelStrategy::GlobalsFirst,
        );
        let mut e_gf = engine(cfg, 6);
        e_gf.run_until(SimTime::from(8_000.0));
        let gf_miss = e_gf.model().metrics().global.miss_percent();
        assert!(
            gf_miss < ud_miss,
            "GF ({gf_miss:.2}%) should beat UD ({ud_miss:.2}%) for globals"
        );
    }

    mod churn {
        use super::*;
        use crate::failure::{DownInterval, FailureModel};

        fn down(node: usize, from: f64, until: f64) -> DownInterval {
            DownInterval { node, from, until }
        }

        #[test]
        fn empty_scripted_trace_is_bit_identical_to_no_failures() {
            let run = |failure: FailureModel| {
                let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
                cfg.failure = failure;
                let mut e = engine(cfg, 50);
                e.run_until(SimTime::from(3_000.0));
                let m = e.model().metrics();
                (
                    m.local.completed(),
                    m.global.completed(),
                    m.global.response().mean().to_bits(),
                )
            };
            assert_eq!(
                run(FailureModel::None),
                run(FailureModel::Scripted { downs: Vec::new() })
            );
        }

        #[test]
        fn scripted_outage_loses_work_and_recovers() {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
            cfg.failure = FailureModel::Scripted {
                downs: vec![down(0, 300.0, 600.0), down(2, 450.0, 500.0)],
            };
            let mut e = engine(cfg, 51);
            e.run_until(SimTime::from(3_000.0));
            let m = e.model().metrics();
            // Locals kept arriving at the dead hosts and were lost…
            assert!(m.lost_locals > 10, "lost locals: {}", m.lost_locals);
            // …global subtasks caught on node 0/2 were lost and re-placed.
            assert!(m.lost_subtasks > 0, "lost subtasks: {}", m.lost_subtasks);
            assert!(m.redispatches > 0);
            assert!(m.redispatches <= m.lost_subtasks);
            // The fleet heals: tasks keep completing after the outage.
            assert!(m.global.completed() > 300);
            assert!(e.model().tasks_in_flight() < 200);
            // Terminal accounting: every terminal local/global is exactly
            // one of completion-with-response, abort, loss, abandonment.
            assert_eq!(
                m.local.response().count() + m.aborted_locals + m.lost_locals,
                m.local.completed()
            );
            assert_eq!(
                m.global.response().count() + m.aborted_globals + m.abandoned_globals,
                m.global.completed()
            );
            // Both nodes are back up at the end.
            assert!(e.model().nodes().iter().all(|n| !n.is_down()));
        }

        #[test]
        fn whole_fleet_outage_abandons_tasks() {
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
            let downs = (0..cfg.workload.nodes)
                .map(|i| down(i, 200.0, 260.0))
                .collect();
            cfg.failure = FailureModel::Scripted { downs };
            let mut e = engine(cfg, 52);
            e.run_until(SimTime::from(1_500.0));
            let m = e.model().metrics();
            // Globals arriving while every node is down have nowhere to
            // go: their fan-out is lost and the task abandoned.
            assert!(
                m.abandoned_globals > 0,
                "abandoned: {}",
                m.abandoned_globals
            );
            assert!(e.model().tasks_in_flight() < 100);
            assert_eq!(
                m.global.response().count() + m.aborted_globals + m.abandoned_globals,
                m.global.completed()
            );
        }

        #[test]
        fn exponential_churn_keeps_the_model_sound() {
            let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
            cfg.failure = FailureModel::Exponential {
                mttf: 400.0,
                mttr: 60.0,
            };
            cfg.network = NetworkModel::Constant { delay: 0.25 };
            let mut e = engine(cfg, 53);
            e.run_until(SimTime::from(10_000.0));
            let m = e.model().metrics();
            assert!(m.lost_locals > 0);
            assert!(m.lost_subtasks > 0);
            assert!(m.redispatches > 0);
            assert!(m.global.completed() > 500);
            assert!(e.model().tasks_in_flight() < 200, "slab leak under churn");
            assert_eq!(
                m.global.response().count() + m.aborted_globals + m.abandoned_globals,
                m.global.completed()
            );
        }

        #[test]
        fn redispatched_work_lands_on_surviving_nodes() {
            // One node down for most of the run: its subtasks must be
            // served elsewhere, so globals still complete and the dead
            // node accrues no service time while down.
            let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
            cfg.failure = FailureModel::Scripted {
                downs: vec![down(1, 150.0, 4_900.0)],
            };
            let mut e = engine(cfg, 54);
            let horizon = SimTime::from(5_000.0);
            e.run_until(horizon);
            let m = e.model().metrics();
            assert!(m.redispatches > 50, "redispatches: {}", m.redispatches);
            assert!(m.global.completed() > 500);
            let utils: Vec<f64> = e
                .model()
                .nodes()
                .iter()
                .map(|n| n.utilization(horizon))
                .collect();
            // Node 1 served ~nothing; its wrap-around neighbour 2 absorbed
            // the re-dispatched share on top of its own.
            assert!(utils[1] < 0.10, "dead node utilization {}", utils[1]);
            assert!(utils[2] > utils[1]);
        }

        #[test]
        fn churn_with_abort_tardy_leaks_no_slots() {
            let mut cfg = SystemConfig::psp_baseline(SdaStrategy::ud_div1());
            cfg.overload = OverloadPolicy::AbortTardy;
            cfg.workload.load = 0.9;
            cfg.network = NetworkModel::Exponential { mean: 0.3 };
            cfg.failure = FailureModel::Exponential {
                mttf: 250.0,
                mttr: 40.0,
            };
            let mut e = engine(cfg, 55);
            e.run_until(SimTime::from(8_000.0));
            let m = e.model().metrics();
            assert!(m.aborted_globals > 0);
            assert!(m.lost_subtasks > 0);
            assert!(
                e.model().tasks_in_flight() < 300,
                "{} tasks in flight under churn + aborts — leak?",
                e.model().tasks_in_flight()
            );
        }
    }
}
