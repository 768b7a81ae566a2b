//! The process manager of paper §3.2, written once for every engine.
//!
//! [`ProcessManager`] is the one decision-maker: it admits each global
//! task, splits its end-to-end deadline into virtual deadlines through
//! the configured [`SdaStrategy`], enforces precedence by answering
//! every completion with the next submittable wave, and keeps the
//! [`Metrics`] (including the [`QosMonitor`](crate::QosMonitor)). It
//! knows nothing about time sources or transport: the serial engine,
//! the sharded engine's manager shard and the live service's manager
//! thread all call the same methods and turn the returned outcomes into
//! events, mailbox records or channel messages.
//!
//! In-flight global tasks live in a generation-stamped slab of pooled
//! runs — [`FlatRun`]s for the paper's stage-structured shapes,
//! [`DagRun`]s for [`GlobalShape::Dag`] workloads — so the steady state
//! allocates nothing: a [`TaskId`] carries its slot index, and a
//! recycled slot keeps its run's grown capacity.

use sda_core::{
    DagRun, DeadlineAssigner, FlatRun, NodeId, SdaStrategy, Submission, SubtaskRef, TaskId,
};
use sda_sched::{Job, JobOrigin};
use sda_workload::GlobalShape;

use crate::config::SystemConfig;
use crate::metrics::Metrics;
use crate::qos::ServiceClass;

/// How many times a global task's lost subtask is re-dispatched before
/// the process manager gives the task up as
/// [`abandoned`](crate::Metrics::abandoned_globals). Counted per task,
/// not per subtask, so a task repeatedly caught on crashing nodes
/// terminates.
const MAX_REDISPATCH: u32 = 3;

/// The pooled per-task runtime: the stage-structured hot path
/// ([`FlatRun`]) for the paper's tree shapes, or the precedence-DAG
/// runtime ([`DagRun`]) for [`GlobalShape::Dag`] workloads. A manager
/// only ever uses one variant (the shape is fixed per configuration), so
/// a recycled slot's variant — and its grown capacity — is stable across
/// reuse.
// The size difference between the variants is fine: slots live in a
// long-lived slab sized by the in-flight high-water mark (a manager uses
// exactly one variant), and boxing the larger variant would put a heap
// indirection on every submit/complete/abort of the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum PooledRun {
    /// Stage-structured task (serial chains, fans, pipelines of fans).
    Flat(FlatRun),
    /// DAG-structured task (arbitrary fan-out/fan-in).
    Dag(DagRun),
}

impl PooledRun {
    fn set_expected_comm(&mut self, per_hop: f64) {
        match self {
            PooledRun::Flat(run) => run.set_expected_comm(per_hop),
            PooledRun::Dag(run) => run.set_expected_comm(per_hop),
        }
    }

    fn set_slack_scale(&mut self, scale: f64) {
        match self {
            PooledRun::Flat(run) => run.set_slack_scale(scale),
            PooledRun::Dag(run) => run.set_slack_scale(scale),
        }
    }

    /// When the task arrived.
    pub fn arrival(&self) -> f64 {
        match self {
            PooledRun::Flat(run) => run.arrival(),
            PooledRun::Dag(run) => run.arrival(),
        }
    }

    fn global_deadline(&self) -> f64 {
        match self {
            PooledRun::Flat(run) => run.global_deadline(),
            PooledRun::Dag(run) => run.global_deadline(),
        }
    }

    fn start<A: DeadlineAssigner + ?Sized>(
        &mut self,
        strategy: &A,
        now: f64,
        out: &mut Vec<Submission>,
    ) {
        match self {
            PooledRun::Flat(run) => run.start(strategy, now, out),
            PooledRun::Dag(run) => run.start(strategy, now, out),
        }
    }

    fn complete<A: DeadlineAssigner + ?Sized>(
        &mut self,
        subtask: SubtaskRef,
        strategy: &A,
        now: f64,
        out: &mut Vec<Submission>,
    ) -> bool {
        match self {
            PooledRun::Flat(run) => run.complete(subtask, strategy, now, out),
            PooledRun::Dag(run) => run.complete(subtask, strategy, now, out),
        }
    }

    fn reissue<A: DeadlineAssigner + ?Sized>(
        &mut self,
        subtask: SubtaskRef,
        strategy: &A,
        now: f64,
        out: &mut Vec<Submission>,
    ) {
        match self {
            PooledRun::Flat(run) => run.reissue(subtask, strategy, now, out),
            PooledRun::Dag(run) => run.reissue(subtask, strategy, now, out),
        }
    }
}

/// One slot of the process manager's task slab.
///
/// A vacated slot keeps its [`PooledRun`] (and the run keeps its vector
/// capacity), so recycling a slot for the next arriving task allocates
/// nothing. The generation stamp makes stale [`TaskId`]s miss cleanly:
/// a task id packs `(generation, slot)`, and every release bumps the
/// slot's generation.
#[derive(Debug)]
struct TaskSlot {
    /// Bumped on every release; a [`TaskId`] carrying an older
    /// generation no longer resolves to this slot.
    gen: u32,
    /// Whether the slot currently holds an in-flight task.
    live: bool,
    /// The pooled runtime state (retains capacity across reuse).
    run: PooledRun,
    /// Set under the firm-deadline policy when any subtask is discarded;
    /// the task is finished as missed, submits nothing further, and its
    /// in-flight hand-offs are dropped on arrival.
    aborted: bool,
    /// Set when the re-dispatch path gives the task up (retry budget
    /// spent or the whole fleet down). Like `aborted`, the task is a
    /// terminal miss and submits nothing further — but hand-offs already
    /// in flight still *execute* (the abandon decision cannot outrun
    /// work already on the wire); their completions are swallowed here.
    /// This keeps the serial and sharded engines bit-identical: a shard
    /// may already hold the delivery when the manager abandons the task.
    abandoned: bool,
    /// Jobs of this task currently queued, in service or in transit.
    outstanding: u32,
    /// How many of this task's subtasks were re-dispatched after a loss
    /// (crashed node or hand-off to a down node); capped at
    /// [`MAX_REDISPATCH`], beyond which the task is abandoned.
    retries: u32,
}

/// Packs a slab position into a [`TaskId`]: generation above, slot below.
#[inline]
fn global_task_id(gen: u32, slot: u32) -> TaskId {
    TaskId::new((u64::from(gen) << 32) | u64::from(slot))
}

/// What a global subtask completion led to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubtaskOutcome {
    /// The task's last subtask finished. The task itself is recorded by
    /// [`ProcessManager::finish`] once its result reaches the manager
    /// (at once under free communication, after a hop otherwise).
    Finished,
    /// The task continues; the follow-up wave was written to the output
    /// buffer and is already counted as outstanding.
    Progressed,
    /// The task was already aborted or abandoned; the completion was
    /// swallowed.
    Swallowed,
}

/// What an admission-policy discard led to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscardOutcome {
    /// A local task was discarded (terminal).
    Local,
    /// The discard aborted its global task (first discard: terminal).
    GlobalAborted,
    /// The global task was already dead; only the subtask-level
    /// accounting changed.
    GlobalAlreadyDead,
}

/// What the loss of a global subtask copy led to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LossOutcome {
    /// The task was already dead; the loss only settled its accounting.
    Swallowed,
    /// The retry budget was spent or no live node remained: the task is
    /// a terminal miss.
    Abandoned,
    /// The replacement submission was written to the output buffer.
    Reissued,
}

/// The process-manager state machine, clock- and transport-agnostic.
///
/// Drive it with [`admit`](ProcessManager::admit) on a global arrival,
/// [`local_done`](ProcessManager::local_done) /
/// [`subtask_done`](ProcessManager::subtask_done) on completions,
/// [`finish`](ProcessManager::finish) when a finished task's result
/// arrives, [`job_discarded`](ProcessManager::job_discarded) on
/// admission-policy discards and
/// [`reset_warmup`](ProcessManager::reset_warmup) at the warm-up
/// boundary. Submission waves are written to caller-provided buffers, so
/// the caller decides how they travel.
#[derive(Debug)]
pub struct ProcessManager {
    strategy: SdaStrategy,
    /// Whether the configured shape is [`GlobalShape::Dag`] — selects
    /// which [`PooledRun`] variant fresh slots are built with.
    dag_tasks: bool,
    /// Expected per-hop transit time, pre-computed from the network
    /// model; stamped onto every task so deadline assignment reserves
    /// slack for communication.
    hop_comm: f64,
    /// Generation-stamped slab of in-flight global tasks; [`TaskId`]s
    /// index it directly.
    tasks: Vec<TaskSlot>,
    /// Vacant slab slots available for reuse.
    task_free: Vec<u32>,
    /// Number of live slots in `tasks`.
    in_flight: usize,
    /// Id counter for local tasks (globals get slab-derived ids).
    next_local_id: u64,
    pub(crate) metrics: Metrics,
}

impl ProcessManager {
    /// A manager for `config`'s strategy, task shape and network model.
    pub fn new(config: &SystemConfig) -> ProcessManager {
        ProcessManager {
            strategy: config.strategy,
            dag_tasks: matches!(config.workload.shape, GlobalShape::Dag { .. }),
            hop_comm: config.network.expected_hop_delay(),
            tasks: Vec::new(),
            task_free: Vec::new(),
            in_flight: 0,
            next_local_id: 0,
            metrics: Metrics::new(),
        }
    }

    /// Collected metrics (so far).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of global tasks currently in flight.
    pub fn tasks_in_flight(&self) -> usize {
        self.in_flight
    }

    /// The next local task id.
    pub fn fresh_local_id(&mut self) -> TaskId {
        let id = TaskId::new(self.next_local_id);
        self.next_local_id += 1;
        id
    }

    /// Warm-up deletion: every statistic restarts, while the `ADAPT`
    /// feedback control state survives (see [`Metrics::reset`]).
    pub fn reset_warmup(&mut self) {
        self.metrics.reset();
    }

    /// The slack-share multiplier an `ADAPT(base)` strategy applies at
    /// the next stage activation: the live miss-pressure estimate mapped
    /// through the wrapper's gain/floor. Exactly `1.0` (the bit-identical
    /// neutral element) for open-loop strategies.
    #[inline]
    fn adapt_scale(&self) -> f64 {
        match self.strategy.adapt {
            Some(adapt) => adapt.scale(self.metrics.feedback.pressure()),
            None => 1.0,
        }
    }

    /// Claims a (possibly recycled) task slot; its pooled run keeps
    /// whatever capacity earlier occupants grew.
    fn acquire_task_slot(&mut self) -> u32 {
        let slot = match self.task_free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.tasks.len())
                    .expect("more than u32::MAX in-flight global tasks");
                self.tasks.push(TaskSlot {
                    gen: 0,
                    live: false,
                    run: if self.dag_tasks {
                        PooledRun::Dag(DagRun::new())
                    } else {
                        PooledRun::Flat(FlatRun::new())
                    },
                    aborted: false,
                    abandoned: false,
                    outstanding: 0,
                    retries: 0,
                });
                slot
            }
        };
        let entry = &mut self.tasks[slot as usize];
        debug_assert!(!entry.live, "free list pointed at a live slot");
        entry.live = true;
        entry.aborted = false;
        entry.abandoned = false;
        entry.outstanding = 0;
        entry.retries = 0;
        self.in_flight += 1;
        slot
    }

    /// Vacates a slot: bumps its generation (invalidating outstanding
    /// ids) and returns it to the free list. The pooled run stays put for
    /// the next occupant.
    fn release_task_slot(&mut self, slot: usize) {
        let entry = &mut self.tasks[slot];
        debug_assert!(entry.live, "double release of a task slot");
        entry.live = false;
        entry.gen = entry.gen.wrapping_add(1);
        self.task_free.push(slot as u32);
        self.in_flight -= 1;
    }

    /// Resolves a global [`TaskId`] to its live slab slot, `None` if the
    /// task has already finished or aborted (stale id).
    #[inline]
    fn lookup_task(&self, id: TaskId) -> Option<usize> {
        let raw = id.raw();
        let slot = (raw & u64::from(u32::MAX)) as usize;
        let gen = (raw >> 32) as u32;
        match self.tasks.get(slot) {
            Some(entry) if entry.live && entry.gen == gen => Some(slot),
            _ => None,
        }
    }

    /// Decrements `slot`'s outstanding jobs and, if the task is already
    /// aborted or abandoned, releases the slot once nothing of it is
    /// left. Returns whether the task was dead.
    fn settle_if_dead(&mut self, slot: usize) -> bool {
        let entry = &mut self.tasks[slot];
        entry.outstanding -= 1;
        if !(entry.aborted || entry.abandoned) {
            return false;
        }
        if entry.outstanding == 0 {
            self.release_task_slot(slot);
        }
        true
    }

    /// Folds one terminal local/global outcome into the `ADAPT` feedback
    /// estimator and the QoS monitor.
    #[inline]
    fn observe_terminal(&mut self, class: ServiceClass, missed: bool, now: f64) {
        self.metrics.feedback.observe(missed);
        self.metrics.qos.observe(class, missed, now);
    }

    /// Admits a global task arriving at `now`: claims a slot, fills its
    /// run through `fill` (the caller's workload source), stamps the
    /// expected communication and the adaptive slack scale, runs the
    /// strategy's initial decomposition and writes the initial
    /// submission wave to `out`.
    pub fn admit(
        &mut self,
        now: f64,
        fill: impl FnOnce(&mut PooledRun),
        out: &mut Vec<Submission>,
    ) -> TaskId {
        let scale = self.adapt_scale();
        let slot = self.acquire_task_slot();
        let entry = &mut self.tasks[slot as usize];
        fill(&mut entry.run);
        entry.run.set_expected_comm(self.hop_comm);
        entry.run.set_slack_scale(scale);
        out.clear();
        entry.run.start(&self.strategy, now, out);
        entry.outstanding = out.len() as u32;
        global_task_id(entry.gen, slot)
    }

    /// The end-to-end deadline of in-flight task `task`.
    pub(crate) fn global_deadline(&self, task: TaskId) -> Option<f64> {
        self.lookup_task(task)
            .map(|slot| self.tasks[slot].run.global_deadline())
    }

    /// Accounts a local job completed at `now`.
    pub fn local_done(&mut self, job: &Job, now: f64) {
        debug_assert!(matches!(job.origin, JobOrigin::Local { .. }));
        self.metrics
            .local
            .record(job.enqueue_time, job.deadline, now);
        self.observe_terminal(ServiceClass::Local, now > job.deadline, now);
    }

    /// Accounts a global subtask job completed at `now`. On
    /// [`SubtaskOutcome::Progressed`] the follow-up wave is in `out`.
    ///
    /// # Panics
    ///
    /// Panics if `job` is a local job.
    pub fn subtask_done(
        &mut self,
        job: &Job,
        now: f64,
        out: &mut Vec<Submission>,
    ) -> SubtaskOutcome {
        let JobOrigin::Global { task, subtask } = job.origin else {
            panic!("subtask_done on a local job");
        };
        let virtual_miss = now > job.deadline;
        self.metrics.subtask_virtual_miss.record(virtual_miss);
        self.metrics
            .qos
            .observe(ServiceClass::SubtaskVirtual, virtual_miss, now);
        let Some(slot) = self.lookup_task(task) else {
            debug_assert!(false, "completion for unknown task {task}");
            return SubtaskOutcome::Swallowed;
        };
        let scale = self.adapt_scale();
        if self.settle_if_dead(slot) {
            return SubtaskOutcome::Swallowed;
        }
        let entry = &mut self.tasks[slot];
        // Refresh the feedback stamp so the *next* stage's deadline
        // reflects the current miss pressure, not the pressure at the
        // task's arrival.
        entry.run.set_slack_scale(scale);
        out.clear();
        if entry.run.complete(subtask, &self.strategy, now, out) {
            SubtaskOutcome::Finished
        } else {
            entry.outstanding += out.len() as u32;
            SubtaskOutcome::Progressed
        }
    }

    /// Records a finished global task whose result reached the manager
    /// at `now`, and vacates its slot. Returns whether it missed its
    /// end-to-end deadline, `None` for an unknown task.
    pub fn finish(&mut self, task: TaskId, now: f64) -> Option<bool> {
        let Some(slot) = self.lookup_task(task) else {
            debug_assert!(false, "result for unknown task {task}");
            return None;
        };
        let run = &self.tasks[slot].run;
        let (arrival, deadline) = (run.arrival(), run.global_deadline());
        let missed = now > deadline;
        self.metrics.global.record(arrival, deadline, now);
        self.observe_terminal(ServiceClass::Global, missed, now);
        self.release_task_slot(slot);
        Some(missed)
    }

    /// Accounts a job discarded at `now` by the firm-deadline admission
    /// policy. The first discard of a global task aborts it.
    pub fn job_discarded(&mut self, job: &Job, now: f64) -> DiscardOutcome {
        match job.origin {
            JobOrigin::Local { .. } => {
                self.metrics.local.record_aborted();
                self.metrics.aborted_locals += 1;
                self.observe_terminal(ServiceClass::Local, true, now);
                DiscardOutcome::Local
            }
            JobOrigin::Global { task, .. } => {
                self.metrics.subtask_virtual_miss.record(true);
                self.metrics
                    .qos
                    .observe(ServiceClass::SubtaskVirtual, true, now);
                let Some(slot) = self.lookup_task(task) else {
                    return DiscardOutcome::GlobalAlreadyDead;
                };
                let entry = &mut self.tasks[slot];
                entry.outstanding -= 1;
                let outstanding = entry.outstanding;
                let outcome = if !entry.aborted && !entry.abandoned {
                    entry.aborted = true;
                    self.metrics.global.record_aborted();
                    self.metrics.aborted_globals += 1;
                    self.observe_terminal(ServiceClass::Global, true, now);
                    DiscardOutcome::GlobalAborted
                } else {
                    DiscardOutcome::GlobalAlreadyDead
                };
                if outstanding == 0 {
                    self.release_task_slot(slot);
                }
                outcome
            }
        }
    }

    /// Accounts a local task lost at `now` to a down node: a terminal
    /// miss, its node's users see nothing back.
    pub(crate) fn local_lost(&mut self, now: f64) {
        self.metrics.local.record_aborted();
        self.metrics.lost_locals += 1;
        self.observe_terminal(ServiceClass::Local, true, now);
    }

    /// Settles a hand-off of `task` about to be delivered: returns `true`
    /// — with its outstanding-job accounting settled — when the task was
    /// aborted while the hand-off was in transit (or is unknown), so the
    /// caller drops it instead of delivering.
    pub(crate) fn handoff_aborted(&mut self, task: TaskId) -> bool {
        let Some(slot) = self.lookup_task(task) else {
            debug_assert!(false, "hand-off for unknown task {task}");
            return true;
        };
        if !self.tasks[slot].aborted {
            return false;
        }
        self.settle_if_dead(slot)
    }

    /// Recovery path for one lost copy of `task`'s `subtask`:
    /// re-decomposes the *remaining* deadline budget over the residual
    /// precedence structure — through the same [`DeadlineAssigner`]
    /// interface the strategy uses everywhere else, so every strategy
    /// shapes the recovery window — and writes the replacement
    /// submission to `out`, re-targeted by `place`. `place` maps the
    /// original node to a live replacement and the ratio of their
    /// speeds (`None` when the whole fleet is down). Once the task's
    /// retry budget is spent, or nothing can be placed, the task is
    /// abandoned instead.
    pub(crate) fn subtask_lost(
        &mut self,
        task: TaskId,
        subtask: SubtaskRef,
        now: f64,
        out: &mut Vec<Submission>,
        place: impl FnOnce(NodeId) -> Option<(NodeId, f64)>,
    ) -> LossOutcome {
        self.metrics.lost_subtasks += 1;
        let Some(slot) = self.lookup_task(task) else {
            debug_assert!(false, "loss for unknown task {task}");
            return LossOutcome::Swallowed;
        };
        let scale = self.adapt_scale();
        if self.settle_if_dead(slot) {
            return LossOutcome::Swallowed;
        }
        let entry = &mut self.tasks[slot];
        if entry.retries >= MAX_REDISPATCH {
            self.abandon_task(slot, now);
            return LossOutcome::Abandoned;
        }
        entry.retries += 1;
        entry.run.set_slack_scale(scale);
        out.clear();
        entry.run.reissue(subtask, &self.strategy, now, out);
        debug_assert_eq!(out.len(), 1, "reissue yields one submission");
        let Some((target, ratio)) = place(out[0].node) else {
            self.abandon_task(slot, now);
            return LossOutcome::Abandoned;
        };
        // The run stores demands in the original node's service units;
        // re-express them for the replacement node's speed.
        let sub = &mut out[0];
        sub.node = target;
        sub.ex *= ratio;
        sub.pex *= ratio;
        self.tasks[slot].outstanding += 1;
        self.metrics.redispatches += 1;
        LossOutcome::Reissued
    }

    /// Terminal give-up for a task whose lost work cannot be re-placed:
    /// a miss with no response observation (like a firm-deadline abort),
    /// counted separately as
    /// [`abandoned`](crate::Metrics::abandoned_globals). Unlike an
    /// abort, hand-offs of the task already in flight still deliver and
    /// execute — the give-up decision cannot outrun work on the wire —
    /// and their completions are swallowed by
    /// [`ProcessManager::subtask_done`]. The caller has already settled
    /// the lost copy's `outstanding` decrement.
    fn abandon_task(&mut self, slot: usize, now: f64) {
        let entry = &mut self.tasks[slot];
        debug_assert!(
            !entry.aborted && !entry.abandoned,
            "abandon of an already-dead task"
        );
        entry.abandoned = true;
        let outstanding = entry.outstanding;
        self.metrics.global.record_aborted();
        self.metrics.abandoned_globals += 1;
        self.observe_terminal(ServiceClass::Global, true, now);
        if outstanding == 0 {
            self.release_task_slot(slot);
        }
    }
}
