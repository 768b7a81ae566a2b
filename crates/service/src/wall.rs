//! The wall-clock service runtime: submitter threads stream generated
//! tasks to a process-manager thread, which assigns virtual deadlines
//! through the unchanged strategies and dispatches subtasks to
//! thread-per-node workers over in-process channels.
//!
//! Topology:
//!
//! ```text
//! local submitter ──┐                      ┌── worker 0 (owns Node 0)
//! global submitter ─┼──► process manager ──┼── worker 1 (owns Node 1)
//!                   │  (ProcessManager)    └── ...
//! workers ──────────┘   completions/discards
//! ```
//!
//! The submitters reuse [`TaskFactory`] (and through it the
//! [`ArrivalProcess`](sda_workload::ArrivalProcess) drivers — Poisson,
//! MMPP, phased) as deterministic traffic generators: the *trace* of
//! arrival times and task attributes is seeded and reproducible, while
//! completion times are measured on the real clock. Shutdown is a
//! drain: submitters close at the horizon, and the manager releases the
//! workers only once every submitted task has reached a terminal state,
//! so no completion is lost.
//!
//! Workers keep the schedule, not their threads' wake-ups: each node is
//! the paper's work-conserving server, so a job holds it for exactly its
//! service time and the next queued job starts at the scheduled
//! completion instant, however late the thread wakes to notice. The
//! manager still observes each completion on its own clock, so the
//! latency the runtime adds in reporting it counts toward the task's
//! response time, and so toward its deadline verdict.

use std::sync::mpsc;
use std::sync::Arc;

use sda_core::{DagRun, FlatRun, NodeId, Submission, TaskId};
use sda_sched::{Job, JobOrigin};
use sda_sim::rng::RngFactory;
use sda_sim::SimTime;
use sda_system::{
    DiscardOutcome, Metrics, Node, PooledRun, ProcessManager, RunConfig, SubtaskOutcome,
    SystemConfig,
};
use sda_workload::{GlobalShape, LocalTask, TaskFactory};

use crate::clock::WallClock;
use crate::ServiceError;

/// Parameters of one wall-clock service run.
#[derive(Debug, Clone)]
pub struct WallRunConfig {
    /// Warm-up prefix (simulated time units) after which statistics
    /// restart.
    pub warmup: f64,
    /// Submission horizon (simulated time units, including warm-up):
    /// submitters stop streaming once their next arrival falls past it.
    pub duration: f64,
    /// Master seed for the traffic generators.
    pub seed: u64,
    /// Simulated time units per wall-clock second (see [`WallClock`]).
    pub time_scale: f64,
    /// Hard cap on submitted global tasks (`u64::MAX` = horizon only).
    pub max_globals: u64,
}

impl WallRunConfig {
    /// A configuration with no global-task cap.
    pub fn new(run: &RunConfig, time_scale: f64) -> WallRunConfig {
        WallRunConfig {
            warmup: run.warmup,
            duration: run.duration,
            seed: run.seed,
            time_scale,
            max_globals: u64::MAX,
        }
    }
}

/// Everything a wall-clock run produces.
#[derive(Debug, Clone)]
pub struct WallReport {
    /// Task metrics, observed on the wall clock (post-warm-up).
    pub metrics: Metrics,
    /// Local tasks the submitters streamed in.
    pub submitted_locals: u64,
    /// Global tasks the submitters streamed in.
    pub submitted_globals: u64,
    /// Local tasks that reached a terminal state (completed or
    /// discarded).
    pub terminal_locals: u64,
    /// Global tasks that reached a terminal state (finished or
    /// aborted).
    pub terminal_globals: u64,
    /// Per-node wall-time utilization over the run.
    pub node_utilization: Vec<f64>,
    /// The service clock when the drain finished (simulated units).
    pub end_time: f64,
    /// Real seconds the run took.
    pub wall_seconds: f64,
}

impl WallReport {
    /// Tasks submitted but never accounted — must be zero after a
    /// graceful drain.
    pub fn lost_tasks(&self) -> u64 {
        (self.submitted_locals - self.terminal_locals)
            + (self.submitted_globals - self.terminal_globals)
    }

    /// Whether the shutdown drained cleanly: every submitted task
    /// reached a terminal state.
    pub fn drained_clean(&self) -> bool {
        self.lost_tasks() == 0
    }
}

/// Submitters and workers → manager.
enum ToManager {
    Local(LocalTask),
    GlobalFlat(Box<FlatRun>),
    GlobalDag(Box<DagRun>),
    Done { job: Job },
    Discarded { job: Job },
    SubmitterDone { submitted: u64, locals: bool },
}

/// Manager → worker.
enum ToWorker {
    Run(Job),
    ResetStats,
    Shutdown,
}

/// Runs the service on the wall clock and drains it.
///
/// # Errors
///
/// Returns [`ServiceError::Config`] for invalid workloads,
/// [`ServiceError::Unsupported`] for model features the live runtime
/// does not implement, [`ServiceError::BadParameter`] for a bad
/// `time_scale` or `duration` or for a `warmup` that is not finite, is
/// negative or does not end before `duration`.
pub fn run_wall(config: &SystemConfig, wall: &WallRunConfig) -> Result<WallReport, ServiceError> {
    crate::check_supported(config)?;
    if !wall.duration.is_finite() || wall.duration <= 0.0 {
        return Err(ServiceError::BadParameter {
            what: "duration",
            value: wall.duration,
        });
    }
    // A NaN warm-up would never reset the statistics, and one at or past
    // the horizon would reset them mid-drain.
    if !wall.warmup.is_finite() || wall.warmup < 0.0 || wall.warmup >= wall.duration {
        return Err(ServiceError::BadParameter {
            what: "warmup",
            value: wall.warmup,
        });
    }
    let clock = Arc::new(WallClock::new(wall.time_scale)?);

    // Independent factories per submitter thread: same workload, child
    // seeds, so each thread owns its streams outright.
    let rng = RngFactory::new(wall.seed);
    let local_factory = TaskFactory::new(config.workload.clone(), &rng.subfactory(1))?;
    let global_factory = TaskFactory::new(config.workload.clone(), &rng.subfactory(2))?;

    let n = config.workload.nodes;
    let dag_tasks = matches!(config.workload.shape, GlobalShape::Dag { .. });

    let (to_manager, manager_rx) = mpsc::channel::<ToManager>();
    let mut worker_txs = Vec::with_capacity(n);
    let mut worker_handles = Vec::with_capacity(n);
    for i in 0..n {
        let (tx, rx) = mpsc::channel::<ToWorker>();
        worker_txs.push(tx);
        let node = Node::new(NodeId::new(i as u32), config.policy);
        let worker = Worker {
            node,
            rx,
            manager: to_manager.clone(),
            clock: Arc::clone(&clock),
            preemptive: config.preemptive,
            overload: config.overload,
            pending: None,
        };
        worker_handles.push(std::thread::spawn(move || worker.run()));
    }

    let horizon = wall.duration;
    let local_sub = {
        let tx = to_manager.clone();
        let clock = Arc::clone(&clock);
        let mut factory = local_factory;
        let nodes = n;
        std::thread::spawn(move || submit_locals(&mut factory, nodes, horizon, &clock, &tx))
    };
    let global_sub = {
        let tx = to_manager.clone();
        let clock = Arc::clone(&clock);
        let mut factory = global_factory;
        let cap = wall.max_globals;
        let dag = dag_tasks;
        std::thread::spawn(move || submit_globals(&mut factory, horizon, cap, dag, &clock, &tx))
    };
    drop(to_manager);

    let mut manager = Manager {
        pm: ProcessManager::new(config),
        worker_txs,
        clock: Arc::clone(&clock),
        warmup: wall.warmup,
        warmup_done: wall.warmup <= 0.0,
        outstanding_jobs: 0,
        submitted_locals: None,
        submitted_globals: None,
        terminal_locals: 0,
        terminal_globals: 0,
        subs: Vec::new(),
    };
    manager.run(&manager_rx);

    local_sub.join().expect("local submitter thread panicked");
    global_sub.join().expect("global submitter thread panicked");
    let end_time = clock.now();
    let end_t = SimTime::new(end_time);
    let mut node_utilization = Vec::with_capacity(n);
    for handle in worker_handles {
        let node = handle.join().expect("worker thread panicked");
        node_utilization.push(node.utilization(end_t));
    }

    Ok(WallReport {
        metrics: manager.pm.metrics().clone(),
        submitted_locals: manager.submitted_locals.unwrap_or(0),
        submitted_globals: manager.submitted_globals.unwrap_or(0),
        terminal_locals: manager.terminal_locals,
        terminal_globals: manager.terminal_globals,
        node_utilization,
        end_time,
        wall_seconds: end_time / clock.time_scale(),
    })
}

/// Streams every node's local arrivals, merged by a small time heap, at
/// their generated instants until the horizon.
fn submit_locals(
    factory: &mut TaskFactory,
    nodes: usize,
    horizon: f64,
    clock: &WallClock,
    tx: &mpsc::Sender<ToManager>,
) {
    // (next arrival time, node), smallest time first.
    let mut next: Vec<(f64, NodeId)> = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let node = NodeId::new(i as u32);
        if let Some(gap) = factory.next_local_interarrival(node) {
            next.push((gap, node));
        }
    }
    let mut submitted = 0u64;
    while let Some((idx, &(t, node))) = next
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
    {
        if t > horizon {
            break;
        }
        clock.sleep_until(t);
        let task = factory.make_local(node, t);
        if tx.send(ToManager::Local(task)).is_err() {
            break; // manager gone: nothing left to stream to
        }
        submitted += 1;
        match factory.next_local_interarrival(node) {
            Some(gap) => next[idx] = (t + gap, node),
            None => {
                next.swap_remove(idx);
            }
        }
    }
    let _ = tx.send(ToManager::SubmitterDone {
        submitted,
        locals: true,
    });
}

/// Streams global tasks at their generated instants until the horizon
/// or the task cap.
fn submit_globals(
    factory: &mut TaskFactory,
    horizon: f64,
    cap: u64,
    dag: bool,
    clock: &WallClock,
    tx: &mpsc::Sender<ToManager>,
) {
    let mut t = 0.0f64;
    let mut submitted = 0u64;
    while submitted < cap {
        let Some(gap) = factory.next_global_interarrival() else {
            break;
        };
        t += gap;
        if t > horizon {
            break;
        }
        clock.sleep_until(t);
        let msg = if dag {
            let mut run = DagRun::new();
            factory.make_global_dag(t, &mut run);
            ToManager::GlobalDag(Box::new(run))
        } else {
            let mut run = FlatRun::new();
            factory.make_global_flat(t, &mut run);
            ToManager::GlobalFlat(Box::new(run))
        };
        if tx.send(msg).is_err() {
            break;
        }
        submitted += 1;
    }
    let _ = tx.send(ToManager::SubmitterDone {
        submitted,
        locals: false,
    });
}

/// The process-manager thread state.
struct Manager {
    pm: ProcessManager,
    worker_txs: Vec<mpsc::Sender<ToWorker>>,
    clock: Arc<WallClock>,
    warmup: f64,
    warmup_done: bool,
    /// Jobs handed to workers and not yet terminal — the drain gate.
    outstanding_jobs: u64,
    submitted_locals: Option<u64>,
    submitted_globals: Option<u64>,
    terminal_locals: u64,
    terminal_globals: u64,
    subs: Vec<Submission>,
}

impl Manager {
    fn run(&mut self, rx: &mpsc::Receiver<ToManager>) {
        while let Ok(msg) = rx.recv() {
            self.maybe_end_warmup();
            self.handle(msg);
            if self.drained() {
                break;
            }
        }
        for tx in &self.worker_txs {
            let _ = tx.send(ToWorker::Shutdown);
        }
    }

    fn maybe_end_warmup(&mut self) {
        if !self.warmup_done && self.clock.now() >= self.warmup {
            self.pm.reset_warmup();
            for tx in &self.worker_txs {
                let _ = tx.send(ToWorker::ResetStats);
            }
            self.warmup_done = true;
        }
    }

    /// Drain condition: both submitters closed, and every job they
    /// induced has reached a terminal state.
    fn drained(&self) -> bool {
        self.submitted_locals.is_some()
            && self.submitted_globals.is_some()
            && self.outstanding_jobs == 0
            && self.pm.tasks_in_flight() == 0
    }

    fn send_job(&mut self, node: NodeId, job: Job) {
        self.outstanding_jobs += 1;
        // A worker only disconnects after Shutdown, which is only sent
        // once the drain completed — so this send cannot fail while
        // jobs are outstanding.
        self.worker_txs[node.index()]
            .send(ToWorker::Run(job))
            .expect("worker alive until drained");
    }

    fn dispatch_wave(&mut self, task: TaskId, now: f64) {
        let subs = std::mem::take(&mut self.subs);
        for sub in &subs {
            let job = Job::global(
                task,
                sub.subtask,
                now,
                sub.ex,
                sub.pex,
                sub.deadline,
                sub.priority,
            );
            self.send_job(sub.node, job);
        }
        self.subs = subs;
    }

    fn handle(&mut self, msg: ToManager) {
        match msg {
            ToManager::Local(task) => {
                let id = self.pm.fresh_local_id();
                // The generated arrival instant is the job's enqueue
                // time, so queueing delay — and the deadline verdict —
                // are measured from the *generated* arrival; any
                // channel or scheduling latency the runtime adds counts
                // toward the observed response time.
                let job = Job::local(id, task.attrs.arrival, task.attrs.ex, task.attrs.deadline);
                self.send_job(task.node, job);
            }
            ToManager::GlobalFlat(run) => self.admit(PooledRun::Flat(*run)),
            ToManager::GlobalDag(run) => self.admit(PooledRun::Dag(*run)),
            ToManager::Done { job } => {
                self.outstanding_jobs -= 1;
                let now = self.clock.now();
                match job.origin {
                    JobOrigin::Local { .. } => {
                        self.pm.local_done(&job, now);
                        self.terminal_locals += 1;
                    }
                    JobOrigin::Global { task, .. } => {
                        match self.pm.subtask_done(&job, now, &mut self.subs) {
                            SubtaskOutcome::Finished => {
                                // In-process channels: the result reaches
                                // the manager as soon as the subtask ends.
                                self.pm.finish(task, now);
                                self.terminal_globals += 1;
                            }
                            SubtaskOutcome::Progressed => self.dispatch_wave(task, now),
                            SubtaskOutcome::Swallowed => {}
                        }
                    }
                }
            }
            ToManager::Discarded { job } => {
                self.outstanding_jobs -= 1;
                match self.pm.job_discarded(&job) {
                    DiscardOutcome::Local => self.terminal_locals += 1,
                    DiscardOutcome::GlobalAborted => self.terminal_globals += 1,
                    DiscardOutcome::GlobalAlreadyDead => {}
                }
            }
            ToManager::SubmitterDone { submitted, locals } => {
                if locals {
                    self.submitted_locals = Some(submitted);
                } else {
                    self.submitted_globals = Some(submitted);
                }
            }
        }
    }

    fn admit(&mut self, run: PooledRun) {
        // Virtual deadlines decompose the budget from the *generated*
        // arrival instant (stored in the run), so the assignment math
        // matches the paper exactly; runtime latency shows up in the
        // observed response time instead.
        let at = run.arrival();
        let id = self.pm.admit(at, |slot| *slot = run, &mut self.subs);
        self.dispatch_wave(id, at);
    }
}

/// One worker thread: owns its [`Node`], serves jobs on the schedule
/// (a job started at `s` holds the node until exactly `s + service`),
/// reports completions and admission discards back to the manager.
///
/// Each wake-up reads the clock once, as `now`, then first retires every
/// completion due by `now` — each job finishes at its own scheduled
/// instant and the next one starts at that same instant — and only then
/// enqueues or resets at `now`. One read keeps the node's tallies
/// monotone: a second read could let a completion fall due between the
/// retirement and the enqueue, and then be booked before it.
struct Worker {
    node: Node,
    rx: mpsc::Receiver<ToWorker>,
    manager: mpsc::Sender<ToManager>,
    clock: Arc<WallClock>,
    preemptive: bool,
    overload: sda_system::OverloadPolicy,
    /// The in-service job's completion: (service epoch, completion
    /// instant in simulated units).
    pending: Option<(u64, f64)>,
}

impl Worker {
    fn run(mut self) -> Node {
        let mut discards = Vec::new();
        loop {
            // Wait for the next message, or — when a job is in
            // service — until its completion instant.
            let msg = match self.pending {
                Some((_, done_at)) => {
                    match self.rx.recv_timeout(self.clock.duration_until(done_at)) {
                        Ok(msg) => Some(msg),
                        Err(mpsc::RecvTimeoutError::Timeout) => None,
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
                None => match self.rx.recv() {
                    Ok(msg) => Some(msg),
                    Err(_) => break,
                },
            };
            let now = self.clock.now();
            self.retire_due(now, &mut discards);
            match msg {
                Some(ToWorker::Run(job)) => self.accept(now, job, &mut discards),
                Some(ToWorker::ResetStats) => self.node.reset_stats(SimTime::new(now)),
                Some(ToWorker::Shutdown) => break,
                None => {}
            }
        }
        self.node
    }

    /// Retires every completion due by `now`, each at its scheduled
    /// instant: the job is finished and reported, and the next dispatch
    /// round runs at that same instant — repeatedly, while the job it
    /// starts is due too. A completion whose epoch preemption has
    /// superseded is dropped.
    fn retire_due(&mut self, now: f64, discards: &mut Vec<Job>) {
        while let Some((epoch, done_at)) = self.pending {
            if done_at > now {
                return;
            }
            self.pending = None;
            if self.node.completion_is_current(epoch) {
                let job = self.node.finish_service(SimTime::new(done_at));
                let _ = self.manager.send(ToManager::Done { job });
                self.dispatch(done_at, discards);
            }
        }
    }

    /// Enqueues a job handed over at `now` and runs a dispatch round.
    fn accept(&mut self, now: f64, job: Job, discards: &mut Vec<Job>) {
        self.node.enqueue(SimTime::new(now), job);
        self.dispatch(now, discards);
    }

    /// One dispatch round: discards are reported in order, then the
    /// started job's completion is booked.
    fn dispatch(&mut self, now: f64, discards: &mut Vec<Job>) {
        let started =
            self.node
                .dispatch(SimTime::new(now), self.preemptive, self.overload, discards);
        for job in discards.drain(..) {
            let _ = self.manager.send(ToManager::Discarded { job });
        }
        if let Some(job) = started {
            let epoch = self.node.service_epoch();
            self.pending = Some((epoch, now + job.service));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_core::SdaStrategy;
    use sda_sched::Policy;
    use sda_system::OverloadPolicy;

    /// A worker on in-process channels, and the manager's end of its
    /// reports. Retirement takes `now` as a parameter, so the clock is
    /// never read.
    fn worker(
        policy: Policy,
        preemptive: bool,
        overload: OverloadPolicy,
    ) -> (Worker, mpsc::Receiver<ToManager>) {
        let (_, rx) = mpsc::channel();
        let (manager, reports) = mpsc::channel();
        let worker = Worker {
            node: Node::new(NodeId::new(0), policy),
            rx,
            manager,
            clock: Arc::new(WallClock::new(1.0).unwrap()),
            preemptive,
            overload,
            pending: None,
        };
        (worker, reports)
    }

    /// A local job of 1.0 unit of service.
    fn job(id: u64, at: f64, deadline: f64) -> Job {
        Job::local(TaskId::new(id), at, 1.0, deadline)
    }

    /// The reports so far, as (`true` for a completion, task id).
    fn reports(rx: &mpsc::Receiver<ToManager>) -> Vec<(bool, u64)> {
        rx.try_iter()
            .map(|msg| match msg {
                ToManager::Done { job } => (true, job.origin.task().raw()),
                ToManager::Discarded { job } => (false, job.origin.task().raw()),
                _ => panic!("a worker reports only completions and discards"),
            })
            .collect()
    }

    #[test]
    fn late_retirement_keeps_the_schedule() {
        let (mut w, rx) = worker(Policy::Fcfs, false, OverloadPolicy::NoAbort);
        let mut discards = Vec::new();
        for id in 0..3 {
            w.accept(0.0, job(id, 0.0, 10.0), &mut discards);
        }
        // The thread wakes 1.5 units after the first completion was due.
        w.retire_due(2.5, &mut discards);
        assert_eq!(reports(&rx), [(true, 0), (true, 1)]);
        let in_service = w.node.current().map(|j| j.origin.task());
        assert_eq!(in_service, Some(TaskId::new(2)));
        assert_eq!(w.pending, Some((w.node.service_epoch(), 3.0)));
        assert_eq!(w.node.utilization(SimTime::new(2.5)), 1.0);
    }

    #[test]
    fn superseded_epoch_is_dropped() {
        let (mut w, rx) = worker(
            Policy::EarliestDeadlineFirst,
            true,
            OverloadPolicy::AbortTardy,
        );
        let mut discards = Vec::new();
        w.accept(0.0, job(0, 0.0, 0.4), &mut discards);
        let first = w.pending;
        // An earlier deadline preempts job 0 at 0.5; both are tardy by
        // then, so both are discarded and the server goes idle.
        w.accept(0.5, job(1, 0.5, 0.3), &mut discards);
        assert_eq!(w.pending, first, "no job started after the preemption");
        assert!(!w.node.is_busy());
        w.retire_due(2.0, &mut discards);
        assert_eq!(w.pending, None);
        assert_eq!(reports(&rx), [(false, 1), (false, 0)]);
        // The worker goes on serving from the instant it is handed work.
        w.accept(2.0, job(2, 2.0, 5.0), &mut discards);
        assert_eq!(w.pending, Some((w.node.service_epoch(), 3.0)));
    }

    #[test]
    fn rejects_bad_warmup() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let run = RunConfig {
            warmup: 0.0,
            duration: 50.0,
            seed: 1,
            order_fuzz: 0,
        };
        for warmup in [f64::NAN, f64::INFINITY, -1.0, 50.0, 80.0] {
            let wall = WallRunConfig {
                warmup,
                ..WallRunConfig::new(&run, 1_000.0)
            };
            match run_wall(&cfg, &wall) {
                Err(ServiceError::BadParameter { what, .. }) => assert_eq!(what, "warmup"),
                other => panic!("warmup {warmup} must be rejected, got {other:?}"),
            }
        }
    }
}
