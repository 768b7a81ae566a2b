//! The traced run: per-layer numbers for one representative point of a
//! workload, measured apart from the timed runs because the timing
//! adapter slows the event loop.
//!
//! Every probe runs on the workload's own config and seed. The one
//! exception is the live service, which does not support a non-zero
//! network: on `dag96_net` its probes run the same config with free
//! communication.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sda_core::{DagRun, FlatRun, NodeId, SdaStrategy, Submission, SubtaskRef, TaskId};
use sda_experiments::sec6;
use sda_sched::{Job, ReadyQueue};
use sda_service::logical::run_logical;
use sda_service::wall::{run_wall, WallReport, WallRunConfig};
use sda_sim::rng::RngFactory;
use sda_sim::{Context, Engine, SimTime, Simulation};
use sda_system::{
    run_once, run_once_sharded, run_replications_with_threads, Event, NetworkModel, RunConfig,
    RunResult, SystemConfig, SystemModel,
};
use sda_workload::{GlobalShape, TaskFactory};

use crate::check;
use crate::span::Spans;
use crate::stats::median;
use crate::workload::{
    dag96_config, dag96_run, drain_secs, sec6_opts, service_config, service_time_scale,
    wall_outcome, wall_run, Outcome, Params, Workload, NOMINAL_TIME_SCALE, PARALLELISM,
};

/// Repetitions of each whole-run probe; the median is reported.
const RUN_REPS: usize = 3;
/// Batches of each microbenchmark; the median batch is reported.
const MICRO_BATCHES: usize = 5;

/// What a traced run measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metrics, by registry name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Figures printed but not in the result line: handlers that only
    /// a non-zero network exercises, and the probe inputs.
    pub extra: Vec<(String, f64)>,
    /// Tasks of every run whose output was checked.
    pub attempted: u64,
    /// Tasks of checked runs that failed their check.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// Spans around every call into a layer.
    pub spans: Spans,
}

impl Traced {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn verdict(&mut self, tasks: u64, result: Result<(), String>) {
        self.attempted += tasks;
        if let Err(e) = result {
            self.failed += tasks;
            self.errors.push(e);
        }
    }
}

/// Handler kinds the adapter times separately: the metric names of
/// their call count and self time, and whether they belong in the result
/// line. Hand-offs and result returns only run under a non-zero network,
/// so they would read 0 on three of the four workloads: they are printed
/// but kept out of the result line.
const KINDS: [(&str, &str, bool); 6] = [
    (
        "system.local_arrival.n",
        "system.local_arrival.self_s",
        true,
    ),
    (
        "system.global_arrival.n",
        "system.global_arrival.self_s",
        true,
    ),
    (
        "system.service_complete.n",
        "system.service_complete.self_s",
        true,
    ),
    (
        "system.subtask_arrive.n",
        "system.subtask_arrive.self_s",
        false,
    ),
    (
        "system.result_return.n",
        "system.result_return.self_s",
        false,
    ),
    ("system.other.n", "system.other.self_s", false),
];

/// The timing adapter: a [`Simulation`] that delegates each event to
/// [`SystemModel`] and accumulates the handler's wall time by event
/// kind.
struct TimedModel {
    model: SystemModel,
    calls: [u64; 6],
    busy: [Duration; 6],
}

impl Simulation for TimedModel {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Context<Event>, event: Event) {
        let kind = match event {
            Event::LocalArrival { .. } => 0,
            Event::GlobalArrival => 1,
            Event::ServiceComplete { .. } => 2,
            Event::SubtaskArrive { .. } => 3,
            Event::ResultReturn { .. } => 4,
            _ => 5,
        };
        let t0 = Instant::now();
        self.model.handle(ctx, event);
        self.busy[kind] += t0.elapsed();
        self.calls[kind] += 1;
    }
}

/// `run_once` with the timing adapter in place of the bare model.
fn run_traced(cfg: &SystemConfig, run: &RunConfig) -> Result<(RunResult, TimedModel), String> {
    let rng = RngFactory::new(run.seed);
    let model = SystemModel::new(cfg.clone(), &rng).map_err(|e| e.to_string())?;
    let mut engine = Engine::new(TimedModel {
        model,
        calls: [0; 6],
        busy: [Duration::ZERO; 6],
    });
    engine.context_mut().set_order_fuzz(run.order_fuzz);
    engine.context_mut().schedule_at(
        SimTime::ZERO,
        Event::Init {
            warmup_end: run.warmup,
        },
    );
    let horizon = SimTime::from(run.warmup + run.duration);
    let report = engine.run_until(horizon);
    let timed = engine.into_model();
    let m = &timed.model;
    let result = RunResult {
        metrics: m.metrics().clone(),
        node_utilization: m.nodes().iter().map(|n| n.utilization(horizon)).collect(),
        node_queue_length: m
            .nodes()
            .iter()
            .map(|n| n.mean_queue_length(horizon))
            .collect(),
        end_time: report.end_time.as_f64(),
        events: report.events,
    };
    Ok((result, timed))
}

/// A workload's representative point: the config and run the layer
/// probes replay.
fn point(w: Workload, p: Params) -> (SystemConfig, RunConfig) {
    match w {
        Workload::Sec6Sweep => {
            let opts = sec6_opts(p, 1);
            let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
            cfg.workload.load = 0.8;
            let run = RunConfig {
                warmup: opts.warmup,
                duration: opts.duration,
                seed: p.seed,
                order_fuzz: 0,
            };
            (cfg, run)
        }
        Workload::Dag96Net => (dag96_config(), dag96_run(p)),
        Workload::ServiceNominal | Workload::ServiceOverload => {
            (service_config(), wall_run(service_time_scale(w), p).1)
        }
    }
}

fn tasks_of(r: &RunResult) -> u64 {
    Outcome::of_metrics(&r.metrics).tasks
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Runs every layer probe for `w`.
///
/// # Errors
///
/// Returns a one-line message when a probe cannot run at all.
pub fn run_traced_probes(w: Workload, p: Params) -> Result<Traced, String> {
    let mut t = Traced::default();
    let (cfg, run) = point(w, p);

    // sda-sim and sda-system: untraced and traced serial runs.
    let mut plain_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut reference = None;
    let mut traced = None;
    for _ in 0..RUN_REPS {
        let (r, s) = t.spans.time("system.run_once", || run_once(&cfg, &run));
        plain_secs.push(s);
        reference = Some(r.map_err(|e| e.to_string())?);
        let (r, s) = t
            .spans
            .time("system.run_traced", || run_traced(&cfg, &run));
        traced_secs.push(s);
        traced = Some(r?);
    }
    let reference = reference.expect("at least one repetition");
    let (traced_result, timed) = traced.expect("at least one repetition");
    let tasks = tasks_of(&reference);
    t.verdict(
        tasks,
        check::same("traced run vs untraced", 0, &traced_result, &reference),
    );
    // The adapter's totals are the last traced repetition's.
    let last_traced = traced_secs[RUN_REPS - 1];
    let plain = median(&mut plain_secs);
    let traced_s = median(&mut traced_secs);
    let handler_s: f64 = timed.busy.iter().map(Duration::as_secs_f64).sum();
    t.put("sim.events", reference.events as f64);
    t.put("sim.events_per_s", reference.events as f64 / plain);
    t.put("sim.loop_self_s", last_traced - handler_s);
    for (k, &(n_name, s_name, in_line)) in KINDS.iter().enumerate() {
        let (n, s) = (timed.calls[k] as f64, timed.busy[k].as_secs_f64());
        if in_line {
            t.put(n_name, n);
            t.put(s_name, s);
        } else {
            t.extra.push((n_name.to_string(), n));
            t.extra.push((s_name.to_string(), s));
        }
    }
    let queue_len = mean(&reference.node_queue_length);
    t.put("system.mean_queue_len", queue_len);
    t.put("trace.overhead_frac", traced_s / plain - 1.0);

    // Sharded engine against the serial runs above.
    let mut sharded_secs = Vec::new();
    for i in 0..RUN_REPS {
        let (r, s) = t.spans.time("system.run_once_sharded", || {
            run_once_sharded(&cfg, &run, PARALLELISM)
        });
        sharded_secs.push(s);
        let r = r.map_err(|e| e.to_string())?;
        t.verdict(
            tasks,
            check::same("sharded run vs serial", i, &r, &reference),
        );
    }
    t.put("system.shard_speedup", plain / median(&mut sharded_secs));

    // sda-workload, sda-core and sda-sched microbenchmarks.
    let (global_ns, local_ns) = t
        .spans
        .time("workload.task_factory", || factory_ns(&cfg, p.seed))
        .0?;
    t.put("workload.make_global_ns", global_ns);
    t.put("workload.make_local_ns", local_ns);
    let (start_ns, complete_ns) = t
        .spans
        .time("core.task_runtime", || core_ns(&cfg, p.seed))
        .0?;
    t.put("core.start_ns", start_ns);
    t.put("core.complete_ns", complete_ns);

    // sda-experiments: the replication pool at 1 and 2 threads.
    let efficiency = parallel_efficiency(w, p, &cfg, &run, &mut t)?;
    t.put("experiments.parallel_efficiency", efficiency);

    // sda-service: the manager logic on the logical clock, then the
    // live runtime at a wall rate matching service_nominal's.
    let free = free_communication(&cfg);
    let free_reference = if free == cfg {
        reference.clone()
    } else {
        t.spans
            .time("system.run_once", || run_once(&free, &run))
            .0
            .map_err(|e| e.to_string())?
    };
    let mut logical_secs = Vec::new();
    for i in 0..RUN_REPS {
        let (r, s) = t
            .spans
            .time("service.run_logical", || run_logical(&free, &run));
        logical_secs.push(s);
        let r = r.map_err(|e| e.to_string())?;
        t.verdict(
            tasks_of(&free_reference),
            check::same(
                "logical service vs simulator",
                i,
                &r.result,
                &free_reference,
            ),
        );
    }
    let logical_s = median(&mut logical_secs);
    t.put("service.logical_s", logical_s);
    t.put(
        "service.manager_tasks_per_s",
        tasks_of(&free_reference) as f64 / logical_s,
    );

    let time_scale = if w.is_service() {
        service_time_scale(w)
    } else {
        NOMINAL_TIME_SCALE * task_rate(&service_config())? / task_rate(&free)?
    };
    let (wall, wall_sim) = wall_run(time_scale, p);
    let wall_reference = if wall_sim == run {
        free_reference.clone()
    } else {
        t.spans
            .time("system.run_once", || run_once(&free, &wall_sim))
            .0
            .map_err(|e| e.to_string())?
    };
    let expected = check::expected_submissions(&free, &wall).map_err(|e| e.to_string())?;
    let report = t
        .spans
        .time("service.run_wall", || run_wall(&free, &wall))
        .0
        .map_err(|e| e.to_string())?;
    t.verdict(expected.0 + expected.1, check::drained(&report, expected));
    let node_util = mean(&report.node_utilization);
    let got = wall_outcome(&report);
    let want = Outcome::of_metrics(&wall_reference.metrics);
    t.put("service.node_util", node_util);
    t.put(
        "service.util_inflation",
        node_util / wall_reference.mean_utilization(),
    );
    t.put(
        "service.miss_gap_local_pp",
        got.local_miss_pct() - want.local_miss_pct(),
    );
    t.put(
        "service.miss_gap_global_pp",
        got.global_miss_pct() - want.global_miss_pct(),
    );
    t.put(
        "service.drain_overrun_units",
        report.end_time - wall.duration,
    );
    t.put("service.drain_s", drain_secs(&report, &wall));
    t.extra
        .push(("service.probe_time_scale".into(), time_scale));

    // The ready queue at the depth this workload's queues reach: the
    // simulated mean, or for the live service the wall run's depth by
    // Little's law (its backlog is what the queues hold there).
    let depth = if w.is_service() {
        wall_depth(&report, &wall, free.workload.nodes)
    } else {
        queue_len
    };
    t.extra.push(("sched.queue_depth".into(), depth));
    let push_pop = t
        .spans
        .time("sched.ready_queue", || push_pop_ns(&cfg, p.seed, depth))
        .0?;
    t.put("sched.push_pop_ns", push_pop);
    Ok(t)
}

/// The config with free communication: what the live service supports.
fn free_communication(cfg: &SystemConfig) -> SystemConfig {
    SystemConfig {
        network: NetworkModel::Zero,
        ..cfg.clone()
    }
}

/// Tasks arriving per simulated time unit.
fn task_rate(cfg: &SystemConfig) -> Result<f64, String> {
    let r = cfg.workload.rates().map_err(|e| e.to_string())?;
    Ok(r.lambda_local_per_node * cfg.workload.nodes as f64 + r.lambda_global)
}

/// Mean tasks in the system per node over the measured part of a wall
/// run, by Little's law on its post-warm-up completions.
fn wall_depth(r: &WallReport, wall: &WallRunConfig, nodes: usize) -> f64 {
    let span = r.end_time - wall.warmup;
    let local = &r.metrics.local;
    let global = &r.metrics.global;
    let in_system = (local.completed() as f64 * local.response().mean()
        + global.completed() as f64 * global.response().mean())
        / span;
    in_system / nodes as f64
}

/// `T(1 thread) / (2 · T(2 threads))` for the workload's own pool: the
/// §6 sweep's point pool on `sec6_sweep`, the replication pool of the
/// representative config elsewhere. Results must not depend on threads.
fn parallel_efficiency(
    w: Workload,
    p: Params,
    cfg: &SystemConfig,
    run: &RunConfig,
    t: &mut Traced,
) -> Result<f64, String> {
    const PAIRS: usize = 3;
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for i in 0..PAIRS {
        if w == Workload::Sec6Sweep {
            let (a, s1) = t
                .spans
                .time("experiments.sec6_1_thread", || sec6::run(&sec6_opts(p, 1)));
            let (b, s2) = t.spans.time("experiments.sec6_2_threads", || {
                sec6::run(&sec6_opts(p, PARALLELISM))
            });
            let (a, b) = (a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?);
            t.verdict(0, check::same("sec6 sweep at 2 threads vs 1", i, &b, &a));
            one.push(s1);
            two.push(s2);
        } else {
            let (a, s1) = t.spans.time("system.replications_1_thread", || {
                run_replications_with_threads(cfg, run, PARALLELISM, 1)
            });
            let (b, s2) = t.spans.time("system.replications_2_threads", || {
                run_replications_with_threads(cfg, run, PARALLELISM, PARALLELISM)
            });
            let (a, b) = (a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?);
            let tasks = a.runs.iter().map(tasks_of).sum();
            t.verdict(
                tasks,
                check::same("replications at 2 threads vs 1", i, &b, &a),
            );
            one.push(s1);
            two.push(s2);
        }
    }
    Ok(median(&mut one) / (PARALLELISM as f64 * median(&mut two)))
}

/// Median ns per call over `MICRO_BATCHES` batches of `f`, which
/// returns its own timed seconds and call count.
fn micro_ns(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let mut per_call: Vec<f64> = (0..MICRO_BATCHES)
        .map(|_| {
            let (secs, calls) = f();
            secs * 1e9 / calls.max(1) as f64
        })
        .collect();
    median(&mut per_call)
}

/// Tasks per microbenchmark batch.
const GLOBALS_PER_BATCH: usize = 4_000;
const LOCALS_PER_BATCH: usize = 20_000;

fn is_dag(cfg: &SystemConfig) -> bool {
    matches!(cfg.workload.shape, GlobalShape::Dag { .. })
}

/// ns per `make_global_*` and per `make_local` call on the workload's
/// config and seed. Arrival instants are drawn before the timed loops:
/// the arrival clocks use streams of their own.
fn factory_ns(cfg: &SystemConfig, seed: u64) -> Result<(f64, f64), String> {
    let mut f = TaskFactory::new(cfg.workload.clone(), &RngFactory::new(seed))
        .map_err(|e| e.to_string())?;
    let nodes = cfg.workload.nodes;
    let dag = is_dag(cfg);
    let (mut flat, mut graph) = (FlatRun::new(), DagRun::new());
    let mut now = 0.0;
    let global_ns = micro_ns(|| {
        let times: Vec<f64> = (0..GLOBALS_PER_BATCH)
            .map(|_| {
                now += f.next_global_interarrival().unwrap_or(1.0);
                now
            })
            .collect();
        let t0 = Instant::now();
        for &at in &times {
            if dag {
                f.make_global_dag(at, &mut graph);
                black_box(&graph);
            } else {
                f.make_global_flat(at, &mut flat);
                black_box(&flat);
            }
        }
        (t0.elapsed().as_secs_f64(), times.len() as u64)
    });
    let mut clocks = vec![0.0; nodes];
    let local_ns = micro_ns(|| {
        let arrivals: Vec<(NodeId, f64)> = (0..LOCALS_PER_BATCH)
            .map(|i| {
                let node = NodeId::new((i % nodes) as u32);
                clocks[i % nodes] += f.next_local_interarrival(node).unwrap_or(1.0);
                (node, clocks[i % nodes])
            })
            .collect();
        let t0 = Instant::now();
        for &(node, at) in &arrivals {
            black_box(f.make_local(node, at));
        }
        (t0.elapsed().as_secs_f64(), arrivals.len() as u64)
    });
    Ok((global_ns, local_ns))
}

/// The precedence runtime behind `FlatRun` and `DagRun`.
trait TaskRuntime: Clone {
    fn arrival(&self) -> f64;
    fn start(&mut self, s: &SdaStrategy, now: f64, out: &mut Vec<Submission>);
    fn complete(&mut self, sub: SubtaskRef, s: &SdaStrategy, now: f64, out: &mut Vec<Submission>);
}

impl TaskRuntime for FlatRun {
    fn arrival(&self) -> f64 {
        FlatRun::arrival(self)
    }
    fn start(&mut self, s: &SdaStrategy, now: f64, out: &mut Vec<Submission>) {
        FlatRun::start(self, s, now, out);
    }
    fn complete(&mut self, sub: SubtaskRef, s: &SdaStrategy, now: f64, out: &mut Vec<Submission>) {
        FlatRun::complete(self, sub, s, now, out);
    }
}

impl TaskRuntime for DagRun {
    fn arrival(&self) -> f64 {
        DagRun::arrival(self)
    }
    fn start(&mut self, s: &SdaStrategy, now: f64, out: &mut Vec<Submission>) {
        DagRun::start(self, s, now, out);
    }
    fn complete(&mut self, sub: SubtaskRef, s: &SdaStrategy, now: f64, out: &mut Vec<Submission>) {
        DagRun::complete(self, sub, s, now, out);
    }
}

/// ns per `start` and per `complete` on the workload's generated tasks,
/// driven in precedence order with the workload's strategy.
fn core_ns(cfg: &SystemConfig, seed: u64) -> Result<(f64, f64), String> {
    let mut f = TaskFactory::new(cfg.workload.clone(), &RngFactory::new(seed))
        .map_err(|e| e.to_string())?;
    let comm = cfg.network.expected_hop_delay();
    let mut now = 0.0;
    let times: Vec<f64> = (0..GLOBALS_PER_BATCH)
        .map(|_| {
            now += f.next_global_interarrival().unwrap_or(1.0);
            now
        })
        .collect();
    let strategy = cfg.strategy;
    if is_dag(cfg) {
        let runs: Vec<DagRun> = times
            .iter()
            .map(|&at| {
                let mut r = DagRun::new();
                f.make_global_dag(at, &mut r);
                r.set_expected_comm(comm);
                r
            })
            .collect();
        Ok(drive(&runs, &strategy))
    } else {
        let runs: Vec<FlatRun> = times
            .iter()
            .map(|&at| {
                let mut r = FlatRun::new();
                f.make_global_flat(at, &mut r);
                r.set_expected_comm(comm);
                r
            })
            .collect();
        Ok(drive(&runs, &strategy))
    }
}

fn drive<R: TaskRuntime>(pristine: &[R], strategy: &SdaStrategy) -> (f64, f64) {
    let mut start_ns = Vec::new();
    let mut complete_ns = Vec::new();
    for _ in 0..MICRO_BATCHES {
        let mut runs = pristine.to_vec();
        let mut outs: Vec<Vec<Submission>> = runs.iter().map(|_| Vec::with_capacity(32)).collect();
        let t0 = Instant::now();
        for (r, out) in runs.iter_mut().zip(&mut outs) {
            let at = r.arrival();
            r.start(strategy, at, out);
        }
        let started = t0.elapsed().as_secs_f64();
        let mut completes = 0u64;
        let t1 = Instant::now();
        for (r, out) in runs.iter_mut().zip(&mut outs) {
            let mut now = r.arrival();
            let mut next = 0;
            while next < out.len() {
                let sub = out[next];
                next += 1;
                now += sub.ex;
                r.complete(sub.subtask, strategy, now, out);
                completes += 1;
            }
        }
        let completed = t1.elapsed().as_secs_f64();
        black_box(&runs);
        start_ns.push(started * 1e9 / pristine.len() as f64);
        complete_ns.push(completed * 1e9 / completes.max(1) as f64);
    }
    (median(&mut start_ns), median(&mut complete_ns))
}

/// ns per `push` + `pop` pair on a ready queue held at `depth` jobs,
/// with the workload's local deadlines under its scheduling policy.
fn push_pop_ns(cfg: &SystemConfig, seed: u64, depth: f64) -> Result<f64, String> {
    let mut f = TaskFactory::new(cfg.workload.clone(), &RngFactory::new(seed))
        .map_err(|e| e.to_string())?;
    let nodes = cfg.workload.nodes;
    let depth = depth.round().max(1.0) as usize;
    let mut clocks = vec![0.0; nodes];
    let mut id = 0u64;
    let mut job = |f: &mut TaskFactory| {
        let i = id as usize % nodes;
        let node = NodeId::new(i as u32);
        clocks[i] += f.next_local_interarrival(node).unwrap_or(1.0);
        let task = f.make_local(node, clocks[i]);
        id += 1;
        Job::local(
            TaskId::new(id),
            task.attrs.arrival,
            task.attrs.ex,
            task.attrs.deadline,
        )
    };
    let mut queue = ReadyQueue::new(cfg.policy);
    for _ in 0..depth {
        queue.push(job(&mut f));
    }
    Ok(micro_ns(|| {
        let jobs: Vec<Job> = (0..LOCALS_PER_BATCH).map(|_| job(&mut f)).collect();
        let t0 = Instant::now();
        for &j in &jobs {
            queue.push(j);
            black_box(queue.pop());
        }
        (t0.elapsed().as_secs_f64(), jobs.len() as u64)
    }))
}
