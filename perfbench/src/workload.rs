//! The four workloads: their configs, their timed runs and the output
//! checks each timed repetition must pass.
//!
//! Each workload is built from the repository's own constructors
//! (`SystemConfig::combined_baseline`/`ssp_baseline`,
//! `ext::network::speed_ramp`, `sec6::run`); the program receives only
//! the generated config and seed.

use std::hint::black_box;
use std::time::Instant;

use sda_core::{NodeId, SdaStrategy};
use sda_experiments::sec6;
use sda_experiments::{ExperimentOpts, SweepData};
use sda_service::wall::{run_wall, WallReport, WallRunConfig};
use sda_service::WallClock;
use sda_sim::rng::RngFactory;
use sda_system::{
    run_once, run_once_sharded, run_replications_with_threads, Metrics, NetworkModel,
    Node, ReplicatedResult, RunConfig, RunResult, SystemConfig, SystemModel,
};
use sda_workload::{GlobalShape, TaskFactory};

use crate::check;
use crate::stats::{median, peak_rss_mb, reset_peak_rss};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §6 sweep as users run it: 4 SSP×PSP strategies ×
    /// 4 loads × 2 replications on a 2-thread pool. Exercises the serial
    /// hot path on `FlatRun` pipelines and many per-run set-ups; no
    /// network, no `DagRun`, no sharding.
    Sec6Sweep,
    /// 96 heterogeneous nodes, a constant 1.5-unit network and DAG
    /// tasks, on the 2-shard engine. The only workload with `DagRun`,
    /// network hand-off events and the sharded engine.
    Dag96Net,
    /// The live service at `time_scale = 5000`: threads, channels and a
    /// wall clock, open loop. Measures timing fidelity.
    ServiceNominal,
    /// The same service config at 10× the wall rate: a growing backlog
    /// that drains after the submission horizon.
    ServiceOverload,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Sec6Sweep,
        Workload::Dag96Net,
        Workload::ServiceNominal,
        Workload::ServiceOverload,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sec6Sweep => "sec6_sweep",
            Workload::Dag96Net => "dag96_net",
            Workload::ServiceNominal => "service_nominal",
            Workload::ServiceOverload => "service_overload",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the live wall-clock service.
    pub fn is_service(self) -> bool {
        matches!(self, Workload::ServiceNominal | Workload::ServiceOverload)
    }
}

/// What a run is asked to do: the seed that makes its inputs and the
/// horizon scale (1 for the benchmark; the smoke test uses tiny scales,
/// and the drift check compares 0.5 with 1).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed of every input the workload generates.
    pub seed: u64,
    /// Multiplier on every simulated horizon.
    pub scale: f64,
}

/// Simulated horizon (warm-up plus measured) of one §6 sweep point.
const SEC6_HORIZON: f64 = 40_000.0;
/// Simulated horizon of one `dag96_net` run.
const DAG96_HORIZON: f64 = 8_000.0;
/// Simulated time units per wall second on `service_nominal`.
pub const NOMINAL_TIME_SCALE: f64 = 5_000.0;
/// Wall seconds of submission on both service workloads.
pub const SERVICE_SUBMIT_S: f64 = 3.2;
/// The service workloads discard this share of the horizon as warm-up.
const SERVICE_WARMUP_SHARE: f64 = 0.1;
/// The simulator workloads discard this share of the horizon as warm-up.
const SIM_WARMUP_SHARE: f64 = 0.05;
/// Fewest timed repetitions of a run, however long each takes.
const MIN_REPS: usize = 3;
/// Shards of the `dag96_net` engine, and threads of the §6 pool: the
/// 2 cores of the reference host.
pub const PARALLELISM: usize = 2;

fn sim_run(horizon: f64, p: Params) -> RunConfig {
    let horizon = horizon * p.scale;
    RunConfig {
        warmup: horizon * SIM_WARMUP_SHARE,
        duration: horizon * (1.0 - SIM_WARMUP_SHARE),
        seed: p.seed,
        order_fuzz: 0,
    }
}

/// The §6 sweep's options at `threads` pool workers.
pub fn sec6_opts(p: Params, threads: usize) -> ExperimentOpts {
    let run = sim_run(SEC6_HORIZON, p);
    ExperimentOpts {
        reps: 2,
        warmup: run.warmup,
        duration: run.duration,
        seed: p.seed,
        threads,
        shards: 1,
        csv_dir: None,
        order_fuzz: 0,
        screen: false,
        mailbox_capacity: None,
    }
}

/// The `dag96_net` config: EQF-DIV1 at ρ = 0.7 on 96 nodes with a
/// linear speed ramp, a constant 1.5-unit network and layered DAG tasks.
pub fn dag96_config() -> SystemConfig {
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
    cfg.workload.nodes = 96;
    cfg.workload.load = 0.7;
    cfg.workload.node_speeds = Some(sda_experiments::ext::network::speed_ramp(96, 0.4));
    cfg.workload.shape = GlobalShape::Dag {
        depth: 4,
        max_width: 3,
        edge_density: 0.4,
    };
    cfg.network = NetworkModel::Constant { delay: 1.5 };
    cfg
}

/// The `dag96_net` run length.
pub fn dag96_run(p: Params) -> RunConfig {
    sim_run(DAG96_HORIZON, p)
}

/// The config both service workloads run.
pub fn service_config() -> SystemConfig {
    SystemConfig::ssp_baseline(SdaStrategy::eqf_ud())
}

/// The service workloads' time scale: 10× the nominal wall rate under
/// overload.
pub fn service_time_scale(w: Workload) -> f64 {
    match w {
        Workload::ServiceOverload => 10.0 * NOMINAL_TIME_SCALE,
        _ => NOMINAL_TIME_SCALE,
    }
}

/// A wall-clock run submitting for `SERVICE_SUBMIT_S` wall seconds at
/// `time_scale`, and the simulator run over the same horizon.
pub fn wall_run(time_scale: f64, p: Params) -> (WallRunConfig, RunConfig) {
    let horizon = SERVICE_SUBMIT_S * time_scale * p.scale;
    let run = RunConfig {
        warmup: horizon * SERVICE_WARMUP_SHARE,
        duration: horizon * (1.0 - SERVICE_WARMUP_SHARE),
        seed: p.seed,
        order_fuzz: 0,
    };
    // The wall runtime's `duration` is the submission horizon, warm-up
    // included.
    let mut wall = WallRunConfig::new(&run, time_scale);
    wall.duration = horizon;
    (wall, run)
}

/// The user-visible outcome of one workload run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outcome {
    /// Tasks that reached a terminal state (post-warm-up on the
    /// simulator; every submitted task on the service).
    pub tasks: u64,
    /// Post-warm-up terminal local tasks.
    pub locals: u64,
    /// Of which missed their deadline (or were aborted).
    pub local_missed: u64,
    /// Post-warm-up terminal global tasks.
    pub globals: u64,
    /// Of which missed their deadline (or were aborted).
    pub global_missed: u64,
}

impl Outcome {
    /// The post-warm-up counts of a simulator run.
    pub fn of_metrics(m: &Metrics) -> Outcome {
        Outcome {
            tasks: m.local.completed() + m.global.completed(),
            locals: m.local.completed(),
            local_missed: m.local.missed(),
            globals: m.global.completed(),
            global_missed: m.global.missed(),
        }
    }

    /// `MD_local` in percent.
    pub fn local_miss_pct(&self) -> f64 {
        pct(self.local_missed, self.locals)
    }

    /// `MD_global` in percent.
    pub fn global_miss_pct(&self) -> f64 {
        pct(self.global_missed, self.globals)
    }
}

impl std::ops::Add for Outcome {
    type Output = Outcome;

    fn add(self, o: Outcome) -> Outcome {
        Outcome {
            tasks: self.tasks + o.tasks,
            locals: self.locals + o.locals,
            local_missed: self.local_missed + o.local_missed,
            globals: self.globals + o.globals,
            global_missed: self.global_missed + o.global_missed,
        }
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        f64::NAN
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// The result of a workload's untraced run: figures over the timed
/// repetitions, plus what the checks found.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Least seconds of one set-up.
    pub setup_s: f64,
    /// Median tasks per second.
    pub tasks_per_s: f64,
    /// `MD_local` (%), median over repetitions.
    pub local_miss_pct: f64,
    /// `MD_global` (%), median over repetitions.
    pub global_miss_pct: f64,
    /// Service only: median wall seconds from the submission horizon to
    /// the last terminal task.
    pub drain_s: Option<f64>,
    /// Least peak resident set size (MB) of a timed repetition.
    pub peak_rss_mb: f64,
    /// Peak resident set size (MB) of every timed repetition, in order.
    pub rep_peak_mb: Vec<f64>,
    /// Seconds of every timed repetition.
    pub rep_secs: Vec<f64>,
    /// Tasks attempted over all timed repetitions.
    pub attempted: u64,
    /// Tasks lost or belonging to a repetition that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// Diagnostics printed but not gated (P² percentile estimates).
    pub diagnostics: Vec<(String, f64)>,
}

/// The timed repetitions of a workload, and the set-up samples taken
/// between them.
#[derive(Debug)]
pub struct Reps<T> {
    /// Wall seconds of each repetition.
    pub secs: Vec<f64>,
    /// Peak resident set size (MB) during each repetition.
    pub peak_mb: Vec<f64>,
    /// Seconds of one set-up, per sample.
    pub setup_secs: Vec<f64>,
    /// What each repetition returned.
    pub values: Vec<T>,
}

/// Set-up samples taken before each repetition, so that they spread
/// over the whole run.
const SETUP_SAMPLES_PER_REP: usize = 4;
/// Shortest batch of set-ups timed as one sample.
const SETUP_BATCH_S: f64 = 0.005;

/// Repeats `rep` until `seconds` have elapsed (at least `MIN_REPS`
/// times), recording each repetition's seconds and peak memory, and
/// timing batches of `setup` before each.
///
/// # Errors
///
/// Returns a message when the process's memory cannot be read.
pub fn repeat<T>(
    seconds: f64,
    mut setup: impl FnMut(),
    mut rep: impl FnMut() -> T,
) -> Result<Reps<T>, String> {
    let t0 = Instant::now();
    setup();
    let one = t0.elapsed().as_secs_f64().max(1e-7);
    let batch = ((SETUP_BATCH_S / one).ceil() as usize).max(1);

    let start = Instant::now();
    let mut reps = Reps {
        secs: Vec::new(),
        peak_mb: Vec::new(),
        setup_secs: Vec::new(),
        values: Vec::new(),
    };
    while reps.secs.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        for _ in 0..SETUP_SAMPLES_PER_REP {
            let t0 = Instant::now();
            for _ in 0..batch {
                setup();
            }
            reps.setup_secs
                .push(t0.elapsed().as_secs_f64() / batch as f64);
        }
        reset_peak_rss();
        let t0 = Instant::now();
        let v = black_box(rep());
        reps.secs.push(t0.elapsed().as_secs_f64());
        reps.peak_mb.push(peak_rss_mb()?);
        reps.values.push(v);
    }
    Ok(reps)
}

impl<T> Reps<T> {
    /// Median seconds of one repetition.
    pub fn median_secs(&self) -> f64 {
        median(&mut self.secs.clone())
    }

    /// A `Timed` holding the set-up, memory and repetition figures
    /// every workload reports.
    fn timed(&self) -> Timed {
        Timed {
            // The least sample, not the median: on the reference host the
            // same set-up code runs at one of two speeds about 1.8× apart,
            // switching every second or so, and a run's median lands on
            // either depending on how its few gaps fell. The fast speed
            // shows up in nearly every run.
            setup_s: self
                .setup_secs
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min),
            // The first repetition starts from a fresh process; later ones
            // start with the heap their predecessors left resident, so
            // their peaks carry that retention. The least peak is the
            // memory one run needs.
            peak_rss_mb: self.peak_mb.iter().copied().fold(f64::INFINITY, f64::min),
            rep_peak_mb: self.peak_mb.clone(),
            rep_secs: self.secs.clone(),
            ..Timed::default()
        }
    }
}

/// Set-up: build each config a workload runs and the model state a run
/// starts from (`SystemModel::new` validates the config and builds the
/// nodes, the task factory and the task pool).
fn set_up(configs: Vec<SystemConfig>, rng: &RngFactory) {
    for cfg in configs {
        black_box(SystemModel::new(cfg, rng).expect("benchmark configs are valid"));
    }
}

/// Set-up of a wall-clock run: the pieces `run_wall` builds before its
/// first submission (the wall clock, one task factory per submitter on
/// the seed's child streams 1 and 2, and one node per worker).
fn set_up_wall(cfg: &SystemConfig, wall: &WallRunConfig) {
    black_box(WallClock::new(wall.time_scale).expect("benchmark time scales are valid"));
    let rng = RngFactory::new(wall.seed);
    for child in [1, 2] {
        black_box(
            TaskFactory::new(cfg.workload.clone(), &rng.subfactory(child))
                .expect("benchmark configs are valid"),
        );
    }
    for i in 0..cfg.workload.nodes {
        black_box(Node::new(NodeId::new(i as u32), cfg.policy));
    }
}

/// One point of the §6 sweep.
#[derive(Debug, Clone)]
pub struct Sec6Point {
    /// The series label `sec6::run` gives the strategy.
    pub label: String,
    /// The offered load.
    pub load: f64,
    /// The point's config.
    pub config: SystemConfig,
}

/// The §6 sweep's points in `sec6::run` order: the paper's four SSP×PSP
/// strategies over `sec6::LOADS`, built with the repository's
/// constructors. The sweep check confirms the sweep ran exactly these.
pub fn sec6_points() -> Vec<Sec6Point> {
    let strategies = [
        SdaStrategy::ud_ud(),
        SdaStrategy::ud_div1(),
        SdaStrategy::eqf_ud(),
        SdaStrategy::eqf_div1(),
    ];
    let mut points = Vec::new();
    for strategy in strategies {
        for load in sec6::LOADS {
            let mut config = SystemConfig::combined_baseline(strategy);
            config.workload.load = load;
            points.push(Sec6Point {
                label: strategy.short_name(),
                load,
                config,
            });
        }
    }
    points
}

/// The sweep recomputed point by point on one thread through the
/// replication harness, with the seed lineage `run_sweep` documents
/// (`seed + (series << 32) + x`).
///
/// # Errors
///
/// Returns the first point's configuration error.
pub fn sec6_reference(
    points: &[Sec6Point],
    opts: &ExperimentOpts,
) -> Result<Vec<ReplicatedResult>, String> {
    let xs = sec6::LOADS.len();
    points
        .iter()
        .enumerate()
        .map(|(i, point)| {
            let run = RunConfig {
                warmup: opts.warmup,
                duration: opts.duration,
                seed: opts
                    .seed
                    .wrapping_add(((i / xs) as u64) << 32)
                    .wrapping_add((i % xs) as u64),
                order_fuzz: 0,
            };
            run_replications_with_threads(&point.config, &run, opts.reps, 1)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Runs a workload untraced for `seconds` and checks every repetition.
///
/// # Errors
///
/// Returns a one-line message when the workload cannot run at all.
pub fn run_timed(w: Workload, p: Params, seconds: f64) -> Result<Timed, String> {
    match w {
        Workload::Sec6Sweep => timed_sec6(p, seconds),
        Workload::Dag96Net => timed_dag96(p, seconds),
        Workload::ServiceNominal | Workload::ServiceOverload => timed_service(w, p, seconds),
    }
}

fn timed_sec6(p: Params, seconds: f64) -> Result<Timed, String> {
    let rng = RngFactory::new(p.seed);
    let opts = sec6_opts(p, PARALLELISM);
    let reps = repeat(
        seconds,
        || {
            set_up(
                sec6_points().into_iter().map(|pt| pt.config).collect(),
                &rng,
            )
        },
        || sec6::run(&opts),
    )?;
    let mut t = reps.timed();
    let rep_s = reps.median_secs();
    let sweeps = reps
        .values
        .into_iter()
        .collect::<Result<Vec<SweepData>, _>>()
        .map_err(|e| format!("sec6 sweep failed: {e}"))?;
    // Outside the timed region: every point recomputed on its own.
    let points = sec6_points();
    let reference = sec6_reference(&points, &opts)?;
    let total = reference
        .iter()
        .flat_map(|r| r.runs.iter())
        .fold(Outcome::default(), |acc, r| {
            acc + Outcome::of_metrics(&r.metrics)
        });
    let cells: Vec<(String, f64)> = points.into_iter().map(|pt| (pt.label, pt.load)).collect();

    for (i, sweep) in sweeps.iter().enumerate() {
        t.attempted += total.tasks;
        let verdict = check::sweep_matches(sweep, &cells, &reference)
            .and_then(|()| check::same("sec6 repetition", i, sweep, &sweeps[0]));
        if let Err(e) = verdict {
            t.failed += total.tasks;
            t.errors.push(e);
        }
    }
    t.tasks_per_s = total.tasks as f64 / rep_s;
    t.local_miss_pct = total.local_miss_pct();
    t.global_miss_pct = total.global_miss_pct();
    Ok(t)
}

fn timed_dag96(p: Params, seconds: f64) -> Result<Timed, String> {
    let rng = RngFactory::new(p.seed);
    let cfg = dag96_config();
    let run = dag96_run(p);
    let reps = repeat(
        seconds,
        || set_up(vec![dag96_config()], &rng),
        || run_once_sharded(&cfg, &run, PARALLELISM),
    )?;
    let mut t = reps.timed();
    let rep_s = reps.median_secs();
    let results = reps
        .values
        .into_iter()
        .collect::<Result<Vec<RunResult>, _>>()
        .map_err(|e| format!("dag96_net run failed: {e}"))?;
    // Outside the timed region: the serial engine on the same config.
    let reference = run_once(&cfg, &run).map_err(|e| e.to_string())?;
    let outcome = Outcome::of_metrics(&reference.metrics);
    for (i, r) in results.iter().enumerate() {
        t.attempted += outcome.tasks;
        if let Err(e) = check::same("dag96_net sharded vs serial run", i, r, &reference) {
            t.failed += outcome.tasks;
            t.errors.push(e);
        }
    }
    t.tasks_per_s = outcome.tasks as f64 / rep_s;
    t.local_miss_pct = outcome.local_miss_pct();
    t.global_miss_pct = outcome.global_miss_pct();
    Ok(t)
}

/// A wall-clock run's outcome: every submitted task counts toward
/// throughput, post-warm-up tasks toward `MD`.
pub fn wall_outcome(r: &WallReport) -> Outcome {
    Outcome {
        tasks: r.terminal_locals + r.terminal_globals,
        ..Outcome::of_metrics(&r.metrics)
    }
}

/// Wall seconds from the submission horizon to the drain.
pub fn drain_secs(r: &WallReport, wall: &WallRunConfig) -> f64 {
    (r.end_time - wall.duration) / wall.time_scale
}

fn timed_service(w: Workload, p: Params, seconds: f64) -> Result<Timed, String> {
    let cfg = service_config();
    let (wall, _) = wall_run(service_time_scale(w), p);
    let expected = check::expected_submissions(&cfg, &wall).map_err(|e| e.to_string())?;
    let reps = repeat(
        seconds,
        || {
            let (wall, _) = wall_run(service_time_scale(w), p);
            set_up_wall(&service_config(), &wall)
        },
        || run_wall(&cfg, &wall),
    )?;
    let mut t = reps.timed();
    let reports = reps
        .values
        .into_iter()
        .collect::<Result<Vec<WallReport>, _>>()
        .map_err(|e| format!("{} run failed: {e}", w.name()))?;
    let (mut rate, mut local, mut global, mut drain, mut p95, mut p99) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for r in &reports {
        let o = wall_outcome(r);
        t.attempted += expected.0 + expected.1;
        if let Err(e) = check::drained(r, expected) {
            t.failed += expected.0 + expected.1;
            t.errors.push(e);
        }
        rate.push(o.tasks as f64 / r.wall_seconds);
        local.push(o.local_miss_pct());
        global.push(o.global_miss_pct());
        drain.push(drain_secs(r, &wall));
        p95.push(r.metrics.global.response_p95().unwrap_or(f64::NAN));
        p99.push(r.metrics.global.tardiness_p99().unwrap_or(f64::NAN));
    }
    t.tasks_per_s = median(&mut rate);
    t.local_miss_pct = median(&mut local);
    t.global_miss_pct = median(&mut global);
    t.drain_s = Some(median(&mut drain));
    t.diagnostics = vec![
        ("global_response_p95".into(), median(&mut p95)),
        ("global_tardiness_p99".into(), median(&mut p99)),
    ];
    Ok(t)
}
