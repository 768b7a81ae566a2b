//! Single-run and replicated-run harnesses.

use serde::{Deserialize, Serialize};

use sda_sim::rng::RngFactory;
use sda_sim::stats::Replications;
use sda_sim::{Engine, SimTime};
use sda_workload::ConfigError;

use crate::config::SystemConfig;
use crate::metrics::Metrics;
use crate::model::{Event, SystemModel};

/// Run-length parameters for one simulation run.
///
/// The paper uses runs of 10⁶ time units after warm-up with at least 10⁵
/// tasks each; the default here is a faster setting suitable for tests
/// and quick sweeps. Scale `duration` up (and add replications) for
/// paper-grade confidence intervals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Warm-up transient discarded before statistics collection.
    pub warmup: f64,
    /// Measured duration after warm-up.
    pub duration: f64,
    /// Master seed; every RNG stream derives from it.
    pub seed: u64,
    /// Seed for the deterministic same-timestamp order permutation
    /// (see [`sda_sim::Context::set_order_fuzz`]); `0` (the default)
    /// keeps exact FIFO order. Any non-zero seed is an equally valid
    /// tie-break, so metrics that survive a set of fuzz seeds do not
    /// lean on accidental event ordering.
    #[serde(default)]
    pub order_fuzz: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup: 1_000.0,
            duration: 50_000.0,
            seed: 0x5DA_5EED,
            order_fuzz: 0,
        }
    }
}

impl RunConfig {
    /// The paper's run length: 10⁶ time units per run (plus a generous
    /// warm-up).
    pub fn paper_scale(seed: u64) -> RunConfig {
        RunConfig {
            warmup: 10_000.0,
            duration: 1_000_000.0,
            seed,
            order_fuzz: 0,
        }
    }

    /// A quick setting for CI and smoke tests.
    pub fn quick(seed: u64) -> RunConfig {
        RunConfig {
            warmup: 500.0,
            duration: 10_000.0,
            seed,
            order_fuzz: 0,
        }
    }
}

/// Why a run harness failed.
///
/// The serial [`run_once`] only ever fails on configuration
/// ([`ConfigError`], which it returns directly); the sharded harnesses
/// can additionally fail at runtime when a cross-shard mailbox
/// overflows, so they return this richer error.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// Invalid workload/system configuration.
    Config(ConfigError),
    /// A shard worker overran a fixed-capacity cross-shard mailbox —
    /// the run is aborted rather than silently dropping events. Raise
    /// the capacity (or investigate the surge the diagnostics point at).
    MailboxOverflow {
        /// The shard whose mailbox overflowed.
        shard: usize,
        /// Bound of the synchronization window being processed when the
        /// overflow occurred.
        window: f64,
        /// The mailbox capacity that was exceeded.
        capacity: usize,
        /// Which mailbox: `"record"` (shard → manager completions) or
        /// `"delivery"` (manager → shard hand-offs).
        kind: &'static str,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "{e}"),
            RunError::MailboxOverflow {
                shard,
                window,
                capacity,
                kind,
            } => write!(
                f,
                "shard {shard}: {kind} mailbox overflow (capacity {capacity}) \
                 in synchronization window starting at t={window}"
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            RunError::MailboxOverflow { .. } => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Task-level metrics (post-warm-up).
    pub metrics: Metrics,
    /// Post-warm-up time-average utilization per node.
    pub node_utilization: Vec<f64>,
    /// Post-warm-up time-average ready-queue length per node.
    pub node_queue_length: Vec<f64>,
    /// Clock value at the end of the run.
    pub end_time: f64,
    /// Events handled.
    pub events: u64,
}

impl RunResult {
    /// Mean utilization across nodes.
    pub fn mean_utilization(&self) -> f64 {
        if self.node_utilization.is_empty() {
            0.0
        } else {
            self.node_utilization.iter().sum::<f64>() / self.node_utilization.len() as f64
        }
    }

    /// Spread of the per-node utilizations (max − min) — 0 for a
    /// perfectly balanced system; grows with `node_speeds` skew and
    /// `local_weights` imbalance.
    pub fn utilization_spread(&self) -> f64 {
        let max = self
            .node_utilization
            .iter()
            .copied()
            .fold(f64::NAN, f64::max);
        let min = self
            .node_utilization
            .iter()
            .copied()
            .fold(f64::NAN, f64::min);
        if max.is_nan() || min.is_nan() {
            0.0
        } else {
            max - min
        }
    }
}

/// Runs the model once.
///
/// # Errors
///
/// Returns [`ConfigError`] for invalid workload parameters.
pub fn run_once(config: &SystemConfig, run: &RunConfig) -> Result<RunResult, ConfigError> {
    let rng = RngFactory::new(run.seed);
    let model = SystemModel::new(config.clone(), &rng)?;
    let mut engine = Engine::new(model);
    engine.context_mut().set_order_fuzz(run.order_fuzz);
    engine.context_mut().schedule_at(
        SimTime::ZERO,
        Event::Init {
            warmup_end: run.warmup,
        },
    );
    let horizon = SimTime::from(run.warmup + run.duration);
    let report = engine.run_until(horizon);
    let model = engine.model();
    Ok(RunResult {
        metrics: model.metrics().clone(),
        node_utilization: model
            .nodes()
            .iter()
            .map(|n| n.utilization(horizon))
            .collect(),
        node_queue_length: model
            .nodes()
            .iter()
            .map(|n| n.mean_queue_length(horizon))
            .collect(),
        end_time: report.end_time.as_f64(),
        events: report.events,
    })
}

/// Runs the model once on the sharded conservative-parallel engine
/// (the `shard` module): the node set is partitioned into `shards`
/// concurrent workers, with the network model's minimum hop delay as
/// the conservative lookahead.
///
/// Falls back to the serial [`run_once`] — the same model code, so the
/// result is identical — when parallelism cannot help:
///
/// * `shards <= 1`: nothing to run concurrently;
/// * `config.network.min_hop_delay() == 0` (e.g.
///   [`NetworkModel::Zero`](crate::NetworkModel::Zero), the
///   [`Exponential`](crate::NetworkModel::Exponential) model, or a
///   [`Matrix`](crate::NetworkModel::Matrix) with a zero entry): zero
///   lookahead means a zero-width window, so the conservative protocol
///   cannot advance any shard independently.
///
/// # Errors
///
/// Returns [`RunError::Config`] for invalid workload parameters, and
/// [`RunError::MailboxOverflow`] if a cross-shard mailbox overruns its
/// capacity at runtime.
pub fn run_once_sharded(
    config: &SystemConfig,
    run: &RunConfig,
    shards: usize,
) -> Result<RunResult, RunError> {
    run_sharded_or_serial(config, run, shards, crate::shard::MAILBOX_CAPACITY)
}

/// The serial-fallback gate of [`run_once_sharded`], with cross-shard
/// mailboxes of `mailbox_capacity` when the run is sharded.
fn run_sharded_or_serial(
    config: &SystemConfig,
    run: &RunConfig,
    shards: usize,
    mailbox_capacity: usize,
) -> Result<RunResult, RunError> {
    if shards <= 1 || config.network.min_hop_delay() <= 0.0 {
        return Ok(run_once(config, run)?);
    }
    crate::shard::run_sharded(config, run, shards, mailbox_capacity).map(|(result, _)| result)
}

/// Summary statistics across independent replications (different seeds,
/// same configuration), as the paper's two-run-per-point methodology —
/// generalized to any replication count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedResult {
    /// `MD_local` (%) per replication.
    pub local_miss_pct: Replications,
    /// `MD_global` (%) per replication.
    pub global_miss_pct: Replications,
    /// Subtask-level virtual-deadline miss (%) per replication.
    pub subtask_miss_pct: Replications,
    /// Mean local response time per replication.
    pub local_response: Replications,
    /// Mean global (end-to-end) response time per replication.
    pub global_response: Replications,
    /// Mean node utilization per replication.
    pub utilization: Replications,
    /// Mean hand-off transit time per replication (0 under
    /// [`NetworkModel::Zero`](crate::NetworkModel::Zero), where no
    /// transit is observed).
    pub transit: Replications,
    /// Work lost to node failures per replication: lost local tasks
    /// plus lost global-subtask copies (0 with failures disabled).
    pub lost: Replications,
    /// The individual runs, for deeper inspection.
    pub runs: Vec<RunResult>,
}

impl ReplicatedResult {
    /// Point estimate of `MD_local` in percent.
    pub fn md_local(&self) -> f64 {
        self.local_miss_pct.mean()
    }

    /// Point estimate of `MD_global` in percent.
    pub fn md_global(&self) -> f64 {
        self.global_miss_pct.mean()
    }
}

/// Runs `replications` independent runs, deriving per-replication seeds
/// from `base.seed`, in parallel across the machine's cores.
///
/// Equivalent to [`run_replications_with_threads`] with `threads = 0`
/// (one worker per available core, capped at the replication count).
/// Results are bit-identical regardless of worker count: each
/// replication's seed lineage depends only on its index, and results
/// are folded in index order.
///
/// # Errors
///
/// Returns [`ConfigError`] for invalid workload parameters.
pub fn run_replications(
    config: &SystemConfig,
    base: &RunConfig,
    replications: usize,
) -> Result<ReplicatedResult, ConfigError> {
    run_replications_with_threads(config, base, replications, 0)
}

/// The per-replication seed: a pure function of the base seed and the
/// replication index, so execution order and thread count cannot change
/// any run's random streams.
fn replication_seed(base_seed: u64, index: usize) -> u64 {
    RngFactory::new(base_seed)
        .subfactory(index as u64)
        .master_seed()
}

/// [`run_replications`] with an explicit worker count (`0` = all cores).
///
/// # Errors
///
/// Returns [`ConfigError`] for invalid workload parameters.
pub fn run_replications_with_threads(
    config: &SystemConfig,
    base: &RunConfig,
    replications: usize,
    threads: usize,
) -> Result<ReplicatedResult, ConfigError> {
    let workers = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .clamp(1, replications.max(1));

    let mut runs: Vec<Option<Result<RunResult, ConfigError>>> = Vec::new();
    if workers <= 1 || replications <= 1 {
        for r in 0..replications {
            let run_cfg = RunConfig {
                seed: replication_seed(base.seed, r),
                ..*base
            };
            runs.push(Some(run_once(config, &run_cfg)));
        }
    } else {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let results: Mutex<Vec<Option<Result<RunResult, ConfigError>>>> =
            Mutex::new((0..replications).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let r = next.fetch_add(1, Ordering::Relaxed);
                    if r >= replications {
                        break;
                    }
                    let run_cfg = RunConfig {
                        seed: replication_seed(base.seed, r),
                        ..*base
                    };
                    let run = run_once(config, &run_cfg);
                    results.lock().expect("no poisoned lock")[r] = Some(run);
                });
            }
        });
        runs = results.into_inner().expect("no poisoned lock");
    }

    fold_runs(runs)
}

/// [`run_replications`] on the sharded engine: replications run
/// back-to-back, each parallelized internally across `shards` (see
/// [`run_once_sharded`] for the serial-fallback gate). Results are
/// bit-identical to the serial replication harness whenever each
/// individual run is.
///
/// `mailbox_capacity` bounds each cross-shard mailbox (`None` = the
/// engine default). A deliberately small bound turns a backlogged
/// synchronization window into a structured
/// [`RunError::MailboxOverflow`] instead of unbounded buffering — the
/// sweep binaries expose this as `--mailbox-capacity`.
///
/// # Errors
///
/// Returns [`RunError::Config`] for invalid workload parameters, and
/// [`RunError::MailboxOverflow`] if any window exceeds the capacity.
pub fn run_replications_sharded(
    config: &SystemConfig,
    base: &RunConfig,
    replications: usize,
    shards: usize,
    mailbox_capacity: Option<usize>,
) -> Result<ReplicatedResult, RunError> {
    let capacity = mailbox_capacity.unwrap_or(crate::shard::MAILBOX_CAPACITY);
    let runs = (0..replications)
        .map(|r| {
            let run_cfg = RunConfig {
                seed: replication_seed(base.seed, r),
                ..*base
            };
            Some(run_sharded_or_serial(config, &run_cfg, shards, capacity))
        })
        .collect();
    fold_runs(runs)
}

/// Folds per-replication results in replication-index order, so the
/// aggregate statistics are independent of completion order. Generic
/// over the error type: the serial harnesses fold [`ConfigError`]s, the
/// sharded ones [`RunError`]s.
fn fold_runs<E>(runs: Vec<Option<Result<RunResult, E>>>) -> Result<ReplicatedResult, E> {
    let mut result = ReplicatedResult {
        local_miss_pct: Replications::new(),
        global_miss_pct: Replications::new(),
        subtask_miss_pct: Replications::new(),
        local_response: Replications::new(),
        global_response: Replications::new(),
        utilization: Replications::new(),
        transit: Replications::new(),
        lost: Replications::new(),
        runs: Vec::with_capacity(runs.len()),
    };
    for run in runs {
        let run = run.expect("every replication computed")?;
        result.local_miss_pct.add(run.metrics.local.miss_percent());
        result
            .global_miss_pct
            .add(run.metrics.global.miss_percent());
        result
            .subtask_miss_pct
            .add(run.metrics.subtask_virtual_miss.percent());
        result
            .local_response
            .add(run.metrics.local.response().mean());
        result
            .global_response
            .add(run.metrics.global.response().mean());
        result.utilization.add(run.mean_utilization());
        result.transit.add(run.metrics.transit.mean());
        result
            .lost
            .add((run.metrics.lost_locals + run.metrics.lost_subtasks) as f64);
        result.runs.push(run);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_core::SdaStrategy;

    #[test]
    fn run_once_reports_sane_results() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let run = run_once(&cfg, &RunConfig::quick(1)).unwrap();
        assert!(run.metrics.local.completed() > 1_000);
        assert!(run.metrics.global.completed() > 100);
        assert_eq!(run.node_utilization.len(), 6);
        assert!(run.mean_utilization() > 0.3 && run.mean_utilization() < 0.7);
        assert!(run.events > 0);
        assert!((run.end_time - 10_500.0).abs() < 1e-9);
    }

    #[test]
    fn replications_differ_but_are_deterministic() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::ud_ud());
        let base = RunConfig::quick(7);
        let a = run_replications(&cfg, &base, 3).unwrap();
        let b = run_replications(&cfg, &base, 3).unwrap();
        assert_eq!(a.local_miss_pct.values(), b.local_miss_pct.values());
        // Replications must actually differ from each other.
        let vals = a.global_miss_pct.values();
        assert!(vals.windows(2).any(|w| w[0] != w[1]), "{vals:?}");
        assert!(a.global_miss_pct.confidence_interval().is_some());
    }

    #[test]
    fn replications_are_deterministic_across_thread_counts() {
        // Mirrors the experiment harness's
        // `sweep_is_deterministic_across_thread_counts`: worker count
        // must not change any statistic bit.
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let base = RunConfig {
            warmup: 200.0,
            duration: 2_500.0,
            seed: 11,
            order_fuzz: 0,
        };
        let serial = run_replications_with_threads(&cfg, &base, 4, 1).unwrap();
        let par2 = run_replications_with_threads(&cfg, &base, 4, 2).unwrap();
        let par4 = run_replications_with_threads(&cfg, &base, 4, 4).unwrap();
        assert_eq!(serial, par2, "1 vs 2 workers");
        assert_eq!(serial, par4, "1 vs 4 workers");
        // And the default (all cores) matches too.
        let auto = run_replications(&cfg, &base, 4).unwrap();
        assert_eq!(serial, auto, "1 worker vs default");
    }

    #[test]
    fn md_accessors_match_means() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let res = run_replications(&cfg, &RunConfig::quick(3), 2).unwrap();
        assert_eq!(res.md_local(), res.local_miss_pct.mean());
        assert_eq!(res.md_global(), res.global_miss_pct.mean());
        assert_eq!(res.runs.len(), 2);
    }

    #[test]
    fn utilization_spread_tracks_speed_skew() {
        let base = RunConfig::quick(9);
        let balanced = run_once(&SystemConfig::ssp_baseline(SdaStrategy::eqf_ud()), &base).unwrap();
        let mut skewed_cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        skewed_cfg.workload.node_speeds = Some(vec![0.6, 0.8, 1.0, 1.0, 1.2, 1.4]);
        let skewed = run_once(&skewed_cfg, &base).unwrap();
        assert!(
            skewed.utilization_spread() > balanced.utilization_spread() + 0.1,
            "skewed spread {} must exceed balanced {}",
            skewed.utilization_spread(),
            balanced.utilization_spread()
        );
        // Degenerate inputs stay well-defined.
        let empty = RunResult {
            metrics: crate::Metrics::new(),
            node_utilization: vec![],
            node_queue_length: vec![],
            end_time: 0.0,
            events: 0,
        };
        assert_eq!(empty.utilization_spread(), 0.0);
        assert_eq!(empty.mean_utilization(), 0.0);
    }

    #[test]
    fn default_run_config_is_reasonable() {
        let d = RunConfig::default();
        assert!(d.warmup > 0.0 && d.duration > d.warmup);
        let p = RunConfig::paper_scale(1);
        assert_eq!(p.duration, 1_000_000.0);
    }
}
