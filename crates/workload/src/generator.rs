//! The task factory: turns configuration + RNG streams into task
//! instances.

use rand::Rng;

use sda_core::{DagRun, FlatRun, NodeId, TaskAttributes, TaskSpec};
use sda_sim::dist::{Sampler, Uniform};
use sda_sim::rng::{RngFactory, Stream};

use crate::arrivals::ArrivalSampler;
use crate::config::{ConfigError, DerivedRates, WorkloadConfig};
use crate::shape::{harmonic, GlobalShape};

/// A generated local task: one unit of work at its home node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalTask {
    /// The node that generated (and will execute) the task.
    pub node: NodeId,
    /// Its real-time attributes (`dl = ar + ex + slack`).
    pub attrs: TaskAttributes,
}

/// A generated global task: a serial-parallel structure plus its
/// end-to-end deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalTask {
    /// The structure, with sampled per-subtask `ex`/`pex` and node
    /// assignments.
    pub spec: TaskSpec,
    /// Arrival time `ar(T)`.
    pub arrival: f64,
    /// End-to-end deadline `dl(T)`.
    pub deadline: f64,
}

impl GlobalTask {
    /// The slack implied by the deadline: `dl − ar − critical_path_ex`.
    pub fn slack(&self) -> f64 {
        self.deadline - self.arrival - self.spec.critical_path_ex()
    }
}

/// Generates the paper's workload deterministically from named RNG
/// streams. See the [crate docs](crate) for the model and an example.
///
/// All samplers are closed [`Sampler`] enums (no trait objects), the
/// per-stream interarrival samplers (Poisson, MMPP or phased — see
/// [`ArrivalProcess`](crate::ArrivalProcess)) are prebuilt with their
/// state inline, and
/// [`TaskFactory::make_global_flat`] fills a recycled
/// [`FlatRun`] — so steady-state task generation performs zero heap
/// allocations and no virtual dispatch.
#[derive(Debug)]
pub struct TaskFactory {
    cfg: WorkloadConfig,
    rates: DerivedRates,
    local_ex: Sampler,
    subtask_ex: Sampler,
    slack: Uniform,
    // One arrival stream per node keeps the per-node Poisson processes
    // independent of each other and of everything else.
    local_arrivals: Vec<Stream>,
    local_service: Stream,
    local_slack: Stream,
    global_arrivals: Stream,
    global_service: Stream,
    global_slack: Stream,
    node_pick: Stream,
    pex_noise: Stream,
    shape_draw: Stream,
    /// Per-node local arrival rates (sums to `k · λ_local_per_node`).
    node_rates: Vec<f64>,
    /// Interarrival samplers derived from `node_rates` under the
    /// configured [`ArrivalProcess`](crate::ArrivalProcess) (`None` at
    /// rate 0). Each stream owns its own state (MMPP phase, cycle
    /// position), so streams modulate independently.
    local_arrival_gen: Vec<Option<ArrivalSampler>>,
    /// Interarrival sampler of the global stream (`None` at rate 0).
    global_arrival_gen: Option<ArrivalSampler>,
    /// Fisher-Yates scratch for distinct-node draws (reused per stage).
    node_scratch: Vec<u32>,
    /// DAG-generation scratch: start index of each layer (reused per
    /// task).
    layer_starts: Vec<u32>,
    /// DAG-generation scratch: the mandatory predecessor chosen for each
    /// node (`u32::MAX` for layer 0), for O(1) duplicate-edge checks.
    chosen_pred: Vec<u32>,
    /// DAG-generation scratch: the mandatory successor chosen for each
    /// node (`u32::MAX` at the last layer or when the node already had
    /// one).
    chosen_succ: Vec<u32>,
    /// Per-node speed factors (all 1.0 when the configuration is
    /// homogeneous); service at node `i` takes `ex / speeds[i]`.
    speeds: Vec<f64>,
}

impl TaskFactory {
    /// Builds a factory for `cfg`, drawing all streams from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration fails validation.
    pub fn new(cfg: WorkloadConfig, rng: &RngFactory) -> Result<TaskFactory, ConfigError> {
        let rates = cfg.rates()?;
        let local_ex = cfg
            .service
            .build_sampler(cfg.mean_local_ex)
            .expect("validated shape");
        let subtask_ex = cfg
            .service
            .build_sampler(cfg.mean_subtask_ex)
            .expect("validated shape");
        let slack = Uniform::new(cfg.slack.min, cfg.slack.max).expect("validated range");

        let total_local_rate = rates.lambda_local_per_node * cfg.nodes as f64;
        let node_rates: Vec<f64> = match &cfg.local_weights {
            None => vec![rates.lambda_local_per_node; cfg.nodes],
            Some(w) => {
                let sum: f64 = w.iter().sum();
                w.iter().map(|wi| total_local_rate * wi / sum).collect()
            }
        };
        let local_arrival_gen = node_rates
            .iter()
            .map(|&rate| ArrivalSampler::new(&cfg.arrivals, rate))
            .collect();
        let global_arrival_gen = ArrivalSampler::new(&cfg.arrivals, rates.lambda_global);

        let local_arrivals = (0..cfg.nodes)
            .map(|i| rng.stream_indexed("workload.local.arrival", i))
            .collect();

        let speeds = cfg
            .node_speeds
            .clone()
            .unwrap_or_else(|| vec![1.0; cfg.nodes]);

        Ok(TaskFactory {
            rates,
            local_ex,
            subtask_ex,
            slack,
            local_arrivals,
            local_service: rng.stream("workload.local.service"),
            local_slack: rng.stream("workload.local.slack"),
            global_arrivals: rng.stream("workload.global.arrival"),
            global_service: rng.stream("workload.global.service"),
            global_slack: rng.stream("workload.global.slack"),
            node_pick: rng.stream("workload.node_pick"),
            pex_noise: rng.stream("workload.pex"),
            shape_draw: rng.stream("workload.shape"),
            node_rates,
            local_arrival_gen,
            global_arrival_gen,
            node_scratch: Vec::with_capacity(cfg.nodes),
            layer_starts: Vec::new(),
            chosen_pred: Vec::new(),
            chosen_succ: Vec::new(),
            speeds,
            cfg,
        })
    }

    /// Per-node speed factors in force (all 1.0 when homogeneous).
    pub fn node_speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// The configuration in force.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// The derived arrival rates.
    pub fn rates(&self) -> DerivedRates {
        self.rates
    }

    /// Per-node local arrival rates (sums to `k · λ_local_per_node`;
    /// shifted by [`WorkloadConfig::local_weights`] when set).
    pub fn node_rates(&self) -> &[f64] {
        &self.node_rates
    }

    /// Draws the next interarrival gap of `node`'s local arrival stream
    /// (Poisson under the baseline; MMPP or phased under a time-varying
    /// [`ArrivalProcess`](crate::ArrivalProcess)); `None` if that node
    /// generates no local tasks (rate 0).
    pub fn next_local_interarrival(&mut self, node: NodeId) -> Option<f64> {
        let gen = self.local_arrival_gen[node.index()].as_mut()?;
        Some(gen.sample_with(&mut self.local_arrivals[node.index()]))
    }

    /// Draws the next interarrival gap of the global arrival stream;
    /// `None` if no global tasks are generated (`frac_local = 1`).
    pub fn next_global_interarrival(&mut self) -> Option<f64> {
        let gen = self.global_arrival_gen.as_mut()?;
        Some(gen.sample_with(&mut self.global_arrivals))
    }

    /// Generates a local task arriving at `now` at `node`.
    ///
    /// The execution time is the sampled demand divided by the node's
    /// speed factor (identity under the homogeneous baseline), so the
    /// deadline identity `dl = ar + ex + slack` holds in wall-clock time
    /// on heterogeneous hardware too.
    pub fn make_local(&mut self, node: NodeId, now: f64) -> LocalTask {
        let ex = self.local_ex.sample_with(&mut self.local_service) / self.speeds[node.index()];
        let slack = self.slack.sample_with(&mut self.local_slack);
        LocalTask {
            node,
            attrs: TaskAttributes::from_slack(now, ex, slack),
        }
    }

    /// Generates a global task arriving at `now`: samples the structure,
    /// per-subtask execution times, node placement, predictions, and the
    /// end-to-end deadline.
    ///
    /// Deadlines follow the paper's `dl = ar + ex + sl` identity with
    /// `ex` the zero-queueing end-to-end time (critical-path `ex`):
    /// * serial: `dl = ar + Σ ex_i + u·rel_flex·m·E[ex_sub]/E[ex_loc]`
    /// * parallel (§5.2 eq. 2): `dl = ar + max_i ex_i + u` (unscaled)
    /// * pipelines: `dl = ar + cp_ex + u·rel_flex·E[cp]/E[ex_loc]`
    ///
    /// where `u ~ U[Smin, Smax]` is the same base draw the locals use.
    ///
    /// This is the allocating convenience wrapper around
    /// [`TaskFactory::make_global_flat`] (the single sampling path, so
    /// the two agree draw-for-draw); the simulation hot path uses the
    /// flat variant with a pooled [`FlatRun`] directly.
    ///
    /// # Panics
    ///
    /// Panics for [`GlobalShape::Dag`] — a general DAG has no nested
    /// [`TaskSpec`] form; use [`TaskFactory::make_global_dag`].
    pub fn make_global(&mut self, now: f64) -> GlobalTask {
        let mut run = FlatRun::new();
        self.make_global_flat(now, &mut run);
        GlobalTask {
            spec: self.nested_spec(&run),
            arrival: now,
            deadline: run.global_deadline(),
        }
    }

    /// Fills a recycled [`FlatRun`] with a freshly sampled global task
    /// arriving at `now` — structure, per-subtask `ex`/`pex`, node
    /// placement and the end-to-end deadline. Performs no heap
    /// allocation once the run's capacity has warmed up.
    pub fn make_global_flat(&mut self, now: f64, run: &mut FlatRun) {
        run.reset();
        match self.cfg.shape {
            GlobalShape::Serial { m } => {
                self.fill_serial(m, run);
                run.set_structure(true, false);
            }
            GlobalShape::SerialRandomM { min_m, max_m } => {
                let m = self.shape_draw.gen_range(min_m..=max_m);
                self.fill_serial(m, run);
                run.set_structure(true, false);
            }
            GlobalShape::Parallel { m } => {
                self.fill_parallel_stage(m, run);
                run.set_structure(false, true);
            }
            GlobalShape::SerialParallel { stages, branches } => {
                for _ in 0..stages {
                    self.fill_parallel_stage(branches, run);
                }
                run.set_structure(true, true);
            }
            GlobalShape::Dag { .. } => {
                panic!("DAG-shaped workloads use TaskFactory::make_global_dag, not a FlatRun")
            }
        }
        let u = self.slack.sample_with(&mut self.global_slack);
        let factor = self.flat_slack_factor(run.simple_count());
        let deadline = now + run.critical_path_ex() + u * factor;
        run.set_timing(now, deadline);
    }

    /// Fills a recycled [`DagRun`] with a freshly sampled DAG-structured
    /// global task arriving at `now` — random layered structure with
    /// cross-layer edges (see [`GlobalShape::Dag`] for the model),
    /// per-subtask `ex`/`pex`, distinct-node placement within each
    /// layer, and the end-to-end deadline. Performs no heap allocation
    /// once the run's capacity has warmed up.
    ///
    /// The deadline follows the same identity as the tree shapes, with
    /// the critical path playing the role of the serial chain:
    /// `dl = ar + cp_ex + u · rel_flex · depth · E[ex_sub]/E[ex_loc]`,
    /// where `cp_ex` is the task's zero-queueing end-to-end time (its
    /// longest-`ex` path), `depth` is the task's own structural depth
    /// (so deeper tasks get slack proportional to their own critical
    /// path, exactly like heterogeneous-`m` serial tasks), and `u` is
    /// the same base slack draw the locals use.
    ///
    /// # Panics
    ///
    /// Panics if the configured shape is not [`GlobalShape::Dag`].
    pub fn make_global_dag(&mut self, now: f64, run: &mut DagRun) {
        let GlobalShape::Dag {
            depth,
            max_width,
            edge_density,
        } = self.cfg.shape
        else {
            panic!("make_global_dag requires GlobalShape::Dag")
        };
        run.reset();
        // Layers of subtasks, distinct nodes within each layer.
        self.layer_starts.clear();
        for _ in 0..depth {
            let width = self.shape_draw.gen_range(1..=max_width);
            self.layer_starts.push(run.simple_count() as u32);
            self.fill_dag_layer(width, run);
        }
        self.layer_starts.push(run.simple_count() as u32);
        let n = run.simple_count();

        // Connectivity skeleton: every node gets one predecessor in the
        // previous layer; every node that would otherwise be a dead end
        // gets one successor in the next. The chosen edges are recorded
        // for O(1) duplicate suppression below.
        self.chosen_pred.clear();
        self.chosen_pred.resize(n, u32::MAX);
        self.chosen_succ.clear();
        self.chosen_succ.resize(n, u32::MAX);
        for l in 1..depth {
            let (prev_lo, prev_hi) = (self.layer_starts[l - 1], self.layer_starts[l]);
            let (lo, hi) = (self.layer_starts[l], self.layer_starts[l + 1]);
            for v in lo..hi {
                let u = self.shape_draw.gen_range(prev_lo..prev_hi);
                run.push_edge(u, v);
                self.chosen_pred[v as usize] = u;
            }
            for u in prev_lo..prev_hi {
                // Skip nodes some mandatory-predecessor edge already
                // departs from.
                if (lo..hi).any(|v| self.chosen_pred[v as usize] == u) {
                    continue;
                }
                let v = self.shape_draw.gen_range(lo..hi);
                run.push_edge(u, v);
                self.chosen_succ[u as usize] = v;
            }
        }

        // Optional extra forward edges: probability `edge_density` per
        // consecutive-layer pair, halving per layer skipped.
        if edge_density > 0.0 {
            for i in 0..depth {
                for j in i + 1..depth {
                    let p = edge_density / f64::powi(2.0, (j - i - 1) as i32);
                    for u in self.layer_starts[i]..self.layer_starts[i + 1] {
                        for v in self.layer_starts[j]..self.layer_starts[j + 1] {
                            let mandatory = j == i + 1
                                && (self.chosen_pred[v as usize] == u
                                    || self.chosen_succ[u as usize] == v);
                            // One draw per candidate pair, mandatory or
                            // not, so the stream position depends only
                            // on the sampled layer widths.
                            let hit = self.shape_draw.gen::<f64>() < p;
                            if hit && !mandatory {
                                run.push_edge(u, v);
                            }
                        }
                    }
                }
            }
        }
        run.finalize();

        let u = self.slack.sample_with(&mut self.global_slack);
        let factor = self.cfg.rel_flex * run.depth() as f64 * self.cfg.mean_subtask_ex
            / self.cfg.mean_local_ex;
        let deadline = now + run.critical_path_ex() + u * factor;
        run.set_timing(now, deadline);
    }

    /// One DAG layer of `width` subtasks at `width` distinct nodes
    /// (same distinct-node discipline as parallel stages, so siblings
    /// never queue behind each other at a single server).
    fn fill_dag_layer(&mut self, width: usize, run: &mut DagRun) {
        let k = self.cfg.nodes;
        debug_assert!(width <= k, "validated by ConfigError::FanWiderThanNodes");
        self.node_scratch.clear();
        self.node_scratch.extend(0..k as u32);
        for i in 0..width {
            let j = self.node_pick.gen_range(i..k);
            self.node_scratch.swap(i, j);
        }
        for i in 0..width {
            let node = NodeId::new(self.node_scratch[i]);
            let ex = self.subtask_ex.sample_with(&mut self.global_service);
            let pex = self.cfg.pex.predict(ex, &mut self.pex_noise);
            let speed = self.speeds[node.index()];
            run.push_node(node, ex / speed, pex / speed);
        }
    }

    /// Per-task slack scaling (see [`WorkloadConfig::global_slack_factor`]
    /// for the expected-value version; here the serial factor uses the
    /// task's *actual* stage count so heterogeneous-`m` tasks get slack
    /// proportional to their own size).
    fn flat_slack_factor(&self, simple_count: usize) -> f64 {
        match self.cfg.shape {
            GlobalShape::Serial { .. } | GlobalShape::SerialRandomM { .. } => {
                self.cfg.rel_flex * simple_count as f64 * self.cfg.mean_subtask_ex
                    / self.cfg.mean_local_ex
            }
            GlobalShape::Parallel { .. } => 1.0,
            GlobalShape::SerialParallel { stages, branches } => {
                self.cfg.rel_flex * stages as f64 * harmonic(branches) * self.cfg.mean_subtask_ex
                    / self.cfg.mean_local_ex
            }
            GlobalShape::Dag { .. } => {
                unreachable!("DAG tasks are filled by make_global_dag, which scales by depth")
            }
        }
    }

    /// `m` bare serial stages, nodes drawn uniformly with replacement.
    ///
    /// Sampled demand and its prediction are both divided by the host
    /// node's speed factor (identity when homogeneous), so deadline
    /// assignment reasons in node-local service *time*.
    fn fill_serial(&mut self, m: usize, run: &mut FlatRun) {
        let k = self.cfg.nodes as u32;
        for _ in 0..m {
            let node = NodeId::new(self.node_pick.gen_range(0..k));
            let ex = self.subtask_ex.sample_with(&mut self.global_service);
            let pex = self.cfg.pex.predict(ex, &mut self.pex_noise);
            let speed = self.speeds[node.index()];
            run.push_subtask(node, ex / speed, pex / speed);
            run.end_stage();
        }
    }

    /// One parallel stage of `m` branches at `m` distinct nodes, drawn by
    /// partial Fisher-Yates over the reusable scratch pool (§5.2 places
    /// the branches of a fan at `m` different nodes).
    fn fill_parallel_stage(&mut self, m: usize, run: &mut FlatRun) {
        let k = self.cfg.nodes;
        debug_assert!(m <= k, "validated by ConfigError::FanWiderThanNodes");
        self.node_scratch.clear();
        self.node_scratch.extend(0..k as u32);
        for i in 0..m {
            let j = self.node_pick.gen_range(i..k);
            self.node_scratch.swap(i, j);
        }
        for i in 0..m {
            let node = NodeId::new(self.node_scratch[i]);
            let ex = self.subtask_ex.sample_with(&mut self.global_service);
            let pex = self.cfg.pex.predict(ex, &mut self.pex_noise);
            let speed = self.speeds[node.index()];
            run.push_subtask(node, ex / speed, pex / speed);
        }
        run.end_stage();
    }

    /// Rebuilds the nested [`TaskSpec`] equivalent of a filled run, per
    /// the configured shape (for the allocating [`TaskFactory::make_global`]
    /// path and tools that want the tree form).
    fn nested_spec(&self, run: &FlatRun) -> TaskSpec {
        let leaves = |subs: &[sda_core::SimpleSpec]| -> Vec<TaskSpec> {
            subs.iter().map(|s| TaskSpec::Simple(*s)).collect()
        };
        match self.cfg.shape {
            GlobalShape::Serial { .. } | GlobalShape::SerialRandomM { .. } => {
                TaskSpec::Serial(leaves(run.subtasks()))
            }
            GlobalShape::Parallel { .. } => TaskSpec::Parallel(leaves(run.subtasks())),
            GlobalShape::SerialParallel { .. } => TaskSpec::Serial(
                (0..run.stage_count())
                    .map(|s| TaskSpec::Parallel(leaves(run.stage(s))))
                    .collect(),
            ),
            // A general DAG has no serial-parallel tree form; callers
            // reach this only through make_global, which panics earlier
            // in make_global_flat with an actionable message.
            GlobalShape::Dag { .. } => {
                unreachable!("DAG tasks cannot be expressed as a nested TaskSpec")
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // HashSet as a test-only membership check never feeds results
mod tests {
    use super::*;
    use crate::pex::PexModel;
    use std::collections::HashSet;

    fn factory(cfg: WorkloadConfig, seed: u64) -> TaskFactory {
        TaskFactory::new(cfg, &RngFactory::new(seed)).unwrap()
    }

    #[test]
    fn determinism_same_seed_same_tasks() {
        let mut a = factory(WorkloadConfig::baseline(), 7);
        let mut b = factory(WorkloadConfig::baseline(), 7);
        for _ in 0..50 {
            assert_eq!(a.make_global(1.0), b.make_global(1.0));
            assert_eq!(
                a.make_local(NodeId::new(2), 1.0),
                b.make_local(NodeId::new(2), 1.0)
            );
            assert_eq!(a.next_global_interarrival(), b.next_global_interarrival());
        }
    }

    #[test]
    fn flat_and_nested_paths_agree_bit_exactly() {
        use sda_core::FlatRun;
        for cfg in [
            WorkloadConfig::baseline(),
            WorkloadConfig::psp_baseline(),
            WorkloadConfig::combined_baseline(),
            WorkloadConfig {
                shape: GlobalShape::SerialRandomM { min_m: 2, max_m: 8 },
                ..WorkloadConfig::baseline()
            },
        ] {
            let mut nested = factory(cfg.clone(), 31);
            let mut flat = factory(cfg, 31);
            let mut run = FlatRun::new();
            for step in 0..200 {
                let now = step as f64 * 0.5;
                let g = nested.make_global(now);
                flat.make_global_flat(now, &mut run);
                assert_eq!(g.deadline.to_bits(), run.global_deadline().to_bits());
                assert_eq!(g.arrival, run.arrival());
                let nested_subs = g.spec.simple_subtasks();
                assert_eq!(nested_subs.len(), run.simple_count());
                for (a, b) in nested_subs.iter().zip(run.subtasks()) {
                    assert_eq!(a.node, b.node);
                    assert_eq!(a.ex.to_bits(), b.ex.to_bits());
                    assert_eq!(a.pex.to_bits(), b.pex.to_bits());
                }
                // Interleave arrival draws so stream positions stay lock-step.
                assert_eq!(
                    nested.next_global_interarrival(),
                    flat.next_global_interarrival()
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = factory(WorkloadConfig::baseline(), 1);
        let mut b = factory(WorkloadConfig::baseline(), 2);
        assert_ne!(a.make_global(0.0), b.make_global(0.0));
    }

    #[test]
    fn local_interarrival_mean_matches_rate() {
        let mut f = factory(WorkloadConfig::baseline(), 11);
        let n = 50_000;
        let sum: f64 = (0..n)
            .map(|_| f.next_local_interarrival(NodeId::new(0)).unwrap())
            .sum();
        let mean = sum / n as f64;
        // λ = 0.375 → mean gap 2.666…
        assert!((mean - 1.0 / 0.375).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn global_interarrival_mean_matches_rate() {
        let mut f = factory(WorkloadConfig::baseline(), 12);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| f.next_global_interarrival().unwrap()).sum();
        let mean = sum / n as f64;
        assert!((mean - 1.0 / 0.1875).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn serial_tasks_have_erlang_total_work() {
        let mut f = factory(WorkloadConfig::baseline(), 13);
        let n = 20_000;
        let mut total = 0.0;
        for _ in 0..n {
            let g = f.make_global(0.0);
            assert_eq!(g.spec.simple_count(), 4);
            assert!(g.spec.is_flat_serial());
            total += g.spec.total_ex();
        }
        let mean = total / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean total work {mean}");
    }

    #[test]
    fn serial_deadline_uses_scaled_slack() {
        let mut f = factory(WorkloadConfig::baseline(), 14);
        for _ in 0..1000 {
            let g = f.make_global(5.0);
            let slack = g.deadline - 5.0 - g.spec.total_ex();
            // u ∈ [0.25, 2.5], factor 4 → slack ∈ [1, 10].
            assert!((1.0..=10.0).contains(&slack), "slack {slack}");
        }
    }

    #[test]
    fn parallel_tasks_use_distinct_nodes_and_eq2_deadline() {
        let mut f = factory(WorkloadConfig::psp_baseline(), 15);
        for _ in 0..1000 {
            let g = f.make_global(2.0);
            assert!(g.spec.is_flat_parallel());
            let nodes: HashSet<_> = g.spec.simple_subtasks().iter().map(|s| s.node).collect();
            assert_eq!(nodes.len(), 4, "branches must land on distinct nodes");
            // dl = ar + max ex + u, u ∈ [1.25, 5].
            let max_ex = g.spec.critical_path_ex();
            let u = g.deadline - 2.0 - max_ex;
            assert!((1.25..=5.0).contains(&u), "slack draw {u}");
        }
    }

    #[test]
    fn serial_random_m_stays_in_range_and_scales_slack() {
        let cfg = WorkloadConfig {
            shape: GlobalShape::SerialRandomM { min_m: 2, max_m: 8 },
            ..WorkloadConfig::baseline()
        };
        let mut f = factory(cfg, 16);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let g = f.make_global(0.0);
            let m = g.spec.simple_count();
            assert!((2..=8).contains(&m));
            seen.insert(m);
            // Slack scaled by the task's own m.
            let slack = g.deadline - g.spec.total_ex();
            let (lo, hi) = (0.25 * m as f64, 2.5 * m as f64);
            assert!(slack >= lo - 1e-9 && slack <= hi + 1e-9);
        }
        assert_eq!(seen.len(), 7, "all chain lengths appear");
    }

    #[test]
    fn pipeline_shape_builds_serial_of_parallel() {
        let cfg = WorkloadConfig::combined_baseline();
        let mut f = factory(cfg, 17);
        let g = f.make_global(0.0);
        assert_eq!(g.spec.simple_count(), 6);
        assert_eq!(g.spec.depth(), 2);
        match &g.spec {
            TaskSpec::Serial(stages) => {
                assert_eq!(stages.len(), 2);
                for s in stages {
                    assert!(s.is_flat_parallel());
                }
            }
            other => panic!("expected serial root, got {other:?}"),
        }
        assert!(g.slack() >= 0.0);
    }

    #[test]
    fn noisy_pex_differs_from_ex() {
        let cfg = WorkloadConfig {
            pex: PexModel::Noisy { error: 0.5 },
            ..WorkloadConfig::baseline()
        };
        let mut f = factory(cfg, 18);
        let g = f.make_global(0.0);
        let any_differs = g
            .spec
            .simple_subtasks()
            .iter()
            .any(|s| (s.ex - s.pex).abs() > 1e-12);
        assert!(any_differs);
        for s in g.spec.simple_subtasks() {
            assert!(s.pex >= 0.5 * s.ex - 1e-12 && s.pex <= 1.5 * s.ex + 1e-12);
        }
    }

    #[test]
    fn hetero_weights_shift_arrival_rates() {
        let cfg = WorkloadConfig {
            local_weights: Some(vec![3.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
            ..WorkloadConfig::baseline()
        };
        let mut f = factory(cfg, 19);
        let n = 20_000;
        let mean_gap = |f: &mut TaskFactory, node: u32| -> f64 {
            (0..n)
                .map(|_| f.next_local_interarrival(NodeId::new(node)).unwrap())
                .sum::<f64>()
                / n as f64
        };
        let hot = mean_gap(&mut f, 0);
        let cold = mean_gap(&mut f, 1);
        // Node 0 has 3× the weight → one-third the mean gap.
        assert!((cold / hot - 3.0).abs() < 0.2, "ratio {}", cold / hot);
        // Total rate preserved: Σ λ_i = k·λ̄ = 2.25.
        let total: f64 = f.node_rates.iter().sum();
        assert!((total - 2.25).abs() < 1e-12);
    }

    #[test]
    fn node_speeds_scale_service_times() {
        let speeds = vec![0.5, 1.0, 2.0, 1.0, 1.0, 1.0];
        let hetero = WorkloadConfig {
            node_speeds: Some(speeds.clone()),
            ..WorkloadConfig::baseline()
        };
        let mut base = factory(WorkloadConfig::baseline(), 40);
        let mut het = factory(hetero, 40);
        // Same seed → same demand draws; heterogeneous ex must equal the
        // homogeneous draw divided by the host node's speed, bit-exactly.
        for _ in 0..200 {
            let a = base.make_global(0.0);
            let b = het.make_global(0.0);
            for (sa, sb) in a
                .spec
                .simple_subtasks()
                .iter()
                .zip(b.spec.simple_subtasks())
            {
                assert_eq!(sa.node, sb.node);
                assert_eq!((sa.ex / speeds[sb.node.index()]).to_bits(), sb.ex.to_bits());
                assert_eq!(
                    (sa.pex / speeds[sb.node.index()]).to_bits(),
                    sb.pex.to_bits()
                );
            }
            // The deadline covers the *scaled* critical path plus slack.
            let slack = b.deadline - b.spec.critical_path_ex();
            assert!(slack >= 0.25 - 1e-9, "slack {slack}");
        }
        // Locals at the slow node take twice the homogeneous time.
        let la = base.make_local(NodeId::new(0), 1.0);
        let lb = het.make_local(NodeId::new(0), 1.0);
        assert_eq!((la.attrs.ex / 0.5).to_bits(), lb.attrs.ex.to_bits());
    }

    #[test]
    fn uniform_speeds_are_bit_identical_to_none() {
        let uniform = WorkloadConfig {
            node_speeds: Some(vec![1.0; 6]),
            ..WorkloadConfig::baseline()
        };
        let mut a = factory(WorkloadConfig::baseline(), 41);
        let mut b = factory(uniform, 41);
        for _ in 0..100 {
            assert_eq!(a.make_global(2.0), b.make_global(2.0));
            assert_eq!(
                a.make_local(NodeId::new(3), 2.0),
                b.make_local(NodeId::new(3), 2.0)
            );
        }
    }

    #[test]
    fn poisson_arrival_process_is_bit_identical_to_baseline() {
        use crate::arrivals::ArrivalProcess;
        // The `arrivals` field defaulting to Poisson must not perturb a
        // single draw relative to the pre-`ArrivalProcess` sampler.
        let explicit = WorkloadConfig {
            arrivals: ArrivalProcess::Poisson,
            ..WorkloadConfig::baseline()
        };
        let mut a = factory(WorkloadConfig::baseline(), 50);
        let mut b = factory(explicit, 50);
        for _ in 0..500 {
            assert_eq!(
                a.next_global_interarrival().unwrap().to_bits(),
                b.next_global_interarrival().unwrap().to_bits()
            );
            assert_eq!(
                a.next_local_interarrival(NodeId::new(1)).unwrap().to_bits(),
                b.next_local_interarrival(NodeId::new(1)).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn mmpp_streams_keep_the_configured_mean_rate() {
        use crate::arrivals::ArrivalProcess;
        let cfg = WorkloadConfig {
            arrivals: ArrivalProcess::Mmpp2 {
                burst_ratio: 5.0,
                dwell_quiet: 150.0,
                dwell_burst: 50.0,
            },
            ..WorkloadConfig::baseline()
        };
        let mut f = factory(cfg, 51);
        let n = 100_000;
        let total: f64 = (0..n)
            .map(|_| f.next_local_interarrival(NodeId::new(0)).unwrap())
            .sum();
        let rate = n as f64 / total;
        // λ_local = 0.375 per node, preserved in the long run.
        assert!((rate - 0.375).abs() / 0.375 < 0.05, "rate {rate}");
        // The global stream modulates independently but keeps its mean
        // too.
        let total: f64 = (0..n).map(|_| f.next_global_interarrival().unwrap()).sum();
        let rate = n as f64 / total;
        assert!((rate - 0.1875).abs() / 0.1875 < 0.05, "global rate {rate}");
    }

    #[test]
    fn zero_rate_streams_return_none() {
        let cfg = WorkloadConfig {
            frac_local: 1.0,
            ..WorkloadConfig::baseline()
        };
        let mut f = factory(cfg, 20);
        assert!(f.next_global_interarrival().is_none());
        assert!(f.next_local_interarrival(NodeId::new(0)).is_some());

        let cfg = WorkloadConfig {
            frac_local: 0.0,
            ..WorkloadConfig::baseline()
        };
        let mut f = factory(cfg, 21);
        assert!(f.next_global_interarrival().is_some());
        assert!(f.next_local_interarrival(NodeId::new(0)).is_none());
    }

    #[test]
    fn local_task_attributes_satisfy_identity() {
        let mut f = factory(WorkloadConfig::baseline(), 22);
        for _ in 0..1000 {
            let t = f.make_local(NodeId::new(1), 3.0);
            assert_eq!(t.attrs.arrival, 3.0);
            let slack = t.attrs.slack();
            assert!((0.25..=2.5).contains(&slack));
            assert_eq!(t.attrs.pex, t.attrs.ex);
        }
    }

    #[test]
    fn psp_slack_range_applies_to_locals_too() {
        let mut f = factory(WorkloadConfig::psp_baseline(), 23);
        for _ in 0..500 {
            let t = f.make_local(NodeId::new(0), 0.0);
            let slack = t.attrs.slack();
            assert!((1.25..=5.0).contains(&slack));
        }
    }

    #[test]
    fn global_task_slack_accessor() {
        let mut f = factory(WorkloadConfig::baseline(), 24);
        let g = f.make_global(1.0);
        assert!((g.slack() - (g.deadline - 1.0 - g.spec.critical_path_ex())).abs() < 1e-12);
    }

    fn dag_config() -> WorkloadConfig {
        WorkloadConfig {
            shape: GlobalShape::Dag {
                depth: 4,
                max_width: 3,
                edge_density: 0.4,
            },
            slack: crate::config::SlackRange::PSP_BASELINE,
            ..WorkloadConfig::baseline()
        }
    }

    #[test]
    fn dag_tasks_are_deterministic_connected_and_in_bounds() {
        use sda_core::DagRun;
        let mut a = factory(dag_config(), 60);
        let mut b = factory(dag_config(), 60);
        let mut run = DagRun::new();
        let mut run_b = DagRun::new();
        for step in 0..300 {
            let now = step as f64 * 0.25;
            a.make_global_dag(now, &mut run);
            b.make_global_dag(now, &mut run_b);
            // Same seed → bit-identical structure, demands and deadline.
            assert_eq!(run.simple_count(), run_b.simple_count());
            assert_eq!(run.edge_count(), run_b.edge_count());
            assert_eq!(
                run.global_deadline().to_bits(),
                run_b.global_deadline().to_bits()
            );
            // Structure bounds: depth 4 layers of width ≤ 3.
            let n = run.simple_count();
            assert!((4..=12).contains(&n), "{n} subtasks");
            // The skeleton gives every layer-l node a predecessor in
            // layer l − 1 and there are no intra-layer edges, so the
            // longest path visits exactly one node per layer.
            assert_eq!(run.depth(), 4, "depth {}", run.depth());
            // Weakly connected: only layer-0 nodes are sources, and no
            // node is a dead end unless it is in the last layer; with
            // the skeleton edges every non-source has a predecessor and
            // every non-sink a successor.
            let sources = (0..n as u32)
                .filter(|&i| run.predecessors(i).is_empty())
                .count();
            assert!(sources >= 1);
            for i in 0..n as u32 {
                assert!(
                    !run.predecessors(i).is_empty() || !run.successors(i).is_empty() || n == 1,
                    "node {i} is isolated"
                );
            }
            // Deadline identity: slack ≥ u_min · factor with factor =
            // rel_flex · depth (≥ 2 layers on every path) ≥ 1.25·2.
            let slack = run.global_deadline() - now - run.critical_path_ex();
            assert!(slack >= 1.25 * run.depth() as f64 - 1e-9, "slack {slack}");
        }
    }

    #[test]
    fn dag_layers_use_distinct_nodes() {
        use sda_core::DagRun;
        use std::collections::HashSet;
        let mut f = factory(dag_config(), 61);
        let mut run = DagRun::new();
        for _ in 0..100 {
            f.make_global_dag(0.0, &mut run);
            // Within a layer (an antichain sharing the same predecessor
            // set structure), nodes are distinct: check that no two
            // subtasks with identical predecessor lists share a node.
            // Cheap proxy: sources form layer 0.
            let sources: Vec<_> = (0..run.simple_count() as u32)
                .filter(|&i| run.predecessors(i).is_empty())
                .collect();
            let nodes: HashSet<_> = sources
                .iter()
                .map(|&i| run.subtasks()[i as usize].node)
                .collect();
            assert_eq!(nodes.len(), sources.len(), "layer-0 nodes collide");
        }
    }

    #[test]
    fn dag_edge_density_zero_and_one_bracket_the_edge_count() {
        use sda_core::DagRun;
        let sparse = WorkloadConfig {
            shape: GlobalShape::Dag {
                depth: 4,
                max_width: 3,
                edge_density: 0.0,
            },
            ..dag_config()
        };
        let dense = WorkloadConfig {
            shape: GlobalShape::Dag {
                depth: 4,
                max_width: 3,
                edge_density: 1.0,
            },
            ..dag_config()
        };
        let mut fs = factory(sparse, 62);
        let mut fd = factory(dense, 62);
        let mut run = DagRun::new();
        let (mut total_sparse, mut total_dense) = (0usize, 0usize);
        for _ in 0..200 {
            fs.make_global_dag(0.0, &mut run);
            // Density 0: only the connectivity skeleton, at most one
            // mandatory predecessor per node plus one rescue successor
            // per dead end.
            assert!(run.edge_count() < 2 * run.simple_count());
            total_sparse += run.edge_count();
            fd.make_global_dag(0.0, &mut run);
            total_dense += run.edge_count();
        }
        assert!(
            total_dense > 2 * total_sparse,
            "density 1 ({total_dense}) must far exceed density 0 ({total_sparse})"
        );
    }

    #[test]
    fn dag_density_one_consecutive_layers_are_fully_connected() {
        use sda_core::DagRun;
        let dense = WorkloadConfig {
            shape: GlobalShape::Dag {
                depth: 3,
                max_width: 3,
                edge_density: 1.0,
            },
            ..dag_config()
        };
        let mut f = factory(dense, 63);
        let mut run = DagRun::new();
        for _ in 0..50 {
            f.make_global_dag(0.0, &mut run);
            // Every source reaches every node of the next layer: nodes
            // whose predecessors are exactly the source set.
            let n = run.simple_count() as u32;
            let sources: Vec<u32> = (0..n).filter(|&i| run.predecessors(i).is_empty()).collect();
            for &s in &sources {
                for t in 0..n {
                    if run.predecessors(t).iter().all(|p| sources.contains(p))
                        && !run.predecessors(t).is_empty()
                    {
                        assert!(
                            run.successors(s).contains(&t),
                            "density 1: source {s} missing edge to layer-1 node {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "make_global_dag")]
    fn flat_fill_rejects_dag_shapes() {
        let mut f = factory(dag_config(), 64);
        let mut run = FlatRun::new();
        f.make_global_flat(0.0, &mut run);
    }

    #[test]
    #[should_panic(expected = "requires GlobalShape::Dag")]
    fn dag_fill_rejects_tree_shapes() {
        use sda_core::DagRun;
        let mut f = factory(WorkloadConfig::baseline(), 65);
        let mut run = DagRun::new();
        f.make_global_dag(0.0, &mut run);
    }

    #[test]
    fn specs_validate() {
        for cfg in [
            WorkloadConfig::baseline(),
            WorkloadConfig::psp_baseline(),
            WorkloadConfig::combined_baseline(),
        ] {
            let mut f = factory(cfg, 25);
            for _ in 0..100 {
                assert!(f.make_global(0.0).spec.validate().is_ok());
            }
        }
    }
}
