//! The metric registry: every metric the benchmark prints in its result
//! line, with its unit and its direction.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; the smoke test keeps the two in step. `README.md`
//! beside this package says which end-to-end metric and workload each
//! per-layer metric should move.

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the result line.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics: printed on every workload's untraced run.
pub const END_TO_END: [Metric; 5] = [
    m("setup_s", "s", Lower),
    m("tasks_per_s", "1/s", Higher),
    m("local_miss_pct", "%", Lower),
    m("global_miss_pct", "%", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics: printed on every workload's traced run.
pub const PER_LAYER: [Metric; 26] = [
    m("sim.events", "count", Lower),
    m("sim.events_per_s", "1/s", Higher),
    m("sim.loop_self_s", "s", Lower),
    m("system.local_arrival.n", "count", Lower),
    m("system.local_arrival.self_s", "s", Lower),
    m("system.global_arrival.n", "count", Lower),
    m("system.global_arrival.self_s", "s", Lower),
    m("system.service_complete.n", "count", Lower),
    m("system.service_complete.self_s", "s", Lower),
    m("system.mean_queue_len", "jobs", Lower),
    m("system.shard_speedup", "ratio", Higher),
    m("workload.make_global_ns", "ns", Lower),
    m("workload.make_local_ns", "ns", Lower),
    m("core.start_ns", "ns", Lower),
    m("core.complete_ns", "ns", Lower),
    m("sched.push_pop_ns", "ns", Lower),
    m("experiments.parallel_efficiency", "ratio", Higher),
    m("service.logical_s", "s", Lower),
    m("service.manager_tasks_per_s", "1/s", Higher),
    m("service.node_util", "ratio", Lower),
    m("service.util_inflation", "ratio", Lower),
    m("service.miss_gap_local_pp", "pp", Lower),
    m("service.miss_gap_global_pp", "pp", Lower),
    m("service.drain_overrun_units", "sim_units", Lower),
    m("service.drain_s", "s", Lower),
    m("trace.overhead_frac", "ratio", Lower),
];

/// Looks a metric up by name in both lists.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
