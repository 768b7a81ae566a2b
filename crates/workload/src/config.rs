//! Workload parameterization (Table 1) and arrival-rate derivation.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::arrivals::ArrivalProcess;
use crate::pex::PexModel;
use crate::service::ServiceVariability;
use crate::shape::GlobalShape;

/// The uniform slack range `[Smin, Smax]` of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlackRange {
    /// `Smin`.
    pub min: f64,
    /// `Smax`.
    pub max: f64,
}

impl SlackRange {
    /// The Table 1 baseline `[0.25, 2.5]`.
    pub const BASELINE: SlackRange = SlackRange {
        min: 0.25,
        max: 2.5,
    };

    /// The §5.2 PSP baseline `[1.25, 5.0]`.
    pub const PSP_BASELINE: SlackRange = SlackRange {
        min: 1.25,
        max: 5.0,
    };

    /// A new range; validated by [`WorkloadConfig::validate`].
    pub fn new(min: f64, max: f64) -> SlackRange {
        SlackRange { min, max }
    }

    /// The mean of the uniform distribution.
    pub fn mean(&self) -> f64 {
        0.5 * (self.min + self.max)
    }

    /// Both endpoints multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> SlackRange {
        SlackRange {
            min: self.min * factor,
            max: self.max * factor,
        }
    }
}

/// Error returned for invalid workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A parameter outside its valid domain.
    OutOfRange {
        /// Parameter name.
        what: &'static str,
        /// Human-readable constraint.
        constraint: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Parallel fan width exceeds the node count (distinct-node draws
    /// impossible).
    FanWiderThanNodes {
        /// Requested fan width.
        fan: usize,
        /// Available nodes.
        nodes: usize,
    },
    /// A per-node vector entry (`local_weights`, `node_speeds`, …)
    /// outside its domain — reports *which* entry so the error is
    /// actionable.
    InvalidEntry {
        /// Which vector parameter.
        what: &'static str,
        /// Index of the first offending entry.
        index: usize,
        /// Human-readable constraint.
        constraint: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::OutOfRange {
                what,
                constraint,
                value,
            } => write!(f, "{what} must satisfy {constraint}, got {value}"),
            ConfigError::FanWiderThanNodes { fan, nodes } => write!(
                f,
                "parallel fan of {fan} subtasks needs {fan} distinct nodes but only {nodes} exist"
            ),
            ConfigError::InvalidEntry {
                what,
                index,
                constraint,
                value,
            } => write!(f, "{what}[{index}] must satisfy {constraint}, got {value}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Arrival rates derived from `(load, frac_local)` per §4.1:
///
/// ```text
/// load = (λ_global · E[W_global] + k · λ_local · E[ex_local]) / k
/// frac_local = k · λ_local · E[ex_local] / (k · load)
/// ```
///
/// Solved for the rates:
///
/// ```text
/// λ_local (per node) = load · frac_local / E[ex_local]
/// λ_global (system)  = load · k · (1 − frac_local) / E[W_global]
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DerivedRates {
    /// Poisson rate of local tasks at **each** node.
    pub lambda_local_per_node: f64,
    /// Poisson rate of the single system-wide global task stream.
    pub lambda_global: f64,
    /// Expected total work (summed `ex`) of one global task.
    pub expected_global_work: f64,
    /// Expected work per unit time contributed by local tasks (all
    /// nodes).
    pub local_work_rate: f64,
    /// Expected work per unit time contributed by global tasks.
    pub global_work_rate: f64,
}

impl DerivedRates {
    /// The realized normalized load (should equal the configured one).
    pub fn load(&self, nodes: usize) -> f64 {
        (self.local_work_rate + self.global_work_rate) / nodes as f64
    }
}

/// Full workload parameterization — Table 1 plus the §4.3/§5/§6
/// extensions.
///
/// Time is relativized to the mean local execution time, as in the paper
/// (`μ_local = 1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of homogeneous nodes `k`.
    pub nodes: usize,
    /// Normalized system load in `(0, 1)`.
    pub load: f64,
    /// Fraction of load contributed by local tasks, in `[0, 1]`.
    pub frac_local: f64,
    /// Mean execution time of local tasks (`1/μ_local`; baseline 1.0).
    pub mean_local_ex: f64,
    /// Mean execution time of each global subtask (`1/μ_subtask`;
    /// baseline 1.0).
    pub mean_subtask_ex: f64,
    /// Uniform slack range `[Smin, Smax]` for **local** tasks, and the
    /// base range that global slack is derived from.
    pub slack: SlackRange,
    /// Relative flexibility of global tasks vs local tasks (baseline 1.0).
    pub rel_flex: f64,
    /// Structure of global tasks.
    pub shape: GlobalShape,
    /// Prediction model for subtask execution times.
    pub pex: PexModel,
    /// Shape of the execution-time distributions (both classes);
    /// baseline exponential, CV² = 1.
    pub service: ServiceVariability,
    /// Optional per-node weights for local arrivals (the §4.3
    /// "some nodes had higher local task loads" extension). Uniform when
    /// `None`; otherwise must have one non-negative weight per node with
    /// a positive sum. The *total* local rate is preserved.
    pub local_weights: Option<Vec<f64>>,
    /// Optional per-node **speed factors** (heterogeneous hardware).
    /// `None` means every node runs at speed 1 (the paper's homogeneous
    /// model); otherwise one strictly positive finite factor per node,
    /// and every task served at node `i` takes `ex / node_speeds[i]` time
    /// units. Execution-time *predictions* scale identically, so deadline
    /// assignment sees the node-local service times. Offered work is
    /// unchanged — speeds skew per-node utilization (a node at speed `s`
    /// carries `1/s` times the time-load of a speed-1 node), which is
    /// exactly the heterogeneity axis the network-aware experiments
    /// sweep.
    pub node_speeds: Option<Vec<f64>>,
    /// The arrival-process family every task stream draws from
    /// (default [`ArrivalProcess::Poisson`], the paper's stationary
    /// model — bit-identical to the pre-existing sampling path). The
    /// non-stationary variants keep the configured mean rate, so `load`
    /// remains the *time-average* load while instantaneous load varies:
    /// MMPP bursts and phased overload transients are exactly the
    /// regimes the feedback-adaptive strategies react to.
    pub arrivals: ArrivalProcess,
}

impl WorkloadConfig {
    /// The Table 1 baseline: `k = 6`, `m = 4` serial subtasks,
    /// `load = 0.5`, `frac_local = 0.75`, slack `U[0.25, 2.5]`,
    /// `rel_flex = 1`, perfect prediction.
    pub fn baseline() -> WorkloadConfig {
        WorkloadConfig {
            nodes: 6,
            load: 0.5,
            frac_local: 0.75,
            mean_local_ex: 1.0,
            mean_subtask_ex: 1.0,
            slack: SlackRange::BASELINE,
            rel_flex: 1.0,
            shape: GlobalShape::Serial { m: 4 },
            pex: PexModel::Perfect,
            service: ServiceVariability::Exponential,
            local_weights: None,
            node_speeds: None,
            arrivals: ArrivalProcess::Poisson,
        }
    }

    /// The §5.2 PSP baseline: same as [`baseline`](Self::baseline) but
    /// global tasks are parallel fans of 4 subtasks on distinct nodes and
    /// both classes draw slack from `U[1.25, 5.0]`.
    pub fn psp_baseline() -> WorkloadConfig {
        WorkloadConfig {
            slack: SlackRange::PSP_BASELINE,
            shape: GlobalShape::Parallel { m: 4 },
            ..WorkloadConfig::baseline()
        }
    }

    /// A §6 serial-parallel baseline: pipelines of 2 serial stages × 3
    /// parallel branches, PSP slack range.
    pub fn combined_baseline() -> WorkloadConfig {
        WorkloadConfig {
            slack: SlackRange::PSP_BASELINE,
            shape: GlobalShape::SerialParallel {
                stages: 2,
                branches: 3,
            },
            ..WorkloadConfig::baseline()
        }
    }

    /// Checks every parameter's domain.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn check(
            what: &'static str,
            ok: bool,
            constraint: &'static str,
            value: f64,
        ) -> Result<(), ConfigError> {
            if ok {
                Ok(())
            } else {
                Err(ConfigError::OutOfRange {
                    what,
                    constraint,
                    value,
                })
            }
        }
        check("nodes", self.nodes >= 1, "≥ 1", self.nodes as f64)?;
        check(
            "load",
            self.load > 0.0 && self.load < 1.0 && self.load.is_finite(),
            "0 < load < 1",
            self.load,
        )?;
        check(
            "frac_local",
            (0.0..=1.0).contains(&self.frac_local),
            "0 ≤ frac_local ≤ 1",
            self.frac_local,
        )?;
        check(
            "mean_local_ex",
            self.mean_local_ex > 0.0 && self.mean_local_ex.is_finite(),
            "> 0",
            self.mean_local_ex,
        )?;
        check(
            "mean_subtask_ex",
            self.mean_subtask_ex > 0.0 && self.mean_subtask_ex.is_finite(),
            "> 0",
            self.mean_subtask_ex,
        )?;
        check(
            "slack.min",
            self.slack.min >= 0.0 && self.slack.min.is_finite(),
            "≥ 0",
            self.slack.min,
        )?;
        check(
            "slack range",
            self.slack.max >= self.slack.min && self.slack.max.is_finite(),
            "max ≥ min",
            self.slack.max,
        )?;
        check(
            "rel_flex",
            self.rel_flex > 0.0 && self.rel_flex.is_finite(),
            "> 0",
            self.rel_flex,
        )?;
        if self.service.build_sampler(1.0).is_err() {
            return Err(ConfigError::OutOfRange {
                what: "service distribution",
                constraint: "valid shape parameters",
                value: f64::NAN,
            });
        }
        // Shape parameters are multi-field; report the first offending
        // field as an indexed entry (field order = declaration order) so
        // the error names exactly which knob is degenerate. A zero stage
        // count, width or depth used to slip through some construction
        // paths as a later divide-by-zero or an empty-task panic deep in
        // the generator.
        fn entry(
            what: &'static str,
            index: usize,
            ok: bool,
            constraint: &'static str,
            value: f64,
        ) -> Result<(), ConfigError> {
            if ok {
                Ok(())
            } else {
                Err(ConfigError::InvalidEntry {
                    what,
                    index,
                    constraint,
                    value,
                })
            }
        }
        match self.shape {
            GlobalShape::Serial { m } => {
                entry("shape.serial", 0, m >= 1, "≥ 1", m as f64)?;
            }
            GlobalShape::Parallel { m } => {
                entry("shape.parallel", 0, m >= 1, "≥ 1", m as f64)?;
                if m > self.nodes {
                    return Err(ConfigError::FanWiderThanNodes {
                        fan: m,
                        nodes: self.nodes,
                    });
                }
            }
            GlobalShape::SerialRandomM { min_m, max_m } => {
                entry("shape.serial_random_m", 0, min_m >= 1, "≥ 1", min_m as f64)?;
                entry(
                    "shape.serial_random_m",
                    1,
                    max_m >= min_m,
                    "≥ min_m",
                    max_m as f64,
                )?;
            }
            GlobalShape::SerialParallel { stages, branches } => {
                entry(
                    "shape.serial_parallel",
                    0,
                    stages >= 1,
                    "≥ 1",
                    stages as f64,
                )?;
                entry(
                    "shape.serial_parallel",
                    1,
                    branches >= 1,
                    "≥ 1",
                    branches as f64,
                )?;
                if branches > self.nodes {
                    return Err(ConfigError::FanWiderThanNodes {
                        fan: branches,
                        nodes: self.nodes,
                    });
                }
            }
            GlobalShape::Dag {
                depth,
                max_width,
                edge_density,
            } => {
                entry("shape.dag", 0, depth >= 1, "≥ 1", depth as f64)?;
                entry("shape.dag", 1, max_width >= 1, "≥ 1", max_width as f64)?;
                entry(
                    "shape.dag",
                    2,
                    edge_density.is_finite() && (0.0..=1.0).contains(&edge_density),
                    "finite and in [0, 1]",
                    edge_density,
                )?;
                if max_width > self.nodes {
                    return Err(ConfigError::FanWiderThanNodes {
                        fan: max_width,
                        nodes: self.nodes,
                    });
                }
            }
        }
        if let Some(w) = &self.local_weights {
            check(
                "local_weights length",
                w.len() == self.nodes,
                "one weight per node",
                w.len() as f64,
            )?;
            if let Some((i, &bad)) = w
                .iter()
                .enumerate()
                .find(|(_, x)| !(x.is_finite() && **x >= 0.0))
            {
                return Err(ConfigError::InvalidEntry {
                    what: "local_weights",
                    index: i,
                    constraint: "finite and ≥ 0",
                    value: bad,
                });
            }
            check(
                "local_weights sum",
                w.iter().sum::<f64>() > 0.0,
                "> 0",
                w.iter().sum::<f64>(),
            )?;
        }
        self.arrivals.validate()?;
        if let Some(s) = &self.node_speeds {
            check(
                "node_speeds length",
                s.len() == self.nodes,
                "one speed per node",
                s.len() as f64,
            )?;
            if let Some((i, &bad)) = s
                .iter()
                .enumerate()
                .find(|(_, x)| !(x.is_finite() && **x > 0.0))
            {
                return Err(ConfigError::InvalidEntry {
                    what: "node_speeds",
                    index: i,
                    constraint: "finite and > 0",
                    value: bad,
                });
            }
        }
        Ok(())
    }

    /// Derives the Poisson arrival rates from `(load, frac_local)` per
    /// the §4.1 formulas (see [`DerivedRates`]).
    ///
    /// # Errors
    ///
    /// Validates the configuration first.
    pub fn rates(&self) -> Result<DerivedRates, ConfigError> {
        self.validate()?;
        let k = self.nodes as f64;
        let expected_global_work = self.shape.expected_subtasks() * self.mean_subtask_ex;
        let lambda_local_per_node = self.load * self.frac_local / self.mean_local_ex;
        let global_work_rate = self.load * k * (1.0 - self.frac_local);
        let lambda_global = if self.frac_local >= 1.0 {
            0.0
        } else {
            global_work_rate / expected_global_work
        };
        Ok(DerivedRates {
            lambda_local_per_node,
            lambda_global,
            expected_global_work,
            local_work_rate: lambda_local_per_node * self.mean_local_ex * k,
            global_work_rate,
        })
    }

    /// The slack-scaling factor applied to global task slack draws.
    ///
    /// * Serial shapes: `rel_flex · E[total work]/E[local ex]` — makes the
    ///   classes' mean flexibility ratio exactly `rel_flex` (the paper's
    ///   "same average flexibility" at 1.0, §4.2.1).
    /// * Flat parallel fans: `1.0` — §5.2's formula (2) adds slack drawn
    ///   from the *same* distribution as the locals', unscaled.
    /// * Serial-parallel pipelines: `rel_flex · E[critical path]/E[local
    ///   ex]`, the natural generalization (deadline generation is also
    ///   critical-path-based).
    /// * Layered DAGs: `rel_flex · E[depth]/E[local ex]` in expectation —
    ///   per task the factor uses the task's *own* structural depth (see
    ///   [`TaskFactory::make_global_dag`](crate::TaskFactory::make_global_dag)),
    ///   mirroring how heterogeneous-`m` serial tasks scale by their own
    ///   stage count.
    pub fn global_slack_factor(&self) -> f64 {
        match self.shape {
            GlobalShape::Serial { .. } | GlobalShape::SerialRandomM { .. } => {
                self.rel_flex * self.shape.expected_subtasks() * self.mean_subtask_ex
                    / self.mean_local_ex
            }
            GlobalShape::Parallel { .. } => 1.0,
            GlobalShape::SerialParallel { .. } => {
                self.rel_flex * self.shape.expected_critical_path_factor() * self.mean_subtask_ex
                    / self.mean_local_ex
            }
            GlobalShape::Dag { depth, .. } => {
                self.rel_flex * depth as f64 * self.mean_subtask_ex / self.mean_local_ex
            }
        }
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_1() {
        let c = WorkloadConfig::baseline();
        assert_eq!(c.nodes, 6);
        assert_eq!(c.load, 0.5);
        assert_eq!(c.frac_local, 0.75);
        assert_eq!(c.slack, SlackRange::new(0.25, 2.5));
        assert_eq!(c.rel_flex, 1.0);
        assert_eq!(c.shape, GlobalShape::Serial { m: 4 });
        assert!(c.validate().is_ok());
    }

    #[test]
    fn baseline_rates_close_the_load_equation() {
        let c = WorkloadConfig::baseline();
        let r = c.rates().unwrap();
        // λ_local = 0.5·0.75/1 = 0.375 per node.
        assert!((r.lambda_local_per_node - 0.375).abs() < 1e-12);
        // λ_global = 0.5·6·0.25/4 = 0.1875.
        assert!((r.lambda_global - 0.1875).abs() < 1e-12);
        assert!((r.load(c.nodes) - c.load).abs() < 1e-12);
        assert_eq!(r.expected_global_work, 4.0);
    }

    #[test]
    fn frac_local_extremes() {
        let mut c = WorkloadConfig::baseline();
        c.frac_local = 1.0;
        let r = c.rates().unwrap();
        assert_eq!(r.lambda_global, 0.0);
        assert!((r.load(c.nodes) - 0.5).abs() < 1e-12);

        c.frac_local = 0.0;
        let r = c.rates().unwrap();
        assert_eq!(r.lambda_local_per_node, 0.0);
        assert!((r.load(c.nodes) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn psp_baseline_uses_wider_slack_and_fans() {
        let c = WorkloadConfig::psp_baseline();
        assert_eq!(c.slack, SlackRange::new(1.25, 5.0));
        assert_eq!(c.shape, GlobalShape::Parallel { m: 4 });
        assert!(c.validate().is_ok());
        assert_eq!(c.global_slack_factor(), 1.0, "PSP slack is unscaled");
    }

    #[test]
    fn serial_slack_factor_equalizes_mean_flexibility() {
        let c = WorkloadConfig::baseline();
        // E[global work] = 4, E[local ex] = 1 → factor 4.
        assert_eq!(c.global_slack_factor(), 4.0);
        // Mean global slack = 1.375·4 = 5.5; mean flexibility ratio
        // (5.5/4) / (1.375/1) = 1 = rel_flex. ✓
        let mean_fl_global = c.slack.mean() * c.global_slack_factor() / 4.0;
        let mean_fl_local = c.slack.mean() / 1.0;
        assert!((mean_fl_global / mean_fl_local - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rel_flex_scales_global_slack() {
        let mut c = WorkloadConfig::baseline();
        c.rel_flex = 2.0;
        assert_eq!(c.global_slack_factor(), 8.0);
    }

    #[test]
    fn validation_rejects_bad_domains() {
        let mut c = WorkloadConfig::baseline();
        c.load = 0.0;
        assert!(c.validate().is_err());
        c = WorkloadConfig::baseline();
        c.load = 1.0;
        assert!(c.validate().is_err());
        c = WorkloadConfig::baseline();
        c.frac_local = 1.5;
        assert!(c.validate().is_err());
        c = WorkloadConfig::baseline();
        c.slack = SlackRange::new(2.0, 1.0);
        assert!(c.validate().is_err());
        c = WorkloadConfig::baseline();
        c.nodes = 0;
        assert!(c.validate().is_err());
        c = WorkloadConfig::baseline();
        c.shape = GlobalShape::Parallel { m: 10 };
        assert_eq!(
            c.validate(),
            Err(ConfigError::FanWiderThanNodes { fan: 10, nodes: 6 })
        );
    }

    #[test]
    fn degenerate_shape_parameters_are_rejected_with_indices() {
        // Regression: zero stage counts/widths used to surface as a
        // divide-by-zero or an empty-task panic deep in the generator
        // instead of an indexed ConfigError at validation time.
        let mut c = WorkloadConfig::baseline();
        c.shape = GlobalShape::Serial { m: 0 };
        assert_eq!(
            c.validate(),
            Err(ConfigError::InvalidEntry {
                what: "shape.serial",
                index: 0,
                constraint: "≥ 1",
                value: 0.0,
            })
        );
        c.shape = GlobalShape::Parallel { m: 0 };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidEntry {
                what: "shape.parallel",
                index: 0,
                ..
            })
        ));
        c.shape = GlobalShape::SerialRandomM { min_m: 0, max_m: 4 };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidEntry {
                what: "shape.serial_random_m",
                index: 0,
                ..
            })
        ));
        c.shape = GlobalShape::SerialRandomM { min_m: 3, max_m: 2 };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidEntry {
                what: "shape.serial_random_m",
                index: 1,
                ..
            })
        ));
        c.shape = GlobalShape::SerialParallel {
            stages: 0,
            branches: 2,
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidEntry {
                what: "shape.serial_parallel",
                index: 0,
                ..
            })
        ));
        c.shape = GlobalShape::SerialParallel {
            stages: 2,
            branches: 0,
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidEntry {
                what: "shape.serial_parallel",
                index: 1,
                ..
            })
        ));
        // The display names the field position.
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("shape.serial_parallel[1]"), "{msg}");
    }

    #[test]
    fn dag_shape_validation() {
        let mut c = WorkloadConfig::baseline();
        c.shape = GlobalShape::Dag {
            depth: 4,
            max_width: 3,
            edge_density: 0.5,
        };
        assert!(c.validate().is_ok());
        // Degenerate knobs, each reported with its field index
        // (0 = depth, 1 = max_width, 2 = edge_density).
        c.shape = GlobalShape::Dag {
            depth: 0,
            max_width: 3,
            edge_density: 0.5,
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidEntry {
                what: "shape.dag",
                index: 0,
                ..
            })
        ));
        c.shape = GlobalShape::Dag {
            depth: 4,
            max_width: 0,
            edge_density: 0.5,
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidEntry {
                what: "shape.dag",
                index: 1,
                ..
            })
        ));
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            c.shape = GlobalShape::Dag {
                depth: 4,
                max_width: 3,
                edge_density: bad,
            };
            assert!(matches!(
                c.validate(),
                Err(ConfigError::InvalidEntry {
                    what: "shape.dag",
                    index: 2,
                    ..
                })
            ));
        }
        // Layers place their subtasks on distinct nodes, so the width is
        // capped by the node count like any parallel fan.
        c.shape = GlobalShape::Dag {
            depth: 2,
            max_width: 7,
            edge_density: 0.5,
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::FanWiderThanNodes { fan: 7, nodes: 6 })
        );
    }

    #[test]
    fn dag_slack_factor_scales_with_depth() {
        let mut c = WorkloadConfig::baseline();
        c.shape = GlobalShape::Dag {
            depth: 5,
            max_width: 3,
            edge_density: 0.3,
        };
        assert_eq!(c.global_slack_factor(), 5.0);
        c.rel_flex = 2.0;
        assert_eq!(c.global_slack_factor(), 10.0);
    }

    #[test]
    fn weights_validation() {
        let mut c = WorkloadConfig::baseline();
        c.local_weights = Some(vec![1.0; 5]);
        assert!(c.validate().is_err(), "wrong length");
        c.local_weights = Some(vec![0.0; 6]);
        assert!(c.validate().is_err(), "zero sum");
        c.local_weights = Some(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0]);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn bad_weight_error_names_the_entry() {
        // Regression: this used to report `value: NaN` with no index,
        // hiding which weight was wrong.
        let mut c = WorkloadConfig::baseline();
        c.local_weights = Some(vec![1.0, 2.0, -3.0, 1.0, 1.0, 1.0]);
        let err = c.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::InvalidEntry {
                what: "local_weights",
                index: 2,
                constraint: "finite and ≥ 0",
                value: -3.0,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("local_weights[2]"), "{msg}");
        assert!(msg.contains("-3"), "{msg}");

        c.local_weights = Some(vec![1.0, f64::NAN, 1.0, 1.0, 1.0, 1.0]);
        match c.validate().unwrap_err() {
            ConfigError::InvalidEntry { index, value, .. } => {
                assert_eq!(index, 1);
                assert!(value.is_nan());
            }
            other => panic!("expected InvalidEntry, got {other:?}"),
        }
    }

    #[test]
    fn speeds_validation() {
        let mut c = WorkloadConfig::baseline();
        c.node_speeds = Some(vec![1.0; 5]);
        assert!(c.validate().is_err(), "wrong length");
        c.node_speeds = Some(vec![1.0, 1.0, 0.0, 1.0, 1.0, 1.0]);
        let err = c.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::InvalidEntry {
                what: "node_speeds",
                index: 2,
                constraint: "finite and > 0",
                value: 0.0,
            }
        );
        assert!(err.to_string().contains("node_speeds[2]"));
        c.node_speeds = Some(vec![0.5, 0.75, 1.0, 1.0, 1.25, 1.5]);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn degenerate_arrival_processes_are_rejected_with_indices() {
        use crate::arrivals::{ArrivalProcess, PhaseSegment};
        // Empty phased script.
        let mut c = WorkloadConfig::baseline();
        c.arrivals = ArrivalProcess::Phased { segments: vec![] };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::OutOfRange { what, .. }) if what.contains("phased")
        ));
        // Zero-duration segment reports its index.
        c.arrivals = ArrivalProcess::Phased {
            segments: vec![PhaseSegment::new(10.0, 1.0), PhaseSegment::new(0.0, 2.0)],
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::InvalidEntry {
                what: "arrival_process.phased duration",
                index: 1,
                constraint: "finite and > 0",
                value: 0.0,
            })
        );
        // Negative rate factor reports its index.
        c.arrivals = ArrivalProcess::Phased {
            segments: vec![PhaseSegment::new(10.0, -0.5)],
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::InvalidEntry {
                what: "arrival_process.phased rate_factor",
                index: 0,
                constraint: "finite and ≥ 0",
                value: -0.5,
            })
        );
        // All-silent script: the cycle mean must be positive.
        c.arrivals = ArrivalProcess::Phased {
            segments: vec![PhaseSegment::new(10.0, 0.0)],
        };
        assert!(c.validate().is_err());
        // MMPP parameter errors carry the documented entry index
        // (0 = burst_ratio, 1 = dwell_quiet, 2 = dwell_burst).
        for (index, arrivals) in [
            (
                0,
                ArrivalProcess::Mmpp2 {
                    burst_ratio: 0.0,
                    dwell_quiet: 10.0,
                    dwell_burst: 10.0,
                },
            ),
            (
                1,
                ArrivalProcess::Mmpp2 {
                    burst_ratio: 2.0,
                    dwell_quiet: -1.0,
                    dwell_burst: 10.0,
                },
            ),
            (
                2,
                ArrivalProcess::Mmpp2 {
                    burst_ratio: 2.0,
                    dwell_quiet: 10.0,
                    dwell_burst: f64::NAN,
                },
            ),
        ] {
            c.arrivals = arrivals;
            match c.validate().unwrap_err() {
                ConfigError::InvalidEntry {
                    what, index: got, ..
                } => {
                    assert_eq!(what, "arrival_process.mmpp2");
                    assert_eq!(got, index);
                }
                other => panic!("expected InvalidEntry, got {other:?}"),
            }
        }
        // The error display names the entry.
        c.arrivals = ArrivalProcess::Mmpp2 {
            burst_ratio: 2.0,
            dwell_quiet: 0.0,
            dwell_burst: 10.0,
        };
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("arrival_process.mmpp2[1]"), "{msg}");
    }

    #[test]
    fn valid_arrival_processes_pass_validation() {
        use crate::arrivals::{ArrivalProcess, PhaseSegment};
        let mut c = WorkloadConfig::baseline();
        assert!(c.arrivals.is_poisson());
        c.arrivals = ArrivalProcess::Mmpp2 {
            burst_ratio: 4.0,
            dwell_quiet: 300.0,
            dwell_burst: 100.0,
        };
        assert!(c.validate().is_ok());
        c.arrivals = ArrivalProcess::Phased {
            segments: vec![PhaseSegment::new(400.0, 1.0), PhaseSegment::new(100.0, 2.0)],
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn error_display() {
        let e = ConfigError::FanWiderThanNodes { fan: 8, nodes: 6 };
        assert!(e.to_string().contains("8"));
        let c = WorkloadConfig {
            load: -1.0,
            ..WorkloadConfig::baseline()
        };
        assert!(c.rates().unwrap_err().to_string().contains("load"));
    }

    #[test]
    fn slack_range_helpers() {
        let s = SlackRange::new(1.0, 3.0);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.scaled(2.0), SlackRange::new(2.0, 6.0));
    }
}
