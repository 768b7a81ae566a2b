//! The logical-clock service mode: the live process manager driven
//! deterministically, event for event.
//!
//! The wall runtime's manager thread and the simulator drive the same
//! [`ProcessManager`](sda_system::ProcessManager), so the deterministic
//! mode of the service *is* the simulator: [`run_logical`] checks that
//! the configuration is one the live runtime supports and runs
//! [`run_once`] on it.

use sda_system::{run_once, RunConfig, RunResult, SystemConfig};

use crate::ServiceError;

/// What a logical-clock service run produces: the simulator's result.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Metrics, per-node statistics, end time and event count — the
    /// simulator's [`RunResult`].
    pub result: RunResult,
}

/// Runs the deadline-assignment service on the logical clock:
/// deterministic, single-threaded, restricted to the configuration
/// space the live runtime supports.
///
/// # Errors
///
/// Returns [`ServiceError::Config`] for invalid workload parameters and
/// [`ServiceError::Unsupported`] when the configuration requires model
/// features the live runtime does not implement: a non-zero
/// [`NetworkModel`](sda_system::NetworkModel), failure injection, or
/// order fuzzing.
pub fn run_logical(config: &SystemConfig, run: &RunConfig) -> Result<ServiceReport, ServiceError> {
    crate::check_supported(config)?;
    if run.order_fuzz != 0 {
        return Err(ServiceError::Unsupported("order fuzzing"));
    }
    Ok(ServiceReport {
        result: run_once(config, run)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_core::SdaStrategy;
    use sda_system::NetworkModel;

    #[test]
    fn rejects_unsupported_configurations() {
        let run = RunConfig::quick(1);
        let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        cfg.network = NetworkModel::Constant { delay: 0.5 };
        assert!(matches!(
            run_logical(&cfg, &run),
            Err(ServiceError::Unsupported(_))
        ));

        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let mut fuzzed = run;
        fuzzed.order_fuzz = 7;
        assert!(matches!(
            run_logical(&cfg, &fuzzed),
            Err(ServiceError::Unsupported(_))
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
        let run = RunConfig::quick(42);
        let a = run_logical(&cfg, &run).unwrap();
        let b = run_logical(&cfg, &run).unwrap();
        assert_eq!(a, b);
        let other = run_logical(&cfg, &RunConfig::quick(43)).unwrap();
        assert_ne!(a.result.metrics, other.result.metrics);
    }
}
