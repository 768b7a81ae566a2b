//! The live deadline-assignment service: the paper's process manager as
//! a runnable runtime instead of a simulation model.
//!
//! Everything below `crates/system` answers "what would the strategies
//! do?" by simulation; this crate answers "what do they do?" by running
//! the same process-manager logic — arrivals, virtual-deadline
//! assignment through the **unchanged**
//! [`DeadlineAssigner`](sda_core::DeadlineAssigner) strategies,
//! precedence bookkeeping, dispatch — against real worker threads on a
//! real clock.
//!
//! # One process manager, two time sources
//!
//! The service adds no manager logic of its own. Its wall-clock runtime
//! ([`wall`]) runs the simulator's
//! [`ProcessManager`](sda_system::ProcessManager) on a manager thread,
//! with time from a [`WallClock`] — wall time, scaled so one wall-clock
//! second covers a configurable number of simulated time units — and
//! thread-per-node workers that dispatch through the same
//! [`Node::dispatch`](sda_system::Node::dispatch) as the simulator. The
//! logical-clock mode ([`logical`]) *is* the simulator: on the
//! configuration space the live runtime supports, [`run_logical`]
//! validates the configuration and runs [`sda_system::run_once`].
//!
//! # Deadline QoS
//!
//! The [`QosMonitor`] (a field of [`Metrics`](sda_system::Metrics))
//! tracks per-class violation statuses in the style of DDS deadline
//! contracts: requested-vs-observed deadline checks, cumulative and
//! incremental violation counts, and a warm-up-resettable EWMA miss
//! ratio. It is a pure observer — the `ADAPT(base)` control loop keeps
//! reading [`Metrics::feedback`](sda_system::Metrics). A
//! [`DeadlineContract`] pair lets a wall run refuse a deadline budget it
//! cannot offer.
//!
//! [`run_logical`]: logical::run_logical

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod clock;
pub mod logical;
pub mod wall;

pub use clock::WallClock;
pub use sda_system::{QosMonitor, QosReport, ServiceClass, ViolationStatus};
pub use wall::DeadlineContract;

use sda_system::{FailureModel, SystemConfig};
use sda_workload::ConfigError;

/// Rejects the model features the live runtime does not implement: a
/// non-zero network model and failure injection.
fn check_supported(config: &SystemConfig) -> Result<(), ServiceError> {
    if !config.network.is_zero() {
        return Err(ServiceError::Unsupported(
            "non-zero network model (the service dispatches over in-process channels)",
        ));
    }
    if !matches!(config.failure, FailureModel::None) {
        return Err(ServiceError::Unsupported("failure injection"));
    }
    Ok(())
}

/// Why the service refused to run (or aborted a run).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Invalid workload/system configuration.
    Config(ConfigError),
    /// The configuration asks for a model feature the service runtime
    /// does not implement (the message names it). The simulator under
    /// `crates/system` supports the full model; the live runtime covers
    /// the paper's core space — free communication, no failure
    /// injection.
    Unsupported(&'static str),
    /// The deadline budget a worker offers is laxer than the budget the
    /// submitters request — the QoS contract cannot be satisfied (DDS
    /// deadline-compatibility rule: offered must be ≤ requested).
    IncompatibleContract {
        /// The per-task deadline budget the service offers.
        offered: f64,
        /// The per-task deadline budget the submitters request.
        requested: f64,
    },
    /// A runtime parameter is out of range.
    BadParameter {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Config(e) => write!(f, "{e}"),
            ServiceError::Unsupported(what) => {
                write!(f, "unsupported by the live service runtime: {what}")
            }
            ServiceError::IncompatibleContract { offered, requested } => write!(
                f,
                "incompatible deadline contract: offered budget {offered} exceeds \
                 requested budget {requested}"
            ),
            ServiceError::BadParameter { what, value } => {
                write!(f, "bad service parameter: {what} = {value}")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> Self {
        ServiceError::Config(e)
    }
}
