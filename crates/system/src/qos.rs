//! Deadline-QoS monitoring in the style of DDS deadline contracts:
//! requested-vs-observed deadline checks, per-class violation statuses,
//! and a warm-up-resettable EWMA miss ratio.
//!
//! The monitor is a field of [`Metrics`](crate::Metrics), fed by the
//! [`ProcessManager`](crate::ProcessManager) at every site that records
//! a class's miss, so every engine — serial, sharded and the live
//! service — reports the same violation statuses. It is a pure
//! *observer*: it never feeds back into deadline assignment. The
//! `ADAPT(base)` control loop keeps reading [`Feedback`] — which, being
//! control state, survives warm-up resets — while the monitor's EWMA is
//! a *statistic* and restarts at warm-up like every other measurement.

use serde::{Deserialize, Serialize};

use crate::metrics::Feedback;

/// A task class the monitor keeps a violation status for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceClass {
    /// Local tasks (per-node streams).
    Local,
    /// Global tasks, judged against their end-to-end deadline.
    Global,
    /// Global subtasks, judged against their assigned *virtual*
    /// deadline.
    SubtaskVirtual,
}

/// The violation status of one class: how often observed completions
/// broke their requested deadline.
///
/// Mirrors the DDS `DeadlineMissedStatus` shape: a cumulative count, an
/// incremental count since the last read, and the time of the most
/// recent violation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ViolationStatus {
    /// Violations observed since the last statistics reset.
    pub total_count: u64,
    /// Violations observed since the last [`QosMonitor::take_status`]
    /// read.
    pub count_change: u64,
    /// When the most recent violation was observed (simulated time
    /// units), `None` if none has been.
    pub last_violation: Option<f64>,
}

/// Per-class state: the violation status plus the EWMA miss estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct ClassQos {
    status: ViolationStatus,
    ewma: f64,
    observations: u64,
}

impl ClassQos {
    fn new() -> ClassQos {
        ClassQos {
            status: ViolationStatus::default(),
            ewma: 0.0,
            observations: 0,
        }
    }

    fn observe(&mut self, alpha: f64, violated: bool, now: f64) {
        if violated {
            self.status.total_count += 1;
            self.status.count_change += 1;
            self.status.last_violation = Some(now);
        }
        let x = if violated { 1.0 } else { 0.0 };
        self.ewma += alpha * (x - self.ewma);
        self.observations += 1;
    }
}

/// A read-only summary of the monitor, for reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosReport {
    /// Local-task violation status.
    pub local: ViolationStatus,
    /// Global-task (end-to-end) violation status.
    pub global: ViolationStatus,
    /// Subtask virtual-deadline violation status.
    pub subtask_virtual: ViolationStatus,
    /// EWMA miss ratio over local completions.
    pub local_miss_ewma: f64,
    /// EWMA miss ratio over global completions.
    pub global_miss_ewma: f64,
}

/// Tracks requested-vs-observed deadline outcomes per class.
///
/// Each terminal task event is offered to the monitor with its
/// requested (absolute) deadline already compared against the observed
/// completion time; the monitor folds the boolean into the class's
/// [`ViolationStatus`] and EWMA.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosMonitor {
    alpha: f64,
    local: ClassQos,
    global: ClassQos,
    subtask: ClassQos,
}

impl QosMonitor {
    /// A monitor with the default EWMA window (the same smoothing
    /// factor the `ADAPT` feedback estimator uses, ≈ 50 completions).
    pub fn new() -> QosMonitor {
        QosMonitor::with_alpha(Feedback::DEFAULT_ALPHA)
    }

    /// A monitor with an explicit smoothing factor in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or not finite.
    pub fn with_alpha(alpha: f64) -> QosMonitor {
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "qos alpha must be in (0, 1], got {alpha}"
        );
        QosMonitor {
            alpha,
            local: ClassQos::new(),
            global: ClassQos::new(),
            subtask: ClassQos::new(),
        }
    }

    fn class_mut(&mut self, class: ServiceClass) -> &mut ClassQos {
        match class {
            ServiceClass::Local => &mut self.local,
            ServiceClass::Global => &mut self.global,
            ServiceClass::SubtaskVirtual => &mut self.subtask,
        }
    }

    fn class(&self, class: ServiceClass) -> &ClassQos {
        match class {
            ServiceClass::Local => &self.local,
            ServiceClass::Global => &self.global,
            ServiceClass::SubtaskVirtual => &self.subtask,
        }
    }

    /// Folds one terminal event into `class`: `violated` is the
    /// requested-vs-observed comparison (`observed completion >
    /// requested deadline`), `now` the observation time.
    pub fn observe(&mut self, class: ServiceClass, violated: bool, now: f64) {
        let alpha = self.alpha;
        self.class_mut(class).observe(alpha, violated, now);
    }

    /// The current violation status of `class` (without consuming the
    /// incremental count).
    pub fn status(&self, class: ServiceClass) -> ViolationStatus {
        self.class(class).status
    }

    /// Reads and consumes the status of `class`: returns the current
    /// snapshot and zeroes `count_change`, DDS-read style, so the next
    /// read reports only new violations.
    pub fn take_status(&mut self, class: ServiceClass) -> ViolationStatus {
        let status = &mut self.class_mut(class).status;
        let snapshot = *status;
        status.count_change = 0;
        snapshot
    }

    /// The EWMA miss ratio of `class` (0 before any observation).
    pub fn miss_ewma(&self, class: ServiceClass) -> f64 {
        self.class(class).ewma
    }

    /// Terminal events folded into `class` since the last reset.
    pub fn observations(&self, class: ServiceClass) -> u64 {
        self.class(class).observations
    }

    /// Warm-up deletion: every statistic restarts — counts, change
    /// counts, last-violation stamps *and* the EWMA. (Contrast with
    /// [`Feedback`], whose EWMA is control state and survives the
    /// warm-up boundary.)
    pub fn reset_statistics(&mut self) {
        self.local = ClassQos::new();
        self.global = ClassQos::new();
        self.subtask = ClassQos::new();
    }

    /// A read-only summary for reports.
    pub fn report(&self) -> QosReport {
        QosReport {
            local: self.local.status,
            global: self.global.status,
            subtask_virtual: self.subtask.status,
            local_miss_ewma: self.local.ewma,
            global_miss_ewma: self.global.ewma,
        }
    }
}

impl Default for QosMonitor {
    fn default() -> Self {
        QosMonitor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_status_transitions_track_counts_and_stamp() {
        let mut q = QosMonitor::new();
        let c = ServiceClass::Local;
        assert_eq!(q.status(c), ViolationStatus::default());

        q.observe(c, false, 1.0);
        assert_eq!(q.status(c).total_count, 0);
        assert_eq!(q.status(c).last_violation, None);

        q.observe(c, true, 2.0);
        q.observe(c, true, 3.5);
        let s = q.status(c);
        assert_eq!(s.total_count, 2);
        assert_eq!(s.count_change, 2);
        assert_eq!(s.last_violation, Some(3.5));
        assert_eq!(q.observations(c), 3);
    }

    #[test]
    fn take_status_consumes_the_incremental_count_only() {
        let mut q = QosMonitor::new();
        let c = ServiceClass::Global;
        q.observe(c, true, 1.0);
        let first = q.take_status(c);
        assert_eq!(first.total_count, 1);
        assert_eq!(first.count_change, 1);

        // Nothing new: total persists, change is consumed.
        let second = q.take_status(c);
        assert_eq!(second.total_count, 1);
        assert_eq!(second.count_change, 0);
        assert_eq!(second.last_violation, Some(1.0));

        q.observe(c, true, 4.0);
        let third = q.take_status(c);
        assert_eq!(third.total_count, 2);
        assert_eq!(third.count_change, 1);
        assert_eq!(third.last_violation, Some(4.0));
    }

    #[test]
    fn ewma_matches_the_feedback_recurrence() {
        let mut q = QosMonitor::with_alpha(0.5);
        let c = ServiceClass::Local;
        q.observe(c, true, 1.0);
        assert!((q.miss_ewma(c) - 0.5).abs() < 1e-15);
        q.observe(c, true, 2.0);
        assert!((q.miss_ewma(c) - 0.75).abs() < 1e-15);
        q.observe(c, false, 3.0);
        assert!((q.miss_ewma(c) - 0.375).abs() < 1e-15);
    }

    #[test]
    fn warmup_reset_clears_every_statistic_including_the_ewma() {
        let mut q = QosMonitor::new();
        for class in [
            ServiceClass::Local,
            ServiceClass::Global,
            ServiceClass::SubtaskVirtual,
        ] {
            q.observe(class, true, 1.0);
        }
        assert!(q.miss_ewma(ServiceClass::Local) > 0.0);

        q.reset_statistics();
        for class in [
            ServiceClass::Local,
            ServiceClass::Global,
            ServiceClass::SubtaskVirtual,
        ] {
            assert_eq!(q.status(class), ViolationStatus::default());
            assert_eq!(q.miss_ewma(class), 0.0);
            assert_eq!(q.observations(class), 0);
        }
    }

    #[test]
    fn reset_contrast_feedback_ewma_survives_where_qos_ewma_does_not() {
        // The design invariant the warm-up boundary relies on: the
        // ADAPT control signal persists, the QoS statistic restarts.
        let mut metrics = crate::Metrics::new();
        let mut qos = QosMonitor::new();
        for _ in 0..10 {
            metrics.feedback.observe(true);
            qos.observe(ServiceClass::Global, true, 1.0);
        }
        let pressure_before = metrics.feedback.pressure();
        metrics.reset();
        qos.reset_statistics();
        assert_eq!(metrics.feedback.pressure(), pressure_before);
        assert_eq!(qos.miss_ewma(ServiceClass::Global), 0.0);
    }
}
