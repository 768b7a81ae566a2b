//! Output metrics: the paper's missed-deadline ratios plus richer
//! distributions.

use serde::{Deserialize, Serialize};

use sda_sim::stats::{P2Quantile, Ratio, Tally};

/// Per-class statistics (one for locals, one for globals).
///
/// # Aborted-task semantics
///
/// A task killed by the firm-deadline policy reaches a terminal state
/// without ever *completing*, so it contributes to exactly one family of
/// statistics: [`ClassMetrics::record_aborted`] counts it in the
/// missed-deadline ratio (an abort is always a miss) and in
/// [`ClassMetrics::completed`] (terminal states), but it adds **no
/// observation** to the response/tardiness/lateness tallies or the
/// percentile estimators — there is no completion time to measure.
/// Under `OverloadPolicy::AbortTardy` the distribution statistics are
/// therefore *conditional on completion* (and biased low relative to a
/// hypothetical run-to-completion): compare
/// [`miss_ratio`](ClassMetrics::miss_ratio) across policies, not
/// `tardiness_p99`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassMetrics {
    miss: Ratio,
    response: Tally,
    tardiness: Tally,
    lateness: Tally,
    response_p95: P2Quantile,
    tardiness_p99: P2Quantile,
}

impl Default for ClassMetrics {
    fn default() -> Self {
        ClassMetrics {
            miss: Ratio::new(),
            response: Tally::new(),
            tardiness: Tally::new(),
            lateness: Tally::new(),
            response_p95: P2Quantile::new(0.95).expect("0.95 is a valid quantile"),
            tardiness_p99: P2Quantile::new(0.99).expect("0.99 is a valid quantile"),
        }
    }
}

impl ClassMetrics {
    /// Records a completed task of this class.
    pub fn record(&mut self, arrival: f64, deadline: f64, completion: f64) {
        let missed = completion > deadline;
        self.miss.record(missed);
        self.response.add(completion - arrival);
        self.lateness.add(completion - deadline);
        self.tardiness.add((completion - deadline).max(0.0));
        self.response_p95.add(completion - arrival);
        self.tardiness_p99.add((completion - deadline).max(0.0));
    }

    /// Records a task discarded by the firm-deadline policy — counts as a
    /// miss with **no** response/tardiness/percentile observation (see
    /// the type-level docs for the exact semantics).
    pub fn record_aborted(&mut self) {
        self.miss.record(true);
    }

    /// The missed-deadline ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        self.miss.fraction()
    }

    /// The missed-deadline percentage — the paper's `MD` measure.
    pub fn miss_percent(&self) -> f64 {
        self.miss.percent()
    }

    /// Number of tasks that reached a terminal state (completed or
    /// aborted).
    pub fn completed(&self) -> u64 {
        self.miss.denominator()
    }

    /// Number of missed deadlines.
    pub fn missed(&self) -> u64 {
        self.miss.numerator()
    }

    /// Response time statistics (completion − arrival).
    pub fn response(&self) -> &Tally {
        &self.response
    }

    /// Tardiness statistics (`max(0, completion − deadline)`).
    pub fn tardiness(&self) -> &Tally {
        &self.tardiness
    }

    /// Lateness statistics (`completion − deadline`, negative = early).
    pub fn lateness(&self) -> &Tally {
        &self.lateness
    }

    /// Streaming estimate of the 95th-percentile response time.
    pub fn response_p95(&self) -> Option<f64> {
        self.response_p95.estimate()
    }

    /// Streaming estimate of the 99th-percentile tardiness.
    pub fn tardiness_p99(&self) -> Option<f64> {
        self.tardiness_p99.estimate()
    }

    /// Discards all observations (warm-up deletion).
    pub fn reset(&mut self) {
        *self = ClassMetrics::default();
    }
}

/// The windowed miss-ratio estimator feeding the `ADAPT(base)` strategy
/// wrapper (see [`AdaptiveSlack`](sda_core::AdaptiveSlack)).
///
/// An exponentially weighted moving average of the per-completion miss
/// indicator, updated on every terminal task event — local completions
/// and discards, global finishes and aborts — so it tracks *system-wide*
/// deadline pressure. Each update is O(1) with no allocation, making the
/// estimator safe in the allocation-free steady-state loop.
///
/// The smoothing factor `alpha` sets the effective window: weight decays
/// by `1 − alpha` per observation, so `alpha = 0.02` averages roughly
/// the last 50 completions — long enough to debounce individual misses,
/// short enough to react to an MMPP burst within a fraction of a dwell.
///
/// Unlike the statistics around it, the feedback EWMA is a *control*
/// signal, not a measurement: [`Metrics::reset`] (warm-up deletion)
/// deliberately preserves it so the control loop does not discontinue at
/// the warm-up boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Feedback {
    alpha: f64,
    ewma: f64,
    observations: u64,
}

impl Feedback {
    /// The default smoothing factor (≈ 50-completion window).
    pub const DEFAULT_ALPHA: f64 = 0.02;

    /// An estimator with the given smoothing factor in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or not finite.
    pub fn with_alpha(alpha: f64) -> Feedback {
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "feedback alpha must be in (0, 1], got {alpha}"
        );
        Feedback {
            alpha,
            ewma: 0.0,
            observations: 0,
        }
    }

    /// Folds one terminal task event into the estimate. O(1), no
    /// allocation.
    #[inline]
    pub fn observe(&mut self, missed: bool) {
        let x = if missed { 1.0 } else { 0.0 };
        self.ewma += self.alpha * (x - self.ewma);
        self.observations += 1;
    }

    /// The current miss pressure in `[0, 1]` (0 before any observation —
    /// a fresh system is presumed calm, so `ADAPT` starts at the
    /// open-loop semantics).
    #[inline]
    pub fn pressure(&self) -> f64 {
        self.ewma
    }

    /// How many terminal events have been folded in.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

impl Default for Feedback {
    fn default() -> Self {
        Feedback::with_alpha(Feedback::DEFAULT_ALPHA)
    }
}

/// All simulation output: per-class metrics, subtask-level virtual
/// deadline accounting, network transit times and abort counts.
///
/// Aborted tasks (firm-deadline policy) are terminal-but-not-completed:
/// they count in `local`/`global` miss ratios and in the `aborted_*`
/// counters, while the response/tardiness distributions deliberately
/// exclude them — see [`ClassMetrics`] for the full semantics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Statistics over local tasks.
    pub local: ClassMetrics,
    /// Statistics over global tasks (end-to-end).
    pub global: ClassMetrics,
    /// Virtual-deadline misses at the *subtask* level: how often an
    /// individual global subtask finished after its assigned virtual
    /// deadline. Not a paper figure, but explains the end-to-end numbers.
    pub subtask_virtual_miss: Ratio,
    /// Sampled transit time of every networked hand-off (initial
    /// fan-out, inter-stage forwarding, result return). Empty under
    /// `NetworkModel::Zero`, where hand-offs are delivered inline.
    pub transit: Tally,
    /// Global tasks aborted by the firm-deadline policy.
    pub aborted_globals: u64,
    /// Local tasks discarded by the firm-deadline policy.
    pub aborted_locals: u64,
    /// Local tasks destroyed by a node crash (queued or in service when
    /// the node went down, or delivered to a down node). Each one is
    /// terminal: it counts as a miss via `record_aborted` — never in the
    /// response/tardiness distributions — and exactly once here.
    pub lost_locals: u64,
    /// Global *subtask* copies destroyed by a node crash. Unlike lost
    /// locals these are not terminal — the process manager re-dispatches
    /// each one (see `redispatches`) until the retry budget runs out.
    pub lost_subtasks: u64,
    /// Replacement submissions issued for lost subtasks (≤
    /// `lost_subtasks`; smaller when the retry budget abandons a task).
    pub redispatches: u64,
    /// Global tasks abandoned because a lost subtask exhausted its
    /// re-dispatch budget. Terminal like an abort: a miss, no response
    /// observation.
    pub abandoned_globals: u64,
    /// The windowed miss-ratio estimator driving `ADAPT(base)`
    /// strategies. Always maintained (it is O(1) per completion and
    /// perturbs nothing when unused); **preserved across
    /// [`Metrics::reset`]** because it is control state, not a
    /// statistic.
    pub feedback: Feedback,
}

impl Metrics {
    /// Fresh, empty metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Discards all observations (called at the end of warm-up). The
    /// [`feedback`](Metrics::feedback) control state survives so an
    /// adaptive strategy's loop does not jump at the warm-up boundary.
    pub fn reset(&mut self) {
        *self = Metrics {
            feedback: self.feedback,
            ..Metrics::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_metrics_records_misses_and_response() {
        let mut m = ClassMetrics::default();
        m.record(0.0, 10.0, 8.0); // met
        m.record(0.0, 10.0, 12.0); // missed
        assert_eq!(m.completed(), 2);
        assert_eq!(m.missed(), 1);
        assert_eq!(m.miss_percent(), 50.0);
        assert_eq!(m.response().mean(), 10.0);
        assert_eq!(m.tardiness().mean(), 1.0);
        assert_eq!(m.lateness().mean(), 0.0);
    }

    #[test]
    fn deadline_boundary_is_a_met_deadline() {
        let mut m = ClassMetrics::default();
        m.record(0.0, 10.0, 10.0);
        assert_eq!(m.missed(), 0);
    }

    #[test]
    fn aborted_counts_as_miss_without_response() {
        let mut m = ClassMetrics::default();
        m.record_aborted();
        assert_eq!(m.completed(), 1);
        assert_eq!(m.missed(), 1);
        assert_eq!(m.response().count(), 0);
    }

    #[test]
    fn aborts_pin_miss_and_percentile_accounting() {
        // Regression for the documented semantics: aborts move the miss
        // ratio but leave every distribution statistic untouched.
        let mut m = ClassMetrics::default();
        for i in 0..100 {
            m.record(0.0, 10.0, 5.0 + f64::from(i % 10)); // 4 of 10 miss
        }
        let (p95_before, t99_before) = (m.response_p95(), m.tardiness_p99());
        let (resp_n, tard_mean) = (m.response().count(), m.tardiness().mean());
        let miss_before = m.miss_ratio();
        for _ in 0..50 {
            m.record_aborted();
        }
        assert_eq!(m.completed(), 150);
        assert_eq!(m.missed(), 40 + 50);
        assert!(m.miss_ratio() > miss_before);
        // Distribution statistics are conditional on completion: the 50
        // aborts added no observation anywhere.
        assert_eq!(m.response().count(), resp_n);
        assert_eq!(m.tardiness().mean(), tard_mean);
        assert_eq!(m.response_p95(), p95_before);
        assert_eq!(m.tardiness_p99(), t99_before);
    }

    #[test]
    fn tail_quantiles_track_response_and_tardiness() {
        let mut m = ClassMetrics::default();
        for i in 0..1_000 {
            let completion = 1.0 + f64::from(i % 100) / 100.0;
            m.record(0.0, 1.5, completion);
        }
        let p95 = m.response_p95().unwrap();
        assert!((1.90..2.0).contains(&p95), "P95 response {p95}");
        let p99 = m.tardiness_p99().unwrap();
        assert!((0.40..0.50).contains(&p99), "P99 tardiness {p99}");
    }

    #[test]
    fn reset_clears_everything_but_the_feedback_control_state() {
        let mut m = Metrics::new();
        m.local.record(0.0, 1.0, 2.0);
        m.subtask_virtual_miss.record(true);
        m.aborted_globals = 3;
        m.feedback.observe(true);
        let pressure = m.feedback.pressure();
        assert!(pressure > 0.0);
        m.reset();
        assert_eq!(m.local.completed(), 0);
        assert_eq!(m.subtask_virtual_miss.denominator(), 0);
        assert_eq!(m.aborted_globals, 0);
        // The control signal survives warm-up deletion.
        assert_eq!(m.feedback.pressure(), pressure);
        assert_eq!(m.feedback.observations(), 1);
    }

    #[test]
    fn feedback_ewma_tracks_miss_runs() {
        let mut f = Feedback::default();
        assert_eq!(f.pressure(), 0.0, "fresh estimator is calm");
        for _ in 0..500 {
            f.observe(true);
        }
        assert!(
            f.pressure() > 0.99,
            "sustained misses saturate: {}",
            f.pressure()
        );
        for _ in 0..500 {
            f.observe(false);
        }
        assert!(
            f.pressure() < 0.01,
            "sustained hits decay: {}",
            f.pressure()
        );
        assert_eq!(f.observations(), 1000);
        // Pressure always stays a ratio.
        let mut g = Feedback::with_alpha(1.0);
        g.observe(true);
        assert_eq!(g.pressure(), 1.0);
        g.observe(false);
        assert_eq!(g.pressure(), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn feedback_rejects_bad_alpha() {
        let _ = Feedback::with_alpha(0.0);
    }
}
