//! Outside-in benchmark of the sda workspace.
//!
//! One command runs one named workload for a given number of seconds,
//! checks its outputs, and prints every end-to-end metric by name with
//! its unit; `--trace 1` instead runs the per-layer probes of
//! [`layers`]. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! The benchmark times only calls into public functions of the
//! workspace crates; everything it measures is reached the way a user
//! reaches it.

#![forbid(unsafe_code)]
// Measuring wall time is this crate's purpose: the repository's clippy
// lists, which keep wall-clock reads out of the simulation, are waived
// here wholesale, as in `sda-bench`.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod check;
pub mod layers;
pub mod metrics;
pub mod span;
pub mod stats;
pub mod workload;

use std::path::PathBuf;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::span::json_number;
use crate::workload::{Params, Workload};

/// A finished run: metric values in registry order, text lines to print
/// before the result line, and the check tallies.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value)` for every metric of the result line.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Tasks whose outputs were checked.
    pub attempted: u64,
    /// Tasks lost, or belonging to a run that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with every metric and its unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = metrics::find(name).map_or("", |m| m.unit);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.is_correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn is_correct(&self) -> bool {
        self.errors.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v)| v.is_finite())
    }
}

fn note(name: &str, value: f64, unit: &str) -> String {
    format!("{name:<34} {value:>16.6} {unit}")
}

/// Runs `workload` untraced for `seconds` and returns every end-to-end
/// metric.
///
/// # Errors
///
/// Returns a one-line message when the workload cannot run.
pub fn run_end_to_end(w: Workload, p: Params, seconds: f64) -> Result<Report, String> {
    let t = workload::run_timed(w, p, seconds)?;
    let mut out = Report {
        metrics: vec![
            ("setup_s", t.setup_s),
            ("tasks_per_s", t.tasks_per_s),
            ("local_miss_pct", t.local_miss_pct),
            ("global_miss_pct", t.global_miss_pct),
            ("peak_rss_mb", t.peak_rss_mb),
        ],
        attempted: t.attempted,
        failed: t.failed,
        errors: t.errors,
        notes: Vec::new(),
    };
    debug_assert!(out
        .metrics
        .iter()
        .map(|m| m.0)
        .eq(END_TO_END.iter().map(|m| m.name)));
    for (name, value) in &out.metrics {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        out.notes.push(note(name, *value, unit));
    }
    if let Some(drain) = t.drain_s {
        out.notes.push(note("drain_s", drain, "s"));
    }
    if let (Some(first), Some(last)) = (t.rep_peak_mb.first(), t.rep_peak_mb.last()) {
        let most = t.rep_peak_mb.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        out.notes.push(format!(
            "peak_rss_mb by repetition: first {first:.3}, last {last:.3}, largest {most:.3} MB"
        ));
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.notes.push(note("failed_frac", failed_frac, "ratio"));
    for (name, value) in &t.diagnostics {
        out.notes
            .push(note(&format!("diagnostic.{name}"), *value, "sim_units"));
    }
    let mut secs = t.rep_secs.clone();
    let (q1, q3) = stats::quartiles(&secs).unwrap_or((f64::NAN, f64::NAN));
    out.notes.push(format!(
        "{} timed repetitions: median {:.4} s, quartiles {q1:.4}–{q3:.4} s",
        secs.len(),
        stats::median(&mut secs)
    ));
    Ok(out)
}

/// Runs the per-layer probes of `workload` and writes their spans to
/// `trace_path(workload, seed)`.
///
/// # Errors
///
/// Returns a one-line message when a probe cannot run or the span file
/// cannot be written.
pub fn run_per_layer(w: Workload, p: Params) -> Result<Report, String> {
    let t = layers::run_traced_probes(w, p)?;
    let mut out = Report {
        metrics: Vec::new(),
        notes: Vec::new(),
        attempted: t.attempted,
        failed: t.failed,
        errors: t.errors,
    };
    // Result-line order is the registry's.
    for m in &PER_LAYER {
        match t.metrics.iter().find(|(name, _)| *name == m.name) {
            Some(&(name, value)) => out.metrics.push((name, value)),
            None => out
                .errors
                .push(format!("per-layer metric {} was not measured", m.name)),
        }
    }
    for (name, value) in &out.metrics {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        out.notes.push(note(name, *value, unit));
    }
    for (name, value) in &t.extra {
        out.notes.push(note(name, *value, ""));
    }
    let mut summary: Vec<(String, f64)> = out
        .metrics
        .iter()
        .map(|(n, v)| (n.to_string(), *v))
        .collect();
    summary.extend(t.extra.iter().cloned());
    let path = trace_path(w, p.seed);
    t.spans
        .write_jsonl(&path, &summary)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.notes.push(format!(
        "{} spans written to {}",
        t.spans.spans().len(),
        path.display()
    ));
    Ok(out)
}

/// Where a traced run writes its spans: `out/` beside this package's
/// manifest.
pub fn trace_path(w: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{seed}.jsonl", w.name()))
}
