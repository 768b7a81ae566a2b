//! The live service's logical-clock mode against the simulator: on any
//! config the service supports (free communication, no failure
//! injection, no order fuzz), `run_logical` must be **bit-equivalent**
//! to [`run_once`] — same completions, same miss counts, same
//! utilizations, same event count.
//!
//! This is the contract that makes the simulator the service's
//! deterministic test double: anything validated against the paper in
//! the simulator is thereby validated for the live runtime's decision
//! logic.

use sda::core::{AdaptiveSlack, SdaStrategy};
use sda::service::logical::run_logical;
use sda::service::wall::{run_wall, WallRunConfig};
use sda::system::{run_once, OverloadPolicy, RunConfig, SystemConfig};

fn quick(seed: u64) -> RunConfig {
    RunConfig::quick(seed)
}

/// Asserts bit-equivalence of the full [`RunResult`] (metrics including
/// every tally moment, per-node utilization and queue lengths, end
/// time, event count) between the service and the simulator.
fn assert_equivalent(cfg: &SystemConfig, run: &RunConfig) {
    let sim = run_once(cfg, run).expect("simulator run");
    let svc = run_logical(cfg, run).expect("service run");
    assert_eq!(
        svc.result, sim,
        "logical-clock service must be bit-equal to the simulator"
    );
}

#[test]
fn pipeline_baseline_matches_simulator_bit_for_bit() {
    // The §6 combined (pipeline-of-fans) baseline — the richest task
    // shape: stages, parallel groups, precedence waves.
    let cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_ud());
    assert_equivalent(&cfg, &quick(0x5E41));
}

#[test]
fn serial_and_parallel_baselines_match_across_strategies() {
    for strategy in [
        SdaStrategy::ud_ud(),
        SdaStrategy::eqf_ud(),
        SdaStrategy::ud_div1(),
        SdaStrategy::eqf_div1(),
    ] {
        assert_equivalent(&SystemConfig::ssp_baseline(strategy), &quick(0xA5A5));
        assert_equivalent(&SystemConfig::psp_baseline(strategy), &quick(0xA5A5));
    }
}

#[test]
fn abort_tardy_and_adaptive_slack_match_simulator() {
    // Exercise the overload-policy discard path and the ADAPT feedback
    // loop — the two places where metric-update ordering is subtlest.
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::adaptive(
        SdaStrategy::eqf_ud(),
        AdaptiveSlack::default(),
    ));
    cfg.overload = OverloadPolicy::AbortTardy;
    assert_equivalent(&cfg, &quick(0xBEEF));
}

#[test]
fn preemptive_priority_matches_simulator() {
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
    cfg.preemptive = true;
    assert_equivalent(&cfg, &quick(0x9E));
}

#[test]
fn wall_clock_service_drains_without_losing_tasks() {
    // A short real-time run at high time compression: every submitted
    // task must reach a terminal state before shutdown (satellite 3's
    // graceful-drain guarantee).
    let cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_ud());
    let run = RunConfig {
        warmup: 0.0,
        duration: 200.0,
        seed: 0xD12A,
        order_fuzz: 0,
    };
    let wall = WallRunConfig {
        max_globals: 50,
        ..WallRunConfig::new(&run, 2_000.0)
    };
    let report = run_wall(&cfg, &wall).expect("wall run");
    assert!(report.submitted_globals > 0, "traffic must actually flow");
    assert!(
        report.drained_clean(),
        "graceful shutdown lost {} task(s): {report:?}",
        report.lost_tasks()
    );
}
