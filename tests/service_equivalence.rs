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
use sda::service::{DeadlineContract, ServiceClass, ServiceError};
use sda::system::{
    run_once, run_once_sharded, FailureModel, Metrics, NetworkModel, OverloadPolicy, RunConfig,
    SystemConfig,
};

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
fn qos_monitor_totals_agree_with_simulator_metrics() {
    let cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_ud());
    let run = quick(0x51);
    let sim = run_once(&cfg, &run).unwrap();
    let svc = run_logical(&cfg, &run).unwrap();
    assert_eq!(svc.qos.local.total_count, sim.metrics.local.missed());
    assert_eq!(svc.qos.global.total_count, sim.metrics.global.missed());
    assert_eq!(
        svc.qos.subtask_virtual.total_count,
        sim.metrics.subtask_virtual_miss.numerator()
    );

    // The simulator keeps the same monitor, in both engines, and also
    // where the service cannot go: a network and crashing nodes add the
    // lost-local and abandoned-global miss paths.
    let assert_totals = |m: &Metrics, engine: &str| {
        let qos = m.qos.report();
        assert_eq!(qos.local.total_count, m.local.missed(), "{engine}: local");
        assert_eq!(
            qos.global.total_count,
            m.global.missed(),
            "{engine}: global"
        );
        assert_eq!(
            qos.subtask_virtual.total_count,
            m.subtask_virtual_miss.numerator(),
            "{engine}: subtask"
        );
    };
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_ud());
    cfg.network = NetworkModel::Constant { delay: 0.5 };
    cfg.failure = FailureModel::Exponential {
        mttf: 400.0,
        mttr: 60.0,
    };
    let serial = run_once(&cfg, &run).unwrap();
    assert!(
        serial.metrics.lost_locals > 0 && serial.metrics.qos.report().global.total_count > 0,
        "churn must produce misses for the totals to bite"
    );
    assert_totals(&serial.metrics, "serial");
    assert_totals(&run_once_sharded(&cfg, &run, 2).unwrap().metrics, "sharded");
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
    let _ = ServiceClass::Local; // classes are part of the public surface
}

#[test]
fn wall_clock_service_rejects_incompatible_deadline_contracts() {
    let cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
    let run = RunConfig {
        warmup: 0.0,
        duration: 50.0,
        seed: 1,
        order_fuzz: 0,
    };
    let mut wall = WallRunConfig::new(&run, 1_000.0);
    wall.offered = Some(DeadlineContract::new(40.0).unwrap());
    wall.requested = Some(DeadlineContract::new(25.0).unwrap());
    match run_wall(&cfg, &wall) {
        Err(ServiceError::IncompatibleContract { offered, requested }) => {
            assert_eq!(offered, 40.0);
            assert_eq!(requested, 25.0);
        }
        other => panic!("expected contract rejection, got {other:?}"),
    }
}
