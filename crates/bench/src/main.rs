//! `sda-bench` — the machine-readable hot-path benchmark runner.
//!
//! It times the hot-path scenarios end to end, **interleaves** the
//! samples of every scenario round-robin (so thermal drift and
//! background noise spread evenly instead of biasing whichever variant
//! runs last — the classic A/B mistake), keeps the **best** sample per
//! scenario (minimum wall time ≈ least-perturbed run) and writes
//! `BENCH_hot_path.json` for CHANGES.md bookkeeping and cross-PR
//! comparison.
//!
//! The scenario list covers the serial engine's four classic regimes
//! plus a shard-count sweep of the conservative-parallel engine on a
//! 96-node heterogeneous system under a constant-delay network (positive
//! lookahead, so the shards genuinely run concurrently). Every variant
//! of the sweep produces bit-identical metrics — only wall time may
//! differ — so the comparison is pure engine overhead vs. parallelism.
//! `host_cores` is recorded alongside the numbers: on a single-core
//! host the sharded variants *cannot* win (same work plus barrier and
//! merge overhead, no parallel hardware), and the JSON says so instead
//! of hiding it.
//!
//! Usage: `cargo run --release -p sda-bench [-- --samples N --out PATH]`
//!
//! The output file is created before the first sample, so a bad `--out`
//! fails at once. Either that or a failed run ends the process with one
//! `error: …` line on stderr and exit status 1.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Measuring wall time is this binary's purpose; the sda-lint allows
// below mark the individual reads. Clippy's disallowed lists (the
// native mirror of the same rules) are waived here wholesale.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

// sda-lint: allow(banned-api, reason = "wall time is the measurement this harness exists to take")
use std::time::Instant;
use std::{fs::File, io::Write};

use sda_core::SdaStrategy;
use sda_experiments::ext::network::speed_ramp;
use sda_system::{run_once_sharded, NetworkModel, RunConfig, SystemConfig};
use sda_workload::{GlobalShape, SlackRange};

struct Scenario {
    name: &'static str,
    cfg: SystemConfig,
    run: RunConfig,
    shards: usize,
}

struct Sample {
    best_secs: f64,
    events: u64,
}

fn hot_run() -> RunConfig {
    RunConfig {
        warmup: 200.0,
        duration: 8_000.0,
        seed: 0x0907,
        order_fuzz: 0,
    }
}

fn high_load_config(preemptive: bool) -> SystemConfig {
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_ud());
    cfg.workload.load = 0.9;
    cfg.preemptive = preemptive;
    cfg
}

fn arrival_heavy_config() -> SystemConfig {
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
    cfg.workload.load = 0.95;
    cfg.workload.frac_local = 0.25;
    cfg.workload.slack = SlackRange::PSP_BASELINE;
    cfg.workload.shape = GlobalShape::SerialParallel {
        stages: 4,
        branches: 3,
    };
    cfg
}

fn dag_heavy_config() -> SystemConfig {
    let mut cfg = SystemConfig::ssp_baseline(SdaStrategy::eqf_div1());
    cfg.workload.load = 0.95;
    cfg.workload.frac_local = 0.25;
    cfg.workload.slack = SlackRange::PSP_BASELINE;
    cfg.workload.shape = GlobalShape::Dag {
        depth: 4,
        max_width: 3,
        edge_density: 0.4,
    };
    cfg
}

/// The sharded engine's showcase: 96 heterogeneous nodes (linear speed
/// ramp, mean 1) under a constant 1.5-time-unit network — enough nodes
/// that each shard holds a substantial sub-system, and a lookahead wide
/// enough that windows amortize the two barriers they cost.
fn sharded_showcase_config() -> SystemConfig {
    let mut cfg = SystemConfig::combined_baseline(SdaStrategy::eqf_div1());
    cfg.workload.nodes = 96;
    cfg.workload.load = 0.9;
    cfg.workload.node_speeds = Some(speed_ramp(96, 0.4));
    cfg.network = NetworkModel::Constant { delay: 1.5 };
    cfg
}

fn scenarios() -> Vec<Scenario> {
    let mut list = vec![
        Scenario {
            name: "edf_rho09",
            cfg: high_load_config(false),
            run: hot_run(),
            shards: 1,
        },
        Scenario {
            name: "edf_rho09_preemptive",
            cfg: high_load_config(true),
            run: hot_run(),
            shards: 1,
        },
        Scenario {
            name: "pipelines_rho095",
            cfg: arrival_heavy_config(),
            run: hot_run(),
            shards: 1,
        },
        Scenario {
            name: "dag_rho095",
            cfg: dag_heavy_config(),
            run: hot_run(),
            shards: 1,
        },
    ];
    // The shard sweep shares one config and one run so the *only*
    // difference between its variants is the engine's shard count.
    let showcase_run = RunConfig {
        warmup: 200.0,
        duration: 2_000.0,
        seed: 0x0907,
        order_fuzz: 0,
    };
    for (name, shards) in [
        ("hetero96_net_serial", 1),
        ("hetero96_net_shards2", 2),
        ("hetero96_net_shards4", 4),
        ("hetero96_net_shards8", 8),
    ] {
        list.push(Scenario {
            name,
            cfg: sharded_showcase_config(),
            run: showcase_run,
            shards,
        });
    }
    list
}

fn main() {
    let mut samples = 3usize;
    let mut out = String::from("BENCH_hot_path.json");
    // sda-lint: allow(banned-api, reason = "CLI entry point: argv is read once, before any simulation state exists")
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--samples" => {
                samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = it.next().cloned().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    let mut file = File::create(&out).unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    let list = scenarios();
    let mut results: Vec<Sample> = list
        .iter()
        .map(|_| Sample {
            best_secs: f64::INFINITY,
            events: 0,
        })
        .collect();

    // Interleave: one sample of every scenario per round.
    for round in 0..samples {
        for (i, s) in list.iter().enumerate() {
            // sda-lint: allow(banned-api, reason = "timing the run is the benchmark; determinism is asserted on events below")
            let start = Instant::now();
            let result = run_once_sharded(&s.cfg, &s.run, s.shards)
                .unwrap_or_else(|e| fail(&format!("{}: {e}", s.name)));
            let secs = start.elapsed().as_secs_f64();
            let r = &mut results[i];
            if round > 0 {
                assert_eq!(
                    r.events, result.events,
                    "{}: a benchmark run must be deterministic",
                    s.name
                );
            }
            r.events = result.events;
            if secs < r.best_secs {
                r.best_secs = secs;
            }
        }
        eprintln!("round {}/{samples} done", round + 1);
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "{:<24} {:>7} {:>12} {:>10} {:>14}",
        "scenario", "shards", "events", "best ms", "events/s"
    );
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"host_cores\": {cores},\n"));
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str("  \"scenarios\": {\n");
    for (i, (s, r)) in list.iter().zip(&results).enumerate() {
        let ms = r.best_secs * 1e3;
        let eps = r.events as f64 / r.best_secs;
        println!(
            "{:<24} {:>7} {:>12} {:>10.2} {:>14.0}",
            s.name, s.shards, r.events, ms, eps
        );
        json.push_str(&format!(
            "    \"{}\": {{ \"shards\": {}, \"events\": {}, \"best_ms\": {:.3}, \"events_per_sec\": {:.0} }}{}\n",
            s.name,
            s.shards,
            r.events,
            ms,
            eps,
            if i + 1 < list.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");

    if let Err(e) = file.write_all(json.as_bytes()) {
        fail(&format!("cannot write {out}: {e}"));
    }
    eprintln!("wrote {out}");
}

/// Prints the one-line `error: …` and exits with status 1.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn usage() -> ! {
    eprintln!("usage: sda-bench [--samples N] [--out PATH]");
    std::process::exit(2);
}
