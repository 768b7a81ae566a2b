//! The benchmark's own smoke test, at tiny horizons: every workload
//! runs and passes its checks on two seeds, every metric that
//! `BENCHMARK.json` names is printed, and every output check rejects a
//! deliberately mismatched reference.

use sda_perfbench::check;
use sda_perfbench::metrics::{END_TO_END, PER_LAYER};
use sda_perfbench::workload::{
    dag96_config, dag96_run, sec6_opts, sec6_points, sec6_reference, service_config, wall_run,
    Params, Workload, NOMINAL_TIME_SCALE,
};
use sda_perfbench::{run_end_to_end, run_per_layer};
use sda_service::wall::run_wall;
use sda_system::run_once;

/// Horizon factor that keeps each workload well under a second.
const TINY: f64 = 0.02;

fn tiny(seed: u64) -> Params {
    Params { seed, scale: TINY }
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
}

/// The `"name": "…"` values of one top-level list of `BENCHMARK.json`
/// (one entry per line, as the file is written).
fn names_in(json: &str, list: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &json[start..];
    let end = body.find(']').expect("list is closed");
    body[..end]
        .lines()
        .filter_map(|l| {
            let rest = l.split("\"name\": \"").nth(1)?;
            Some(rest[..rest.find('"')?].to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_registry() {
    let json = benchmark_json();
    let listed = names_in(&json, "workloads");
    let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, all, "workloads differ from the benchmark's");
    for (list, registry) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let names = names_in(&json, list);
        let want: Vec<&str> = registry.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{list} names differ from the registry");
        for m in registry {
            let line = json
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{}\"", m.name)))
                .expect("listed above");
            assert!(
                line.contains(&format!("\"unit\": \"{}\"", m.unit)),
                "{line}"
            );
            assert!(
                line.contains(&format!("\"better\": \"{}\"", m.better.as_str())),
                "{line}"
            );
        }
    }
}

#[test]
fn every_end_to_end_metric_is_printed_and_checked_on_two_seeds() {
    for w in Workload::ALL {
        for seed in [1, 7] {
            let report = run_end_to_end(w, tiny(seed), 0.0).expect("workload runs");
            assert!(
                report.is_correct(),
                "{} seed {seed}: {:?}",
                w.name(),
                report.errors
            );
            let json = report.json();
            for m in &END_TO_END {
                assert!(
                    json.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                    "{json}"
                );
            }
            assert_eq!(report.metrics.len(), END_TO_END.len());
        }
    }
}

#[test]
fn every_per_layer_metric_is_printed_and_checked() {
    for w in Workload::ALL {
        let report = run_per_layer(w, tiny(3)).expect("probes run");
        assert!(report.is_correct(), "{}: {:?}", w.name(), report.errors);
        let json = report.json();
        for m in &PER_LAYER {
            assert!(
                json.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{json}"
            );
        }
        assert_eq!(report.metrics.len(), PER_LAYER.len());
    }
}

#[test]
fn result_check_rejects_a_run_on_another_seed() {
    let cfg = dag96_config();
    let a = run_once(&cfg, &dag96_run(tiny(1))).unwrap();
    let b = run_once(&cfg, &dag96_run(tiny(2))).unwrap();
    assert!(check::same("run", 0, &a, &a).is_ok());
    assert!(check::same("run", 0, &a, &b).is_err());
}

#[test]
fn sweep_check_rejects_a_mismatched_reference() {
    let opts = sec6_opts(tiny(1), 2);
    let data = sda_experiments::sec6::run(&opts).unwrap();
    let points = sec6_points();
    let cells: Vec<(String, f64)> = points.iter().map(|p| (p.label.clone(), p.load)).collect();
    let reference = sec6_reference(&points, &opts).unwrap();
    assert!(check::sweep_matches(&data, &cells, &reference).is_ok());

    let other = sec6_reference(&points, &sec6_opts(tiny(2), 2)).unwrap();
    assert!(check::sweep_matches(&data, &cells, &other).is_err());
    assert!(check::sweep_matches(&data, &cells[1..], &reference[1..]).is_err());
    let mut relabelled = cells.clone();
    relabelled.swap(0, 4);
    assert!(check::sweep_matches(&data, &relabelled, &reference).is_err());
}

#[test]
fn drain_check_rejects_wrong_counts() {
    let cfg = service_config();
    let (wall, _) = wall_run(NOMINAL_TIME_SCALE, tiny(1));
    let expected = check::expected_submissions(&cfg, &wall).unwrap();
    let report = run_wall(&cfg, &wall).unwrap();
    assert!(check::drained(&report, expected).is_ok());
    assert!(check::drained(&report, (expected.0 + 1, expected.1)).is_err());
    assert!(check::drained(&report, (expected.0, expected.1 - 1)).is_err());

    let (other, _) = wall_run(NOMINAL_TIME_SCALE, tiny(2));
    let elsewhere = check::expected_submissions(&cfg, &other).unwrap();
    assert_ne!(elsewhere, expected, "another seed implies another trace");
    assert!(check::drained(&report, elsewhere).is_err());
}
