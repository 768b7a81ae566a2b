//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--scale <f>]`
//!
//! Runs one workload and prints its metrics; the last line of standard
//! output is the JSON result. A failed check prints a one-line `error:`
//! on standard error and exits with status 1; bad arguments exit with
//! status 2.

// The command line is read once, before any run.
#![allow(clippy::disallowed_methods)]

use sda_perfbench::workload::{Params, Workload};

const USAGE: &str =
    "usage: perfbench --workload <sec6_sweep|dag96_net|service_nominal|service_overload> \
--seed <n> --seconds <s> --trace <0|1> [--scale <horizon factor>]";

struct Args {
    workload: Workload,
    params: Params,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) = (None, None, None, None, 1.0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            "--scale" => {
                scale = value.parse::<f64>().map_err(|_| bad("scale"))?;
                if !(scale.is_finite() && scale > 0.0 && scale <= 1.0) {
                    return Err(bad("scale"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |what| format!("missing {what}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        params: Params {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            scale,
        },
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        sda_perfbench::run_per_layer(args.workload, args.params)
    } else {
        sda_perfbench::run_end_to_end(args.workload, args.params, args.seconds)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    println!(
        "# {} seed {} scale {}",
        args.workload.name(),
        args.params.seed,
        args.params.scale
    );
    for line in &report.notes {
        println!("# {line}");
    }
    println!("{}", report.json());
    if !report.is_correct() {
        let first = report
            .errors
            .first()
            .cloned()
            .unwrap_or_else(|| "a metric is not a finite number".to_string());
        eprintln!("error: {}: {first}", args.workload.name());
        std::process::exit(1);
    }
}
