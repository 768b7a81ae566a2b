//! Output checks. Each returns a one-line error naming what differed;
//! the smoke test feeds each a deliberately mismatched reference.

use std::fmt::Debug;

use sda_core::NodeId;
use sda_experiments::SweepData;
use sda_service::wall::{WallReport, WallRunConfig};
use sda_sim::rng::RngFactory;
use sda_system::{ReplicatedResult, SystemConfig};
use sda_workload::{ConfigError, TaskFactory};

/// Checks that repetition `rep` produced exactly the reference result.
///
/// # Errors
///
/// Names the check and the repetition on mismatch.
pub fn same<T: PartialEq + Debug>(what: &str, rep: usize, got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} {rep}: result differs from the reference"))
    }
}

/// Checks a §6 sweep against its expected `(label, load)` cells, in
/// series-major order, and against the same points recomputed one by
/// one: `MD_local` and `MD_global` must match bit for bit.
///
/// # Errors
///
/// Names the first mismatching cell.
pub fn sweep_matches(
    data: &SweepData,
    cells: &[(String, f64)],
    reference: &[ReplicatedResult],
) -> Result<(), String> {
    let got: Vec<_> = data
        .series_labels
        .iter()
        .zip(&data.cells)
        .flat_map(|(label, row)| {
            data.xs
                .iter()
                .zip(row)
                .map(move |(x, cell)| (label, *x, cell))
        })
        .collect();
    if got.len() != cells.len() || cells.len() != reference.len() {
        return Err(format!(
            "sec6 sweep has {} cells, expected {} with {} recomputed",
            got.len(),
            cells.len(),
            reference.len()
        ));
    }
    let mean =
        |r: &sda_sim::stats::Replications| r.confidence_interval().map_or(r.mean(), |ci| ci.mean);
    for (((label, x, cell), (want_label, want_x)), want) in got.iter().zip(cells).zip(reference) {
        if *label != want_label || x.to_bits() != want_x.to_bits() {
            return Err(format!(
                "sec6 cell {label} @ {x} where {want_label} @ {want_x} was expected"
            ));
        }
        let local = mean(&want.local_miss_pct);
        let global = mean(&want.global_miss_pct);
        if cell.md_local.mean.to_bits() != local.to_bits()
            || cell.md_global.mean.to_bits() != global.to_bits()
        {
            return Err(format!(
                "sec6 cell {label} @ {x}: MD {:.4}/{:.4} differs from recomputed {local:.4}/{global:.4}",
                cell.md_local.mean, cell.md_global.mean
            ));
        }
    }
    Ok(())
}

/// The local and global task counts the seeded trace of a wall-clock
/// run implies: the submitters' arrival clocks replayed to the horizon
/// (task attributes come from other streams and do not change them).
///
/// # Errors
///
/// Returns the workload's configuration error.
pub fn expected_submissions(
    cfg: &SystemConfig,
    wall: &WallRunConfig,
) -> Result<(u64, u64), ConfigError> {
    // The wall runtime seeds its local submitter from child 1 and its
    // global submitter from child 2 of the run seed.
    let rng = RngFactory::new(wall.seed);
    let mut locals = TaskFactory::new(cfg.workload.clone(), &rng.subfactory(1))?;
    let mut globals = TaskFactory::new(cfg.workload.clone(), &rng.subfactory(2))?;
    let horizon = wall.duration;

    let mut n_local = 0;
    for i in 0..cfg.workload.nodes {
        let node = NodeId::new(i as u32);
        let mut t = 0.0;
        while let Some(gap) = locals.next_local_interarrival(node) {
            t += gap;
            if t > horizon {
                break;
            }
            n_local += 1;
        }
    }

    let (mut n_global, mut t) = (0, 0.0);
    while n_global < wall.max_globals {
        let Some(gap) = globals.next_global_interarrival() else {
            break;
        };
        t += gap;
        if t > horizon {
            break;
        }
        n_global += 1;
    }
    Ok((n_local, n_global))
}

/// Checks that a wall-clock run drained with nothing lost and submitted
/// exactly the `(locals, globals)` its seeded trace implies.
///
/// # Errors
///
/// Names the first count that differs.
pub fn drained(r: &WallReport, expected: (u64, u64)) -> Result<(), String> {
    if r.lost_tasks() != 0 {
        return Err(format!(
            "service lost {} tasks at the drain",
            r.lost_tasks()
        ));
    }
    if (r.submitted_locals, r.submitted_globals) != expected {
        return Err(format!(
            "service submitted {}/{} local/global tasks, the seeded trace implies {}/{}",
            r.submitted_locals, r.submitted_globals, expected.0, expected.1
        ));
    }
    Ok(())
}
