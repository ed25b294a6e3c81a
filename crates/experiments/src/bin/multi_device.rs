//! Multi-device extension (toward the paper's reference \[7\]): three
//! DPM-enabled devices share one fuel-cell hybrid source. Each device's
//! slot stream becomes a load timeline (with the oracle sleep rule), the
//! timelines merge into one aggregate profile, and the slot-free FC
//! policies compete on it — scheduled as a [`JobGrid`] on the
//! [`fcdpm_runner`] worker pool.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_runner::exec::{multi_device_profile, multi_device_profiles};
use fcdpm_runner::{run_grid, JobGrid, JobOutcome, PolicySpec, RunConfig, WorkloadSpec};

/// Per-device trace seeds are derived from this (camcorder = 1,
/// radio = 2, sensor = 3 — the original hand-picked seeds).
const SEED: u64 = 1;

fn main() {
    for p in &multi_device_profiles(SEED) {
        println!(
            "# {}: {:.1} min, mean {:.3}, peak {:.3}",
            p.name(),
            p.total_duration().minutes(),
            p.mean_current(),
            p.peak_current()
        );
    }
    let merged = multi_device_profile(SEED);
    println!(
        "# merged: {:.1} min, mean {:.3}, peak {:.3} ({} points)",
        merged.total_duration().minutes(),
        merged.mean_current(),
        merged.peak_current(),
        merged.len()
    );

    // 30 A·s shared buffer, as before (expressed in the spec's mA·min).
    let mut grid = JobGrid::new(
        vec![
            PolicySpec::Conv,
            PolicySpec::Asap,
            PolicySpec::WindowedAverage,
        ],
        vec![WorkloadSpec::MultiDevice(SEED)],
    );
    grid.capacities_mamin = Some(vec![500.0]);
    let manifest = run_grid(&grid, &RunConfig::default());

    println!("policy,fuel_as,mean_i_fc_a,vs_conv,bled_as,deficit_as");
    let names = ["conv", "asap", "windowed-average"];
    let mut base_rate = None;
    for (name, record) in names.iter().zip(&manifest.records) {
        let m = match &record.outcome {
            JobOutcome::Completed(m) => m,
            other => panic!("job {} did not complete: {other:?}", record.id),
        };
        let rate = m.mean_stack_current_a;
        let base = *base_rate.get_or_insert(rate);
        println!(
            "{name},{:.1},{rate:.4},{:.3},{:.2},{:.3}",
            m.fuel_as,
            rate / base,
            m.bled_as,
            m.deficit_as
        );
    }
    println!("# the averaging idea survives without slot structure: the windowed");
    println!("# policy flattens the multi-device aggregate the way FC-DPM flattens");
    println!("# a single device's slots.");
}
