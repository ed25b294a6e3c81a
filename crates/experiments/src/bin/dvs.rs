//! DVS companion experiment (the DAC'06/ISLPED'06 prior work): per-level
//! energy vs fuel table, and the gap between device-energy-optimal and
//! source-aware operating points across task utilizations.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_dvs::{evaluate, DvsDevice, DvsTask};
use fcdpm_fuelcell::LinearEfficiency;
use fcdpm_units::Seconds;

fn main() {
    let device = DvsDevice::quadratic_example();
    let eff = LinearEfficiency::dac07();

    println!("# per-level evaluation (work 2 s, period 10 s, deadline 8 s)");
    println!("speed,exec_s,feasible,device_energy_j,fuel_follow_as,fuel_averaged_as");
    let task =
        DvsTask::new(Seconds::new(2.0), Seconds::new(10.0), Seconds::new(8.0)).expect("valid task");
    let eval = evaluate(&device, &task, &eff).expect("feasible");
    for r in eval.reports() {
        println!(
            "{:.2},{:.2},{},{:.1},{:.3},{:.3}",
            r.level.speed,
            r.exec_time.seconds(),
            r.feasible,
            r.device_energy.joules(),
            r.fuel_follow.amp_seconds(),
            r.fuel_averaged.amp_seconds()
        );
    }

    println!();
    println!("# chosen speeds across utilizations (period 10 s, deadline = period)");
    println!("utilization,energy_optimal,fuel_follow_optimal,fuel_averaged_optimal");
    for util in [0.1, 0.2, 0.3, 0.5, 0.7, 0.9] {
        let task = DvsTask::new(
            Seconds::new(10.0 * util),
            Seconds::new(10.0),
            Seconds::new(10.0),
        )
        .expect("valid task");
        let eval = evaluate(&device, &task, &eff).expect("feasible");
        println!(
            "{:.1},{:.2},{:.2},{:.2}",
            util,
            eval.energy_optimal().expect("feasible").level.speed,
            eval.fuel_follow_optimal().expect("feasible").level.speed,
            eval.fuel_averaged_optimal().expect("feasible").level.speed
        );
    }
    // A platform where the objectives disagree: the idle power sits just
    // below the low-speed run powers, so the *device* hardly cares about
    // the speed — but the convex fuel-flow relation punishes the
    // high-current levels hard.
    println!();
    println!("# divergence demo (idle 3.6 W, levels 4/5/16 W):");
    println!("speed,device_energy_j,fuel_follow_as");
    let device = DvsDevice::new(
        vec![
            fcdpm_dvs::SpeedLevel::new(0.25, fcdpm_units::Watts::new(4.0)).expect("valid"),
            fcdpm_dvs::SpeedLevel::new(0.5, fcdpm_units::Watts::new(5.0)).expect("valid"),
            fcdpm_dvs::SpeedLevel::new(1.0, fcdpm_units::Watts::new(16.0)).expect("valid"),
        ],
        fcdpm_units::Watts::new(3.6),
        fcdpm_units::Volts::new(12.0),
    )
    .expect("valid device");
    let task =
        DvsTask::new(Seconds::new(1.0), Seconds::new(8.0), Seconds::new(8.0)).expect("valid task");
    let eval = evaluate(&device, &task, &eff).expect("feasible");
    for r in eval.reports() {
        println!(
            "{:.2},{:.2},{:.3}",
            r.level.speed,
            r.device_energy.joules(),
            r.fuel_follow.amp_seconds()
        );
    }
    println!("# the DAC'06 finding: minimizing the embedded system's energy is not");
    println!("# the same as minimizing the energy delivered from the power source —");
    println!("# the fuel penalty of the 16 W level is far steeper than its energy penalty.");
}
