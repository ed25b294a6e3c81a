//! DVS companion experiment (the DAC'06/ISLPED'06 prior work): per-level
//! energy vs fuel table, and the gap between device-energy-optimal and
//! source-aware operating points across task utilizations.

use std::fmt::{self, Write};

use fcdpm_dvs::{evaluate, DvsDevice, DvsTask, LevelReport, SpeedLevel};
use fcdpm_fuelcell::LinearEfficiency;
use fcdpm_units::{Seconds, Volts, Watts};

pub fn run(out: &mut String) -> fmt::Result {
    let device = DvsDevice::quadratic_example();
    let eff = LinearEfficiency::dac07();
    let task = |work, period, deadline| {
        let s = Seconds::new;
        DvsTask::new(s(work), s(period), s(deadline)).expect("valid task")
    };

    out.push_str("# per-level evaluation (work 2 s, period 10 s, deadline 8 s)\n");
    out.push_str("speed,exec_s,feasible,device_energy_j,fuel_follow_as,fuel_averaged_as\n");
    let eval = evaluate(&device, &task(2.0, 10.0, 8.0), &eff).expect("feasible");
    for r in eval.reports() {
        let (speed, exec, feasible) = (r.level.speed, r.exec_time.seconds(), r.feasible);
        let energy = r.device_energy.joules();
        let (follow, averaged) = (r.fuel_follow.amp_seconds(), r.fuel_averaged.amp_seconds());
        writeln!(
            out,
            "{speed:.2},{exec:.2},{feasible},{energy:.1},{follow:.3},{averaged:.3}"
        )?;
    }

    out.push_str("\n# chosen speeds across utilizations (period 10 s, deadline = period)\n");
    out.push_str("utilization,energy_optimal,fuel_follow_optimal,fuel_averaged_optimal\n");
    for util in [0.1, 0.2, 0.3, 0.5, 0.7, 0.9] {
        let eval = evaluate(&device, &task(10.0 * util, 10.0, 10.0), &eff).expect("feasible");
        let speed = |choice: Option<&LevelReport>| choice.expect("feasible").level.speed;
        let energy = speed(eval.energy_optimal());
        let follow = speed(eval.fuel_follow_optimal());
        let averaged = speed(eval.fuel_averaged_optimal());
        writeln!(out, "{util:.1},{energy:.2},{follow:.2},{averaged:.2}")?;
    }
    // A platform where the objectives disagree: the idle power sits just
    // below the low-speed run powers, so the *device* hardly cares about
    // the speed — but the convex fuel-flow relation punishes the
    // high-current levels hard.
    out.push_str("\n# divergence demo (idle 3.6 W, levels 4/5/16 W):\n");
    out.push_str("speed,device_energy_j,fuel_follow_as\n");
    let level = |speed, watts| SpeedLevel::new(speed, Watts::new(watts)).expect("valid");
    let levels = vec![level(0.25, 4.0), level(0.5, 5.0), level(1.0, 16.0)];
    let device = DvsDevice::new(levels, Watts::new(3.6), Volts::new(12.0)).expect("valid device");
    let eval = evaluate(&device, &task(1.0, 8.0, 8.0), &eff).expect("feasible");
    for r in eval.reports() {
        let (energy, follow) = (r.device_energy.joules(), r.fuel_follow.amp_seconds());
        writeln!(out, "{:.2},{energy:.2},{follow:.3}", r.level.speed)?;
    }
    out.push_str("# the DAC'06 finding: minimizing the embedded system's energy is not\n");
    out.push_str("# the same as minimizing the energy delivered from the power source —\n");
    out.push_str("# the fuel penalty of the 16 W level is far steeper than its energy penalty.\n");
    Ok(())
}
