//! Fuel-aware DVS (the paper's companion problem): pick a speed level for
//! a periodic task under three objectives — device energy, fuel with a
//! load-following source, fuel with an averaged hybrid source — then play
//! the chosen operating points through the full DPM simulator.
//!
//! ```sh
//! cargo run --example dvs_scheduling
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm::dvs::{evaluate, to_trace, DvsDevice, DvsTask};
use fcdpm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = DvsDevice::quadratic_example();
    let task = DvsTask::new(Seconds::new(2.0), Seconds::new(10.0), Seconds::new(8.0))?;
    let eff = LinearEfficiency::dac07();

    println!(
        "task: {:.1} s of full-speed work every {:.0} s (deadline {:.0} s)",
        task.work().seconds(),
        task.period().seconds(),
        task.deadline().seconds()
    );
    println!();
    println!(
        "{:>6} {:>8} {:>6} {:>12} {:>14} {:>14}",
        "speed", "exec[s]", "ok", "energy[J]", "fuel-follow", "fuel-averaged"
    );
    let eval = evaluate(&device, &task, &eff)?;
    for r in eval.reports() {
        println!(
            "{:>6.2} {:>8.2} {:>6} {:>12.1} {:>14.2} {:>14.2}",
            r.level.speed,
            r.exec_time.seconds(),
            if r.feasible { "yes" } else { "no" },
            r.device_energy.joules(),
            r.fuel_follow.amp_seconds(),
            r.fuel_averaged.amp_seconds()
        );
    }
    println!();
    let energy = eval.energy_optimal().expect("feasible");
    let follow = eval.fuel_follow_optimal().expect("feasible");
    let averaged = eval.fuel_averaged_optimal().expect("feasible");
    println!(
        "energy-optimal speed:        {:.2} (classic leakage-aware DVS)",
        energy.level.speed
    );
    println!(
        "fuel-optimal (follow):       {:.2} (DAC'06 fixed-output source)",
        follow.level.speed
    );
    println!(
        "fuel-optimal (averaged):     {:.2} (hybrid source with buffer)",
        averaged.level.speed
    );

    // Play the fuel-optimal operating point through the full DPM stack:
    // the averaged-source prediction must match the simulator's FC-DPM.
    let spec = DeviceSpec::builder("dvs platform")
        .bus_voltage(Volts::new(12.0))
        .run_power(averaged.level.power)
        .standby_power(Watts::new(1.5))
        .sleep_power(Watts::new(0.4))
        .power_down(Seconds::new(0.3), Watts::new(1.2))
        .wake_up(Seconds::new(0.3), Watts::new(1.2))
        .build()?;
    let trace = to_trace(&device, &task, &averaged.level, 200);
    let capacity = Charge::new(20.0);
    let sim = HybridSimulator::dac07(&spec);
    let mut policy = FcDpm::new(FuelOptimizer::dac07(), &spec, capacity, 0.5, None);
    let mut storage = IdealStorage::new(capacity, capacity * 0.5);
    let mut sleep = PredictiveSleep::new(0.5);
    let m = sim
        .run(&trace, &mut sleep, &mut policy, &mut storage)?
        .metrics;
    println!();
    println!(
        "full simulation at the chosen level: mean I_fc = {:.4} over {:.0} periods",
        m.mean_stack_current(),
        trace.len()
    );
    println!(
        "(single-period closed form predicted {:.4}; the simulator does better \
because its DPM layer sleeps through the slack at 0.4 W instead of idling at 1.5 W)",
        Amps::new(averaged.fuel_averaged.amp_seconds() / task.period().seconds())
    );
    Ok(())
}
