//! Figure 4 / Section 3.2: the motivational example. One task slot
//! (idle 20 s at 0.2 A, active 10 s at 1.2 A, C_max = 200 A·s) under the
//! three FC output settings. Reproduces the per-setting fuel totals and
//! the percentage comparisons.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_core::optimizer::{FuelOptimizer, SlotProfile, StorageContext};
use fcdpm_units::{Amps, Charge, Seconds};

fn main() {
    let opt = FuelOptimizer::dac07();
    let profile = SlotProfile::new(
        Seconds::new(20.0),
        Amps::new(0.2),
        Seconds::new(10.0),
        Amps::new(1.2),
    )
    .expect("constants are valid");
    let storage = StorageContext::balanced(Charge::ZERO, Charge::new(200.0));

    let conv = opt.conv_fuel(&profile).expect("in range");
    let asap = opt.asap_fuel(&profile).expect("in range");
    let plan = opt.plan_slot(&profile, &storage, None).expect("feasible");

    println!("# Figure 4 / Section 3.2: motivational example");
    println!("# load: idle 20 s @ 0.2 A, active 10 s @ 1.2 A, C_max = 200 A*s");
    println!("setting,i_f_idle_a,i_f_active_a,fuel_as");
    println!("(a) conv-DPM,1.200,1.200,{:.2}", conv.amp_seconds());
    println!("(b) ASAP-DPM,0.200,1.200,{:.2}", asap.amp_seconds());
    println!(
        "(c) FC-DPM,{:.3},{:.3},{:.2}",
        plan.i_f_idle.amps(),
        plan.i_f_active.amps(),
        plan.fuel.amp_seconds()
    );
    println!(
        "# FC-DPM vs conv: {:.1}% lower (paper: 62.6% against its printed 36 A*s)",
        (1.0 - plan.fuel / conv) * 100.0
    );
    println!(
        "# FC-DPM vs ASAP: {:.1}% lower (paper: 15.9%)",
        (1.0 - plan.fuel / asap) * 100.0
    );
    println!("# note: the paper prints conv = 36 A*s (= 1.2 A x 30 s), i.e. it uses I_F");
    println!(
        "# instead of I_fc = 1.306 A for the conv setting; with I_fc the total is {:.1} A*s",
        conv.amp_seconds()
    );
    println!(
        "# energy delivered in (b) and (c) is identical: {:.0} J (paper: 192 J)",
        profile
            .load_charge()
            .at_volts(fcdpm_units::Volts::new(12.0))
            .joules()
    );
}
