//! Figure 4 / Section 3.2: the motivational example. One task slot
//! (idle 20 s at 0.2 A, active 10 s at 1.2 A, C_max = 200 A·s) under the
//! three FC output settings. Reproduces the per-setting fuel totals and
//! the percentage comparisons.

use std::fmt::{self, Write};

use fcdpm_core::optimizer::{FuelOptimizer, SlotProfile, StorageContext};
use fcdpm_units::{Amps, Charge, Seconds, Volts};

pub fn run(out: &mut String) -> fmt::Result {
    let opt = FuelOptimizer::dac07();
    let (idle, active) = (Seconds::new(20.0), Seconds::new(10.0));
    let profile = SlotProfile::new(idle, Amps::new(0.2), active, Amps::new(1.2))
        .expect("constants are valid");
    let storage = StorageContext::balanced(Charge::ZERO, Charge::new(200.0));

    let conv = opt.conv_fuel(&profile).expect("in range");
    let asap = opt.asap_fuel(&profile).expect("in range");
    let plan = opt.plan_slot(&profile, &storage, None).expect("feasible");

    out.push_str("# Figure 4 / Section 3.2: motivational example\n");
    out.push_str("# load: idle 20 s @ 0.2 A, active 10 s @ 1.2 A, C_max = 200 A*s\n");
    out.push_str("setting,i_f_idle_a,i_f_active_a,fuel_as\n");
    writeln!(out, "(a) conv-DPM,1.200,1.200,{:.2}", conv.amp_seconds())?;
    writeln!(out, "(b) ASAP-DPM,0.200,1.200,{:.2}", asap.amp_seconds())?;
    let (i_idle, i_active) = (plan.i_f_idle.amps(), plan.i_f_active.amps());
    let fuel = plan.fuel.amp_seconds();
    writeln!(out, "(c) FC-DPM,{i_idle:.3},{i_active:.3},{fuel:.2}")?;
    let vs_conv = (1.0 - plan.fuel / conv) * 100.0;
    writeln!(
        out,
        "# FC-DPM vs conv: {vs_conv:.1}% lower (paper: 62.6% against its printed 36 A*s)"
    )?;
    let vs_asap = (1.0 - plan.fuel / asap) * 100.0;
    writeln!(out, "# FC-DPM vs ASAP: {vs_asap:.1}% lower (paper: 15.9%)")?;
    out.push_str("# note: the paper prints conv = 36 A*s (= 1.2 A x 30 s), i.e. it uses I_F\n");
    writeln!(
        out,
        "# instead of I_fc = 1.306 A for the conv setting; with I_fc the total is {:.1} A*s",
        conv.amp_seconds()
    )?;
    let energy = profile.load_charge().at_volts(Volts::new(12.0)).joules();
    writeln!(
        out,
        "# energy delivered in (b) and (c) is identical: {energy:.0} J (paper: 192 J)"
    )
}
