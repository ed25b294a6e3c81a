//! Figure 6: the DVD camcorder's power-state abstraction. Prints the mode
//! table, the transition overheads and the derived break-even time.

use std::fmt::{self, Write};

use fcdpm_device::{presets, PowerMode};

pub fn run(out: &mut String) -> fmt::Result {
    let spec = presets::dvd_camcorder();
    let name = spec.name();
    writeln!(out, "# Figure 6: power-state abstraction of {name}")?;
    out.push_str("mode,power_w,current_a_at_12v\n");
    for mode in PowerMode::ALL {
        let p = spec.mode_power(mode).watts();
        let i = spec.mode_current(mode).amps();
        writeln!(out, "{mode},{p:.2},{i:.4}")?;
    }
    out.push_str("transition,delay_s,current_a\n");
    let t = spec.power_down_time().seconds();
    let i = spec.power_down_current().amps();
    writeln!(out, "STANDBY->SLEEP,{t:.1},{i:.2}")?;
    let t = spec.wake_up_time().seconds();
    let i = spec.wake_up_current().amps();
    writeln!(out, "SLEEP->STANDBY,{t:.1},{i:.2}")?;
    let i = spec.mode_current(PowerMode::Run).amps();
    let t = spec.start_up_time().seconds();
    writeln!(out, "STANDBY->RUN,{t:.1},{i:.4}")?;
    let t = spec.shut_down_time().seconds();
    writeln!(out, "RUN->STANDBY,{t:.1},{i:.4}")?;
    let t_be = spec.break_even_time();
    writeln!(
        out,
        "# derived break-even time: {t_be:.2} (paper: T_be = tau_PD + tau_WU = 1 s)"
    )
}
