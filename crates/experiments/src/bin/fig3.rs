//! Figure 3: FC stack efficiency (a), FC system efficiency with
//! proportional fan-speed control (b) and with on/off fan control (c),
//! versus the FC system output current. Prints the three curves as CSV and
//! the linear fit `η_s ≈ α − β·I_F` of curve (b).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_fuelcell::{FcSystem, GibbsCoefficient};
use fcdpm_units::CurrentRange;

fn main() {
    let variable = FcSystem::dac07_variable_fan();
    let onoff = FcSystem::dac07_on_off_fan();
    let zeta = GibbsCoefficient::dac07();
    let range = CurrentRange::dac07();

    println!("# Figure 3: efficiency vs FC system output current");
    println!("i_f_ma,stack_eff,system_eff_variable_fan,system_eff_onoff_fan");
    for i_f in range.sweep(23) {
        let var_pt = variable
            .operating_point(i_f)
            .expect("within load-following range");
        let onoff_pt = onoff
            .operating_point(i_f)
            .expect("within load-following range");
        let stack_eff = variable.stack().stack_efficiency(var_pt.i_fc, zeta);
        println!(
            "{:.0},{:.4},{:.4},{:.4}",
            i_f.milliamps(),
            stack_eff.value(),
            var_pt.efficiency.value(),
            onoff_pt.efficiency.value()
        );
    }

    let fit = variable
        .fit_linear_efficiency(23)
        .expect("curve is well-defined over the range");
    println!(
        "# linear fit of curve (b): eta_s = {:.3} - {:.3} * I_F  (paper: 0.45 - 0.13 * I_F)",
        fit.model.alpha(),
        fit.model.beta()
    );
    println!(
        "# fit max residual {:.4}, rmse {:.4}",
        fit.max_residual, fit.rmse
    );
    println!("# all experiments use the paper's measured alpha/beta, not the fit");
}
