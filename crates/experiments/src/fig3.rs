//! Figure 3: FC stack efficiency (a), FC system efficiency with
//! proportional fan-speed control (b) and with on/off fan control (c),
//! versus the FC system output current. Prints the three curves as CSV and
//! the linear fit `η_s ≈ α − β·I_F` of curve (b).

use std::fmt::{self, Write};

use fcdpm_fuelcell::{FcSystem, GibbsCoefficient};
use fcdpm_units::CurrentRange;

pub fn run(out: &mut String) -> fmt::Result {
    let variable = FcSystem::dac07_variable_fan();
    let onoff = FcSystem::dac07_on_off_fan();
    let zeta = GibbsCoefficient::dac07();

    out.push_str("# Figure 3: efficiency vs FC system output current\n");
    out.push_str("i_f_ma,stack_eff,system_eff_variable_fan,system_eff_onoff_fan\n");
    for i_f in CurrentRange::dac07().sweep(23) {
        let in_range = "within load-following range";
        let var_pt = variable.operating_point(i_f).expect(in_range);
        let onoff_pt = onoff.operating_point(i_f).expect(in_range);
        let stack = variable.stack().stack_efficiency(var_pt.i_fc, zeta).value();
        let (var, on_off) = (var_pt.efficiency.value(), onoff_pt.efficiency.value());
        let i = i_f.milliamps();
        writeln!(out, "{i:.0},{stack:.4},{var:.4},{on_off:.4}")?;
    }

    let fit = variable
        .fit_linear_efficiency(23)
        .expect("curve is well-defined over the range");
    let (alpha, beta) = (fit.model.alpha(), fit.model.beta());
    writeln!(
        out,
        "# linear fit of curve (b): eta_s = {alpha:.3} - {beta:.3} * I_F  (paper: 0.45 - 0.13 * I_F)"
    )?;
    let (max, rmse) = (fit.max_residual, fit.rmse);
    writeln!(out, "# fit max residual {max:.4}, rmse {rmse:.4}")?;
    out.push_str("# all experiments use the paper's measured alpha/beta, not the fit\n");
    Ok(())
}
