//! Figure 2: measured FC stack voltage and power versus stack current for
//! the BCS 20 W, 20-cell hydrogen stack. Prints the I-V-P curve as CSV.

use std::fmt::{self, Write};

use fcdpm_fuelcell::PolarizationCurve;
use fcdpm_units::Amps;

pub fn run(out: &mut String) -> fmt::Result {
    let stack = PolarizationCurve::bcs_20w();
    out.push_str("# Figure 2: FC stack I-V-P curve (BCS 20 W class, 20 cells)\n");
    out.push_str("i_fc_ma,v_fc_v,p_fc_w\n");
    for pt in stack.sample_curve(Amps::new(1.5), 31) {
        let i = pt.current.milliamps();
        let (v, p) = (pt.voltage.volts(), pt.power.watts());
        writeln!(out, "{i:.0},{v:.3},{p:.3}")?;
    }
    let voc = stack.open_circuit_voltage();
    writeln!(out, "# open-circuit voltage: {voc:.1} (paper: 18.2 V)")?;
    let mpp = stack.max_power_point();
    let (p, i) = (mpp.power, mpp.current.milliamps());
    writeln!(
        out,
        "# maximum power capacity: {p:.1} at {i:.0} mA (paper: ~20 W)"
    )?;
    out.push_str("# load-following range ends at I_F = 1.2 A on the system side\n");
    Ok(())
}
