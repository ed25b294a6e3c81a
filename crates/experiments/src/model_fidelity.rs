//! Model-fidelity check: the paper's experiments (and ours) integrate fuel
//! through the linear efficiency model of Equation 4. How much would the
//! conclusions move if fuel were integrated through the *physically
//! composed* FC system (stack polarization + converter + fan controller)
//! instead, while the policies keep planning with the linear model?
//!
//! This is the controller/plant mismatch every real deployment has — the
//! policy's model is an approximation of the hardware.

use std::fmt::{self, Write};

use fcdpm_fuelcell::{FcSystem, LinearEfficiency};
use fcdpm_sim::fixture::{reference_capacity, run_reference_at, ReferencePolicy};
use fcdpm_sim::HybridSimulator;
use fcdpm_units::{CurrentRange, Seconds};
use fcdpm_workload::Scenario;

fn run_table(scenario: &Scenario, physical: bool) -> Vec<f64> {
    let sim = if physical {
        let system = Box::new(FcSystem::dac07_variable_fan());
        HybridSimulator::new(
            &scenario.device,
            system,
            CurrentRange::dac07(),
            Seconds::new(0.5),
        )
        .expect("valid config")
    } else {
        HybridSimulator::dac07(&scenario.device)
    };
    // The fixture's FC-DPM still plans with the LINEAR model.
    ReferencePolicy::PAPER
        .into_iter()
        .map(|policy| {
            let m = run_reference_at(&sim, scenario, policy, reference_capacity())
                .expect("simulation succeeds");
            m.mean_stack_current().amps()
        })
        .collect()
}

pub fn run(out: &mut String) -> fmt::Result {
    let scenario = Scenario::experiment1();
    out.push_str("# fuel integrated through the linear model vs the physical composition\n");
    out.push_str("# (policies always plan with the linear alpha/beta model)\n");
    let linear = run_table(&scenario, false);
    let physical = run_table(&scenario, true);
    out.push_str(
        "policy,mean_i_fc_linear,mean_i_fc_physical,normalized_linear,normalized_physical\n",
    );
    let rows = ["conv", "asap", "fcdpm"]
        .iter()
        .zip(linear.iter().zip(&physical));
    for (name, (lin, phy)) in rows {
        let (lin_norm, phy_norm) = (lin / linear[0], phy / physical[0]);
        writeln!(out, "{name},{lin:.4},{phy:.4},{lin_norm:.3},{phy_norm:.3}")?;
    }
    let lin_gap = (1.0 - linear[2] / linear[1]) * 100.0;
    let phy_gap = (1.0 - physical[2] / physical[1]) * 100.0;
    writeln!(
        out,
        "# FC-DPM saving vs ASAP: linear {lin_gap:.1}% vs physical {phy_gap:.1}%"
    )?;
    out.push_str("# the ordering survives the controller/plant mismatch; the saving\n");
    out.push_str("# shrinks with the physical model's shallower efficiency slope\n");
    out.push_str("# (alpha-hat 0.355, beta-hat 0.054 vs the paper's 0.45/0.13).\n");

    // Where do the two models disagree most?
    let eff = LinearEfficiency::dac07();
    let sys = FcSystem::dac07_variable_fan();
    out.push_str("i_f_ma,i_fc_linear,i_fc_physical,ratio\n");
    for i in CurrentRange::dac07().sweep(12) {
        let lin = eff.stack_current(i).expect("in domain");
        let phy = sys.operating_point(i).expect("in range").i_fc;
        let (i, ratio) = (i.milliamps(), lin / phy);
        writeln!(out, "{i:.0},{:.4},{:.4},{ratio:.3}", lin.amps(), phy.amps())?;
    }
    Ok(())
}
