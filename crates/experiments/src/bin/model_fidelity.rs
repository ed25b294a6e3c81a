//! Model-fidelity check: the paper's experiments (and ours) integrate fuel
//! through the linear efficiency model of Equation 4. How much would the
//! conclusions move if fuel were integrated through the *physically
//! composed* FC system (stack polarization + converter + fan controller)
//! instead, while the policies keep planning with the linear model?
//!
//! This is the controller/plant mismatch every real deployment has — the
//! policy's model is an approximation of the hardware.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_fuelcell::{FcSystem, LinearEfficiency};
use fcdpm_sim::fixture::{reference_capacity, run_reference_at, ReferencePolicy};
use fcdpm_sim::HybridSimulator;
use fcdpm_units::{CurrentRange, Seconds};
use fcdpm_workload::Scenario;

fn run_table(scenario: &Scenario, physical: bool) -> Vec<(&'static str, f64)> {
    let sim = if physical {
        HybridSimulator::new(
            &scenario.device,
            Box::new(FcSystem::dac07_variable_fan()),
            CurrentRange::dac07(),
            Seconds::new(0.5),
        )
        .expect("valid config")
    } else {
        HybridSimulator::dac07(&scenario.device)
    };
    // The fixture's FC-DPM still plans with the LINEAR model.
    ["conv", "asap", "fcdpm"]
        .into_iter()
        .zip(ReferencePolicy::PAPER)
        .map(|(name, policy)| {
            let m = run_reference_at(&sim, scenario, policy, reference_capacity())
                .expect("simulation succeeds");
            (name, m.mean_stack_current().amps())
        })
        .collect()
}

fn main() {
    let scenario = Scenario::experiment1();
    println!("# fuel integrated through the linear model vs the physical composition");
    println!("# (policies always plan with the linear alpha/beta model)");
    let linear = run_table(&scenario, false);
    let physical = run_table(&scenario, true);
    println!("policy,mean_i_fc_linear,mean_i_fc_physical,normalized_linear,normalized_physical");
    let (base_lin, base_phy) = (linear[0].1, physical[0].1);
    for ((name, lin), (_, phy)) in linear.iter().zip(&physical) {
        println!(
            "{name},{lin:.4},{phy:.4},{:.3},{:.3}",
            lin / base_lin,
            phy / base_phy
        );
    }
    let lin_gap = 1.0 - linear[2].1 / linear[1].1;
    let phy_gap = 1.0 - physical[2].1 / physical[1].1;
    println!(
        "# FC-DPM saving vs ASAP: linear {:.1}% vs physical {:.1}%",
        lin_gap * 100.0,
        phy_gap * 100.0
    );
    println!("# the ordering survives the controller/plant mismatch; the saving");
    println!("# shrinks with the physical model's shallower efficiency slope");
    println!("# (alpha-hat 0.355, beta-hat 0.054 vs the paper's 0.45/0.13).");

    // Where do the two models disagree most?
    let eff = LinearEfficiency::dac07();
    let sys = FcSystem::dac07_variable_fan();
    println!("i_f_ma,i_fc_linear,i_fc_physical,ratio");
    for i in CurrentRange::dac07().sweep(12) {
        let lin = eff.stack_current(i).expect("in domain");
        let phy = sys.operating_point(i).expect("in range").i_fc;
        println!(
            "{:.0},{:.4},{:.4},{:.3}",
            i.milliamps(),
            lin.amps(),
            phy.amps(),
            lin / phy
        );
    }
}
