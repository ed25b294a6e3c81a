//! Lifetime experiment: the paper's headline metric measured directly.
//! Each policy runs the Experiment-1 workload cyclically until a 2 mol
//! hydrogen tank runs dry; the table reports the wall-clock lifetimes and
//! the extension factors ("up to 32 % more system lifetime extension" is
//! the paper's FC-DPM-vs-ASAP number on Table 2's rates).

use std::fmt::{self, Write};

use fcdpm_core::dpm::PredictiveSleep;
use fcdpm_fuelcell::{GibbsCoefficient, HydrogenTank};
use fcdpm_sim::fixture::{reference_capacity, storage_at, ReferencePolicy};
use fcdpm_sim::HybridSimulator;
use fcdpm_workload::Scenario;

pub fn run(out: &mut String) -> fmt::Result {
    let scenario = Scenario::experiment1();
    let capacity = reference_capacity();
    let tank = HydrogenTank::from_hydrogen_moles(2.0, GibbsCoefficient::dac07());
    let sim = HybridSimulator::dac07(&scenario.device);

    out.push_str("# lifetime on a 2 mol H2 tank, Experiment-1 workload looped\n");
    writeln!(
        out,
        "# tank capacity: {:.0} of stack charge",
        tank.capacity()
    )?;
    out.push_str("policy,lifetime_h,full_cycles,mean_i_fc_a\n");
    let mut lifetimes = Vec::new();
    for (name, policy) in ["conv", "asap", "fcdpm"]
        .into_iter()
        .zip(ReferencePolicy::PAPER)
    {
        let res = sim
            .run_until_depleted(
                &scenario.trace,
                &mut PredictiveSleep::new(scenario.rho),
                policy.build_at(&scenario, capacity).as_mut(),
                &mut storage_at(capacity),
                &tank,
                10_000,
            )
            .expect("simulation succeeds");
        assert!(res.depleted, "tank should empty within the cycle cap");
        let hours = res.lifetime.seconds() / 3600.0;
        let rate = res.metrics.mean_stack_current().amps();
        writeln!(out, "{name},{hours:.2},{},{rate:.4}", res.full_cycles)?;
        lifetimes.push(res.lifetime);
    }
    let over_conv = lifetimes[2] / lifetimes[0];
    let over_asap = lifetimes[2] / lifetimes[1];
    writeln!(
        out,
        "# FC-DPM lifetime extension: {over_conv:.2}x over conv, {over_asap:.2}x over asap \
         (paper: 3.25x and 1.32x from Table 2's rates)"
    )
}
