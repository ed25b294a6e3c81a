//! Lifetime experiment: the paper's headline metric measured directly.
//! Each policy runs the Experiment-1 workload cyclically until a 2 mol
//! hydrogen tank runs dry; the table reports the wall-clock lifetimes and
//! the extension factors ("up to 32 % more system lifetime extension" is
//! the paper's FC-DPM-vs-ASAP number on Table 2's rates).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_core::dpm::PredictiveSleep;
use fcdpm_fuelcell::{GibbsCoefficient, HydrogenTank};
use fcdpm_sim::fixture::{reference_capacity, storage_at, ReferencePolicy};
use fcdpm_sim::HybridSimulator;
use fcdpm_workload::Scenario;

fn main() {
    let scenario = Scenario::experiment1();
    let capacity = reference_capacity();
    let tank = HydrogenTank::from_hydrogen_moles(2.0, GibbsCoefficient::dac07());
    let sim = HybridSimulator::dac07(&scenario.device);

    println!("# lifetime on a 2 mol H2 tank, Experiment-1 workload looped");
    println!("# tank capacity: {:.0} of stack charge", tank.capacity());
    println!("policy,lifetime_h,full_cycles,mean_i_fc_a");
    let mut lifetimes = Vec::new();
    for (name, policy) in ["conv", "asap", "fcdpm"]
        .into_iter()
        .zip(ReferencePolicy::PAPER)
    {
        let mut storage = storage_at(capacity);
        let mut sleep = PredictiveSleep::new(scenario.rho);
        let res = sim
            .run_until_depleted(
                &scenario.trace,
                &mut sleep,
                policy.build_at(&scenario, capacity).as_mut(),
                &mut storage,
                &tank,
                10_000,
            )
            .expect("simulation succeeds");
        assert!(res.depleted, "tank should empty within the cycle cap");
        println!(
            "{name},{:.2},{},{:.4}",
            res.lifetime.seconds() / 3600.0,
            res.full_cycles,
            res.metrics.mean_stack_current().amps()
        );
        lifetimes.push((name, res.lifetime));
    }
    let get = |n: &str| {
        lifetimes
            .iter()
            .find(|(name, _)| *name == n)
            .expect("present")
            .1
    };
    println!(
        "# FC-DPM lifetime extension: {:.2}x over conv, {:.2}x over asap \
         (paper: 3.25x and 1.32x from Table 2's rates)",
        get("fcdpm") / get("conv"),
        get("fcdpm") / get("asap")
    );
}
