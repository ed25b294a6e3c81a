//! Table 3: normalized fuel consumption of Experiment 2 (the synthetic
//! uniform workload). Paper: Conv 100 %, ASAP 49.1 %, FC-DPM 41.5 % →
//! 15.5 % saving.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_experiments::PolicyComparison;
use fcdpm_workload::Scenario;

fn main() {
    let scenario = Scenario::experiment2();
    let cmp = PolicyComparison::run(&scenario).expect("simulation succeeds");
    cmp.print_table("# Table 3: normalized fuel consumption, Experiment 2");
    println!("# paper: Conv 100%, ASAP 49.1%, FC-DPM 41.5%, saving 15.5%");
    println!(
        "# run: {} slots, {:.1} min, {} sleeps, brownout fraction {:.4}",
        cmp.fc_dpm.slots,
        cmp.fc_dpm.duration().minutes(),
        cmp.fc_dpm.sleeps,
        cmp.fc_dpm.brownout_fraction()
    );
    // The paper observes the Exp-2 saving is smaller than Exp-1's because
    // the ASAP profile's variance is smaller; verify the direction.
    let exp1 = PolicyComparison::run(&Scenario::experiment1()).expect("simulation succeeds");
    println!(
        "# FC-DPM saving vs ASAP: exp1 {:.1}% vs exp2 {:.1}% (paper: 24.4% vs 15.5%)",
        exp1.fc_saving_vs_asap() * 100.0,
        cmp.fc_saving_vs_asap() * 100.0
    );
}
