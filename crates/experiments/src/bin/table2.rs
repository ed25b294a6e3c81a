//! Table 2: normalized fuel consumption of Experiment 1 (the 28-minute
//! DVD-camcorder MPEG trace). Paper: Conv 100 %, ASAP 40.8 %,
//! FC-DPM 30.8 % → 24.4 % saving, 1.32× lifetime.

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
    let scenario = Scenario::experiment1();
    let cmp = PolicyComparison::run(&scenario).expect("simulation succeeds");
    cmp.print_table("# Table 2: normalized fuel consumption, Experiment 1");
    println!("# paper: Conv 100%, ASAP 40.8%, FC-DPM 30.8%, saving 24.4%, lifetime 1.32x");
    println!(
        "# run: {} slots, {:.1} min, {} sleeps, final SoC {:.2}",
        cmp.fc_dpm.slots,
        cmp.fc_dpm.duration().minutes(),
        cmp.fc_dpm.sleeps,
        cmp.fc_dpm.final_soc
    );
}
