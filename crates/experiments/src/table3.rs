//! Table 3: normalized fuel consumption of Experiment 2 (the synthetic
//! uniform workload). Paper: Conv 100 %, ASAP 49.1 %, FC-DPM 41.5 % →
//! 15.5 % saving.

use std::fmt::{self, Write};

use fcdpm_experiments::PolicyComparison;
use fcdpm_workload::Scenario;

pub fn run(out: &mut String) -> fmt::Result {
    let cmp = PolicyComparison::run(&Scenario::experiment2()).expect("simulation succeeds");
    cmp.write_table(out, "# Table 3: normalized fuel consumption, Experiment 2")?;
    out.push_str("# paper: Conv 100%, ASAP 49.1%, FC-DPM 41.5%, saving 15.5%\n");
    let fc = &cmp.fc_dpm;
    let (minutes, brownout) = (fc.duration().minutes(), fc.brownout_fraction());
    writeln!(
        out,
        "# run: {} slots, {minutes:.1} min, {} sleeps, brownout fraction {brownout:.4}",
        fc.slots, fc.sleeps
    )?;
    // The paper observes the Exp-2 saving is smaller than Exp-1's because
    // the ASAP profile's variance is smaller; verify the direction.
    let exp1 = PolicyComparison::run(&Scenario::experiment1()).expect("simulation succeeds");
    let exp1 = exp1.fc_saving_vs_asap() * 100.0;
    let exp2 = cmp.fc_saving_vs_asap() * 100.0;
    writeln!(
        out,
        "# FC-DPM saving vs ASAP: exp1 {exp1:.1}% vs exp2 {exp2:.1}% (paper: 24.4% vs 15.5%)"
    )
}
