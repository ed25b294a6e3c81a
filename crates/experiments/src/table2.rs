//! Table 2: normalized fuel consumption of Experiment 1 (the 28-minute
//! DVD-camcorder MPEG trace). Paper: Conv 100 %, ASAP 40.8 %,
//! FC-DPM 30.8 % → 24.4 % saving, 1.32× lifetime.

use std::fmt::{self, Write};

use fcdpm_experiments::PolicyComparison;
use fcdpm_workload::Scenario;

pub fn run(out: &mut String) -> fmt::Result {
    let cmp = PolicyComparison::run(&Scenario::experiment1()).expect("simulation succeeds");
    cmp.write_table(out, "# Table 2: normalized fuel consumption, Experiment 1")?;
    out.push_str("# paper: Conv 100%, ASAP 40.8%, FC-DPM 30.8%, saving 24.4%, lifetime 1.32x\n");
    let fc = &cmp.fc_dpm;
    let (minutes, soc) = (fc.duration().minutes(), fc.final_soc);
    writeln!(
        out,
        "# run: {} slots, {minutes:.1} min, {} sleeps, final SoC {soc:.2}",
        fc.slots, fc.sleeps
    )
}
