//! Figure 7: the first 300 s of the Experiment-1 current profiles —
//! (a) the DVD camcorder load current, (b) the FC system output under
//! ASAP-DPM, (c) the FC system output under FC-DPM. Prints one merged CSV
//! series (the load column is identical across policies by construction).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "binaries and tests may panic"
)]

use fcdpm_experiments::record_profile;
use fcdpm_sim::fixture::{reference_capacity, ReferencePolicy};
use fcdpm_units::Seconds;
use fcdpm_workload::Scenario;

fn main() {
    let scenario = Scenario::experiment1();
    let profile = |policy| {
        record_profile(&scenario, policy, reference_capacity(), Seconds::new(300.0))
            .expect("simulation succeeds")
    };
    let asap = profile(ReferencePolicy::Asap);
    let fcdpm = profile(ReferencePolicy::FcDpm);

    println!("# Figure 7: 300 s current profiles, Experiment 1");
    println!("time_s,load_a,asap_i_f_a,fcdpm_i_f_a");
    for (a, f) in asap.samples().iter().zip(fcdpm.samples()) {
        println!(
            "{:.1},{:.4},{:.4},{:.4}",
            a.time.seconds(),
            a.i_load.amps(),
            a.i_f.amps(),
            f.i_f.amps()
        );
    }
    // The qualitative claims of Section 5.1, checked numerically.
    let variance = |xs: &[f64]| {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64
    };
    let asap_var = variance(
        &asap
            .samples()
            .iter()
            .map(|s| s.i_f.amps())
            .collect::<Vec<_>>(),
    );
    let fc_var = variance(
        &fcdpm
            .samples()
            .iter()
            .map(|s| s.i_f.amps())
            .collect::<Vec<_>>(),
    );
    println!(
        "# I_F variance: ASAP {asap_var:.4} vs FC-DPM {fc_var:.4} \
         (paper: FC-DPM profile 'quite flat')"
    );
}
