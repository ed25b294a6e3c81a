//! Figure 7: the first 300 s of the Experiment-1 current profiles —
//! (a) the DVD camcorder load current, (b) the FC system output under
//! ASAP-DPM, (c) the FC system output under FC-DPM. Prints one merged CSV
//! series (the load column is identical across policies by construction).

use std::fmt::{self, Write};

use fcdpm_experiments::record_profile;
use fcdpm_sim::fixture::{reference_capacity, ReferencePolicy};
use fcdpm_sim::ProfileRecorder;
use fcdpm_units::Seconds;
use fcdpm_workload::Scenario;

pub fn run(out: &mut String) -> fmt::Result {
    let scenario = Scenario::experiment1();
    let profile = |policy| {
        record_profile(&scenario, policy, reference_capacity(), Seconds::new(300.0))
            .expect("simulation succeeds")
    };
    let asap = profile(ReferencePolicy::Asap);
    let fcdpm = profile(ReferencePolicy::FcDpm);

    out.push_str("# Figure 7: 300 s current profiles, Experiment 1\n");
    out.push_str("time_s,load_a,asap_i_f_a,fcdpm_i_f_a\n");
    for (a, f) in asap.samples().iter().zip(fcdpm.samples()) {
        let (t, load) = (a.time.seconds(), a.i_load.amps());
        let (asap_i_f, fc_i_f) = (a.i_f.amps(), f.i_f.amps());
        writeln!(out, "{t:.1},{load:.4},{asap_i_f:.4},{fc_i_f:.4}")?;
    }
    // The qualitative claims of Section 5.1, checked numerically.
    let variance = |rec: &ProfileRecorder| {
        let xs: Vec<f64> = rec.samples().iter().map(|s| s.i_f.amps()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64
    };
    let (asap_var, fc_var) = (variance(&asap), variance(&fcdpm));
    writeln!(
        out,
        "# I_F variance: ASAP {asap_var:.4} vs FC-DPM {fc_var:.4} \
         (paper: FC-DPM profile 'quite flat')"
    )
}
