//! Shared harness for the table/figure regenerators.
//!
//! The crate's one binary, `all`, holds one module per table, figure or
//! ablation of the paper; this library holds the policy-comparison
//! runner and the profile recorder they share. Both, and every module
//! that runs the paper's policies itself, are wired by
//! [`fcdpm_sim::fixture`]. See `DESIGN.md` (experiment index) and
//! `EXPERIMENTS.md` (paper-vs-measured) at the repository root.

use std::fmt;

use fcdpm_core::dpm::PredictiveSleep;
use fcdpm_sim::fixture::{self, ReferencePolicy};
use fcdpm_sim::{HybridSimulator, ProfileRecorder, SimError, SimMetrics};
use fcdpm_units::{Charge, Seconds};
use fcdpm_workload::Scenario;

/// Results of running the three Section-5 policies on one scenario.
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// Conv-DPM metrics.
    pub conv: SimMetrics,
    /// ASAP-DPM metrics.
    pub asap: SimMetrics,
    /// FC-DPM metrics.
    pub fc_dpm: SimMetrics,
}

impl PolicyComparison {
    /// Runs all three policies on `scenario` with the paper's 100 mA·min
    /// super-capacitor-equivalent buffer.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`].
    pub fn run(scenario: &Scenario) -> Result<Self, SimError> {
        Self::run_with_capacity(scenario, fixture::reference_capacity())
    }

    /// Runs all three policies with an explicit storage capacity.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`].
    pub fn run_with_capacity(scenario: &Scenario, capacity: Charge) -> Result<Self, SimError> {
        let sim = HybridSimulator::dac07(&scenario.device);
        let run = |policy| fixture::run_reference_at(&sim, scenario, policy, capacity);
        Ok(Self {
            conv: run(ReferencePolicy::Conv)?,
            asap: run(ReferencePolicy::Asap)?,
            fc_dpm: run(ReferencePolicy::FcDpm)?,
        })
    }

    /// ASAP-DPM's fuel normalized to Conv-DPM (a Table 2/3 cell).
    #[must_use]
    pub fn asap_normalized(&self) -> f64 {
        self.asap.normalized_fuel(&self.conv)
    }

    /// FC-DPM's fuel normalized to Conv-DPM (a Table 2/3 cell).
    #[must_use]
    pub fn fc_normalized(&self) -> f64 {
        self.fc_dpm.normalized_fuel(&self.conv)
    }

    /// FC-DPM's fuel saving relative to ASAP-DPM (the paper's 24.4 % /
    /// 15.5 % headline numbers).
    #[must_use]
    pub fn fc_saving_vs_asap(&self) -> f64 {
        1.0 - self.fc_dpm.normalized_fuel(&self.asap)
    }

    /// FC-DPM's lifetime extension over ASAP-DPM (the paper's 1.32×).
    #[must_use]
    pub fn fc_lifetime_extension(&self) -> f64 {
        self.fc_dpm.lifetime_extension_over(&self.asap)
    }

    /// Writes the normalized-fuel table in the paper's format.
    ///
    /// # Errors
    ///
    /// Propagates any [`fmt::Error`] from `out`.
    pub fn write_table(&self, out: &mut impl fmt::Write, title: &str) -> fmt::Result {
        let (asap, fc) = (self.asap_normalized() * 100.0, self.fc_normalized() * 100.0);
        let saving = self.fc_saving_vs_asap() * 100.0;
        let lifetime = self.fc_lifetime_extension();
        writeln!(out, "{title}")?;
        writeln!(out, "{:<28} {:>12}", "DPM policy", "vs Conv-DPM")?;
        writeln!(out, "{:<28} {:>11.1}%", "Conv-DPM", 100.0)?;
        writeln!(out, "{:<28} {asap:>11.1}%", "ASAP-DPM")?;
        writeln!(out, "{:<28} {fc:>11.1}%", "FC-DPM")?;
        writeln!(
            out,
            "FC-DPM saves {saving:.1}% fuel vs ASAP-DPM -> {lifetime:.2}x lifetime"
        )
    }
}

/// Records the Figure-7-style current profile of one reference policy
/// run at `capacity`.
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn record_profile(
    scenario: &Scenario,
    policy: ReferencePolicy,
    capacity: Charge,
    horizon: Seconds,
) -> Result<ProfileRecorder, SimError> {
    let sim = HybridSimulator::dac07(&scenario.device);
    let mut storage = fixture::storage_at(capacity);
    let mut sleep = PredictiveSleep::new(scenario.rho);
    let mut rec = ProfileRecorder::new(Seconds::new(0.5), horizon);
    sim.run_recorded(
        &scenario.trace,
        &mut sleep,
        policy.build_at(scenario, capacity).as_mut(),
        &mut storage,
        &mut rec,
    )?;
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_runs_and_orders() {
        let scenario = Scenario::experiment1();
        let cmp = PolicyComparison::run(&scenario).unwrap();
        assert!(cmp.fc_normalized() < cmp.asap_normalized());
        assert!(cmp.asap_normalized() < 1.0);
        assert!(cmp.fc_saving_vs_asap() > 0.0);
        assert!(cmp.fc_lifetime_extension() > 1.0);
    }

    #[test]
    fn comparison_orders_on_experiment_2_too() {
        let scenario = Scenario::experiment2();
        let cmp = PolicyComparison::run(&scenario).unwrap();
        assert!(cmp.fc_normalized() < cmp.asap_normalized());
    }

    #[test]
    fn capacity_parameter_matters() {
        let scenario = Scenario::experiment1();
        let tiny = PolicyComparison::run_with_capacity(&scenario, Charge::new(1.0)).unwrap();
        let roomy = PolicyComparison::run_with_capacity(&scenario, Charge::new(60.0)).unwrap();
        assert!(roomy.fc_saving_vs_asap() > tiny.fc_saving_vs_asap());
    }

    #[test]
    fn profile_recording_helper() {
        let scenario = Scenario::experiment1();
        let rec = record_profile(
            &scenario,
            ReferencePolicy::Conv,
            fixture::reference_capacity(),
            Seconds::new(30.0),
        )
        .unwrap();
        assert_eq!(rec.samples().len(), 61);
    }
}
