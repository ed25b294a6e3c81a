//! The paper's reference experiment recipe: policy P on scenario S
//! behind a buffer of capacity C, wired one way for every consumer.
//!
//! The Section-5 comparison (Tables 2–3, Figure 7, the lifetime claim)
//! is fair only while Conv-DPM, ASAP-DPM and FC-DPM see the same
//! wiring: an ideal buffer at half charge behind a DAC'07 simulator
//! with the scenario's predictive sleep. The pieces live here and
//! nowhere else:
//!
//! * [`ReferencePolicy::build_at`], [`run_reference_at`] — the whole
//!   run, at any capacity. The CLI's `experiment`, `simulate` and
//!   `lifetime`, `fcdpm_experiments::{PolicyComparison,
//!   record_profile}` and the `fig7`, `lifetime` and `model_fidelity`
//!   binaries run through these.
//! * [`fc_dpm`], [`storage_at`] — the FC-DPM-from-a-scenario
//!   constructor and the half-charged ideal buffer, for runs that swap
//!   one other piece: the sleep policy in `dpm_policies`, the trace in
//!   `aggregation`, the storage model and β in `fcdpm_runner::exec`.
//!   `ablation` (oracle FC-DPM) and `heavy_tail` (a custom device) take
//!   only the buffer.
//! * [`run_reference`], [`run_reference_on`] — the same at
//!   [`reference_capacity`], for `fcdpm bench`, the integration tests
//!   and the benchmark helper.

use fcdpm_core::dpm::PredictiveSleep;
use fcdpm_core::policy::{
    AsapDpm, ConvDpm, FcDpm, FcOutputPolicy, OutputLevels, Quantized, WindowedAverage,
};
use fcdpm_core::FuelOptimizer;
use fcdpm_storage::IdealStorage;
use fcdpm_units::{Charge, CurrentRange};
use fcdpm_workload::Scenario;

use crate::{HybridSimulator, SimError, SimMetrics};

/// The paper's reference storage capacity in mA·min (Section 5: the 1 F
/// super-capacitor holds 100 mA·min at the 12 V bus). The single source
/// of truth — the runner's `JobSpec` default and the bench fixtures both
/// read it from here.
pub const REFERENCE_CAPACITY_MAMIN: f64 = 100.0;

/// The reference storage capacity as a typed charge.
#[must_use]
pub fn reference_capacity() -> Charge {
    Charge::from_milliamp_minutes(REFERENCE_CAPACITY_MAMIN)
}

/// The reference storage element at `capacity`: the ideal buffer at
/// half charge, as every Section-5 experiment starts it.
#[must_use]
pub fn storage_at(capacity: Charge) -> IdealStorage {
    IdealStorage::new(capacity, capacity * 0.5)
}

/// [`storage_at`] the reference capacity.
#[must_use]
pub fn reference_storage() -> IdealStorage {
    storage_at(reference_capacity())
}

/// The paper's FC-DPM for `scenario` with a `capacity` buffer, planning
/// with `optimizer` (the DAC'07 one unless the caller varies β).
#[must_use]
pub fn fc_dpm(scenario: &Scenario, capacity: Charge, optimizer: FuelOptimizer) -> FcDpm {
    FcDpm::new(
        optimizer,
        &scenario.device,
        capacity,
        scenario.sigma,
        scenario.active_current_estimate,
    )
}

/// The shipped FC output policies: the paper's Section-5 comparison
/// (Conv, ASAP, FC-DPM) plus the two repo extensions (the slot-free
/// windowed average and the quantized FC-DPM wrapper), wired as the
/// batch runner's defaults wire them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferencePolicy {
    /// The Conv-DPM baseline (no fuel-flow control).
    Conv,
    /// The ASAP-DPM baseline (load following + recharge trigger).
    Asap,
    /// The paper's FC-DPM.
    FcDpm,
    /// The slot-free windowed-average policy.
    Windowed,
    /// FC-DPM snapped to 12 uniform output levels.
    Quantized,
}

impl ReferencePolicy {
    /// Every shipped policy, paper table order first.
    pub const ALL: [Self; 5] = [
        Self::Conv,
        Self::Asap,
        Self::FcDpm,
        Self::Windowed,
        Self::Quantized,
    ];

    /// The paper's Section-5 comparison, in table order.
    pub const PAPER: [Self; 3] = [Self::Conv, Self::Asap, Self::FcDpm];

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Conv => "Conv-DPM",
            Self::Asap => "ASAP-DPM",
            Self::FcDpm => "FC-DPM",
            Self::Windowed => "Windowed",
            Self::Quantized => "Quantized-12",
        }
    }

    /// [`build_at`](Self::build_at) the reference capacity.
    #[must_use]
    pub fn build(self, scenario: &Scenario) -> Box<dyn FcOutputPolicy + Send> {
        self.build_at(scenario, reference_capacity())
    }

    /// Builds the policy wired exactly as the paper's experiments run it,
    /// against a `capacity` buffer.
    #[must_use]
    pub fn build_at(self, scenario: &Scenario, capacity: Charge) -> Box<dyn FcOutputPolicy + Send> {
        let fcdpm = || fc_dpm(scenario, capacity, FuelOptimizer::dac07());
        match self {
            Self::Conv => Box::new(ConvDpm::dac07()),
            Self::Asap => Box::new(AsapDpm::dac07(capacity)),
            Self::FcDpm => Box::new(fcdpm()),
            Self::Windowed => Box::new(WindowedAverage::dac07()),
            Self::Quantized => Box::new(Quantized::new(
                fcdpm(),
                OutputLevels::uniform(CurrentRange::dac07(), 12),
            )),
        }
    }
}

/// Runs one reference policy on `scenario` through a DAC'07 simulator
/// with the reference storage and sleep wiring.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator (the paper's
/// configurations simulate cleanly).
pub fn run_reference(scenario: &Scenario, policy: ReferencePolicy) -> Result<SimMetrics, SimError> {
    run_reference_on(&HybridSimulator::dac07(&scenario.device), scenario, policy)
}

/// [`run_reference_at`] the reference capacity.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn run_reference_on(
    sim: &HybridSimulator<'_>,
    scenario: &Scenario,
    policy: ReferencePolicy,
) -> Result<SimMetrics, SimError> {
    run_reference_at(sim, scenario, policy, reference_capacity())
}

/// Runs one reference policy on `scenario` with a `capacity` buffer, on
/// a caller-configured simulator (a custom fuel model or control step,
/// or [`HybridSimulator::without_coalescing`] for A/B comparisons). The
/// simulator should be built over `scenario.device`.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
pub fn run_reference_at(
    sim: &HybridSimulator<'_>,
    scenario: &Scenario,
    policy: ReferencePolicy,
    capacity: Charge,
) -> Result<SimMetrics, SimError> {
    let mut storage = storage_at(capacity);
    let mut sleep = PredictiveSleep::new(scenario.rho);
    let mut policy = policy.build_at(scenario, capacity);
    Ok(sim
        .run(&scenario.trace, &mut sleep, policy.as_mut(), &mut storage)?
        .metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_capacity_is_the_paper_value() {
        // 100 mA·min = 0.1 A × 60 s = 6 A·s.
        assert!((reference_capacity().amp_seconds() - 6.0).abs() < 1e-9);
        use fcdpm_storage::ChargeStorage;
        let storage = reference_storage();
        assert!((storage.soc() - reference_capacity() * 0.5).is_zero());
    }

    #[test]
    fn all_reference_policies_run() {
        let scenario = Scenario::experiment1();
        for policy in ReferencePolicy::ALL {
            let m = run_reference(&scenario, policy).expect("reference run succeeds");
            assert!(m.fuel.total().amp_seconds() > 0.0, "{}", policy.label());
            assert!(!policy.label().is_empty());
        }
    }

    #[test]
    fn reference_ordering_matches_the_paper() {
        let scenario = Scenario::experiment1();
        let conv = run_reference(&scenario, ReferencePolicy::Conv).expect("conv");
        let fc = run_reference(&scenario, ReferencePolicy::FcDpm).expect("fc");
        assert!(fc.fuel.total() < conv.fuel.total());
    }
}
