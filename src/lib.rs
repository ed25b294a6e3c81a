//! # fcdpm — fuel-efficient dynamic power management
//!
//! A complete, from-scratch reproduction of *Zhuo, Chakrabarti, Lee &
//! Chang, "Dynamic Power Management with Hybrid Power Sources", DAC 2007*:
//! the FC-DPM policy, its Conv-DPM and ASAP-DPM baselines, and every
//! substrate they run on — fuel-cell system models, charge storage,
//! DPM-enabled device models, workload generators, period predictors and
//! a co-simulator.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof. Depend on it for applications; depend on the individual crates
//! (`fcdpm-core`, `fcdpm-sim`, …) for narrower builds.
//!
//! # Quickstart
//!
//! ```
//! use fcdpm::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Experiment 1: a DVD camcorder on an FC hybrid source.
//! let scenario = Scenario::experiment1();
//! let sim = HybridSimulator::dac07(&scenario.device);
//! let capacity = Charge::from_milliamp_minutes(100.0);
//!
//! // Run the paper's FC-DPM policy.
//! let mut fc_dpm = FcDpm::new(
//!     FuelOptimizer::dac07(),
//!     &scenario.device,
//!     capacity,
//!     scenario.sigma,
//!     scenario.active_current_estimate,
//! );
//! let mut storage = IdealStorage::new(capacity, capacity * 0.5);
//! let mut sleep = PredictiveSleep::new(scenario.rho);
//! let result = sim.run(&scenario.trace, &mut sleep, &mut fc_dpm, &mut storage)?;
//! println!("fuel: {:.1}", result.metrics.fuel.total());
//! # Ok(())
//! # }
//! ```
//!
//! [`sim::fixture`] holds this wiring once for every shipped policy and
//! any buffer capacity; the CLI and the experiment binaries run through
//! it.
//!
//! # Crate map
//!
//! | Module | Workspace crate | Contents |
//! |---|---|---|
//! | [`units`] | `fcdpm-units` | typed quantities (A, V, W, s, A·s, J) |
//! | [`fuelcell`] | `fcdpm-fuelcell` | stack, DC-DC, controller, efficiency, fuel |
//! | [`storage`] | `fcdpm-storage` | super-capacitor / Li-ion / ideal buffers |
//! | [`device`] | `fcdpm-device` | power-state machines, device presets |
//! | [`workload`] | `fcdpm-workload` | traces, generators, scenarios |
//! | [`predict`] | `fcdpm-predict` | idle/active period predictors |
//! | [`core`] | `fcdpm-core` | the optimizer and the three policies |
//! | [`sim`] | `fcdpm-sim` | the hybrid-source co-simulator |
//! | [`dvs`] | `fcdpm-dvs` | fuel-aware dynamic voltage scaling (the DAC'06/ISLPED'06 companion) |

pub use fcdpm_core as core;
pub use fcdpm_device as device;
pub use fcdpm_dvs as dvs;
pub use fcdpm_fuelcell as fuelcell;
pub use fcdpm_predict as predict;
pub use fcdpm_sim as sim;
pub use fcdpm_storage as storage;
pub use fcdpm_units as units;
pub use fcdpm_workload as workload;

/// The most frequently used items, in one import.
pub mod prelude {
    pub use fcdpm_core::dpm::{
        AdaptiveTimeoutSleep, AlwaysSleep, NeverSleep, OracleSleep, PredictiveSleep,
        ProbabilisticSleep, SleepDecision, SleepPolicy, TimeoutSleep,
    };
    pub use fcdpm_core::policy::{AsapDpm, ConvDpm, FcDpm, OutputLevels, Quantized};
    pub use fcdpm_core::{
        ConstraintCase, CoreError, FcOutputPolicy, FuelOptimizer, Overhead, PolicyPhase, SlotPlan,
        SlotProfile, StorageContext,
    };
    pub use fcdpm_device::{presets, DeviceSpec, PowerMode, PowerStateMachine, SlotTimeline};
    pub use fcdpm_fuelcell::{
        FcSystem, FuelGauge, GibbsCoefficient, HydrogenTank, LinearEfficiency, PolarizationCurve,
    };
    pub use fcdpm_predict::{
        AdaptiveLearningTree, ExponentialAverage, LastValue, MeanEstimator, OraclePredictor,
        Predictor, SlidingWindowRegression,
    };
    pub use fcdpm_sim::{HybridSimulator, ProfileRecorder, SimError, SimMetrics, SimResult};
    pub use fcdpm_storage::{
        ChargeStorage, IdealStorage, KineticBattery, LiIonBattery, SuperCapacitor,
    };
    pub use fcdpm_units::{Amps, Charge, CurrentRange, Efficiency, Energy, Seconds, Volts, Watts};
    pub use fcdpm_workload::{
        aggregate_idles, AggregatedTrace, CamcorderTrace, ParetoTrace, Scenario, SyntheticTrace,
        TaskSlot, Trace,
    };
}
