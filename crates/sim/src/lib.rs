//! Co-simulator for DPM-enabled devices on fuel-cell hybrid power sources.
//!
//! [`HybridSimulator`] plays a task-slot [`Trace`](fcdpm_workload::Trace)
//! through four interacting models:
//!
//! 1. the **device** ([`fcdpm_device`]) — its power-state machine turns
//!    each slot plus the DPM sleep decision into a piecewise-constant load
//!    timeline;
//! 2. the **DPM policy** ([`fcdpm_core::dpm`]) — decides sleeping from
//!    predicted idle lengths;
//! 3. the **FC output policy** ([`fcdpm_core::policy`]) — decides the
//!    fuel-cell system's output current for every stretch;
//! 4. the **charge storage** ([`fcdpm_storage`]) — absorbs or supplies
//!    the difference, with bleeder overflow and brownout accounting.
//!
//! Fuel is integrated through a [`FuelFlowModel`] — either the paper's
//! linear efficiency model (Equation 4) or the physically composed
//! [`FcSystem`](fcdpm_fuelcell::FcSystem).
//!
//! # Example
//!
//! ```
//! use fcdpm_core::dpm::PredictiveSleep;
//! use fcdpm_core::policy::ConvDpm;
//! use fcdpm_sim::HybridSimulator;
//! use fcdpm_storage::IdealStorage;
//! use fcdpm_workload::Scenario;
//!
//! # fn main() -> Result<(), fcdpm_sim::SimError> {
//! let scenario = Scenario::experiment1();
//! let sim = HybridSimulator::dac07(&scenario.device);
//! let mut storage = IdealStorage::dac07_supercap();
//! let result = sim.run(
//!     &scenario.trace,
//!     &mut PredictiveSleep::new(scenario.rho),
//!     &mut ConvDpm::dac07(),
//!     &mut storage,
//! )?;
//! assert!(result.metrics.fuel.total().amp_seconds() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod fixture;
mod fuel_model;
mod lifetime;
mod metrics;
mod profile;
mod profile_run;
mod schedule;
mod simulator;

pub use error::SimError;
pub use fuel_model::FuelFlowModel;
pub use lifetime::LifetimeResult;
pub use metrics::SimMetrics;
pub use profile::{ProfileRecorder, ProfileSample};
pub use schedule::SlotSchedule;
pub use simulator::{HybridSimulator, SimResult};
