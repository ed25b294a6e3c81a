//! Fuel-aware dynamic voltage scaling (DVS) for fuel-cell hybrid sources.
//!
//! Before FC-DPM, the same group developed DVS algorithms for FC-powered
//! systems (*Zhuo et al., DAC 2006* — fixed FC output — and *ISLPED 2006*
//! — multi-level FC output, the paper's references \[10\] and \[11\]).
//! Their central finding carries over verbatim: **the FC lifetime is
//! maximized by minimizing the energy delivered from the power source,
//! not the energy consumed by the embedded system** — and because the
//! fuel-flow relation `I_fc(I_F)` is convex, the two objectives pick
//! different operating points.
//!
//! This crate models a DVS-capable device as a table of
//! [`SpeedLevel`]s and evaluates each level of a periodic
//! [`DvsTask`] under three objectives:
//!
//! * **device energy** (classic DVS, leakage-aware: there is a critical
//!   speed below which slowing down wastes static power);
//! * **fuel with a load-following source** (the DAC'06 fixed-output
//!   configuration: the FC tracks the load, so high-current phases are
//!   disproportionately expensive by convexity);
//! * **fuel with an averaged source** (the hybrid configuration: a storage
//!   buffer lets the FC run at the period-average current, so only the
//!   total charge per period matters).
//!
//! [`evaluate`] produces per-level [`LevelReport`]s;
//! [`Evaluation::energy_optimal`] and friends select the winners; and
//! [`to_trace`] converts a chosen operating point into an
//! [`fcdpm_workload::Trace`] so the full DPM stack can simulate it.
//!
//! # Example
//!
//! ```
//! use fcdpm_dvs::{evaluate, DvsDevice, DvsTask};
//! use fcdpm_fuelcell::LinearEfficiency;
//! use fcdpm_units::Seconds;
//!
//! # fn main() -> Result<(), fcdpm_dvs::DvsError> {
//! let device = DvsDevice::quadratic_example();
//! let task = DvsTask::new(Seconds::new(2.0), Seconds::new(10.0), Seconds::new(8.0))?;
//! let eval = evaluate(&device, &task, &LinearEfficiency::dac07())?;
//! let energy_best = eval.energy_optimal().expect("a feasible level exists");
//! let fuel_best = eval.fuel_averaged_optimal().expect("a feasible level exists");
//! // Both respect the deadline.
//! assert!(energy_best.exec_time <= task.deadline());
//! assert!(fuel_best.exec_time <= task.deadline());
//! # Ok(())
//! # }
//! ```

mod device;
mod error;
mod eval;
mod task;

pub use device::{DvsDevice, SpeedLevel};
pub use error::DvsError;
pub use eval::{evaluate, to_trace, Evaluation, LevelReport};
pub use task::DvsTask;
