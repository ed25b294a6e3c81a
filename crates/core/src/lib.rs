//! Fuel-efficient dynamic power management for fuel-cell hybrid power
//! sources — the core algorithms of *Zhuo, Chakrabarti, Lee & Chang,
//! "Dynamic Power Management with Hybrid Power Sources", DAC 2007*.
//!
//! # What lives here
//!
//! * [`optimizer`] — the paper's Section-3 optimization framework: given a
//!   task slot's load profile, the convex fuel objective
//!   `Σ I_fc(I_F)·T` is minimized subject to the charge-balance
//!   constraint, yielding the closed-form averaged FC current of
//!   Equation 11 plus the paper's corrections for the limited
//!   load-following range, the limited storage capacity (Equation 12),
//!   `C_ini ≠ C_end` (Equation 13) and SLEEP-transition overheads
//!   (Section 3.3.2);
//! * [`dpm`] — the embedded-system side: sleep-decision policies
//!   (predictive, as in Figure 5; plus always/never/oracle baselines);
//! * [`policy`] — the power-source side: [`policy::FcDpm`] (the paper's
//!   contribution), [`policy::AsapDpm`] and [`policy::ConvDpm`]
//!   (the Section-5 baselines), all behind one
//!   [`policy::FcOutputPolicy`] trait the simulator drives;
//! * [`offline`] — whole-trace planning: the per-slot offline optimum and
//!   a global single-current lower bound used to sandwich the online
//!   policies in tests.
//!
//! # Example: the paper's motivational example (Section 3.2)
//!
//! ```
//! use fcdpm_core::optimizer::{FuelOptimizer, SlotProfile, StorageContext};
//! use fcdpm_units::{Amps, Charge, Seconds};
//!
//! # fn main() -> Result<(), fcdpm_core::CoreError> {
//! let opt = FuelOptimizer::dac07();
//! let profile = SlotProfile::new(
//!     Seconds::new(20.0), Amps::new(0.2),   // idle: 20 s at 0.2 A
//!     Seconds::new(10.0), Amps::new(1.2),   // active: 10 s at 1.2 A
//! )?;
//! let storage = StorageContext::balanced(Charge::ZERO, Charge::new(200.0));
//! let plan = opt.plan_slot(&profile, &storage, None)?;
//! // Equation 11: I_F = (0.2·20 + 1.2·10)/30 = 0.533 A → fuel ≈ 13.45 A·s.
//! assert!((plan.i_f_idle.amps() - 0.5333).abs() < 1e-3);
//! assert!((plan.fuel.amp_seconds() - 13.45).abs() < 0.02);
//! # Ok(())
//! # }
//! ```

pub mod dpm;
mod error;
pub mod offline;
pub mod optimizer;
pub mod policy;
pub mod sizing;

pub use error::CoreError;
pub use optimizer::{
    ConstraintCase, FuelOptimizer, Overhead, SlotPlan, SlotProfile, StorageContext,
};
pub use policy::{FcOutputPolicy, PolicyPhase};
// Re-export the quantity newtypes policy code passes around, so
// downstream crates can take them from `fcdpm_core` without a separate
// `fcdpm_units` dependency line.
pub use fcdpm_units::{Amps, Charge, CurrentRange, Seconds, Volts, Watts};
