//! Fuel-cell system models for fuel-aware dynamic power management.
//!
//! This crate implements every power-source component of the hybrid system
//! studied in *Zhuo et al., "Dynamic Power Management with Hybrid Power
//! Sources", DAC 2007* (Figure 1):
//!
//! * [`stack`] — the fuel-cell **stack** itself, modeled with a
//!   Larminie–Dicks polarization curve calibrated to the paper's BCS 20 W,
//!   20-cell stack (open-circuit voltage 18.2 V, ~20 W maximum power);
//! * [`dcdc`] — **DC-DC converters** (plain PWM and the paper's PWM-PFM
//!   design with high efficiency across the whole load range);
//! * [`controller`] — the **balance-of-plant controller** (air-blow fan,
//!   cooling fan, purge solenoid, microcontroller) in both the
//!   variable-speed-fan and on/off-fan configurations of Figure 3;
//! * [`system`] — the composed [`system::FcSystem`], which solves
//!   the stack operating point for a demanded output current and exposes
//!   the measured-equivalent system-efficiency curve;
//! * [`efficiency`] — the paper's **linear system-efficiency model**
//!   `η_s ≈ α − β·I_F` (Equation 2) together with the fuel-flow relation
//!   `I_fc = V_F·I_F / (ζ·η_s)` (Equations 3–4), plus a least-squares
//!   fitter that recovers `(α, β)` from a simulated or measured curve;
//! * [`fuel`] — fuel bookkeeping: Gibbs free-energy accounting through the
//!   measured proportionality `ΔE_Gibbs = ζ·I_fc`, hydrogen-flow
//!   conversion, fuel gauges and tanks for lifetime estimation.
//!
//! # Example: the paper's fuel-flow relation
//!
//! ```
//! use fcdpm_units::{Amps, Seconds};
//! use fcdpm_fuelcell::efficiency::LinearEfficiency;
//!
//! # fn main() -> Result<(), fcdpm_fuelcell::FuelCellError> {
//! let eff = LinearEfficiency::dac07(); // α = 0.45, β = 0.13, V_F = 12 V, ζ = 37.5
//! // Section 3.2: at I_F = 0.53 A the stack current is ≈ 0.448 A.
//! let i_fc = eff.stack_current(Amps::new(0.5333))?;
//! assert!((i_fc.amps() - 0.448).abs() < 1e-3);
//! // ... and the fuel for a 30 s slot is ≈ 13.45 A·s.
//! let fuel = eff.fuel_for(Amps::new(0.5333), Seconds::new(30.0))?;
//! assert!((fuel.amp_seconds() - 13.45).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

pub mod calibrate;
pub mod controller;
pub mod dcdc;
pub mod efficiency;
mod error;
pub mod fuel;
pub mod stack;
pub mod system;

pub use calibrate::StackFit;
pub use controller::{ControllerLoad, OnOffFanController, VariableSpeedFanController};
pub use dcdc::{DcDcConverter, IdealConverter, PwmConverter, PwmPfmConverter};
pub use efficiency::{EfficiencyFit, LinearEfficiency};
pub use error::FuelCellError;
pub use fuel::{FuelGauge, GibbsCoefficient, HydrogenTank};
pub use stack::{PolarizationCurve, StackPoint};
pub use system::{FcSystem, FcSystemBuilder, SystemPoint};
