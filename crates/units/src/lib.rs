//! Typed physical quantities for the `fcdpm` workspace.
//!
//! Power-source modeling mixes many `f64` quantities — currents on the 12 V
//! bus, currents on the fuel-cell stack side, charges, energies, durations —
//! and confusing them is the classic source of silent modeling bugs. This
//! crate provides zero-cost newtypes ([`Amps`], [`Volts`], [`Watts`],
//! [`Seconds`], [`Charge`], [`Energy`], [`Efficiency`]) with only the
//! physically meaningful arithmetic implemented between them.
//!
//! # Examples
//!
//! ```
//! use fcdpm_units::{Amps, Volts, Seconds};
//!
//! let bus = Volts::new(12.0);
//! let load = Amps::new(1.2);
//! let power = bus * load;                   // Watts
//! let energy = power * Seconds::new(10.0);  // Energy (J)
//! assert_eq!(energy.joules(), 144.0);
//!
//! let charge = load * Seconds::new(10.0);   // Charge (A·s)
//! assert_eq!(charge.amp_seconds(), 12.0);
//! ```
//!
//! Cross-dimension products and quotients follow SI relations:
//!
//! * [`Volts`] × [`Amps`] → [`Watts`] (and [`Watts`] ÷ [`Volts`] → [`Amps`])
//! * [`Watts`] × [`Seconds`] → [`Energy`]
//! * [`Amps`] × [`Seconds`] → [`Charge`] (and [`Charge`] ÷ [`Seconds`] → [`Amps`])
//! * [`Energy`] ÷ [`Charge`] → [`Volts`]
//!
//! The [`CurrentRange`] type models a fuel cell's *load-following range*
//! (the interval of output currents the stack can track).
//!
//! # What the compiler rejects
//!
//! `Add` and `Sub` are implemented for `Self` only, so mixing two
//! dimensions does not compile:
//!
//! ```compile_fail,E0308
//! use fcdpm_units::{Amps, Seconds};
//! let _ = Amps::new(1.0) + Seconds::new(1.0);
//! ```
//!
//! ```compile_fail,E0308
//! use fcdpm_units::{Seconds, Watts};
//! let _ = Watts::new(1.0) - Seconds::new(1.0);
//! ```
//!
//! The magnitude field is private, so `.0` cannot strip the unit outside
//! this crate; the named accessor keeps the dimension in view:
//!
//! ```compile_fail,E0616
//! use fcdpm_units::Amps;
//! let _: f64 = Amps::new(1.0).0;
//! ```
//!
//! Same-dimension arithmetic compiles, and so does a mix of two raw
//! accessors, which are both `f64`. The compiler cannot see that last
//! mistake; in the physics crates `fcdpm analyze`'s `unit-dataflow`
//! rule flags it.
//!
//! ```
//! use fcdpm_units::{Amps, Seconds, Watts};
//! let (i, t) = (Amps::new(1.0), Seconds::new(1.0));
//! assert_eq!((i + i).amps(), 2.0);
//! assert_eq!((Watts::new(3.0) - Watts::new(1.0)).watts(), 2.0);
//! let compiles: f64 = i.amps() + t.seconds();
//! assert_eq!(compiles, 2.0);
//! ```
//!
//! Stable rustdoc does not check the error codes on `compile_fail`
//! blocks; `RUSTC_BOOTSTRAP=1 cargo test -p fcdpm-units --doc` does.

#[macro_use]
mod macros;

mod charge;
mod efficiency;
mod electrical;
mod energy;
mod range;
mod time;

pub use charge::Charge;
pub use efficiency::{Efficiency, EfficiencyError};
pub use electrical::{Amps, Volts, Watts};
pub use energy::Energy;
pub use range::CurrentRange;
pub use time::Seconds;
