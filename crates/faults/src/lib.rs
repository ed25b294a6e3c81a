//! Deterministic fault injection for the hybrid power source.
//!
//! The DAC'07 models assume a permanently healthy system: the linear
//! efficiency characterization `η_s = α − β·I_F` holds for the whole
//! trace, every setpoint in the load-following range stays feasible, the
//! storage element keeps its nameplate capacity, and the idle-length
//! predictor never loses its sensor feed. Real stacks age and real
//! sensors drop out, so this crate adds a seeded, serializable fault
//! model the simulator can apply mid-run:
//!
//! * [`FaultKind::EfficiencyFade`] — the stack characterization drifts:
//!   `α` shrinks and `β` steepens, so every delivered ampere costs more
//!   fuel;
//! * [`FaultKind::FuelStarvation`] — a timed window during which the
//!   stack cannot deliver its full range: the effective upper bound of
//!   the load-following range drops;
//! * [`FaultKind::StorageFade`] — the storage element permanently loses
//!   a fraction of its usable capacity;
//! * [`FaultKind::SelfDischarge`] — a parasitic leak current drains the
//!   storage element for the rest of the run;
//! * [`FaultKind::PredictorDropout`] — a timed window during which the
//!   DPM layer's idle-length prediction is unavailable;
//! * [`FaultKind::PredictorNoise`] — a timed window during which the
//!   prediction is multiplied by deterministic, seed-keyed noise.
//!
//! A [`FaultSchedule`] is a plain data object (serde round-trippable, so
//! it can ride along in job specs and manifests); [`FaultState`] is the
//! runtime the simulator drives: it applies events as simulated time
//! passes ([`FaultState::advance_to`]) and exposes the *next* instant at
//! which the fault picture changes ([`FaultState::next_boundary`]) so
//! integration can split exactly at fault boundaries — the
//! chunk-coalescing fast path and the per-chunk reference path then see
//! identical span edges and agree to float tolerance under active
//! faults.
//!
//! Everything here is deterministic: the only randomness is the
//! splitmix64-keyed predictor noise, derived from the schedule's seed
//! and the slot index, so the same schedule replays bit-identically on
//! any worker count.
//!
//! # Example
//!
//! ```
//! use fcdpm_faults::{FaultEvent, FaultKind, FaultSchedule, FaultState, FuelStarvation};
//! use fcdpm_units::{CurrentRange, Seconds};
//!
//! let schedule = FaultSchedule {
//!     seed: 0xDAC0_2007,
//!     events: vec![FaultEvent {
//!         at_s: 60.0,
//!         kind: FaultKind::FuelStarvation(FuelStarvation {
//!             until_s: 120.0,
//!             max_a: 0.5,
//!         }),
//!     }],
//! };
//! assert!(schedule.validate().is_ok());
//! let mut state = FaultState::new(&schedule);
//! assert_eq!(state.advance_to(Seconds::new(60.0)), 1);
//! let range = state.effective_range(CurrentRange::dac07());
//! assert_eq!(range.max().amps(), 0.5);
//! // The starvation window ends at 120 s — the next fault boundary.
//! assert_eq!(state.next_boundary(Seconds::new(60.0)), Some(Seconds::new(120.0)));
//! ```

mod schedule;
mod state;

pub use schedule::{
    EfficiencyFade, FaultError, FaultEvent, FaultKind, FaultSchedule, FuelStarvation,
    PredictorDropout, PredictorNoise, SelfDischarge, StorageFade,
};
pub use state::FaultState;
