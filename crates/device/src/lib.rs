//! DPM-enabled embedded-device models.
//!
//! The embedded system of *Zhuo et al., DAC 2007* exposes three power
//! modes — RUN, STANDBY and SLEEP — with timed, energy-costly transitions
//! between them (Figure 6). This crate models:
//!
//! * [`PowerMode`] — the mode lattice and its legal transitions;
//! * [`DeviceSpec`] — a device's power/current table, transition
//!   overheads and the derived DPM *break-even time* `T_be` (the minimum
//!   idle length for which sleeping pays off);
//! * [`PowerStateMachine`] — an event-checked state machine used to
//!   validate simulated schedules;
//! * [`SlotTimeline`] — the piecewise-constant load-current timeline of
//!   one task slot (idle + active) under a given sleep decision, which is
//!   what the hybrid-source simulator integrates;
//! * [`presets`] — the paper's DVD camcorder (Experiment 1) and the
//!   randomized Experiment 2 device.
//!
//! # Example
//!
//! ```
//! use fcdpm_device::presets;
//!
//! let camcorder = presets::dvd_camcorder();
//! // Figure 6 / Section 5.1: the camcorder's break-even time is ≈ 1 s.
//! assert!((camcorder.break_even_time().seconds() - 1.0).abs() < 0.05);
//! ```

mod fsm;
mod mode;
pub mod presets;
mod spec;
mod timeline;

pub use fsm::{PowerStateMachine, TransitionError};
pub use mode::PowerMode;
pub use spec::{DeviceSpec, DeviceSpecBuilder, SpecError};
pub use timeline::{Segment, SegmentKind, SleepDirective, SlotTimeline};
