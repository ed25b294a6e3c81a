//! Task-slot workloads for DPM studies.
//!
//! The load timing profile of a DPM-enabled system is "a sequence of task
//! slots; each task slot consists of an idle period followed by an active
//! period" (Section 3.1 of *Zhuo et al., DAC 2007*). This crate provides:
//!
//! * [`TaskSlot`] / [`Trace`] — the slot sequence with (de)serialization
//!   and summary statistics;
//! * [`CamcorderTrace`] — a seeded generator reproducing the statistics of
//!   the paper's Experiment-1 workload: a DVD camcorder encoding MPEG and
//!   writing it to disc (fixed 3.03 s active periods from the 16 MB buffer
//!   and 5.28 MB/s writer; 8–20 s idle periods driven by a slowly varying
//!   scene-complexity process);
//! * [`SyntheticTrace`] — the paper's Experiment-2 workload: idle
//!   `U[5 s, 25 s]`, active `U[2 s, 4 s]`, active power `U[12 W, 16 W]`;
//! * [`Scenario`] — a trace bundled with the matching device spec and the
//!   paper's policy parameters, with presets for both experiments.
//!
//! # Example
//!
//! ```
//! use fcdpm_workload::CamcorderTrace;
//!
//! let trace = CamcorderTrace::dac07().seed(7).build();
//! // 28-minute horizon, ~3 s active, 8–20 s idle.
//! assert!(trace.total_duration().minutes() >= 28.0);
//! for slot in trace.slots() {
//!     assert!((8.0..=20.0).contains(&slot.idle.seconds()));
//!     assert!((slot.active.seconds() - 3.03).abs() < 0.01);
//! }
//! ```

mod camcorder;
mod pareto;
mod profile;
mod scenario;
mod slot;
mod stats;
mod synthetic;
mod transforms;

pub use camcorder::CamcorderTrace;
pub use pareto::ParetoTrace;
pub use profile::{LoadPoint, LoadProfile};
pub use scenario::Scenario;
pub use slot::{ParseTraceError, TaskSlot, Trace};
pub use stats::{SeriesStats, TraceStats};
pub use synthetic::SyntheticTrace;
pub use transforms::{aggregate_idles, AggregatedTrace};
