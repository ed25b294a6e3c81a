//! Planned sleep schedules: the DPM half of a run, decided once.
//!
//! The DPM layer's sleep decisions depend only on the trace, the device
//! and the idle predictor — never on the FC output policy or the
//! storage element, which take the device's power-state sequence as
//! given. [`HybridSimulator::plan`](crate::HybridSimulator::plan)
//! therefore replays the sleep policy once into a [`SlotSchedule`], and
//! [`HybridSimulator::run_schedule`](crate::HybridSimulator::run_schedule)
//! integrates any number of policy × storage runs from it.

use fcdpm_core::dpm::SleepDecision;
use fcdpm_units::{Amps, Seconds};

/// One planned slot: the sleep decision and the facts the integrator
/// reads from the slot's timeline besides its segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlannedSlot {
    /// The sleep policy's decision, before any fault perturbs the
    /// prediction.
    pub(crate) decision: SleepDecision,
    /// The nominal idle length from the trace.
    pub(crate) t_idle: Seconds,
    /// The nominal active length from the trace.
    pub(crate) t_active: Seconds,
    /// The bus current while running this slot's task.
    pub(crate) i_active: Amps,
    /// Delay between the task's arrival and the device running it.
    pub(crate) task_latency: Seconds,
    /// Whether the timeline sleeps.
    pub(crate) slept: bool,
    /// Where the slot's active phase starts in [`SlotSchedule::segments`]:
    /// a timeline plays its whole idle phase first.
    pub(crate) active_start: usize,
    /// One past the slot's last segment in [`SlotSchedule::segments`].
    pub(crate) segments_end: usize,
}

/// One timeline segment as the integrator reads it: its phase is given
/// by its position in the slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlannedSegment {
    /// How long the segment lasts.
    pub(crate) duration: Seconds,
    /// The bus current the device draws throughout.
    pub(crate) load: Amps,
}

/// A planned sleep schedule: per slot of a trace, the sleep decision,
/// the active current and the slot's timeline segments, stored flat.
///
/// Built by [`HybridSimulator::plan`](crate::HybridSimulator::plan) for
/// one device, trace and sleep policy; replayed by
/// [`HybridSimulator::run_schedule`](crate::HybridSimulator::run_schedule)
/// on any simulator over the same device. The segments are the
/// timelines' own, unmerged, so a recorded run keeps its recorder-horizon
/// boundaries. The default schedule is empty, a buffer for
/// [`HybridSimulator::plan_into`](crate::HybridSimulator::plan_into).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotSchedule {
    pub(crate) slots: Vec<PlannedSlot>,
    pub(crate) segments: Vec<PlannedSegment>,
}

impl SlotSchedule {
    /// Number of planned slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the schedule plans no slot.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}
