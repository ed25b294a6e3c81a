//! FC output-current policies (Section 5's three contenders).
//!
//! A policy decides, segment by segment, what current the fuel-cell system
//! should deliver while the simulator plays a slot's load timeline:
//!
//! * [`ConvDpm`] — no fuel-flow control: the FC is pinned at the top of
//!   its load-following range;
//! * [`AsapDpm`] — the FC follows the load as closely as the range
//!   allows, and recharges the storage at full current whenever it drops
//!   below half capacity;
//! * [`FcDpm`] — the paper's contribution: the fuel-optimal averaged
//!   current from the Section-3 optimizer, driven by the Section-4
//!   predictors.
//!
//! The simulator drives the [`FcOutputPolicy`] lifecycle: `begin_slot` at
//! each idle-period start (with the DPM layer's sleep decision and idle
//! prediction), `begin_active` when the task arrives and the actual active
//! demand becomes known, `begin_segment` for every constant-load stretch
//! (returning a [`SegmentPlan`] the simulator integrates in closed form),
//! and `end_slot` with the observed values. `begin_segment` is the only
//! decision hook: a policy never sees individual control chunks.

mod asap;
mod conv;
mod fcdpm;
mod quantized;
mod resilient;
mod windowed;

pub use asap::AsapDpm;
pub use conv::ConvDpm;
pub use fcdpm::FcDpm;
pub use quantized::{OutputLevels, Quantized};
pub use resilient::{ResilienceMode, ResilientPolicy};
pub use windowed::WindowedAverage;

use fcdpm_device::SleepDirective;
use fcdpm_units::{Amps, Charge, CurrentRange, Seconds};

/// Which phase of the slot a segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyPhase {
    /// The idle phase (standby, or power-down + sleep).
    Idle,
    /// The active phase (wake-up onward).
    Active,
}

/// Information available when a slot's idle period begins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotStart {
    /// Zero-based slot index.
    pub index: usize,
    /// The DPM layer's directive for this idle period.
    pub directive: SleepDirective,
    /// The DPM layer's idle-length prediction `T'_i` (None while cold).
    pub predicted_idle: Option<Seconds>,
    /// Storage state of charge right now.
    pub soc: Charge,
}

/// Information available when the task arrives and the active phase
/// begins. The task's size is known on arrival, so the active phase's
/// wall-clock length and total load charge are actuals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveStart {
    /// Wall-clock length of the whole active phase (wake-up, start-up,
    /// run, shut-down).
    pub duration: Seconds,
    /// Total load charge of the active phase.
    pub charge: Charge,
    /// Storage state of charge right now.
    pub soc: Charge,
}

/// Observed values at the end of a slot, for predictor updates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotEnd {
    /// The actual idle length `T_i` of the slot just finished.
    pub t_idle: Seconds,
    /// The actual (nominal) active length `T_a`.
    pub t_active: Seconds,
    /// The actual run current `I_ld,a`.
    pub i_active: Amps,
    /// Storage state of charge at the slot boundary.
    pub soc: Charge,
}

/// The operating conditions of the hybrid source as the simulator
/// currently sees them — reported to policies so health-aware wrappers
/// such as [`ResilientPolicy`] can detect infeasibility and degrade
/// gracefully. Without fault injection the conditions are permanently
/// nominal and the simulator never reports them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingConditions {
    /// The load-following range currently feasible (equal to
    /// `base_range` while the source is healthy; shrunken under a
    /// fuel-starvation fault).
    pub effective_range: CurrentRange,
    /// The nominal load-following range.
    pub base_range: CurrentRange,
    /// Whether the DPM layer's idle-length predictor feed is healthy.
    pub predictor_ok: bool,
    /// Storage state of charge as a fraction of (effective) capacity.
    pub soc_fraction: f64,
}

impl OperatingConditions {
    /// Nominal conditions for a given range: full range, healthy
    /// predictor, the given state of charge.
    #[must_use]
    pub fn nominal(range: CurrentRange, soc_fraction: f64) -> Self {
        Self {
            effective_range: range,
            base_range: range,
            predictor_ok: true,
            soc_fraction,
        }
    }

    /// Whether the effective range is currently narrower than nominal.
    #[must_use]
    pub fn shrunken(&self) -> bool {
        self.effective_range != self.base_range
    }
}

/// A segment-scoped integration plan, returned by
/// [`FcOutputPolicy::begin_segment`].
///
/// A plan describes the policy's output over (a prefix of) the segment
/// about to play, in a form the simulator integrates in closed form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegmentPlan {
    /// One constant setpoint for the remainder of the segment.
    Steady(Amps),
    /// A constant setpoint that holds until the storage state of charge
    /// crosses `threshold`, at which point the simulator calls
    /// `begin_segment` again (with the segment's remaining duration) so
    /// the policy can re-plan from its advanced state machine.
    UntilSocCrossing {
        /// The setpoint to hold until the crossing.
        current: Amps,
        /// The state-of-charge level whose crossing ends this plan.
        threshold: Charge,
        /// `true` if the plan ends when the SoC falls *to* `threshold`
        /// from above, `false` if it ends when the SoC rises to it from
        /// below. If the net current moves the SoC away from the
        /// threshold (or holds it), the plan simply runs to the end of
        /// the segment.
        falling: bool,
    },
}

impl SegmentPlan {
    /// The setpoint the plan holds.
    #[must_use]
    pub fn current(self) -> Amps {
        match self {
            SegmentPlan::Steady(i) | SegmentPlan::UntilSocCrossing { current: i, .. } => i,
        }
    }

    /// The same plan with its setpoint mapped through `f`; a crossing
    /// threshold (a state-of-charge level) passes through unchanged.
    #[must_use]
    pub fn map_current(self, f: impl FnOnce(Amps) -> Amps) -> Self {
        match self {
            SegmentPlan::Steady(i) => SegmentPlan::Steady(f(i)),
            SegmentPlan::UntilSocCrossing {
                current,
                threshold,
                falling,
            } => SegmentPlan::UntilSocCrossing {
                current: f(current),
                threshold,
                falling,
            },
        }
    }
}

/// A degradation-aware policy's self-report, polled by the simulator to
/// attribute wall-clock time to fallback operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceStatus {
    /// Whether the policy is currently operating degraded (not
    /// delegating to its nominal strategy).
    pub degraded: bool,
    /// Downward ladder transitions taken so far.
    pub degradations: u64,
}

/// An FC output-current policy driven by the hybrid-source simulator.
pub trait FcOutputPolicy: core::fmt::Debug {
    /// Short policy name for reports ("Conv-DPM", "ASAP-DPM", "FC-DPM").
    fn name(&self) -> &str;

    /// Called at each idle-period start.
    fn begin_slot(&mut self, _start: &SlotStart) {}

    /// Called when the task arrives and the active phase begins.
    fn begin_active(&mut self, _start: &ActiveStart) {}

    /// Opens a constant-load segment and returns its integration plan.
    ///
    /// The simulator calls this once at the start of every constant-load
    /// stretch (merging equal-load neighbors first), again at the start
    /// of every fault-boundary span inside it, and again whenever a
    /// [`SegmentPlan::UntilSocCrossing`] plan's threshold is reached —
    /// each time with the stretch's *remaining* duration. Between two
    /// `begin_segment` calls the simulator integrates the returned plan
    /// in closed form.
    ///
    /// Like the other lifecycle hooks this may advance per-segment state
    /// (an EWMA update, a hysteresis flip) before returning.
    fn begin_segment(
        &mut self,
        phase: PolicyPhase,
        load: Amps,
        soc: Charge,
        remaining: Seconds,
    ) -> SegmentPlan;

    /// Called at each slot end with the observed values.
    fn end_slot(&mut self, _end: &SlotEnd) {}

    /// Reports the current operating conditions of the hybrid source.
    ///
    /// The simulator calls this at every point where the conditions can
    /// have changed (slot starts and fault-boundary span starts), and
    /// only when fault injection is configured. Like the other
    /// lifecycle hooks this is a legal place to change strategy; a
    /// returned plan needs to stay valid only until the next lifecycle
    /// call.
    fn observe_conditions(&mut self, _conditions: &OperatingConditions) {}

    /// Degradation self-report for health-aware wrappers; `None` (the
    /// default) for ordinary policies, which are never degraded.
    fn resilience(&self) -> Option<ResilienceStatus> {
        None
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn plan(p: &mut dyn FcOutputPolicy, phase: PolicyPhase, load: f64, soc: f64) -> SegmentPlan {
        p.begin_segment(phase, Amps::new(load), Charge::new(soc), Seconds::new(10.0))
    }

    #[test]
    fn policies_are_object_safe() {
        let mut policies: Vec<Box<dyn FcOutputPolicy>> = vec![
            Box::new(ConvDpm::dac07()),
            Box::new(AsapDpm::dac07(Charge::new(6.0))),
        ];
        for p in &mut policies {
            let i = plan(p.as_mut(), PolicyPhase::Idle, 0.2, 3.0).current();
            assert!(i >= Amps::new(0.1) && i <= Amps::new(1.2));
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn conv_plans_a_steady_pinned_setpoint() {
        let mut conv = ConvDpm::dac07();
        for (phase, load, soc) in [
            (PolicyPhase::Idle, 0.2, 3.0),
            (PolicyPhase::Active, 1.22, 0.0),
        ] {
            assert_eq!(
                plan(&mut conv, phase, load, soc),
                SegmentPlan::Steady(Amps::new(1.2))
            );
        }
    }

    #[test]
    fn asap_plans_a_soc_crossing() {
        // ASAP-DPM's recharge trigger watches the mid-segment SoC; its
        // plan carries the trigger as an analytic crossing.
        let mut asap = AsapDpm::dac07(Charge::new(6.0));
        match plan(&mut asap, PolicyPhase::Active, 0.8, 5.0) {
            SegmentPlan::UntilSocCrossing {
                current,
                threshold,
                falling,
            } => {
                assert_eq!(current, Amps::new(0.8));
                assert_eq!(threshold, Charge::new(3.0));
                assert!(falling);
            }
            other => panic!("expected a crossing plan, got {other:?}"),
        }
    }

    #[test]
    fn map_current_keeps_the_threshold() {
        let crossing = SegmentPlan::UntilSocCrossing {
            current: Amps::new(0.5),
            threshold: Charge::new(2.0),
            falling: true,
        };
        let mapped = crossing.map_current(|i| i * 2.0);
        assert_eq!(mapped.current(), Amps::new(1.0));
        assert_eq!(
            mapped,
            SegmentPlan::UntilSocCrossing {
                current: Amps::new(1.0),
                threshold: Charge::new(2.0),
                falling: true,
            }
        );
        assert_eq!(
            SegmentPlan::Steady(Amps::new(0.3)).map_current(|_| Amps::new(0.4)),
            SegmentPlan::Steady(Amps::new(0.4))
        );
    }
}
