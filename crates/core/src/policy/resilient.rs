//! Graceful degradation: a health-aware wrapper around any FC policy.

use fcdpm_units::{Amps, Charge, CurrentRange, Seconds};

use super::{
    ActiveStart, FcOutputPolicy, OperatingConditions, PolicyPhase, ResilienceStatus, SegmentPlan,
    SlotEnd, SlotStart,
};

/// Storage fraction treated as the depletion rail: below it the wrapper
/// abandons the inner policy regardless of the range picture.
const DEPLETION_SOC: f64 = 0.1;
/// With a shrunken range, reserve below this fraction triggers the fall
/// back to max-current recharging.
const FALLBACK_ENTER_SOC: f64 = 0.45;
/// In fallback, reserve above this fraction switches from max-current
/// to load following (recharged; stop bleeding energy).
const LOADFOLLOW_ENTER_SOC: f64 = 0.95;
/// In load following, reserve below this fraction switches back to
/// max-current recharging.
const LOADFOLLOW_EXIT_SOC: f64 = 0.5;
/// Consecutive slots without a healthy predictor feed before the
/// wrapper stops trusting prediction-driven planning.
const PREDICTOR_FAIL_SLOTS: u32 = 3;

/// Where on the degradation ladder the wrapper currently operates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResilienceMode {
    /// Nominal: delegate to the inner policy, re-clamping its setpoints
    /// to the effective range.
    Inner,
    /// Conv-DPM-like fallback: pin the effective maximum current to
    /// rebuild the storage reserve as fast as the source allows.
    MaxCurrent,
    /// ASAP-like load following on the effective range, used once the
    /// reserve is rebuilt so the bleeder stops burning fuel.
    LoadFollow,
}

impl ResilienceMode {
    /// Position on the ladder (0 = nominal); transitions to a larger
    /// rank are degradations.
    fn rank(self) -> u8 {
        match self {
            ResilienceMode::Inner => 0,
            ResilienceMode::MaxCurrent => 1,
            ResilienceMode::LoadFollow => 2,
        }
    }
}

/// Wraps any [`FcOutputPolicy`] with infeasibility detection and a
/// graceful-degradation ladder.
///
/// The wrapper watches the [`OperatingConditions`] the simulator
/// reports (effective load-following range, predictor health, storage
/// reserve) and walks the ladder FC-DPM → Conv-DPM → load following:
///
/// 1. **Inner** — conditions nominal, or the range is shrunken but the
///    reserve is healthy: delegate, re-clamping the inner policy's
///    (Lagrange) setpoints into the effective range.
/// 2. **MaxCurrent** — the reserve is draining under a shrunken range,
///    the storage is at the depletion rail, or the predictor feed has
///    been dead for several slots: pin the effective maximum current
///    (Conv-DPM on the shrunken range) to rebuild reserve.
/// 3. **LoadFollow** — reserve rebuilt while the fault persists: follow
///    the load within the effective range (ASAP-like) so the full
///    storage stops bleeding; drop back to MaxCurrent when the reserve
///    drains again.
///
/// Mode changes happen only at lifecycle points (`begin_slot`,
/// `begin_active`, `observe_conditions`), so a returned segment plan
/// stays valid until the next lifecycle call. Every
/// downward transition is counted and reported via
/// [`resilience`](FcOutputPolicy::resilience); the inner policy keeps
/// receiving the full lifecycle in every mode so its predictors stay
/// warm for recovery.
#[derive(Debug)]
pub struct ResilientPolicy {
    inner: Box<dyn FcOutputPolicy + Send>,
    name: String,
    conditions: OperatingConditions,
    predictor_fail_streak: u32,
    mode: ResilienceMode,
    degradations: u64,
}

impl ResilientPolicy {
    /// Wraps `inner`, assuming nominal conditions over `base_range`
    /// until the simulator reports otherwise.
    #[must_use]
    pub fn new(inner: Box<dyn FcOutputPolicy + Send>, base_range: CurrentRange) -> Self {
        let name = format!("Resilient({})", inner.name());
        Self {
            inner,
            name,
            conditions: OperatingConditions::nominal(base_range, 0.5),
            predictor_fail_streak: 0,
            mode: ResilienceMode::Inner,
            degradations: 0,
        }
    }

    /// The current ladder position.
    #[must_use]
    pub fn mode(&self) -> ResilienceMode {
        self.mode
    }

    /// Downward ladder transitions taken so far.
    #[must_use]
    pub fn degradations(&self) -> u64 {
        self.degradations
    }

    fn effective(&self) -> CurrentRange {
        self.conditions.effective_range
    }

    /// Whether conditions warrant leaving the inner policy.
    fn infeasible(&self) -> bool {
        let c = &self.conditions;
        (c.shrunken() && c.soc_fraction < FALLBACK_ENTER_SOC)
            || c.soc_fraction < DEPLETION_SOC
            || self.predictor_fail_streak >= PREDICTOR_FAIL_SLOTS
    }

    /// Whether conditions allow returning to the inner policy.
    fn recovered(&self) -> bool {
        let c = &self.conditions;
        !c.shrunken()
            && c.predictor_ok
            && self.predictor_fail_streak < PREDICTOR_FAIL_SLOTS
            && c.soc_fraction >= DEPLETION_SOC
    }

    /// Re-evaluates the ladder position. Called only at lifecycle
    /// points so segment plans stay valid within segments.
    fn reevaluate(&mut self) {
        let soc = self.conditions.soc_fraction;
        let target = match self.mode {
            ResilienceMode::Inner => {
                if self.infeasible() {
                    ResilienceMode::MaxCurrent
                } else {
                    ResilienceMode::Inner
                }
            }
            ResilienceMode::MaxCurrent => {
                if self.recovered() {
                    ResilienceMode::Inner
                } else if soc > LOADFOLLOW_ENTER_SOC {
                    ResilienceMode::LoadFollow
                } else {
                    ResilienceMode::MaxCurrent
                }
            }
            ResilienceMode::LoadFollow => {
                if self.recovered() {
                    ResilienceMode::Inner
                } else if soc < LOADFOLLOW_EXIT_SOC {
                    ResilienceMode::MaxCurrent
                } else {
                    ResilienceMode::LoadFollow
                }
            }
        };
        if target.rank() > self.mode.rank() {
            self.degradations += 1;
        }
        self.mode = target;
    }
}

impl FcOutputPolicy for ResilientPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_slot(&mut self, start: &SlotStart) {
        if self.conditions.predictor_ok {
            self.predictor_fail_streak = 0;
        } else {
            self.predictor_fail_streak = self.predictor_fail_streak.saturating_add(1);
        }
        self.reevaluate();
        self.inner.begin_slot(start);
    }

    fn begin_active(&mut self, start: &ActiveStart) {
        self.reevaluate();
        self.inner.begin_active(start);
    }

    fn begin_segment(
        &mut self,
        phase: PolicyPhase,
        load: Amps,
        soc: Charge,
        remaining: Seconds,
    ) -> SegmentPlan {
        match self.mode {
            // Delegate the plan, re-clamping its currents to the
            // effective range (thresholds are SoC levels; they pass
            // through unchanged).
            ResilienceMode::Inner => {
                let effective = self.effective();
                self.inner
                    .begin_segment(phase, load, soc, remaining)
                    .map_current(|i| effective.clamp(i))
            }
            ResilienceMode::MaxCurrent => SegmentPlan::Steady(self.effective().max()),
            ResilienceMode::LoadFollow => SegmentPlan::Steady(self.effective().clamp(load)),
        }
    }

    fn end_slot(&mut self, end: &SlotEnd) {
        self.inner.end_slot(end);
    }

    fn observe_conditions(&mut self, conditions: &OperatingConditions) {
        self.conditions = *conditions;
        self.reevaluate();
        self.inner.observe_conditions(conditions);
    }

    fn resilience(&self) -> Option<ResilienceStatus> {
        Some(ResilienceStatus {
            degraded: self.mode != ResilienceMode::Inner,
            degradations: self.degradations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ConvDpm;
    use fcdpm_device::SleepDirective;

    fn conditions(
        effective: CurrentRange,
        base: CurrentRange,
        predictor_ok: bool,
        soc_fraction: f64,
    ) -> OperatingConditions {
        OperatingConditions {
            effective_range: effective,
            base_range: base,
            predictor_ok,
            soc_fraction,
        }
    }

    /// The planned setpoint for a segment at `load` and `soc`.
    fn current(p: &mut ResilientPolicy, phase: PolicyPhase, load: f64, soc: f64) -> Amps {
        p.begin_segment(phase, Amps::new(load), Charge::new(soc), Seconds::new(1.0))
            .current()
    }

    fn wrapped() -> ResilientPolicy {
        ResilientPolicy::new(Box::new(ConvDpm::dac07()), CurrentRange::dac07())
    }

    fn slot(index: usize) -> SlotStart {
        SlotStart {
            index,
            directive: SleepDirective::SleepImmediately,
            predicted_idle: Some(Seconds::new(10.0)),
            soc: Charge::new(3.0),
        }
    }

    #[test]
    fn nominal_conditions_delegate_transparently() {
        let base = CurrentRange::dac07();
        let mut p = wrapped();
        p.observe_conditions(&OperatingConditions::nominal(base, 0.5));
        assert_eq!(p.mode(), ResilienceMode::Inner);
        // Conv-DPM pins 1.2 A; the wrapper passes it through.
        let plan = p.begin_segment(
            PolicyPhase::Idle,
            Amps::new(0.2),
            Charge::new(3.0),
            Seconds::new(1.0),
        );
        assert_eq!(plan, SegmentPlan::Steady(Amps::new(1.2)));
        assert_eq!(p.degradations(), 0);
        let status = p.resilience().unwrap();
        assert!(!status.degraded);
    }

    #[test]
    fn shrunken_range_with_healthy_reserve_reclamps_only() {
        let base = CurrentRange::dac07();
        let shrunk = CurrentRange::new(base.min(), Amps::new(0.5));
        let mut p = wrapped();
        p.observe_conditions(&conditions(shrunk, base, true, 0.6));
        // Reserve healthy: stay on the inner policy, re-clamped.
        assert_eq!(p.mode(), ResilienceMode::Inner);
        let i = current(&mut p, PolicyPhase::Idle, 0.2, 3.0);
        assert_eq!(i, Amps::new(0.5));
        assert_eq!(p.degradations(), 0);
    }

    #[test]
    fn draining_reserve_under_shrunken_range_degrades_to_max_current() {
        let base = CurrentRange::dac07();
        let shrunk = CurrentRange::new(base.min(), Amps::new(0.5));
        let mut p = wrapped();
        p.observe_conditions(&conditions(shrunk, base, true, 0.3));
        assert_eq!(p.mode(), ResilienceMode::MaxCurrent);
        assert_eq!(p.degradations(), 1);
        assert!(p.resilience().unwrap().degraded);
        // Pins the effective max in both phases.
        assert_eq!(
            current(&mut p, PolicyPhase::Active, 1.2, 0.5),
            Amps::new(0.5)
        );
        assert_eq!(current(&mut p, PolicyPhase::Idle, 0.2, 0.5), Amps::new(0.5));
    }

    #[test]
    fn recharged_reserve_moves_to_load_follow_with_hysteresis() {
        let base = CurrentRange::dac07();
        let shrunk = CurrentRange::new(base.min(), Amps::new(0.5));
        let mut p = wrapped();
        p.observe_conditions(&conditions(shrunk, base, true, 0.3));
        assert_eq!(p.mode(), ResilienceMode::MaxCurrent);
        // Recharged above the enter threshold: load following.
        p.observe_conditions(&conditions(shrunk, base, true, 0.97));
        assert_eq!(p.mode(), ResilienceMode::LoadFollow);
        assert_eq!(p.degradations(), 2);
        let i = current(&mut p, PolicyPhase::Idle, 0.2, 5.8);
        assert_eq!(i, Amps::new(0.2));
        // Mild drain keeps load following (hysteresis)…
        p.observe_conditions(&conditions(shrunk, base, true, 0.7));
        assert_eq!(p.mode(), ResilienceMode::LoadFollow);
        // …until the reserve really drops.
        p.observe_conditions(&conditions(shrunk, base, true, 0.4));
        assert_eq!(p.mode(), ResilienceMode::MaxCurrent);
        // Climbing back up is not a degradation.
        assert_eq!(p.degradations(), 2);
    }

    #[test]
    fn depletion_rail_degrades_even_at_full_range() {
        let base = CurrentRange::dac07();
        let mut p = wrapped();
        p.observe_conditions(&conditions(base, base, true, 0.05));
        assert_eq!(p.mode(), ResilienceMode::MaxCurrent);
        assert_eq!(p.degradations(), 1);
    }

    #[test]
    fn persistent_predictor_failure_degrades_after_three_slots() {
        let base = CurrentRange::dac07();
        let mut p = wrapped();
        for k in 0..3 {
            p.observe_conditions(&conditions(base, base, false, 0.6));
            p.begin_slot(&slot(k));
        }
        assert_eq!(p.mode(), ResilienceMode::MaxCurrent);
        assert_eq!(p.degradations(), 1);
        // Feed restored: streak resets, next slot recovers.
        p.observe_conditions(&conditions(base, base, true, 0.6));
        p.begin_slot(&slot(3));
        assert_eq!(p.mode(), ResilienceMode::Inner);
        assert_eq!(p.degradations(), 1);
    }

    #[test]
    fn fault_cleared_recovers_to_inner() {
        let base = CurrentRange::dac07();
        let shrunk = CurrentRange::new(base.min(), Amps::new(0.5));
        let mut p = wrapped();
        p.observe_conditions(&conditions(shrunk, base, true, 0.2));
        assert_eq!(p.mode(), ResilienceMode::MaxCurrent);
        p.observe_conditions(&conditions(base, base, true, 0.6));
        assert_eq!(p.mode(), ResilienceMode::Inner);
        let i = current(&mut p, PolicyPhase::Idle, 0.2, 3.6);
        assert_eq!(i, Amps::new(1.2));
    }

    #[test]
    fn name_reflects_inner() {
        assert_eq!(wrapped().name(), "Resilient(Conv-DPM)");
    }
}
