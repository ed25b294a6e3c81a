//! ASAP load-following baseline.

use fcdpm_units::{Amps, Charge, CurrentRange, Seconds};

use super::{FcOutputPolicy, PolicyPhase, SegmentPlan};

/// ASAP-DPM (Section 5): the FC system output follows the load current as
/// closely as the load-following range allows. When the load exceeds the
/// range, the storage element supplies the difference; and "if the state
/// of the charge storage drops below half its capacity, it is recharged to
/// full capacity as soon as possible by letting the FC deliver the highest
/// current".
///
/// The recharge trigger is hysteretic: it arms below half capacity and
/// disarms once the store is full again (within a small tolerance), which
/// is what "as soon as possible ... in the successive task slots" amounts
/// to at segment granularity.
///
/// # Examples
///
/// ```
/// use fcdpm_core::policy::{AsapDpm, FcOutputPolicy, PolicyPhase};
/// use fcdpm_units::{Amps, Charge, Seconds};
///
/// let mut p = AsapDpm::dac07(Charge::new(6.0));
/// let span = Seconds::new(5.0);
/// // Following a mid-range load.
/// let plan = p.begin_segment(PolicyPhase::Idle, Amps::new(0.4), Charge::new(5.0), span);
/// assert_eq!(plan.current(), Amps::new(0.4));
/// // Store below half capacity: recharge at full current.
/// let plan = p.begin_segment(PolicyPhase::Idle, Amps::new(0.4), Charge::new(2.0), span);
/// assert_eq!(plan.current(), Amps::new(1.2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AsapDpm {
    range: CurrentRange,
    capacity: Charge,
    recharging: bool,
    full_tolerance: Charge,
}

impl AsapDpm {
    /// Creates the policy over a load-following range for a storage
    /// element of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is negative.
    #[must_use]
    #[track_caller]
    pub fn new(range: CurrentRange, capacity: Charge) -> Self {
        assert!(!capacity.is_negative(), "capacity must be non-negative");
        Self {
            range,
            capacity,
            recharging: false,
            full_tolerance: capacity * 1e-3,
        }
    }

    /// The paper's configuration (`[0.1 A, 1.2 A]`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is negative.
    #[must_use]
    pub fn dac07(capacity: Charge) -> Self {
        Self::new(CurrentRange::dac07(), capacity)
    }

    /// Whether the recharge mode is currently armed.
    #[must_use]
    pub fn is_recharging(&self) -> bool {
        self.recharging
    }
}

impl FcOutputPolicy for AsapDpm {
    fn name(&self) -> &str {
        "ASAP-DPM"
    }

    fn begin_segment(
        &mut self,
        _phase: PolicyPhase,
        load: Amps,
        soc: Charge,
        _remaining: Seconds,
    ) -> SegmentPlan {
        // The hysteresis is evaluated at the plan boundary. The returned
        // crossing threshold is exactly the level at which the *next*
        // evaluation flips the mode, so the simulator's analytic crossing
        // split fires the trigger mid-segment without polling.
        if soc < self.capacity * 0.5 {
            self.recharging = true;
        } else if self.capacity - soc <= self.full_tolerance {
            self.recharging = false;
        }
        if self.recharging {
            SegmentPlan::UntilSocCrossing {
                current: self.range.max(),
                threshold: self.capacity - self.full_tolerance,
                falling: false,
            }
        } else {
            SegmentPlan::UntilSocCrossing {
                current: self.range.clamp(load),
                threshold: self.capacity * 0.5,
                falling: true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AsapDpm {
        AsapDpm::dac07(Charge::new(6.0))
    }

    /// The planned setpoint for an idle segment at `load` and `soc`.
    fn current(p: &mut AsapDpm, load: f64, soc: f64) -> Amps {
        p.begin_segment(
            PolicyPhase::Idle,
            Amps::new(load),
            Charge::new(soc),
            Seconds::new(1.0),
        )
        .current()
    }

    #[test]
    fn follows_load_within_range() {
        let mut p = policy();
        for load in [0.1, 0.2, 0.4, 0.9, 1.2] {
            let i = current(&mut p, load, 6.0);
            assert!((i.amps() - load).abs() < 1e-12);
        }
    }

    #[test]
    fn clamps_out_of_range_loads() {
        let mut p = policy();
        assert_eq!(current(&mut p, 1.5, 6.0), Amps::new(1.2));
        assert_eq!(current(&mut p, 0.01, 6.0), Amps::new(0.1));
    }

    #[test]
    fn recharge_hysteresis() {
        let mut p = policy();
        // Above half capacity: follows load.
        assert_eq!(current(&mut p, 0.4, 3.5), Amps::new(0.4));
        assert!(!p.is_recharging());
        // Drops below half: recharge arms.
        assert_eq!(current(&mut p, 0.4, 2.9), Amps::new(1.2));
        assert!(p.is_recharging());
        // Stays armed until full, even above half.
        assert_eq!(current(&mut p, 0.4, 5.0), Amps::new(1.2));
        // Disarms at full.
        assert_eq!(current(&mut p, 0.4, 6.0), Amps::new(0.4));
        assert!(!p.is_recharging());
    }

    #[test]
    fn zero_capacity_store_always_recharges_at_empty() {
        // Degenerate but must not panic: capacity 0 means soc 0 is "not
        // below half" (0 < 0 is false) so the policy just follows.
        let mut p = AsapDpm::dac07(Charge::ZERO);
        assert_eq!(current(&mut p, 0.4, 0.0), Amps::new(0.4));
    }
}
