//! Conventional DPM baseline (no fuel-flow control).

use fcdpm_units::{Amps, Charge, CurrentRange, Seconds};

use super::{FcOutputPolicy, PolicyPhase, SegmentPlan};

/// Conv-DPM (Section 5): the conventional DPM policy runs on the embedded
/// system, but the fuel-cell system has no output control — it constantly
/// delivers the current corresponding to the highest load it may face,
/// i.e. the upper bound of the load-following range (`I_F = 1.2 A`,
/// `I_fc ≈ 1.3 A` in the paper's setup). Surplus goes into the storage
/// element and, once that is full, to the bleeder.
///
/// # Examples
///
/// ```
/// use fcdpm_core::policy::{ConvDpm, FcOutputPolicy, PolicyPhase, SegmentPlan};
/// use fcdpm_units::{Amps, Charge, Seconds};
///
/// let mut p = ConvDpm::dac07();
/// let plan = p.begin_segment(PolicyPhase::Idle, Amps::new(0.2), Charge::ZERO, Seconds::new(5.0));
/// assert_eq!(plan, SegmentPlan::Steady(Amps::new(1.2)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConvDpm {
    range: CurrentRange,
}

impl ConvDpm {
    /// Creates the baseline over a load-following range.
    #[must_use]
    pub fn new(range: CurrentRange) -> Self {
        Self { range }
    }

    /// The paper's configuration (`[0.1 A, 1.2 A]`).
    #[must_use]
    pub fn dac07() -> Self {
        Self::new(CurrentRange::dac07())
    }
}

impl FcOutputPolicy for ConvDpm {
    fn name(&self) -> &str {
        "Conv-DPM"
    }

    fn begin_segment(
        &mut self,
        _phase: PolicyPhase,
        _load: Amps,
        _soc: Charge,
        _remaining: Seconds,
    ) -> SegmentPlan {
        // Pinned at the range maximum regardless of phase, load or state
        // of charge.
        SegmentPlan::Steady(self.range.max())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_pinned_at_range_max() {
        let mut p = ConvDpm::dac07();
        for (phase, load, soc) in [
            (PolicyPhase::Idle, 0.2, 0.0),
            (PolicyPhase::Active, 1.22, 6.0),
            (PolicyPhase::Idle, 0.4, 3.0),
        ] {
            let plan = p.begin_segment(phase, Amps::new(load), Charge::new(soc), Seconds::new(1.0));
            assert_eq!(plan, SegmentPlan::Steady(Amps::new(1.2)));
        }
        assert_eq!(p.name(), "Conv-DPM");
    }

    #[test]
    fn custom_range() {
        let mut p = ConvDpm::new(CurrentRange::new(Amps::new(0.2), Amps::new(0.9)));
        let plan = p.begin_segment(
            PolicyPhase::Idle,
            Amps::ZERO,
            Charge::ZERO,
            Seconds::new(1.0),
        );
        assert_eq!(plan.current(), Amps::new(0.9));
    }
}
