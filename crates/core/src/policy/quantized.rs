//! Discrete (multi-level) FC output support.
//!
//! Real fuel-flow controllers often support only a discrete set of output
//! set-points rather than a continuum — the configuration studied in the
//! authors' companion work (*Zhuo et al., ISLPED 2006*: "the FC supports
//! multiple output levels"). [`Quantized`] adapts any continuous
//! [`FcOutputPolicy`] to such hardware: each demanded current is snapped
//! to an adjacent level, with the choice between the lower and upper
//! neighbor steered by the storage state so the quantization error does
//! not drift the buffer away from its reference level.

use fcdpm_units::{Amps, Charge, CurrentRange, Seconds};

use super::{ActiveStart, FcOutputPolicy, PolicyPhase, SegmentPlan, SlotEnd, SlotStart};

/// A sorted set of supported FC output levels.
///
/// # Examples
///
/// ```
/// use fcdpm_core::policy::OutputLevels;
/// use fcdpm_units::{Amps, CurrentRange};
///
/// let levels = OutputLevels::uniform(CurrentRange::dac07(), 12);
/// assert_eq!(levels.len(), 12);
/// let (lo, hi) = levels.bracket(Amps::new(0.53));
/// assert!(lo <= Amps::new(0.53) && Amps::new(0.53) <= hi);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OutputLevels {
    levels: NonEmpty,
}

/// A level vector whose non-emptiness is a constructor invariant, so
/// first/last access needs no per-call-site `expect`.
#[derive(Debug, Clone, PartialEq)]
struct NonEmpty(Vec<Amps>);

impl NonEmpty {
    #[track_caller]
    fn new(items: Vec<Amps>) -> Self {
        assert!(!items.is_empty(), "need at least one output level");
        Self(items)
    }

    fn first(&self) -> Amps {
        self.0[0]
    }

    fn last(&self) -> Amps {
        self.0[self.0.len() - 1]
    }

    fn as_slice(&self) -> &[Amps] {
        &self.0
    }
}

impl OutputLevels {
    /// Creates a level set from explicit currents.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty, unsorted, or contains a negative
    /// current.
    #[must_use]
    #[track_caller]
    pub fn new(levels: Vec<Amps>) -> Self {
        assert!(
            levels.windows(2).all(|w| w[0] < w[1]),
            "levels must be strictly ascending"
        );
        let levels = NonEmpty::new(levels);
        assert!(!levels.first().is_negative(), "levels must be non-negative");
        Self { levels }
    }

    /// Creates `count` evenly spaced levels spanning `range`.
    ///
    /// # Panics
    ///
    /// Panics if `count < 2`.
    #[must_use]
    pub fn uniform(range: CurrentRange, count: usize) -> Self {
        Self::new(range.sweep(count))
    }

    /// Number of levels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.levels.as_slice().len()
    }

    /// Whether the set is empty (never true for a constructed set).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels.as_slice().is_empty()
    }

    /// The supported levels, ascending.
    #[must_use]
    pub fn as_slice(&self) -> &[Amps] {
        self.levels.as_slice()
    }

    /// The level closest to `i` (ties resolve to the lower level).
    #[must_use]
    pub fn nearest(&self, i: Amps) -> Amps {
        let (lo, hi) = self.bracket(i);
        if (i - lo) <= (hi - i) {
            lo
        } else {
            hi
        }
    }

    /// The adjacent levels `(floor, ceil)` around `i`. At or beyond the
    /// extremes both elements are the extreme level.
    #[must_use]
    pub fn bracket(&self, i: Amps) -> (Amps, Amps) {
        let first = self.levels.first();
        let last = self.levels.last();
        if i <= first {
            return (first, first);
        }
        if i >= last {
            return (last, last);
        }
        let levels = self.levels.as_slice();
        let pos = levels.partition_point(|l| *l <= i);
        (levels[pos - 1], levels[pos])
    }
}

/// Adapts a continuous FC output policy to discrete-level hardware.
///
/// For every segment, the inner policy's demanded current is snapped to
/// one of its two adjacent levels; the side is chosen to steer the storage
/// state of charge back toward the reference level latched on the first
/// slot (below reference → round up, above → round down). This keeps the
/// quantization error from accumulating in the buffer.
///
/// # Examples
///
/// ```
/// use fcdpm_core::policy::{ConvDpm, FcOutputPolicy, OutputLevels, Quantized};
/// use fcdpm_units::CurrentRange;
///
/// let levels = OutputLevels::uniform(CurrentRange::dac07(), 5);
/// let policy = Quantized::new(ConvDpm::dac07(), levels);
/// assert!(policy.name().starts_with("quantized"));
/// ```
#[derive(Debug)]
pub struct Quantized<P> {
    inner: P,
    levels: OutputLevels,
    c_ref: Option<Charge>,
    name: String,
}

impl<P: FcOutputPolicy> Quantized<P> {
    /// Wraps `inner` with the given level set.
    #[must_use]
    pub fn new(inner: P, levels: OutputLevels) -> Self {
        let name = format!("quantized[{}]({})", levels.len(), inner.name());
        Self {
            inner,
            levels,
            c_ref: None,
            name,
        }
    }

    /// The wrapped policy.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The level set in use.
    #[must_use]
    pub fn levels(&self) -> &OutputLevels {
        &self.levels
    }
}

impl<P: FcOutputPolicy> FcOutputPolicy for Quantized<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_slot(&mut self, start: &SlotStart) {
        self.c_ref.get_or_insert(start.soc);
        self.inner.begin_slot(start);
    }

    fn begin_active(&mut self, start: &ActiveStart) {
        self.inner.begin_active(start);
    }

    fn begin_segment(
        &mut self,
        phase: PolicyPhase,
        load: Amps,
        soc: Charge,
        remaining: Seconds,
    ) -> SegmentPlan {
        // Plan through the inner policy, then snap the planned current to
        // one level for the whole segment, steered by the segment-entry
        // state of charge. Inner crossing plans keep their threshold, so
        // the wrapper re-plans (and re-snaps) exactly when the inner
        // policy's state machine advances.
        let plan = self.inner.begin_segment(phase, load, soc, remaining);
        plan.map_current(|demanded| {
            let (lo, hi) = self.levels.bracket(demanded);
            match self.c_ref {
                Some(c_ref) if soc < c_ref => hi,
                Some(_) => lo,
                None => self.levels.nearest(demanded),
            }
        })
    }

    fn end_slot(&mut self, end: &SlotEnd) {
        self.inner.end_slot(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AsapDpm, ConvDpm};

    fn levels() -> OutputLevels {
        OutputLevels::new(vec![
            Amps::new(0.1),
            Amps::new(0.4),
            Amps::new(0.8),
            Amps::new(1.2),
        ])
    }

    #[test]
    fn bracket_and_nearest() {
        let l = levels();
        assert_eq!(l.bracket(Amps::new(0.5)), (Amps::new(0.4), Amps::new(0.8)));
        assert_eq!(l.bracket(Amps::new(0.05)), (Amps::new(0.1), Amps::new(0.1)));
        assert_eq!(l.bracket(Amps::new(2.0)), (Amps::new(1.2), Amps::new(1.2)));
        // Exact level brackets to itself on the floor side.
        assert_eq!(l.bracket(Amps::new(0.4)), (Amps::new(0.4), Amps::new(0.8)));
        assert_eq!(l.nearest(Amps::new(0.55)), Amps::new(0.4));
        assert_eq!(l.nearest(Amps::new(0.65)), Amps::new(0.8));
    }

    #[test]
    fn uniform_levels_span_range() {
        let l = OutputLevels::uniform(CurrentRange::dac07(), 12);
        assert_eq!(l.len(), 12);
        assert_eq!(l.as_slice()[0], Amps::new(0.1));
        assert_eq!(l.as_slice()[11], Amps::new(1.2));
        assert!(!l.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_levels_rejected() {
        let _ = OutputLevels::new(vec![Amps::new(0.4), Amps::new(0.1)]);
    }

    #[test]
    fn soc_steering_picks_side() {
        // Small ASAP capacity so its recharge trigger (soc < capacity/2)
        // never fires at the SoCs used below.
        let mut q = Quantized::new(AsapDpm::dac07(Charge::new(4.0)), levels());
        q.begin_slot(&SlotStart {
            index: 0,
            directive: fcdpm_device::SleepDirective::Standby,
            predicted_idle: None,
            soc: Charge::new(5.0), // reference latched at 5
        });
        // Inner follows the 0.5 A load → bracket (0.4, 0.8).
        let mut current = |soc: f64| {
            q.begin_segment(
                PolicyPhase::Idle,
                Amps::new(0.5),
                Charge::new(soc),
                Seconds::new(1.0),
            )
            .current()
        };
        assert_eq!(current(3.0), Amps::new(0.8), "below reference rounds up");
        assert_eq!(current(7.0), Amps::new(0.4), "above reference rounds down");
    }

    #[test]
    fn conv_snaps_to_top_level() {
        let mut q = Quantized::new(ConvDpm::dac07(), levels());
        let plan = q.begin_segment(
            PolicyPhase::Active,
            Amps::new(1.0),
            Charge::ZERO,
            Seconds::new(1.0),
        );
        assert_eq!(plan, SegmentPlan::Steady(Amps::new(1.2)));
    }

    #[test]
    fn segment_plan_snaps_once_and_keeps_inner_crossings() {
        let mut q = Quantized::new(AsapDpm::dac07(Charge::new(4.0)), levels());
        q.begin_slot(&SlotStart {
            index: 0,
            directive: fcdpm_device::SleepDirective::Standby,
            predicted_idle: None,
            soc: Charge::new(5.0),
        });
        // Inner ASAP follows the 0.5 A load and plans a crossing at half
        // capacity; the wrapper snaps the current (below reference → up)
        // and keeps the threshold.
        match q.begin_segment(
            PolicyPhase::Idle,
            Amps::new(0.5),
            Charge::new(3.0),
            Seconds::new(10.0),
        ) {
            SegmentPlan::UntilSocCrossing {
                current,
                threshold,
                falling,
            } => {
                assert_eq!(current, Amps::new(0.8));
                assert_eq!(threshold, Charge::new(2.0));
                assert!(falling);
            }
            other => panic!("expected a crossing plan, got {other:?}"),
        }
        // A steady inner plan snaps to a steady level.
        let mut q = Quantized::new(ConvDpm::dac07(), levels());
        assert_eq!(
            q.begin_segment(
                PolicyPhase::Active,
                Amps::new(1.0),
                Charge::ZERO,
                Seconds::new(10.0)
            ),
            SegmentPlan::Steady(Amps::new(1.2))
        );
    }

    #[test]
    fn name_reflects_wrapping() {
        let q = Quantized::new(ConvDpm::dac07(), levels());
        assert_eq!(q.name(), "quantized[4](Conv-DPM)");
        assert_eq!(q.levels().len(), 4);
        assert_eq!(q.inner().name(), "Conv-DPM");
    }
}
